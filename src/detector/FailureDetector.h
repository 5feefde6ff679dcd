//===- detector/FailureDetector.h - Perfect failure detector ----*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The subscription-based perfect failure detector of §3.1. A node p
/// subscribes to the crashes of a set S via monitorCrash(S); the detector
/// guarantees:
///
///  * Strong Accuracy — a <crash|q> event is only raised at p if q really
///    crashed and p subscribed to q; and
///  * Strong Completeness — if q crashed and p subscribed (before or after
///    the crash), p eventually receives <crash|q>.
///
/// Both hold by construction in the simulator. The detection *delay* is a
/// pluggable model: the protocol must be correct under any finite delay,
/// and bench_detection_latency measures the cost of slow detection.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_DETECTOR_FAILUREDETECTOR_H
#define CLIFFEDGE_DETECTOR_FAILUREDETECTOR_H

#include "detector/SubscriptionRegistry.h"
#include "graph/Region.h"
#include "sim/Simulator.h"
#include "support/Ids.h"
#include "support/PagedStore.h"

#include <functional>
#include <vector>

namespace cliffedge {
namespace detector {

/// Detection delay for (watcher, target), in simulator ticks.
using DetectionDelayModel =
    std::function<SimTime(NodeId Watcher, NodeId Target)>;

/// Every crash is detected after exactly \p Ticks.
inline DetectionDelayModel fixedDetectionDelay(SimTime Ticks) {
  return [Ticks](NodeId, NodeId) { return Ticks; };
}

/// Simulated perfect failure detector.
class PerfectFailureDetector {
public:
  /// \p OnCrash routes a <crash|Target> event to \p Watcher's protocol
  /// instance. The detector never notifies crashed watchers. Notices are
  /// the simulator's native records with one run-wide handler, so a
  /// simulator hosts at most one detector: constructing a second one on
  /// the same simulator aborts.
  using NotifyFn = std::function<void(NodeId Watcher, NodeId Target)>;

  PerfectFailureDetector(sim::Simulator &Sim, uint32_t NumNodes,
                         DetectionDelayModel Delay, NotifyFn OnCrash);

  /// Graph-backed subscriptions: adjacent (watcher, target) pairs are
  /// implicit and only non-adjacent extras are stored, cutting the
  /// registry from O(E) to O(crash activity) — see SubscriptionRegistry
  /// for the start-discipline contract this assumes (the scenario runner
  /// satisfies it: every node's <init> subscription precedes any crash).
  /// Notification order is identical to the explicit-mode detector.
  PerfectFailureDetector(sim::Simulator &Sim, const graph::Graph &G,
                         DetectionDelayModel Delay, NotifyFn OnCrash);

  /// The paper's <monitorCrash | S> issued by \p Watcher. Idempotent per
  /// (watcher, target) pair. If a target is already crashed the
  /// notification is scheduled immediately (strong completeness).
  void monitor(NodeId Watcher, const graph::Region &Targets);

  /// Tells the detector that \p Node crashed now. Must be called exactly
  /// once per crash (the scenario runner does this alongside
  /// Network::crash).
  void nodeCrashed(NodeId Node);

  bool isCrashed(NodeId Node) const { return Crashed[Node]; }

  /// Number of <crash|.> notifications delivered so far (for tests).
  uint64_t notificationsDelivered() const { return Delivered; }

private:
  sim::Simulator &Sim;
  DetectionDelayModel Delay;
  NotifyFn OnCrash;
  /// Paged: only pages holding a crashed node materialize.
  support::PagedStore<bool> Crashed;
  /// Who watches whom (explicit or graph-backed, per the constructor).
  SubscriptionRegistry Regs;
  uint64_t Delivered = 0;

  /// Routes the simulator's native notice events to OnCrash. One detector
  /// per simulator: the handler is run-wide.
  void installNoticeHandler();
  void scheduleNotification(NodeId Watcher, NodeId Target);
};

} // namespace detector
} // namespace cliffedge

#endif // CLIFFEDGE_DETECTOR_FAILUREDETECTOR_H
