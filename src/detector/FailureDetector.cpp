//===- detector/FailureDetector.cpp - Perfect failure detector -------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "detector/FailureDetector.h"

#include "support/Sorted.h"

#include <algorithm>
#include <cassert>

using namespace cliffedge;
using namespace cliffedge::detector;

PerfectFailureDetector::PerfectFailureDetector(sim::Simulator &InSim,
                                               uint32_t NumNodes,
                                               DetectionDelayModel InDelay,
                                               NotifyFn InOnCrash)
    : Sim(InSim), Delay(std::move(InDelay)), OnCrash(std::move(InOnCrash)),
      Crashed(NumNodes), Regs(NumNodes) {
  installNoticeHandler();
}

PerfectFailureDetector::PerfectFailureDetector(sim::Simulator &InSim,
                                               const graph::Graph &G,
                                               DetectionDelayModel InDelay,
                                               NotifyFn InOnCrash)
    : Sim(InSim), Delay(std::move(InDelay)), OnCrash(std::move(InOnCrash)),
      Crashed(G.numNodes()), Regs(G) {
  installNoticeHandler();
}

void PerfectFailureDetector::installNoticeHandler() {
  Sim.setNotice([this](NodeId Watcher, NodeId Target) {
    // Crashed watchers receive nothing; strong accuracy is immediate since
    // notifications are only ever scheduled for real crashes.
    if (Crashed[Watcher])
      return;
    ++Delivered;
    OnCrash(Watcher, Target);
  });
}

void PerfectFailureDetector::monitor(NodeId Watcher,
                                     const graph::Region &Targets) {
  assert(Watcher < Crashed.size() && "watcher out of range");
  for (NodeId Target : Targets) {
    assert(Target < Crashed.size() && "target out of range");
    if (Target == Watcher)
      continue; // A node does not monitor itself.
    if (!Regs.subscribe(Watcher, Target))
      continue; // Already subscribed: at-most-once semantics.
    // Strong completeness for late subscriptions: the target may already be
    // down; notify after the usual detection delay.
    if (Crashed[Target])
      scheduleNotification(Watcher, Target);
  }
}

void PerfectFailureDetector::nodeCrashed(NodeId Node) {
  assert(Node < Crashed.size() && "node out of range");
  assert(!Crashed[Node] && "node crashed twice");
  Crashed.mut(Node) = true;
  Regs.forEachWatcher(
      Node, [&](NodeId Watcher) { scheduleNotification(Watcher, Node); });
}

void PerfectFailureDetector::scheduleNotification(NodeId Watcher,
                                                  NodeId Target) {
  // A plain simulator record, not a closure: one notice per (watcher,
  // crashed neighbour) pair is the detector's whole fan-out.
  Sim.atNotice(Sim.now() + Delay(Watcher, Target), Watcher, Target);
}
