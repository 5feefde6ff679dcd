//===- trace/Runner.h - One-stop simulated scenario harness -----*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ScenarioRunner wires a topology, the event simulator, the FIFO network
/// and the perfect failure detector around the host core (one
/// CliffEdgeNode per touched node, see trace/HostCore.h), runs a crash
/// schedule to quiescence, and collects everything the checkers and
/// benches need: decisions (with times), transport statistics, the send
/// log, and per-node protocol counters. engine::DesEngine runs every DES
/// job through it.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_TRACE_RUNNER_H
#define CLIFFEDGE_TRACE_RUNNER_H

#include "core/CliffEdgeNode.h"
#include "core/ViewTable.h"
#include "detector/FailureDetector.h"
#include "graph/Graph.h"
#include "net/Link.h"
#include "sim/Latency.h"
#include "sim/Network.h"
#include "sim/Simulator.h"
#include "trace/HostCore.h"

#include <functional>
#include <memory>
#include <vector>

namespace cliffedge {
namespace trace {

class StreamingChecker;

/// One <decide|V,d> output event, with provenance.
struct DecisionRecord {
  NodeId Node = InvalidNode;
  graph::Region View;
  core::Value Chosen = 0;
  SimTime When = 0;
};

/// One protocol-internal transition (core::ProtocolEvent) with node and
/// simulated-time provenance.
struct TimedProtocolEvent {
  NodeId Node = InvalidNode;
  core::ProtocolEvent Event;
  SimTime When = 0;
};

/// Configuration of a simulated run.
struct RunnerOptions {
  core::Config NodeConfig;

  /// Message latency; default: every message takes 10 ticks.
  sim::LatencyModel Latency;

  /// Declares Latency per-channel monotone (a later send never yields an
  /// earlier delivery), which lets the network skip its FIFO-clamp table.
  /// Set automatically when the default fixed latency is used; set it
  /// yourself only if your custom model guarantees monotonicity.
  bool MonotoneLatency = false;

  /// Raw link conditions beneath the transport (drop/dup/reorder/latency
  /// override). The default is inactive: the paper's reliable-FIFO
  /// channels are assumed and the transport takes its raw fast path. An
  /// active spec layers the net:: fault plane (and, when faults are
  /// injected, the reliable-channel sublayer) beneath delivery on every
  /// backend.
  net::LinkSpec Link;

  /// Seeds the fault plane's per-channel streams. The engines overwrite
  /// this with the job seed so DES and sharded runs of one (spec, seed)
  /// share identical per-channel fault schedules; set it manually only
  /// when driving ScenarioRunner directly.
  uint64_t LinkSeed = 0;

  /// Perturbs the per-channel fault schedules without changing the spec's
  /// rates: a non-zero salt re-derives the fault plane's effective seed
  /// (search plane's `perturb link-salt`). Zero leaves the schedules
  /// byte-identical to the unsalted run.
  uint64_t LinkSalt = 0;

  /// Seeds the adversarial delivery tie-break (search plane's `perturb
  /// tie-bias`): same-timestamp deliveries drain in a seeded permutation
  /// that still respects per-channel FIFO order, so every biased run is a
  /// legal execution. Zero (the default) is byte-identical to today's
  /// schedule-order tie-break on both backends.
  uint64_t TieBreakBias = 0;

  /// Failure-detection delay; default: 5 ticks.
  detector::DetectionDelayModel DetectionDelay;

  /// Proposal value per (node, view); default: the proposing node's id,
  /// which makes deterministicPick choose the smallest border id's value.
  std::function<core::Value(NodeId, const graph::Region &)> SelectValue;

  /// Record every send for CD3 checking (cheap; on by default).
  bool RecordSends = true;

  /// Optional online sink: crashes, logical sends and decisions are fed to
  /// this checker as they happen, making post-hoc trace materialization
  /// unnecessary (RecordSends can then be off for bounded-memory service
  /// runs). Not owned; must outlive the run. The caller seals epochs.
  StreamingChecker *StreamingCheck = nullptr;

  /// Record protocol-internal transitions (proposals, rejections, round
  /// advances...) with timestamps. engine::DesEngine turns this off: its
  /// result has no event log.
  bool RecordProtocolEvents = true;

  /// Safety valve: abort the run after this many simulator events
  /// (0 = unlimited). A correct run always quiesces on its own.
  uint64_t MaxEvents = 0;
};

/// Fills unset RunnerOptions fields with the stack's defaults: fixed
/// latency of 10 ticks (with the monotone FIFO fast path), a fixed
/// 5-tick detection delay, and node-id value selection. Every execution
/// backend defaults through this one function, so the DES and sharded
/// engines can never diverge on an unset option.
RunnerOptions withRunnerDefaults(RunnerOptions Opts);

/// Owns a full simulated deployment of the protocol.
class ScenarioRunner {
public:
  explicit ScenarioRunner(const graph::Graph &G,
                          RunnerOptions Opts = RunnerOptions());

  /// Schedules \p Node to crash at time \p When. A node outside the
  /// topology or one already scheduled is a malformed plan: the runner
  /// reports it and aborts, in every build type.
  void scheduleCrash(NodeId Node, SimTime When);

  /// Schedules every node of \p Nodes to crash at time \p When.
  void scheduleCrashAll(const graph::Region &Nodes, SimTime When);

  /// Runs to quiescence; returns the number of events processed.
  uint64_t run();

  // -- Results -------------------------------------------------------------

  const std::vector<DecisionRecord> &decisions() const { return Decisions; }
  const sim::NetworkStats &netStats() const { return Net.stats(); }
  const std::vector<sim::SendRecord> &sendLog() const {
    return Net.sendLog();
  }

  /// Move the decisions / send log out, leaving them empty: for harvesting
  /// a finished run that is about to be destroyed.
  std::vector<DecisionRecord> takeDecisions() { return std::move(Decisions); }
  std::vector<sim::SendRecord> takeSendLog() { return Net.takeSendLog(); }

  /// Timestamped protocol-internal transitions (when recording is on).
  const std::vector<TimedProtocolEvent> &protocolEvents() const {
    return ProtoEvents;
  }

  /// All nodes that were scheduled to crash (the run's faulty set).
  const graph::Region &faultySet() const { return Core.faulty(); }

  /// Introspection of one node. A node the failure wave never touched
  /// reads as a pristine unbound shell (see HostCore::forEachTouchedNode).
  const core::CliffEdgeNode &node(NodeId Node) const {
    return Core.slot(Node).Node;
  }

  const graph::Graph &topology() const { return G; }
  sim::Simulator &simulator() { return Sim; }
  core::ViewTable &viewTable() { return Core.viewTable(); }
  /// The run's node store, crash times and harvest.
  const HostCore &hostCore() const { return Core; }

  /// Sum of a per-node counter over all (touched) nodes, e.g. total
  /// proposals.
  core::CliffEdgeNode::Counters totalCounters() const;

  /// Time of the last decision (0 when nobody decided).
  SimTime lastDecisionTime() const;

private:
  /// The runner's core::NodeHost: one object serves every node — effects
  /// arrive tagged with the acting node's id, so there is no per-node
  /// callback state at all (the old wiring carried five std::functions
  /// per node, 160 bytes each across a million-node world).
  struct Host final : core::NodeHost {
    explicit Host(ScenarioRunner &R) : R(R) {}
    void multicast(NodeId From, const graph::Region &To,
                   const core::Message &M) override;
    void monitorCrash(NodeId From, const graph::Region &Targets) override;
    void decide(NodeId From, const graph::Region &View,
                core::Value Chosen) override;
    core::Value selectValue(NodeId From, const graph::Region &View) override;
    void onEvent(NodeId From, const core::ProtocolEvent &E) override;
    bool wantsEvents() const override;
    ScenarioRunner &R;
  };

  const graph::Graph &G;
  RunnerOptions Opts;
  Host HostObj;
  /// Declared before the simulator on purpose: a runner destroyed
  /// mid-flight (MaxEvents abort, runUntil cut) still has pending delivery
  /// events holding FrameRefs, and their release must find the core's
  /// frame pool alive.
  HostCore Core;
  sim::Simulator Sim;
  sim::Network Net;
  detector::PerfectFailureDetector Detector;
  std::vector<DecisionRecord> Decisions;
  std::vector<TimedProtocolEvent> ProtoEvents;
};

} // namespace trace
} // namespace cliffedge

#endif // CLIFFEDGE_TRACE_RUNNER_H
