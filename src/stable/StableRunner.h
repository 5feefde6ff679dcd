//===- stable/StableRunner.h - Agreement on predicate regions ---*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cliff-edge consensus over a stable predicate instead of crashes — the
/// paper's §5 extension. The unmodified core::CliffEdgeNode runs at every
/// node; "crash" inputs are wired to predicate notifications, and a node
/// at which the predicate starts holding *withdraws* from the agreement:
/// it stops reacting to protocol traffic and notifications exactly as a
/// crashed node would, while its application keeps running (modelled by
/// the AppTicks counter, which keeps increasing after marking).
///
/// The correspondence is exact: from the border's point of view a marked
/// node is indistinguishable from a crashed one (silent w.r.t. the
/// protocol, reported by the detection service), so all seven CD
/// properties carry over with "crashed region" read as "marked region" —
/// and trace::Checker verifies them unchanged against the marked set.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_STABLE_STABLERUNNER_H
#define CLIFFEDGE_STABLE_STABLERUNNER_H

#include "core/CliffEdgeNode.h"
#include "graph/Graph.h"
#include "sim/Latency.h"
#include "sim/Network.h"
#include "sim/Simulator.h"
#include "stable/PredicateService.h"
#include "trace/Checker.h"
#include "trace/Runner.h"

#include <memory>
#include <optional>
#include <vector>

namespace cliffedge {
namespace stable {

/// Options for a stable-predicate run.
struct StableRunnerOptions {
  core::Config NodeConfig;
  sim::LatencyModel Latency;        ///< Default: fixed 10 ticks.
  /// Latency is per-channel monotone; auto-set with the default latency
  /// (see trace::RunnerOptions::MonotoneLatency).
  bool MonotoneLatency = false;
  NoticeDelayModel NoticeDelay;     ///< Default: fixed 5 ticks.
  /// App-level heartbeat period; every node (marked or not) ticks its
  /// application counter until \p AppTicksEnd. 0 disables heartbeats.
  SimTime AppTickPeriod = 0;
  SimTime AppTicksEnd = 0;
};

/// Harness: topology + simulator + network + predicate service + one
/// protocol node per graph node.
class StableScenarioRunner {
public:
  explicit StableScenarioRunner(const graph::Graph &G,
                                StableRunnerOptions Opts =
                                    StableRunnerOptions());

  /// The predicate starts holding at \p Node at time \p When.
  void scheduleMark(NodeId Node, SimTime When);
  void scheduleMarkAll(const graph::Region &Nodes, SimTime When);

  /// Runs to quiescence; returns events processed.
  uint64_t run();

  const std::vector<trace::DecisionRecord> &decisions() const {
    return Decisions;
  }
  const graph::Region &markedSet() const { return Marked; }
  std::optional<SimTime> markTime(NodeId Node) const;
  const sim::NetworkStats &netStats() const { return Net.stats(); }
  const std::vector<sim::SendRecord> &sendLog() const {
    return Net.sendLog();
  }
  const graph::Graph &topology() const { return G; }

  /// Application heartbeats executed by \p Node — keeps counting after
  /// the node is marked, demonstrating marked != dead.
  uint64_t appTicks(NodeId Node) const { return AppTicks[Node]; }

  /// Builds a Checker input with the *marked* set as the "faulty" set:
  /// CD1..CD7 transfer verbatim to the predicate reading.
  trace::CheckInput makeCheckInput() const;

private:
  /// One application heartbeat of node \p N; re-arms itself.
  void appTick(NodeId N);

  /// The runner's core::NodeHost: one object serves every node; effects
  /// of a withdrawn node's protocol instance are suppressed here.
  struct Host final : core::NodeHost {
    explicit Host(StableScenarioRunner &R) : R(R) {}
    void multicast(NodeId From, const graph::Region &To,
                   const core::Message &M) override;
    void monitorCrash(NodeId From, const graph::Region &Targets) override;
    void decide(NodeId From, const graph::Region &View,
                core::Value Chosen) override;
    core::Value selectValue(NodeId From,
                            const graph::Region &View) override;
    StableScenarioRunner &R;
  };

  const graph::Graph &G;
  StableRunnerOptions Opts;
  core::ViewTable Views{G, Opts.NodeConfig.Ranking};
  sim::Simulator Sim;
  sim::Network Net;
  PredicateService Service;
  Host HostObj{*this};
  /// The run's single execution domain, shared by every node.
  core::NodeContext Ctx{G, Views, Opts.NodeConfig, HostObj};
  std::vector<core::CliffEdgeNode> Nodes;
  std::vector<bool> Withdrawn;
  std::vector<uint64_t> AppTicks;
  std::vector<trace::DecisionRecord> Decisions;
  graph::Region Marked;
  std::vector<SimTime> MarkTimes;
};

} // namespace stable
} // namespace cliffedge

#endif // CLIFFEDGE_STABLE_STABLERUNNER_H
