//===- baseline/Runners.h - Simulated harnesses for baselines ---*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scenario harnesses mirroring trace::ScenarioRunner for the two baseline
/// protocols, so benches can run identical crash schedules against the
/// cliff-edge protocol, the global flooding strawman, and the naive local
/// ablation, and compare transport statistics and decisions.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_BASELINE_RUNNERS_H
#define CLIFFEDGE_BASELINE_RUNNERS_H

#include "baseline/GlobalConsensus.h"
#include "baseline/NaiveLocal.h"
#include "detector/FailureDetector.h"
#include "graph/Graph.h"
#include "sim/Network.h"
#include "sim/Simulator.h"
#include "trace/Runner.h"

#include <memory>
#include <vector>

namespace cliffedge {
namespace baseline {

/// Runs the global flooding consensus over a simulated deployment.
class GlobalScenarioRunner {
public:
  explicit GlobalScenarioRunner(const graph::Graph &G,
                                sim::LatencyModel Latency = nullptr,
                                detector::DetectionDelayModel Delay =
                                    nullptr);

  void scheduleCrash(NodeId Node, SimTime When);
  void scheduleCrashAll(const graph::Region &Nodes, SimTime When);

  /// Runs to quiescence; returns events processed.
  uint64_t run();

  const sim::NetworkStats &netStats() const { return Net.stats(); }
  const GlobalFloodingNode &node(NodeId N) const { return *Nodes[N]; }

  /// Number of live nodes that decided.
  size_t decidersCount() const;

  /// True if all deciders agreed on the same crashed set.
  bool allAgree() const;

private:
  const graph::Graph &G;
  sim::Simulator Sim;
  sim::Network Net;
  detector::PerfectFailureDetector Detector;
  std::vector<std::unique_ptr<GlobalFloodingNode>> Nodes;
  graph::Region Faulty;
};

/// Runs the naive local baseline, producing trace::DecisionRecord entries
/// so trace::Checker can count its specification violations.
class NaiveScenarioRunner {
public:
  explicit NaiveScenarioRunner(const graph::Graph &G,
                               sim::LatencyModel Latency = nullptr,
                               detector::DetectionDelayModel Delay = nullptr);

  void scheduleCrash(NodeId Node, SimTime When);
  void scheduleCrashAll(const graph::Region &Nodes, SimTime When);
  uint64_t run();

  const std::vector<trace::DecisionRecord> &decisions() const {
    return Decisions;
  }
  const sim::NetworkStats &netStats() const { return Net.stats(); }
  const graph::Region &faultySet() const { return Faulty; }
  const std::vector<SimTime> &crashTimes() const { return CrashTimes; }
  const graph::Graph &topology() const { return G; }

private:
  /// The runner's core::NodeHost: one object serves every node.
  struct Host final : core::NodeHost {
    explicit Host(NaiveScenarioRunner &R) : R(R) {}
    void multicast(NodeId From, const graph::Region &To,
                   const core::Message &M) override;
    void monitorCrash(NodeId From, const graph::Region &Targets) override;
    void decide(NodeId From, const graph::Region &View,
                core::Value Chosen) override;
    core::Value selectValue(NodeId From,
                            const graph::Region &View) override;
    NaiveScenarioRunner &R;
  };

  const graph::Graph &G;
  core::ViewTable Views;
  sim::Simulator Sim;
  sim::Network Net;
  detector::PerfectFailureDetector Detector;
  Host HostObj{*this};
  std::vector<std::unique_ptr<NaiveLocalNode>> Nodes;
  std::vector<trace::DecisionRecord> Decisions;
  graph::Region Faulty;
  std::vector<SimTime> CrashTimes;
};

} // namespace baseline
} // namespace cliffedge

#endif // CLIFFEDGE_BASELINE_RUNNERS_H
