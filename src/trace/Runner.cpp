//===- trace/Runner.cpp - One-stop simulated scenario harness --------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "trace/Runner.h"

#include "trace/StreamingChecker.h"

#include <algorithm>

using namespace cliffedge;
using namespace cliffedge::trace;

RunnerOptions trace::withRunnerDefaults(RunnerOptions Opts) {
  if (!Opts.Latency) {
    Opts.Latency = sim::fixedLatency(10);
    Opts.MonotoneLatency = true;
  }
  if (!Opts.DetectionDelay)
    Opts.DetectionDelay = detector::fixedDetectionDelay(5);
  if (!Opts.SelectValue)
    Opts.SelectValue = [](NodeId Node, const graph::Region &) {
      return static_cast<core::Value>(Node);
    };
  return Opts;
}

ScenarioRunner::ScenarioRunner(const graph::Graph &InG, RunnerOptions InOpts)
    : G(InG), Opts(withRunnerDefaults(std::move(InOpts))), HostObj(*this),
      Core(InG, Opts, HostObj), Net(Sim, G.numNodes(), Opts.Latency),
      // Graph-backed: the <init> wave's neighbour subscriptions stay
      // implicit in the topology instead of an O(E) table copy.
      Detector(Sim, G, Opts.DetectionDelay,
               [this](NodeId Watcher, NodeId Target) {
                 Core.liveNode(Watcher).onCrash(Target);
               }) {
  Net.setRecording(Opts.RecordSends);
  Net.setMonotoneLatency(Opts.MonotoneLatency);
  if (Opts.StreamingCheck)
    Net.setSendObserver([this](SimTime When, NodeId From, NodeId To,
                               uint32_t Bytes) {
      Opts.StreamingCheck->onSend(When, From, To, Bytes);
    });
  Net.enableFaultPlane(Opts.Link, Opts.LinkSeed, Opts.LinkSalt);
  Sim.setTieBias(Opts.TieBreakBias);
  // Steady state keeps roughly a border's worth of frames per node in
  // flight; pre-sizing the event heap avoids reallocation churn early on.
  // Capped: detection is border-local, so a million-node world never has
  // anywhere near 4M concurrent events — an uncapped reserve would be
  // ~100 MB of permanently-idle heap at that scale.
  Sim.reserve(std::min<size_t>(size_t(G.numNodes()) * 4, size_t(1) << 18));
  Net.setDeliver(
      [this](NodeId From, NodeId To, const sim::Network::Frame &Bytes) {
        Core.liveNode(To).onDeliver(From, Core.decoded(From, Bytes));
      });
}

void ScenarioRunner::Host::multicast(NodeId From, const graph::Region &To,
                                     const core::Message &M) {
  support::FrameRef Frame = R.Core.encode(From, M);
  for (NodeId Recipient : To)
    R.Net.send(From, Recipient, Frame);
}

void ScenarioRunner::Host::monitorCrash(NodeId From,
                                        const graph::Region &Targets) {
  R.Detector.monitor(From, Targets);
}

void ScenarioRunner::Host::decide(NodeId From, const graph::Region &View,
                                  core::Value Chosen) {
  R.Decisions.push_back(DecisionRecord{From, View, Chosen, R.Sim.now()});
  if (R.Opts.StreamingCheck)
    R.Opts.StreamingCheck->onDecision(From, View, Chosen, R.Sim.now());
}

core::Value ScenarioRunner::Host::selectValue(NodeId From,
                                              const graph::Region &View) {
  return R.Opts.SelectValue(From, View);
}

void ScenarioRunner::Host::onEvent(NodeId From,
                                   const core::ProtocolEvent &E) {
  R.ProtoEvents.push_back(TimedProtocolEvent{From, E, R.Sim.now()});
}

bool ScenarioRunner::Host::wantsEvents() const {
  return R.Opts.RecordProtocolEvents;
}

void ScenarioRunner::scheduleCrash(NodeId Node, SimTime When) {
  Core.admitCrash(Node, When);
  Sim.at(When, [this, Node]() {
    Net.crash(Node);
    Detector.nodeCrashed(Node);
  });
}

void ScenarioRunner::scheduleCrashAll(const graph::Region &Nodes_,
                                      SimTime When) {
  for (NodeId N : Nodes_)
    scheduleCrash(N, When);
}

uint64_t ScenarioRunner::run() { return Sim.run(Opts.MaxEvents); }

core::CliffEdgeNode::Counters ScenarioRunner::totalCounters() const {
  core::CliffEdgeNode::Counters Total;
  // Untouched nodes count zero everywhere.
  Core.forEachTouchedNode([&Total](const core::CliffEdgeNode &Node) {
    const core::CliffEdgeNode::Counters &C = Node.counters();
    Total.CrashesObserved += C.CrashesObserved;
    Total.Proposals += C.Proposals;
    Total.Rejections += C.Rejections;
    Total.RoundsStarted += C.RoundsStarted;
    Total.InstancesFailed += C.InstancesFailed;
    Total.EarlyTerminations += C.EarlyTerminations;
    Total.MessagesIgnored += C.MessagesIgnored;
  });
  return Total;
}

SimTime ScenarioRunner::lastDecisionTime() const {
  SimTime Last = 0;
  for (const DecisionRecord &D : Decisions)
    Last = std::max(Last, D.When);
  return Last;
}
