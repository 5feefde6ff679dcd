//===- stable/StableRunner.cpp - Agreement on predicate regions -------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "stable/StableRunner.h"

#include "core/Wire.h"

#include <cassert>

using namespace cliffedge;
using namespace cliffedge::stable;

static StableRunnerOptions withDefaults(StableRunnerOptions Opts) {
  if (!Opts.Latency) {
    Opts.Latency = sim::fixedLatency(10);
    Opts.MonotoneLatency = true;
  }
  if (!Opts.NoticeDelay)
    Opts.NoticeDelay = fixedNoticeDelay(5);
  return Opts;
}

StableScenarioRunner::StableScenarioRunner(const graph::Graph &InG,
                                           StableRunnerOptions InOpts)
    : G(InG), Opts(withDefaults(std::move(InOpts))),
      Net(Sim, G.numNodes(), Opts.Latency),
      Service(Sim, G.numNodes(), Opts.NoticeDelay,
              [this](NodeId Watcher, NodeId Target) {
                // Withdrawn (marked) nodes ignore the agreement entirely.
                if (!Withdrawn[Watcher])
                  Nodes[Watcher].onCrash(Target);
              }),
      Withdrawn(G.numNodes(), false), AppTicks(G.numNodes(), 0),
      MarkTimes(G.numNodes(), TimeNever) {
  Net.setRecording(true);
  Net.setMonotoneLatency(Opts.MonotoneLatency);
  Sim.reserve(G.numNodes() * 4);
  Net.setDeliver(
      [this](NodeId From, NodeId To, const sim::Network::Frame &Bytes) {
        if (Withdrawn[To])
          return; // Marked nodes no longer take part in the agreement.
        std::optional<core::Message> M = core::decodeMessage(*Bytes, Views);
        assert(M && "transport delivered a corrupt frame");
        if (M)
          Nodes[To].onDeliver(From, *M);
      });

  Nodes.reserve(G.numNodes());
  for (NodeId N = 0; N < G.numNodes(); ++N)
    Nodes.emplace_back(N, Ctx);
  for (core::CliffEdgeNode &Node : Nodes)
    Node.start();

  // Application heartbeats: marked nodes keep serving (the whole point of
  // the generalisation — the subject of the agreement is alive).
  if (Opts.AppTickPeriod > 0)
    for (NodeId N = 0; N < G.numNodes(); ++N)
      Sim.at(Opts.AppTickPeriod, [this, N]() { appTick(N); });
}

void StableScenarioRunner::Host::multicast(NodeId From,
                                           const graph::Region &To,
                                           const core::Message &M) {
  if (R.Withdrawn[From])
    return; // A withdrawn node sends no protocol traffic.
  sim::Network::Frame Frame =
      support::FrameRef::fresh(core::encodeMessage(M));
  for (NodeId Recipient : To)
    R.Net.send(From, Recipient, Frame);
}

void StableScenarioRunner::Host::monitorCrash(NodeId From,
                                              const graph::Region &Targets) {
  R.Service.monitor(From, Targets);
}

void StableScenarioRunner::Host::decide(NodeId From,
                                        const graph::Region &View,
                                        core::Value Chosen) {
  R.Decisions.push_back(
      trace::DecisionRecord{From, View, Chosen, R.Sim.now()});
}

core::Value StableScenarioRunner::Host::selectValue(NodeId From,
                                                    const graph::Region &) {
  return static_cast<core::Value>(From);
}

void StableScenarioRunner::appTick(NodeId N) {
  // Periodic heartbeat until AppTicksEnd: each tick schedules the next.
  ++AppTicks[N];
  if (Sim.now() + Opts.AppTickPeriod <= Opts.AppTicksEnd)
    Sim.after(Opts.AppTickPeriod, [this, N]() { appTick(N); });
}

void StableScenarioRunner::scheduleMark(NodeId Node, SimTime When) {
  assert(Node < G.numNodes() && "node out of range");
  assert(!Marked.contains(Node) && "node marked twice");
  Marked.insert(Node);
  MarkTimes[Node] = When;
  Sim.at(When, [this, Node]() {
    // The node withdraws from the agreement but keeps running (no
    // Net.crash: frames still flow, the node just ignores them).
    Withdrawn[Node] = true;
    Service.nodeMarked(Node);
  });
}

void StableScenarioRunner::scheduleMarkAll(const graph::Region &Nodes_,
                                           SimTime When) {
  for (NodeId N : Nodes_)
    scheduleMark(N, When);
}

uint64_t StableScenarioRunner::run() { return Sim.run(); }

std::optional<SimTime> StableScenarioRunner::markTime(NodeId Node) const {
  assert(Node < MarkTimes.size() && "node out of range");
  if (MarkTimes[Node] == TimeNever)
    return std::nullopt;
  return MarkTimes[Node];
}

trace::CheckInput StableScenarioRunner::makeCheckInput() const {
  trace::CheckInput In;
  In.G = &G;
  In.Faulty = Marked;
  In.CrashTimes = MarkTimes;
  In.Decisions = Decisions;
  In.SendLog = &Net.sendLog();
  return In;
}
