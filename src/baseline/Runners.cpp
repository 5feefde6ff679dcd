//===- baseline/Runners.cpp - Simulated harnesses for baselines ------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "baseline/Runners.h"

#include "core/Wire.h"

#include <cassert>

using namespace cliffedge;
using namespace cliffedge::baseline;

GlobalScenarioRunner::GlobalScenarioRunner(
    const graph::Graph &InG, sim::LatencyModel Latency,
    detector::DetectionDelayModel Delay)
    : G(InG),
      Net(Sim, G.numNodes(),
          Latency ? std::move(Latency) : sim::fixedLatency(10)),
      Detector(Sim, G.numNodes(),
               Delay ? std::move(Delay) : detector::fixedDetectionDelay(5),
               [this](NodeId Watcher, NodeId Target) {
                 Nodes[Watcher]->onCrash(Target);
               }) {
  // Broadcast frames reach N recipients; decoding once per frame instead
  // of once per delivery keeps the harness linear where the protocol is
  // quadratic. Holding the shared_ptr in the cache pins the address, so
  // the pointer-identity check cannot alias a recycled allocation.
  auto CachedFrame = std::make_shared<sim::Network::Frame>();
  auto CachedMsg = std::make_shared<GlobalMessage>();
  Net.setDeliver([this, CachedFrame, CachedMsg](
                     NodeId From, NodeId To,
                     const sim::Network::Frame &Bytes) {
    if (CachedFrame->get() != Bytes.get()) {
      std::optional<GlobalMessage> M = decodeGlobalMessage(*Bytes);
      assert(M && "transport delivered a corrupt frame");
      if (!M)
        return;
      *CachedFrame = Bytes;
      *CachedMsg = std::move(*M);
    }
    Nodes[To]->onDeliver(From, *CachedMsg);
  });
  Nodes.reserve(G.numNodes());
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    GlobalFloodingNode::Callbacks CBs;
    CBs.Broadcast = [this, N](const GlobalMessage &M) {
      sim::Network::Frame Frame =
          support::FrameRef::fresh(encodeGlobalMessage(M));
      for (NodeId To = 0; To < this->G.numNodes(); ++To)
        Net.send(N, To, Frame);
    };
    CBs.MonitorCrash = [this, N](const graph::Region &Targets) {
      Detector.monitor(N, Targets);
    };
    CBs.Decide = [](const graph::Region &) {};
    Nodes.push_back(
        std::make_unique<GlobalFloodingNode>(N, G.numNodes(), CBs));
  }
  for (auto &Node : Nodes)
    Node->start();
}

void GlobalScenarioRunner::scheduleCrash(NodeId Node, SimTime When) {
  assert(!Faulty.contains(Node) && "node scheduled to crash twice");
  Faulty.insert(Node);
  Sim.at(When, [this, Node]() {
    Net.crash(Node);
    Detector.nodeCrashed(Node);
  });
}

void GlobalScenarioRunner::scheduleCrashAll(const graph::Region &Nodes_,
                                            SimTime When) {
  for (NodeId N : Nodes_)
    scheduleCrash(N, When);
}

uint64_t GlobalScenarioRunner::run() { return Sim.run(); }

size_t GlobalScenarioRunner::decidersCount() const {
  size_t Count = 0;
  for (NodeId N = 0; N < G.numNodes(); ++N)
    if (!Faulty.contains(N) && Nodes[N]->hasDecided())
      ++Count;
  return Count;
}

bool GlobalScenarioRunner::allAgree() const {
  const graph::Region *First = nullptr;
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    if (Faulty.contains(N) || !Nodes[N]->hasDecided())
      continue;
    if (!First)
      First = &Nodes[N]->decidedSet();
    else if (Nodes[N]->decidedSet() != *First)
      return false;
  }
  return true;
}

NaiveScenarioRunner::NaiveScenarioRunner(const graph::Graph &InG,
                                         sim::LatencyModel Latency,
                                         detector::DetectionDelayModel Delay)
    : G(InG), Views(InG),
      Net(Sim, G.numNodes(),
          Latency ? std::move(Latency) : sim::fixedLatency(10)),
      Detector(Sim, G.numNodes(),
               Delay ? std::move(Delay) : detector::fixedDetectionDelay(5),
               [this](NodeId Watcher, NodeId Target) {
                 Nodes[Watcher]->onCrash(Target);
               }),
      CrashTimes(G.numNodes(), TimeNever) {
  Net.setDeliver(
      [this](NodeId From, NodeId To, const sim::Network::Frame &Bytes) {
        std::optional<core::Message> M = core::decodeMessage(*Bytes, Views);
        assert(M && "transport delivered a corrupt frame");
        if (M)
          Nodes[To]->onDeliver(From, *M);
      });
  Nodes.reserve(G.numNodes());
  for (NodeId N = 0; N < G.numNodes(); ++N)
    Nodes.push_back(std::make_unique<NaiveLocalNode>(N, G, Views, HostObj));
  for (auto &Node : Nodes)
    Node->start();
}

void NaiveScenarioRunner::Host::multicast(NodeId From,
                                          const graph::Region &To,
                                          const core::Message &M) {
  sim::Network::Frame Frame =
      support::FrameRef::fresh(core::encodeMessage(M));
  for (NodeId Recipient : To)
    R.Net.send(From, Recipient, Frame);
}

void NaiveScenarioRunner::Host::monitorCrash(NodeId From,
                                             const graph::Region &Targets) {
  R.Detector.monitor(From, Targets);
}

void NaiveScenarioRunner::Host::decide(NodeId From, const graph::Region &View,
                                       core::Value Chosen) {
  R.Decisions.push_back(
      trace::DecisionRecord{From, View, Chosen, R.Sim.now()});
}

core::Value NaiveScenarioRunner::Host::selectValue(NodeId From,
                                                   const graph::Region &) {
  return static_cast<core::Value>(From);
}

void NaiveScenarioRunner::scheduleCrash(NodeId Node, SimTime When) {
  assert(!Faulty.contains(Node) && "node scheduled to crash twice");
  Faulty.insert(Node);
  CrashTimes[Node] = When;
  Sim.at(When, [this, Node]() {
    Net.crash(Node);
    Detector.nodeCrashed(Node);
  });
}

void NaiveScenarioRunner::scheduleCrashAll(const graph::Region &Nodes_,
                                           SimTime When) {
  for (NodeId N : Nodes_)
    scheduleCrash(N, When);
}

uint64_t NaiveScenarioRunner::run() { return Sim.run(); }
