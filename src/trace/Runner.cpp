//===- trace/Runner.cpp - One-stop simulated scenario harness --------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "trace/Runner.h"

#include "core/Wire.h"
#include "trace/StreamingChecker.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

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
    : G(InG), Opts(withRunnerDefaults(std::move(InOpts))),
      Views(InG, Opts.NodeConfig.Ranking), Net(Sim, G.numNodes(),
                                               Opts.Latency),
      // Graph-backed: the <init> wave's neighbour subscriptions stay
      // implicit in the topology instead of an O(E) table copy.
      Detector(Sim, G, Opts.DetectionDelay,
               [this](NodeId Watcher, NodeId Target) {
                 liveNode(Watcher).onCrash(Target);
               }),
      HostObj(*this), Ctx(G, Views, Opts.NodeConfig, HostObj),
      Slots(G.numNodes()) {
  Net.setRecording(Opts.RecordSends);
  Net.setMonotoneLatency(Opts.MonotoneLatency);
  if (Opts.StreamingCheck)
    Net.setSendObserver([this](SimTime When, NodeId From, NodeId To,
                               uint32_t Bytes) {
      Opts.StreamingCheck->onSend(When, From, To, Bytes);
    });
  // The fault plane's channel extension is a wire v3 feature; the legacy
  // encodings (a test-only compat knob) reject its flag bit, so the
  // combination would corrupt every frame — every data frame dropped,
  // nothing acked, the ARQ retransmitting forever. Die loudly in every
  // build type rather than livelock.
  if (Opts.Link.active() && Opts.WireVersion != 3) {
    std::fprintf(stderr,
                 "cliffedge: the fault plane (link spec '%s') requires "
                 "wire v3; the legacy v%u layout has no channel "
                 "extension\n",
                 Opts.Link.compact().c_str(), Opts.WireVersion);
    std::abort();
  }
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
        liveNode(To).onDeliver(From, parsed(From, Bytes));
      });
}

const core::Message &ScenarioRunner::parsed(NodeId From,
                                            const support::FrameRef &Frame) {
  // The legs of one multicast share a frame but interleave with other
  // traffic under jittered latency: the first leg decodes into the
  // message attached to the pooled buffer, every later leg reuses it.
  bool Current = false;
  ParsedFrame &P = Frame.attachment<ParsedFrame>(Current);
  if (!Current)
    core::decodeOwnFrame(From, *Frame, Views, P.Msg);
  return P.Msg;
}

core::CliffEdgeNode &ScenarioRunner::liveNode(NodeId N) {
  NodeSlot &S = Slots.mut(N);
  if (!S.Node.started()) {
    S.Node = core::CliffEdgeNode(N, Ctx);
    S.Encoder = core::WireEncoder(Opts.WireVersion);
    S.Node.start();
  }
  return S.Node;
}

void ScenarioRunner::Host::multicast(NodeId From, const graph::Region &To,
                                     const core::Message &M) {
  // Encode once into a pooled buffer; every recipient shares the same
  // immutable refcounted frame.
  support::FrameRef Frame = R.Pool.acquire();
  R.Slots.mut(From).Encoder.encode(M, Frame.mutableBytes());
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
  // A malformed plan would index past the node store or crash a node
  // twice (which the detector's own guard only asserts). Die loudly in
  // every build type, like the wire-version guard above.
  if (Node >= G.numNodes()) {
    std::fprintf(stderr,
                 "cliffedge: crash plan names node %u, outside the %u-node "
                 "topology\n",
                 Node, G.numNodes());
    std::abort();
  }
  if (Faulty.contains(Node)) {
    std::fprintf(stderr, "cliffedge: crash plan schedules node %u twice\n",
                 Node);
    std::abort();
  }
  Faulty.insert(Node);
  Slots.mut(Node).CrashTime = When;
  if (Opts.StreamingCheck)
    Opts.StreamingCheck->onCrash(Node, When);
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

std::optional<SimTime> ScenarioRunner::crashTime(NodeId Node) const {
  assert(Node < G.numNodes() && "node out of range");
  SimTime T = Slots[Node].CrashTime;
  if (T == TimeNever)
    return std::nullopt;
  return T;
}

core::CliffEdgeNode::Counters ScenarioRunner::totalCounters() const {
  core::CliffEdgeNode::Counters Total;
  // Untouched nodes count zero everywhere.
  forEachTouchedNode([&Total](const core::CliffEdgeNode &Node) {
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
