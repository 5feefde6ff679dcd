//===- trace/HostCore.cpp - Node hosting of the simulated engines ----------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "trace/HostCore.h"

#include "trace/Runner.h"
#include "trace/StreamingChecker.h"

#include <cstdio>
#include <cstdlib>

using namespace cliffedge;
using namespace cliffedge::trace;

HostCore::HostCore(const graph::Graph &G, const RunnerOptions &Opts,
                   core::NodeHost &Host)
    : Check(Opts.StreamingCheck), Views(G, Opts.NodeConfig.Ranking),
      Ctx(G, Views, Opts.NodeConfig, Host), Slots(G.numNodes()) {}

void HostCore::admitCrash(NodeId Node, SimTime When) {
  // A malformed plan would index past the node store or crash a node
  // twice (which the detectors only assert against). Die loudly in every
  // build type.
  if (Node >= Slots.size()) {
    std::fprintf(stderr,
                 "cliffedge: crash plan names node %u, outside the %u-node "
                 "topology\n",
                 Node, static_cast<unsigned>(Slots.size()));
    std::abort();
  }
  if (Faulty.contains(Node)) {
    std::fprintf(stderr, "cliffedge: crash plan schedules node %u twice\n",
                 Node);
    std::abort();
  }
  Faulty.insert(Node);
  Slots.mut(Node).CrashTime = When;
  if (Check)
    Check->onCrash(Node, When);
}

std::vector<SimTime> HostCore::crashTimes() const {
  // Scatter the plan's crashes; no per-node walk.
  std::vector<SimTime> Times(Slots.size(), TimeNever);
  for (NodeId N : Faulty)
    Times[N] = Slots[N].CrashTime;
  return Times;
}

std::vector<NodeMaxView> HostCore::finalMaxViews() const {
  std::vector<NodeMaxView> Views;
  forEachTouchedNode([&Views](const core::CliffEdgeNode &Node) {
    if (!Node.maxView().empty())
      Views.emplace_back(Node.id(), Node.maxView());
  });
  return Views;
}
