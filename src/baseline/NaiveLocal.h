//===- baseline/NaiveLocal.h - Arbitration-free local agreement -*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation baseline: local (border-scoped) flooding agreement *without*
/// the paper's ranking/rejection arbitration. A node proposes the first
/// crashed region it detects and happily co-signs any other view it is
/// asked about (it "accepts everything"). Under a region that grows while
/// agreement runs (the Fig. 1b scenario) different border nodes decide
/// different, overlapping views — i.e. this baseline violates CD6 (View
/// Convergence). bench_fig3_convergence counts how often.
///
/// The message format is the core protocol's (core::Message); only the
/// node behaviour differs.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_BASELINE_NAIVELOCAL_H
#define CLIFFEDGE_BASELINE_NAIVELOCAL_H

#include "core/CliffEdgeNode.h"
#include "core/Message.h"
#include "core/ViewTable.h"
#include "graph/Graph.h"
#include "graph/IncrementalComponents.h"

#include <unordered_map>

namespace cliffedge {
namespace baseline {

/// One node of the naive local protocol. Its effects go through the same
/// core::NodeHost the real protocol uses (multicast, monitorCrash, decide,
/// selectValue); the host must outlive the node.
class NaiveLocalNode {
public:
  NaiveLocalNode(NodeId Self, const graph::Graph &G, core::ViewTable &Views,
                 core::NodeHost &Host);

  void start();
  void onCrash(NodeId Q);
  void onDeliver(NodeId From, const core::Message &M);

  bool hasDecided() const { return Decided; }
  const graph::Region &decidedView() const { return DecidedV; }
  core::Value decidedValue() const { return DecidedVal; }

private:
  /// Per-view flooding instance; unlike the real protocol a node may be an
  /// active participant of many instances at once.
  struct Instance {
    graph::Region Border;
    uint32_t NumRounds = 1;
    uint32_t Round = 1;  ///< This node's current round in the instance.
    bool Accepted = false; ///< Our accept has been multicast.
    bool Done = false;
    std::vector<core::OpinionVec> Opinions;
    std::vector<graph::Region> Waiting;
  };

  void acceptAndJoin(const graph::Region &V, Instance &I);
  void pump(const graph::Region &V, Instance &I);

  NodeId Self;
  const graph::Graph &G;
  core::ViewTable &Views;
  core::NodeHost &Host;

  bool Started = false;
  bool Decided = false;
  graph::Region DecidedV;
  core::Value DecidedVal = 0;
  graph::Region LocallyCrashed;
  /// Incremental connectedComponents(LocallyCrashed) (see CliffEdgeNode).
  graph::IncrementalComponents CrashedComponents;
  /// Any member of the current max-ranked component; InvalidNode before the
  /// first crash. Tracking a member instead of the region survives merges.
  NodeId MaxMember = InvalidNode;
  /// Reused per-crash scratch for the monitor set.
  graph::Region MonitorScratch;
  std::unordered_map<graph::Region, Instance, graph::RegionHash> Instances;
};

} // namespace baseline
} // namespace cliffedge

#endif // CLIFFEDGE_BASELINE_NAIVELOCAL_H
