//===- trace/HostCore.h - Node hosting of the simulated engines -*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The host core: what both simulated engines do identically to host the
/// paper's per-node state machine (§2–3). trace::ScenarioRunner (and
/// through it engine::DesEngine) and engine::ShardedEngine each own one
/// per run and keep only their own effect routing (a core::NodeHost),
/// scheduler and transport. The core owns the node store (one
/// support::PagedStore keyed by NodeId, so a job pays for the pages its
/// failure wave touches) with bind-on-first-touch, encode-once and
/// decode-once frames, crash-plan intake and the result harvest. The hot
/// accessors are inline, so an engine's inner loop pays no call for them.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_TRACE_HOSTCORE_H
#define CLIFFEDGE_TRACE_HOSTCORE_H

#include "core/CliffEdgeNode.h"
#include "core/Message.h"
#include "core/ViewTable.h"
#include "core/Wire.h"
#include "graph/Graph.h"
#include "support/FramePool.h"
#include "support/PagedStore.h"

#include <utility>
#include <vector>

namespace cliffedge {
namespace trace {

class StreamingChecker;
struct RunnerOptions;

/// One node's max_view at quiescence.
using NodeMaxView = std::pair<NodeId, graph::Region>;

/// Per-run node hosting shared by the DES and sharded engines.
class HostCore {
public:
  /// Everything the core keeps per node. A page of slots materializes on
  /// the first write to any of its nodes (a crash admitted, a node bound
  /// on its first event, a node's first multicast).
  struct NodeSlot {
    /// Unbound until the node's first event; then bound and started.
    core::CliffEdgeNode Node;
    /// Per-sender announce state for the wire encoder.
    core::WireEncoder Encoder;
    /// The plan's crash time (TimeNever for correct nodes).
    SimTime CrashTime = TimeNever;
  };

  /// Hosts \p G's nodes under \p Opts (node config, streaming checker);
  /// every node's effects go to \p Host, which must outlive the core.
  HostCore(const graph::Graph &G, const RunnerOptions &Opts,
           core::NodeHost &Host);

  /// Read-only view of \p N's slot: pristine (unbound, never crashing)
  /// when the wave never wrote it. Allocates nothing.
  const NodeSlot &slot(NodeId N) const { return Slots[N]; }

  /// The node about to handle an event: binds and starts it on first
  /// touch. <init> (line 4) only re-subscribes implicit neighbour pairs
  /// under a graph-backed detector, so deferring it to the first event
  /// changes nothing observable.
  core::CliffEdgeNode &liveNode(NodeId N) {
    NodeSlot &S = Slots.mut(N);
    if (!S.Node.started()) {
      S.Node = core::CliffEdgeNode(N, Ctx);
      S.Node.start();
    }
    return S.Node;
  }

  /// \p M encoded once, by \p From's encoder, into a pooled frame that
  /// every leg of the multicast shares.
  support::FrameRef encode(NodeId From, const core::Message &M) {
    support::FrameRef Frame = Pool.acquire();
    Slots.mut(From).Encoder.encode(M, Frame.mutableBytes());
    return Frame;
  }

  /// The decoded message of \p Frame, sent by \p From: decoded on the
  /// frame's first read and attached to its pooled buffer, shared by every
  /// later read, and recycled (warm opinion storage) with the buffer. The
  /// message lives as long as some handle on the frame does.
  const core::Message &decoded(NodeId From, const support::FrameRef &Frame) {
    bool Current = false;
    ParsedFrame &P = Frame.attachment<ParsedFrame>(Current);
    if (!Current)
      core::decodeOwnFrame(From, *Frame, Views, P.Msg);
    return P.Msg;
  }

  /// Admits one crash of the plan: \p Node crashes at \p When. A node
  /// outside the topology or one already admitted is a malformed plan:
  /// the core reports it and aborts, in every build type.
  void admitCrash(NodeId Node, SimTime When);

  /// All admitted crashes (the run's faulty set).
  const graph::Region &faulty() const { return Faulty; }

  /// Crash time per node, indexed by id (TimeNever for correct nodes):
  /// the faulty set scattered into an N-sized array.
  std::vector<SimTime> crashTimes() const;

  /// (node, max_view) for every touched node whose max_view is non-empty,
  /// ascending by node: the store is keyed by id, so no sort.
  std::vector<NodeMaxView> finalMaxViews() const;

  /// Calls F(const CliffEdgeNode &) for every node bound so far, in
  /// ascending id order. Every other node is in its pristine start()-state.
  /// O(touched pages).
  template <typename Fn> void forEachTouchedNode(Fn &&F) const {
    Slots.forEachMaterialized([&](size_t, const NodeSlot &S) {
      if (S.Node.started())
        F(S.Node);
    });
  }

  /// Materialized pages of the node store: the job's per-node memory.
  size_t pages() const { return Slots.pages(); }

  core::ViewTable &viewTable() { return Views; }

private:
  /// A frame's decoded message, attached to its pooled buffer.
  struct ParsedFrame final : support::FrameAttachment {
    core::Message Msg;
  };

  StreamingChecker *Check;
  /// Run-wide view intern table, shared by every node and the wire codec:
  /// views are interned in event order, so view ids replay.
  core::ViewTable Views;
  /// Frame recycler. Declared before the nodes, and the core before
  /// anything in an engine that holds frames, so every frame is released
  /// before the pool goes away.
  support::FramePool Pool;
  /// The run's single execution domain: shared scratch and the NodeTables
  /// slab. Declared before the nodes that bind to it.
  core::NodeContext Ctx;
  support::PagedStore<NodeSlot> Slots;
  graph::Region Faulty;
};

} // namespace trace
} // namespace cliffedge

#endif // CLIFFEDGE_TRACE_HOSTCORE_H
