//===- core/CliffEdgeNode.h - Algorithm 1: cliff-edge consensus -*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-node state machine of the paper's Algorithm 1 ("Convergent
/// detection of crashed regions executed by node p"). The class is
/// transport-agnostic: inputs are the paper's events (<crash|q> from the
/// failure detector, <mDeliver|p,[m]> from the network) and outputs flow
/// through a NodeHost (send, monitorCrash, decide, value selection). The
/// event-handler guards of the pseudo-code (lines 12, 26 and 32) are
/// re-evaluated to fixpoint after every input, mirroring the paper's
/// mono-threaded event model (§2.3).
///
/// Pseudo-code mapping (line numbers refer to Algorithm 1 in the paper):
///   lines 1-4   -> start()
///   lines 5-11  -> onCrash()            (view construction)
///   lines 12-17 -> tryStartInstance()   (new consensus instance)
///   lines 18-25 -> onDeliver()          (updating opinions)
///   lines 26-31 -> tryRejectLower() / doReject()
///   lines 32-40 -> tryCompleteRound()   (round completion / decision)
///
/// Deviations from the pseudo-code, all documented in DESIGN.md:
///  * a view with a single border node runs max(1, |B|-1) = 1 round;
///  * line 32 additionally requires an active proposal, so a failed
///    instance does not re-fire its completion guard;
///  * the footnote-6 early-termination optimisation is available behind
///    Config::EarlyTermination (off by default), implemented with Final
///    messages that stand in for all remaining rounds.
///
/// Data plane: all per-message state is keyed on the dense ViewId of the
/// run-shared core::ViewTable, never on region contents. `Received` is a
/// flat open-addressing id -> instance-slot map, `RejectedViews` a byte
/// array indexed by id, and rank arbitration (line 26) compares the
/// precomputed rank keys of the interned entries. Steady-state round
/// processing (deliver -> merge -> relay) performs zero heap allocations:
/// the outgoing message is a reused scratch whose opinion vector recycles
/// its capacity, and views travel as interned handles.
///
/// Memory layout: the paper's detection is border-local (§2.1) — in a
/// large world almost every node only ever runs line 4 — so a node is
/// split into a pointer-sized shell and its protocol tables. The shell
/// (CliffEdgeNode itself, stored by value in the engines' paged node
/// stores) is ~32 bytes: id, flags and two pointers. The tables
/// (NodeTables) hold everything Algorithm 1 mutates and are slab-allocated
/// from the shared NodeContext on the node's *first* crash observation or
/// delivery. The engines bind and start() a shell on that same first
/// touch, so a node the failure wave never reaches costs nothing beyond
/// its share of a page it may never get (support/PagedStore.h). All
/// per-domain scratch (outgoing message, monitor set, reject scan) lives
/// once in the NodeContext instead of once per node. Engines share one
/// context per single-threaded execution domain (the whole DES run; one
/// per shard in the sharded engine). The legacy Callbacks constructor
/// keeps working by allocating a private single-node context behind the
/// scenes — existing harnesses and examples compile unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_CORE_CLIFFEDGENODE_H
#define CLIFFEDGE_CORE_CLIFFEDGENODE_H

#include "core/Message.h"
#include "core/Types.h"
#include "core/ViewTable.h"
#include "graph/Graph.h"
#include "graph/IncrementalComponents.h"
#include "graph/Ranking.h"
#include "graph/Region.h"
#include "support/FlatHash.h"

#include <functional>
#include <memory>
#include <new>
#include <vector>

namespace cliffedge {
namespace core {

/// Tunables for one protocol node.
struct Config {
  /// Ranking relation used for view arbitration (§3.1). The paper's
  /// relation is SizeBorderLex; others are ablations. Must match the
  /// RankingKind of the run's ViewTable (asserted).
  graph::RankingKind Ranking = graph::RankingKind::SizeBorderLex;

  /// Enables the footnote-6 optimisation: terminate an instance as soon as
  /// every border member is known to hold a complete opinion vector.
  bool EarlyTermination = false;
};

/// Protocol-internal transitions, exposed for observability. These are
/// *not* part of the algorithm; harnesses use them for timelines, debug
/// logs and white-box assertions.
enum class EventKind : uint8_t {
  Propose,        ///< Line 17: a new instance was started.
  Reject,         ///< Line 31: a lower-ranked view was rejected.
  RoundAdvance,   ///< Line 39: moved to the next round.
  InstanceFailed, ///< Line 37: attempt failed, proposal reset.
  EarlyTerminate, ///< Footnote 6: finished before the last round.
  Decide,         ///< Line 36.
};

/// One observability event (see NodeHost::onEvent).
struct ProtocolEvent {
  EventKind Kind;
  graph::Region View;
  uint32_t Round = 0;
};

/// Per-node protocol counters, consumed by benches and tests.
struct NodeCounters {
  uint64_t CrashesObserved = 0;
  uint64_t Proposals = 0;
  uint64_t Rejections = 0;
  uint64_t RoundsStarted = 0;
  uint64_t InstancesFailed = 0;
  uint64_t EarlyTerminations = 0;
  uint64_t MessagesIgnored = 0; ///< Deliveries for rejected views or
                                ///< from outside the view's border.
};

/// Outgoing effects of a protocol node, implemented once per execution
/// domain (engine, cluster, daemon). Every method receives the acting
/// node's id, so one host object serves every node of its domain — the
/// per-node layout carries no callback state at all.
class NodeHost {
public:
  virtual ~NodeHost() = default;

  /// The paper's best-effort multicast (§3.1): delivers \p M to every node
  /// of \p To over point-to-point channels, including the sender itself
  /// (the sender is always in border(V)). Handing the whole recipient set
  /// to the transport lets it encode the payload once. \p M is a reused
  /// scratch — transports must not retain the reference past the call.
  virtual void multicast(NodeId From, const graph::Region &To,
                         const Message &M) = 0;

  /// The paper's <monitorCrash | S>: subscribe \p From to crash
  /// notifications for \p Targets.
  virtual void monitorCrash(NodeId From, const graph::Region &Targets) = 0;

  /// The paper's <decide | S, d> output event.
  virtual void decide(NodeId From, const graph::Region &View,
                      Value Chosen) = 0;

  /// The paper's selectValueForView(V) (line 14): the value node \p From
  /// proposes for a view (e.g. a repair-plan id).
  virtual Value selectValue(NodeId From, const graph::Region &View) = 0;

  /// Optional observability hook; invoked synchronously on protocol
  /// transitions when wantsEvents() is true. Must not re-enter the node.
  virtual void onEvent(NodeId From, const ProtocolEvent &E);

  /// Gates onEvent: hosts that do not record transitions keep the
  /// default false and the emit sites stay branch-only.
  virtual bool wantsEvents() const { return false; }
};

/// Legacy per-node callback bundle. New engine code implements NodeHost;
/// this remains the convenient wiring for tests, examples and single-node
/// deployments (the daemon), adapted internally by the compatibility
/// constructor. All callbacks must be set except OnEvent, which is
/// optional.
struct Callbacks {
  std::function<void(const graph::Region &To, const Message &M)> Multicast;
  std::function<void(const graph::Region &Targets)> MonitorCrash;
  std::function<void(const graph::Region &View, Value Chosen)> Decide;
  std::function<Value(const graph::Region &View)> SelectValue;
  std::function<void(const ProtocolEvent &E)> OnEvent;
};

/// The protocol tables of one node: everything Algorithm 1 mutates.
/// Slab-allocated from the owning NodeContext the first time the failure
/// wave touches the node (first onCrash/onDeliver) — never at rest.
struct NodeTables {
  explicit NodeTables(const graph::Graph &G) : CrashedComponents(G) {}

  /// Per-view consensus instance bookkeeping (the paper's opinions[V][.][.]
  /// and waiting[V][.], lines 21-22), stored in a recycled slot vector and
  /// looked up by ViewId through a flat hash — no per-message hashing of
  /// region contents anywhere.
  ///
  /// Rounds are lazy and contiguous: round r materializes the first time
  /// a merge, a completion check or a finish touches it (materializing
  /// every earlier round with it), inside one per-instance slab allocated
  /// for all max(1, |B|-1) rounds on first touch. A round never touched
  /// reads as its initial state — bottom opinions, the whole border
  /// awaited, no complete relay — so an instance rejected in round 1
  /// initializes one round, not |B|-1, and every instance costs one
  /// allocation instead of two per round. The waiting and complete-relay
  /// sets are bit masks over border index, so clearing a member is one bit
  /// operation instead of a sorted-region erase. Recycled slots keep their
  /// slab.
  struct Instance {
    const ViewEntry *VB = nullptr; ///< Interned (view, border); stable.
    uint32_t NumRounds = 1;        ///< max(1, |B| - 1).
    uint32_t SelfIdx = 0;          ///< Index of Self within border(V).
    uint32_t Width = 0;            ///< |B|.
    uint32_t MaskStride = 0;       ///< Mask words per round.
    uint32_t Touched = 0;          ///< Rounds 1..Touched are materialized.
    bool Live = false;
    /// NumRounds opinion vectors of Width entries (the paper's
    /// opinions[V][r]), then NumRounds mask blocks of MaskStride words:
    /// the members still awaited (waiting[V][r], line 25), then — with
    /// early termination only — the members whose message carried a
    /// complete vector. When all of B relayed complete vectors in some
    /// round, every member is known to know everything (footnote-6
    /// early-termination condition).
    std::unique_ptr<uint64_t[]> Slab;
    size_t SlabWords = 0; ///< Slab capacity, kept across slot recycling.

    /// Round \p Round's opinion vector (Width entries).
    OpinionEntry *opinions(uint32_t Round) {
      return std::launder(reinterpret_cast<OpinionEntry *>(Slab.get())) +
             size_t(Round - 1) * Width;
    }
    /// Round \p Round's mask block: waiting words, then relay words.
    uint64_t *masks(uint32_t Round) {
      return Slab.get() + size_t(NumRounds) * Width * EntryWords +
             size_t(Round - 1) * MaskStride;
    }
    static constexpr size_t EntryWords = sizeof(OpinionEntry) / 8;
  };
  static_assert(sizeof(OpinionEntry) % 8 == 0 && alignof(OpinionEntry) <= 8,
                "opinion entries tile the slab's 64-bit words");

  // Protocol state (names follow Algorithm 1, lines 2-3).
  bool Decided = false;
  bool HasProposal = false; ///< proposed != bottom.
  /// Line-26 scan gate: set when a new instance appears or Vp changes;
  /// steady-state round traffic leaves it down and skips the scan.
  bool RejectScanNeeded = false;
  graph::Region DecidedV;
  Value DecidedVal = 0;
  Value ProposedValue = 0;
  graph::Region LocallyCrashed;
  /// Incremental connectedComponents(LocallyCrashed): each crash merges
  /// into its component in near-O(alpha) instead of a full graph rescan.
  graph::IncrementalComponents CrashedComponents;
  /// max_view (line 3) as a handle: any member of the component of
  /// LocallyCrashed that max_view equals, InvalidNode while max_view is
  /// empty or detached. Under the size-first rankings max_view is always
  /// exactly one current component — a component that grows gets larger,
  /// so it is adopted again — which makes the view construction of lines
  /// 8-11 copy-free: adoption moves the handle, and the component's
  /// border size is only computed (lazily, cached per component) when a
  /// size tie needs it.
  NodeId MaxViewAt = InvalidNode;
  /// PureLex only: a component that grows can rank below its former self,
  /// leaving max_view a superseded component. onCrash then detaches it
  /// into this copy (MaxViewAt = InvalidNode) before the merge.
  graph::Region DetachedMaxView;
  /// candidateView != empty (line 11). The candidate is always max_view
  /// itself: both are assigned together in onCrash, and the next proposal
  /// consumes the candidate.
  bool HasCandidate = false;
  /// The live proposal Vp as an interned handle (null before the first
  /// proposal). Persists across instance failures, like the paper's Vp.
  const ViewEntry *Vp = nullptr;
  uint32_t Round = 1;

  /// ViewId -> instance slot + 1 (0 = absent; the flat map's default).
  U64FlatMap<uint32_t> ReceivedSlot;
  std::vector<Instance> Instances; ///< Slot storage, recycled.
  std::vector<uint32_t> FreeSlots; ///< Dead slots awaiting reuse.
  std::vector<uint32_t> LiveSlots; ///< Live slots, for line-26 scans.
  std::vector<uint8_t> Rejected;   ///< Indexed by ViewId.

  NodeCounters Stats;
};

/// Everything a single-threaded execution domain shares across its nodes:
/// the topology, the intern table, the node configuration, the host, the
/// domain-wide scratch buffers, and the slab the protocol tables are
/// carved from. The DES runner owns one; the sharded engine owns one per
/// shard (nodes of one shard only ever run on that shard's thread).
class NodeContext {
public:
  NodeContext(const graph::Graph &G, ViewTable &Views, Config Cfg,
              NodeHost &Host);
  NodeContext(const NodeContext &) = delete;
  NodeContext &operator=(const NodeContext &) = delete;
  ~NodeContext();

  /// Carves one NodeTables out of the slab. Chunked placement
  /// construction: tables land back to back in ~44 KB chunks instead of
  /// one heap object per touched node, and the whole arena frees at
  /// domain teardown.
  NodeTables &allocateTables();

  const graph::Graph &G;
  ViewTable &Views;
  Config Cfg;
  NodeHost &Host;

  // Domain-wide scratch, reused by every node of the domain (the domain is
  // single-threaded, and no scratch survives across a node's event).
  graph::Region MonitorScratch; ///< onCrash/start monitor set.
  Message SendScratch;          ///< Reused outgoing message.
  std::vector<uint32_t> LowerScratch; ///< tryRejectLower scratch.

private:
  static constexpr size_t TablesPerChunk = 64;
  struct Chunk;
  std::vector<std::unique_ptr<Chunk>> Chunks;
};

/// One node's instance of the cliff-edge consensus protocol: a ~32-byte
/// shell over slab-allocated NodeTables (see the memory-layout note in the
/// file header). Movable, not copyable; engines store nodes by value.
class CliffEdgeNode {
public:
  /// Counters type, kept nested for source compatibility.
  using Counters = NodeCounters;

  /// An unbound pristine shell: what a paged engine store holds for a
  /// node the failure wave has not reached. Every accessor reports the
  /// start()-state; it handles no events until replaced by a bound node.
  CliffEdgeNode();

  /// Engine wiring: a node of a shared execution domain. The context must
  /// outlive the node.
  CliffEdgeNode(NodeId Self, NodeContext &Ctx);

  /// Legacy wiring: a self-contained node with per-node callbacks. Builds
  /// a private context around an adapter host; costs one heap allocation
  /// per node, which is fine for the tests, examples and the single-node
  /// daemon that use it.
  CliffEdgeNode(NodeId Self, const graph::Graph &G, ViewTable &Views,
                Config Cfg, Callbacks CBs);

  // Out of line: the defaulted members need the private CompatBundle
  // complete.
  CliffEdgeNode(CliffEdgeNode &&) noexcept;
  CliffEdgeNode &operator=(CliffEdgeNode &&) noexcept;
  ~CliffEdgeNode();

  /// The paper's <init> (lines 1-4): subscribes to the crashes of the
  /// node's own neighbours. Must be called exactly once before any event.
  /// Deliberately does NOT allocate the node's tables.
  void start();

  /// The paper's <crash | q> handler (lines 5-11) plus guard dispatch.
  void onCrash(NodeId Q);

  /// The paper's <mDeliver | From, M> handler (lines 18-25) plus guard
  /// dispatch.
  void onDeliver(NodeId From, const Message &M);

  // -- Introspection (checkers, tests, benches) ---------------------------
  // All accessors tolerate a node the failure wave never touched (no
  // tables): they report the pristine start()-state.

  NodeId id() const { return Self; }
  /// True once start() ran (false for an unbound shell).
  bool started() const { return Started; }
  bool hasDecided() const { return T && T->Decided; }
  const graph::Region &decidedView() const {
    return T ? T->DecidedV : emptyRegion();
  }
  Value decidedValue() const { return T ? T->DecidedVal : 0; }

  /// Nodes this node has detected as crashed so far.
  const graph::Region &locallyCrashed() const {
    return T ? T->LocallyCrashed : emptyRegion();
  }

  /// The paper's max_view (line 3): the highest-ranked crashed region this
  /// node currently tracks. At quiescence every correct node's max_view has
  /// converged — the cross-backend differential tests compare exactly this.
  /// The reference points into the crashed-component forest: it is valid
  /// only until this node's next onCrash. The call may rebuild cached
  /// state, so it must not run concurrently with any other call on the
  /// node, maxView() included.
  const graph::Region &maxView() const;

  /// |border(max_view)| as the ranking computes it: lazily, cached per
  /// component (0 while max_view is empty). Introspection for tests.
  size_t maxViewBorderSize() const;

  /// True while a proposal is live (the paper's proposed != bottom, until
  /// instance failure).
  bool hasActiveProposal() const { return T && T->HasProposal; }

  /// The last proposed view Vp (empty if the node never proposed).
  const graph::Region &lastProposedView() const {
    return T && T->Vp ? T->Vp->View : emptyRegion();
  }

  /// Current round of the active instance.
  uint32_t currentRound() const { return T ? T->Round : 1; }

  /// Number of conflicting views this node currently tracks.
  size_t trackedViews() const { return T ? T->LiveSlots.size() : 0; }

  const Counters &counters() const;

private:
  // -- Event-guard evaluation ---------------------------------------------

  /// Re-evaluates the guarded handlers (lines 12, 26, 32) until none fires.
  void dispatch();

  /// Line 12: starts a new consensus instance when idle with a candidate.
  bool tryStartInstance();

  /// Line 26: rejects any received view ranked below our proposal.
  bool tryRejectLower();

  /// Lines 28-31: emits the reject vector for the view in slot \p Slot.
  void doReject(uint32_t Slot);

  /// Line 32: round completion, decision (lines 33-36), failure (line 37)
  /// or next round (lines 38-40).
  bool tryCompleteRound();

  /// Completes the active instance using the round-\p RoundIdx vector:
  /// decide on all-accept, otherwise mark the attempt failed.
  void finishInstance(NodeTables::Instance &I, uint32_t FinalRound);

  // -- Helpers -------------------------------------------------------------

  static const graph::Region &emptyRegion();
  /// First-touch slab allocation of the protocol tables.
  NodeTables &tables() {
    if (!T)
      T = &Ctx->allocateTables();
    return *T;
  }
  NodeTables::Instance &ensureInstance(const ViewEntry &VB);
  NodeTables::Instance *findInstance(ViewId Id);
  bool isRejected(ViewId Id) const {
    return T && Id < T->Rejected.size() && T->Rejected[Id];
  }
  /// Merges a round message from the border member at \p FromIdx.
  void mergeIntoRound(NodeTables::Instance &I, uint32_t MsgRound,
                      size_t FromIdx, const OpinionVec &Op, bool RelayComplete);
  /// Materializes rounds up to \p Round of \p I (see NodeTables::Instance).
  void touchRound(NodeTables::Instance &I, uint32_t Round);
  /// Line 10: does the component of just-crashed \p Q outrank max_view?
  bool outranksMaxView(NodeId Q) const;
  /// PureLex only: detaches max_view into a copy if crashing \p Q is
  /// about to grow its component.
  void detachMaxViewBeforeMerge(NodeId Q);
  void multicast(const graph::Region &To, const Message &M);
  void emitEvent(EventKind Kind, const graph::Region &View,
                 uint32_t EventRound);

  struct CompatBundle;

  NodeId Self = InvalidNode;
  bool Started = false;
  NodeContext *Ctx = nullptr; ///< The shared execution-domain context.
  NodeTables *T = nullptr;  ///< Lazily slab-allocated protocol tables.
  /// Set only by the legacy constructor: the private context kept alive
  /// for this node.
  std::unique_ptr<CompatBundle> Owned;
};

} // namespace core
} // namespace cliffedge

#endif // CLIFFEDGE_CORE_CLIFFEDGENODE_H
