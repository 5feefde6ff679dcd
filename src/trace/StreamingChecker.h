//===- trace/StreamingChecker.h - Incremental CD1..CD7 checking -*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An incremental consumer of run events — crashes, sends, decisions,
/// epoch repairs — that checks the paper's CD1..CD7 properties (§2.3)
/// online, holding only open-agreement state instead of a materialized
/// trace. The batch checker caps run length by memory (the send log alone
/// is O(messages)); this checker's retained state is bounded by the
/// *open* work of the current epoch:
///
///  * crash ground truth (the perfect detector makes it available
///    incrementally): crash times plus two union-find structures — plain
///    connectivity for CD3 domain scopes, border-intersection closure
///    (§2.2's F || H) for agreement-wave tracking;
///  * the epoch's decisions. CD5 is *uniform* — it constrains faulty
///    deciders too, and whether a decider later crashes is unknowable
///    online — so decisions cannot be retired before the epoch seals.
///    They are O(borders), not O(trace);
///  * pending obligations: CD2 view members not (yet) known to have
///    crashed, CD4 border members that have neither decided nor crashed,
///    CD5 border-membership indices, and CD3 sends not (yet) covered by
///    any faulty domain's scope. Sends covered by a current scope are
///    dropped immediately — scopes only grow within an epoch, so
///    covered-now implies covered-at-seal. This is the O(trace) -> O(open)
///    reduction: in a healthy run every send is inside a scope and nothing
///    is retained.
///
/// An agreement wave (one border-intersection cluster of faulty domains)
/// is retired the moment every live border member has decided; later
/// crashes may merge and re-open it. Wave state drives the steady-state
/// metrics (agreement latency percentiles, open-wave high-water) and is
/// what churn-service campaigns gate on.
///
/// Violations are detected eagerly where the batch checker's verdict is
/// already determined (CD1 double decide, CD2 connectivity/border/late
/// members, CD5 mismatched pairs, CD3 after a covering scope can no
/// longer appear) and at sealEpoch() otherwise. sealEpoch() returns a
/// CheckResult whose Ok flag and violation strings are byte-identical to
/// trace::checkAllBatch over the equivalent materialized trace — each
/// eager finding carries the batch emission key (decision ordinal, phase,
/// member position, pair ordinals...) and the seal sorts per-property
/// findings back into batch order. CheckerEquivalenceTest pins this
/// differentially on every curated scenario, both backends.
///
/// Memory: all per-node state is one 32-byte record per node in a paged
/// store (support/PagedStore.h, 512-node pages), plus pooled obligation
/// lists for the nodes that hold any. Constructing a checker allocates
/// only the page directory; a page materializes the first time a crash,
/// decision, pending obligation or wave-border membership is recorded for
/// one of its nodes. sealEpoch() resets exactly the records the epoch
/// touched and keeps their pages for the next epoch, so checking one job
/// costs O(touched nodes), and a long-lived service checker holds pages
/// only where its epochs have been — never O(N).
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_TRACE_STREAMINGCHECKER_H
#define CLIFFEDGE_TRACE_STREAMINGCHECKER_H

#include "graph/Graph.h"
#include "graph/Region.h"
#include "sim/Network.h"
#include "support/PagedStore.h"
#include "trace/Checker.h"
#include "trace/Runner.h"

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

namespace cliffedge {
namespace trace {

/// Online CD1..CD7 checker; one instance checks a whole run, one epoch at
/// a time. Feed order within an epoch is free — crashes, sends and
/// decisions may interleave arbitrarily (obligations pend until resolved)
/// — as long as decisions arrive in their emission order and sends in log
/// order; the sealed verdict is a pure function of the event *sets*, which
/// is what makes chunked feeding byte-identical. Not thread-safe: callers
/// with concurrent producers (runtime::ThreadedCluster) serialize feeds.
class StreamingChecker {
public:
  /// Steady-state metrics accumulated across sealed epochs.
  struct Metrics {
    uint64_t EpochsSealed = 0;
    uint64_t CrashesSeen = 0;
    uint64_t DecisionsSeen = 0;
    uint64_t MessagesSeen = 0;
    uint64_t ViolationsSeen = 0;
    /// Most agreement waves (border-intersection clusters) simultaneously
    /// open — crashed but with undecided live border members — at any
    /// point in the run.
    uint64_t OpenWavesHighWater = 0;
    /// Most items of checker state retained at any point: decisions,
    /// pending CD2/CD3/CD4 obligations, CD5 border-index entries and the
    /// faulty set. O(open agreements + epoch activity), never O(trace) —
    /// BM_StreamingCheckerChurn gates this counter.
    uint64_t StateHighWater = 0;
    /// Agreement latency percentiles over retired waves: last border
    /// decision minus first crash of the wave's cluster. Nearest-rank on
    /// the sorted samples (index floor(p*(n-1)/100)); zero when no wave
    /// ever decided.
    SimTime LatencyP50 = 0;
    SimTime LatencyP90 = 0;
    SimTime LatencyP99 = 0;
    SimTime LatencyMax = 0;

    double msgsPerDecision() const {
      return DecisionsSeen
                 ? static_cast<double>(MessagesSeen) /
                       static_cast<double>(DecisionsSeen)
                 : 0.0;
    }
  };

  explicit StreamingChecker(const graph::Graph &G);
  ~StreamingChecker(); // Out of line: Keyed/Wave are incomplete here.

  /// One node crash (the perfect detector's ground truth). \p When may be
  /// TimeNever for hand-built traces that mark a node faulty without a
  /// crash time; engines always pass real times.
  void onCrash(NodeId Node, SimTime When);

  /// One logical protocol send (the send-log entry, not per-copy link
  /// traffic). Feeding sends is optional; without them CD3 is vacuous,
  /// exactly like batch checking with a null send log.
  void onSend(SimTime When, NodeId From, NodeId To, uint32_t Bytes);

  /// One decision, in emission order.
  void onDecision(NodeId Node, const graph::Region &View, core::Value Chosen,
                  SimTime When);
  void onDecision(const DecisionRecord &D);

  /// Seals the current epoch (the epoch-repair event): resolves every
  /// pending obligation, runs the seal-time properties (CD6, CD7), retires
  /// all waves into the latency metrics and resets per-epoch state. The
  /// returned verdict is byte-identical to checkAllBatch over the epoch's
  /// materialized trace.
  CheckResult sealEpoch();

  /// Open agreement waves right now (undecided live border members).
  uint64_t openWaves() const { return OpenWaves; }

  /// Metrics snapshot; percentiles are computed here from the retired-wave
  /// samples.
  Metrics metrics() const;

private:
  struct Keyed; ///< A violation with its batch-order emission key.
  struct Wave;  ///< One border-intersection cluster's open-agreement state.

  /// Everything the checker keeps per node, one record in a paged store
  /// (support/PagedStore.h): a page materializes on the first write to any
  /// of its nodes and absent pages read as this pristine state. sealEpoch
  /// resets exactly the touched records, so pages are reused across
  /// epochs and the store grows with what the run touched, never with N.
  struct NodeRec {
    SimTime CrashTime = TimeNever; ///< TimeNever for live nodes.
    /// CD3 union-find parent (plain connectivity), valid when crashed.
    NodeId DomainParent = 0;
    /// Wave union-find parent, valid when crashed; one root per cluster.
    NodeId WaveParent = 0;
    /// Wave slot of a cluster root (valid where WaveParent == self).
    uint32_t WaveSlot = 0;
    /// Decisions by this node so far (CD1, CD4 discharge, waves).
    uint32_t DecideCount = 0;
    /// ListPool slot + 1 of the node's obligation lists (0 = none).
    uint32_t Lists = 0;
    bool Crashed = false;
    bool Touched = false; ///< On the Touched list this epoch.
  };

  /// A node's variable-length obligations, pooled: only nodes with any
  /// pending item hold a pool slot, and slots are recycled at the seal.
  struct NodeLists {
    /// CD2: (decision ordinal, view position) of view memberships whose
    /// crash has not been observed yet.
    std::vector<std::pair<uint32_t, uint32_t>> Cd2Pending;
    /// CD4: (decision ordinal, border position) of border memberships the
    /// node has neither decided nor crashed out of.
    std::vector<std::pair<uint32_t, uint32_t>> Cd4Pending;
    /// CD5: ordinals of decisions whose view-border contains the node
    /// (q in border(V) must decide (V,d) — including *faulty* q, which is
    /// why these live until the seal), and of its own decisions.
    std::vector<uint32_t> BorderIndex;
    std::vector<uint32_t> DecidedOrdinals;
    /// Wave roots (possibly stale after merges — resolved through the
    /// union-find on use) whose wave border holds the live node.
    std::vector<NodeId> BorderWaves;
  };

  void noteState();
  uint64_t retainedItems() const;
  NodeId domainRoot(NodeId Node);
  NodeId waveRoot(NodeId Node);
  bool sendCovered(NodeId From, NodeId To);
  /// Writable record of \p Node; puts it on the Touched list.
  NodeRec &touch(NodeId Node);
  /// The node's lists, read-only (empty when it holds no pool slot).
  const NodeLists &listsOf(NodeId Node) const;
  /// The node's lists, writable; takes a pool slot on first use.
  NodeLists &lists(NodeId Node);
  bool crashed(NodeId Node) const { return Nodes[Node].Crashed; }
  void crashIntoWaves(NodeId Node, SimTime When);

  const graph::Graph &G;

  // -- Per-epoch ground truth and obligations --------------------------------
  support::PagedStore<NodeRec> Nodes;
  /// Stable addresses (deque): a reference survives later slot grabs.
  std::deque<NodeLists> ListPool;
  uint32_t ListsUsed = 0; ///< Pool slots handed out this epoch.
  graph::Region Faulty;
  std::vector<DecisionRecord> Decisions;
  /// Sends no current scope covers, in send order; re-checked at the seal
  /// against the final domains.
  std::vector<sim::SendRecord> PendingSends;
  uint64_t Cd2PendingCount = 0;
  uint64_t Cd4PendingCount = 0;
  uint64_t BorderIndexCount = 0;

  // -- Keyed eager findings, sorted back into batch order at the seal ------
  std::vector<Keyed> ViolCd1, ViolCd2, ViolCd4, ViolCd5;

  // -- Agreement waves (border-intersection closure, metrics only) ---------
  std::vector<Wave> Waves;
  uint64_t OpenWaves = 0;

  // -- Housekeeping --------------------------------------------------------
  /// Nodes with any per-node state this epoch, for O(touched) seal resets.
  std::vector<NodeId> Touched;
  std::vector<NodeId> Scratch;     ///< Region algebra swap space.
  std::vector<NodeId> RootScratch; ///< sendCovered root collection.

  // -- Cross-epoch metrics -------------------------------------------------
  Metrics Stats;
  std::vector<SimTime> WaveLatencies;
};

} // namespace trace
} // namespace cliffedge

#endif // CLIFFEDGE_TRACE_STREAMINGCHECKER_H
