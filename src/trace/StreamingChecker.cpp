//===- trace/StreamingChecker.cpp - Incremental CD1..CD7 checking ----------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "trace/StreamingChecker.h"

#include "support/StrUtil.h"

#include <algorithm>
#include <cassert>

using namespace cliffedge;
using namespace cliffedge::trace;

/// A violation with the batch checker's emission key: per property, the
/// batch checker walks decisions (and their view/border members, or pair
/// partners) in a fixed order, so (A, B, C) sorted lexicographically
/// reproduces its output order exactly even though the streaming checker
/// discovers the same findings out of order.
struct StreamingChecker::Keyed {
  uint64_t A = 0;
  uint64_t B = 0;
  uint64_t C = 0;
  std::string Text;
};

/// One agreement wave: a border-intersection cluster's open state. A wave
/// is open while any live border member has not decided; it is retired
/// (latency sample taken at the seal) once every live border member has —
/// and a later crash that merges or grows the cluster re-opens it.
struct StreamingChecker::Wave {
  graph::Region Border;       ///< Live border members of the cluster.
  SimTime FirstCrash = TimeNever;
  SimTime LastDecision = 0;
  uint32_t Undecided = 0;     ///< Border members that have not decided.
  bool HasDecision = false;
  bool Alive = false;         ///< False once merged into another slot.
};

namespace {

std::string cd2MemberText(const DecisionRecord &D, NodeId Member) {
  return formatStr(
      "CD2: node %u decided view %s containing node %u which had "
      "not crashed at t=%llu",
      D.Node, D.View.str().c_str(), Member,
      static_cast<unsigned long long>(D.When));
}

std::string cd4Text(const DecisionRecord &D, NodeId Q) {
  return formatStr(
      "CD4: node %u decided on %s but correct border node %u never "
      "decided",
      D.Node, D.View.str().c_str(), Q);
}

std::string cd5Text(const DecisionRecord &P, const DecisionRecord &Q) {
  return formatStr(
      "CD5: node %u decided (%s, %llu) but border node %u decided "
      "(%s, %llu)",
      P.Node, P.View.str().c_str(),
      static_cast<unsigned long long>(P.Chosen), Q.Node,
      Q.View.str().c_str(), static_cast<unsigned long long>(Q.Chosen));
}

} // namespace

StreamingChecker::StreamingChecker(const graph::Graph &InG)
    : G(InG), Nodes(InG.numNodes()) {}

StreamingChecker::~StreamingChecker() = default;

StreamingChecker::NodeRec &StreamingChecker::touch(NodeId Node) {
  NodeRec &R = Nodes.mut(Node);
  if (!R.Touched) {
    R.Touched = true;
    Touched.push_back(Node);
  }
  return R;
}

const StreamingChecker::NodeLists &
StreamingChecker::listsOf(NodeId Node) const {
  static const NodeLists Empty;
  uint32_t Slot = Nodes[Node].Lists;
  return Slot ? ListPool[Slot - 1] : Empty;
}

StreamingChecker::NodeLists &StreamingChecker::lists(NodeId Node) {
  NodeRec &R = touch(Node);
  if (!R.Lists) {
    if (ListsUsed == ListPool.size())
      ListPool.emplace_back();
    R.Lists = ++ListsUsed;
  }
  return ListPool[R.Lists - 1];
}

// Union-find roots with path halving. Parents are only ever followed
// from crashed (hence touched, materialized) nodes.
NodeId StreamingChecker::domainRoot(NodeId Node) {
  while (Nodes[Node].DomainParent != Node) {
    NodeRec &R = Nodes.mut(Node);
    R.DomainParent = Nodes[R.DomainParent].DomainParent;
    Node = R.DomainParent;
  }
  return Node;
}

NodeId StreamingChecker::waveRoot(NodeId Node) {
  while (Nodes[Node].WaveParent != Node) {
    NodeRec &R = Nodes.mut(Node);
    R.WaveParent = Nodes[R.WaveParent].WaveParent;
    Node = R.WaveParent;
  }
  return Node;
}

uint64_t StreamingChecker::retainedItems() const {
  return Decisions.size() + PendingSends.size() + Cd2PendingCount +
         Cd4PendingCount + BorderIndexCount + Faulty.size();
}

void StreamingChecker::noteState() {
  uint64_t S = retainedItems();
  if (S > Stats.StateHighWater)
    Stats.StateHighWater = S;
  if (OpenWaves > Stats.OpenWavesHighWater)
    Stats.OpenWavesHighWater = OpenWaves;
}

void StreamingChecker::onCrash(NodeId Node, SimTime When) {
  assert(Node < G.numNodes() && "crash out of range");
  if (crashed(Node))
    return; // Crash-stop: at most one crash per node per epoch.
  NodeRec &R = touch(Node);
  R.Crashed = true;
  R.CrashTime = When;
  Faulty.insert(Node);
  ++Stats.CrashesSeen;

  // CD3 domains: plain connectivity of the faulty set. Merging only grows
  // a domain's scope (anything bordering a part borders the union), which
  // is what makes the eager covered-send drop in onSend sound.
  R.DomainParent = Node;
  for (NodeId W : G.adj(Node))
    if (crashed(W)) {
      NodeId Ra = domainRoot(Node), Rb = domainRoot(W);
      if (Ra != Rb)
        Nodes.mut(Ra).DomainParent = Rb;
    }

  // CD2: view memberships waiting on this node's crash resolve now. The
  // batch text fires both for never-crashed and crashed-too-late members,
  // so a TimeNever "crash" (hand-built faulty set, no time) violates too.
  if (R.Lists) {
    NodeLists &L = ListPool[R.Lists - 1];
    for (const auto &[Ord, Pos] : L.Cd2Pending)
      if (When == TimeNever || When > Decisions[Ord].When)
        ViolCd2.push_back(
            Keyed{Ord, 1, Pos, cd2MemberText(Decisions[Ord], Node)});
    Cd2PendingCount -= L.Cd2Pending.size();
    L.Cd2Pending.clear();

    // CD4 quantifies over *correct* border nodes: a real crash voids
    // every obligation on this node. A TimeNever crash does not — the
    // batch checker's correctness test is CrashTimes == TimeNever, so
    // such a node still owes its decisions.
    if (When != TimeNever) {
      Cd4PendingCount -= L.Cd4Pending.size();
      L.Cd4Pending.clear();
    }
  }

  crashIntoWaves(Node, When);
  noteState();
}

bool StreamingChecker::sendCovered(NodeId From, NodeId To) {
  // Covered iff one faulty domain D has both endpoints in D u border(D).
  // Domains hold crashed nodes only and borders live nodes only (a
  // crashed neighbour of a domain is *in* the domain by connectivity), so
  // the four cases split on the endpoints' crash state.
  bool FromCrashed = crashed(From), ToCrashed = crashed(To);
  if (FromCrashed && ToCrashed)
    return domainRoot(From) == domainRoot(To);
  if (FromCrashed || ToCrashed) {
    NodeId InDomain = FromCrashed ? From : To;
    NodeId Live = FromCrashed ? To : From;
    NodeId Root = domainRoot(InDomain);
    for (NodeId W : G.adj(Live))
      if (crashed(W) && domainRoot(W) == Root)
        return true;
    return false;
  }
  // Both live: one domain must border both.
  RootScratch.clear();
  for (NodeId W : G.adj(From))
    if (crashed(W)) {
      NodeId R = domainRoot(W);
      if (std::find(RootScratch.begin(), RootScratch.end(), R) ==
          RootScratch.end())
        RootScratch.push_back(R);
    }
  if (RootScratch.empty())
    return false;
  for (NodeId W : G.adj(To))
    if (crashed(W) &&
        std::find(RootScratch.begin(), RootScratch.end(), domainRoot(W)) !=
            RootScratch.end())
      return true;
  return false;
}

void StreamingChecker::onSend(SimTime When, NodeId From, NodeId To,
                              uint32_t Bytes) {
  assert(From < G.numNodes() && To < G.numNodes() && "send out of range");
  ++Stats.MessagesSeen;
  // Scopes only grow within an epoch, so covered-now is covered-at-seal:
  // drop immediately. Uncovered sends pend — a later crash can still
  // cover them — and are re-judged against the final domains at the seal.
  if (!sendCovered(From, To))
    PendingSends.push_back(sim::SendRecord{When, From, To, Bytes});
  noteState();
}

void StreamingChecker::onDecision(const DecisionRecord &D) {
  onDecision(D.Node, D.View, D.Chosen, D.When);
}

void StreamingChecker::onDecision(NodeId Node, const graph::Region &View,
                                  core::Value Chosen, SimTime When) {
  assert(Node < G.numNodes() && "decision out of range");
  uint64_t Ord = Decisions.size();
  ++Stats.DecisionsSeen;
  uint32_t PriorDecisions = touch(Node).DecideCount;

  // Wave retirement, before this decision is booked (the Undecided
  // counters were built against the pre-decision DecideCount).
  if (PriorDecisions == 0 && !listsOf(Node).BorderWaves.empty()) {
    RootScratch.clear();
    for (NodeId R0 : listsOf(Node).BorderWaves) {
      NodeId R = waveRoot(R0);
      if (std::find(RootScratch.begin(), RootScratch.end(), R) !=
          RootScratch.end())
        continue;
      RootScratch.push_back(R);
      Wave &W = Waves[Nodes[R].WaveSlot];
      if (!W.Alive || !W.Border.contains(Node))
        continue;
      if (W.LastDecision < When)
        W.LastDecision = When;
      W.HasDecision = true;
      if (W.Undecided > 0 && --W.Undecided == 0)
        --OpenWaves;
    }
  }

  // CD1: strictly at most one decision per node, flagged on the repeat.
  if (PriorDecisions > 0)
    ViolCd1.push_back(Keyed{
        Ord, 0, 0, formatStr("CD1: node %u decided more than once", Node)});
  ++Nodes.mut(Node).DecideCount;

  // CD4 discharge: any obligation on this node is met by deciding,
  // whatever it decides (CD7's "p decides" reading, see Checker.h).
  if (!listsOf(Node).Cd4Pending.empty()) {
    NodeLists &L = lists(Node);
    Cd4PendingCount -= L.Cd4Pending.size();
    L.Cd4Pending.clear();
  }

  Decisions.push_back(DecisionRecord{Node, View, Chosen, When});
  const DecisionRecord &D = Decisions.back();
  // One border computation serves CD2, CD4 and CD5 — the batch checkers
  // recompute it per property, but it is the same region.
  graph::Region B = G.border(View);

  // CD2: connectivity and border membership are properties of the view
  // itself — checked now. Member crash times split three ways: crashed in
  // time (fine), crashed late or faulty-without-time (violation now), not
  // crashed yet (pend until the crash arrives or the epoch seals).
  if (!G.isConnectedRegion(View)) {
    ViolCd2.push_back(
        Keyed{Ord, 0, 0,
              formatStr("CD2: node %u decided non-connected view %s", Node,
                        View.str().c_str())});
  } else {
    uint64_t Pos = 0;
    for (NodeId Member : View) {
      if (!crashed(Member)) {
        lists(Member).Cd2Pending.push_back(
            {static_cast<uint32_t>(Ord), static_cast<uint32_t>(Pos)});
        ++Cd2PendingCount;
      } else if (Nodes[Member].CrashTime == TimeNever ||
                 Nodes[Member].CrashTime > When) {
        ViolCd2.push_back(Keyed{Ord, 1, Pos, cd2MemberText(D, Member)});
      }
      ++Pos;
    }
    if (!B.contains(Node))
      ViolCd2.push_back(
          Keyed{Ord, 2, 0,
                formatStr("CD2: deciding node %u is not on border(%s)", Node,
                          View.str().c_str())});
  }

  // CD4: every border member that is neither decided nor (really) crashed
  // owes a decision; the obligation dies on its crash or any decision.
  {
    uint32_t Pos = 0;
    for (NodeId Q : B) {
      const NodeRec &RQ = Nodes[Q];
      bool ReallyCrashed = RQ.Crashed && RQ.CrashTime != TimeNever;
      if (!ReallyCrashed && RQ.DecideCount == 0) {
        lists(Q).Cd4Pending.push_back({static_cast<uint32_t>(Ord), Pos});
        ++Cd4PendingCount;
      }
      ++Pos;
    }
  }

  // CD5, eagerly and exactly once per ordered pair: this decision as P
  // against every prior (and its own) decision by a node on border(View),
  // then as Q against every prior decision whose border contains this
  // node. Uniformity is why the indices must outlive retirement: a
  // decider that later crashes still binds its border.
  lists(Node).DecidedOrdinals.push_back(static_cast<uint32_t>(Ord));
  for (NodeId N2 : B)
    for (uint32_t J : listsOf(N2).DecidedOrdinals)
      if (Decisions[J].View != View || Decisions[J].Chosen != Chosen)
        ViolCd5.push_back(Keyed{Ord, J, 0, cd5Text(D, Decisions[J])});
  for (uint32_t I : listsOf(Node).BorderIndex)
    if (Decisions[I].View != View || Decisions[I].Chosen != Chosen)
      ViolCd5.push_back(Keyed{I, Ord, 0, cd5Text(Decisions[I], D)});
  for (NodeId N2 : B) {
    lists(N2).BorderIndex.push_back(static_cast<uint32_t>(Ord));
    ++BorderIndexCount;
  }

  noteState();
}

void StreamingChecker::crashIntoWaves(NodeId Node, SimTime When) {
  // Constituent clusters this crash unifies: the clusters of crashed
  // neighbours (plain connectivity) and every cluster whose border held
  // this node (border-intersection adjacency, §2.2's F || H — the node
  // was a shared border member and is now faulty tissue joining them).
  RootScratch.clear();
  auto AddRoot = [this](NodeId R) {
    if (std::find(RootScratch.begin(), RootScratch.end(), R) ==
        RootScratch.end())
      RootScratch.push_back(R);
  };
  for (NodeId W : G.adj(Node))
    if (crashed(W) && W != Node)
      AddRoot(waveRoot(W));
  if (Nodes[Node].Lists) {
    std::vector<NodeId> &Mine = ListPool[Nodes[Node].Lists - 1].BorderWaves;
    for (NodeId R0 : Mine)
      AddRoot(waveRoot(R0));
    Mine.clear();
  }

  uint64_t OpenBefore = 0;
  for (NodeId R : RootScratch) {
    const Wave &W = Waves[Nodes[R].WaveSlot];
    if (W.Alive && W.Undecided > 0)
      ++OpenBefore;
  }

  uint32_t Slot = static_cast<uint32_t>(Waves.size());
  NodeRec &Rec = Nodes.mut(Node); // Touched by onCrash already.
  Rec.WaveParent = Node;
  Rec.WaveSlot = Slot;
  Waves.push_back(Wave());
  Wave &W = Waves[Slot]; // Stable: no further growth below.
  W.Alive = true;
  W.FirstCrash = When;

  for (NodeId R : RootScratch) {
    Nodes.mut(R).WaveParent = Node;
    Wave &Old = Waves[Nodes[R].WaveSlot];
    W.Border.unionInPlace(Old.Border, Scratch);
    if (Old.FirstCrash < W.FirstCrash)
      W.FirstCrash = Old.FirstCrash;
    if (Old.LastDecision > W.LastDecision)
      W.LastDecision = Old.LastDecision;
    W.HasDecision |= Old.HasDecision;
    Old.Alive = false;
    Old.Border.clear();
  }

  W.Border.erase(Node);
  for (NodeId N2 : G.adj(Node))
    if (!crashed(N2)) {
      W.Border.insert(N2);
      lists(N2).BorderWaves.push_back(Node);
    }

  W.Undecided = 0;
  for (NodeId M : W.Border)
    if (Nodes[M].DecideCount == 0)
      ++W.Undecided;
  OpenWaves = OpenWaves - OpenBefore + (W.Undecided > 0 ? 1 : 0);
}

CheckResult StreamingChecker::sealEpoch() {
  CheckResult Out;

  // Obligations that survived to the repair point resolve against final
  // ground truth: CD2 members that never crashed, CD4 correct border
  // members that never decided. Touched covers every node with pendings;
  // emission order does not matter, the keys restore batch order.
  for (NodeId N : Touched) {
    const NodeLists &L = listsOf(N);
    for (const auto &[Ord, Pos] : L.Cd2Pending)
      ViolCd2.push_back(Keyed{Ord, 1, Pos, cd2MemberText(Decisions[Ord], N)});
    for (const auto &[Ord, Pos] : L.Cd4Pending)
      ViolCd4.push_back(Keyed{Ord, Pos, 0, cd4Text(Decisions[Ord], N)});
  }

  auto Emit = [&Out](std::vector<Keyed> &List) {
    std::sort(List.begin(), List.end(),
              [](const Keyed &X, const Keyed &Y) {
                if (X.A != Y.A)
                  return X.A < Y.A;
                if (X.B != Y.B)
                  return X.B < Y.B;
                return X.C < Y.C;
              });
    for (Keyed &K : List)
      Out.fail(std::move(K.Text));
  };

  Emit(ViolCd1);
  Emit(ViolCd2);

  // Seal-time properties run the batch code over the retained state —
  // CD3 over the pending (still-uncovered) sends only, in send order;
  // CD6/CD7 need final correctness, unknowable before the repair.
  if (!PendingSends.empty()) {
    CheckInput In;
    In.G = &G;
    In.Faulty = Faulty;
    In.SendLog = &PendingSends;
    checkLocalityCD3(In, Out);
  }

  Emit(ViolCd4);
  Emit(ViolCd5);

  CorrectFn IsCorrect = [this](NodeId N) {
    return Nodes[N].CrashTime == TimeNever;
  };
  checkViewConvergenceCD6(Decisions, IsCorrect, Out);
  checkProgressCD7(G, Faulty, Decisions, IsCorrect, Out);

  // Retire every wave that saw a decision into the latency samples; the
  // epoch repair closes whatever was still open.
  for (const Wave &W : Waves)
    if (W.Alive && W.HasDecision)
      WaveLatencies.push_back(
          W.LastDecision >= W.FirstCrash ? W.LastDecision - W.FirstCrash
                                         : 0);

  Stats.ViolationsSeen += Out.Violations.size();
  ++Stats.EpochsSealed;

  // Per-epoch reset, O(touched state) not O(graph): touched records go
  // back to pristine (their pages stay for the next epoch), pooled lists
  // are emptied with their capacity kept.
  for (NodeId N : Touched)
    Nodes.mut(N) = NodeRec();
  for (uint32_t I = 0; I < ListsUsed; ++I) {
    NodeLists &L = ListPool[I];
    L.Cd2Pending.clear();
    L.Cd4Pending.clear();
    L.BorderIndex.clear();
    L.DecidedOrdinals.clear();
    L.BorderWaves.clear();
  }
  ListsUsed = 0;
  Touched.clear();
  Faulty.clear();
  Decisions.clear();
  PendingSends.clear();
  Waves.clear();
  ViolCd1.clear();
  ViolCd2.clear();
  ViolCd4.clear();
  ViolCd5.clear();
  Cd2PendingCount = Cd4PendingCount = BorderIndexCount = 0;
  OpenWaves = 0;
  return Out;
}

StreamingChecker::Metrics StreamingChecker::metrics() const {
  Metrics M = Stats;
  if (!WaveLatencies.empty()) {
    std::vector<SimTime> S = WaveLatencies;
    std::sort(S.begin(), S.end());
    auto Pct = [&S](uint64_t P) { return S[(P * (S.size() - 1)) / 100]; };
    M.LatencyP50 = Pct(50);
    M.LatencyP90 = Pct(90);
    M.LatencyP99 = Pct(99);
    M.LatencyMax = S.back();
  }
  return M;
}

// The replay wrapper: checkAll is now the streaming core fed from a
// materialized trace. checkAllBatch (Checker.cpp) keeps the original
// seven-pass implementation as the differential oracle; the contract that
// makes the two interchangeable is the engines' invariant
// Faulty == { n | CrashTimes[n] != TimeNever }.
CheckResult trace::checkAll(const CheckInput &In) {
  assert(In.G && "CheckInput.G must be set");
  StreamingChecker SC(*In.G);
  for (NodeId N : In.Faulty)
    SC.onCrash(N, crashTimeOf(In, N));
  if (In.SendLog)
    for (const sim::SendRecord &S : *In.SendLog)
      SC.onSend(S.When, S.From, S.To, S.Bytes);
  for (const DecisionRecord &D : In.Decisions)
    SC.onDecision(D);
  return SC.sealEpoch();
}
