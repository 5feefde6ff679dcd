//===- core/CliffEdgeNode.cpp - Algorithm 1: cliff-edge consensus -----------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "core/CliffEdgeNode.h"

#include <algorithm>
#include <cassert>
#include <memory>

using namespace cliffedge;
using namespace cliffedge::core;

void NodeHost::onEvent(NodeId, const ProtocolEvent &) {}

namespace {

// Member sets of an instance round are bit masks over border index.
size_t maskWords(size_t Width) { return (Width + 63) / 64; }
void setBit(uint64_t *Mask, size_t I) {
  Mask[I / 64] |= uint64_t(1) << (I % 64);
}
void clearBit(uint64_t *Mask, size_t I) {
  Mask[I / 64] &= ~(uint64_t(1) << (I % 64));
}
size_t popcount(const uint64_t *Mask, size_t Words) {
  size_t N = 0;
  for (size_t W = 0; W < Words; ++W)
    N += static_cast<size_t>(__builtin_popcountll(Mask[W]));
  return N;
}

} // namespace

//===----------------------------------------------------------------------===//
// NodeContext: shared per-domain state and the NodeTables slab.
//===----------------------------------------------------------------------===//

struct NodeContext::Chunk {
  alignas(NodeTables) unsigned char
      Raw[sizeof(NodeTables) * NodeContext::TablesPerChunk];
  size_t Used = 0;
  NodeTables *at(size_t I) {
    return reinterpret_cast<NodeTables *>(Raw) + I;
  }
};

NodeContext::NodeContext(const graph::Graph &InG, ViewTable &InViews,
                         Config InCfg, NodeHost &InHost)
    : G(InG), Views(InViews), Cfg(InCfg), Host(InHost) {
  assert(Views.rankingKind() == Cfg.Ranking &&
         "view table and nodes must agree on the ranking relation");
}

NodeContext::~NodeContext() {
  for (std::unique_ptr<Chunk> &C : Chunks)
    for (size_t I = 0; I < C->Used; ++I)
      C->at(I)->~NodeTables();
}

NodeTables &NodeContext::allocateTables() {
  if (Chunks.empty() || Chunks.back()->Used == TablesPerChunk)
    Chunks.emplace_back(new Chunk);
  Chunk &C = *Chunks.back();
  NodeTables *New = new (C.at(C.Used)) NodeTables(G);
  ++C.Used;
  return *New;
}

CliffEdgeNode::CliffEdgeNode(NodeId InSelf, NodeContext &InCtx)
    : Self(InSelf), Ctx(&InCtx) {}

CliffEdgeNode::CliffEdgeNode() = default;

//===----------------------------------------------------------------------===//
// Event handlers.
//===----------------------------------------------------------------------===//

const graph::Region &CliffEdgeNode::emptyRegion() {
  static const graph::Region Empty;
  return Empty;
}

const graph::Region &CliffEdgeNode::maxView() const {
  if (!T)
    return emptyRegion();
  if (T->MaxViewAt != InvalidNode)
    return T->CrashedComponents.componentOf(T->MaxViewAt);
  return T->DetachedMaxView; // Empty unless detached (PureLex).
}

size_t CliffEdgeNode::maxViewBorderSize() const {
  if (!T)
    return 0;
  if (T->MaxViewAt != InvalidNode)
    return T->CrashedComponents.componentBorderSize(T->MaxViewAt);
  return Ctx->G.border(T->DetachedMaxView).size();
}

const CliffEdgeNode::Counters &CliffEdgeNode::counters() const {
  static const NodeCounters Zero;
  return T ? T->Stats : Zero;
}

void CliffEdgeNode::start() {
  assert(!Started && "start() called twice");
  Started = true;
  // Line 4: monitor our own neighbours. Through the reused scratch — at
  // fleet scale the <init> wave alone is numNodes() border allocations.
  // Deliberately no tables() here: a node outside every failure wave
  // stays a bare shell for the whole run.
  Ctx->G.borderInto(Self, Ctx->MonitorScratch);
  Ctx->Host.monitorCrash(Self, Ctx->MonitorScratch);
}

void CliffEdgeNode::onCrash(NodeId Q) {
  assert(Started && "event before start()");
  assert(Q != Self && "a node cannot observe its own crash");
  tables(); // First failure contact: carve this node's state off the slab.
  if (T->LocallyCrashed.contains(Q))
    return; // The detector notifies at most once, but stay defensive.
  ++T->Stats.CrashesObserved;

  // Lines 6-7: record the crash and extend monitoring to the crashed
  // node's own neighbourhood, so a growing region keeps being tracked.
  T->LocallyCrashed.insert(Q);
  if (Ctx->Cfg.Ranking == graph::RankingKind::PureLex)
    detachMaxViewBeforeMerge(Q);
  T->CrashedComponents.addCrashed(Q);
  Ctx->G.borderInto(Q, Ctx->MonitorScratch);
  Ctx->MonitorScratch.differenceInPlace(T->LocallyCrashed);
  Ctx->Host.monitorCrash(Self, Ctx->MonitorScratch);

  // Lines 8-11: adopt the highest-ranked crashed region we know of as the
  // next candidate view if it outranks the current one. Only Q's component
  // changed, and MaxView is ranked >= every previously-seen component, so
  // comparing Q's component against MaxView is equivalent to the paper's
  // full maxRankedRegion(connectedComponents(...)) rescan. Adoption moves
  // the handle; no region is copied.
  if (outranksMaxView(Q)) {
    T->MaxViewAt = Q;
    T->DetachedMaxView.clear();
    T->HasCandidate = true;
  }

  dispatch();
}

bool CliffEdgeNode::outranksMaxView(NodeId Q) const {
  const graph::IncrementalComponents &C = T->CrashedComponents;
  // Empty max_view (outranked by any component) or a detached copy.
  if (T->MaxViewAt == InvalidNode)
    return C.outranks(Q, T->DetachedMaxView, Ctx->Cfg.Ranking);
  // Q joined max_view's own component: a strict superset, so larger under
  // the size-first rankings (PureLex detached max_view beforehand).
  if (C.findRoot(Q) == C.findRoot(T->MaxViewAt))
    return true;
  return C.outranksComponent(Q, T->MaxViewAt, Ctx->Cfg.Ranking);
}

void CliffEdgeNode::detachMaxViewBeforeMerge(NodeId Q) {
  if (T->MaxViewAt == InvalidNode)
    return;
  const graph::IncrementalComponents &C = T->CrashedComponents;
  NodeId Root = C.findRoot(T->MaxViewAt);
  for (NodeId N : Ctx->G.adj(Q))
    if (C.isCrashed(N) && C.findRoot(N) == Root) {
      T->DetachedMaxView = C.componentOf(Root);
      T->MaxViewAt = InvalidNode;
      return;
    }
}

void CliffEdgeNode::onDeliver(NodeId From, const Message &M) {
  assert(Started && "event before start()");
  assert(M.VB && M.Id != InvalidViewId && "message without interned view");
  tables(); // First failure contact: carve this node's state off the slab.
  // Line 18 guard: messages about views we rejected are ignored for good.
  if (isRejected(M.Id)) {
    ++T->Stats.MessagesIgnored;
    return;
  }
  // A daemon's peer datagram is untrusted input. A sender or receiver
  // outside border(V), or a round past the instance's last, would index
  // outside the instance's round slab: such a message is ignored.
  const graph::Region &B = M.border();
  const size_t FromIdx = findMemberIndex(B, From);
  const size_t LastRound = std::max<size_t>(1, B.size() - 1);
  if (FromIdx == NotAMember || !B.contains(Self) ||
      (!M.Final && M.Round > LastRound)) {
    ++T->Stats.MessagesIgnored;
    return;
  }

  NodeTables::Instance &I = ensureInstance(*M.VB);
  // Complete-relay tracking only feeds the footnote-6 guard; skipping it
  // otherwise saves the per-message vector scan and the tracking region's
  // growth (the steady state stays allocation-free).
  bool RelayComplete = Ctx->Cfg.EarlyTermination && M.Opinions.isComplete();
  if (M.Final) {
    // A Final message stands in for every remaining round of its sender
    // (footnote-6 optimisation): merge it into each round it covers.
    for (uint32_t R = std::min(M.Round, I.NumRounds); R <= I.NumRounds; ++R)
      mergeIntoRound(I, R, FromIdx, M.Opinions, RelayComplete);
  } else {
    mergeIntoRound(I, M.Round, FromIdx, M.Opinions, RelayComplete);
  }

  dispatch();
}

void CliffEdgeNode::dispatch() {
  // Fixpoint evaluation of the guarded handlers (lines 12, 26, 32). Each
  // helper returns true when it fired, which may enable the others.
  bool Progress = true;
  while (Progress) {
    Progress = false;
    if (tryStartInstance())
      Progress = true;
    if (tryRejectLower())
      Progress = true;
    if (tryCompleteRound())
      Progress = true;
  }
}

bool CliffEdgeNode::tryStartInstance() {
  // Line 12 guard: proposed = bottom and candidateView != empty.
  if (T->HasProposal || !T->HasCandidate)
    return false;

  // Lines 13-17. Interning the candidate (max_view) is the only region
  // work a proposal does; everything downstream handles the stable entry.
  const ViewEntry &E = Ctx->Views.intern(maxView());
  T->Vp = &E;
  T->RejectScanNeeded = true; // The new proposal may outrank tracked views.
  T->HasCandidate = false;
  T->ProposedValue = Ctx->Host.selectValue(Self, E.View);
  T->HasProposal = true;
  T->Round = 1;
  ++T->Stats.Proposals;
  ++T->Stats.RoundsStarted;

  assert(E.Border.contains(Self) && "proposer must border its view (CD2)");
  Message &Out = Ctx->SendScratch;
  Out.Round = 1;
  Out.setView(E);
  Out.Final = false;
  Out.Opinions.reset(E.Border.size());
  Out.Opinions[memberIndex(E.Border, Self)] =
      OpinionEntry{Opinion::Accept, T->ProposedValue};
  multicast(E.Border, Out);
  emitEvent(EventKind::Propose, E.View, 1);
  return true;
}

bool CliffEdgeNode::tryRejectLower() {
  // Line 26 guard: some received view is ranked strictly below our
  // (latest) proposal. Vp deliberately persists across instance failures —
  // the views a node proposes grow monotonically (Lemma 2), so anything
  // below an older proposal is also below any future one.
  //
  // The guard's inputs only change when a new instance appears or the
  // proposal moves (both set RejectScanNeeded); every other dispatch —
  // i.e. every steady-state round message — skips the scan entirely.
  // Rejection itself only shrinks the live set, so a completed scan
  // leaves nothing new to find.
  if (!T->Vp || !T->RejectScanNeeded)
    return false;
  T->RejectScanNeeded = false;

  std::vector<uint32_t> &Lower = Ctx->LowerScratch;
  Lower.clear();
  for (uint32_t S : T->LiveSlots) {
    const NodeTables::Instance &I = T->Instances[S];
    if (I.VB != T->Vp && Ctx->Views.rankedLess(*I.VB, *T->Vp))
      Lower.push_back(S);
  }
  if (Lower.empty())
    return false;

  // Deterministic rejection order regardless of slot-list order.
  std::sort(Lower.begin(), Lower.end(), [this](uint32_t A, uint32_t B) {
    return T->Instances[A].VB->View.lexLess(T->Instances[B].VB->View);
  });
  for (uint32_t S : Lower)
    doReject(S);
  return true;
}

void CliffEdgeNode::doReject(uint32_t Slot) {
  // Lines 28-31.
  NodeTables::Instance &I = T->Instances[Slot];
  assert(I.Live && I.VB && "rejecting a view we never received");
  const ViewEntry &E = *I.VB;
  const uint32_t SelfIdx = I.SelfIdx;

  // Retire the instance before multicasting, as the original erase did.
  I.Live = false;
  I.VB = nullptr;
  T->LiveSlots.erase(
      std::find(T->LiveSlots.begin(), T->LiveSlots.end(), Slot));
  T->FreeSlots.push_back(Slot);
  if (E.Id >= T->Rejected.size())
    T->Rejected.resize(E.Id + 1, 0);
  T->Rejected[E.Id] = 1;
  ++T->Stats.Rejections;

  Message &Out = Ctx->SendScratch;
  Out.Round = 1;
  Out.setView(E);
  Out.Final = false;
  Out.Opinions.reset(E.Border.size());
  Out.Opinions[SelfIdx] = OpinionEntry{Opinion::Reject, 0};
  multicast(E.Border, Out);
  emitEvent(EventKind::Reject, E.View, 1);
}

bool CliffEdgeNode::tryCompleteRound() {
  // Line 32 guard: an active own instance whose current-round waiting set
  // contains only nodes we know to be crashed.
  if (!T->HasProposal || T->Decided)
    return false;
  NodeTables::Instance *IP = findInstance(T->Vp->Id);
  if (!IP)
    return false; // Our own round-1 self-delivery has not arrived yet.
  NodeTables::Instance &I = *IP;
  touchRound(I, T->Round);
  const size_t Width = I.Width;
  const size_t Words = maskWords(Width);
  const uint64_t *Mask = I.masks(T->Round);
  const std::vector<NodeId> &Members = I.VB->Border.ids();
  for (size_t W = 0; W < Words; ++W)
    for (uint64_t Bits = Mask[W]; Bits; Bits &= Bits - 1)
      if (!T->LocallyCrashed.contains(
              Members[W * 64 + static_cast<size_t>(__builtin_ctzll(Bits))]))
        return false;

  // Footnote-6 early termination: if every border member relayed a
  // complete vector this round, all members are known to know everything;
  // finish now and cover our remaining rounds with one Final message.
  if (Ctx->Cfg.EarlyTermination && T->Round >= 2 && T->Round < I.NumRounds &&
      popcount(Mask + Words, Words) == Width) {
    ++T->Stats.EarlyTerminations;
    Message &Out = Ctx->SendScratch;
    Out.Round = T->Round + 1;
    Out.setView(*I.VB);
    Out.Final = true;
    Out.Opinions.assign(I.opinions(T->Round), Width);
    multicast(I.VB->Border, Out);
    emitEvent(EventKind::EarlyTerminate, I.VB->View, T->Round);
    finishInstance(I, T->Round);
    return true;
  }

  if (T->Round == I.NumRounds) {
    // Lines 33-37: consensus instance completed.
    finishInstance(I, T->Round);
    return true;
  }

  // Lines 38-40: start the next round, relaying last round's vector. The
  // scratch message reuses its opinion storage, so steady-state relays
  // allocate nothing.
  ++T->Round;
  ++T->Stats.RoundsStarted;
  Message &Out = Ctx->SendScratch;
  Out.Round = T->Round;
  Out.setView(*I.VB);
  Out.Final = false;
  Out.Opinions.assign(I.opinions(T->Round - 1), Width);
  multicast(I.VB->Border, Out);
  emitEvent(EventKind::RoundAdvance, I.VB->View, T->Round);
  return true;
}

void CliffEdgeNode::finishInstance(NodeTables::Instance &I,
                                   uint32_t FinalRound) {
  touchRound(I, FinalRound);
  const OpinionEntry *Vec = I.opinions(FinalRound);
  if (std::all_of(Vec, Vec + I.Width, [](const OpinionEntry &E) {
        return E.Kind == Opinion::Accept;
      })) {
    // Lines 34-36. deterministicPick: every completer holds the identical
    // vector (Lemma 3), so "value of the smallest border id" is a shared
    // deterministic choice.
    T->Decided = true;
    T->DecidedV = T->Vp->View;
    T->DecidedVal = Vec[0].Val;
    emitEvent(EventKind::Decide, T->Vp->View, FinalRound);
    Ctx->Host.decide(Self, T->DecidedV, T->DecidedVal);
    return;
  }
  // Line 37: the attempt failed (a reject or a crash hole in the vector);
  // reset and wait for the view construction to produce a better candidate.
  T->HasProposal = false;
  ++T->Stats.InstancesFailed;
  emitEvent(EventKind::InstanceFailed, T->Vp->View, FinalRound);
}

NodeTables::Instance *CliffEdgeNode::findInstance(ViewId Id) {
  const uint32_t *SlotPlus1 = T->ReceivedSlot.find(Id);
  if (!SlotPlus1 || *SlotPlus1 == 0)
    return nullptr;
  NodeTables::Instance &I = T->Instances[*SlotPlus1 - 1];
  // A stale mapping (its instance was rejected and the slot recycled)
  // never matches the queried id.
  if (!I.Live || !I.VB || I.VB->Id != Id)
    return nullptr;
  return &I;
}

NodeTables::Instance &CliffEdgeNode::ensureInstance(const ViewEntry &VB) {
  uint32_t &SlotPlus1 = T->ReceivedSlot[VB.Id];
  if (SlotPlus1 != 0) {
    NodeTables::Instance &I = T->Instances[SlotPlus1 - 1];
    if (I.Live && I.VB == &VB)
      return I;
  }

  // Lines 19-22: first contact with this view. Its rounds materialize
  // lazily (touchRound); a recycled slot keeps its slab.
  assert(VB.Border == Ctx->G.border(VB.View) &&
         "border must match the topology");
  uint32_t Slot;
  if (!T->FreeSlots.empty()) {
    Slot = T->FreeSlots.back();
    T->FreeSlots.pop_back();
  } else {
    Slot = static_cast<uint32_t>(T->Instances.size());
    T->Instances.emplace_back();
  }
  NodeTables::Instance &I = T->Instances[Slot];
  I.VB = &VB;
  I.Live = true;
  I.NumRounds =
      std::max<uint32_t>(1, static_cast<uint32_t>(VB.Border.size()) - 1);
  I.SelfIdx = static_cast<uint32_t>(memberIndex(VB.Border, Self));
  I.Width = static_cast<uint32_t>(VB.Border.size());
  I.MaskStride = static_cast<uint32_t>(maskWords(I.Width) *
                                       (Ctx->Cfg.EarlyTermination ? 2 : 1));
  I.Touched = 0;
  T->LiveSlots.push_back(Slot);
  SlotPlus1 = Slot + 1;
  T->RejectScanNeeded = true; // A fresh view may rank below the proposal.
  return I;
}

void CliffEdgeNode::mergeIntoRound(NodeTables::Instance &I, uint32_t MsgRound,
                                   size_t FromIdx, const OpinionVec &Op,
                                   bool RelayComplete) {
  assert(MsgRound >= 1 && MsgRound <= I.NumRounds && "round out of bounds");
  assert(Op.size() == I.VB->Border.size() &&
         "opinion vector size mismatch");

  // Lines 23-24: first write wins — only bottom entries are filled. FIFO
  // channels then guarantee an accept from a node that later rejected the
  // same view is recorded, never overwritten (Lemma 3 relies on this).
  touchRound(I, MsgRound);
  const size_t Width = Op.size();
  OpinionEntry *Dst = I.opinions(MsgRound);
  for (size_t K = 0; K < Width; ++K)
    if (Dst[K].Kind == Opinion::None && Op[K].Kind != Opinion::None)
      Dst[K] = Op[K];

  // Line 25: stop waiting for the sender and for anyone the vector shows
  // as a rejecter (rejecters send no further rounds).
  uint64_t *Waiting = I.masks(MsgRound);
  clearBit(Waiting, FromIdx);
  for (size_t K = 0; K < Width; ++K)
    if (Op[K].Kind == Opinion::Reject)
      clearBit(Waiting, K);

  if (RelayComplete)
    setBit(Waiting + maskWords(Width), FromIdx);
}

void CliffEdgeNode::touchRound(NodeTables::Instance &I, uint32_t Round) {
  assert(Round >= 1 && Round <= I.NumRounds && "round out of bounds");
  if (Round <= I.Touched)
    return;
  if (I.Touched == 0) {
    // First touch: one slab sized for every round, so materializing later
    // rounds never allocates. A recycled slot reuses a large-enough slab.
    size_t Words = size_t(I.NumRounds) *
                   (size_t(I.Width) * NodeTables::Instance::EntryWords +
                    I.MaskStride);
    if (I.SlabWords < Words) {
      I.Slab.reset(new uint64_t[Words]);
      I.SlabWords = Words;
    }
  }
  const size_t Words = maskWords(I.Width);
  for (uint32_t R = I.Touched + 1; R <= Round; ++R) {
    // Bottom opinions, the whole border awaited, no complete relay.
    std::uninitialized_fill_n(
        reinterpret_cast<OpinionEntry *>(I.Slab.get()) +
            size_t(R - 1) * I.Width,
        I.Width, OpinionEntry{});
    uint64_t *Mask = I.masks(R);
    std::fill(Mask, Mask + Words, ~uint64_t(0));
    if (I.Width % 64)
      Mask[Words - 1] = (uint64_t(1) << (I.Width % 64)) - 1;
    std::fill(Mask + Words, Mask + I.MaskStride, uint64_t(0));
  }
  I.Touched = Round;
}

void CliffEdgeNode::multicast(const graph::Region &To, const Message &M) {
  // The paper's best-effort multicast (§3.1): point-to-point sends to each
  // recipient. The sender is in border(V), so this includes a self-send,
  // which is what later makes "Vp in received" true.
  Ctx->Host.multicast(Self, To, M);
}

void CliffEdgeNode::emitEvent(EventKind Kind, const graph::Region &View,
                              uint32_t EventRound) {
  if (Ctx->Host.wantsEvents())
    Ctx->Host.onEvent(Self, ProtocolEvent{Kind, View, EventRound});
}
