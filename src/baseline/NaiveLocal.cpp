//===- baseline/NaiveLocal.cpp - Arbitration-free local agreement ----------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "baseline/NaiveLocal.h"

#include "graph/Ranking.h"

#include <cassert>

using namespace cliffedge;
using namespace cliffedge::baseline;
using core::Message;
using core::Opinion;
using core::OpinionEntry;
using core::OpinionVec;

NaiveLocalNode::NaiveLocalNode(NodeId InSelf, const graph::Graph &InG,
                               core::ViewTable &InViews,
                               core::NodeHost &InHost)
    : Self(InSelf), G(InG), Views(InViews), Host(InHost),
      CrashedComponents(InG) {}

void NaiveLocalNode::start() {
  assert(!Started && "start() called twice");
  Started = true;
  Host.monitorCrash(Self, G.border(Self));
}

void NaiveLocalNode::onCrash(NodeId Q) {
  assert(Started && "event before start()");
  if (LocallyCrashed.contains(Q))
    return;
  LocallyCrashed.insert(Q);
  CrashedComponents.addCrashed(Q);
  G.borderInto(Q, MonitorScratch);
  MonitorScratch.differenceInPlace(LocallyCrashed);
  Host.monitorCrash(Self, MonitorScratch);

  // The naive flaw: propose every region detected, *without* rejecting the
  // superseded smaller ones. Old instances keep running and may still
  // complete — which is exactly how overlapping decisions (CD6 violations)
  // happen when a region grows mid-agreement.
  //
  // Only Q's component changed; the ranking subsumes strict inclusion, so
  // the max-ranked component is either the one absorbing Q or the previous
  // max — no full rescan needed.
  if (MaxMember == InvalidNode ||
      CrashedComponents.findRoot(MaxMember) == CrashedComponents.findRoot(Q) ||
      CrashedComponents.outranksComponent(Q, MaxMember,
                                          graph::RankingKind::SizeBorderLex))
    MaxMember = Q;
  graph::Region V = CrashedComponents.componentOf(MaxMember);
  if (!Instances.count(V)) {
    graph::Region B = G.border(V);
    auto &I = Instances.emplace(V, Instance{}).first->second;
    I.Border = B;
    I.NumRounds =
        std::max<uint32_t>(1, static_cast<uint32_t>(B.size()) - 1);
    I.Opinions.assign(I.NumRounds, OpinionVec(B.size()));
    I.Waiting.assign(I.NumRounds, B);
    acceptAndJoin(V, I);
  }

  // Crash waivers may complete rounds in any instance.
  for (auto &[View, I] : Instances)
    pump(View, I);
}

void NaiveLocalNode::onDeliver(NodeId From, const Message &M) {
  assert(Started && "event before start()");
  auto It = Instances.find(M.view());
  if (It == Instances.end()) {
    Instance I;
    I.Border = M.border();
    I.NumRounds =
        std::max<uint32_t>(1, static_cast<uint32_t>(I.Border.size()) - 1);
    I.Opinions.assign(I.NumRounds, OpinionVec(I.Border.size()));
    I.Waiting.assign(I.NumRounds, I.Border);
    It = Instances.emplace(M.view(), std::move(I)).first;
  }
  Instance &I = It->second;

  // Co-sign whatever we are asked about (the second naive flaw).
  if (!I.Accepted)
    acceptAndJoin(It->first, I);

  assert(M.Round >= 1 && M.Round <= I.NumRounds && "round out of bounds");
  OpinionVec &Dst = I.Opinions[M.Round - 1];
  for (size_t K = 0; K < M.Opinions.size(); ++K)
    if (Dst[K].Kind == Opinion::None && M.Opinions[K].Kind != Opinion::None)
      Dst[K] = M.Opinions[K];
  I.Waiting[M.Round - 1].erase(From);

  pump(It->first, I);
}

void NaiveLocalNode::acceptAndJoin(const graph::Region &V, Instance &I) {
  assert(I.Border.contains(Self) && "joining a view we do not border");
  I.Accepted = true;
  OpinionVec Op(I.Border.size());
  Op[core::memberIndex(I.Border, Self)] =
      OpinionEntry{Opinion::Accept, Host.selectValue(Self, V)};
  Message M;
  M.Round = 1;
  M.setView(Views.intern(V, I.Border));
  M.Opinions = std::move(Op);
  Host.multicast(Self, I.Border, M);
}

void NaiveLocalNode::pump(const graph::Region &V, Instance &I) {
  while (!I.Done && I.Accepted &&
         I.Waiting[I.Round - 1].isSubsetOf(LocallyCrashed)) {
    if (I.Round == I.NumRounds) {
      I.Done = true;
      const OpinionVec &Vec = I.Opinions[I.Round - 1];
      if (Vec.allAccept() && !Decided) {
        Decided = true;
        DecidedV = V;
        DecidedVal = Vec[0].Val;
        Host.decide(Self, V, DecidedVal);
      }
      return;
    }
    ++I.Round;
    Message M;
    M.Round = I.Round;
    M.setView(Views.intern(V, I.Border));
    M.Opinions = I.Opinions[I.Round - 2];
    Host.multicast(Self, I.Border, M);
  }
}
