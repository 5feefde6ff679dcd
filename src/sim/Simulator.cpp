//===- sim/Simulator.cpp - Deterministic discrete-event engine -------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "support/Random.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

using namespace cliffedge;
using namespace cliffedge::sim;

void Simulator::setNotice(NoticeHandler Fn) {
  if (Notice) {
    std::fprintf(stderr, "cliffedge: a second crash-notice handler (failure "
                         "detector) on one simulator\n");
    std::abort();
  }
  Notice = std::move(Fn);
}

void Simulator::schedule(Entry E) {
  assert(E.When >= Now && "cannot schedule an event in the past");
  auto It = std::lower_bound(
      Times.begin(), Times.end(), E.When,
      [](const std::pair<SimTime, uint32_t> &P, SimTime T) {
        return P.first < T;
      });
  uint32_t Slot;
  if (It != Times.end() && It->first == E.When) {
    Slot = It->second;
  } else {
    if (FreeBuckets.empty()) {
      Slot = static_cast<uint32_t>(Buckets.size());
      Buckets.emplace_back();
    } else {
      Slot = FreeBuckets.back();
      FreeBuckets.pop_back();
    }
    Times.insert(It, {E.When, Slot});
  }
  Buckets[Slot].Events.push_back(std::move(E));
  ++Count;
}

void Simulator::at(SimTime When, Handler Fn) {
  Entry E;
  E.When = When;
  E.Seq = NextSeq++;
  E.Fn = std::make_unique<Handler>(std::move(Fn));
  schedule(std::move(E));
}

void Simulator::atDeliver(SimTime When, NodeId From, NodeId To,
                          support::FrameRef Frame) {
  assert(Deliver && "no delivery handler installed");
  Entry E;
  E.When = When;
  E.Seq = NextSeq++;
  E.Frame = std::move(Frame);
  E.From = From;
  E.To = To;
  schedule(std::move(E));
}

void Simulator::atNotice(SimTime When, NodeId Watcher, NodeId Target) {
  assert(Notice && "no notice handler installed");
  Entry E;
  E.When = When;
  E.Seq = NextSeq++;
  E.From = Target;
  E.To = Watcher;
  schedule(std::move(E));
}

uint64_t Simulator::biasKey(const Entry &E) const {
  // Deliveries key on their directed channel alone, so every delivery of
  // one channel inside one bucket shares a key and the stable sort leaves
  // their mutual (= send) order intact: per-channel FIFO is preserved and
  // only the interleaving *between* channels (and against closure and
  // notice events, keyed uniquely by Seq like the closures notices once
  // were) is permuted.
  uint64_t Mix = E.Frame
                     ? (static_cast<uint64_t>(E.From) << 32) | E.To
                     : 0x636c6f73757265ULL ^ (E.Seq * 0x9e3779b97f4a7c15ULL);
  return SplitMix64(TieBias ^ Mix ^ (E.When * 0x94d049bb133111ebULL)).next();
}

void Simulator::biasSort(Bucket &B) {
  // Sorting is stable, so across repeated sorts (handlers may append to
  // the bucket being drained) equal-key entries keep ascending Seq order.
  std::stable_sort(B.Events.begin() + B.Next, B.Events.end(),
                   [this](const Entry &A, const Entry &C) {
                     return biasKey(A) < biasKey(C);
                   });
  B.Sorted = B.Events.size();
}

SimTime Simulator::nextPendingTime() const {
  for (const std::pair<SimTime, uint32_t> &T : Times) {
    const Bucket &B = Buckets[T.second];
    if (B.Next < B.Events.size())
      return T.first;
  }
  return TimeNever;
}

void Simulator::dispatch(Entry &Next) {
  Now = Next.When;
  ++Processed;
  if (Next.Frame)
    Deliver(Next.From, Next.To, Next.Frame);
  else if (Next.Fn)
    (*Next.Fn)();
  else
    Notice(Next.To, Next.From);
}

bool Simulator::step() {
  // Retire exhausted front buckets lazily: the final event of a bucket may
  // schedule a same-timestamp successor, so a bucket only leaves the
  // calendar once a later pop finds it still drained. Its storage keeps
  // its capacity and circulates through the free list.
  while (!Times.empty()) {
    Bucket &B = Buckets[Times.front().second];
    if (B.Next < B.Events.size())
      break;
    B.Events.clear();
    B.Next = 0;
    B.Sorted = 0;
    FreeBuckets.push_back(Times.front().second);
    Times.erase(Times.begin());
  }
  if (Times.empty())
    return false;

  Bucket &B = Buckets[Times.front().second];
  if (TieBias && B.Sorted < B.Events.size())
    biasSort(B);
  // Move the entry out before running it: the handler may append to this
  // very bucket (or grow the bucket table), invalidating references.
  Entry Next = std::move(B.Events[B.Next++]);
  --Count;
  dispatch(Next);
  return true;
}

uint64_t Simulator::run(uint64_t MaxEvents) {
  uint64_t Fired = 0;
  while (step()) {
    ++Fired;
    if (MaxEvents != 0 && Fired >= MaxEvents)
      break;
  }
  return Fired;
}

uint64_t Simulator::runUntil(SimTime Until) {
  uint64_t Fired = 0;
  while (Count != 0 && nextPendingTime() <= Until) {
    step();
    ++Fired;
  }
  return Fired;
}
