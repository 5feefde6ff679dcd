//===- tests/EventQueueTest.cpp - The sharded engine's calendar -----------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// engine::EventQueue: rounds drain one timestamp at a time in (shard,
/// key, sequence) order, whether a timestamp sat in the ring window or in
/// the far list beyond it, and the queue's bookkeeping is bounded by the
/// timestamps still pending, not by every timestamp a run has seen.
///
//===----------------------------------------------------------------------===//

#include "engine/EventQueue.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <vector>

using namespace cliffedge;

namespace {

engine::Event makeEvent(SimTime When, uint32_t Shard, uint64_t Key,
                        uint64_t Seq) {
  engine::Event E;
  E.When = When;
  E.Shard = Shard;
  E.Key = Key;
  E.Seq = Seq;
  return E;
}

TEST(EventQueue, RoundsDrainByTimeThenShardKeySeq) {
  engine::EventQueue Q;
  EXPECT_EQ(Q.nextTime(), TimeNever);
  Q.push(makeEvent(20, 0, 1, 0));
  Q.push(makeEvent(10, 3, 5, 1));
  Q.push(makeEvent(10, 1, 9, 2));
  Q.push(makeEvent(10, 3, 2, 3));
  Q.push(makeEvent(10, 1, 9, 4)); // Key tie with seq 2: falls to Seq.
  Q.push(makeEvent(10, 0, 7, 5));
  EXPECT_EQ(Q.size(), 6u);
  EXPECT_EQ(Q.nextTime(), 10u);

  std::vector<engine::Event> Round;
  Q.takeRound(Round);
  std::vector<uint64_t> Seqs;
  for (const engine::Event &E : Round)
    Seqs.push_back(E.Seq);
  EXPECT_EQ(Seqs, (std::vector<uint64_t>{5, 2, 4, 3, 1}));
  EXPECT_EQ(Q.size(), 1u);

  // A push at the timestamp just drained opens a sub-round there, ahead
  // of every later timestamp.
  Q.push(makeEvent(10, 2, 0, 6));
  EXPECT_EQ(Q.nextTime(), 10u);
  Q.takeRound(Round);
  ASSERT_EQ(Round.size(), 1u);
  EXPECT_EQ(Round[0].Seq, 6u);
  Q.takeRound(Round);
  ASSERT_EQ(Round.size(), 1u);
  EXPECT_EQ(Round[0].When, 20u);
  EXPECT_TRUE(Q.empty());
  EXPECT_EQ(Q.nextTime(), TimeNever);
}

TEST(EventQueue, FootprintBoundedByPendingTimestamps) {
  // 100k distinct timestamps stream through with at most 8 pending at a
  // time: the index and the bucket table must stay at the size of the
  // pending set, however long the run.
  engine::EventQueue Q;
  std::vector<engine::Event> Round;
  constexpr SimTime Distinct = 100000;
  constexpr SimTime Pending = 8;
  SimTime Next = 0;
  uint64_t Seq = 0;
  size_t Drained = 0;
  size_t PeakFootprint = 0;
  while (Next < Pending)
    Q.push(makeEvent(Next++, 0, 0, Seq++));
  while (!Q.empty()) {
    SimTime T = Q.nextTime();
    Q.takeRound(Round);
    ASSERT_EQ(Round.size(), 1u);
    EXPECT_EQ(Round[0].When, T);
    ++Drained;
    if (Next < Distinct)
      Q.push(makeEvent(Next++, 0, 0, Seq++));
    PeakFootprint = std::max(PeakFootprint, Q.footprint());
  }
  EXPECT_EQ(Drained, static_cast<size_t>(Distinct));
  EXPECT_LE(PeakFootprint, 4 * Pending);
}

std::vector<uint64_t> drainSeqs(engine::EventQueue &Q,
                                std::vector<engine::Event> &Round) {
  Q.takeRound(Round);
  std::vector<uint64_t> Seqs;
  for (const engine::Event &E : Round)
    Seqs.push_back(E.Seq);
  return Seqs;
}

TEST(EventQueue, PushBeyondTheRingWindowDrainsInTimeOrder) {
  constexpr SimTime Ring = engine::EventQueue::RingTicks;
  engine::EventQueue Q;
  std::vector<engine::Event> Round;
  Q.push(makeEvent(3 * Ring + 5, 1, 0, 0)); // Far.
  Q.push(makeEvent(Ring, 0, 0, 1));         // First tick past the window.
  Q.push(makeEvent(Ring - 1, 0, 0, 2));     // Last tick inside it.
  Q.push(makeEvent(3 * Ring + 5, 0, 9, 3)); // Same far tick, lower shard.
  Q.push(makeEvent(7, 0, 0, 4));
  EXPECT_EQ(Q.nextTime(), 7u);
  EXPECT_EQ(drainSeqs(Q, Round), (std::vector<uint64_t>{4}));
  EXPECT_EQ(Q.nextTime(), Ring - 1);
  EXPECT_EQ(drainSeqs(Q, Round), (std::vector<uint64_t>{2}));
  EXPECT_EQ(Q.nextTime(), Ring);
  EXPECT_EQ(drainSeqs(Q, Round), (std::vector<uint64_t>{1}));
  // The ring is empty: the far tick is next, its bucket sorted by shard.
  EXPECT_EQ(Q.nextTime(), 3 * Ring + 5);
  EXPECT_EQ(drainSeqs(Q, Round), (std::vector<uint64_t>{3, 0}));
  EXPECT_TRUE(Q.empty());
}

TEST(EventQueue, FarTimestampJoinsPushesAfterTheWindowSlides) {
  // Tick 300 gets events while it is beyond the window (from tick 0) and
  // after the window slid onto it (from tick 100): one round, one sort.
  engine::EventQueue Q;
  std::vector<engine::Event> Round;
  Q.push(makeEvent(300, 2, 5, 0)); // Far.
  Q.push(makeEvent(300, 1, 8, 1)); // Far.
  Q.push(makeEvent(100, 0, 0, 2));
  EXPECT_EQ(drainSeqs(Q, Round), (std::vector<uint64_t>{2}));
  Q.push(makeEvent(300, 1, 3, 3)); // Inside the window now.
  Q.push(makeEvent(300, 2, 5, 4)); // Key tie with seq 0.
  Q.push(makeEvent(200, 0, 0, 5));
  EXPECT_EQ(drainSeqs(Q, Round), (std::vector<uint64_t>{5}));
  EXPECT_EQ(Q.nextTime(), 300u);
  EXPECT_EQ(drainSeqs(Q, Round), (std::vector<uint64_t>{3, 1, 0, 4}));
  EXPECT_TRUE(Q.empty());
}

TEST(EventQueue, PushAtTheDrainedTimestampOpensASubRound) {
  engine::EventQueue Q;
  std::vector<engine::Event> Round;
  Q.push(makeEvent(500, 0, 0, 0)); // Far from tick 0.
  Q.push(makeEvent(501, 0, 0, 1));
  EXPECT_EQ(drainSeqs(Q, Round), (std::vector<uint64_t>{0}));
  Q.push(makeEvent(500, 3, 0, 2));
  Q.push(makeEvent(500, 1, 0, 3));
  EXPECT_EQ(Q.nextTime(), 500u);
  EXPECT_EQ(drainSeqs(Q, Round), (std::vector<uint64_t>{3, 2}));
  EXPECT_EQ(drainSeqs(Q, Round), (std::vector<uint64_t>{1}));
  EXPECT_TRUE(Q.empty());
}

TEST(EventQueue, RingWrapsAroundInTimeOrder) {
  // Window start 200 sits in the ring's last 64-slot word; ticks past the
  // wrap land in the first words and in the start word below 200.
  constexpr SimTime Ring = engine::EventQueue::RingTicks;
  engine::EventQueue Q;
  std::vector<engine::Event> Round;
  Q.push(makeEvent(200, 0, 0, 0));
  EXPECT_EQ(drainSeqs(Q, Round), (std::vector<uint64_t>{0}));
  Q.push(makeEvent(200 + Ring - 1, 0, 0, 1)); // Slot 199: start word.
  Q.push(makeEvent(260, 0, 0, 2));            // Slot 4: after the wrap.
  Q.push(makeEvent(210, 0, 0, 3));            // Slot 210: before it.
  std::vector<SimTime> Times;
  while (!Q.empty()) {
    SimTime T = Q.nextTime();
    Q.takeRound(Round);
    ASSERT_EQ(Round.size(), 1u);
    EXPECT_EQ(Round[0].When, T);
    Times.push_back(T);
  }
  EXPECT_EQ(Times, (std::vector<SimTime>{210, 260, 200 + Ring - 1}));
}

TEST(EventQueue, FootprintStaysFlatWithFarPushes) {
  // A long run mixing near pushes with periodic far ones (a crash plan's
  // late entries): once warm, the bookkeeping stops growing.
  engine::EventQueue Q;
  std::vector<engine::Event> Round;
  uint64_t Seq = 0;
  Q.push(makeEvent(0, 0, 0, Seq++));
  size_t Warm = 0, Peak = 0;
  for (uint32_t I = 0; I < 200000; ++I) {
    SimTime T = Q.nextTime();
    Q.takeRound(Round);
    Q.push(makeEvent(T + 1 + I % 3, I % 4, I, Seq++));
    if (I % 64 == 0)
      Q.push(makeEvent(T + 1000, 0, I, Seq++));
    if (I == 20000)
      Warm = Q.footprint();
    if (I > 20000)
      Peak = std::max(Peak, Q.footprint());
  }
  EXPECT_GT(Warm, 0u);
  EXPECT_EQ(Peak, Warm);
}

} // namespace
