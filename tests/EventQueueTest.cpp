//===- tests/EventQueueTest.cpp - The sharded engine's calendar -----------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// engine::EventQueue: rounds drain one timestamp at a time in (shard,
/// key, sequence) order, and the queue's bookkeeping is bounded by the
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

} // namespace
