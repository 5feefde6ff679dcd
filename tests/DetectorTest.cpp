//===- tests/DetectorTest.cpp - Perfect failure detector tests ---------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "detector/FailureDetector.h"

#include "sim/Simulator.h"

#include "gtest/gtest.h"

using namespace cliffedge;
using detector::PerfectFailureDetector;
using graph::Region;
using sim::Simulator;

namespace {

struct Notice {
  NodeId Watcher, Target;
  SimTime When;
};

struct DetectorFixture : ::testing::Test {
  Simulator Sim;
  std::vector<Notice> Notices;
  PerfectFailureDetector Det{Sim, 5, detector::fixedDetectionDelay(3),
                             [this](NodeId W, NodeId T) {
                               Notices.push_back(Notice{W, T, Sim.now()});
                             }};
};

} // namespace

TEST_F(DetectorFixture, NotifiesSubscribedWatcherAfterDelay) {
  Det.monitor(0, Region{1});
  Sim.at(10, [&] { Det.nodeCrashed(1); });
  Sim.run();
  ASSERT_EQ(Notices.size(), 1u);
  EXPECT_EQ(Notices[0].Watcher, 0u);
  EXPECT_EQ(Notices[0].Target, 1u);
  EXPECT_EQ(Notices[0].When, 13u);
}

TEST_F(DetectorFixture, StrongAccuracyNoSpuriousNotifications) {
  Det.monitor(0, Region{1, 2});
  Sim.at(5, [&] { Det.nodeCrashed(2); });
  Sim.run();
  // Node 1 never crashed: exactly one notification, for node 2.
  ASSERT_EQ(Notices.size(), 1u);
  EXPECT_EQ(Notices[0].Target, 2u);
}

TEST_F(DetectorFixture, UnsubscribedWatcherNotNotified) {
  Det.monitor(0, Region{1});
  Sim.at(1, [&] { Det.nodeCrashed(3); }); // Nobody watches 3.
  Sim.run();
  EXPECT_TRUE(Notices.empty());
}

TEST_F(DetectorFixture, LateSubscriptionStillNotified) {
  // Strong completeness: subscribing after the crash must still notify.
  Sim.at(2, [&] { Det.nodeCrashed(4); });
  Sim.at(10, [&] { Det.monitor(1, Region{4}); });
  Sim.run();
  ASSERT_EQ(Notices.size(), 1u);
  EXPECT_EQ(Notices[0].Watcher, 1u);
  EXPECT_EQ(Notices[0].Target, 4u);
  EXPECT_EQ(Notices[0].When, 13u);
}

TEST_F(DetectorFixture, DuplicateSubscriptionsNotifyOnce) {
  Det.monitor(0, Region{1});
  Det.monitor(0, Region{1});
  Sim.at(1, [&] { Det.nodeCrashed(1); });
  Sim.run();
  EXPECT_EQ(Notices.size(), 1u);
}

TEST_F(DetectorFixture, MultipleWatchersAllNotified) {
  Det.monitor(0, Region{3});
  Det.monitor(1, Region{3});
  Det.monitor(2, Region{3});
  Sim.at(7, [&] { Det.nodeCrashed(3); });
  Sim.run();
  EXPECT_EQ(Notices.size(), 3u);
}

TEST_F(DetectorFixture, CrashedWatcherReceivesNothing) {
  Det.monitor(0, Region{1});
  Sim.at(1, [&] { Det.nodeCrashed(0); }); // Watcher dies first.
  Sim.at(2, [&] { Det.nodeCrashed(1); });
  Sim.run();
  EXPECT_TRUE(Notices.empty());
}

TEST_F(DetectorFixture, SelfMonitoringIgnored) {
  Det.monitor(2, Region{2, 3});
  Sim.at(1, [&] { Det.nodeCrashed(3); });
  Sim.run();
  ASSERT_EQ(Notices.size(), 1u);
  EXPECT_EQ(Notices[0].Target, 3u);
}

TEST_F(DetectorFixture, SecondDetectorOnOneSimulatorAborts) {
  // Notice records carry no handler: a second detector would silently
  // take over the fixture detector's notices, so it must not start.
  EXPECT_DEATH(PerfectFailureDetector Second(
                   Sim, 5, detector::fixedDetectionDelay(1),
                   [](NodeId, NodeId) {}),
               "second crash-notice handler");
}

TEST_F(DetectorFixture, PerWatcherDelayModel) {
  // A detector of its own needs a simulator of its own: the fixture's
  // detector already routes Sim's crash notices.
  Simulator Own;
  std::vector<Notice> Local;
  PerfectFailureDetector Slow(
      Own, 5,
      [](NodeId Watcher, NodeId) -> SimTime { return Watcher * 10; },
      [&](NodeId W, NodeId T) { Local.push_back(Notice{W, T, Own.now()}); });
  Slow.monitor(1, Region{0});
  Slow.monitor(2, Region{0});
  Own.at(0, [&] { Slow.nodeCrashed(0); });
  Own.run();
  ASSERT_EQ(Local.size(), 2u);
  EXPECT_EQ(Local[0].When, 10u);
  EXPECT_EQ(Local[1].When, 20u);
}
