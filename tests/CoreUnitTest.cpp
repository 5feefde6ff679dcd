//===- tests/CoreUnitTest.cpp - CliffEdgeNode single-node tests ---------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives one CliffEdgeNode directly through its event interface with a
/// recording harness, checking the per-line behaviour of Algorithm 1
/// without any simulator in the loop. Multi-node interplay is covered by
/// IntegrationTest and PropertiesTest.
///
//===----------------------------------------------------------------------===//

#include "core/CliffEdgeNode.h"

#include "graph/Builders.h"

#include "gtest/gtest.h"

#include <cassert>
#include <memory>
#include <optional>

using namespace cliffedge;
using core::CliffEdgeNode;
using core::Message;
using core::Opinion;
using core::OpinionEntry;
using core::OpinionVec;
using graph::Region;

namespace {

/// Records every outgoing effect of the node under test: the test's
/// core::NodeHost. Owns the test's view intern table (run-wide state the
/// node and messages share) and the node's execution domain.
struct Harness final : core::NodeHost {
  struct Sent {
    Region To;
    Message M;
  };
  const graph::Graph &G;
  core::ViewTable Views;
  std::unique_ptr<core::NodeContext> Ctx;
  std::vector<Sent> Outbox;
  std::vector<Region> Monitored;
  std::optional<core::Decision> Decided;

  explicit Harness(const graph::Graph &G,
                   graph::RankingKind Kind = graph::RankingKind::SizeBorderLex)
      : G(G), Views(G, Kind) {}

  /// The node under test, hosted by this harness.
  CliffEdgeNode node(NodeId Self, core::Config Cfg = core::Config()) {
    assert(!Ctx && "one node per harness");
    Ctx = std::make_unique<core::NodeContext>(G, Views, Cfg, *this);
    return CliffEdgeNode(Self, *Ctx);
  }

  void multicast(NodeId, const Region &To, const Message &M) override {
    Outbox.push_back(Sent{To, M});
  }
  void monitorCrash(NodeId, const Region &Targets) override {
    Monitored.push_back(Targets);
  }
  void decide(NodeId, const Region &View, core::Value Chosen) override {
    ASSERT_FALSE(Decided.has_value()) << "node decided twice";
    Decided = core::Decision{View, Chosen};
  }
  core::Value selectValue(NodeId, const Region &View) override {
    return static_cast<core::Value>(1000 + View.size());
  }

  /// Builds a round-1 accept message as peer \p Peer would send for view
  /// \p V with border \p B.
  Message acceptFrom(NodeId Peer, const Region &V, const Region &B,
                     core::Value Val) {
    Message M;
    M.Round = 1;
    M.setView(Views.intern(V, B));
    M.Opinions = OpinionVec(B.size());
    M.Opinions[core::memberIndex(B, Peer)] =
        OpinionEntry{Opinion::Accept, Val};
    return M;
  }

  Message rejectFrom(NodeId Peer, const Region &V, const Region &B) {
    Message M;
    M.Round = 1;
    M.setView(Views.intern(V, B));
    M.Opinions = OpinionVec(B.size());
    M.Opinions[core::memberIndex(B, Peer)] = OpinionEntry{Opinion::Reject, 0};
    return M;
  }
};

} // namespace

TEST(CoreUnitTest, StartMonitorsOwnNeighbours) {
  graph::Graph G = graph::makeLine(3); // 0-1-2
  Harness H(G);
  CliffEdgeNode Node = H.node(1);
  Node.start();
  ASSERT_EQ(H.Monitored.size(), 1u);
  EXPECT_EQ(H.Monitored[0], (Region{0, 2}));
}

TEST(CoreUnitTest, CrashTriggersProposalWithOwnAccept) {
  graph::Graph G = graph::makeLine(3); // 0-1-2; border({1}) = {0,2}.
  Harness H(G);
  CliffEdgeNode Node = H.node(0);
  Node.start();
  Node.onCrash(1);

  EXPECT_TRUE(Node.hasActiveProposal());
  EXPECT_EQ(Node.lastProposedView(), (Region{1}));
  ASSERT_EQ(H.Outbox.size(), 1u);
  const Message &M = H.Outbox[0].M;
  EXPECT_EQ(M.Round, 1u);
  EXPECT_EQ(M.view(), (Region{1}));
  EXPECT_EQ(M.border(), (Region{0, 2}));
  EXPECT_EQ(H.Outbox[0].To, (Region{0, 2}));
  // Own entry accepted with SelectValue's result; peer entry still bottom.
  EXPECT_EQ(M.Opinions[0].Kind, Opinion::Accept);
  EXPECT_EQ(M.Opinions[0].Val, 1001u);
  EXPECT_EQ(M.Opinions[1].Kind, Opinion::None);
}

TEST(CoreUnitTest, CrashExtendsMonitoringToCrashedNodesBorder) {
  graph::Graph G = graph::makeLine(4); // 0-1-2-3
  Harness H(G);
  CliffEdgeNode Node = H.node(0);
  Node.start();
  Node.onCrash(1);
  // monitor(border(1) \ locallyCrashed) = {0,2}\{1} = {0,2}; self filtered
  // by the detector, but the protocol passes the set as-is.
  ASSERT_EQ(H.Monitored.size(), 2u);
  EXPECT_EQ(H.Monitored[1], (Region{0, 2}));
}

TEST(CoreUnitTest, SelfDeliveryAloneDoesNotDecideWithTwoBorderNodes) {
  graph::Graph G = graph::makeLine(3);
  Harness H(G);
  CliffEdgeNode Node = H.node(0);
  Node.start();
  Node.onCrash(1);
  Node.onDeliver(0, H.Outbox[0].M); // Own round-1 comes back.
  EXPECT_FALSE(Node.hasDecided());
  EXPECT_EQ(Node.currentRound(), 1u);
}

TEST(CoreUnitTest, DecidesWhenAllBorderAcceptsArrive) {
  graph::Graph G = graph::makeLine(3); // border({1}) = {0,2}: 1 round.
  Harness H(G);
  CliffEdgeNode Node = H.node(0);
  Node.start();
  Node.onCrash(1);
  Node.onDeliver(0, H.Outbox[0].M);
  Node.onDeliver(2, H.acceptFrom(2, Region{1}, Region{0, 2}, 777));

  ASSERT_TRUE(Node.hasDecided());
  EXPECT_EQ(Node.decidedView(), (Region{1}));
  // deterministicPick = smallest border id's value = node 0's own value.
  EXPECT_EQ(Node.decidedValue(), 1001u);
  ASSERT_TRUE(H.Decided.has_value());
  EXPECT_EQ(H.Decided->View, (Region{1}));
}

TEST(CoreUnitTest, SoleBorderNodeDecidesFromSelfDeliveryAlone) {
  graph::Graph G = graph::makeLine(2); // 0-1; border({1}) = {0}.
  Harness H(G);
  CliffEdgeNode Node = H.node(0);
  Node.start();
  Node.onCrash(1);
  ASSERT_EQ(H.Outbox.size(), 1u);
  Node.onDeliver(0, H.Outbox[0].M);
  EXPECT_TRUE(Node.hasDecided());
  EXPECT_EQ(Node.decidedView(), (Region{1}));
}

TEST(CoreUnitTest, RejectsLowerRankedView) {
  graph::Graph G = graph::makeLine(5); // 0-1-2-3-4
  Harness H(G);
  // Node 0 detects {1,2} crashed: proposes the two-node view.
  CliffEdgeNode Node = H.node(0);
  Node.start();
  Node.onCrash(1);
  Node.onCrash(2);
  // It proposed {1} first, then upon seeing {1,2} it must reject the
  // now-stale {1} (which it has in `received` via... not yet: deliver the
  // self round-1 for {1} so the view is in `received`).
  // Outbox[0] is the proposal for {1}.
  ASSERT_GE(H.Outbox.size(), 1u);
  EXPECT_EQ(H.Outbox[0].M.view(), (Region{1}));
  Node.onDeliver(0, H.Outbox[0].M);
  // After the {1} instance's round-1 from self only, nothing completes; but
  // a reject of {1} must have been multicast because Vp is now... Vp is
  // still {1} (instance active). Complete the failed instance first:
  Node.onDeliver(2, H.rejectFrom(2, Region{1}, Region{0, 2}));
  // Instance {1} fails (reject in vector) -> proposes candidate {1,2}; then
  // the stale {1} in `received` is rejected.
  bool ProposedBigger = false;
  bool RejectedStale = false;
  for (const auto &S : H.Outbox) {
    if (S.M.view() == (Region{1, 2}) && S.M.Round == 1)
      ProposedBigger = true;
    if (S.M.view() == (Region{1}) &&
        S.M.Opinions[core::memberIndex(Region{0, 2}, 0)].Kind ==
            Opinion::Reject)
      RejectedStale = true;
  }
  EXPECT_TRUE(ProposedBigger);
  EXPECT_TRUE(RejectedStale);
  EXPECT_EQ(Node.counters().Rejections, 1u);
}

TEST(CoreUnitTest, IgnoresMessagesForRejectedViews) {
  graph::Graph G = graph::makeLine(5);
  Harness H(G);
  CliffEdgeNode Node = H.node(0);
  Node.start();
  Node.onCrash(1);
  Node.onCrash(2);
  Node.onDeliver(0, H.Outbox[0].M); // Self round-1 for {1}.
  Node.onDeliver(2, H.rejectFrom(2, Region{1}, Region{0, 2}));
  // {1} is now in `rejected`; further traffic for it must be dropped.
  uint64_t Before = Node.counters().MessagesIgnored;
  Node.onDeliver(2, H.acceptFrom(2, Region{1}, Region{0, 2}, 5));
  EXPECT_EQ(Node.counters().MessagesIgnored, Before + 1);
}

TEST(CoreUnitTest, FailedInstanceDoesNotDecideOnCrashHole) {
  // border({1}) on the line 0-1-2 is {0,2}; if node 2 crashes before
  // sending its accept, the vector keeps a bottom and the instance fails.
  graph::Graph G = graph::makeLine(3);
  Harness H(G);
  CliffEdgeNode Node = H.node(0);
  Node.start();
  Node.onCrash(1);
  Node.onDeliver(0, H.Outbox[0].M);
  EXPECT_FALSE(Node.hasDecided());
  Node.onCrash(2); // The other border node dies: waiting waived.
  EXPECT_FALSE(Node.hasDecided());
  // The instance failed, and the region grew: a new proposal for the
  // bigger component {1,2} follows immediately.
  EXPECT_EQ(Node.counters().InstancesFailed, 1u);
  EXPECT_TRUE(Node.hasActiveProposal());
  EXPECT_EQ(Node.lastProposedView(), (Region{1, 2}));
}

TEST(CoreUnitTest, ProposedViewsGrowMonotonically) {
  graph::Graph G = graph::makeLine(6);
  Harness H(G);
  CliffEdgeNode Node = H.node(0);
  Node.start();
  Node.onCrash(1);
  EXPECT_EQ(Node.lastProposedView().size(), 1u);
  Node.onDeliver(0, H.Outbox[0].M);
  Node.onCrash(2); // Instance fails (crash hole), re-propose {1,2}.
  EXPECT_EQ(Node.lastProposedView().size(), 2u);
  EXPECT_EQ(Node.counters().Proposals, 2u);
}

TEST(CoreUnitTest, MultiRoundInstanceRelaysPreviousVector) {
  // Crash a 2-node region on a grid so the border has 6 nodes: 5 rounds.
  graph::Graph G = graph::makeGrid(4, 3);
  NodeId A = graph::gridId(4, 1, 1), B = graph::gridId(4, 2, 1);
  Region V{A, B};
  Region Border = G.border(V);
  ASSERT_EQ(Border.size(), 6u);
  NodeId Self = graph::gridId(4, 0, 1); // West neighbour of A.
  ASSERT_TRUE(Border.contains(Self));

  Harness H(G);
  CliffEdgeNode Node = H.node(Self);
  Node.start();
  Node.onCrash(A);
  // onCrash(A) proposes {A}; onCrash(B) only updates the candidate since
  // the {A} instance is still active (a node runs one instance at a time).
  Node.onCrash(B);
  ASSERT_EQ(H.Outbox.size(), 1u);
  EXPECT_EQ(H.Outbox[0].M.view(), (Region{A}));
  EXPECT_TRUE(Node.hasActiveProposal());
  EXPECT_EQ(Node.lastProposedView(), (Region{A}));
}

TEST(CoreUnitTest, RejectEntriesRemoveSenderFromWaiting) {
  // Three border nodes: border({1}) on line 0-1-2 won't do; use a T shape.
  graph::Graph G(4);
  G.addEdge(0, 1);
  G.addEdge(2, 1);
  G.addEdge(3, 1);
  // border({1}) = {0,2,3}: 2 rounds.
  Harness H(G);
  CliffEdgeNode Node = H.node(0);
  Node.start();
  Node.onCrash(1);
  Region V{1};
  Region B{0, 2, 3};
  Node.onDeliver(0, H.Outbox[0].M);
  // Node 2 rejects: it disappears from waiting for round 1 and its reject
  // propagates into the vector.
  Node.onDeliver(2, H.rejectFrom(2, V, B));
  // Node 3 accepts.
  Node.onDeliver(3, H.acceptFrom(3, V, B, 9));
  // Round 1 complete (0 sent, 2 rejected, 3 sent): advance to round 2.
  EXPECT_EQ(Node.currentRound(), 2u);
  // The round-2 relay must carry the reject for node 2.
  const Message &Relay = H.Outbox.back().M;
  EXPECT_EQ(Relay.Round, 2u);
  EXPECT_EQ(Relay.Opinions[core::memberIndex(B, 2)].Kind, Opinion::Reject);
}

TEST(CoreUnitTest, CountersTrackActivity) {
  graph::Graph G = graph::makeLine(3);
  Harness H(G);
  CliffEdgeNode Node = H.node(0);
  Node.start();
  EXPECT_EQ(Node.counters().Proposals, 0u);
  Node.onCrash(1);
  EXPECT_EQ(Node.counters().CrashesObserved, 1u);
  EXPECT_EQ(Node.counters().Proposals, 1u);
  EXPECT_EQ(Node.counters().RoundsStarted, 1u);
}

TEST(CoreUnitTest, NoProposalBeforeAnyCrash) {
  graph::Graph G = graph::makeRing(5);
  Harness H(G);
  CliffEdgeNode Node = H.node(0);
  Node.start();
  EXPECT_FALSE(Node.hasActiveProposal());
  EXPECT_TRUE(H.Outbox.empty());
  EXPECT_FALSE(Node.hasDecided());
}

TEST(CoreUnitTest, TrackedViewsCountsDistinctInstances) {
  graph::Graph G = graph::makeLine(3);
  Harness H(G);
  CliffEdgeNode Node = H.node(0);
  Node.start();
  Node.onCrash(1);
  EXPECT_EQ(Node.trackedViews(), 0u); // Self message not delivered yet.
  Node.onDeliver(0, H.Outbox[0].M);
  EXPECT_EQ(Node.trackedViews(), 1u);
}
