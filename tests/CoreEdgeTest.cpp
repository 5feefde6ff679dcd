//===- tests/CoreEdgeTest.cpp - Protocol edge cases and optimisation -----------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Single-node tests of the trickier protocol paths: the footnote-6 early
/// termination (Final messages) on both sender and receiver sides, the
/// PureLex ablation's candidate stall, post-decision behaviour, and the
/// lazily materialized instance rounds (a round nobody touched yet must
/// read as bottom opinions with the whole border awaited), and round
/// messages a daemon peer could forge (a sender outside the border, a
/// round past the last).
///
//===----------------------------------------------------------------------===//

#include "core/CliffEdgeNode.h"

#include "graph/Builders.h"

#include "gtest/gtest.h"

#include <optional>

using namespace cliffedge;
using core::CliffEdgeNode;
using core::Message;
using core::Opinion;
using core::OpinionEntry;
using core::OpinionVec;
using graph::Region;

namespace {

struct Harness {
  struct Sent {
    Region To;
    Message M;
  };
  core::ViewTable Views;
  std::vector<Sent> Outbox;
  std::optional<core::Decision> Decided;

  explicit Harness(const graph::Graph &G,
                   graph::RankingKind Kind = graph::RankingKind::SizeBorderLex)
      : Views(G, Kind) {}

  core::Callbacks callbacks() {
    core::Callbacks CBs;
    CBs.Multicast = [this](const Region &To, const Message &M) {
      Outbox.push_back(Sent{To, M});
    };
    CBs.MonitorCrash = [](const Region &) {};
    CBs.Decide = [this](const Region &View, core::Value Chosen) {
      Decided = core::Decision{View, Chosen};
    };
    CBs.SelectValue = [](const Region &) { return core::Value(7); };
    return CBs;
  }
};

/// Star around node 1: crash {1} has border {0,2,3,4} => 3 rounds.
graph::Graph starGraph() {
  graph::Graph G(5);
  G.addEdge(1, 0);
  G.addEdge(1, 2);
  G.addEdge(1, 3);
  G.addEdge(1, 4);
  return G;
}

/// A round-r message from a peer carrying \p Op.
Message roundMsg(core::ViewTable &Views, uint32_t Round, const Region &V,
                 const Region &B, const OpinionVec &Op, bool Final = false) {
  Message M;
  M.Round = Round;
  M.setView(Views.intern(V, B));
  M.Opinions = Op;
  M.Final = Final;
  return M;
}

/// Fully-accepted vector for border \p B (value = member id).
OpinionVec completeAccepts(const Region &B) {
  OpinionVec Op(B.size());
  for (size_t I = 0; I < B.size(); ++I)
    Op[I] = OpinionEntry{Opinion::Accept,
                         static_cast<core::Value>(B.ids()[I])};
  return Op;
}

} // namespace

TEST(CoreEdgeTest, EarlyTerminationSendsFinalAndDecides) {
  graph::Graph G = starGraph();
  Region V{1};
  Region B{0, 2, 3, 4};
  core::Config Cfg;
  Cfg.EarlyTermination = true;
  Harness H(G);
  CliffEdgeNode Node(0, G, H.Views, Cfg, H.callbacks());
  Node.start();
  Node.onCrash(1);

  // Round 1: self echo plus accepts from 2, 3, 4 (own entries only).
  Node.onDeliver(0, H.Outbox[0].M);
  for (NodeId Peer : {2u, 3u, 4u}) {
    OpinionVec Op(B.size());
    Op[core::memberIndex(B, Peer)] = OpinionEntry{Opinion::Accept, Peer};
    Node.onDeliver(Peer, roundMsg(H.Views, 1, V, B, Op));
  }
  ASSERT_EQ(Node.currentRound(), 2u);

  // Round 2: everyone relays a COMPLETE vector -> early termination.
  OpinionVec Full = completeAccepts(B);
  Full[0] = OpinionEntry{Opinion::Accept, 7}; // Node 0's own value.
  Node.onDeliver(0, H.Outbox.back().M); // Own round-2 relay (complete).
  for (NodeId Peer : {2u, 3u, 4u})
    Node.onDeliver(Peer, roundMsg(H.Views, 2, V, B, Full));

  EXPECT_TRUE(Node.hasDecided());
  EXPECT_EQ(Node.counters().EarlyTerminations, 1u);
  // The last multicast is a Final message for round 3.
  const Message &Last = H.Outbox.back().M;
  EXPECT_TRUE(Last.Final);
  EXPECT_EQ(Last.Round, 3u);
  EXPECT_TRUE(Last.Opinions.isComplete());
}

TEST(CoreEdgeTest, NoEarlyTerminationWhenRelaysIncomplete) {
  graph::Graph G = starGraph();
  Region V{1};
  Region B{0, 2, 3, 4};
  core::Config Cfg;
  Cfg.EarlyTermination = true;
  Harness H(G);
  CliffEdgeNode Node(0, G, H.Views, Cfg, H.callbacks());
  Node.start();
  Node.onCrash(1);
  Node.onDeliver(0, H.Outbox[0].M);
  for (NodeId Peer : {2u, 3u, 4u}) {
    OpinionVec Op(B.size());
    Op[core::memberIndex(B, Peer)] = OpinionEntry{Opinion::Accept, Peer};
    Node.onDeliver(Peer, roundMsg(H.Views, 1, V, B, Op));
  }
  // Round 2 arrives, but node 4's relay has a hole (it missed node 3).
  OpinionVec Full = completeAccepts(B);
  OpinionVec Holey = Full;
  Holey[core::memberIndex(B, 3)] = OpinionEntry{Opinion::None, 0};
  Node.onDeliver(0, H.Outbox.back().M);
  Node.onDeliver(2, roundMsg(H.Views, 2, V, B, Full));
  Node.onDeliver(3, roundMsg(H.Views, 2, V, B, Full));
  Node.onDeliver(4, roundMsg(H.Views, 2, V, B, Holey));
  // Full information is present (first-write-wins merged Full), but not
  // every member is known complete: no early exit, round 3 proceeds.
  EXPECT_FALSE(Node.hasDecided());
  EXPECT_EQ(Node.counters().EarlyTerminations, 0u);
  EXPECT_EQ(Node.currentRound(), 3u);
}

TEST(CoreEdgeTest, FinalMessagesCoverAllRemainingRounds) {
  // Early termination OFF locally; peers early-terminate and send Final.
  graph::Graph G = starGraph();
  Region V{1};
  Region B{0, 2, 3, 4};
  Harness H(G);
  CliffEdgeNode Node(0, G, H.Views, core::Config(), H.callbacks());
  Node.start();
  Node.onCrash(1);
  Node.onDeliver(0, H.Outbox[0].M);
  for (NodeId Peer : {2u, 3u, 4u}) {
    OpinionVec Op(B.size());
    Op[core::memberIndex(B, Peer)] = OpinionEntry{Opinion::Accept, Peer};
    Node.onDeliver(Peer, roundMsg(H.Views, 1, V, B, Op));
  }
  ASSERT_EQ(Node.currentRound(), 2u);

  // Peers finish early: their Final(round 2) stands in for rounds 2 & 3.
  OpinionVec Full = completeAccepts(B);
  Full[0] = OpinionEntry{Opinion::Accept, 7};
  for (NodeId Peer : {2u, 3u, 4u})
    Node.onDeliver(Peer, roundMsg(H.Views, 2, V, B, Full, /*Final=*/true));
  // Own round-2 relay still needed.
  Node.onDeliver(0, H.Outbox.back().M);
  ASSERT_EQ(Node.currentRound(), 3u);
  // Own round-3 relay completes the final round; peers are covered.
  Node.onDeliver(0, H.Outbox.back().M);
  EXPECT_TRUE(Node.hasDecided());
  EXPECT_EQ(H.Decided->View, V);
}

TEST(CoreEdgeTest, FinalFromAheadPeerCoversRoundsNeverTouched) {
  // A peer early-terminates while this node is still in round 1: its
  // Final(round 2) lands in rounds 2 and 3 before either exists here.
  graph::Graph G = starGraph();
  Region V{1};
  Region B{0, 2, 3, 4};
  Harness H(G);
  CliffEdgeNode Node(0, G, H.Views, core::Config(), H.callbacks());
  Node.start();
  Node.onCrash(1);
  Node.onDeliver(0, H.Outbox[0].M);
  OpinionVec Own2(B.size());
  Own2[core::memberIndex(B, 2)] = OpinionEntry{Opinion::Accept, 2};
  Node.onDeliver(2, roundMsg(H.Views, 1, V, B, Own2));
  OpinionVec Full = completeAccepts(B);
  Full[0] = OpinionEntry{Opinion::Accept, 7};
  Node.onDeliver(2, roundMsg(H.Views, 2, V, B, Full, /*Final=*/true));
  ASSERT_EQ(Node.currentRound(), 1u); // Still awaiting 3 and 4.

  for (NodeId Peer : {3u, 4u}) {
    OpinionVec Op(B.size());
    Op[core::memberIndex(B, Peer)] = OpinionEntry{Opinion::Accept, Peer};
    Node.onDeliver(Peer, roundMsg(H.Views, 1, V, B, Op));
  }
  ASSERT_EQ(Node.currentRound(), 2u);
  // Rounds 2 and 3 already count node 2 as heard: own relay plus 3 and 4
  // finish each round, and node 2 never sends again.
  for (uint32_t Round : {2u, 3u}) {
    Node.onDeliver(0, H.Outbox.back().M);
    for (NodeId Peer : {3u, 4u})
      Node.onDeliver(Peer, roundMsg(H.Views, Round, V, B, Full));
  }
  EXPECT_TRUE(Node.hasDecided());
  EXPECT_EQ(H.Decided->View, V);
  EXPECT_EQ(H.Decided->Chosen, 7u);
}

TEST(CoreEdgeTest, EarlyTerminationOnRelaysMergedBeforeTheRoundStarted) {
  // Every peer's complete round-2 relay arrives while this node still
  // waits for its own round-1 echo: round 2 materializes on the merge,
  // and the complete-relay mask it recorded then still triggers the
  // footnote-6 exit once the node gets there.
  graph::Graph G = starGraph();
  Region V{1};
  Region B{0, 2, 3, 4};
  core::Config Cfg;
  Cfg.EarlyTermination = true;
  Harness H(G);
  CliffEdgeNode Node(0, G, H.Views, Cfg, H.callbacks());
  Node.start();
  Node.onCrash(1);
  OpinionVec Full = completeAccepts(B);
  Full[0] = OpinionEntry{Opinion::Accept, 7};
  for (NodeId Peer : {2u, 3u, 4u}) {
    OpinionVec Op(B.size());
    Op[core::memberIndex(B, Peer)] = OpinionEntry{Opinion::Accept, Peer};
    Node.onDeliver(Peer, roundMsg(H.Views, 1, V, B, Op));
    Node.onDeliver(Peer, roundMsg(H.Views, 2, V, B, Full));
  }
  ASSERT_EQ(Node.currentRound(), 1u);
  Node.onDeliver(0, H.Outbox[0].M); // Own echo: round 1 completes.
  ASSERT_EQ(Node.currentRound(), 2u);
  EXPECT_FALSE(Node.hasDecided()); // Own round-2 relay still awaited.
  Node.onDeliver(0, H.Outbox.back().M);
  EXPECT_TRUE(Node.hasDecided());
  EXPECT_EQ(Node.counters().EarlyTerminations, 1u);
  EXPECT_TRUE(H.Outbox.back().M.Final);
  EXPECT_EQ(H.Outbox.back().M.Round, 3u);
}

TEST(CoreEdgeTest, CompletionCheckOnUntouchedRoundAwaitsWholeBorder) {
  // Round 2 has received nothing when the node enters it: the completion
  // check must see the whole border awaited — crashed peers are waived,
  // but the node's own relay still has to arrive.
  graph::Graph G = starGraph();
  Region V{1};
  Region B{0, 2, 3, 4};
  Harness H(G);
  CliffEdgeNode Node(0, G, H.Views, core::Config(), H.callbacks());
  Node.start();
  Node.onCrash(1);
  Node.onDeliver(0, H.Outbox[0].M);
  for (NodeId Peer : {2u, 3u, 4u}) {
    OpinionVec Op(B.size());
    Op[core::memberIndex(B, Peer)] = OpinionEntry{Opinion::Accept, Peer};
    Node.onDeliver(Peer, roundMsg(H.Views, 1, V, B, Op));
  }
  ASSERT_EQ(Node.currentRound(), 2u);
  const Message Relay2 = H.Outbox.back().M;
  for (NodeId Peer : {2u, 3u, 4u})
    Node.onCrash(Peer);
  EXPECT_EQ(Node.currentRound(), 2u); // Self is still awaited.
  Node.onDeliver(0, Relay2);
  EXPECT_EQ(Node.currentRound(), 3u);
  // Round 3 is untouched too: again only the own relay completes it, and
  // the complete round-3 vector decides.
  EXPECT_FALSE(Node.hasDecided());
  Node.onDeliver(0, H.Outbox.back().M);
  EXPECT_TRUE(Node.hasDecided());
  EXPECT_EQ(H.Decided->View, V);
}

/// starGraph plus node 5, which touches nothing: outside every border.
graph::Graph starGraphWithStranger() {
  graph::Graph G(6);
  for (NodeId Peer : {0u, 2u, 3u, 4u})
    G.addEdge(1, Peer);
  return G;
}

TEST(CoreEdgeTest, RoundMessageFromOutsideTheBorderIsIgnored) {
  // Node 1 (the crashed view itself) and node 5 (a stranger) are not in
  // border {0,2,3,4}. Their round messages must neither stand in for a
  // member (node 1 sorts where node 2 does) nor mark anyone as heard.
  graph::Graph G = starGraphWithStranger();
  Region V{1};
  Region B{0, 2, 3, 4};
  Harness H(G);
  CliffEdgeNode Node(0, G, H.Views, core::Config(), H.callbacks());
  Node.start();
  Node.onCrash(1);
  Node.onDeliver(0, H.Outbox[0].M);
  OpinionVec Full = completeAccepts(B);
  Node.onDeliver(1, roundMsg(H.Views, 1, V, B, Full));
  Node.onDeliver(5, roundMsg(H.Views, 1, V, B, Full));
  Node.onDeliver(5, roundMsg(H.Views, 2, V, B, Full, /*Final=*/true));
  EXPECT_EQ(Node.counters().MessagesIgnored, 3u);
  for (NodeId Peer : {3u, 4u}) {
    OpinionVec Op(B.size());
    Op[core::memberIndex(B, Peer)] = OpinionEntry{Opinion::Accept, Peer};
    Node.onDeliver(Peer, roundMsg(H.Views, 1, V, B, Op));
  }
  EXPECT_EQ(Node.currentRound(), 1u); // Node 2 is still awaited.
  OpinionVec Own2(B.size());
  Own2[core::memberIndex(B, 2)] = OpinionEntry{Opinion::Accept, 2};
  Node.onDeliver(2, roundMsg(H.Views, 1, V, B, Own2));
  EXPECT_EQ(Node.currentRound(), 2u);
}

TEST(CoreEdgeTest, CompleteRelayFromOutsideTheBorderDoesNotTerminateEarly) {
  // With early termination on, a stranger's complete relay must not
  // count toward "every member relayed a complete vector".
  graph::Graph G = starGraphWithStranger();
  Region V{1};
  Region B{0, 2, 3, 4};
  core::Config Cfg;
  Cfg.EarlyTermination = true;
  Harness H(G);
  CliffEdgeNode Node(0, G, H.Views, Cfg, H.callbacks());
  Node.start();
  Node.onCrash(1);
  Node.onDeliver(0, H.Outbox[0].M);
  for (NodeId Peer : {2u, 3u, 4u}) {
    OpinionVec Op(B.size());
    Op[core::memberIndex(B, Peer)] = OpinionEntry{Opinion::Accept, Peer};
    Node.onDeliver(Peer, roundMsg(H.Views, 1, V, B, Op));
  }
  ASSERT_EQ(Node.currentRound(), 2u);
  OpinionVec Full = completeAccepts(B);
  Full[0] = OpinionEntry{Opinion::Accept, 7};
  Node.onDeliver(0, H.Outbox.back().M);
  Node.onDeliver(5, roundMsg(H.Views, 2, V, B, Full));
  Node.onDeliver(5, roundMsg(H.Views, 3, V, B, Full, /*Final=*/true));
  Node.onDeliver(1, roundMsg(H.Views, 2, V, B, Full));
  for (NodeId Peer : {2u, 3u})
    Node.onDeliver(Peer, roundMsg(H.Views, 2, V, B, Full));
  // Node 4's relay is missing: no early exit, round 2 still open.
  EXPECT_FALSE(Node.hasDecided());
  EXPECT_EQ(Node.counters().EarlyTerminations, 0u);
  EXPECT_EQ(Node.currentRound(), 2u);
  EXPECT_EQ(Node.counters().MessagesIgnored, 3u);
  Node.onDeliver(4, roundMsg(H.Views, 2, V, B, Full));
  EXPECT_TRUE(Node.hasDecided());
  EXPECT_EQ(Node.counters().EarlyTerminations, 1u);
}

TEST(CoreEdgeTest, RoundPastTheLastIsIgnored) {
  // Border {0,2,3,4} has 3 rounds; a non-Final round-4 message is
  // malformed and must not reach the instance.
  graph::Graph G = starGraph();
  Region V{1};
  Region B{0, 2, 3, 4};
  Harness H(G);
  CliffEdgeNode Node(0, G, H.Views, core::Config(), H.callbacks());
  Node.start();
  Node.onCrash(1);
  Node.onDeliver(2, roundMsg(H.Views, 4, V, B, completeAccepts(B)));
  EXPECT_EQ(Node.counters().MessagesIgnored, 1u);
  EXPECT_EQ(Node.currentRound(), 1u);
}

TEST(CoreEdgeTest, PureLexStallsWhenGrownRegionRanksLower) {
  // Line 0-1-2-3; node 3 sees {2} first. The grown component {1,2} is
  // lexicographically below {2}, so under PureLex the candidate never
  // updates: the node is stuck with its stale (failed) proposal.
  graph::Graph G = graph::makeLine(4);
  core::Config Cfg;
  Cfg.Ranking = graph::RankingKind::PureLex;
  Harness H(G, graph::RankingKind::PureLex);
  CliffEdgeNode Node(3, G, H.Views, Cfg, H.callbacks());
  Node.start();
  Node.onCrash(2);
  EXPECT_EQ(Node.lastProposedView(), (Region{2}));
  Node.onCrash(1);
  EXPECT_EQ(Node.counters().Proposals, 1u); // No re-proposal.
  // The paper's ranking tracks the growth instead.
  Harness H2(G);
  CliffEdgeNode Sane(3, G, H2.Views, core::Config(), H2.callbacks());
  Sane.start();
  Sane.onCrash(2);
  Sane.onDeliver(3, H2.Outbox[0].M); // Self echo so failure can occur.
  Sane.onCrash(1);                   // Instance fails (crash hole)...
  // ...border({2}) = {1,3} and 1 crashed -> waived -> incomplete -> fail,
  // then the node re-proposes the grown {1,2}.
  EXPECT_EQ(Sane.counters().Proposals, 2u);
  EXPECT_EQ(Sane.lastProposedView(), (Region{1, 2}));
}

TEST(CoreEdgeTest, DecidedNodeIgnoresNewCandidates) {
  graph::Graph G = graph::makeLine(4); // 0-1-2-3
  Harness H(G);
  CliffEdgeNode Node(0, G, H.Views, core::Config(), H.callbacks());
  Node.start();
  Node.onCrash(1);
  Node.onDeliver(0, H.Outbox[0].M);
  Region B{0, 2};
  OpinionVec Op(2);
  Op[1] = OpinionEntry{Opinion::Accept, 5};
  Node.onDeliver(2, roundMsg(H.Views, 1, Region{1}, B, Op));
  ASSERT_TRUE(Node.hasDecided());
  size_t SentBefore = H.Outbox.size();
  // Node 2 crashes later: view construction continues, but no proposal.
  Node.onCrash(2);
  EXPECT_EQ(Node.counters().Proposals, 1u);
  EXPECT_EQ(H.Outbox.size(), SentBefore);
  EXPECT_EQ(Node.locallyCrashed(), (Region{1, 2}));
}

TEST(CoreEdgeTest, LateMessagesAfterDecisionAreHarmless) {
  graph::Graph G = graph::makeLine(4);
  Harness H(G);
  CliffEdgeNode Node(0, G, H.Views, core::Config(), H.callbacks());
  Node.start();
  Node.onCrash(1);
  Node.onDeliver(0, H.Outbox[0].M);
  Region B{0, 2};
  OpinionVec Op(2);
  Op[1] = OpinionEntry{Opinion::Accept, 5};
  Node.onDeliver(2, roundMsg(H.Views, 1, Region{1}, B, Op));
  ASSERT_TRUE(Node.hasDecided());
  core::Value Val = Node.decidedValue();
  // A duplicate-ish late message must not re-decide or change the value.
  Node.onDeliver(2, roundMsg(H.Views, 1, Region{1}, B, Op));
  EXPECT_TRUE(Node.hasDecided());
  EXPECT_EQ(Node.decidedValue(), Val);
  EXPECT_FALSE(H.Decided->View.empty());
}
