//===- tests/IncrementalComponentsTest.cpp - union-find equivalence ----------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests pinning graph::IncrementalComponents to the batch
/// Graph::connectedComponents it replaces on the onCrash hot path: over
/// randomized topologies and crash orders, after every single crash the
/// incremental decomposition, the cached rank keys, and the outranks()
/// shortcut must agree exactly with the batch computation.
///
//===----------------------------------------------------------------------===//

#include "graph/IncrementalComponents.h"

#include "core/CliffEdgeNode.h"
#include "graph/Builders.h"
#include "graph/Ranking.h"
#include "support/Random.h"

#include "gtest/gtest.h"

using namespace cliffedge;
using graph::Graph;
using graph::IncrementalComponents;
using graph::RankingKind;
using graph::Region;

namespace {

Graph buildTopology(uint32_t Pick, Rng &Rand) {
  switch (Pick % 4) {
  case 0:
    return graph::makeGrid(8, 8);
  case 1:
    return graph::makeErdosRenyi(48, 0.08, Rand);
  case 2:
    return graph::makeRing(40);
  default:
    return graph::makeTree(45, 3);
  }
}

std::vector<NodeId> randomCrashOrder(const Graph &G, Rng &Rand) {
  std::vector<NodeId> Order;
  for (NodeId N = 0; N < G.numNodes(); ++N)
    Order.push_back(N);
  Rand.shuffle(Order);
  // Crash between a handful of nodes and most of the graph.
  Order.resize(1 + Rand.nextBelow(G.numNodes() - 1));
  return Order;
}

} // namespace

TEST(IncrementalComponentsTest, SingleCrashIsItsOwnComponent) {
  Graph G = graph::makeGrid(4, 4);
  IncrementalComponents Tracker(G);
  EXPECT_EQ(Tracker.numCrashed(), 0u);
  EXPECT_TRUE(Tracker.addCrashed(5));
  EXPECT_FALSE(Tracker.addCrashed(5)) << "second crash of a node is a no-op";
  EXPECT_EQ(Tracker.numCrashed(), 1u);
  EXPECT_EQ(Tracker.numComponents(), 1u);
  EXPECT_EQ(Tracker.componentOf(5), Region{5});
  EXPECT_EQ(Tracker.componentSize(5), 1u);
  EXPECT_EQ(Tracker.componentBorderSize(5), G.border(NodeId(5)).size());
}

TEST(IncrementalComponentsTest, AdjacentCrashesMerge) {
  Graph G = graph::makeLine(5); // 0-1-2-3-4
  IncrementalComponents Tracker(G);
  Tracker.addCrashed(0);
  Tracker.addCrashed(2);
  EXPECT_EQ(Tracker.numComponents(), 2u);
  Tracker.addCrashed(1); // Bridges {0} and {2}.
  EXPECT_EQ(Tracker.numComponents(), 1u);
  Region Expected{0, 1, 2};
  EXPECT_EQ(Tracker.componentOf(0), Expected);
  EXPECT_EQ(Tracker.componentOf(2), Expected);
  EXPECT_EQ(Tracker.findRoot(0), Tracker.findRoot(2));
  // border({0,1,2}) in the line is {3}.
  EXPECT_EQ(Tracker.componentBorderSize(1), 1u);
}

// The headline property: ≥1000 randomized sequences across mixed
// topologies, each interleaving crashes with epoch repairs — reset(), the
// transition workload::EpochRunner's rejoins perform between epochs —
// checked for exact equivalence against the batch API *after every
// individual crash* of every epoch: components, sizes, border sizes, and
// ordering. A repaired tracker must behave indistinguishably from a fresh
// one (no cache, mark-epoch, or union-find state may leak across rejoins).
TEST(IncrementalComponentsTest, MatchesBatchOnCrashAndRepairSequences) {
  int Sequences = 0;
  for (uint64_t Seed = 0; Sequences < 1000; ++Seed) {
    Rng Rand(Seed * 7919 + 1);
    Graph G = buildTopology(static_cast<uint32_t>(Seed), Rand);
    ++Sequences;

    IncrementalComponents Tracker(G);
    size_t Epochs = 1 + Rand.nextBelow(3);
    for (size_t E = 0; E < Epochs; ++E) {
      if (E > 0) {
        // The epoch boundary: every crashed node is repaired and rejoins.
        Tracker.reset();
        ASSERT_EQ(Tracker.numCrashed(), 0u) << "seed " << Seed;
        ASSERT_EQ(Tracker.numComponents(), 0u) << "seed " << Seed;
        ASSERT_TRUE(Tracker.components().empty()) << "seed " << Seed;
      }
      std::vector<NodeId> Order = randomCrashOrder(G, Rand);
      Region Crashed;
      for (NodeId Q : Order) {
        Crashed.insert(Q);
        ASSERT_TRUE(Tracker.addCrashed(Q));
        ASSERT_TRUE(Tracker.isCrashed(Q));

        std::vector<Region> Batch = G.connectedComponents(Crashed);
        std::vector<Region> Incremental = Tracker.components();
        ASSERT_EQ(Incremental.size(), Batch.size())
            << "seed " << Seed << " epoch " << E << " after crashing "
            << Crashed.str();
        for (size_t I = 0; I < Batch.size(); ++I) {
          ASSERT_EQ(Incremental[I], Batch[I])
              << "seed " << Seed << " epoch " << E << " component " << I;
          NodeId Member = *Batch[I].begin();
          ASSERT_EQ(Tracker.componentSize(Member), Batch[I].size());
          ASSERT_EQ(Tracker.componentBorderSize(Member),
                    G.border(Batch[I]).size());
        }
        ASSERT_EQ(Tracker.numCrashed(), Crashed.size());
        ASSERT_EQ(Tracker.numComponents(), Batch.size());
      }
    }
  }
}

// reset() must be observationally identical to constructing a fresh
// tracker: the same post-repair crash order yields the same decomposition,
// rank keys, and MaxView trajectory either way.
TEST(IncrementalComponentsTest, RepairedTrackerMatchesFreshTracker) {
  for (uint64_t Seed = 0; Seed < 120; ++Seed) {
    Rng Rand(Seed * 48611 + 7);
    Graph G = buildTopology(static_cast<uint32_t>(Seed), Rand);

    IncrementalComponents Reused(G);
    for (NodeId Q : randomCrashOrder(G, Rand))
      Reused.addCrashed(Q); // Epoch 1, then repair:
    Reused.reset();

    IncrementalComponents Fresh(G);
    std::vector<NodeId> Order = randomCrashOrder(G, Rand);
    Region ReusedMax, FreshMax;
    for (NodeId Q : Order) {
      Reused.addCrashed(Q);
      Fresh.addCrashed(Q);
      ASSERT_EQ(Reused.components(), Fresh.components()) << "seed " << Seed;
      ASSERT_EQ(Reused.componentBorderSize(Q), Fresh.componentBorderSize(Q));
      if (Reused.outranks(Q, ReusedMax, RankingKind::SizeBorderLex))
        ReusedMax = Reused.componentOf(Q);
      if (Fresh.outranks(Q, FreshMax, RankingKind::SizeBorderLex))
        FreshMax = Fresh.componentOf(Q);
      ASSERT_EQ(ReusedMax, FreshMax) << "seed " << Seed;
    }
  }
}

// outranks() must agree with rankedLess(G, R, component, Kind) — including
// the shortcut paths through the cached size and border keys — for every
// ranking kind, against both empty and previously-seen views.
TEST(IncrementalComponentsTest, OutranksMatchesRankedLess) {
  const RankingKind Kinds[] = {RankingKind::SizeBorderLex,
                               RankingKind::SizeLex, RankingKind::PureLex};
  for (uint64_t Seed = 0; Seed < 60; ++Seed) {
    Rng Rand(Seed * 104729 + 3);
    Graph G = buildTopology(static_cast<uint32_t>(Seed), Rand);
    std::vector<NodeId> Order = randomCrashOrder(G, Rand);

    for (RankingKind Kind : Kinds) {
      IncrementalComponents Tracker(G);
      Region Crashed;
      std::vector<Region> SeenViews = {Region()};
      for (NodeId Q : Order) {
        Crashed.insert(Q);
        Tracker.addCrashed(Q);
        const Region &Component = Tracker.componentOf(Q);
        for (const Region &R : SeenViews)
          ASSERT_EQ(Tracker.outranks(Q, R, Kind),
                    graph::rankedLess(G, R, Component, Kind))
              << "seed " << Seed << " kind " << static_cast<int>(Kind)
              << " R=" << R.str() << " C=" << Component.str();
        SeenViews.push_back(Component);
        if (SeenViews.size() > 6)
          SeenViews.erase(SeenViews.begin() + 1);
      }
    }
  }
}

// The MaxView trajectory of CliffEdgeNode::onCrash: the incremental
// "compare only the changed component" update must produce the exact
// MaxView sequence of the seed's full maxRankedRegion rescan.
TEST(IncrementalComponentsTest, MaxViewTrajectoryMatchesBatch) {
  const RankingKind Kinds[] = {RankingKind::SizeBorderLex,
                               RankingKind::SizeLex, RankingKind::PureLex};
  for (uint64_t Seed = 0; Seed < 80; ++Seed) {
    Rng Rand(Seed * 31337 + 11);
    Graph G = buildTopology(static_cast<uint32_t>(Seed), Rand);
    std::vector<NodeId> Order = randomCrashOrder(G, Rand);

    for (RankingKind Kind : Kinds) {
      IncrementalComponents Tracker(G);
      Region Crashed, BatchMax, IncrementalMax;
      size_t IncrementalMaxBorder = IncrementalComponents::UnknownBorder;
      for (NodeId Q : Order) {
        Crashed.insert(Q);
        Tracker.addCrashed(Q);

        std::vector<Region> Components = G.connectedComponents(Crashed);
        const Region &Best = graph::maxRankedRegion(G, Components, Kind);
        if (graph::rankedLess(G, BatchMax, Best, Kind))
          BatchMax = Best;

        if (Tracker.outranks(Q, IncrementalMax, Kind,
                             IncrementalMaxBorder)) {
          IncrementalMax = Tracker.componentOf(Q);
          IncrementalMaxBorder =
              Kind == RankingKind::SizeBorderLex
                  ? Tracker.componentBorderSize(Q)
                  : IncrementalComponents::UnknownBorder;
        }

        ASSERT_EQ(IncrementalMax, BatchMax)
            << "seed " << Seed << " kind " << static_cast<int>(Kind)
            << " after crashing " << Crashed.str();
      }
    }
  }
}

// The node's own view construction, driven through CliffEdgeNode::onCrash:
// max_view is held as a handle to a component of LocallyCrashed and its
// border size is only computed on a size tie. The node observes a random
// crash order the way the perfect detector reports it — a crash once it
// monitors the node (its neighbours first, then the neighbours of every
// crash it observed), late subscriptions included. After every observed
// crash, on randomized topologies:
//  * max_view equals the batch maxRankedRegion trajectory (every kind —
//    PureLex exercises the detached copy);
//  * under the size-first rankings it is exactly one current component
//    of LocallyCrashed;
//  * the lazily computed |border(max_view)| equals an eager recount.
TEST(IncrementalComponentsTest, NodeMaxViewIsACurrentComponentWithLazyBorder) {
  const RankingKind Kinds[] = {RankingKind::SizeBorderLex,
                               RankingKind::SizeLex, RankingKind::PureLex};
  size_t Observations = 0;
  for (uint64_t Seed = 0; Seed < 300; ++Seed) {
    Rng Rand(Seed * 7919 + 3);
    Graph G = buildTopology(static_cast<uint32_t>(Seed), Rand);
    std::vector<NodeId> Order = randomCrashOrder(G, Rand);
    // The observer is a node that stays correct.
    NodeId Self = Order.back();
    Order.pop_back();

    for (RankingKind Kind : Kinds) {
      core::ViewTable Views(G, Kind);
      core::Config Cfg;
      Cfg.Ranking = Kind;
      core::Callbacks CBs;
      CBs.Multicast = [](const Region &, const core::Message &) {};
      CBs.MonitorCrash = [](const Region &) {};
      CBs.Decide = [](const Region &, core::Value) {};
      CBs.SelectValue = [](const Region &) { return core::Value(0); };
      core::CliffEdgeNode Node(Self, G, Views, Cfg, std::move(CBs));
      Node.start();

      Region Crashed, Monitored = G.border(Region{Self}), BatchMax;
      auto Observe = [&](NodeId Q) {
        Node.onCrash(Q);
        ++Observations;
        for (NodeId N : G.adj(Q))
          if (N != Self)
            Monitored.insert(N);
        std::string Where = "seed " + std::to_string(Seed) + " kind " +
                            std::to_string(static_cast<int>(Kind)) +
                            " after observing " +
                            Node.locallyCrashed().str();
        std::vector<Region> Components =
            G.connectedComponents(Node.locallyCrashed());
        const Region &Best = graph::maxRankedRegion(G, Components, Kind);
        if (graph::rankedLess(G, BatchMax, Best, Kind))
          BatchMax = Best;
        const Region &MaxView = Node.maxView();
        ASSERT_EQ(MaxView, BatchMax) << Where;
        ASSERT_EQ(Node.maxViewBorderSize(), G.border(MaxView).size())
            << Where;
        if (Kind != RankingKind::PureLex) {
          ASSERT_NE(std::find(Components.begin(), Components.end(), MaxView),
                    Components.end())
              << Where << ": max_view " << MaxView.str()
              << " is not a current component";
        }
      };
      for (NodeId Q : Order) {
        Crashed.insert(Q);
        // Notify every crashed, monitored, not-yet-observed node; each
        // observation extends monitoring, which may reveal older crashes.
        for (bool More = true; More;) {
          More = false;
          for (NodeId N : Crashed)
            if (Monitored.contains(N) && !Node.locallyCrashed().contains(N)) {
              Observe(N);
              if (HasFatalFailure())
                return;
              More = true;
              break;
            }
        }
      }
    }
  }
  // Guard against a vacuous pass: the observers must see real waves.
  EXPECT_GT(Observations, 10000u);
}

// outranksComponent() (the NaiveLocal max-tracking primitive) must agree
// with rankedLess between materialized components.
TEST(IncrementalComponentsTest, OutranksComponentMatchesRankedLess) {
  for (uint64_t Seed = 0; Seed < 40; ++Seed) {
    Rng Rand(Seed * 271 + 5);
    Graph G = buildTopology(static_cast<uint32_t>(Seed), Rand);
    std::vector<NodeId> Order = randomCrashOrder(G, Rand);

    IncrementalComponents Tracker(G);
    for (NodeId Q : Order)
      Tracker.addCrashed(Q);
    std::vector<Region> Components = Tracker.components();
    for (const Region &A : Components)
      for (const Region &B : Components) {
        NodeId MemberA = *A.begin(), MemberB = *B.begin();
        EXPECT_EQ(
            Tracker.outranksComponent(MemberA, MemberB,
                                      RankingKind::SizeBorderLex),
            graph::rankedLess(G, B, A, RankingKind::SizeBorderLex) && A != B)
            << "seed " << Seed << " A=" << A.str() << " B=" << B.str();
      }
  }
}
