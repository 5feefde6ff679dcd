//===- tests/ViewTableTest.cpp - View intern table property tests -------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests of core::ViewTable, the run-wide intern table under the
/// data plane: interning is idempotent and id-dense, entries round-trip
/// the regions they were built from, and — the load-bearing property —
/// the precomputed-rank-key comparison agrees with the uninterned
/// graph::rankedLess relation on every pair, for every RankingKind,
/// across 1000 random regions. A threaded section hammers concurrent
/// intern + lock-free get, the table's thread-safety contract.
///
//===----------------------------------------------------------------------===//

#include "core/ViewTable.h"

#include "graph/Builders.h"
#include "support/Random.h"

#include "gtest/gtest.h"

#include <thread>

using namespace cliffedge;
using core::ViewEntry;
using core::ViewId;
using core::ViewTable;
using graph::Region;

namespace {

/// A random connected-ish region: a seed node plus a BFS-ish expansion,
/// so borders are realistic. Connectivity is not required by the table;
/// random blobs just make the rank ties (equal size, equal border)
/// reachable.
Region randomRegion(Rng &Rand, const graph::Graph &G) {
  size_t Size = 1 + Rand.nextBelow(9);
  Region R;
  NodeId Cur = static_cast<NodeId>(Rand.nextBelow(G.numNodes()));
  R.insert(Cur);
  while (R.size() < Size) {
    Region B = G.border(R);
    if (B.empty())
      break;
    NodeId Next = B.ids()[Rand.nextBelow(B.size())];
    R.insert(Next);
  }
  return R;
}

} // namespace

TEST(ViewTableTest, InternIsIdempotentAndDense) {
  graph::Graph G = graph::makeGrid(16, 16);
  ViewTable Views(G);
  Rng Rand(7);
  std::vector<Region> Regions;
  std::vector<ViewId> Ids;
  for (int I = 0; I < 300; ++I) {
    Region R = randomRegion(Rand, G);
    const ViewEntry &E = Views.intern(R);
    EXPECT_EQ(E.View, R);
    EXPECT_EQ(E.Border, G.border(R));
    EXPECT_LT(E.Id, Views.size());
    Regions.push_back(std::move(R));
    Ids.push_back(E.Id);
  }
  // Ids are dense: size() == number of distinct regions.
  size_t Distinct = 0;
  {
    std::vector<Region> Sorted = Regions;
    std::sort(Sorted.begin(), Sorted.end(),
              [](const Region &A, const Region &B) { return A.lexLess(B); });
    Distinct = std::unique(Sorted.begin(), Sorted.end()) - Sorted.begin();
  }
  EXPECT_EQ(Views.size(), Distinct);
  // Re-interning returns the identical entry (same address, same id).
  for (size_t I = 0; I < Regions.size(); ++I) {
    const ViewEntry &E = Views.intern(Regions[I]);
    EXPECT_EQ(E.Id, Ids[I]);
    EXPECT_EQ(&Views.get(Ids[I]), &E);
  }
}

TEST(ViewTableTest, RankKeyCompareMatchesUninternedRankingAcrossKinds) {
  graph::Graph G = graph::makeGrid(24, 24);
  for (graph::RankingKind Kind :
       {graph::RankingKind::SizeBorderLex, graph::RankingKind::SizeLex,
        graph::RankingKind::PureLex}) {
    ViewTable Views(G, Kind);
    Rng Rand(2024);
    std::vector<const ViewEntry *> Entries;
    Entries.reserve(1000);
    for (int I = 0; I < 1000; ++I)
      Entries.push_back(&Views.intern(randomRegion(Rand, G)));

    // Every adjacent-ish pair plus a random sample: interned compare must
    // equal the uninterned region walk, both directions (this exercises
    // the integer fast path and the lexicographic tie-break).
    Rng PairRand(99);
    auto CheckPair = [&](const ViewEntry &A, const ViewEntry &B) {
      EXPECT_EQ(Views.rankedLess(A, B),
                graph::rankedLess(G, A.View, B.View, Kind))
          << A.View.str() << " vs " << B.View.str();
      EXPECT_EQ(Views.rankedLess(B, A),
                graph::rankedLess(G, B.View, A.View, Kind))
          << B.View.str() << " vs " << A.View.str();
      // Irreflexivity on identical entries.
      EXPECT_FALSE(Views.rankedLess(A, A));
    };
    for (size_t I = 1; I < Entries.size(); ++I)
      CheckPair(*Entries[I - 1], *Entries[I]);
    for (int I = 0; I < 3000; ++I)
      CheckPair(*Entries[PairRand.nextBelow(Entries.size())],
                *Entries[PairRand.nextBelow(Entries.size())]);
  }
}

TEST(ViewTableTest, ExplicitBorderInternRoundTrips) {
  // The wire decoders intern (view, border) pairs as transmitted, without
  // consulting the topology — the table must hand them back verbatim.
  graph::Graph G(1);
  ViewTable Views(G);
  Region V{10, 20, 30};
  Region B{9, 11, 31};
  const ViewEntry &E = Views.intern(V, B);
  EXPECT_EQ(E.View, V);
  EXPECT_EQ(E.Border, B);
  EXPECT_EQ(&Views.intern(V, B), &E);
}

TEST(ViewTableTest, AnnouncedInternReplaysAndRejectsConflicts) {
  graph::Graph G(1);
  ViewTable Views(G);
  Region V0{1, 2};
  Region B0{0, 3};
  Region V1{5};
  Region B1{4, 6};
  // A fresh decoder table replays announces densely, in order.
  const ViewEntry *E0 = Views.internAnnounced(0, V0, B0);
  ASSERT_NE(E0, nullptr);
  EXPECT_EQ(E0->Id, 0u);
  // Re-announce of the same id with the same contents: fine (idempotent).
  EXPECT_EQ(Views.internAnnounced(0, V0, B0), E0);
  // Same id, different contents: corrupt stream.
  EXPECT_EQ(Views.internAnnounced(0, V1, B1), nullptr);
  // Id gap: unreachable under FIFO announce-first, refused.
  EXPECT_EQ(Views.internAnnounced(5, V1, B1), nullptr);
  // Next dense id works.
  const ViewEntry *E1 = Views.internAnnounced(1, V1, B1);
  ASSERT_NE(E1, nullptr);
  EXPECT_EQ(E1->Id, 1u);
  // Same view under a second id: refused.
  EXPECT_EQ(Views.internAnnounced(2, V0, B0), nullptr);
}

TEST(ViewTableTest, ConcurrentInternAndLookupStaysConsistent) {
  // The sharded engine interns from worker threads while the merge (and
  // other workers) resolve ids lock-free. Four threads intern overlapping
  // region sets and immediately read back every id they have seen; the
  // table must never hand out two ids for one region or a torn entry.
  graph::Graph G = graph::makeGrid(12, 12);
  ViewTable Views(G);
  constexpr int ThreadCount = 4, PerThread = 400;
  std::vector<std::vector<std::pair<ViewId, Region>>> Seen(ThreadCount);
  {
    std::vector<std::thread> Team;
    for (int T = 0; T < ThreadCount; ++T)
      Team.emplace_back([&, T] {
        Rng Rand(1000 + T % 2); // Paired seeds force cross-thread overlap.
        for (int I = 0; I < PerThread; ++I) {
          Region R = randomRegion(Rand, G);
          const ViewEntry &E = Views.intern(R);
          // Lock-free read-back of an id published by any thread.
          const ViewEntry &Back = Views.get(E.Id);
          if (Back.View != R || Back.Id != E.Id)
            std::abort(); // EXPECT_* is not thread-safe; die loudly.
          Seen[T].push_back({E.Id, std::move(R)});
        }
      });
    for (std::thread &Th : Team)
      Th.join();
  }
  // Serial validation: one id per region, entries intact.
  for (const auto &PerThreadSeen : Seen)
    for (const auto &[Id, R] : PerThreadSeen) {
      const ViewEntry &E = Views.get(Id);
      EXPECT_EQ(E.View, R);
      EXPECT_EQ(E.Id, Id);
      EXPECT_EQ(Views.intern(R).Id, Id);
    }
}
