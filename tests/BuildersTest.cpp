//===- tests/BuildersTest.cpp - Topology generator tests --------------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "graph/Builders.h"

#include "graph/Algorithms.h"
#include "graph/Dot.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <string>
#include <utility>

using namespace cliffedge;
using graph::Graph;
using graph::Region;

TEST(BuildersTest, LineShape) {
  Graph G = graph::makeLine(6);
  EXPECT_EQ(G.numNodes(), 6u);
  EXPECT_EQ(G.numEdges(), 5u);
  EXPECT_EQ(G.degree(0), 1u);
  EXPECT_EQ(G.degree(3), 2u);
  EXPECT_TRUE(graph::isConnected(G));
}

TEST(BuildersTest, RingShape) {
  Graph G = graph::makeRing(7);
  EXPECT_EQ(G.numEdges(), 7u);
  for (NodeId N = 0; N < 7; ++N)
    EXPECT_EQ(G.degree(N), 2u);
  EXPECT_TRUE(graph::isConnected(G));
}

TEST(BuildersTest, GridShapeAndDegrees) {
  Graph G = graph::makeGrid(4, 3);
  EXPECT_EQ(G.numNodes(), 12u);
  // Edges: horizontal 3*3 + vertical 4*2 = 17.
  EXPECT_EQ(G.numEdges(), 17u);
  EXPECT_EQ(G.degree(graph::gridId(4, 0, 0)), 2u); // Corner.
  EXPECT_EQ(G.degree(graph::gridId(4, 1, 0)), 3u); // Edge.
  EXPECT_EQ(G.degree(graph::gridId(4, 1, 1)), 4u); // Interior.
  EXPECT_TRUE(graph::isConnected(G));
}

TEST(BuildersTest, TorusAllDegreeFour) {
  Graph G = graph::makeTorus(4, 5);
  EXPECT_EQ(G.numNodes(), 20u);
  for (NodeId N = 0; N < G.numNodes(); ++N)
    EXPECT_EQ(G.degree(N), 4u);
  EXPECT_EQ(G.numEdges(), 40u);
}

TEST(BuildersTest, CompleteGraph) {
  Graph G = graph::makeComplete(5);
  EXPECT_EQ(G.numEdges(), 10u);
  for (NodeId N = 0; N < 5; ++N)
    EXPECT_EQ(G.degree(N), 4u);
}

TEST(BuildersTest, StarShape) {
  Graph G = graph::makeStar(6);
  EXPECT_EQ(G.degree(0), 5u);
  for (NodeId N = 1; N < 6; ++N)
    EXPECT_EQ(G.degree(N), 1u);
}

TEST(BuildersTest, TreeIsConnectedAcyclic) {
  Graph G = graph::makeTree(13, 3);
  EXPECT_EQ(G.numEdges(), 12u); // n-1 edges: a tree.
  EXPECT_TRUE(graph::isConnected(G));
}

TEST(BuildersTest, ErdosRenyiConnectedWhenRequested) {
  Rng Rand(42);
  for (int Trial = 0; Trial < 5; ++Trial) {
    Graph G = graph::makeErdosRenyi(40, 0.02, Rand, /*EnsureConnected=*/true);
    EXPECT_TRUE(graph::isConnected(G));
  }
}

TEST(BuildersTest, ErdosRenyiDeterministicPerSeed) {
  Rng A(7), B(7);
  Graph GA = graph::makeErdosRenyi(30, 0.1, A);
  Graph GB = graph::makeErdosRenyi(30, 0.1, B);
  ASSERT_EQ(GA.numNodes(), GB.numNodes());
  EXPECT_EQ(GA.numEdges(), GB.numEdges());
  for (NodeId N = 0; N < GA.numNodes(); ++N)
    EXPECT_EQ(GA.neighbors(N), GB.neighbors(N));
}

TEST(BuildersTest, WattsStrogatzNodeCountPreserved) {
  Rng Rand(3);
  Graph G = graph::makeWattsStrogatz(30, 2, 0.2, Rand);
  EXPECT_EQ(G.numNodes(), 30u);
  // Rewiring may merge duplicate edges but the graph stays near 2K-regular.
  EXPECT_GE(G.numEdges(), 45u);
  EXPECT_LE(G.numEdges(), 60u);
}

TEST(BuildersTest, RandomGeometricConnectedWhenRequested) {
  Rng Rand(11);
  Graph G = graph::makeRandomGeometric(50, 0.2, Rand, true);
  EXPECT_TRUE(graph::isConnected(G));
}

TEST(BuildersTest, Fig1WorldBordersMatchPaper) {
  graph::Fig1World W = graph::makeFig1World();
  // F1's border is exactly {paris, london, madrid, roma} (Fig. 1a).
  Region BorderF1 = W.G.border(W.F1);
  EXPECT_EQ(BorderF1,
            (Region{W.Paris, W.London, W.Madrid, W.Roma}));
  // F2's border is exactly the five Pacific cities.
  Region BorderF2 = W.G.border(W.F2);
  EXPECT_EQ(BorderF2, (Region{W.Tokyo, W.Vancouver, W.Portland, W.Sydney,
                              W.Beijing}));
  // Both crashed regions are connected regions of the graph.
  EXPECT_TRUE(W.G.isConnectedRegion(W.F1));
  EXPECT_TRUE(W.G.isConnectedRegion(W.F2));
  EXPECT_TRUE(graph::isConnected(W.G));
}

TEST(BuildersTest, Fig1WorldGrowthIntoF3AddsBerlin) {
  graph::Fig1World W = graph::makeFig1World();
  // Fig 1(b): paris crashes, F1 grows into F3 = F1 + {paris}; berlin joins
  // the border, paris leaves it.
  Region F3 = W.F1.unionWith(Region{W.Paris});
  Region BorderF3 = W.G.border(F3);
  EXPECT_TRUE(BorderF3.contains(W.Berlin));
  EXPECT_FALSE(BorderF3.contains(W.Paris));
  EXPECT_EQ(BorderF3,
            (Region{W.London, W.Madrid, W.Roma, W.Berlin}));
}

TEST(BuildersTest, GridPatch) {
  Region Patch = graph::gridPatch(8, 2, 3, 2);
  EXPECT_EQ(Patch.size(), 4u);
  EXPECT_TRUE(Patch.contains(graph::gridId(8, 2, 3)));
  EXPECT_TRUE(Patch.contains(graph::gridId(8, 3, 4)));
  EXPECT_FALSE(Patch.contains(graph::gridId(8, 4, 3)));
}

TEST(BuildersTest, HypercubeShape) {
  graph::Graph G = graph::makeHypercube(4);
  EXPECT_EQ(G.numNodes(), 16u);
  EXPECT_EQ(G.numEdges(), 32u); // n * d / 2.
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    EXPECT_EQ(G.degree(N), 4u);
    for (NodeId M : G.adj(N)) {
      uint32_t Diff = N ^ M;
      EXPECT_EQ(Diff & (Diff - 1), 0u) << "edge differs in >1 bit";
    }
  }
  EXPECT_TRUE(graph::isConnected(G));
  EXPECT_EQ(graph::diameter(G), 4u);
}

TEST(BuildersTest, BarabasiAlbertShape) {
  Rng Rand(17);
  graph::Graph G = graph::makeBarabasiAlbert(100, 2, Rand);
  EXPECT_EQ(G.numNodes(), 100u);
  EXPECT_TRUE(graph::isConnected(G));
  // Hub-heavy: the max degree should far exceed the attachment count.
  size_t MaxDegree = 0;
  for (NodeId N = 0; N < G.numNodes(); ++N)
    MaxDegree = std::max(MaxDegree, G.degree(N));
  EXPECT_GE(MaxDegree, 10u);
  // Every non-seed node has degree >= M.
  for (NodeId N = 3; N < G.numNodes(); ++N)
    EXPECT_GE(G.degree(N), 2u);
}

TEST(BuildersTest, BarabasiAlbertDeterministic) {
  Rng A(5), B(5);
  graph::Graph GA = graph::makeBarabasiAlbert(50, 2, A);
  graph::Graph GB = graph::makeBarabasiAlbert(50, 2, B);
  for (NodeId N = 0; N < 50; ++N)
    EXPECT_EQ(GA.neighbors(N), GB.neighbors(N));
}

TEST(BuildersTest, ChordRingShape) {
  graph::Graph G = graph::makeChordRing(32, 4);
  EXPECT_EQ(G.numNodes(), 32u);
  EXPECT_TRUE(graph::isConnected(G));
  // Node 0 links to 1 (successor) and 2, 4, 8, 16 (fingers), plus
  // incoming links from 31, 30, 28, 24, 16.
  graph::AdjRange N0 = G.adj(0);
  for (NodeId Expected : {1u, 2u, 4u, 8u, 16u, 24u, 28u, 30u, 31u})
    EXPECT_TRUE(std::find(N0.begin(), N0.end(), Expected) != N0.end())
        << "missing neighbour " << Expected;
  // Fingers shrink the diameter well below N/2.
  EXPECT_LE(graph::diameter(G), 6u);
}

TEST(BuildersTest, ChordRingFingersCappedByN) {
  graph::Graph G = graph::makeChordRing(6, 10); // 2^k >= 6 ignored.
  EXPECT_TRUE(graph::isConnected(G));
  for (NodeId N = 0; N < 6; ++N)
    EXPECT_LE(G.degree(N), 5u);
}

// The deterministic builders stream rows straight into CSR via
// Graph::RowBuilder; these tests pin that path against an independent
// build-mode construction of the same edge set (addEdge + compact — the
// pre-streaming code path).
namespace {

void expectSameGraph(const Graph &Streamed, const Graph &Reference) {
  ASSERT_EQ(Streamed.numNodes(), Reference.numNodes());
  EXPECT_EQ(Streamed.numEdges(), Reference.numEdges());
  for (NodeId N = 0; N < Streamed.numNodes(); ++N) {
    graph::AdjRange A = Streamed.adj(N);
    graph::AdjRange B = Reference.adj(N);
    ASSERT_EQ(A.size(), B.size()) << "degree mismatch at node " << N;
    EXPECT_TRUE(std::equal(A.begin(), A.end(), B.begin()))
        << "row mismatch at node " << N;
    // Rows must come out sorted and duplicate-free.
    EXPECT_TRUE(std::is_sorted(A.begin(), A.end()));
    EXPECT_TRUE(std::adjacent_find(A.begin(), A.end()) == A.end());
  }
}

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

// Each reference edge list re-derives the family's shape directly from its
// definition, independent of the builder's row order.

EdgeList lineEdges(uint32_t N) {
  EdgeList E;
  for (uint32_t I = 0; I + 1 < N; ++I)
    E.push_back({I, I + 1});
  return E;
}

EdgeList ringEdges(uint32_t N) {
  EdgeList E;
  for (uint32_t I = 0; I < N; ++I)
    E.push_back({I, (I + 1) % N});
  return E;
}

EdgeList gridEdges(uint32_t W, uint32_t H) {
  EdgeList E;
  for (uint32_t Y = 0; Y < H; ++Y)
    for (uint32_t X = 0; X < W; ++X) {
      if (X + 1 < W)
        E.push_back({graph::gridId(W, X, Y), graph::gridId(W, X + 1, Y)});
      if (Y + 1 < H)
        E.push_back({graph::gridId(W, X, Y), graph::gridId(W, X, Y + 1)});
    }
  return E;
}

EdgeList torusEdges(uint32_t W, uint32_t H) {
  EdgeList E;
  for (uint32_t Y = 0; Y < H; ++Y)
    for (uint32_t X = 0; X < W; ++X) {
      E.push_back({graph::gridId(W, X, Y), graph::gridId(W, (X + 1) % W, Y)});
      E.push_back({graph::gridId(W, X, Y), graph::gridId(W, X, (Y + 1) % H)});
    }
  return E;
}

EdgeList completeEdges(uint32_t N) {
  EdgeList E;
  for (uint32_t I = 0; I < N; ++I)
    for (uint32_t J = I + 1; J < N; ++J)
      E.push_back({I, J});
  return E;
}

EdgeList starEdges(uint32_t N) {
  EdgeList E;
  for (uint32_t I = 1; I < N; ++I)
    E.push_back({0, I});
  return E;
}

EdgeList treeEdges(uint32_t N, uint32_t Arity) {
  EdgeList E;
  for (uint32_t I = 1; I < N; ++I)
    E.push_back({I, (I - 1) / Arity});
  return E;
}

EdgeList hypercubeEdges(uint32_t Dim) {
  EdgeList E;
  for (uint32_t I = 0; I < (1u << Dim); ++I)
    for (uint32_t Bit = 0; Bit < Dim; ++Bit)
      if (I < (I ^ (1u << Bit)))
        E.push_back({I, I ^ (1u << Bit)});
  return E;
}

EdgeList chordEdges(uint32_t N, uint32_t Fingers) {
  EdgeList E;
  for (uint32_t I = 0; I < N; ++I) {
    E.push_back({I, (I + 1) % N});
    for (uint32_t K = 1; K <= Fingers; ++K) {
      uint32_t Jump = 1u << K;
      if (Jump >= N)
        break;
      E.push_back({I, (I + Jump) % N});
    }
  }
  return E;
}

} // namespace

TEST(BuildersTest, StreamingBuildersAreCompacted) {
  EXPECT_TRUE(graph::makeLine(5).compacted());
  EXPECT_TRUE(graph::makeRing(5).compacted());
  EXPECT_TRUE(graph::makeGrid(4, 3).compacted());
  EXPECT_TRUE(graph::makeTorus(3, 4).compacted());
  EXPECT_TRUE(graph::makeComplete(6).compacted());
  EXPECT_TRUE(graph::makeStar(4).compacted());
  EXPECT_TRUE(graph::makeTree(9, 2).compacted());
  EXPECT_TRUE(graph::makeHypercube(3).compacted());
  EXPECT_TRUE(graph::makeChordRing(12, 3).compacted());
}

TEST(BuildersTest, StreamingMatchesBuildModeReference) {
  struct Family {
    std::string Name;
    Graph Streamed;
    uint32_t N;
    EdgeList Edges;
  };
  std::vector<Family> Families;
  // Ordinary sizes plus each family's edge sizes: single rows, minimum
  // wrap-around tori (every row of a 3-wide torus wraps), chord rings
  // whose fingers reach log2 N (+2^k and -2^k land on the same node, so
  // rows carry duplicates), one-dimensional cubes and degenerate trees.
  for (uint32_t N : {1u, 2u, 9u})
    Families.push_back({"line:" + std::to_string(N), graph::makeLine(N), N,
                        lineEdges(N)});
  for (uint32_t N : {3u, 4u, 9u})
    Families.push_back({"ring:" + std::to_string(N), graph::makeRing(N), N,
                        ringEdges(N)});
  for (auto [W, H] : {std::pair<uint32_t, uint32_t>{5, 4}, {1, 1}, {1, 6},
                      {6, 1}, {2, 2}})
    Families.push_back({"grid:" + std::to_string(W) + "x" + std::to_string(H),
                        graph::makeGrid(W, H), W * H, gridEdges(W, H)});
  for (auto [W, H] : {std::pair<uint32_t, uint32_t>{5, 3}, {3, 3}, {3, 8},
                      {8, 3}, {4, 4}})
    Families.push_back(
        {"torus:" + std::to_string(W) + "x" + std::to_string(H),
         graph::makeTorus(W, H), W * H, torusEdges(W, H)});
  for (uint32_t N : {1u, 2u, 7u})
    Families.push_back({"complete:" + std::to_string(N),
                        graph::makeComplete(N), N, completeEdges(N)});
  for (uint32_t N : {2u, 8u})
    Families.push_back({"star:" + std::to_string(N), graph::makeStar(N), N,
                        starEdges(N)});
  for (auto [N, A] : {std::pair<uint32_t, uint32_t>{13, 3}, {6, 1}, {5, 9},
                      {1, 2}, {40, 2}})
    Families.push_back({"tree:" + std::to_string(N) + ":" + std::to_string(A),
                        graph::makeTree(N, A), N, treeEdges(N, A)});
  for (uint32_t D : {1u, 2u, 4u})
    Families.push_back({"hypercube:" + std::to_string(D),
                        graph::makeHypercube(D), 1u << D, hypercubeEdges(D)});
  for (auto [N, F] : {std::pair<uint32_t, uint32_t>{20, 3}, {3, 1}, {4, 1},
                      {8, 3}, {6, 10}, {16, 4}, {33, 9}, {5, 0}})
    Families.push_back(
        {"chord:" + std::to_string(N) + ":" + std::to_string(F),
         graph::makeChordRing(N, F), N, chordEdges(N, F)});
  for (Family &F : Families) {
    SCOPED_TRACE(F.Name);
    Graph Reference(F.N);
    for (auto [A, B] : F.Edges)
      Reference.addEdge(A, B);
    Reference.compact();
    expectSameGraph(F.Streamed, Reference);
  }
}

TEST(BuildersTest, RowBuilderSortsAndDedupsRows) {
  // Rows may arrive unsorted and with duplicates; each is sorted and
  // de-duplicated in place, and ascending rows pass through unchanged.
  Graph::RowBuilder B(4, 9);
  B.push(3); // Row 0: {3}.
  B.endRow();
  B.push(3); // Row 1: unsorted with a duplicate -> {2, 3}.
  B.push(2);
  B.push(3);
  B.endRow();
  B.push(1); // Row 2: {1}.
  B.endRow();
  B.push(1); // Row 3: unsorted -> {0, 1}.
  B.push(0);
  B.endRow();
  Graph G = B.build();
  EXPECT_TRUE(G.compacted());
  EXPECT_EQ(G.numNodes(), 4u);
  EXPECT_EQ(G.numEdges(), 3u);
  EXPECT_TRUE(G.hasEdge(1, 2));
  EXPECT_TRUE(G.hasEdge(0, 3));
  EXPECT_TRUE(G.hasEdge(1, 3));
  EXPECT_FALSE(G.hasEdge(0, 1));
  const std::vector<std::vector<NodeId>> Want = {{3}, {2, 3}, {1}, {0, 1}};
  for (NodeId N = 0; N < 4; ++N) {
    graph::AdjRange Row = G.adj(N);
    EXPECT_EQ(std::vector<NodeId>(Row.begin(), Row.end()), Want[N])
        << "row " << N;
  }
}

TEST(BuildersTest, RowBuilderHandlesEmptyRowsAndGraphs) {
  Graph Empty = Graph::RowBuilder(0, 0).build();
  EXPECT_TRUE(Empty.compacted());
  EXPECT_EQ(Empty.numNodes(), 0u);
  EXPECT_EQ(Empty.numEdges(), 0u);

  Graph::RowBuilder B(3, 4);
  B.endRow(); // Node 0 isolated.
  B.push(2);
  B.endRow();
  B.push(1);
  B.endRow();
  Graph G = B.build();
  EXPECT_EQ(G.degree(0), 0u);
  EXPECT_EQ(G.numEdges(), 1u);
  EXPECT_TRUE(G.hasEdge(1, 2));
}

TEST(BuildersTest, BuilderGraphsHaveUnnamedNodes) {
  // Bulk-built graphs keep Names lazy; every node reads as unnamed and
  // label() falls back to the "nK" form.
  Graph G = graph::makeRing(5);
  EXPECT_TRUE(G.name(3).empty());
  EXPECT_EQ(G.label(3), "n3");
  EXPECT_EQ(G.findByName("anything"), InvalidNode);
}

TEST(BuildersTest, DotOutputContainsNodesAndHighlights) {
  graph::Fig1World W = graph::makeFig1World();
  std::string Dot =
      graph::toDot(W.G, {{W.F1, "lightcoral", "F1"}});
  EXPECT_NE(Dot.find("graph topology"), std::string::npos);
  EXPECT_NE(Dot.find("paris"), std::string::npos);
  EXPECT_NE(Dot.find("lightcoral"), std::string::npos);
  EXPECT_NE(Dot.find(" -- "), std::string::npos);
}
