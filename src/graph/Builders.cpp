//===- graph/Builders.cpp - Topology generators ----------------------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "graph/Builders.h"

#include <cassert>
#include <cmath>
#include <vector>

using namespace cliffedge;
using namespace cliffedge::graph;

// The deterministic families below hand each node's row to
// Graph::RowBuilder in node order, so a lattice streams straight into its
// final CSR arrays: a million-node torus costs exactly offsets + edges.
// Rows are emitted ascending wherever the shape allows it cheaply (the
// builder's fast path); wrap-around rows and chord fingers take the
// builder's in-place sort, which also collapses the duplicate fingers of
// small chord rings.

Graph graph::makeLine(uint32_t N) {
  Graph::RowBuilder B(N, N ? 2 * (uint64_t(N) - 1) : 0);
  for (uint32_t I = 0; I < N; ++I) {
    if (I > 0)
      B.push(I - 1);
    if (I + 1 < N)
      B.push(I + 1);
    B.endRow();
  }
  return B.build();
}

Graph graph::makeRing(uint32_t N) {
  assert(N >= 3 && "a ring needs at least three nodes");
  Graph::RowBuilder B(N, 2 * uint64_t(N));
  for (uint32_t I = 0; I < N; ++I) {
    B.push(static_cast<NodeId>((uint64_t(I) + N - 1) % N));
    B.push(static_cast<NodeId>((uint64_t(I) + 1) % N));
    B.endRow();
  }
  return B.build();
}

Graph graph::makeGrid(uint32_t Width, uint32_t Height) {
  const uint64_t N = uint64_t(Width) * Height;
  assert(N < InvalidNode && "grid exceeds the NodeId range");
  // Up, left, right, down: ascending ids.
  const uint64_t Edges =
      N ? (uint64_t(Width) - 1) * Height + uint64_t(Width) * (Height - 1) : 0;
  Graph::RowBuilder B(static_cast<uint32_t>(N), 2 * Edges);
  for (uint32_t Y = 0; Y < Height; ++Y) {
    for (uint32_t X = 0; X < Width; ++X) {
      if (Y > 0)
        B.push(gridId(Width, X, Y - 1));
      if (X > 0)
        B.push(gridId(Width, X - 1, Y));
      if (X + 1 < Width)
        B.push(gridId(Width, X + 1, Y));
      if (Y + 1 < Height)
        B.push(gridId(Width, X, Y + 1));
      B.endRow();
    }
  }
  return B.build();
}

Graph graph::makeTorus(uint32_t Width, uint32_t Height) {
  assert(Width >= 3 && Height >= 3 && "torus needs 3x3 minimum");
  const uint64_t N = uint64_t(Width) * Height;
  assert(N < InvalidNode && "torus exceeds the NodeId range");
  // Up, left, right, down: ascending except on the wrap-around rows.
  Graph::RowBuilder B(static_cast<uint32_t>(N), 4 * N);
  for (uint32_t Y = 0; Y < Height; ++Y) {
    const uint32_t Up = Y ? Y - 1 : Height - 1;
    const uint32_t Down = Y + 1 < Height ? Y + 1 : 0;
    for (uint32_t X = 0; X < Width; ++X) {
      B.push(gridId(Width, X, Up));
      B.push(gridId(Width, X ? X - 1 : Width - 1, Y));
      B.push(gridId(Width, X + 1 < Width ? X + 1 : 0, Y));
      B.push(gridId(Width, X, Down));
      B.endRow();
    }
  }
  return B.build();
}

Graph graph::makeComplete(uint32_t N) {
  Graph::RowBuilder B(N, uint64_t(N) * (N ? N - 1 : 0));
  for (uint32_t I = 0; I < N; ++I) {
    for (uint32_t J = 0; J < N; ++J)
      if (J != I)
        B.push(J);
    B.endRow();
  }
  return B.build();
}

Graph graph::makeStar(uint32_t N) {
  assert(N >= 2 && "a star needs a hub and at least one leaf");
  Graph::RowBuilder B(N, 2 * (uint64_t(N) - 1));
  for (uint32_t I = 1; I < N; ++I)
    B.push(I);
  B.endRow();
  for (uint32_t I = 1; I < N; ++I) {
    B.push(0);
    B.endRow();
  }
  return B.build();
}

Graph graph::makeTree(uint32_t N, uint32_t Arity) {
  assert(Arity >= 1 && "tree arity must be positive");
  // Parent, then children: ascending.
  Graph::RowBuilder B(N, N ? 2 * (uint64_t(N) - 1) : 0);
  for (uint32_t I = 0; I < N; ++I) {
    if (I > 0)
      B.push((I - 1) / Arity);
    const uint64_t FirstChild = uint64_t(I) * Arity + 1;
    for (uint64_t C = FirstChild; C < FirstChild + Arity && C < N; ++C)
      B.push(static_cast<NodeId>(C));
    B.endRow();
  }
  return B.build();
}

Graph graph::makeErdosRenyi(uint32_t N, double P, Rng &Rand,
                            bool EnsureConnected) {
  Graph G(N);
  if (EnsureConnected && N > 1) {
    // Random permutation chain guarantees connectivity without biasing any
    // particular node.
    std::vector<NodeId> Order(N);
    for (uint32_t I = 0; I < N; ++I)
      Order[I] = I;
    Rand.shuffle(Order);
    for (uint32_t I = 0; I + 1 < N; ++I)
      G.addEdge(Order[I], Order[I + 1]);
  }
  for (uint32_t I = 0; I < N; ++I)
    for (uint32_t J = I + 1; J < N; ++J)
      if (Rand.nextBool(P))
        G.addEdge(I, J);
  return G;
}

Graph graph::makeWattsStrogatz(uint32_t N, uint32_t K, double Beta,
                               Rng &Rand) {
  assert(N > 2 * K && "Watts-Strogatz needs N > 2K");
  Graph G(N);
  // Ring lattice.
  for (uint32_t I = 0; I < N; ++I)
    for (uint32_t Step = 1; Step <= K; ++Step)
      G.addEdge(I, (I + Step) % N);
  // Rewire: since Graph has no edge removal (it is immutable by design once
  // built), emulate rewiring by building an edge list first.
  Graph Rewired(N);
  for (uint32_t I = 0; I < N; ++I) {
    for (NodeId J : G.adj(I)) {
      if (J < I)
        continue; // Visit each undirected edge once.
      NodeId Target = J;
      if (Rand.nextBool(Beta)) {
        // Pick a random non-self target; duplicate edges collapse silently.
        NodeId Candidate = static_cast<NodeId>(Rand.nextBelow(N));
        if (Candidate != I)
          Target = Candidate;
      }
      Rewired.addEdge(I, Target);
    }
  }
  return Rewired;
}

Graph graph::makeRandomGeometric(uint32_t N, double Radius, Rng &Rand,
                                 bool EnsureConnected) {
  std::vector<double> Xs(N), Ys(N);
  for (uint32_t I = 0; I < N; ++I) {
    Xs[I] = Rand.nextDouble();
    Ys[I] = Rand.nextDouble();
  }
  Graph G(N);
  double R2 = Radius * Radius;
  for (uint32_t I = 0; I < N; ++I) {
    for (uint32_t J = I + 1; J < N; ++J) {
      double DX = Xs[I] - Xs[J], DY = Ys[I] - Ys[J];
      if (DX * DX + DY * DY <= R2)
        G.addEdge(I, J);
    }
  }
  if (EnsureConnected && N > 1)
    for (uint32_t I = 0; I + 1 < N; ++I)
      G.addEdge(I, I + 1);
  return G;
}

Graph graph::makeHypercube(uint32_t Dim) {
  assert(Dim >= 1 && Dim < 31 && "hypercube dimension out of range");
  const uint32_t N = 1u << Dim;
  // Clearing a set bit gives a smaller id (smallest for the highest bit),
  // setting a clear bit a larger one: high-to-low clears, then low-to-high
  // sets, is ascending.
  Graph::RowBuilder B(N, uint64_t(N) * Dim);
  for (uint32_t I = 0; I < N; ++I) {
    for (uint32_t Bit = Dim; Bit-- > 0;)
      if (I & (1u << Bit))
        B.push(I ^ (1u << Bit));
    for (uint32_t Bit = 0; Bit < Dim; ++Bit)
      if (!(I & (1u << Bit)))
        B.push(I | (1u << Bit));
    B.endRow();
  }
  return B.build();
}

Graph graph::makeBarabasiAlbert(uint32_t N, uint32_t M, Rng &Rand) {
  assert(M >= 1 && N > M && "need N > M >= 1");
  Graph G(N);
  // Seed clique of M+1 nodes.
  for (uint32_t I = 0; I <= M; ++I)
    for (uint32_t J = I + 1; J <= M; ++J)
      G.addEdge(I, J);
  // Endpoint pool: each node appears once per incident edge, so a uniform
  // draw from the pool is degree-proportional.
  std::vector<NodeId> Pool;
  for (uint32_t I = 0; I <= M; ++I)
    for (uint32_t J = 0; J < M; ++J)
      Pool.push_back(I);
  for (uint32_t New = M + 1; New < N; ++New) {
    std::vector<NodeId> Chosen;
    while (Chosen.size() < M) {
      NodeId Pick = Pool[Rand.nextBelow(Pool.size())];
      bool Dup = false;
      for (NodeId C : Chosen)
        Dup |= C == Pick;
      if (!Dup)
        Chosen.push_back(Pick);
    }
    for (NodeId Target : Chosen) {
      G.addEdge(New, Target);
      Pool.push_back(New);
      Pool.push_back(Target);
    }
  }
  return G;
}

Graph graph::makeChordRing(uint32_t N, uint32_t Fingers) {
  assert(N >= 3 && "chord ring needs at least three nodes");
  // Node i links to i + 2^k (mod N) for k = 0 (the successor) and every
  // finger k = 1..Fingers with 2^k < N, so its row holds i +- 2^k for each
  // such k. On small rings +2^k and -2^k can meet; endRow() dedups them.
  uint32_t Jumps = 1;
  while (Jumps <= Fingers && Jumps < 32 && (1u << Jumps) < N)
    ++Jumps;
  Graph::RowBuilder B(N, 2 * uint64_t(N) * Jumps);
  for (uint32_t I = 0; I < N; ++I) {
    for (uint32_t K = 0; K < Jumps; ++K) {
      const uint32_t Jump = 1u << K;
      B.push(static_cast<NodeId>((uint64_t(I) + Jump) % N));
      B.push(static_cast<NodeId>((uint64_t(I) + N - Jump) % N));
    }
    B.endRow();
  }
  return B.build();
}

Fig1World graph::makeFig1World() {
  Fig1World W;
  Graph &G = W.G;
  // Live cities.
  W.Paris = G.addNode("paris");
  W.London = G.addNode("london");
  W.Madrid = G.addNode("madrid");
  W.Roma = G.addNode("roma");
  W.Berlin = G.addNode("berlin");
  W.Tokyo = G.addNode("tokyo");
  W.Vancouver = G.addNode("vancouver");
  W.Portland = G.addNode("portland");
  W.Sydney = G.addNode("sydney");
  W.Beijing = G.addNode("beijing");
  // Crashed region F1: two relay nodes in western Europe.
  NodeId F1a = G.addNode("f1a");
  NodeId F1b = G.addNode("f1b");
  // Crashed region F2: three relay nodes around the Pacific.
  NodeId F2a = G.addNode("f2a");
  NodeId F2b = G.addNode("f2b");
  NodeId F2c = G.addNode("f2c");

  // F1 is a connected region whose border is exactly
  // {paris, london, madrid, roma} (Fig. 1a).
  G.addEdge(F1a, F1b);
  G.addEdge(F1a, W.Paris);
  G.addEdge(F1a, W.London);
  G.addEdge(F1b, W.Madrid);
  G.addEdge(F1b, W.Roma);

  // F2 is a connected region whose border is exactly
  // {tokyo, vancouver, portland, sydney, beijing}.
  G.addEdge(F2a, F2b);
  G.addEdge(F2b, F2c);
  G.addEdge(F2a, W.Tokyo);
  G.addEdge(F2a, W.Vancouver);
  G.addEdge(F2b, W.Portland);
  G.addEdge(F2c, W.Sydney);
  G.addEdge(F2c, W.Beijing);

  // paris's only still-live neighbour is berlin, so that when paris crashes
  // (Fig. 1b) the region F3 = F1 + {paris} gains berlin as a border node.
  G.addEdge(W.Paris, W.Berlin);

  // Live mesh keeping the whole graph connected.
  G.addEdge(W.London, W.Berlin);
  G.addEdge(W.Madrid, W.Roma);
  G.addEdge(W.Roma, W.Berlin);
  G.addEdge(W.Berlin, W.Beijing);
  G.addEdge(W.London, W.Vancouver);
  G.addEdge(W.Tokyo, W.Beijing);
  G.addEdge(W.Tokyo, W.Sydney);
  G.addEdge(W.Vancouver, W.Portland);

  W.F1 = Region{F1a, F1b};
  W.F2 = Region{F2a, F2b, F2c};
  return W;
}

Region graph::gridPatch(uint32_t Width, uint32_t X0, uint32_t Y0,
                        uint32_t Side) {
  std::vector<NodeId> Members;
  Members.reserve(static_cast<size_t>(Side) * Side);
  for (uint32_t DY = 0; DY < Side; ++DY)
    for (uint32_t DX = 0; DX < Side; ++DX)
      Members.push_back(gridId(Width, X0 + DX, Y0 + DY));
  return Region(std::move(Members));
}
