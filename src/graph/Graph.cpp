//===- graph/Graph.cpp - Undirected topology graph -------------------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "graph/Graph.h"

#include "support/Sorted.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <cassert>
#include <functional>

using namespace cliffedge;
using namespace cliffedge::graph;

// Names stay lazy: bulk-constructed nodes are unnamed, and a vector of a
// million empty std::strings is 32 MB of pure overhead, so Names only grows
// once a node is actually named (addNode). name() treats ids past the end of
// Names as unnamed.
Graph::Graph(uint32_t InNumNodes) : Adj(InNumNodes), NumNodes(InNumNodes) {}

NodeId Graph::addNode(std::string Name) {
  assert(!compacted() && "addNode on a compacted graph");
  Adj.emplace_back();
  ++NumNodes;
  // Bulk-constructed nodes before this one become unnamed entries; every
  // new entry joins the index. emplace keeps the first insertion, so
  // duplicate names resolve to the smallest id.
  size_t First = Names.size();
  Names.resize(NumNodes - size_t(1));
  Names.push_back(std::move(Name));
  for (size_t I = First; I < Names.size(); ++I)
    NameIndex.emplace(Names[I], static_cast<NodeId>(I));
  return static_cast<NodeId>(Adj.size() - 1);
}

void Graph::compact() {
  if (compacted())
    return;
  CsrOffsets.resize(NumNodes + size_t(1));
  CsrEdges.reserve(2 * EdgeCount);
  CsrOffsets[0] = 0;
  for (NodeId N = 0; N < NumNodes; ++N) {
    CsrEdges.insert(CsrEdges.end(), Adj[N].begin(), Adj[N].end());
    CsrOffsets[N + 1] = CsrEdges.size();
  }
  // Release the build buffers — the whole point of compacting.
  std::vector<std::vector<NodeId>>().swap(Adj);
}

void Graph::addEdge(NodeId A, NodeId B) {
  assert(!compacted() && "addEdge on a compacted graph");
  assert(A < Adj.size() && B < Adj.size() && "edge endpoint out of range");
  assert(A != B && "self-loops are not part of the system model");
  if (insertSortedUnique(Adj[A], B)) {
    insertSortedUnique(Adj[B], A);
    ++EdgeCount;
  }
}

bool Graph::hasEdge(NodeId A, NodeId B) const {
  assert(A < NumNodes && B < NumNodes && "edge endpoint out of range");
  AdjRange List = adj(A);
  return std::binary_search(List.begin(), List.end(), B);
}

const std::vector<NodeId> &Graph::neighbors(NodeId Node) const {
  assert(!compacted() && "neighbors() on a compacted graph; use adj()");
  assert(Node < Adj.size() && "node out of range");
  return Adj[Node];
}

const std::string &Graph::name(NodeId Node) const {
  assert(Node < NumNodes && "node out of range");
  static const std::string Unnamed;
  return Node < Names.size() ? Names[Node] : Unnamed;
}

NodeId Graph::findByName(const std::string &Name) const {
  auto It = NameIndex.find(Name);
  return It == NameIndex.end() ? InvalidNode : It->second;
}

std::string Graph::label(NodeId Node) const {
  const std::string &N = name(Node);
  if (!N.empty())
    return N;
  return formatStr("n%u", Node);
}

Region Graph::border(NodeId Node) const {
  AdjRange List = adj(Node);
  return Region(std::vector<NodeId>(List.begin(), List.end()));
}

void Graph::borderInto(NodeId Node, Region &Out) const {
  Out.clear();
  for (NodeId Neighbor : adj(Node))
    Out.appendAscending(Neighbor);
}

Region Graph::border(const Region &S) const {
  std::vector<NodeId> Out;
  for (NodeId Member : S)
    for (NodeId Neighbor : adj(Member))
      if (!S.contains(Neighbor))
        Out.push_back(Neighbor);
  return Region(std::move(Out));
}

std::vector<Region> Graph::connectedComponents(const Region &S) const {
  std::vector<Region> Components;
  Region Visited;
  for (NodeId Seed : S) {
    if (Visited.contains(Seed))
      continue;
    // BFS within S from Seed.
    std::vector<NodeId> Frontier = {Seed};
    std::vector<NodeId> Members;
    Visited.insert(Seed);
    while (!Frontier.empty()) {
      NodeId Current = Frontier.back();
      Frontier.pop_back();
      Members.push_back(Current);
      for (NodeId Neighbor : adj(Current)) {
        if (!S.contains(Neighbor) || Visited.contains(Neighbor))
          continue;
        Visited.insert(Neighbor);
        Frontier.push_back(Neighbor);
      }
    }
    Components.push_back(Region(std::move(Members)));
  }
  // Seeds are visited in sorted order, so components are already ordered by
  // their smallest member; no extra sort needed.
  return Components;
}

bool Graph::isConnectedRegion(const Region &S) const {
  if (S.empty())
    return false;
  return connectedComponents(S).size() == 1;
}

//===----------------------------------------------------------------------===//
// RowBuilder
//===----------------------------------------------------------------------===//

// Both arrays are reserved, never resized: push_back writes each offset
// and edge exactly once, where a resize would first zero-fill the 24 MB
// of a million-node torus only to overwrite it.
Graph::RowBuilder::RowBuilder(uint32_t InNumNodes, uint64_t MaxEntries)
    : NumNodes(InNumNodes) {
  Offsets.reserve(size_t(InNumNodes) + 1);
  Offsets.push_back(0);
  Edges.reserve(MaxEntries);
}

void Graph::RowBuilder::endRow() {
  assert(Offsets.size() <= NumNodes && "endRow past the last row");
  auto First = Edges.begin() + static_cast<ptrdiff_t>(Offsets.back());
  // Fast path: a strictly ascending row is already sorted and unique.
  if (std::adjacent_find(First, Edges.end(), std::greater_equal<NodeId>()) !=
      Edges.end()) {
    std::sort(First, Edges.end());
    Edges.erase(std::unique(First, Edges.end()), Edges.end());
  }
  Offsets.push_back(Edges.size());
}

Graph Graph::RowBuilder::build() {
  assert(Offsets.size() == size_t(NumNodes) + 1 &&
         "build() before every row was sealed");
  Graph G;
  G.NumNodes = NumNodes;
  G.CsrOffsets = std::move(Offsets);
  G.CsrEdges = std::move(Edges);
  G.CsrEdges.shrink_to_fit();
  G.EdgeCount = G.CsrEdges.size() / 2;
#ifndef NDEBUG
  for (NodeId N = 0; N < NumNodes; ++N)
    for (NodeId M : G.adj(N))
      assert(G.hasEdge(M, N) && "row builder input is not symmetric");
#endif
  return G;
}
