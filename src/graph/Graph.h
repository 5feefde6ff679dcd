//===- graph/Graph.h - Undirected topology graph ----------------*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The system model of the paper (§2.2): a finite undirected graph
/// G = (Pi, E) capturing which nodes know each other. The graph is built
/// once and then shared read-only by every simulated node — the paper
/// assumes "each node can query G on demand, either by directly contacting
/// live nodes, or using some underlying topology service for crashed nodes".
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_GRAPH_GRAPH_H
#define CLIFFEDGE_GRAPH_GRAPH_H

#include "graph/Region.h"
#include "support/Ids.h"

#include <cassert>
#include <string>
#include <unordered_map>
#include <vector>

namespace cliffedge {
namespace graph {

/// Lightweight adjacency view: a contiguous span of sorted neighbour ids.
/// Valid for build-mode and compacted graphs alike — every library
/// traversal goes through Graph::adj(), so the storage layout is an
/// implementation detail of the graph.
class AdjRange {
public:
  AdjRange(const NodeId *First, const NodeId *Last)
      : First(First), Last(Last) {}
  const NodeId *begin() const { return First; }
  const NodeId *end() const { return Last; }
  size_t size() const { return static_cast<size_t>(Last - First); }
  bool empty() const { return First == Last; }
  NodeId operator[](size_t I) const { return First[I]; }

private:
  const NodeId *First;
  const NodeId *Last;
};

/// Immutable-after-construction undirected graph with optional node names.
///
/// Two storage modes: build mode (one sorted vector per node, supports
/// addNode/addEdge) and compact mode (CSR — one offset array plus one flat
/// edge array, entered by compact()). Compacting frees the per-node build
/// buffers, dropping both the per-node allocation overhead and the pointer
/// chase per traversal — the difference between a 100k-node topology
/// thrashing the allocator and one flat 4·2E-byte array streaming through
/// cache. scenario::buildTopology compacts every topology it builds.
class Graph {
public:
  Graph() = default;

  /// Creates \p NumNodes unnamed nodes and no edges.
  explicit Graph(uint32_t NumNodes);

  /// Appends a node; returns its id. \p Name may be empty. Build mode only.
  NodeId addNode(std::string Name = std::string());

  /// Adds the undirected edge {A, B}. Self-loops are forbidden; duplicate
  /// edges are ignored. Build mode only.
  void addEdge(NodeId A, NodeId B);

  /// Moves the adjacency into CSR storage (one flat offset + edge array)
  /// and frees the per-node build buffers. Idempotent; after compacting,
  /// addNode/addEdge/neighbors are no longer available (adj() is).
  void compact();

  /// True once compact() has run.
  bool compacted() const { return !CsrOffsets.empty(); }

  uint32_t numNodes() const { return NumNodes; }
  size_t numEdges() const { return EdgeCount; }

  /// True if the undirected edge {A, B} exists.
  bool hasEdge(NodeId A, NodeId B) const;

  /// Sorted neighbour span of \p Node, in either storage mode. This is the
  /// accessor every traversal in the library uses.
  AdjRange adj(NodeId Node) const {
    assert(Node < NumNodes && "node out of range");
    if (!CsrOffsets.empty()) {
      const NodeId *Base = CsrEdges.data();
      return AdjRange(Base + CsrOffsets[Node], Base + CsrOffsets[Node + 1]);
    }
    const std::vector<NodeId> &List = Adj[Node];
    return AdjRange(List.data(), List.data() + List.size());
  }

  /// Sorted neighbour list of \p Node. Build mode only — compacted graphs
  /// have no per-node vectors; use adj() instead.
  const std::vector<NodeId> &neighbors(NodeId Node) const;

  /// Degree of \p Node.
  size_t degree(NodeId Node) const { return adj(Node).size(); }

  /// Name of \p Node; empty if unnamed.
  const std::string &name(NodeId Node) const;

  /// Returns the id of the node named \p Name, or InvalidNode. Ties (two
  /// nodes with the same name) resolve to the smallest id. Backed by a
  /// name index that addNode() keeps current, so a const graph holds no
  /// lazily mutated state and may be shared across threads freely.
  NodeId findByName(const std::string &Name) const;

  /// Returns a readable label: the name when present, else "nK".
  std::string label(NodeId Node) const;

  /// border({Node}) — the neighbours of a single node.
  Region border(NodeId Node) const;

  /// border({Node}) written into \p Out, reusing its storage — the
  /// allocation-free variant for per-crash hot paths.
  void borderInto(NodeId Node, Region &Out) const;

  /// border(S) = { q not in S | exists p in S : {p,q} in E } (§2.2).
  Region border(const Region &S) const;

  /// Vertex sets of the connected components of the subgraph G[S] induced
  /// by \p S — the paper's connectedComponents(S) (§3.1). Components are
  /// returned in deterministic order (sorted by smallest member).
  std::vector<Region> connectedComponents(const Region &S) const;

  /// True if \p S is non-empty and G[S] is connected — i.e. \p S is a
  /// *region* in the paper's sense (§2.2).
  bool isConnectedRegion(const Region &S) const;

  /// One-pass CSR construction: rows arrive in node order and append
  /// straight into the final offset and edge arrays, so a million-node
  /// lattice costs one write of its CSR and no scratch array. The edge
  /// array is sized once from the caller's bound on the total row length;
  /// a row that arrives strictly ascending is taken as is, any other row
  /// is sorted and de-duplicated in place (rows are short). Generators
  /// therefore emit rows ascending where that is cheap and duplicates
  /// only where the shape has them. Each undirected edge must appear in
  /// both endpoints' rows — debug builds check that symmetry in build() —
  /// and self-loops are forbidden as everywhere else.
  class RowBuilder {
  public:
    /// \p MaxEntries bounds the summed length of all rows as pushed
    /// (duplicates included); it sizes the edge array.
    RowBuilder(uint32_t NumNodes, uint64_t MaxEntries);

    /// Appends \p Neighbor to the current node's row.
    void push(NodeId Neighbor) {
      assert(Offsets.size() <= NumNodes && "push past the last row");
      assert(Neighbor < NumNodes && "edge endpoint out of range");
      assert(Neighbor != Offsets.size() - 1 &&
             "self-loops are not part of the system model");
      assert(Edges.size() < Edges.capacity() && "rows exceed MaxEntries");
      Edges.push_back(Neighbor);
    }

    /// Seals the current node's row and moves on to the next node.
    void endRow();

    /// Returns the compacted graph once every row is sealed. Spare
    /// capacity (MaxEntries above the deduped total) is trimmed. The
    /// builder is consumed.
    Graph build();

  private:
    uint32_t NumNodes = 0;
    /// Offsets[n+1] is the end of row n once sealed; the current row,
    /// node Offsets.size() - 1's, spans Edges[Offsets.back() ..).
    std::vector<uint64_t> Offsets;
    std::vector<NodeId> Edges;
  };

private:
  /// Build-mode adjacency; emptied by compact().
  std::vector<std::vector<NodeId>> Adj;
  /// Compact-mode adjacency: neighbours of n live at
  /// CsrEdges[CsrOffsets[n] .. CsrOffsets[n+1]). Empty in build mode.
  std::vector<uint64_t> CsrOffsets;
  std::vector<NodeId> CsrEdges;
  uint32_t NumNodes = 0;
  std::vector<std::string> Names;
  size_t EdgeCount = 0;

  /// Name -> smallest id, maintained by addNode().
  std::unordered_map<std::string, NodeId> NameIndex;
};

} // namespace graph
} // namespace cliffedge

#endif // CLIFFEDGE_GRAPH_GRAPH_H
