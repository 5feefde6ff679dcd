//===- core/Types.h - Protocol value types ----------------------*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Value types shared by the protocol, the checkers and the benches:
/// decision values, opinions, and opinion vectors (the op arrays exchanged
/// by Algorithm 1).
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_CORE_TYPES_H
#define CLIFFEDGE_CORE_TYPES_H

#include "graph/Region.h"
#include "support/Ids.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace cliffedge {
namespace core {

/// A decision value — the paper's "d" (a repair plan id or any coordinated
/// action), opaque to the protocol.
using Value = uint64_t;

/// One node's recorded stance on a proposed view.
enum class Opinion : uint8_t {
  None,   ///< The paper's bottom — nothing known yet.
  Accept, ///< The node proposed this view, carrying its value.
  Reject, ///< The node rejected this view (it knows a higher-ranked one).
};

/// One slot of an opinion vector.
struct OpinionEntry {
  Opinion Kind = Opinion::None;
  Value Val = 0;

  bool operator==(const OpinionEntry &O) const {
    return Kind == O.Kind && (Kind != Opinion::Accept || Val == O.Val);
  }
};

/// The op vector of Algorithm 1: one entry per border member of the view,
/// aligned with the border region's sorted node ids.
class OpinionVec {
public:
  OpinionVec() = default;
  explicit OpinionVec(size_t NumMembers) : Entries(NumMembers) {}

  /// Re-initialises to \p NumMembers bottom entries, reusing the existing
  /// storage — the wire decoder's scratch message relies on this to keep
  /// steady-state decoding allocation-free.
  void reset(size_t NumMembers) { Entries.assign(NumMembers, OpinionEntry{}); }

  /// Overwrites the vector with the \p N entries at \p First, reusing the
  /// existing storage (round relays copy an instance's round slice).
  void assign(const OpinionEntry *First, size_t N) {
    Entries.assign(First, First + N);
  }

  size_t size() const { return Entries.size(); }

  OpinionEntry &operator[](size_t Index) {
    assert(Index < Entries.size() && "opinion index out of range");
    return Entries[Index];
  }
  const OpinionEntry &operator[](size_t Index) const {
    assert(Index < Entries.size() && "opinion index out of range");
    return Entries[Index];
  }

  /// True when no entry is None (the paper's "no bottom").
  bool isComplete() const {
    for (const OpinionEntry &E : Entries)
      if (E.Kind == Opinion::None)
        return false;
    return true;
  }

  /// True when every entry is an Accept — the decision condition (line 34).
  bool allAccept() const {
    for (const OpinionEntry &E : Entries)
      if (E.Kind != Opinion::Accept)
        return false;
    return true;
  }

  bool operator==(const OpinionVec &O) const { return Entries == O.Entries; }

  /// Renders as e.g. "[A:7,_,R]" for debugging.
  std::string str() const;

private:
  std::vector<OpinionEntry> Entries;
};

/// Index of \p Node within the sorted id list of \p Members; asserts
/// membership. Opinion vectors are indexed this way.
size_t memberIndex(const graph::Region &Members, NodeId Node);

/// findMemberIndex's answer for a node outside the member list.
constexpr size_t NotAMember = static_cast<size_t>(-1);

/// memberIndex for untrusted input: NotAMember when \p Node is not in
/// \p Members.
size_t findMemberIndex(const graph::Region &Members, NodeId Node);

/// A completed decision as reported by a node: the paper's
/// <decide | S, d> event.
struct Decision {
  graph::Region View;
  Value Chosen = 0;
};

} // namespace core
} // namespace cliffedge

#endif // CLIFFEDGE_CORE_TYPES_H
