//===- core/Types.cpp - Protocol value types --------------------------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "core/Types.h"

#include "support/StrUtil.h"

#include <algorithm>

using namespace cliffedge;
using namespace cliffedge::core;

std::string OpinionVec::str() const {
  std::string Out = "[";
  for (size_t I = 0; I < Entries.size(); ++I) {
    if (I)
      Out += ",";
    switch (Entries[I].Kind) {
    case Opinion::None:
      Out += "_";
      break;
    case Opinion::Accept:
      Out += formatStr("A:%llu",
                       static_cast<unsigned long long>(Entries[I].Val));
      break;
    case Opinion::Reject:
      Out += "R";
      break;
    }
  }
  Out += "]";
  return Out;
}

size_t core::memberIndex(const graph::Region &Members, NodeId Node) {
  size_t Index = findMemberIndex(Members, Node);
  assert(Index != NotAMember && "node is not a member");
  return Index;
}

size_t core::findMemberIndex(const graph::Region &Members, NodeId Node) {
  const std::vector<NodeId> &Ids = Members.ids();
  auto It = std::lower_bound(Ids.begin(), Ids.end(), Node);
  if (It == Ids.end() || *It != Node)
    return NotAMember;
  return static_cast<size_t>(It - Ids.begin());
}
