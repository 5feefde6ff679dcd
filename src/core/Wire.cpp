//===- core/Wire.cpp - Message (de)serialisation -----------------------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "core/Wire.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace cliffedge;
using namespace cliffedge::core;

namespace {

constexpr uint32_t WireMagic = kWireMagic;
constexpr uint8_t WireVersion = kWireVersion3;
constexpr size_t HeaderSize = kWirePrefixSize; // magic, version, flags
constexpr uint8_t FlagFinal = kWireFlagFinal;
constexpr uint8_t FlagAnnounce = kWireFlagAnnounce;

/// Decoder reserve() clamp: prevents a hostile count field from demanding
/// gigabytes before the per-element truncation checks reject the frame.
constexpr uint32_t MaxPrealloc = 4096;

size_t varintSize(uint64_t V) { return wireVarintSize(V); }

void putVarint(uint8_t *&P, uint64_t V) {
  while (V >= 0x80) {
    *P++ = static_cast<uint8_t>(V) | 0x80;
    V >>= 7;
  }
  *P++ = static_cast<uint8_t>(V);
}

void putU32(uint8_t *&P, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    *P++ = static_cast<uint8_t>(V >> (8 * I));
}

size_t regionSizeDelta(const graph::Region &R) {
  size_t S = varintSize(R.size());
  NodeId Prev = 0;
  bool First = true;
  for (NodeId Id : R) {
    S += varintSize(First ? Id : Id - Prev);
    Prev = Id;
    First = false;
  }
  return S;
}

void putRegionDelta(uint8_t *&P, const graph::Region &R) {
  putVarint(P, R.size());
  NodeId Prev = 0;
  bool First = true;
  for (NodeId Id : R) {
    putVarint(P, First ? Id : Id - Prev);
    Prev = Id;
    First = false;
  }
}

size_t opinionsSize(const OpinionVec &Ops) {
  size_t S = 0;
  for (size_t I = 0; I < Ops.size(); ++I) {
    S += 1;
    if (Ops[I].Kind == Opinion::Accept)
      S += varintSize(Ops[I].Val);
  }
  return S;
}

void putOpinions(uint8_t *&P, const OpinionVec &Ops) {
  for (size_t I = 0; I < Ops.size(); ++I) {
    const OpinionEntry &E = Ops[I];
    *P++ = static_cast<uint8_t>(E.Kind);
    if (E.Kind == Opinion::Accept)
      putVarint(P, E.Val);
  }
}

class Reader {
public:
  explicit Reader(const std::vector<uint8_t> &Bytes) : Data(Bytes) {}

  bool u8(uint8_t &V) {
    if (Pos + 1 > Data.size())
      return false;
    V = Data[Pos++];
    return true;
  }
  bool u32(uint32_t &V) {
    if (Pos + 4 > Data.size())
      return false;
    V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(Data[Pos++]) << (8 * I);
    return true;
  }
  bool varint(uint64_t &V) { return wireReadVarint(Data, Pos, V); }
  bool varint32(uint32_t &V) {
    uint64_t Wide = 0;
    if (!varint(Wide) || Wide > UINT32_MAX)
      return false;
    V = static_cast<uint32_t>(Wide);
    return true;
  }
  bool atEnd() const { return Pos == Data.size(); }

private:
  const std::vector<uint8_t> &Data;
  size_t Pos = 0;
};

/// Reads the \p Count delta-encoded ids of a region, handing the I-th to
/// \p Visit(I, Id), which may refuse it by returning false.
template <typename Fn>
bool readDeltaIds(Reader &R, uint32_t Count, Fn &&Visit) {
  uint64_t Prev = 0;
  for (uint32_t I = 0; I < Count; ++I) {
    uint64_t Delta = 0;
    if (!R.varint(Delta))
      return false;
    // Deltas after the first id must be positive: strictly increasing ids
    // by construction, so attacker bytes never need re-sorting. Bounding the
    // delta itself keeps Prev + Delta from wrapping uint64 into an
    // "increasing" id that never was.
    if ((I > 0 && Delta == 0) || Delta > UINT32_MAX)
      return false;
    uint64_t Id = I == 0 ? Delta : Prev + Delta;
    if (Id >= InvalidNode)
      return false;
    Prev = Id;
    if (!Visit(I, static_cast<NodeId>(Id)))
      return false;
  }
  return true;
}

bool readRegionDelta(Reader &R, graph::Region &Out) {
  uint32_t Count = 0;
  if (!R.varint32(Count))
    return false;
  std::vector<NodeId> Ids;
  Ids.reserve(Count < MaxPrealloc ? Count : MaxPrealloc);
  if (!readDeltaIds(R, Count, [&Ids](uint32_t, NodeId Id) {
        Ids.push_back(Id);
        return true;
      }))
    return false;
  Out = graph::Region(std::move(Ids));
  return true;
}

/// Reads a delta-encoded region like readRegionDelta, but only checks it
/// against \p Expect: true iff the encoded set is exactly \p Expect.
/// Allocation-free.
bool matchRegionDelta(Reader &R, const graph::Region &Expect) {
  uint32_t Count = 0;
  if (!R.varint32(Count) || Count != Expect.size())
    return false;
  const std::vector<NodeId> &Ids = Expect.ids();
  return readDeltaIds(R, Count,
                      [&Ids](uint32_t I, NodeId Id) { return Id == Ids[I]; });
}

bool readOpinions(Reader &R, size_t Count, OpinionVec &Out) {
  Out.reset(Count);
  for (size_t I = 0; I < Count; ++I) {
    uint8_t Kind = 0;
    if (!R.u8(Kind) || Kind > static_cast<uint8_t>(Opinion::Reject))
      return false;
    Out[I].Kind = static_cast<Opinion>(Kind);
    if (Out[I].Kind == Opinion::Accept && !R.varint(Out[I].Val))
      return false;
  }
  return true;
}

bool decodeV3(Reader &R, uint8_t Flags, ViewTable &Views, Message &M) {
  if (Flags & ~(FlagFinal | FlagAnnounce | kWireFlagChannel))
    return false; // PureAck frames are transport-level, never a message.
  if (Flags & kWireFlagChannel) {
    // The reliability sublayer's seq/ack ride between the prefix and the
    // protocol body; the transport already consumed them — skip.
    uint64_t Seq = 0, Ack = 0;
    if (!R.varint(Seq) || !R.varint(Ack))
      return false;
  }
  M.Final = (Flags & FlagFinal) != 0;
  uint32_t Id = 0;
  if (!R.varint32(Id) || Id == InvalidViewId)
    return false;
  if (!R.varint32(M.Round) || M.Round == 0)
    return false;

  const ViewEntry *E = nullptr;
  if (Flags & FlagAnnounce) {
    if (const ViewEntry *Known = Views.tryGet(Id)) {
      // The id is already interned (always, on a run-shared table: the
      // proposer interned it before sending). Verify the payload against
      // the entry in place — internAnnounced's check, without building
      // two regions per announce frame.
      if (!matchRegionDelta(R, Known->View) ||
          !matchRegionDelta(R, Known->Border))
        return false;
      E = Known;
    } else {
      graph::Region View, Border;
      if (!readRegionDelta(R, View) || !readRegionDelta(R, Border))
        return false;
      if (View.empty() || Border.empty())
        return false;
      E = Views.internAnnounced(Id, View, Border);
    }
  } else {
    E = Views.tryGet(Id);
  }
  if (!E)
    return false; // Unknown id before its announce, or a conflicting one.
  if (!readOpinions(R, E->Border.size(), M.Opinions) || !R.atEnd())
    return false;
  M.setView(*E);
  return true;
}

} // namespace

size_t core::wireVarintSize(uint64_t V) {
  size_t N = 1;
  while (V >= 0x80) {
    V >>= 7;
    ++N;
  }
  return N;
}

void core::wireAppendVarint(std::vector<uint8_t> &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<uint8_t>(V) | 0x80);
    V >>= 7;
  }
  Out.push_back(static_cast<uint8_t>(V));
}

bool core::wireReadVarint(const std::vector<uint8_t> &Bytes, size_t &Pos,
                          uint64_t &V) {
  V = 0;
  for (int Shift = 0; Shift < 64; Shift += 7) {
    if (Pos >= Bytes.size())
      return false;
    uint8_t Byte = Bytes[Pos++];
    V |= static_cast<uint64_t>(Byte & 0x7f) << Shift;
    if (!(Byte & 0x80))
      return true;
  }
  return false; // More than 10 continuation bytes: malformed.
}

void core::encodeMessageV3Into(const Message &M, bool WithAnnounce,
                               std::vector<uint8_t> &Out) {
  assert(M.VB && "message has no interned view");
  assert(M.Opinions.size() == M.border().size() &&
         "opinion vector must align with the border");
  size_t Size = HeaderSize + varintSize(M.Id) + varintSize(M.Round) +
                opinionsSize(M.Opinions);
  if (WithAnnounce)
    Size += regionSizeDelta(M.view()) + regionSizeDelta(M.border());
  Out.resize(Size);
  uint8_t *P = Out.data();
  putU32(P, WireMagic);
  *P++ = WireVersion;
  *P++ = static_cast<uint8_t>((M.Final ? FlagFinal : 0) |
                              (WithAnnounce ? FlagAnnounce : 0));
  putVarint(P, M.Id);
  putVarint(P, M.Round);
  if (WithAnnounce) {
    putRegionDelta(P, M.view());
    putRegionDelta(P, M.border());
  }
  putOpinions(P, M.Opinions);
  assert(P == Out.data() + Out.size() && "size precomputation out of sync");
}

std::vector<uint8_t> core::encodeMessage(const Message &M) {
  std::vector<uint8_t> Out;
  encodeMessageV3Into(M, /*WithAnnounce=*/true, Out);
  return Out;
}

bool core::decodeMessageSelfContained(const std::vector<uint8_t> &Bytes,
                                      ViewTable &Views, Message &Out) {
  Reader R(Bytes);
  uint32_t Magic = 0;
  uint8_t Version = 0, Flags = 0;
  if (!R.u32(Magic) || Magic != WireMagic)
    return false;
  if (!R.u8(Version) || !R.u8(Flags) || Version != WireVersion)
    return false;
  // Only plain announce-carrying frames are portable across processes:
  // id-only frames would need the sender's table, and channel/pure-ack
  // frames belong to a transport this path never sits under.
  if (Flags & ~(FlagFinal | FlagAnnounce))
    return false;
  if (!(Flags & FlagAnnounce))
    return false;
  Out.Final = (Flags & FlagFinal) != 0;
  uint32_t SenderLocalId = 0; // The sender's id assignment; ignored.
  if (!R.varint32(SenderLocalId))
    return false;
  if (!R.varint32(Out.Round) || Out.Round == 0)
    return false;
  graph::Region View, Border;
  if (!readRegionDelta(R, View) || !readRegionDelta(R, Border))
    return false;
  if (View.empty() || Border.empty())
    return false;
  if (!readOpinions(R, Border.size(), Out.Opinions) || !R.atEnd())
    return false;
  Out.setView(Views.intern(View, Border));
  return true;
}

bool core::decodeMessageInto(const std::vector<uint8_t> &Bytes,
                             ViewTable &Views, Message &Out) {
  Reader R(Bytes);
  uint32_t Magic = 0;
  uint8_t Version = 0, Flags = 0;
  if (!R.u32(Magic) || Magic != WireMagic)
    return false;
  if (!R.u8(Version) || !R.u8(Flags) || Version != WireVersion)
    return false;
  return decodeV3(R, Flags, Views, Out);
}

std::optional<Message> core::decodeMessage(const std::vector<uint8_t> &Bytes,
                                           ViewTable &Views) {
  Message M;
  if (!decodeMessageInto(Bytes, Views, M))
    return std::nullopt;
  return M;
}

void core::decodeOwnFrame(NodeId From, const std::vector<uint8_t> &Bytes,
                          ViewTable &Views, Message &Out) {
  if (decodeMessageInto(Bytes, Views, Out))
    return;
  std::fprintf(stderr,
               "cliffedge: a %zu-byte frame sent by node %u failed to "
               "decode; the engine's own codec is broken\n",
               Bytes.size(), From);
  std::abort();
}

void WireEncoder::encode(const Message &M, std::vector<uint8_t> &Out) {
  assert(M.Id != InvalidViewId && "message has no interned view");
  if (M.Id >= Announced.size())
    Announced.resize(M.Id + 1, 0);
  bool WithAnnounce = !Announced[M.Id];
  Announced[M.Id] = 1;
  encodeMessageV3Into(M, WithAnnounce, Out);
}
