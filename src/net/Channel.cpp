//===- net/Channel.cpp - Reliable-FIFO channel sublayer --------------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "net/Channel.h"

#include "core/Wire.h"

#include <cassert>

using namespace cliffedge;
using namespace cliffedge::net;

void net::wrapChannelFrame(const std::vector<uint8_t> &Payload, uint32_t Seq,
                           uint32_t Ack, std::vector<uint8_t> &Out) {
  assert(Payload.size() >= core::kWirePrefixSize && "not a wire frame");
  // The channel extension is defined for the v3 layout, the only one
  // the decoders accept.
  assert(Payload[4] == core::kWireVersion3 &&
         "channel extension requires a wire v3 payload");
  Out.clear();
  Out.reserve(Payload.size() + core::wireVarintSize(Seq) +
              core::wireVarintSize(Ack));
  Out.insert(Out.end(), Payload.begin(),
             Payload.begin() + core::kWirePrefixSize);
  Out[core::kWirePrefixSize - 1] |= core::kWireFlagChannel;
  core::wireAppendVarint(Out, Seq);
  core::wireAppendVarint(Out, Ack);
  Out.insert(Out.end(), Payload.begin() + core::kWirePrefixSize,
             Payload.end());
}

void net::buildPureAck(uint32_t Ack, std::vector<uint8_t> &Out) {
  Out.clear();
  uint32_t Magic = core::kWireMagic;
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<uint8_t>(Magic >> (8 * I)));
  Out.push_back(core::kWireVersion3);
  Out.push_back(core::kWireFlagChannel | core::kWireFlagPureAck);
  core::wireAppendVarint(Out, 0); // Pure acks carry no sequenced payload.
  core::wireAppendVarint(Out, Ack);
}

size_t net::wrappedFrameSize(size_t PayloadSize, uint32_t Seq,
                             uint32_t Ack) {
  return PayloadSize + core::wireVarintSize(Seq) + core::wireVarintSize(Ack);
}

size_t net::pureAckSize(uint32_t Ack) {
  return core::kWirePrefixSize + 1 + core::wireVarintSize(Ack);
}

bool net::parseChannelHeader(const std::vector<uint8_t> &Bytes,
                             ChannelHeader &Out) {
  if (Bytes.size() < core::kWirePrefixSize)
    return false;
  uint32_t Magic = 0;
  for (int I = 0; I < 4; ++I)
    Magic |= static_cast<uint32_t>(Bytes[I]) << (8 * I);
  if (Magic != core::kWireMagic || Bytes[4] != core::kWireVersion3)
    return false;
  uint8_t Flags = Bytes[5];
  if (!(Flags & core::kWireFlagChannel))
    return false;
  size_t Pos = core::kWirePrefixSize;
  uint64_t Seq = 0, Ack = 0;
  if (!core::wireReadVarint(Bytes, Pos, Seq) ||
      !core::wireReadVarint(Bytes, Pos, Ack) || Seq > UINT32_MAX ||
      Ack > UINT32_MAX)
    return false;
  Out.Seq = static_cast<uint32_t>(Seq);
  Out.Ack = static_cast<uint32_t>(Ack);
  Out.PureAck = (Flags & core::kWireFlagPureAck) != 0;
  return true;
}
