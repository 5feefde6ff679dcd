//===- core/Wire.h - Message (de)serialisation ------------------*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact binary wire format for protocol messages, shared by the
/// simulated network and the threaded runtime. Serialising for real keeps
/// the byte accounting of the locality benches honest and lets both
/// transports carry the same frames.
///
/// Version 3 layout (current; "varint" is LEB128):
///   u32 magic 'CLEC' (little-endian)   u8 version = 3
///   u8 flags (bit0 = Final, bit1 = Announce, bit2 = Channel, bit3 = PureAck)
///   [Channel only] varint seq   varint cumulative-ack   (ends PureAck frames)
///   varint view-id
///   varint round
///   [Announce only]
///     varint |V|   varint V[0], varint V[i]-V[i-1]...   (sorted, deltas > 0)
///     varint |B|   varint B[0], varint B[i]-B[i-1]...
///   per B member: u8 opinion kind, varint value (Accept only)
///
/// §2.3's instances are view-stable: an instance re-sends the same (V, B)
/// every round, so the region payload is pure redundancy after first
/// contact. WireEncoder therefore announces each view once per sender —
/// the first frame a sender ever emits for a view carries the Announce
/// payload, every later frame is id-only (~a dozen bytes instead of
/// hundreds). A multicast's recipient set is border(V), which is fixed,
/// so "once per sender" is exactly the paper's "once per (instance,
/// channel)": FIFO channels guarantee each recipient sees a sender's
/// announce before any of that sender's id-only frames. Ids come from the
/// run-shared core::ViewTable, which every in-process decoder resolves
/// against. A decoder with a *fresh* table can replay a stream whose
/// announces arrive in dense id order (single-proposer streams, captures
/// replayed from id 0); a channel-local decoder for arbitrary multi-
/// proposer traffic would additionally need a per-stream id remap, which
/// no in-tree transport needs.
///
/// The *Channel* extension (flag bit2) is the reliability sublayer's hook
/// (net/Channel.h): a per-ordered-pair sequence number and a cumulative
/// ack, spliced between the fixed prefix and the protocol body by the
/// transport when a lossy link model is active. Protocol decoders skip the
/// two fields — the transport consumed them before handing the frame up.
/// A frame with bit3 (PureAck) carries *only* the channel header (it acks
/// without piggybacking on data) and is never a protocol message: the
/// decoders reject it, transports consume it below the decode layer.
///
/// Version 2 layout (legacy, still decoded):
///   u32 magic   u8 version = 2   u8 flags(bit0 = Final)
///   varint round
///   varint |V|   varint V[0], varint V[i]-V[i-1]...
///   varint |B|   varint B[0], varint B[i]-B[i-1]...
///   per B member: u8 opinion kind, varint value (Accept only)
///
/// Version 1 layout (legacy, still decoded; all integers little-endian):
///   u32 magic   u8 version = 1   u8 flags(bit0 = Final)
///   u32 round
///   u32 |V|   u32 V ids...
///   u32 |B|   u32 B ids...
///   per B member: u8 opinion kind, u64 value (Accept only)
///
/// Every encoder precomputes the exact frame size and fills a single
/// buffer; the *Into variants reuse the caller's storage so steady-state
/// encoding is allocation-free.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_CORE_WIRE_H
#define CLIFFEDGE_CORE_WIRE_H

#include "core/Message.h"
#include "core/ViewTable.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace cliffedge {
namespace core {

// Shared wire constants. The reliability sublayer (net/Channel.h) splices
// its header into v3 frames and builds pure-ack frames from scratch, so
// the prefix layout and the flag bits are part of the public contract.
constexpr uint32_t kWireMagic = 0x43454C43; // "CLEC", little-endian.
constexpr uint8_t kWireVersion3 = 3;
constexpr size_t kWirePrefixSize = 6; ///< magic + version + flags.
constexpr uint8_t kWireFlagFinal = 1u << 0;
constexpr uint8_t kWireFlagAnnounce = 1u << 1;
constexpr uint8_t kWireFlagChannel = 1u << 2;
constexpr uint8_t kWireFlagPureAck = 1u << 3;

// LEB128 primitives, shared with the net:: channel codec so the frames
// one layer writes and the other skips can never diverge.
size_t wireVarintSize(uint64_t V);
void wireAppendVarint(std::vector<uint8_t> &Out, uint64_t V);
/// Reads one varint at \p Pos, advancing it. False on truncation or an
/// over-long encoding.
bool wireReadVarint(const std::vector<uint8_t> &Bytes, size_t &Pos,
                    uint64_t &V);

/// Serialises \p M as a self-contained v3 frame (announce payload always
/// included) into a fresh buffer. Transports with per-sender state use
/// WireEncoder instead, which elides the payload after first sight.
std::vector<uint8_t> encodeMessage(const Message &M);

/// Serialises \p M in the legacy v2 layout (full regions every frame).
/// Kept for compat tests and the differential wire-version runs.
std::vector<uint8_t> encodeMessageV2(const Message &M);

/// Serialises \p M in the legacy v1 layout. Kept for backward-compat tests
/// and for measuring the size win of the newer layouts.
std::vector<uint8_t> encodeMessageV1(const Message &M);

/// v3 frame into \p Out (cleared and reused, allocation-free once warm).
/// \p WithAnnounce selects whether the region payload rides along.
void encodeMessageV3Into(const Message &M, bool WithAnnounce,
                         std::vector<uint8_t> &Out);

/// Parses any supported frame version. Region payloads (v1/v2 frames, v3
/// announces) are interned into \p Views; id-only v3 frames resolve
/// against it. Returns std::nullopt on any malformed input (wrong
/// magic/version, truncation, unsorted sets, bad opinion kinds, unknown or
/// conflicting view ids) — the transport is trusted, but the decoder still
/// refuses garbage rather than asserting, so fuzz-style tests can probe it.
std::optional<Message> decodeMessage(const std::vector<uint8_t> &Bytes,
                                     ViewTable &Views);

/// Hot-path variant of decodeMessage: decodes into \p Out, reusing its
/// opinion-vector storage. Returns false on malformed input, leaving \p Out
/// unspecified. Steady-state id-only frames decode with zero allocations.
bool decodeMessageInto(const std::vector<uint8_t> &Bytes, ViewTable &Views,
                       Message &Out);

/// Decodes a frame an in-process engine produced itself into \p Out. Such
/// a frame failing to decode is a codec bug, not line noise: dropping it
/// would turn the bug into a missing delivery — a run that quiesces
/// without deciding, or reports a wrong verdict. So this reports the
/// sender and the frame size on stderr and aborts, in every build type.
void decodeOwnFrame(NodeId From, const std::vector<uint8_t> &Bytes,
                    ViewTable &Views, Message &Out);

/// Decodes a *self-contained* v3 frame (encodeMessage / encodeMessageV3Into
/// with the announce payload) against a table whose id space need not match
/// the sender's. The embedded view id is untrusted provenance and ignored;
/// the announced (view, border) is interned *by content* into \p Views.
/// This is the cross-process decode path: every cliffedge-node daemon keeps
/// its own ViewTable, so the dense-replay contract of internAnnounced can
/// never hold between processes — content interning is what makes wire-v3
/// frames portable across address spaces. Rejects id-only frames (no
/// announce payload), channel-extension and pure-ack frames: the proc
/// transport runs its ARQ below the protocol codec, in the datagram header.
bool decodeMessageSelfContained(const std::vector<uint8_t> &Bytes,
                                ViewTable &Views, Message &Out);

/// Per-sender encoder: remembers which views this sender has announced so
/// every later frame for them is id-only. One instance per protocol node
/// per run (ids are run-wide, announce state is per sender). A wire
/// version of 2 or 1 forces the corresponding legacy layout on every frame
/// — the differential engine tests pin v3 results against that baseline.
class WireEncoder {
public:
  explicit WireEncoder(uint8_t Version = 3) : Version(Version) {}

  /// Encodes \p M into \p Out (cleared and reused).
  void encode(const Message &M, std::vector<uint8_t> &Out);

private:
  uint8_t Version;
  std::vector<uint8_t> Announced; ///< Indexed by ViewId; grows on announce.
};

} // namespace core
} // namespace cliffedge

#endif // CLIFFEDGE_CORE_WIRE_H
