//===- net/Link.h - Seeded per-channel link-condition model -----*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bottom layer of the fault plane: raw link conditions beneath every
/// transport. The paper's §2.2 channels are "asynchronous, reliable and
/// ordered (fifo)" — an *abstraction* a real deployment has to build on
/// top of links that drop, duplicate and reorder. LinkSpec describes those
/// raw conditions declaratively (the `link` scenario directive), LinkModel
/// realises them as a seeded stream of per-transmission fates.
///
/// Determinism contract: the fate of the N-th transmission on the directed
/// channel (from, to) is a pure function of (spec, seed, from, to, N) —
/// every channel owns an independent SplitMix64 stream derived from the
/// run seed and the channel key, and every transmit() consumes a fixed
/// number of draws. Per-channel send order is deterministic on every
/// backend, so lossy runs replay bit-for-bit at any worker count.
///
/// The layer above (net/Channel.h) restores the paper's reliable-FIFO
/// contract; `sim::Network`, `engine::ShardedEngine` and
/// `runtime::ThreadedCluster` wire the two together beneath delivery.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_NET_LINK_H
#define CLIFFEDGE_NET_LINK_H

#include "net/Channel.h"
#include "support/FlatHash.h"
#include "support/Ids.h"
#include "support/Random.h"

#include <cstdint>
#include <string>
#include <vector>

namespace cliffedge {
namespace net {

/// Declarative per-channel link conditions (the `link` directive; compact
/// form `drop:0.2,dup:0.01,reorder:15`). Probabilities are stored in basis
/// points (1/10000) so specs round-trip exactly through the canonical
/// writer — no floating-point formatting ambiguity.
struct LinkSpec {
  /// Probability of losing one transmission, basis points. Capped below
  /// 1.0 (9900) — at 1.0 the retransmit loop could never make progress.
  uint32_t DropBp = 0;
  /// Probability of the medium duplicating one transmission, basis points.
  uint32_t DupBp = 0;
  /// Max extra delivery jitter in ticks, drawn uniform per transmission;
  /// enough jitter reorders frames within a channel.
  SimTime Reorder = 0;
  /// Reliability-sublayer retransmit timeout in ticks (`rto:N`).
  SimTime Rto = 50;
  /// >0: fixed per-link latency override in ticks (`lat:N`), replacing the
  /// run's latency model on every link the plane carries.
  SimTime Latency = 0;
  /// `link reliable`: run the channel sublayer (sequence stamping and
  /// in-order verification) even though the link injects no faults. With
  /// faults present the sublayer is implied and this flag is normalized
  /// away by the parser.
  bool Armed = false;

  /// Any fault injected at all — the configurations that need full ARQ
  /// (tracking, acks, retransmission, dedup, reorder buffering).
  bool lossy() const { return DropBp != 0 || DupBp != 0 || Reorder != 0; }

  /// The link model must be consulted per transmission.
  bool shapesLinks() const { return lossy() || Latency != 0; }

  /// Whether the fault plane exists at all. False is the zero-loss
  /// configuration: transports take today's raw path, byte for byte —
  /// no per-message work, no per-channel state.
  bool active() const { return shapesLinks() || Armed; }

  bool operator==(const LinkSpec &O) const {
    return DropBp == O.DropBp && DupBp == O.DupBp && Reorder == O.Reorder &&
           Rto == O.Rto && Latency == O.Latency && Armed == O.Armed;
  }
  bool operator!=(const LinkSpec &O) const { return !(*this == O); }

  /// Canonical single-token form: "none", "reliable", or non-default
  /// fields comma-joined ("drop:0.2,dup:0.01,reorder:15"). Accepted back
  /// by parseLinkCompact; used by `sweep link` values and --link.
  std::string compact() const;
};

/// Parses one `key:value` field token (or the bare "none" / "reliable")
/// into \p Out. \p SeenMask tracks fields already set so duplicates are
/// diagnosed ("none" and "reliable" occupy their own bits). Returns false
/// and sets \p Error on malformed input; performs no normalization.
bool parseLinkField(const std::string &Tok, LinkSpec &Out,
                    uint32_t &SeenMask, std::string &Error);

/// Normalizes a fully parsed spec: faults imply the sublayer (Armed is
/// cleared), and a spec with no observable effect collapses to the
/// default so writeSpec emits `link none` for it.
void normalizeLinkSpec(LinkSpec &S);

/// Parses the compact comma-joined form ("none" | "reliable" |
/// "drop:0.2,dup:0.01"). Normalized on success.
bool parseLinkCompact(const std::string &Tok, LinkSpec &Out,
                      std::string &Error);

/// The seeded realisation of a LinkSpec: one independent SplitMix64
/// stream per directed channel, created on first use. Not thread-safe;
/// every transport consults it from one serialised context (the DES
/// event loop, the sharded engine's merge, a sender's worker thread).
class LinkModel {
public:
  /// A non-zero \p Salt re-derives the effective seed, re-dealing every
  /// channel's fate schedule without touching the spec's rates — the
  /// search plane's link-schedule mutation. Zero keeps the schedules
  /// byte-identical to the unsalted model.
  LinkModel(const LinkSpec &Spec, uint64_t Seed, uint64_t Salt = 0)
      : Spec(Spec), Seed(Salt ? SplitMix64(Seed ^ Salt).next() : Seed) {}

  /// The fate of one transmission: how many copies the medium delivers
  /// (0 = dropped, 2 = duplicated) and each copy's extra jitter (only
  /// Extra[0 .. Copies) is meaningful).
  struct Fate {
    uint32_t Copies = 1;
    SimTime Extra[2] = {0, 0};
  };

  /// Draws the next fate on channel (From, To), consuming a fixed number
  /// of stream values so fates are positional per channel.
  Fate transmit(NodeId From, NodeId To) {
    return transmitOn(streamIndex(From, To));
  }

  /// Index of channel (From, To)'s stream, created on first use. A
  /// transport that keeps per-channel state resolves it once and then
  /// transmits by index, with no lookup per transmission; either way the
  /// channel draws from the same stream.
  uint32_t streamIndex(NodeId From, NodeId To) {
    uint64_t Key = channelKey(From, To);
    uint32_t &Index = StreamIds[Key];
    if (!Index) {
      Streams.emplace_back(Seed ^ 0x6c696e6b6d6f6465ULL ^
                           (Key * 0x9e3779b97f4a7c15ULL));
      Index = static_cast<uint32_t>(Streams.size());
    }
    return Index - 1;
  }

  /// transmit() on the channel whose streamIndex() is \p Stream.
  Fate transmitOn(uint32_t Stream) {
    SplitMix64 &S = Streams[Stream];
    uint64_t DropDraw = S.next();
    uint64_t DupDraw = S.next();
    uint64_t J1 = S.next();
    uint64_t J2 = S.next();
    Fate F;
    if (Spec.DropBp && (DropDraw % 10000) < Spec.DropBp) {
      F.Copies = 0;
      return F;
    }
    if (Spec.DupBp && (DupDraw % 10000) < Spec.DupBp)
      F.Copies = 2;
    if (Spec.Reorder) {
      // Only delivered copies get a jitter: the draw is consumed either
      // way, the division (a hardware divide) only when it is read.
      F.Extra[0] = J1 % (Spec.Reorder + 1);
      if (F.Copies == 2)
        F.Extra[1] = J2 % (Spec.Reorder + 1);
    }
    return F;
  }

  /// Base latency of one copy: the per-link override when set, else the
  /// run latency model's draw (passed in by the transport).
  SimTime baseLatency(SimTime ModelLatency) const {
    return Spec.Latency ? Spec.Latency : ModelLatency;
  }

  const LinkSpec &spec() const { return Spec; }

private:
  LinkSpec Spec;
  uint64_t Seed;
  /// channelKey -> index + 1 into Streams: one flat probe per transmit.
  U64FlatMap<uint32_t> StreamIds;
  std::vector<SplitMix64> Streams;
};

} // namespace net
} // namespace cliffedge

#endif // CLIFFEDGE_NET_LINK_H
