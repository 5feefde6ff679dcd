//===- net/Channel.h - Reliable-FIFO channel sublayer -----------*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The upper layer of the fault plane: a per-ordered-pair ARQ sublayer
/// that re-establishes the paper's §2.2 channel abstraction — reliable,
/// FIFO, exactly-once — on top of the lossy links net/Link.h injects.
///
/// Mechanics, per directed channel (from, to):
///
///  * the sender stamps consecutive sequence numbers into a wire v3
///    channel extension (core::kWireFlagChannel: varint seq + varint
///    cumulative ack spliced after the 6-byte prefix), keeps unacked
///    frames in a send window, and retransmits overdue ones on a timer;
///  * the receiver delivers in sequence order, buffers out-of-order
///    arrivals, suppresses duplicates (link dups and retransmit crossings
///    alike), and acks cumulatively: piggybacked on reverse-channel data
///    frames plus an immediate pure-ack frame (core::kWireFlagPureAck)
///    per data arrival, so a sender with nothing to say still learns.
///
/// Channels to a crashed node are abandoned — the crash-stop model only
/// promises delivery between correct processes, and an unacked frame to a
/// dead peer would otherwise retransmit forever.
///
/// This header holds the transport-agnostic pieces: the wrap/parse codec
/// for the wire extension, the send/receive state machines (templated on
/// the payload a transport buffers — byte frames for the DES network and
/// the proc daemons, pre-decoded messages for the sharded engine), and
/// the fault-plane statistics block. Scheduling (event timers, wall-clock
/// retransmission) stays with each transport: sim::Network,
/// engine::ShardedEngine and the proc daemons each drive these machines
/// from their own serialised context.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_NET_CHANNEL_H
#define CLIFFEDGE_NET_CHANNEL_H

#include "support/Ids.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace cliffedge {
namespace net {

/// Fault-plane statistics, folded into sim::NetworkStats (and from there
/// into campaign JSON/CSV). All counters are zero on the zero-loss path.
struct ChannelStats {
  uint64_t Retransmits = 0;    ///< Data frames re-sent by the ARQ timer.
  uint64_t DupSuppressed = 0;  ///< Arrivals discarded as already-delivered.
  uint64_t AcksSent = 0;       ///< Pure-ack frames handed to the link.
  uint64_t AckBytes = 0;       ///< Wire bytes of those pure acks.
  uint64_t LinkDropped = 0;    ///< Transmissions the link model lost.
  uint64_t LinkDuplicated = 0; ///< Extra copies the link model injected.
  uint64_t Reordered = 0;      ///< Arrivals buffered ahead of a gap.

  void merge(const ChannelStats &O) {
    Retransmits += O.Retransmits;
    DupSuppressed += O.DupSuppressed;
    AcksSent += O.AcksSent;
    AckBytes += O.AckBytes;
    LinkDropped += O.LinkDropped;
    LinkDuplicated += O.LinkDuplicated;
    Reordered += O.Reordered;
  }
};

/// Parsed channel extension of one raw frame.
struct ChannelHeader {
  uint32_t Seq = 0; ///< 0 on pure acks (they carry no payload to order).
  uint32_t Ack = 0; ///< Cumulative: every seq <= Ack has been delivered.
  bool PureAck = false;
};

/// Packs a directed channel into the map key every plane uses.
inline uint64_t channelKey(NodeId From, NodeId To) {
  return (static_cast<uint64_t>(From) << 32) | To;
}
inline NodeId channelFrom(uint64_t Key) {
  return static_cast<NodeId>(Key >> 32);
}
inline NodeId channelTo(uint64_t Key) {
  return static_cast<NodeId>(Key & 0xffffffffu);
}

/// Splices the channel extension into an encoded v3 protocol frame:
/// \p Out = prefix(flags |= Channel) + varint seq + varint ack + body.
void wrapChannelFrame(const std::vector<uint8_t> &Payload, uint32_t Seq,
                      uint32_t Ack, std::vector<uint8_t> &Out);

/// Builds a standalone pure-ack frame (prefix + varint 0 + varint ack).
void buildPureAck(uint32_t Ack, std::vector<uint8_t> &Out);

/// Wire size of the wrapped form of a \p PayloadSize -byte frame — lets
/// transports that never materialise wrapped bytes (the sharded engine)
/// keep byte statistics honest.
size_t wrappedFrameSize(size_t PayloadSize, uint32_t Seq, uint32_t Ack);

/// Wire size of buildPureAck's output.
size_t pureAckSize(uint32_t Ack);

/// Parses the prefix + channel extension of a raw frame. Returns false
/// when the frame carries no channel header (a zero-loss-era frame) or is
/// malformed; transports treat that as a plain protocol frame.
bool parseChannelHeader(const std::vector<uint8_t> &Bytes,
                        ChannelHeader &Out);

/// Retransmission delay with exponential backoff: BaseRto doubled per
/// attempt already made, saturating at \p MaxRto. The simulated transports
/// keep their fixed-RTO schedule (attempt count stays 0 there); the proc
/// transport feeds Pending::Attempts through this so a dead or slow peer
/// is probed at a geometrically decaying rate instead of a fixed drumbeat.
inline SimTime backoffRto(SimTime BaseRto, uint32_t Attempts,
                          SimTime MaxRto) {
  // 63 shifts would already overflow; in practice MaxRto clips long before.
  SimTime Rto = BaseRto;
  for (uint32_t I = 0; I < Attempts && Rto < MaxRto; ++I)
    Rto *= 2;
  return Rto < MaxRto ? Rto : MaxRto;
}

/// Sender half of one directed channel: the stamped-sequence window.
/// \p PayloadT is whatever the transport must keep around to retransmit
/// (a byte frame, or a decoded message for the sharded engine).
template <typename PayloadT> struct ReliableChannelSend {
  struct Pending {
    uint32_t Seq = 0;
    SimTime LastSent = 0;
    /// Retransmissions so far; drives backoffRto on transports that opt
    /// in. Transports with a fixed RTO simply never read it.
    uint32_t Attempts = 0;
    PayloadT Payload;
  };

  uint32_t NextSeq = 1; ///< Sequence the next data frame is stamped with.
  uint32_t CumAcked = 0;
  std::deque<Pending> Window;
  bool TimerArmed = false;
  bool Dead = false; ///< Peer crashed: stop tracking and retransmitting.

  uint32_t stamp() { return NextSeq++; }

  void track(uint32_t Seq, SimTime Now, PayloadT Payload) {
    Window.push_back(Pending{Seq, Now, /*Attempts=*/0, std::move(Payload)});
  }

  /// Applies a cumulative ack; returns how many frames it retired.
  size_t onAck(uint32_t Cum) {
    if (Cum <= CumAcked)
      return 0;
    CumAcked = Cum;
    size_t Popped = 0;
    while (!Window.empty() && Window.front().Seq <= Cum) {
      Window.pop_front();
      ++Popped;
    }
    return Popped;
  }

  size_t purge() {
    size_t N = Window.size();
    Window.clear();
    Dead = true;
    return N;
  }
};

enum class RecvVerdict : uint8_t {
  Deliver,   ///< In order: the payload (and any unblocked buffered ones).
  Buffered,  ///< Ahead of a gap: held until the gap fills.
  Duplicate, ///< Already delivered or already buffered: suppressed.
};

/// Receiver half of one directed channel: cumulative in-order delivery
/// with an out-of-order buffer.
template <typename PayloadT> struct ReliableChannelRecv {
  uint32_t CumSeq = 0; ///< Highest in-order sequence delivered.
  /// Out-of-order arrivals, ascending by seq. Small in practice: bounded
  /// by how far the link can run ahead within one RTO.
  std::vector<std::pair<uint32_t, PayloadT>> Held;

  /// Accepts one arrival. On Deliver, \p Released holds the payloads to
  /// hand the protocol, in sequence order (the arrival itself first, then
  /// any buffered frames it unblocked).
  RecvVerdict accept(uint32_t Seq, PayloadT Payload,
                     std::vector<PayloadT> &Released) {
    Released.clear();
    if (Seq <= CumSeq)
      return RecvVerdict::Duplicate;
    if (Seq != CumSeq + 1) {
      auto It = std::lower_bound(
          Held.begin(), Held.end(), Seq,
          [](const std::pair<uint32_t, PayloadT> &P, uint32_t S) {
            return P.first < S;
          });
      if (It != Held.end() && It->first == Seq)
        return RecvVerdict::Duplicate;
      Held.insert(It, {Seq, std::move(Payload)});
      return RecvVerdict::Buffered;
    }
    CumSeq = Seq;
    Released.push_back(std::move(Payload));
    size_t Drained = 0;
    while (Drained < Held.size() && Held[Drained].first == CumSeq + 1) {
      ++CumSeq;
      Released.push_back(std::move(Held[Drained].second));
      ++Drained;
    }
    Held.erase(Held.begin(), Held.begin() + Drained);
    return RecvVerdict::Deliver;
  }

  /// accept() with a hard ceiling on the out-of-order buffer. When an
  /// arrival would need buffering and \p MaxHeld frames are already held,
  /// it is dropped instead (\p Dropped set, verdict Duplicate — nothing is
  /// delivered or retained). Correctness is preserved by the ARQ above:
  /// the dropped frame is never acked, so the sender retransmits it once
  /// the gap in front of it has filled. Transports facing a real network
  /// (the proc runtime) use this so a pathological reorder storm cannot
  /// grow the buffer without bound; the simulated transports keep the
  /// unbounded accept(), whose buffer is naturally limited by one RTO.
  RecvVerdict acceptBounded(uint32_t Seq, PayloadT Payload,
                            std::vector<PayloadT> &Released, size_t MaxHeld,
                            bool &Dropped) {
    Dropped = false;
    if (Seq > CumSeq + 1 && Held.size() >= MaxHeld) {
      Released.clear();
      auto It = std::lower_bound(
          Held.begin(), Held.end(), Seq,
          [](const std::pair<uint32_t, PayloadT> &P, uint32_t S) {
            return P.first < S;
          });
      if (It != Held.end() && It->first == Seq)
        return RecvVerdict::Duplicate; // A true dup, not an overflow.
      Dropped = true;
      return RecvVerdict::Duplicate;
    }
    return accept(Seq, std::move(Payload), Released);
  }
};

} // namespace net
} // namespace cliffedge

#endif // CLIFFEDGE_NET_CHANNEL_H
