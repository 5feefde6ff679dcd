//===- sim/Network.cpp - Reliable FIFO message transport -------------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "sim/Network.h"

#include <cassert>
#include <unordered_map>
#include <utility>

using namespace cliffedge;
using namespace cliffedge::sim;

/// The layered fault plane over the DES simulator. Layering, top down:
///
///   protocol multicast            (Network::send)
///     -> reliability sublayer     (seq stamp, window, acks, retransmit)
///       -> link model             (drop / duplicate / jitter per copy)
///         -> simulator deliveries (Simulator::atDeliver)
///       <- receive sublayer       (dedup, reorder buffer, ack emission)
///     <- protocol upcall          (Network::Deliver, in sequence order)
///
/// Everything runs inside the single-threaded event loop, so the whole
/// plane is deterministic per (spec, seed). Three configurations:
///
///  * full ARQ when the spec injects faults (Spec.lossy());
///  * stamp-and-verify when `link reliable` arms the sublayer over a
///    perfect link — frames carry sequence numbers and the receiver
///    checks in-order arrival, but nothing can be lost, so there is no
///    window, no ack traffic and no timer;
///  * link-shaping only (`lat:N` override with no faults) — frames stay
///    unwrapped, the plane just recomputes delivery times.
struct Network::FaultPlane {
  Network &Net;
  net::LinkModel Link;
  SimTime Rto;
  bool Arq; ///< Full ARQ (faults present) vs stamp-and-verify / lat-only.
  support::FramePool Pool;
  std::unordered_map<uint64_t, net::ReliableChannelSend<support::FrameRef>>
      Send;
  std::unordered_map<uint64_t, net::ReliableChannelRecv<support::FrameRef>>
      Recv;
  /// FIFO clamp for the non-ARQ configurations (the link cannot reorder
  /// there, but a non-monotone latency model still can).
  U64FlatMap<SimTime> LastDelivery;
  std::vector<support::FrameRef> Released; ///< accept() scratch.

  FaultPlane(Network &Net, const net::LinkSpec &Spec, uint64_t Seed,
             uint64_t Salt)
      : Net(Net), Link(Spec, Seed, Salt), Rto(Spec.Rto),
        Arq(Spec.lossy()) {}

  const net::LinkSpec &spec() const { return Link.spec(); }

  /// One logical protocol send. Stats and the send log record exactly one
  /// entry here regardless of what the link does to the copies.
  void sendData(NodeId From, NodeId To, const Frame &Payload) {
    if (!spec().Armed && !Arq) {
      // Link shaping only: unwrapped frame, overridden latency, clamped.
      record(From, To, Payload->size());
      SimTime When =
          Net.Sim.now() + Link.baseLatency(Net.Latency(From, To));
      clamp(From, To, When);
      Net.Sim.atDeliver(When, From, To, Payload);
      return;
    }

    uint64_t Key = net::channelKey(From, To);
    net::ReliableChannelSend<support::FrameRef> &SH = Send[Key];
    uint32_t Seq = SH.stamp();
    uint32_t Ack = Arq ? Recv[net::channelKey(To, From)].CumSeq : 0;
    support::FrameRef Wrapped = Pool.acquire();
    net::wrapChannelFrame(*Payload, Seq, Ack, Wrapped.mutableBytes());
    record(From, To, Wrapped->size());
    if (Net.Crashed[To] || SH.Dead)
      return; // Channels to a crashed peer are abandoned (crash-stop).
    if (Arq) {
      SH.track(Seq, Net.Sim.now(), Wrapped);
      armTimer(Key, From, To);
    }
    transmit(From, To, Wrapped);
  }

  /// One raw arrival from the simulator (any configuration, any frame
  /// kind). Runs below Network::Deliver.
  void onRaw(NodeId From, NodeId To, const Frame &Bytes) {
    net::ChannelHeader H;
    if (!net::parseChannelHeader(*Bytes, H)) {
      // Unwrapped frame: the link-shaping-only configuration.
      if (Net.Crashed[To]) {
        ++Net.Stats.MessagesDroppedAtCrashed;
        return;
      }
      deliver(From, To, Bytes);
      return;
    }

    if (H.PureAck) {
      // Acks to a crashed node die silently with it.
      if (!Net.Crashed[To])
        Send[net::channelKey(To, From)].onAck(H.Ack);
      return;
    }

    if (Net.Crashed[To]) {
      ++Net.Stats.MessagesDroppedAtCrashed;
      return;
    }

    if (!Arq) {
      // Stamp-and-verify: a perfect link under a FIFO clamp cannot lose
      // or reorder, so the stamp must arrive exactly in sequence.
      net::ReliableChannelRecv<support::FrameRef> &RH =
          Recv[net::channelKey(From, To)];
      assert(H.Seq == RH.CumSeq + 1 &&
             "perfect link delivered out of sequence");
      RH.CumSeq = H.Seq;
      deliver(From, To, Bytes);
      return;
    }

    // Piggybacked cumulative ack for the reverse channel.
    Send[net::channelKey(To, From)].onAck(H.Ack);

    net::ReliableChannelRecv<support::FrameRef> &RH =
        Recv[net::channelKey(From, To)];
    net::RecvVerdict Verdict = RH.accept(H.Seq, Bytes, Released);
    // Snapshot before delivering: the protocol upcall can send, and a
    // send on a fresh reverse channel may rehash Recv under RH.
    uint32_t Cum = RH.CumSeq;
    switch (Verdict) {
    case net::RecvVerdict::Duplicate:
      ++Net.Stats.Channel.DupSuppressed;
      break;
    case net::RecvVerdict::Buffered:
      ++Net.Stats.Channel.Reordered;
      break;
    case net::RecvVerdict::Deliver: {
      // Move out of the shared scratch first — nested sends re-enter
      // sendData, but never onRaw, so local ownership is enough.
      std::vector<support::FrameRef> Batch;
      Batch.swap(Released);
      for (support::FrameRef &F : Batch)
        deliver(From, To, F);
      break;
    }
    }
    // Ack every data arrival (duplicates included — the original ack may
    // have been the lost copy). Cumulative, so redundant acks are cheap.
    sendAck(To, From, Cum);
  }

  void onCrash(NodeId Node) {
    // Channels to the dead peer stop retransmitting; channels from it
    // stop too (a crashed process sends nothing, not even retries).
    for (auto &Entry : Send) {
      NodeId From = net::channelFrom(Entry.first);
      NodeId To = net::channelTo(Entry.first);
      if (From == Node || To == Node)
        Entry.second.purge();
    }
  }

private:
  void record(NodeId From, NodeId To, size_t Bytes) {
    ++Net.Stats.MessagesSent;
    ++Net.Stats.SentByNode.mut(From);
    Net.Stats.BytesSent += Bytes;
    if (Net.Recording)
      Net.SendLog.push_back(SendRecord{Net.Sim.now(), From, To,
                                       static_cast<uint32_t>(Bytes)});
    if (Net.SendObserver)
      Net.SendObserver(Net.Sim.now(), From, To,
                       static_cast<uint32_t>(Bytes));
  }

  void clamp(NodeId From, NodeId To, SimTime &When) {
    SimTime &Last = LastDelivery[net::channelKey(From, To)];
    if (When < Last)
      When = Last;
    Last = When;
  }

  void deliver(NodeId From, NodeId To, const Frame &Bytes) {
    ++Net.Stats.MessagesDelivered;
    if (Net.Deliver)
      Net.Deliver(From, To, Bytes);
  }

  /// Hands one frame to the link: fate draw, then 0..2 scheduled copies.
  void transmit(NodeId From, NodeId To, const Frame &F) {
    SimTime Base = Link.baseLatency(Net.Latency(From, To));
    if (!Arq) {
      // Perfect link (stamp-and-verify): exactly one copy, clamped.
      SimTime When = Net.Sim.now() + Base;
      clamp(From, To, When);
      Net.Sim.atDeliver(When, From, To, F);
      return;
    }
    net::LinkModel::Fate Fate = Link.transmit(From, To);
    if (Fate.Copies == 0) {
      ++Net.Stats.Channel.LinkDropped;
      return;
    }
    if (Fate.Copies == 2)
      ++Net.Stats.Channel.LinkDuplicated;
    for (uint32_t I = 0; I < Fate.Copies; ++I)
      Net.Sim.atDeliver(Net.Sim.now() + Base + Fate.Extra[I], From, To, F);
  }

  void sendAck(NodeId From, NodeId To, uint32_t Cum) {
    support::FrameRef Ack = Pool.acquire();
    net::buildPureAck(Cum, Ack.mutableBytes());
    ++Net.Stats.Channel.AcksSent;
    Net.Stats.Channel.AckBytes += Ack->size();
    transmit(From, To, Ack);
  }

  void armTimer(uint64_t Key, NodeId From, NodeId To) {
    net::ReliableChannelSend<support::FrameRef> &SH = Send[Key];
    if (SH.TimerArmed)
      return;
    SH.TimerArmed = true;
    Net.Sim.after(Rto, [this, Key, From, To] { timerFire(Key, From, To); });
  }

  void timerFire(uint64_t Key, NodeId From, NodeId To) {
    net::ReliableChannelSend<support::FrameRef> &SH = Send[Key];
    SH.TimerArmed = false;
    if (SH.Dead || SH.Window.empty())
      return; // All acked (or peer gone): the timer simply lapses.
    if (Net.Crashed[To]) {
      SH.purge();
      return;
    }
    SimTime Now = Net.Sim.now();
    for (auto &P : SH.Window)
      if (P.LastSent + Rto <= Now) {
        ++Net.Stats.Channel.Retransmits;
        transmit(From, To, P.Payload);
        P.LastSent = Now;
      }
    armTimer(Key, From, To);
  }
};

Network::Network(Simulator &InSim, uint32_t NumNodes, LatencyModel InLatency)
    : Sim(InSim), Latency(std::move(InLatency)), Crashed(NumNodes) {
  Stats.SentByNode = SendCounts(NumNodes);
  // Deliveries ride the simulator's native delivery events — plain
  // (from, to, frame) records, no per-message closure allocation.
  Sim.setDeliver([this](NodeId From, NodeId To, const Frame &Payload) {
    if (Plane) {
      Plane->onRaw(From, To, Payload);
      return;
    }
    if (Crashed[To]) {
      ++Stats.MessagesDroppedAtCrashed;
      return;
    }
    ++Stats.MessagesDelivered;
    if (Deliver)
      Deliver(From, To, Payload);
  });
}

Network::~Network() = default;

void Network::enableFaultPlane(const net::LinkSpec &Spec, uint64_t Seed,
                               uint64_t Salt) {
  assert(Stats.MessagesSent == 0 &&
         "fault plane must be enabled before the first send");
  if (!Spec.active())
    return; // Zero-loss: today's raw path, untouched.
  Plane.reset(new FaultPlane(*this, Spec, Seed, Salt));
}

void Network::send(NodeId From, NodeId To, Frame Bytes) {
  assert(From < Crashed.size() && To < Crashed.size() &&
         "message endpoint out of range");
  assert(Bytes && "null frame");
  if (Crashed[From])
    return; // A crashed node sends nothing.

  if (Plane) {
    Plane->sendData(From, To, Bytes);
    return;
  }

  ++Stats.MessagesSent;
  ++Stats.SentByNode.mut(From);
  Stats.BytesSent += Bytes->size();
  if (Recording)
    SendLog.push_back(SendRecord{Sim.now(), From, To,
                                 static_cast<uint32_t>(Bytes->size())});
  if (SendObserver)
    SendObserver(Sim.now(), From, To, static_cast<uint32_t>(Bytes->size()));

  SimTime When = Sim.now() + Latency(From, To);
  if (!MonotoneLatency) {
    // FIFO: never deliver before an earlier message on the same channel.
    // A monotone model can never draw an earlier delivery, so the flag
    // skips the per-channel table altogether.
    SimTime &Last = LastDelivery[channelKey(From, To)];
    if (When < Last)
      When = Last;
    Last = When;
  }

  Sim.atDeliver(When, From, To, std::move(Bytes));
}

void Network::crash(NodeId Node) {
  assert(Node < Crashed.size() && "node out of range");
  Crashed.mut(Node) = true;
  if (Plane)
    Plane->onCrash(Node);
}
