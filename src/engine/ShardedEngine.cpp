//===- engine/ShardedEngine.cpp - Sharded replayable backend ---------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
//
// Execution model
// ---------------
// Nodes are statically partitioned over S logical shards (node % S). Each
// shard owns a binary heap of plain-struct events ordered by
// (time, tie-break key, sequence), and a paged store of its nodes' state
// indexed by node / S: a page materializes on the first write to one of
// its nodes, so a job pays for the nodes its failures touch, not for the
// world. A run alternates two phases:
//
//  * process: every shard pops and handles all of its events carrying the
//    globally earliest timestamp T. Handlers only touch the owning shard's
//    nodes and append outputs (messages, detector subscriptions, executed
//    crashes, decisions) to shard-local outboxes, so shards are data-race
//    free by construction and the phase parallelises over Workers threads.
//
//  * merge (serial): outboxes are drained in deterministic order — shard 0
//    first, production order within a shard. Crashes notify subscribed
//    watchers, subscriptions to already-crashed targets notify immediately
//    (the exactly-once discipline of detector::PerfectFailureDetector),
//    and each multicast frame is decoded once and fanned out to its
//    recipients with per-channel FIFO clamping, exactly like sim::Network.
//    Every new event draws its tie-break key from a SplitMix64 stream
//    seeded by the job, in this deterministic (time, shard, seq) merge
//    order — which makes the run replayable for a (spec, seed) pair while
//    exploring an interleaving genuinely different from the DES backend's.
//
// Events at one timestamp on *different* nodes commute: a handler reads and
// writes only its own node's protocol state, and everything it emits is
// ordered by the merge, not by handler completion. Events on the *same*
// node land in the same shard and run in deterministic heap order.
//
// Fault plane (RunnerOptions::Link active)
// ----------------------------------------
// The net:: layers slot into the phase structure without new locks:
//
//  * every *send-side* channel state (sequence windows, retransmit
//    timers, link fate draws) is touched only at the serial merge —
//    workers stage ack arrivals and timer expiries into shard outboxes
//    instead of acting on them;
//  * every *receive-side* state (dedup, reorder buffers) lives in the
//    recipient's shard and is touched only by that shard's worker.
//
// All link-model draws therefore happen in deterministic merge order, so
// lossy runs replay bit-for-bit at any worker count, exactly like
// zero-loss ones. Wrapped frame bytes are never materialised: the merge
// decodes each multicast payload once as usual and carries (seq, ack) in
// the event record, accounting the wire v3 channel-extension size
// arithmetically.
//
//===----------------------------------------------------------------------===//

#include "engine/ShardedEngine.h"

#include "core/CliffEdgeNode.h"
#include "core/ViewTable.h"
#include "core/Wire.h"
#include "detector/SubscriptionRegistry.h"
#include "engine/EventQueue.h"
#include "net/Channel.h"
#include "net/Link.h"
#include "support/FlatHash.h"
#include "support/FramePool.h"
#include "support/PagedStore.h"
#include "support/Sorted.h"
#include "support/Random.h"
#include "trace/StreamingChecker.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <unordered_map>

using namespace cliffedge;
using namespace cliffedge::engine;

namespace {

/// Default logical shard count. Fixed (not hardware-derived) so replays are
/// machine-independent; Workers only decides how many threads drive them.
constexpr uint32_t DefaultShards = 32;

/// One outgoing unicast leg of a multicast, staged in a shard outbox.
struct OutMsg {
  NodeId From;
  NodeId To;
  /// Shared across the legs of one multicast; decoded once at merge.
  support::FrameRef Frame;
};

/// One <monitorCrash|Targets> staged in a shard outbox.
struct OutSub {
  NodeId Watcher;
  graph::Region Targets;
};

/// The sharded engine buffers pre-decoded messages, not frame bytes.
using MsgPtr = std::shared_ptr<const core::Message>;

/// A send-window entry: what the merge needs to retransmit one frame.
struct SendPayload {
  MsgPtr Msg;
  uint32_t WireBytes = 0;
};

/// One cumulative-ack observation staged by a worker: retire the window
/// of channel (Sender -> Peer) up to Cum.
struct OutAckSeen {
  NodeId Sender;
  NodeId Peer;
  uint32_t Cum;
};

/// One pure ack a receiver owes: send Cum on channel (From -> To).
struct OutAckSend {
  NodeId From;
  NodeId To;
  uint32_t Cum;
};

/// One expired retransmit timer for channel (Sender -> Peer).
struct OutTimer {
  NodeId Sender;
  NodeId Peer;
};

/// One node's engine state, kept in its shard's paged store.
struct NodeSlot {
  /// Unbound until the node's first event; then bound and started.
  core::CliffEdgeNode Node;
  /// Announce-once wire state. A node's multicasts all happen on its
  /// owning shard's thread.
  core::WireEncoder Encoder;
  /// The plan's crash time (TimeNever for correct nodes).
  SimTime CrashTime = TimeNever;
  /// Set by the owning shard when the node's CrashExec fires.
  bool Dead = false;
};

/// Per-shard state: owned nodes' events plus this round's outputs.
struct Shard {
  /// The shard's nodes, indexed by NodeId / NumShards. Shard-private, so
  /// pages materialize without synchronization: during a round only the
  /// owning worker writes it, and the merge (serial) only reads it.
  support::PagedStore<NodeSlot> Slots;
  EventQueue Heap;
  /// Frame recycler for this shard's multicasts. Shard-local: workers
  /// acquire in parallel during the process phase; releases happen at the
  /// serial merge once the single decode is done.
  support::FramePool Frames;
  std::vector<Event> Round; ///< Drain scratch, capacity recycled per round.
  // Outboxes, drained by the merge after every round.
  std::vector<OutMsg> OutMsgs;
  std::vector<OutSub> OutSubs;
  std::vector<NodeId> OutCrashed;
  std::vector<trace::DecisionRecord> OutDecisions;
  // Fault-plane outboxes (empty on the zero-loss path).
  std::vector<OutAckSeen> OutAcksSeen;
  std::vector<OutAckSend> OutAcksOwed;
  std::vector<OutTimer> OutTimers;
  /// Receive halves of every channel whose recipient this shard owns —
  /// only this shard's worker touches them during rounds; the merge reads
  /// cumulative counters (piggyback acks) between rounds.
  std::unordered_map<uint64_t, net::ReliableChannelRecv<MsgPtr>> Recv;
  std::vector<MsgPtr> Released; ///< accept() scratch.
  net::ChannelStats ChanStats;  ///< Receive-side counters (dedup/reorder).
  SimTime Now = 0; ///< Timestamp of the round being processed.
  uint64_t Processed = 0;
  uint64_t Delivered = 0;
  uint64_t Dropped = 0;
};

struct RunState;

/// The engine's core::NodeHost: one stateless object serves every node of
/// every shard. Each effect arrives tagged with the acting node's id and
/// lands in that node's *own* shard's outbox, and a node's events only
/// ever run on its owning shard's worker — so concurrent workers never
/// touch the same outbox through this host.
struct ShardHost final : core::NodeHost {
  explicit ShardHost(RunState &R) : R(R) {}
  void multicast(NodeId From, const graph::Region &To,
                 const core::Message &M) override;
  void monitorCrash(NodeId From, const graph::Region &Targets) override;
  void decide(NodeId From, const graph::Region &View,
              core::Value Chosen) override;
  core::Value selectValue(NodeId From, const graph::Region &View) override;
  RunState &R;
};

/// Whole-run state shared by the coordinator and the shard workers.
struct RunState {
  const graph::Graph &G;
  const trace::RunnerOptions &Opts;
  uint32_t NumShards;
  /// Run-wide view intern table: nodes intern concurrently from worker
  /// threads (mutexed, first-sight only), the merge's decode resolves
  /// ids lock-free.
  core::ViewTable Views;
  std::vector<Shard> Shards;
  ShardHost Host;
  /// One execution domain per shard: a NodeContext's scratch buffers and
  /// NodeTables slab are single-threaded state, and a shard's nodes all
  /// run on one worker. unique_ptr because contexts are pinned (no moves).
  std::vector<std::unique_ptr<core::NodeContext>> Ctxs;

  // Merge-side (serial) state.
  SplitMix64 MergeRng;
  uint64_t TieSeed; ///< Channel tie-key seed, fixed for the whole run.
  uint64_t NextSeq = 0;
  U64FlatMap<SimTime> LastDelivery; ///< FIFO clamp, as in sim::Network.
  /// Graph-backed (the start merge subscribes every node to its border
  /// before any crash executes): adjacency is the implicit table, only
  /// non-adjacent extras are stored. Watcher enumeration stays in the
  /// same ascending order as the old explicit lists, so the merge's
  /// tie-break RNG stream — and with it the whole replay — is unchanged.
  detector::SubscriptionRegistry Regs;
  EngineResult Result;

  // Fault plane (merge-side except the per-shard receive halves above).
  bool PlaneOn;
  bool Arq; ///< Faults present: full ARQ, no FIFO clamp.
  std::unique_ptr<net::LinkModel> Link;
  SimTime Rto = 0;
  /// Send halves of every directed channel; merge-only.
  std::unordered_map<uint64_t, net::ReliableChannelSend<SendPayload>> Send;
  net::ChannelStats ChanStats; ///< Send-side counters.

  RunState(const graph::Graph &InG, const trace::RunnerOptions &InOpts,
           uint32_t InShards, uint64_t Seed)
      : G(InG), Opts(InOpts), NumShards(InShards),
        Views(InG, InOpts.NodeConfig.Ranking), Shards(InShards),
        Host(*this),
        MergeRng(Seed ^ 0x5368617264456e67ULL /* "ShardEng" */),
        TieSeed(SplitMix64(Seed ^ 0x4669666f54696523ULL).next()),
        Regs(InG),
        PlaneOn(InOpts.Link.active()), Arq(InOpts.Link.lossy()),
        Rto(InOpts.Link.Rto) {
    // The adversarial tie-break bias (search plane) re-derives both merge
    // tie-break streams. Same-channel same-tick deliveries still share a
    // channelTieKey and fall through to send order, so per-channel FIFO —
    // and with it the reliable sublayer's stamp contract — survives any
    // bias value; only the interleaving between channels moves. Zero is
    // byte-identical to the unbiased merge.
    if (InOpts.TieBreakBias) {
      TieSeed = SplitMix64(TieSeed ^ InOpts.TieBreakBias).next();
      MergeRng = SplitMix64(Seed ^ 0x5368617264456e67ULL ^
                            SplitMix64(InOpts.TieBreakBias).next());
    }
    if (PlaneOn)
      Link.reset(new net::LinkModel(InOpts.Link, Seed, InOpts.LinkSalt));
    // Shard s owns nodes s, s + S, s + 2S, ...: ceil((N - s) / S) slots.
    for (uint32_t S = 0; S < InShards; ++S)
      Shards[S].Slots = support::PagedStore<NodeSlot>(
          S < InG.numNodes() ? (InG.numNodes() - S + InShards - 1) / InShards
                             : 0);
  }

  uint32_t shardOf(NodeId N) const { return N % NumShards; }

  /// Read-only view of \p N's slot (pristine when never written).
  const NodeSlot &slot(NodeId N) const {
    return Shards[shardOf(N)].Slots[N / NumShards];
  }
  /// Writable slot of \p N. Only the owning shard's worker during a
  /// round, or the serial coordinator outside rounds, may call this.
  NodeSlot &slotMut(NodeId N) {
    return Shards[shardOf(N)].Slots.mut(N / NumShards);
  }

  /// The node about to handle an event: binds and starts it on first
  /// touch (<init> only re-subscribes implicit neighbour pairs under the
  /// graph-backed registry, so deferring it is unobservable).
  core::CliffEdgeNode &liveNode(NodeId N) {
    NodeSlot &S = slotMut(N);
    if (!S.Node.started()) {
      S.Node = core::CliffEdgeNode(N, *Ctxs[shardOf(N)]);
      S.Encoder = core::WireEncoder(Opts.WireVersion);
      S.Node.start();
    }
    return S.Node;
  }

  /// Schedules \p E at merge time: assigns a fresh seeded tie-break key
  /// and the global sequence in deterministic merge order. Used for
  /// events with no ordering contract between each other (crash
  /// executions, detector notices); deliveries use channelTieKey so FIFO
  /// survives same-tick collisions.
  void schedule(Event E) {
    E.Key = MergeRng.next();
    E.Seq = NextSeq++;
    Shards[shardOf(E.To)].Heap.push(std::move(E));
  }

  /// Seeded tie-break for a delivery on \p Channel landing at \p When:
  /// a pure function of (seed, channel, time), so same-channel same-tick
  /// deliveries tie and fall through to send order (SplitMix64 finalizer
  /// over the mixed words).
  uint64_t channelTieKey(uint64_t Channel, SimTime When) const {
    SplitMix64 Mix(TieSeed ^ Channel ^ (When * 0x9e3779b97f4a7c15ULL));
    return Mix.next();
  }

  void processShard(uint32_t S, SimTime T);
  void merge(SimTime T);
  void scheduleNotice(NodeId Watcher, NodeId Target, SimTime T);

  // --- Fault-plane helpers (merge phase only) ------------------------------

  /// Cumulative sequence \p Sender has received on the reverse channel
  /// (Peer -> Sender) — the piggyback ack for Sender's outgoing data.
  uint32_t recvCum(NodeId Sender, NodeId Peer) const {
    const auto &RecvMap = Shards[Sender % NumShards].Recv;
    auto It = RecvMap.find(net::channelKey(Peer, Sender));
    return It == RecvMap.end() ? 0 : It->second.CumSeq;
  }

  void scheduleTimer(NodeId Sender, NodeId Peer, SimTime When) {
    Event E;
    E.K = Event::TimerCheck;
    E.From = Peer;
    E.To = Sender;
    E.When = When;
    schedule(std::move(E));
  }

  /// Hands one event (data or pure ack) to the link model: fate draw,
  /// then 0..2 scheduled copies with per-copy jitter. ARQ mode only.
  void linkSchedule(Event Proto, SimTime T) {
    net::LinkModel::Fate Fate = Link->transmit(Proto.From, Proto.To);
    if (Fate.Copies == 0) {
      ++ChanStats.LinkDropped;
      return;
    }
    if (Fate.Copies == 2)
      ++ChanStats.LinkDuplicated;
    SimTime Base = Link->baseLatency(Opts.Latency(Proto.From, Proto.To));
    uint64_t Channel = net::channelKey(Proto.From, Proto.To);
    for (uint32_t I = 0; I < Fate.Copies; ++I) {
      Event E = Proto;
      E.When = T + Base + Fate.Extra[I];
      E.Key = channelTieKey(Channel, E.When);
      E.Seq = NextSeq++;
      Shards[shardOf(E.To)].Heap.push(std::move(E));
    }
  }

  /// One expired retransmit timer: re-send overdue window entries and
  /// re-arm while anything is outstanding.
  void onTimer(NodeId Sender, NodeId Peer, SimTime T) {
    auto It = Send.find(net::channelKey(Sender, Peer));
    if (It == Send.end())
      return;
    net::ReliableChannelSend<SendPayload> &SH = It->second;
    SH.TimerArmed = false;
    if (SH.Dead || SH.Window.empty())
      return; // All acked or peer gone: the timer lapses.
    if (slot(Peer).Dead) {
      SH.purge();
      return;
    }
    uint32_t Cum = recvCum(Sender, Peer);
    for (auto &P : SH.Window)
      if (P.LastSent + Rto <= T) {
        ++ChanStats.Retransmits;
        Event E;
        E.K = Event::Deliver;
        E.From = Sender;
        E.To = Peer;
        E.Bytes = P.Payload.WireBytes;
        E.ChanSeq = P.Seq;
        E.ChanAck = Cum;
        E.Msg = P.Payload.Msg;
        linkSchedule(std::move(E), T);
        P.LastSent = T;
      }
    SH.TimerArmed = true;
    scheduleTimer(Sender, Peer, T + Rto);
  }

  /// Abandons every channel that involves a crashed node: a dead process
  /// neither retransmits nor can be delivered to (crash-stop).
  void purgeChannels(NodeId Node) {
    for (auto &Entry : Send) {
      NodeId From = net::channelFrom(Entry.first);
      NodeId To = net::channelTo(Entry.first);
      if (From == Node || To == Node)
        Entry.second.purge();
    }
  }
};

void ShardHost::multicast(NodeId From, const graph::Region &To,
                          const core::Message &M) {
  // Encode once into a pooled shard-local buffer; recipients share the
  // frame (and, after the merge's single decode, the parsed message).
  Shard &Sh = R.Shards[R.shardOf(From)];
  support::FrameRef Frame = Sh.Frames.acquire();
  R.slotMut(From).Encoder.encode(M, Frame.mutableBytes());
  for (NodeId Recipient : To)
    Sh.OutMsgs.push_back(OutMsg{From, Recipient, Frame});
}

void ShardHost::monitorCrash(NodeId From, const graph::Region &Targets) {
  R.Shards[R.shardOf(From)].OutSubs.push_back(OutSub{From, Targets});
}

void ShardHost::decide(NodeId From, const graph::Region &View,
                       core::Value Chosen) {
  Shard &Sh = R.Shards[R.shardOf(From)];
  Sh.OutDecisions.push_back(trace::DecisionRecord{From, View, Chosen, Sh.Now});
}

core::Value ShardHost::selectValue(NodeId From, const graph::Region &View) {
  return R.Opts.SelectValue(From, View);
}

void RunState::processShard(uint32_t S, SimTime T) {
  Shard &Sh = Shards[S];
  if (Sh.Heap.nextTime() != T)
    return; // Nothing for this shard this round.
  Sh.Now = T;
  Sh.Heap.takeRound(Sh.Round);
  for (Event &E : Sh.Round) {
    ++Sh.Processed;
    switch (E.K) {
    case Event::Deliver:
      if (slot(E.To).Dead) {
        ++Sh.Dropped;
        break;
      }
      if (E.ChanSeq == 0) {
        // Zero-loss path, or the link-shaping-only configuration: the
        // frame carries no channel stamp.
        ++Sh.Delivered;
        liveNode(E.To).onDeliver(E.From, *E.Msg);
        break;
      }
      if (!Arq) {
        // Stamp-and-verify (`link reliable`): a perfect link under the
        // FIFO clamp must deliver exactly in sequence.
        net::ReliableChannelRecv<MsgPtr> &RH =
            Sh.Recv[net::channelKey(E.From, E.To)];
        assert(E.ChanSeq == RH.CumSeq + 1 &&
               "perfect link delivered out of sequence");
        RH.CumSeq = E.ChanSeq;
        ++Sh.Delivered;
        liveNode(E.To).onDeliver(E.From, *E.Msg);
        break;
      }
      {
        // Full ARQ. The piggybacked ack retires the reverse channel's
        // window — staged, since send halves are merge-owned.
        Sh.OutAcksSeen.push_back(OutAckSeen{E.To, E.From, E.ChanAck});
        net::ReliableChannelRecv<MsgPtr> &RH =
            Sh.Recv[net::channelKey(E.From, E.To)];
        switch (RH.accept(E.ChanSeq, E.Msg, Sh.Released)) {
        case net::RecvVerdict::Duplicate:
          ++Sh.ChanStats.DupSuppressed;
          break;
        case net::RecvVerdict::Buffered:
          ++Sh.ChanStats.Reordered;
          break;
        case net::RecvVerdict::Deliver:
          for (MsgPtr &M : Sh.Released) {
            ++Sh.Delivered;
            liveNode(E.To).onDeliver(E.From, *M);
          }
          break;
        }
        // Ack every data arrival, duplicates included — the original ack
        // may have been the copy the link lost.
        Sh.OutAcksOwed.push_back(OutAckSend{E.To, E.From, RH.CumSeq});
      }
      break;
    case Event::AckFrame:
      // A pure ack died with a crashed recipient; otherwise stage it for
      // the merge to retire the (To -> From) window.
      if (!slot(E.To).Dead)
        Sh.OutAcksSeen.push_back(OutAckSeen{E.To, E.From, E.ChanAck});
      break;
    case Event::TimerCheck:
      // Timer for channel (To -> From). A dead sender retransmits
      // nothing; its windows were purged when the crash merged.
      if (!slot(E.To).Dead)
        Sh.OutTimers.push_back(OutTimer{E.To, E.From});
      break;
    case Event::CrashNotice:
      // Crashed watchers receive nothing (strong accuracy is structural:
      // notices are only ever scheduled for real crashes).
      if (!slot(E.To).Dead)
        liveNode(E.To).onCrash(E.From);
      break;
    case Event::CrashExec:
      slotMut(E.To).Dead = true;
      Sh.OutCrashed.push_back(E.To);
      break;
    }
  }
}

void RunState::scheduleNotice(NodeId Watcher, NodeId Target, SimTime T) {
  Event E;
  E.K = Event::CrashNotice;
  E.From = Target;
  E.To = Watcher;
  E.When = T + Opts.DetectionDelay(Watcher, Target);
  schedule(std::move(E));
}

void RunState::merge(SimTime T) {
  // A target counts as "already crashed" for late subscriptions once its
  // CrashExec has run — i.e. its crash time is <= the round that just
  // finished.
  auto CrashExecuted = [&](NodeId N) { return slot(N).CrashTime <= T; };

  // Crashes first, then subscriptions: a watcher subscribing in the same
  // round a target died is notified by the subscription path (the crash
  // path runs before the watcher is registered), never by both.
  for (uint32_t S = 0; S < NumShards; ++S)
    for (NodeId Crashed : Shards[S].OutCrashed) {
      Regs.forEachWatcher(
          Crashed, [&](NodeId W) { scheduleNotice(W, Crashed, T); });
      if (PlaneOn && Arq)
        purgeChannels(Crashed);
    }

  for (uint32_t S = 0; S < NumShards; ++S)
    for (OutSub &Sub : Shards[S].OutSubs)
      for (NodeId Target : Sub.Targets) {
        if (Target == Sub.Watcher)
          continue; // A node does not monitor itself.
        if (!Regs.subscribe(Sub.Watcher, Target))
          continue; // Already subscribed: at-most-once semantics.
        if (CrashExecuted(Target))
          scheduleNotice(Sub.Watcher, Target, T);
      }

  // Fault-plane bookkeeping between the rounds: acks retire windows
  // first (so a frame acked this round is not also retransmitted this
  // round), then expired timers re-send what is still outstanding, then
  // receivers' owed pure acks enter the link.
  if (PlaneOn && Arq) {
    for (uint32_t S = 0; S < NumShards; ++S)
      for (OutAckSeen &A : Shards[S].OutAcksSeen) {
        auto It = Send.find(net::channelKey(A.Sender, A.Peer));
        if (It != Send.end())
          It->second.onAck(A.Cum);
      }
    for (uint32_t S = 0; S < NumShards; ++S)
      for (OutTimer &Ti : Shards[S].OutTimers)
        onTimer(Ti.Sender, Ti.Peer, T);
    for (uint32_t S = 0; S < NumShards; ++S)
      for (OutAckSend &A : Shards[S].OutAcksOwed) {
        ++ChanStats.AcksSent;
        ChanStats.AckBytes += net::pureAckSize(A.Cum);
        Event E;
        E.K = Event::AckFrame;
        E.From = A.From;
        E.To = A.To;
        E.ChanAck = A.Cum;
        linkSchedule(std::move(E), T);
      }
  }

  // Batched message delivery: one decode per frame, shared by every
  // recipient; FIFO clamping per directed channel as in sim::Network.
  const support::FrameBuf *LastFrame = nullptr;
  std::shared_ptr<const core::Message> Decoded;
  for (uint32_t S = 0; S < NumShards; ++S)
    for (OutMsg &M : Shards[S].OutMsgs) {
      if (M.Frame.get() != LastFrame) {
        // Legs of one multicast are contiguous in the outbox (frames are
        // pool-recycled only after their last leg releases, so the raw
        // pointer cannot recur within one merge batch).
        auto Parsed = std::make_shared<core::Message>();
        core::decodeOwnFrame(M.From, *M.Frame, Views, *Parsed);
        Decoded = std::move(Parsed);
        LastFrame = M.Frame.get();
      }
      Event E;
      E.K = Event::Deliver;
      E.From = M.From;
      E.To = M.To;
      E.Msg = Decoded;
      uint64_t Channel = net::channelKey(M.From, M.To);

      if (PlaneOn && Arq) {
        // Reliability sublayer: stamp, account the wrapped wire size,
        // track for retransmission, hand the copies to the link. The
        // FIFO clamp is moot — the receive half restores order.
        net::ReliableChannelSend<SendPayload> &SH = Send[Channel];
        E.ChanSeq = SH.stamp();
        E.ChanAck = recvCum(M.From, M.To);
        E.Bytes = static_cast<uint32_t>(
            net::wrappedFrameSize(M.Frame->size(), E.ChanSeq, E.ChanAck));
        ++Result.Stats.MessagesSent;
        ++Result.Stats.SentByNode.mut(M.From);
        Result.Stats.BytesSent += E.Bytes;
        if (Opts.RecordSends)
          Result.SendLog.push_back(
              sim::SendRecord{T, M.From, M.To, E.Bytes});
        if (Opts.StreamingCheck)
          Opts.StreamingCheck->onSend(T, M.From, M.To, E.Bytes);
        if (slot(M.To).Dead || SH.Dead)
          continue; // Channels to a crashed peer are abandoned.
        SH.track(E.ChanSeq, T, SendPayload{Decoded, E.Bytes});
        if (!SH.TimerArmed) {
          SH.TimerArmed = true;
          scheduleTimer(M.From, M.To, T + Rto);
        }
        linkSchedule(std::move(E), T);
        continue;
      }

      uint32_t PayloadBytes = static_cast<uint32_t>(M.Frame->size());
      if (PlaneOn && Opts.Link.Armed) {
        // Stamp-and-verify: sequence numbers ride along, nothing else.
        net::ReliableChannelSend<SendPayload> &SH = Send[Channel];
        E.ChanSeq = SH.stamp();
        E.Bytes = static_cast<uint32_t>(
            net::wrappedFrameSize(PayloadBytes, E.ChanSeq, 0));
      } else {
        E.Bytes = PayloadBytes;
      }
      ++Result.Stats.MessagesSent;
      ++Result.Stats.SentByNode.mut(M.From);
      Result.Stats.BytesSent += E.Bytes;
      if (Opts.RecordSends)
        Result.SendLog.push_back(sim::SendRecord{T, M.From, M.To, E.Bytes});
      if (Opts.StreamingCheck)
        Opts.StreamingCheck->onSend(T, M.From, M.To, E.Bytes);
      E.When = T + (PlaneOn ? Link->baseLatency(Opts.Latency(M.From, M.To))
                            : Opts.Latency(M.From, M.To));
      if (!Opts.MonotoneLatency || PlaneOn) {
        SimTime &Last = LastDelivery[Channel];
        if (E.When < Last)
          E.When = Last;
        Last = E.When;
      }
      // FIFO within a tick: deliveries on one channel that land at the
      // same timestamp must be handled in send order. Keying the tie-break
      // by (seed, channel, time) instead of a fresh draw gives equal keys
      // exactly there, so the order falls through to Seq — which is merge
      // (= send) order — while messages on *different* channels still
      // shuffle under the seeded permutation.
      E.Key = channelTieKey(Channel, E.When);
      E.Seq = NextSeq++;
      Shards[shardOf(E.To)].Heap.push(std::move(E));
    }

  for (uint32_t S = 0; S < NumShards; ++S) {
    Shard &Sh = Shards[S];
    for (trace::DecisionRecord &D : Sh.OutDecisions) {
      if (Opts.StreamingCheck)
        Opts.StreamingCheck->onDecision(D);
      Result.Decisions.push_back(std::move(D));
    }
    Sh.OutCrashed.clear();
    Sh.OutSubs.clear();
    Sh.OutMsgs.clear();
    Sh.OutDecisions.clear();
    Sh.OutAcksSeen.clear();
    Sh.OutAcksOwed.clear();
    Sh.OutTimers.clear();
  }
}

} // namespace

EngineResult ShardedEngine::run(const EngineJob &Job) {
  const graph::Graph &G = *Job.G;
  // One shared defaulting path with the DES stack: unset options can
  // never make the backends materialize different runs.
  trace::RunnerOptions Options = trace::withRunnerDefaults(Job.Options);

  uint32_t NumShards = Opts.Shards ? Opts.Shards : DefaultShards;
  NumShards = std::min<uint32_t>(std::max<uint32_t>(NumShards, 1),
                                 std::max<uint32_t>(G.numNodes(), 1));

  RunState Run(G, Options, NumShards, Job.Seed);
  Run.Result.Stats.SentByNode = sim::SendCounts(G.numNodes());
  Run.Result.CrashTimes.assign(G.numNodes(), TimeNever);

  // Per-shard execution domains; nodes bind to their shard's context on
  // first touch, effects route through the shared ShardHost into
  // shard-local outboxes.
  Run.Ctxs.reserve(NumShards);
  for (uint32_t S = 0; S < NumShards; ++S)
    Run.Ctxs.emplace_back(new core::NodeContext(G, Run.Views,
                                                Options.NodeConfig,
                                                Run.Host));

  // Crash plan: known up front, scheduled before anything runs. A node
  // outside the topology or named twice is a malformed plan; it would
  // index past the shard stores or double-crash a node, so die loudly in
  // every build type (the DES runner does the same).
  for (const workload::TimedCrash &C : Job.Plan->Crashes) {
    if (C.Node >= G.numNodes()) {
      std::fprintf(stderr,
                   "cliffedge: crash plan names node %u, outside the "
                   "%u-node topology\n",
                   C.Node, G.numNodes());
      std::abort();
    }
    if (Run.Result.Faulty.contains(C.Node)) {
      std::fprintf(stderr,
                   "cliffedge: crash plan schedules node %u twice\n",
                   C.Node);
      std::abort();
    }
    Run.slotMut(C.Node).CrashTime = C.When;
    Run.Result.CrashTimes[C.Node] = C.When;
    Run.Result.Faulty.insert(C.Node);
    if (Options.StreamingCheck)
      Options.StreamingCheck->onCrash(C.Node, C.When);
    Event E;
    E.K = Event::CrashExec;
    E.From = C.Node;
    E.To = C.Node;
    E.When = C.When;
    Run.schedule(std::move(E));
  }

  // No <init> wave and no start merge: each node runs <init> on its first
  // touch (liveNode), inside the round that delivers its first event.

  // Round loop: process the earliest timestamp everywhere, then merge.
  uint64_t TotalProcessed = 0;
  bool Quiesced = true;
  unsigned Workers = std::max(1u, Opts.Workers);
  Workers = std::min<unsigned>(Workers, NumShards);

  auto NextTime = [&]() -> SimTime {
    SimTime T = TimeNever;
    for (Shard &Sh : Run.Shards)
      T = std::min(T, Sh.Heap.nextTime());
    return T;
  };

  if (Workers <= 1) {
    for (;;) {
      SimTime T = NextTime();
      if (T == TimeNever)
        break;
      if (Options.MaxEvents && TotalProcessed >= Options.MaxEvents) {
        Quiesced = false;
        break;
      }
      for (uint32_t S = 0; S < NumShards; ++S)
        Run.processShard(S, T);
      TotalProcessed = 0;
      for (Shard &Sh : Run.Shards)
        TotalProcessed += Sh.Processed;
      Run.merge(T);
    }
  } else {
    // Persistent worker team, generation-stepped: the coordinator publishes
    // a round's timestamp, workers process their shards (shard s belongs to
    // worker s % Workers), the coordinator merges after the barrier.
    std::mutex Mu;
    std::condition_variable StartCv, DoneCv;
    uint64_t Generation = 0;
    unsigned Remaining = 0;
    SimTime RoundTime = 0;
    bool Stop = false;

    std::vector<std::thread> Team;
    Team.reserve(Workers);
    for (unsigned W = 0; W < Workers; ++W)
      Team.emplace_back([&, W] {
        uint64_t Seen = 0;
        for (;;) {
          SimTime T;
          {
            std::unique_lock<std::mutex> Lock(Mu);
            StartCv.wait(Lock,
                         [&] { return Stop || Generation != Seen; });
            if (Stop)
              return;
            Seen = Generation;
            T = RoundTime;
          }
          for (uint32_t S = W; S < NumShards; S += Workers)
            Run.processShard(S, T);
          {
            std::lock_guard<std::mutex> Lock(Mu);
            if (--Remaining == 0)
              DoneCv.notify_one();
          }
        }
      });

    for (;;) {
      SimTime T = NextTime();
      if (T == TimeNever)
        break;
      if (Options.MaxEvents && TotalProcessed >= Options.MaxEvents) {
        Quiesced = false;
        break;
      }
      {
        std::lock_guard<std::mutex> Lock(Mu);
        RoundTime = T;
        Remaining = Workers;
        ++Generation;
      }
      StartCv.notify_all();
      {
        std::unique_lock<std::mutex> Lock(Mu);
        DoneCv.wait(Lock, [&] { return Remaining == 0; });
      }
      TotalProcessed = 0;
      for (Shard &Sh : Run.Shards)
        TotalProcessed += Sh.Processed;
      Run.merge(T);
    }

    {
      std::lock_guard<std::mutex> Lock(Mu);
      Stop = true;
    }
    StartCv.notify_all();
    for (std::thread &Th : Team)
      Th.join();
  }

  // Budget semantics must match DES even though rounds are coarser than
  // single events: DES stops at event N exactly, so any run that *needed*
  // more than the budget is a truncated error there — a sharded run that
  // overshot within its final rounds must report the same verdict rather
  // than a green result the reference backend can never produce. (A run
  // that drains at exactly the budget is legitimate on both.)
  if (Options.MaxEvents && TotalProcessed > Options.MaxEvents)
    Quiesced = false;

  EngineResult R = std::move(Run.Result);
  R.Events = TotalProcessed;
  R.Quiesced = Quiesced;
  R.Stats.Channel = Run.ChanStats;
  for (Shard &Sh : Run.Shards) {
    R.Stats.MessagesDelivered += Sh.Delivered;
    R.Stats.MessagesDroppedAtCrashed += Sh.Dropped;
    R.Stats.Channel.merge(Sh.ChanStats);
  }
  // Touched nodes only, gathered shard by shard, then put in id order.
  for (Shard &Sh : Run.Shards)
    Sh.Slots.forEachMaterialized([&R](size_t, const NodeSlot &S) {
      if (S.Node.started() && !S.Node.maxView().empty())
        R.FinalMaxViews.emplace_back(S.Node.id(), S.Node.maxView());
    });
  std::sort(R.FinalMaxViews.begin(), R.FinalMaxViews.end(),
            [](const NodeMaxView &A, const NodeMaxView &B) {
              return A.first < B.first;
            });
  return R;
}
