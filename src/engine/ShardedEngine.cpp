//===- engine/ShardedEngine.cpp - Sharded replayable backend ---------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
//
// Execution model
// ---------------
// Nodes are hosted on the run's trace::HostCore, the node store, codec and
// crash intake the DES runner uses too. Pending events share one run-wide
// calendar (engine/EventQueue.h) of plain-struct events. The whole run is
// single-threaded. A node's shard (node % S, for S logical shards) is only
// the first sort key of its events: it fixes the merge order, and with it
// the replay. A run alternates two phases:
//
//  * process: the calendar hands over every event carrying the earliest
//    timestamp T, sorted by (shard of the recipient, tie-break key,
//    sequence), and the round runs them in that order. Handlers only
//    touch the acting node's state and append outputs (messages, detector
//    subscriptions, executed crashes, decisions) to the run's one outbox.
//    Nothing a handler emits takes effect before the merge, so events of
//    one round never see each other's outputs.
//
//  * merge: the outbox is drained in production order — the round's
//    event order — one linear pass per output kind. Crashes notify
//    subscribed watchers, subscriptions to already-crashed targets notify
//    immediately (the exactly-once discipline of
//    detector::PerfectFailureDetector), and each multicast frame is
//    decoded once, into the message attached to its pooled buffer, and
//    fanned out to its recipients with per-channel FIFO clamping, exactly
//    like sim::Network. Every new event draws its tie-break key from a
//    SplitMix64 stream seeded by the job, in this deterministic (time,
//    shard, seq) merge order — which makes the run replayable for a (spec,
//    seed) pair while exploring an interleaving genuinely different from
//    the DES backend's.
//
// Events at one timestamp on *different* nodes commute: a handler reads and
// writes only its own node's protocol state, and everything it emits is
// ordered by the merge, not by handler completion. Events on the *same*
// node share a shard and run in deterministic calendar order.
//
// Fault plane (RunnerOptions::Link active)
// ----------------------------------------
// The net:: layers slot into the phase structure:
//
//  * every *send-side* channel state (sequence windows, retransmit
//    timers, link fate draws) is touched only at the merge — handlers
//    stage ack arrivals into the outbox instead of acting on them, and
//    retransmit timers never reach the calendar at all: a timer
//    armed at merge time T is due at T + Rto (fixed per run), so armed
//    timers form a merge-side FIFO in due order. A round runs at the
//    earlier of the calendar's next timestamp and the first due timer,
//    and its due timers run in the merge, in (sender's shard, key, seq)
//    order — the key and sequence drawn at arm time exactly as for a
//    calendar event — and count as processed events;
//  * every *receive-side* state (dedup, reorder buffers) is touched only
//    by the recipient's handlers; the merge reads its cumulative counter
//    (piggyback acks) between rounds.
//
// Channel state is flat and index-addressed. A directed channel gets a
// dense id at its first send (one channelKey -> id map, probed only by the
// merge's send path); its send half and its receive half live in two
// run-wide tables under that id, and its unacked frames in one run-wide
// window pool. Events and staged acks and timers carry the id, so nothing
// downstream of the first send hashes. Each channel is threaded on its
// endpoints' per-node lists, and a crash purges exactly the crashed node's
// channels.
//
// All link-model draws happen in deterministic merge order, so lossy runs
// replay bit-for-bit, exactly like zero-loss ones.
// Wrapped frame bytes are never materialised: the merge decodes each
// multicast payload once as usual and carries (seq, ack) in the event
// record, accounting the wire v3 channel-extension size arithmetically.
//
//===----------------------------------------------------------------------===//

#include "engine/ShardedEngine.h"

#include "core/CliffEdgeNode.h"
#include "detector/SubscriptionRegistry.h"
#include "engine/EventQueue.h"
#include "net/Channel.h"
#include "net/Link.h"
#include "support/FlatHash.h"
#include "support/FramePool.h"
#include "support/PagedStore.h"
#include "support/Random.h"
#include "trace/HostCore.h"
#include "trace/StreamingChecker.h"

#include <algorithm>
#include <cassert>

using namespace cliffedge;
using namespace cliffedge::engine;

namespace {

/// Default logical shard count. Fixed (not hardware-derived) so replays are
/// machine-independent.
constexpr uint32_t DefaultShards = 32;

/// One outgoing unicast leg of a multicast, staged in the outbox.
struct OutMsg {
  NodeId From;
  NodeId To;
  /// Shared across the legs of one multicast; decoded once at merge.
  support::FrameRef Frame;
};

/// One (watcher, target) pair of a <monitorCrash|Targets>, staged in the
/// outbox in production order.
struct OutSub {
  NodeId Watcher;
  NodeId Target;
};

/// A frame a channel holds (send window, receive buffer): the handle keeps
/// the buffer, and with it the attached message \c Msg points to, alive.
struct Leg {
  support::FrameRef Frame;
  const core::Message *Msg = nullptr;
};

using RecvHalf = net::ReliableChannelRecv<Leg>;

/// One cumulative-ack observation staged by a handler. A piggybacked ack
/// rode a data frame of \c Chan and retires the reverse channel's window;
/// a pure ack retires \c Chan's own.
struct OutAckSeen {
  uint32_t Chan;
  uint32_t Cum;
  bool Piggyback;
};

/// One pure ack a receiver owes on data channel \c Chan.
struct OutAckSend {
  uint32_t Chan;
  uint32_t Cum;
};

/// One armed retransmit timer of channel \c Chan, due at \c When. Kept
/// in the merge's FIFO rather than the calendar: every timer is armed at
/// merge time T for T + Rto, so the FIFO is in due order. \c Shard (the
/// sender's), \c Key and \c Seq order the timers due in one tick.
struct Timer {
  SimTime When;
  uint32_t Shard;
  uint32_t Chan;
  uint64_t Key;
  uint64_t Seq;
};

/// Send half of one directed channel, plus the links that replace hashing:
/// its reverse channel and its endpoints' channel lists. Merge-only.
/// Unacked frames live in RunState::Window, ascending by seq.
struct Channel {
  NodeId From;
  NodeId To;
  uint32_t Reverse = NoChannel;   ///< Channel To -> From, once it exists.
  uint32_t NextOfFrom = NoChannel; ///< Next channel on From's list.
  uint32_t NextOfTo = NoChannel;   ///< Next channel on To's list.
  uint32_t NextSeq = 1; ///< Sequence the next data frame is stamped with.
  uint32_t CumAcked = 0;
  uint32_t WinHead = NoChannel; ///< Oldest unacked frame (window pool).
  uint32_t WinTail = NoChannel;
  /// ARQ only: the link model's streams of this channel's data (From ->
  /// To) and of its pure acks (To -> From), resolved once.
  uint32_t DataStream = 0;
  uint32_t AckStream = 0;
  bool TimerArmed = false;
  bool Dead = false; ///< An endpoint crashed: stop tracking, retransmitting.
};

/// One unacked frame in the run-wide window pool: what the merge needs to
/// retransmit it. Free entries chain through \c Next.
struct WindowEntry {
  uint32_t Seq = 0;
  uint32_t Next = NoChannel;
  SimTime LastSent = 0;
  Leg Payload;
};

/// What the engine keeps per node beside the host core's slot, in its own
/// paged store keyed by NodeId.
struct NodeSlot {
  /// Set when the node's CrashExec fires.
  bool Dead = false;
  /// Head of the node's channel list (fault plane; merge-only).
  uint32_t Channels = NoChannel;
};

/// The outputs of a round, appended in the round's event order; the merge
/// drains the queues in that order and clears them.
struct Outbox {
  std::vector<NodeId> Crashed;
  std::vector<OutSub> Subs;
  // Fault plane (empty on the zero-loss path).
  std::vector<OutAckSeen> AcksSeen;
  std::vector<OutAckSend> AcksOwed;
  std::vector<OutMsg> Msgs;
  std::vector<trace::DecisionRecord> Decisions;

  void clear() {
    Crashed.clear();
    Subs.clear();
    AcksSeen.clear();
    AcksOwed.clear();
    Msgs.clear();
    Decisions.clear();
  }
};

struct RunState;

/// The engine's core::NodeHost: one stateless object serves every node.
/// Each effect arrives tagged with the acting node's id and lands in the
/// run's outbox.
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

/// Whole-run state.
struct RunState {
  const trace::RunnerOptions &Opts;
  uint32_t NumShards;
  /// ceil(2^64 / NumShards): shardOf divides by multiplying (Lemire, Kaser
  /// & Kurz, "Faster Remainder by Direct Computation", 2019), exact for
  /// every 32-bit node id, so keying an event pays no hardware divide.
  unsigned __int128 ShardMagic;
  ShardHost Host;
  /// Node store, codec and crash intake. Declared before everything that
  /// holds frames, so every frame is released before its pool goes away.
  trace::HostCore Core;
  support::PagedStore<NodeSlot> Nodes;
  /// Receive halves, by channel id. Appended by the merge; during rounds
  /// only the recipient's handlers touch them, and the merge reads
  /// cumulative counters (piggyback acks) between rounds.
  std::vector<RecvHalf> Recv;
  std::vector<Leg> Released; ///< accept() scratch.
  Outbox Out;

  /// Every pending event.
  EventQueue Calendar;
  /// The round being processed, drained from the calendar.
  std::vector<Event> Round;
  SimTime Now = 0; ///< Timestamp of the round being processed.
  /// Armed retransmit timers, in due order from TimerHead; the round's due
  /// ones are [TimerHead, DueEnd), sorted by (shard, key, seq).
  std::vector<Timer> Timers;
  size_t TimerHead = 0;
  size_t DueEnd = 0;

  // Merge-side state.
  SplitMix64 MergeRng;
  uint64_t TieSeed; ///< Channel tie-key seed, fixed for the whole run.
  uint64_t NextSeq = 0;
  U64FlatMap<SimTime> LastDelivery; ///< FIFO clamp, as in sim::Network.
  /// Graph-backed (every node's <init> subscribes it to its neighbours,
  /// which the topology already records): adjacency is the implicit
  /// table, only non-adjacent extras are stored. Watcher enumeration stays in the
  /// same ascending order as the old explicit lists, so the merge's
  /// tie-break RNG stream — and with it the whole replay — is unchanged.
  detector::SubscriptionRegistry Regs;
  EngineResult Result;

  // Fault plane (merge-side except the receive halves above).
  bool PlaneOn;
  bool Arq; ///< Faults present: full ARQ, no FIFO clamp.
  std::unique_ptr<net::LinkModel> Link;
  SimTime Rto = 0;
  /// channelKey(From, To) -> dense channel id + 1; probed at first send
  /// and once per leg by the merge, nowhere else.
  U64FlatMap<uint32_t> ChanIds;
  std::vector<Channel> Chans; ///< Send halves, by dense id.
  std::vector<WindowEntry> Window; ///< Unacked frames of every channel.
  uint32_t FreeWindow = NoChannel; ///< Free-list head in Window.
  net::ChannelStats ChanStats;

  RunState(const graph::Graph &InG, const trace::RunnerOptions &InOpts,
           uint32_t InShards, uint64_t Seed)
      : Opts(InOpts), NumShards(InShards),
        ShardMagic((((unsigned __int128)1 << 64) + InShards - 1) / InShards),
        Host(*this), Core(InG, InOpts, Host), Nodes(InG.numNodes()),
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
  }

  /// N % NumShards.
  uint32_t shardOf(NodeId N) const {
    uint64_t Fraction = static_cast<uint64_t>(ShardMagic * N);
    return static_cast<uint32_t>(((unsigned __int128)Fraction * NumShards) >>
                                 64);
  }

  /// Files \p E, fully keyed, under its recipient's shard.
  void push(Event &&E) {
    E.Shard = shardOf(E.To);
    Calendar.push(std::move(E));
  }

  /// Schedules \p E at merge time: assigns a fresh seeded tie-break key
  /// and the global sequence in deterministic merge order. Used for
  /// events with no ordering contract between each other (crash
  /// executions, detector notices); deliveries use channelTieKey so FIFO
  /// survives same-tick collisions.
  void schedule(Event E) {
    E.Key = MergeRng.next();
    E.Seq = NextSeq++;
    push(std::move(E));
  }

  /// Seeded tie-break for a delivery on \p Channel landing at \p When:
  /// a pure function of (seed, channel, time), so same-channel same-tick
  /// deliveries tie and fall through to send order (SplitMix64 finalizer
  /// over the mixed words).
  uint64_t channelTieKey(uint64_t Channel, SimTime When) const {
    SplitMix64 Mix(TieSeed ^ Channel ^ (When * 0x9e3779b97f4a7c15ULL));
    return Mix.next();
  }

  /// Whether any event or armed timer is pending.
  bool pending() const {
    return !Calendar.empty() || TimerHead < Timers.size();
  }

  /// Opens the round at the earliest pending timestamp, of the calendar
  /// or of the timer FIFO: drains the calendar's events at that time into
  /// Round and sorts the timers due then. Returns the round's event count,
  /// due timers included.
  uint64_t beginRound() {
    SimTime CalendarTime = Calendar.nextTime();
    Now = CalendarTime;
    if (TimerHead < Timers.size() && Timers[TimerHead].When < Now)
      Now = Timers[TimerHead].When;
    Round.clear();
    if (CalendarTime == Now)
      Calendar.takeRound(Round);
    for (DueEnd = TimerHead;
         DueEnd < Timers.size() && Timers[DueEnd].When == Now; ++DueEnd)
      ;
    std::sort(Timers.begin() + TimerHead, Timers.begin() + DueEnd,
              [](const Timer &A, const Timer &B) {
                if (A.Shard != B.Shard)
                  return A.Shard < B.Shard;
                if (A.Key != B.Key)
                  return A.Key < B.Key;
                return A.Seq < B.Seq;
              });
    return Round.size() + (DueEnd - TimerHead);
  }

  void processRound();
  void merge(SimTime T);
  /// Sends one multicast leg whose frame decodes to \p Msg: accounting,
  /// then the channel sublayer or the FIFO clamp, then the calendar.
  void sendLeg(OutMsg &M, const core::Message *Msg, SimTime T);
  void scheduleNotice(NodeId Watcher, NodeId Target, SimTime T);

  // --- Fault-plane helpers (merge phase only) ------------------------------

  /// The dense id of channel (From -> To), assigned on its first send:
  /// the channel gets its receive half, joins both endpoints' lists and is
  /// paired with its reverse.
  uint32_t channelId(NodeId From, NodeId To) {
    uint32_t &Known = ChanIds[net::channelKey(From, To)];
    if (Known)
      return Known - 1;
    uint32_t Id = static_cast<uint32_t>(Chans.size());
    Known = Id + 1;
    Channel Ch;
    Ch.From = From;
    Ch.To = To;
    Recv.emplace_back();
    if (Arq) {
      Ch.DataStream = Link->streamIndex(From, To);
      Ch.AckStream = Link->streamIndex(To, From);
    }
    NodeSlot &FromSlot = Nodes.mut(From);
    Ch.NextOfFrom = FromSlot.Channels;
    FromSlot.Channels = Id;
    if (To != From) {
      NodeSlot &ToSlot = Nodes.mut(To);
      Ch.NextOfTo = ToSlot.Channels;
      ToSlot.Channels = Id;
    }
    // A self-channel is its own reverse (the lookup finds Id itself).
    if (const uint32_t *Rev = ChanIds.find(net::channelKey(To, From))) {
      Ch.Reverse = *Rev - 1;
      if (Ch.Reverse != Id)
        Chans[Ch.Reverse].Reverse = Id;
    }
    Chans.push_back(Ch);
    return Id;
  }

  /// Cumulative sequence channel \p C's sender has received on the
  /// reverse channel — the piggyback ack for its outgoing data.
  uint32_t recvCum(uint32_t C) const {
    const Channel &Ch = Chans[C];
    if (Ch.Reverse == NoChannel)
      return 0;
    return Recv[Ch.Reverse].CumSeq;
  }

  /// Appends one unacked frame to channel \p C's window.
  void track(uint32_t C, uint32_t Seq, SimTime T, Leg Payload) {
    uint32_t W = FreeWindow;
    if (W == NoChannel) {
      W = static_cast<uint32_t>(Window.size());
      Window.emplace_back();
    } else {
      FreeWindow = Window[W].Next;
    }
    WindowEntry &Entry = Window[W];
    Entry.Seq = Seq;
    Entry.Next = NoChannel;
    Entry.LastSent = T;
    Entry.Payload = std::move(Payload);
    Channel &Ch = Chans[C];
    if (Ch.WinTail == NoChannel)
      Ch.WinHead = W;
    else
      Window[Ch.WinTail].Next = W;
    Ch.WinTail = W;
  }

  /// Retires \p Ch's oldest unacked frame.
  void popWindow(Channel &Ch) {
    uint32_t W = Ch.WinHead;
    WindowEntry &Entry = Window[W];
    Ch.WinHead = Entry.Next;
    if (Ch.WinHead == NoChannel)
      Ch.WinTail = NoChannel;
    Entry.Payload = Leg();
    Entry.Next = FreeWindow;
    FreeWindow = W;
  }

  /// Applies a cumulative ack to channel \p C's window.
  void onAck(uint32_t C, uint32_t Cum) {
    Channel &Ch = Chans[C];
    if (Cum <= Ch.CumAcked)
      return;
    Ch.CumAcked = Cum;
    while (Ch.WinHead != NoChannel && Window[Ch.WinHead].Seq <= Cum)
      popWindow(Ch);
  }

  /// Abandons channel \p C: its window is dropped and nothing on it is
  /// tracked or retransmitted again.
  void purge(uint32_t C) {
    Channel &Ch = Chans[C];
    while (Ch.WinHead != NoChannel)
      popWindow(Ch);
    Ch.Dead = true;
  }

  /// Arms channel \p C's retransmit timer for \p When, drawing its key
  /// and sequence in merge order exactly as schedule() would.
  void armTimer(uint32_t C, SimTime When) {
    Chans[C].TimerArmed = true;
    uint64_t Key = MergeRng.next();
    Timers.push_back(Timer{When, shardOf(Chans[C].From), C, Key, NextSeq++});
  }

  /// Runs the round's due timers, then drops them from the FIFO. A timer
  /// whose sender is dead is skipped: the crash purged its channel (crashes
  /// merge first), so it would lapse anyway.
  void runDueTimers(SimTime T) {
    for (size_t I = TimerHead; I < DueEnd; ++I) {
      uint32_t C = Timers[I].Chan; // onTimer may grow Timers.
      if (!Nodes[Chans[C].From].Dead)
        onTimer(C, T);
    }
    TimerHead = DueEnd;
    // Compact once the spent prefix dominates: amortized O(1) per timer,
    // and the FIFO stays as large as the armed set, not the run's history.
    if (TimerHead >= 64 && TimerHead * 2 >= Timers.size()) {
      Timers.erase(Timers.begin(), Timers.begin() + TimerHead);
      DueEnd -= TimerHead;
      TimerHead = 0;
    }
  }

  /// Hands one event (data or pure ack) to the link model: fate draw on
  /// link stream \p Stream, then 0..2 scheduled copies with per-copy
  /// jitter. ARQ mode only.
  void linkSchedule(Event &&Proto, uint32_t Stream, SimTime T) {
    net::LinkModel::Fate Fate = Link->transmitOn(Stream);
    if (Fate.Copies == 0) {
      ++ChanStats.LinkDropped;
      return;
    }
    SimTime Base = Link->baseLatency(Opts.Latency(Proto.From, Proto.To));
    uint64_t ChannelKey = net::channelKey(Proto.From, Proto.To);
    auto Send = [&](Event &&E, SimTime Extra) {
      E.When = T + Base + Extra;
      E.Key = channelTieKey(ChannelKey, E.When);
      E.Seq = NextSeq++;
      push(std::move(E));
    };
    if (Fate.Copies == 2) {
      ++ChanStats.LinkDuplicated;
      Send(Event(Proto), Fate.Extra[0]);
    }
    // The last copy is the prototype itself, frame reference included.
    Send(std::move(Proto), Fate.Extra[Fate.Copies - 1]);
  }

  /// One expired retransmit timer of channel \p C: re-send overdue window
  /// entries and re-arm while anything is outstanding.
  void onTimer(uint32_t C, SimTime T) {
    Channel &Ch = Chans[C];
    Ch.TimerArmed = false;
    if (Ch.Dead || Ch.WinHead == NoChannel)
      return; // All acked or peer gone: the timer lapses.
    if (Nodes[Ch.To].Dead) {
      purge(C);
      return;
    }
    uint32_t Cum = recvCum(C);
    for (uint32_t W = Ch.WinHead; W != NoChannel; W = Window[W].Next) {
      WindowEntry &P = Window[W];
      if (P.LastSent + Rto > T)
        continue;
      ++ChanStats.Retransmits;
      Event E;
      E.K = Event::Deliver;
      E.From = Ch.From;
      E.To = Ch.To;
      E.Chan = C;
      E.ChanSeq = P.Seq;
      E.ChanAck = Cum;
      E.Frame = P.Payload.Frame;
      E.Msg = P.Payload.Msg;
      linkSchedule(std::move(E), Ch.DataStream, T);
      P.LastSent = T;
    }
    armTimer(C, T + Rto);
  }

  /// Abandons every channel that involves a crashed node: a dead process
  /// neither retransmits nor can be delivered to (crash-stop). Channels
  /// the node opens later (a multicast in its crash round) are not
  /// purged: their first transmission still goes out.
  void purgeChannels(NodeId Node) {
    for (uint32_t C = Nodes[Node].Channels; C != NoChannel;) {
      purge(C);
      const Channel &Ch = Chans[C];
      C = Ch.From == Node ? Ch.NextOfFrom : Ch.NextOfTo;
    }
  }
};

void ShardHost::multicast(NodeId From, const graph::Region &To,
                          const core::Message &M) {
  // Recipients share the frame (and, after the merge's single decode, its
  // attached message).
  support::FrameRef Frame = R.Core.encode(From, M);
  for (NodeId Recipient : To)
    R.Out.Msgs.push_back(OutMsg{From, Recipient, Frame});
}

void ShardHost::monitorCrash(NodeId From, const graph::Region &Targets) {
  for (NodeId Target : Targets)
    if (Target != From) // A node does not monitor itself.
      R.Out.Subs.push_back(OutSub{From, Target});
}

void ShardHost::decide(NodeId From, const graph::Region &View,
                       core::Value Chosen) {
  R.Out.Decisions.push_back(
      trace::DecisionRecord{From, View, Chosen, R.Now});
}

core::Value ShardHost::selectValue(NodeId From, const graph::Region &View) {
  return R.Opts.SelectValue(From, View);
}

void RunState::processRound() {
  for (Event &E : Round) {
    switch (E.K) {
    case Event::Deliver:
      if (Nodes[E.To].Dead) {
        ++Result.Stats.MessagesDroppedAtCrashed;
        break;
      }
      if (E.ChanSeq == 0) {
        // Zero-loss path, or the link-shaping-only configuration: the
        // frame carries no channel stamp.
        ++Result.Stats.MessagesDelivered;
        Core.liveNode(E.To).onDeliver(E.From, *E.Msg);
        break;
      }
      if (!Arq) {
        // Stamp-and-verify (`link reliable`): a perfect link under the
        // FIFO clamp must deliver exactly in sequence.
        RecvHalf &RH = Recv[E.Chan];
        assert(E.ChanSeq == RH.CumSeq + 1 &&
               "perfect link delivered out of sequence");
        RH.CumSeq = E.ChanSeq;
        ++Result.Stats.MessagesDelivered;
        Core.liveNode(E.To).onDeliver(E.From, *E.Msg);
        break;
      }
      {
        // Full ARQ. The piggybacked ack retires the reverse channel's
        // window — staged, since send halves are merge-owned.
        Out.AcksSeen.push_back(OutAckSeen{E.Chan, E.ChanAck, true});
        RecvHalf &RH = Recv[E.Chan];
        switch (RH.accept(E.ChanSeq, Leg{std::move(E.Frame), E.Msg},
                          Released)) {
        case net::RecvVerdict::Duplicate:
          ++ChanStats.DupSuppressed;
          break;
        case net::RecvVerdict::Buffered:
          ++ChanStats.Reordered;
          break;
        case net::RecvVerdict::Deliver:
          for (Leg &L : Released) {
            ++Result.Stats.MessagesDelivered;
            Core.liveNode(E.To).onDeliver(E.From, *L.Msg);
          }
          Released.clear();
          break;
        }
        // Ack every data arrival, duplicates included — the original ack
        // may have been the copy the link lost.
        Out.AcksOwed.push_back(OutAckSend{E.Chan, RH.CumSeq});
      }
      break;
    case Event::AckFrame:
      // A pure ack died with a crashed recipient; otherwise stage it for
      // the merge to retire the acked channel's window.
      if (!Nodes[E.To].Dead)
        Out.AcksSeen.push_back(OutAckSeen{E.Chan, E.ChanAck, false});
      break;
    case Event::CrashNotice:
      // Crashed watchers receive nothing (strong accuracy is structural:
      // notices are only ever scheduled for real crashes).
      if (!Nodes[E.To].Dead)
        Core.liveNode(E.To).onCrash(E.From);
      break;
    case Event::CrashExec:
      Nodes.mut(E.To).Dead = true;
      Out.Crashed.push_back(E.To);
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
  auto CrashExecuted = [&](NodeId N) {
    return Core.slot(N).CrashTime <= T;
  };

  // Crashes first, then subscriptions: a watcher subscribing in the same
  // round a target died is notified by the subscription path (the crash
  // path runs before the watcher is registered), never by both.
  for (NodeId Crashed : Out.Crashed) {
    Regs.forEachWatcher(Crashed,
                        [&](NodeId W) { scheduleNotice(W, Crashed, T); });
    if (PlaneOn && Arq)
      purgeChannels(Crashed);
  }

  for (const OutSub &Sub : Out.Subs)
    // A repeat subscription is dropped: at-most-once semantics.
    if (Regs.subscribe(Sub.Watcher, Sub.Target) &&
        CrashExecuted(Sub.Target))
      scheduleNotice(Sub.Watcher, Sub.Target, T);

  // Fault-plane bookkeeping between the rounds: acks retire windows
  // first (so a frame acked this round is not also retransmitted this
  // round), then due timers re-send what is still outstanding, then
  // receivers' owed pure acks enter the link.
  if (PlaneOn && Arq) {
    for (const OutAckSeen &A : Out.AcksSeen) {
      uint32_t C = A.Piggyback ? Chans[A.Chan].Reverse : A.Chan;
      if (C != NoChannel)
        onAck(C, A.Cum);
    }
    runDueTimers(T);
    for (const OutAckSend &A : Out.AcksOwed) {
      const Channel &Ch = Chans[A.Chan];
      ++ChanStats.AcksSent;
      ChanStats.AckBytes += net::pureAckSize(A.Cum);
      Event E;
      E.K = Event::AckFrame;
      E.From = Ch.To;
      E.To = Ch.From;
      E.Chan = A.Chan;
      E.ChanAck = A.Cum;
      linkSchedule(std::move(E), Ch.AckStream, T);
    }
  }

  // Batched message delivery: one decode per frame, into the message
  // attached to its pooled buffer and shared by every recipient; FIFO
  // clamping per directed channel as in sim::Network.
  for (OutMsg &M : Out.Msgs)
    sendLeg(M, &Core.decoded(M.From, M.Frame), T);

  for (trace::DecisionRecord &D : Out.Decisions) {
    if (Opts.StreamingCheck)
      Opts.StreamingCheck->onDecision(D);
    Result.Decisions.push_back(std::move(D));
  }
  Out.clear();
}

void RunState::sendLeg(OutMsg &M, const core::Message *Msg, SimTime T) {
  uint32_t PayloadBytes = static_cast<uint32_t>(M.Frame->size());
  Event E;
  E.K = Event::Deliver;
  E.From = M.From;
  E.To = M.To;
  E.Frame = std::move(M.Frame);
  E.Msg = Msg;
  uint32_t Bytes;

  if (PlaneOn && Arq) {
    // Reliability sublayer: stamp, account the wrapped wire size,
    // track for retransmission, hand the copies to the link. The
    // FIFO clamp is moot — the receive half restores order.
    uint32_t C = channelId(M.From, M.To);
    Channel &Ch = Chans[C];
    E.Chan = C;
    E.ChanSeq = Ch.NextSeq++;
    E.ChanAck = recvCum(C);
    Bytes = static_cast<uint32_t>(
        net::wrappedFrameSize(PayloadBytes, E.ChanSeq, E.ChanAck));
    ++Result.Stats.MessagesSent;
    ++Result.Stats.SentByNode.mut(M.From);
    Result.Stats.BytesSent += Bytes;
    if (Opts.RecordSends)
      Result.SendLog.push_back(sim::SendRecord{T, M.From, M.To, Bytes});
    if (Opts.StreamingCheck)
      Opts.StreamingCheck->onSend(T, M.From, M.To, Bytes);
    if (Nodes[M.To].Dead || Ch.Dead)
      return; // Channels to a crashed peer are abandoned.
    track(C, E.ChanSeq, T, Leg{E.Frame, E.Msg});
    if (!Ch.TimerArmed)
      armTimer(C, T + Rto);
    linkSchedule(std::move(E), Ch.DataStream, T);
    return;
  }

  if (PlaneOn && Opts.Link.Armed) {
    // Stamp-and-verify: sequence numbers ride along, nothing else.
    uint32_t C = channelId(M.From, M.To);
    E.Chan = C;
    E.ChanSeq = Chans[C].NextSeq++;
    Bytes = static_cast<uint32_t>(
        net::wrappedFrameSize(PayloadBytes, E.ChanSeq, 0));
  } else {
    Bytes = PayloadBytes;
  }
  ++Result.Stats.MessagesSent;
  ++Result.Stats.SentByNode.mut(M.From);
  Result.Stats.BytesSent += Bytes;
  if (Opts.RecordSends)
    Result.SendLog.push_back(sim::SendRecord{T, M.From, M.To, Bytes});
  if (Opts.StreamingCheck)
    Opts.StreamingCheck->onSend(T, M.From, M.To, Bytes);
  E.When = T + (PlaneOn ? Link->baseLatency(Opts.Latency(M.From, M.To))
                        : Opts.Latency(M.From, M.To));
  uint64_t ChannelKey = net::channelKey(M.From, M.To);
  if (!Opts.MonotoneLatency || PlaneOn) {
    SimTime &Last = LastDelivery[ChannelKey];
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
  E.Key = channelTieKey(ChannelKey, E.When);
  E.Seq = NextSeq++;
  push(std::move(E));
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

  // Crash plan: known up front, admitted and scheduled before anything
  // runs.
  for (const workload::TimedCrash &C : Job.Plan->Crashes) {
    Run.Core.admitCrash(C.Node, C.When);
    Event E;
    E.K = Event::CrashExec;
    E.From = C.Node;
    E.To = C.Node;
    E.When = C.When;
    Run.schedule(std::move(E));
  }

  // No <init> wave and no start merge: each node runs <init> on its first
  // touch (liveNode), inside the round that delivers its first event.

  // Round loop: open the earliest timestamp, process its events, then
  // merge (due retransmit timers run there).
  uint64_t TotalProcessed = 0;
  bool Quiesced = true;

  while (Run.pending()) {
    if (Options.MaxEvents && TotalProcessed >= Options.MaxEvents) {
      Quiesced = false;
      break;
    }
    TotalProcessed += Run.beginRound();
    Run.processRound();
    Run.merge(Run.Now);
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
  R.Faulty = Run.Core.faulty();
  R.CrashTimes = Run.Core.crashTimes();
  R.FinalMaxViews = Run.Core.finalMaxViews();
  return R;
}
