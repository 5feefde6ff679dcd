//===- engine/EventQueue.h - Run-wide calendar for shard rounds -*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharded engine's event calendar: one queue for the whole run, of
/// per-timestamp buckets. The engine's round discipline (events are only
/// *taken* at the start of a round and only *pushed* during the merge)
/// means the queue never interleaves the two, so a whole round is drained
/// as one batch: the earliest bucket is sorted once by (owning shard,
/// tie-break key, sequence) and handed to the caller as a flat array in
/// which every shard's events form one contiguous slice, in exactly the
/// order that shard processes them.
///
/// Costs per event: a binary search over the pending timestamps and an
/// amortized O(1) bucket append at push, plus its share of one contiguous
/// std::sort per round. Memory is bounded by the *pending* timestamps:
/// a drained timestamp leaves the index, and its bucket (with its warm
/// capacity) is recycled for the next new timestamp. The event-delivery
/// microbench (bench_micro: BM_EventDeliverySharded) gates the steady
/// state at zero heap allocations per event.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_ENGINE_EVENTQUEUE_H
#define CLIFFEDGE_ENGINE_EVENTQUEUE_H

#include "core/Message.h"
#include "support/FramePool.h"
#include "support/Ids.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace cliffedge {
namespace engine {

/// Marks an Event or table entry that names no channel.
constexpr uint32_t NoChannel = ~0u;

/// One pending event. Plain data apart from the frame handle: a Deliver
/// holds a reference to the multicast's pooled frame, whose attached
/// decoded message (decoded once, at merge) \c Msg points into, so fan-out
/// costs one refcount per leg.
struct Event {
  SimTime When = 0;
  uint64_t Key = 0; ///< Seeded tie-break, assigned at merge.
  uint64_t Seq = 0; ///< Global merge sequence (unique, breaks key ties).
  /// Deliver: the frame, which keeps \c Msg alive.
  support::FrameRef Frame;
  /// Deliver: the frame's decoded message.
  const core::Message *Msg = nullptr;
  NodeId From = InvalidNode;
  NodeId To = InvalidNode;
  /// The shard owning \c To: the calendar's first sort key, set when the
  /// event is scheduled so the round sort never divides.
  uint32_t Shard = 0;
  /// Fault plane only: the dense id of the data channel the event belongs
  /// to (a Deliver's own channel; the channel an ack or timer retires).
  uint32_t Chan = NoChannel;
  /// Fault plane Deliver: the channel's receive half in the recipient's
  /// shard table.
  uint32_t RecvSlot = 0;
  /// Fault plane only (zero otherwise): the channel sequence stamped on a
  /// Deliver, and the piggybacked / pure cumulative ack.
  uint32_t ChanSeq = 0;
  uint32_t ChanAck = 0;
  enum Kind : uint8_t {
    Deliver,     ///< Message arrival: From -> To.
    CrashNotice, ///< Failure-detector <crash|From> at watcher To.
    CrashExec,   ///< Node To crashes now (from the plan).
    AckFrame,    ///< Fault plane: pure cumulative ack From -> To.
    TimerCheck,  ///< Fault plane: retransmit check for channel To -> From.
  } K = CrashExec;
};

/// Calendar queue of Events: per-timestamp buckets, drained a full
/// timestamp at a time in (Shard, Key, Seq) order. Push and drain must not
/// interleave within one timestamp (the engine's phase structure
/// guarantees this; a push at the timestamp currently being processed
/// simply opens the next sub-round).
class EventQueue {
public:
  bool empty() const { return Count == 0; }
  size_t size() const { return Count; }

  /// Earliest pending timestamp (TimeNever when empty).
  SimTime nextTime() const {
    return Times.empty() ? TimeNever : Times.front().When;
  }

  void push(Event &&E) {
    auto It = std::lower_bound(
        Times.begin(), Times.end(), E.When,
        [](const Pending &P, SimTime When) { return P.When < When; });
    uint32_t Slot;
    if (It != Times.end() && It->When == E.When) {
      Slot = It->Slot;
    } else {
      // A new pending timestamp takes a drained bucket when one is free.
      if (FreeSlots.empty()) {
        Slot = static_cast<uint32_t>(Buckets.size());
        Buckets.emplace_back();
      } else {
        Slot = FreeSlots.back();
        FreeSlots.pop_back();
      }
      Times.insert(It, Pending{E.When, Slot});
    }
    Buckets[Slot].push_back(std::move(E));
    ++Count;
  }

  /// Moves every event at the earliest pending timestamp into \p Round,
  /// sorted by (Shard, Key, Seq). \p Round is cleared first; its previous
  /// capacity circulates back through the recycled bucket.
  void takeRound(std::vector<Event> &Round) {
    Round.clear();
    uint32_t Slot = Times.front().Slot;
    Times.erase(Times.begin());
    std::vector<Event> &Bucket = Buckets[Slot];
    std::sort(Bucket.begin(), Bucket.end(),
              [](const Event &A, const Event &B) {
                if (A.Shard != B.Shard)
                  return A.Shard < B.Shard;
                if (A.Key != B.Key)
                  return A.Key < B.Key;
                return A.Seq < B.Seq;
              });
    Round.swap(Bucket);
    Count -= Round.size();
    FreeSlots.push_back(Slot);
  }

  /// Bookkeeping entries the queue holds (index capacity plus buckets),
  /// events aside: bounded by the peak number of concurrently pending
  /// timestamps, however many distinct timestamps a run has seen.
  size_t footprint() const {
    return Times.capacity() + Buckets.size() + FreeSlots.capacity();
  }

private:
  /// One pending timestamp and the bucket holding its events.
  struct Pending {
    SimTime When;
    uint32_t Slot;
  };

  /// Pending timestamps, ascending; each owns one non-empty bucket.
  std::vector<Pending> Times;
  std::vector<std::vector<Event>> Buckets;
  std::vector<uint32_t> FreeSlots; ///< Drained buckets awaiting reuse.
  size_t Count = 0;
};

} // namespace engine
} // namespace cliffedge

#endif // CLIFFEDGE_ENGINE_EVENTQUEUE_H
