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
/// as one batch: the earliest bucket is sorted once by (recipient's shard,
/// tie-break key, sequence) and handed to the caller as a flat array, in
/// exactly the order the round processes it.
///
/// Costs per event: an O(1) bucket append at push (a ring slot found by
/// index arithmetic; only a timestamp beyond the ring window, such as a
/// late crash-plan entry, pays a binary search over the far list, once),
/// plus its share of one contiguous std::sort per round. Memory is the
/// fixed ring plus what is bounded by the *pending* timestamps: a drained
/// timestamp leaves the index, and its bucket (with its warm capacity) is
/// recycled for the next new timestamp. The event-delivery microbench
/// (bench_micro: BM_EventDeliverySharded) gates the steady state at zero
/// heap allocations per event.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_ENGINE_EVENTQUEUE_H
#define CLIFFEDGE_ENGINE_EVENTQUEUE_H

#include "core/Message.h"
#include "support/FramePool.h"
#include "support/Ids.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <iterator>
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
  /// \c To's shard: the calendar's first sort key, set when the event is
  /// scheduled so the round sort never divides.
  uint32_t Shard = 0;
  /// Fault plane only: the dense id of the data channel the event belongs
  /// to (a Deliver's own channel, which also addresses its receive half;
  /// the channel an ack retires).
  uint32_t Chan = NoChannel;
  /// Fault plane only (zero otherwise): the channel sequence stamped on a
  /// Deliver, and the piggybacked / pure cumulative ack.
  uint32_t ChanSeq = 0;
  uint32_t ChanAck = 0;
  enum Kind : uint8_t {
    Deliver,     ///< Message arrival: From -> To.
    CrashNotice, ///< Failure-detector <crash|From> at watcher To.
    CrashExec,   ///< Node To crashes now (from the plan).
    AckFrame,    ///< Fault plane: pure cumulative ack From -> To.
  } K = CrashExec;
};

/// Calendar queue of Events: per-timestamp buckets, drained a full
/// timestamp at a time in (Shard, Key, Seq) order. Push and drain must not
/// interleave within one timestamp (the engine's phase structure
/// guarantees this; a push at the timestamp currently being processed
/// simply opens the next sub-round).
///
/// Timestamps within RingTicks of the last drained one (the window) are
/// found by index: a fixed ring of bucket slots, addressed by time modulo
/// RingTicks, with an occupancy bitmap for the earliest. Later timestamps
/// (a crash plan's late entries) wait in a sorted far list and move into
/// the ring when the window slides over them. Pushes never precede the
/// window: the engine schedules nothing before the round it merges.
class EventQueue {
public:
  /// Width of the ring window in ticks: latencies, detection delays and
  /// link jitter land inside it. Fixed, not an option.
  static constexpr SimTime RingTicks = 256;

  EventQueue() {
    std::fill(std::begin(RingSlots), std::end(RingSlots), NoSlot);
  }

  bool empty() const { return Count == 0; }
  size_t size() const { return Count; }

  /// Earliest pending timestamp (TimeNever when empty). Every ring
  /// timestamp precedes every far one.
  SimTime nextTime() const {
    if (RingPending)
      return Base + ((firstOccupied() - Base) & (RingTicks - 1));
    return Far.empty() ? TimeNever : Far.front().When;
  }

  void push(Event &&E) {
    assert(E.When >= Base && "event scheduled before the drained timestamp");
    uint32_t Slot;
    if (E.When - Base < RingTicks) {
      uint32_t &Ring = RingSlots[E.When & (RingTicks - 1)];
      if (Ring == NoSlot)
        occupy(Ring, E.When, acquireBucket());
      Slot = Ring;
    } else {
      auto It = std::lower_bound(
          Far.begin(), Far.end(), E.When,
          [](const Pending &P, SimTime When) { return P.When < When; });
      if (It != Far.end() && It->When == E.When) {
        Slot = It->Slot;
      } else {
        Slot = acquireBucket();
        Far.insert(It, Pending{E.When, Slot});
      }
    }
    Buckets[Slot].push_back(std::move(E));
    ++Count;
  }

  /// Moves every event at the earliest pending timestamp into \p Round,
  /// sorted by (Shard, Key, Seq). \p Round is cleared first; its previous
  /// capacity circulates back through the recycled bucket.
  void takeRound(std::vector<Event> &Round) {
    Round.clear();
    slideTo(nextTime());
    uint32_t &Ring = RingSlots[Base & (RingTicks - 1)];
    uint32_t Slot = Ring;
    Ring = NoSlot;
    Occupied[(Base & (RingTicks - 1)) / 64] &= ~(1ULL << (Base % 64));
    --RingPending;
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

  /// Bookkeeping entries the queue holds (far index capacity plus
  /// buckets), events and the fixed ring aside: bounded by the peak
  /// number of concurrently pending timestamps, however many distinct
  /// timestamps a run has seen.
  size_t footprint() const {
    return Far.capacity() + Buckets.size() + FreeSlots.capacity();
  }

private:
  static constexpr uint32_t NoSlot = ~0u;

  /// One far timestamp and the bucket holding its events.
  struct Pending {
    SimTime When;
    uint32_t Slot;
  };

  /// A drained bucket (warm capacity) when one is free, else a new one.
  uint32_t acquireBucket() {
    if (FreeSlots.empty()) {
      Buckets.emplace_back();
      return static_cast<uint32_t>(Buckets.size() - 1);
    }
    uint32_t Slot = FreeSlots.back();
    FreeSlots.pop_back();
    return Slot;
  }

  /// Files bucket \p Slot under the empty ring slot \p Ring of \p When.
  void occupy(uint32_t &Ring, SimTime When, uint32_t Slot) {
    Ring = Slot;
    Occupied[(When & (RingTicks - 1)) / 64] |= 1ULL << (When % 64);
    ++RingPending;
  }

  /// Ring index of the earliest pending ring timestamp: the first
  /// occupied slot at or after the window start, wrapping once.
  /// RingPending must be non-zero.
  uint32_t firstOccupied() const {
    uint32_t Start = static_cast<uint32_t>(Base & (RingTicks - 1));
    uint32_t Word = Start / 64;
    // Slots below Start in its own word hold the window's last ticks;
    // they are reached after the wrap, when the word is revisited whole.
    uint64_t Bits = Occupied[Word] & (~0ULL << (Start % 64));
    while (!Bits) {
      Word = (Word + 1) % Words;
      Bits = Occupied[Word];
    }
    return Word * 64 + static_cast<uint32_t>(__builtin_ctzll(Bits));
  }

  /// Starts the window at \p T (the earliest pending timestamp) and moves
  /// the far timestamps it now covers into the ring. A ring slot that
  /// already holds the same timestamp absorbs the far bucket's events;
  /// the round sort orders the merged bucket.
  void slideTo(SimTime T) {
    Base = T;
    size_t Moved = 0;
    for (; Moved < Far.size() && Far[Moved].When - Base < RingTicks;
         ++Moved) {
      const Pending &P = Far[Moved];
      uint32_t &Ring = RingSlots[P.When & (RingTicks - 1)];
      if (Ring == NoSlot) {
        occupy(Ring, P.When, P.Slot);
        continue;
      }
      std::vector<Event> &From = Buckets[P.Slot];
      std::vector<Event> &Into = Buckets[Ring];
      Into.insert(Into.end(), std::make_move_iterator(From.begin()),
                  std::make_move_iterator(From.end()));
      From.clear();
      FreeSlots.push_back(P.Slot);
    }
    Far.erase(Far.begin(), Far.begin() + Moved);
  }

  static constexpr uint32_t Words = RingTicks / 64;

  SimTime Base = 0; ///< Window start: the last drained timestamp.
  uint32_t RingSlots[RingTicks]; ///< Bucket per tick, or NoSlot.
  uint64_t Occupied[Words] = {};      ///< Bit per non-empty ring slot.
  uint32_t RingPending = 0;           ///< Occupied ring slots.
  /// Timestamps at or past the window's end, ascending; each owns one
  /// non-empty bucket.
  std::vector<Pending> Far;
  std::vector<std::vector<Event>> Buckets;
  std::vector<uint32_t> FreeSlots; ///< Drained buckets awaiting reuse.
  size_t Count = 0;
};

} // namespace engine
} // namespace cliffedge

#endif // CLIFFEDGE_ENGINE_EVENTQUEUE_H
