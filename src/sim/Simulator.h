//===- sim/Simulator.h - Deterministic discrete-event engine ----*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The discrete-event core every simulated run is built on. Events are
/// (time, sequence) ordered: ties on time break by scheduling order, which
/// together with seeded randomness makes every run bit-reproducible.
///
/// Three event shapes share one queue: generic closures (crash schedules,
/// retransmit timers — rare), native *message deliveries* and native
/// *crash notices* (the steady state). A delivery is a plain (from, to,
/// frame) record and a notice a plain (watcher, target) record, each
/// dispatched to one run-wide handler, so scheduling either moves a few
/// words instead of heap-allocating a std::function closure per event.
///
/// Storage is a calendar: per-timestamp FIFO buckets plus a short sorted
/// list of pending timestamps. Sequence numbers are assigned at schedule
/// time and buckets drain in append order, so the (time, seq) dispatch
/// order is *identical* to the former binary heap's — replays stay
/// bit-for-bit — while push and pop are O(1) instead of an O(log n) sift
/// that shuffles 40-byte entries across a six-figure backlog. Drained
/// bucket slots are recycled, so steady-state traffic runs on warm
/// capacity (the zero-allocation gate in bench_micro covers this).
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_SIM_SIMULATOR_H
#define CLIFFEDGE_SIM_SIMULATOR_H

#include "support/FramePool.h"
#include "support/Ids.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace cliffedge {
namespace sim {

/// Deterministic event loop over abstract integer time.
class Simulator {
public:
  using Handler = std::function<void()>;
  using DeliverHandler = std::function<void(
      NodeId From, NodeId To, const support::FrameRef &Frame)>;
  using NoticeHandler = std::function<void(NodeId Watcher, NodeId Target)>;

  /// Current simulated time (the timestamp of the event being processed).
  SimTime now() const { return Now; }

  /// Schedules \p Fn at absolute time \p When (>= now()).
  void at(SimTime When, Handler Fn);

  /// Schedules \p Fn \p Delay ticks from now.
  void after(SimTime Delay, Handler Fn) { at(Now + Delay, std::move(Fn)); }

  /// Installs the run-wide handler for native delivery events. Must be set
  /// before the first atDeliver().
  void setDeliver(DeliverHandler Fn) { Deliver = std::move(Fn); }

  /// Schedules a message delivery at absolute time \p When: a plain-record
  /// event (no closure allocation) dispatched to the Deliver handler.
  void atDeliver(SimTime When, NodeId From, NodeId To,
                 support::FrameRef Frame);

  /// Installs the run-wide handler for native crash-notice events (the
  /// failure detector's). Must be set before the first atNotice(), and
  /// only once: notice records carry no handler of their own, so a second
  /// detector on the same simulator would take over the first one's. A
  /// second call aborts, in every build type.
  void setNotice(NoticeHandler Fn);

  /// Schedules a <crash|Target> notice for \p Watcher at absolute time
  /// \p When: a plain-record event dispatched to the Notice handler. It
  /// takes a sequence number and a tie-bias key exactly like a closure
  /// scheduled at the same point would, so replacing one by the other
  /// leaves every run's event order unchanged.
  void atNotice(SimTime When, NodeId Watcher, NodeId Target);

  /// Seeds the adversarial delivery tie-break (0 = off). With a non-zero
  /// bias, events sharing a timestamp are drained in a seeded permutation
  /// instead of schedule order — except that deliveries on one directed
  /// channel always keep their mutual order, so the network's FIFO
  /// contract survives and every biased run is still a *legal* execution.
  /// The permutation is a pure function of (bias, channel, time), so a
  /// biased run replays bit-for-bit. Must be set before the first event;
  /// the zero-bias path is byte-identical to the unbiased simulator.
  void setTieBias(uint64_t Bias) { TieBias = Bias; }

  /// Processes the next event. Returns false when the queue is empty.
  bool step();

  /// Runs until the event queue drains (or \p MaxEvents fire — a safety
  /// valve against accidental livelock in tests; 0 means unlimited).
  /// Returns the number of events processed.
  uint64_t run(uint64_t MaxEvents = 0);

  /// Runs until the next pending event lies strictly after \p Until (or
  /// the queue drains). Returns the number of events processed. Lets
  /// harnesses observe a run mid-flight at a deterministic cut.
  uint64_t runUntil(SimTime Until);

  /// True when no event is pending.
  bool idle() const { return Count == 0; }

  /// Pre-sizes the calendar's bookkeeping. Bucket storage itself grows to
  /// the per-timestamp high-water mark within a few rounds and is then
  /// recycled, so this only seeds the timestamp list.
  void reserve(size_t Events) {
    Times.reserve(64);
    Buckets.reserve(64);
    (void)Events;
  }

  /// Number of events currently pending.
  size_t pending() const { return Count; }

  /// Total number of events processed so far.
  uint64_t eventsProcessed() const { return Processed; }

private:
  /// 40 bytes, trivially movable except for the frame handle, so bucket
  /// appends stay cheap. Closures live behind one owning pointer
  /// (allocated per *closure* event — crash schedules and retransmit
  /// timers, never message or notice traffic) instead of inline. The
  /// shape is implied: a frame marks a delivery, a closure a closure
  /// event, neither a crash notice (From = target, To = watcher).
  struct Entry {
    SimTime When;
    uint64_t Seq;
    std::unique_ptr<Handler> Fn; ///< Engaged for closure events.
    support::FrameRef Frame;     ///< Engaged for delivery events.
    NodeId From = InvalidNode;
    NodeId To = InvalidNode;
  };
  /// One timestamp's events in schedule (= Seq) order; Next is the drain
  /// cursor. Handlers may append to the bucket being drained (an event
  /// scheduled at the current time lands behind the cursor, exactly where
  /// its sequence number puts it). Under a tie bias, Sorted marks how far
  /// the biased order has been established; appends past it trigger a
  /// stable re-sort of the undrained tail at the next pop.
  struct Bucket {
    std::vector<Entry> Events;
    size_t Next = 0;
    size_t Sorted = 0;
  };

  void dispatch(Entry &Next);
  void schedule(Entry E);
  /// Biased drain key of one entry: equal for same-channel deliveries (so
  /// a stable sort preserves their FIFO order), unique per closure event.
  uint64_t biasKey(const Entry &E) const;
  /// Establishes the biased order over \p B's undrained tail.
  void biasSort(Bucket &B);
  /// Earliest timestamp with an undrained event (TimeNever when none).
  SimTime nextPendingTime() const;

  std::vector<Bucket> Buckets;
  std::vector<uint32_t> FreeBuckets; ///< Drained slots awaiting reuse.
  /// (timestamp, bucket slot), ascending by timestamp. Short: only a
  /// handful of distinct delivery/detection times are pending at once.
  std::vector<std::pair<SimTime, uint32_t>> Times;
  size_t Count = 0;
  DeliverHandler Deliver;
  NoticeHandler Notice;
  SimTime Now = 0;
  uint64_t NextSeq = 0;
  uint64_t Processed = 0;
  uint64_t TieBias = 0;
};

} // namespace sim
} // namespace cliffedge

#endif // CLIFFEDGE_SIM_SIMULATOR_H
