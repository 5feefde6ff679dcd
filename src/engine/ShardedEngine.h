//===- engine/ShardedEngine.h - Sharded replayable backend ------*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sharded execution backend, the DES backend's replayable twin with a
/// different interleaving:
///
///  * nodes are hosted on the run's trace::HostCore, the node store, codec
///    and crash intake the DES runner uses too; each node belongs to one
///    of a fixed number of logical shards (its id modulo the count),
///    which is only the first sort key of its events. All events share
///    one run-wide calendar of per-tick buckets — no global heap, no
///    per-event closure allocation (events are plain structs);
///  * execution is round-based: all events of the globally earliest
///    timestamp run in (shard, key, sequence) order (handlers of distinct
///    nodes at one instant commute — they only touch per-node state and
///    emit outputs into the run's outbox);
///  * between rounds a deterministic merge applies the outputs:
///    messages are delivered in batches (each multicast frame is encoded
///    and decoded once, then shared by every recipient),
///    failure-detector subscriptions and crash notifications are resolved
///    with the exactly-once discipline of detector::PerfectFailureDetector,
///    and every new event gets a seeded tie-break key assigned in
///    deterministic (time, shard, seq) merge order — crash and notice
///    events draw fresh SplitMix64 words, while deliveries are keyed by
///    (seed, channel, delivery time) so same-channel same-tick messages
///    tie and fall through to send order (the FIFO channel contract of
///    sim::Network survives the shuffle). One (spec, seed) pair therefore
///    replays bit-for-bit on any machine, while different seeds explore
///    genuinely different interleavings than the DES backend's.
///
/// The engine runs on the calling thread. Parallelism lives one level up:
/// campaigns and hunts run independent jobs on their --jobs threads.
///
/// The perfect failure detector and FIFO-channel semantics mirror the DES
/// stack exactly (strong accuracy/completeness, per-channel delivery
/// clamping, in-flight messages of a crashing sender still delivered,
/// deliveries to crashed nodes dropped and counted), so the paper's
/// convergence claim forces both backends to identical final max_views on
/// correct nodes — which tests/EngineEquivalenceTest.cpp asserts.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_ENGINE_SHARDEDENGINE_H
#define CLIFFEDGE_ENGINE_SHARDEDENGINE_H

#include "engine/Engine.h"

namespace cliffedge {
namespace engine {

/// Sharded round-based backend with a seeded deterministic merge.
class ShardedEngine : public Engine {
public:
  explicit ShardedEngine(EngineOptions Opts = EngineOptions())
      : Opts(Opts) {}

  const char *name() const override { return "sharded"; }
  EngineResult run(const EngineJob &Job) override;

private:
  EngineOptions Opts;
};

} // namespace engine
} // namespace cliffedge

#endif // CLIFFEDGE_ENGINE_SHARDEDENGINE_H
