//===- engine/ShardedEngine.h - Sharded replayable backend ------*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sharded execution backend, grown out of runtime::ThreadedCluster's
/// node-per-thread demo into a first-class engine:
///
///  * nodes are partitioned over a fixed number of logical shards whose
///    events share one run-wide calendar of per-tick buckets — no global
///    heap, no per-event closure allocation (events are plain structs);
///  * execution is round-based: all events of the globally earliest
///    timestamp run in parallel across shards (handlers of distinct nodes
///    at one instant commute — they only touch per-node state and emit
///    outputs into their worker's outbox);
///  * between rounds a serial deterministic merge applies the outputs:
///    cross-shard messages are delivered in batches (each multicast frame
///    is encoded and decoded once, then shared by every recipient),
///    failure-detector subscriptions and crash notifications are resolved
///    with the exactly-once discipline of detector::PerfectFailureDetector,
///    and every new event gets a seeded tie-break key assigned in
///    deterministic (time, shard, seq) merge order — crash and notice
///    events draw fresh SplitMix64 words, while deliveries are keyed by
///    (seed, channel, delivery time) so same-channel same-tick messages
///    tie and fall through to send order (the FIFO channel contract of
///    sim::Network survives the shuffle). One (spec, seed) pair therefore
///    replays bit-for-bit on any machine and any worker count, while
///    different seeds explore genuinely different interleavings than the
///    DES backend.
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
