//===- engine/Engine.h - Pluggable execution backends -----------*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The backend-agnostic execution layer: an Engine takes one fully
/// materialized job (topology + timed crash plan + runner options), runs the
/// protocol to quiescence, and surfaces everything the checkers, timelines
/// and benches consume as plain data (EngineResult). Two implementations
/// exist:
///
///  * DesEngine (engine/DesEngine.h) wraps the single-threaded deterministic
///    discrete-event simulator (trace::ScenarioRunner) — the reference
///    interleaving source;
///  * ShardedEngine (engine/ShardedEngine.h) partitions the nodes over N
///    shards on one run-wide event calendar, runs each round's busy shards
///    in shard order and merges their cross-shard output in a seeded
///    deterministic order, so every run replays.
///
/// Running both backends on the same (spec, seed) and comparing CD1..CD7
/// verdicts plus the final per-node max_views turns every scenario into a
/// differential test of the paper's convergence claim — the interleavings
/// differ, the converged outcome must not (tests/EngineEquivalenceTest.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_ENGINE_ENGINE_H
#define CLIFFEDGE_ENGINE_ENGINE_H

#include "graph/Graph.h"
#include "graph/Region.h"
#include "sim/Network.h"
#include "trace/Checker.h"
#include "trace/Runner.h"
#include "workload/CrashPlans.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace cliffedge {
namespace engine {

/// The available execution backends.
enum class BackendKind : uint8_t {
  Des,     ///< Deterministic discrete-event simulation (reference).
  Sharded, ///< Sharded engine with deterministic merge (replayable).
};

/// Canonical lowercase name ("des" | "sharded") for specs and CLIs.
const char *backendName(BackendKind K);

/// Parses a backend name; returns false and sets \p Error on junk.
bool parseBackendName(const std::string &Tok, BackendKind &Out,
                      std::string &Error);

/// Execution parameters of an engine, outside the spec. Every engine runs
/// on the calling thread.
struct EngineOptions {
  /// Ignored: no engine reads it. Kept only because the frozen perfbench
  /// harness (perfbench/src/Workload.cpp) still assigns it; delete it
  /// together with that assignment.
  unsigned Workers = 1;

  /// Logical shard count (ShardedEngine only). Part of the replay key: the
  /// shards order the merge. Fixed by default (not hardware-derived) so a
  /// (spec, seed) pair replays identically on any machine; 0 picks the
  /// default of 32 (capped at the node count).
  uint32_t Shards = 0;
};

/// One fully materialized run: everything is built before the engine
/// starts, so backends cannot diverge on materialization.
struct EngineJob {
  const graph::Graph *G = nullptr;
  const workload::CrashPlan *Plan = nullptr;
  /// Latency/detection closures may capture RNGs by reference; the caller
  /// keeps them alive for the duration of run().
  trace::RunnerOptions Options;
  /// Seeds the sharded engine's merge tie-break stream; ignored by DES.
  uint64_t Seed = 0;
};

/// One node's max_view at quiescence (see EngineResult::FinalMaxViews).
using NodeMaxView = std::pair<NodeId, graph::Region>;

/// Everything a finished run produced, as plain data. trace::Timeline and
/// trace::Checker consume it via toCheckInput().
///
/// The result is sized by what the failure wave touched, not by the
/// world: apart from CrashTimes, nothing here holds an entry per node.
struct EngineResult {
  /// Every <decide|V,d> with provenance, in a backend-deterministic order.
  std::vector<trace::DecisionRecord> Decisions;
  /// All nodes the plan crashed.
  graph::Region Faulty;
  /// Crash time per node (TimeNever for correct nodes), indexed by id.
  /// The one node-indexed array of a result: filled by scattering the
  /// plan's crashes into a TimeNever-initialized vector.
  std::vector<SimTime> CrashTimes;
  /// Per-send records when RunnerOptions::RecordSends is on.
  std::vector<sim::SendRecord> SendLog;
  /// Sparse final max_views: (node, max_view) for every node whose
  /// max_view is non-empty at quiescence, ascending by node. A node
  /// absent from the list ended with an empty max_view (it never observed
  /// a crash). Correct nodes have converged; faulty nodes' views are
  /// frozen wherever the interleaving caught them.
  std::vector<NodeMaxView> FinalMaxViews;
  /// Transport statistics (sent/delivered/dropped/bytes). Stats.SentByNode
  /// is a paged counter: pages exist only around nodes that sent, and
  /// SentByNode[N] reads 0 for every other node.
  sim::NetworkStats Stats;
  /// Events the backend processed (backend-specific unit of work).
  uint64_t Events = 0;
  /// False when RunnerOptions::MaxEvents aborted the run — the numbers
  /// describe a truncated execution and must not be checked.
  bool Quiesced = true;
};

/// Adapts a finished run for trace::Checker / trace::Timeline. The input
/// borrows \p R's crash times and send log (CheckInput::CrashTimesRef,
/// CheckInput::SendLog) instead of copying them, so making it costs
/// O(faulty + decisions); keep \p R alive while the CheckInput is used.
trace::CheckInput toCheckInput(const EngineResult &R, const graph::Graph &G);

/// The FinalMaxViews entries of correct nodes (faulty nodes' views freeze
/// wherever the interleaving caught them, so only these must agree across
/// backends and schedules).
std::vector<NodeMaxView> correctMaxViews(const EngineResult &R);

/// One execution backend. Engines are stateless between runs; run() may be
/// called repeatedly with different jobs.
class Engine {
public:
  virtual ~Engine() = default;

  /// The backend's canonical name (matches backendName()).
  virtual const char *name() const = 0;

  /// Executes \p Job to quiescence (or its event budget) and returns the
  /// run's products.
  virtual EngineResult run(const EngineJob &Job) = 0;
};

/// Builds the backend for \p K.
std::unique_ptr<Engine> makeEngine(BackendKind K,
                                   EngineOptions Opts = EngineOptions());

} // namespace engine
} // namespace cliffedge

#endif // CLIFFEDGE_ENGINE_ENGINE_H
