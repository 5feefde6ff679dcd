//===- scenario/Spec.h - Declarative scenario specifications ----*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The data model of the `.scn` scenario format: a Spec captures everything
/// a run needs — topology, timed crash plan (including cascades and
/// multi-epoch repair), latency and detection models, checker options, seed
/// ranges and parameter sweeps — as plain data, so a scenario can be
/// parsed, re-serialized bit-for-bit (writeSpec), swept into a campaign of
/// jobs, and replayed from nothing but the file and a seed.
///
/// The grammar is documented in docs/scenario-format.md; scenario/Parse.h
/// holds the parser, scenario/Campaign.h the parallel campaign runner.
/// Materialization helpers here turn the declarative pieces into the
/// concrete objects the rest of the stack consumes (graph::Graph,
/// workload::CrashPlan, trace::RunnerOptions).
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_SCENARIO_SPEC_H
#define CLIFFEDGE_SCENARIO_SPEC_H

#include "engine/Engine.h"
#include "graph/Graph.h"
#include "graph/Ranking.h"
#include "net/Link.h"
#include "support/Random.h"
#include "trace/Runner.h"
#include "workload/CrashPlans.h"

#include <memory>
#include <string>
#include <vector>

namespace cliffedge {
namespace scenario {

/// Declarative message-latency model (`latency` directive).
struct LatencySpec {
  enum class Kind : uint8_t { Fixed, Uniform, Spiky };
  Kind K = Kind::Fixed;
  SimTime A = 10;            ///< Fixed: ticks; Uniform: lo; Spiky: base.
  SimTime B = 0;             ///< Uniform: hi; Spiky: spike factor.
  uint32_t SpikePercent = 0; ///< Spiky: straggler probability in percent.

  bool operator==(const LatencySpec &O) const {
    return K == O.K && A == O.A && B == O.B && SpikePercent == O.SpikePercent;
  }

  /// Compact single-token form ("uniform:1:60"), used by sweep values and
  /// accepted by the `latency` directive alongside the spelled-out form.
  std::string compact() const;
};

/// One `crash` directive. Args are kind-specific:
///   Patch  {X, Y, Side}        grid patch (grid/torus topologies only)
///   Nodes  {id, id, ...}       explicit node list
///   Ball   {Center, Radius}    BFS ball around a node
///   Wave   {Center, Radius}    radial wave, hop d crashes at At + d*Gap
///   Grow   {Seed, Size}        BFS-grown connected region
///   Random {Count, Size}       seeded random regions, times in [At,At+Spread]
///   Chain  {Side, Count}       Fig. 2 chain of adjacent square domains
struct CrashDirective {
  enum class Kind : uint8_t { Patch, Nodes, Ball, Wave, Grow, Random, Chain };
  Kind K = Kind::Patch;
  std::vector<uint64_t> Args;
  SimTime At = 100;
  SimTime Gap = 0;    ///< >0 turns set-like kinds into a cascade.
  SimTime Spread = 0; ///< Random only.

  bool operator==(const CrashDirective &O) const {
    return K == O.K && Args == O.Args && At == O.At && Gap == O.Gap &&
           Spread == O.Spread;
  }
};

/// One `sweep` axis: a parameter key and the values the campaign takes the
/// cartesian product over.
struct SweepAxis {
  std::string Key;
  std::vector<std::string> Values;

  bool operator==(const SweepAxis &O) const {
    return Key == O.Key && Values == O.Values;
  }
};

/// One timing mutation of a Perturbation (`perturb crash-shift I D`):
/// moves the \p Index-th crash of the unperturbed materialized plan by
/// \p Delta ticks (saturating at zero).
struct CrashShift {
  uint32_t Index = 0;
  int64_t Delta = 0;

  bool operator==(const CrashShift &O) const {
    return Index == O.Index && Delta == O.Delta;
  }
};

/// A compact, replayable execution perturbation — the search plane's unit
/// of mutation (`perturb` directives). Every field is relative to the
/// *unperturbed* materialization of (spec, seed): crash indices name
/// positions in the plan buildCrashPlan produced, the tie bias and link
/// salt re-seed streams the run would draw anyway. The default (all zero)
/// is the null perturbation and runs byte-identical to today; any value
/// still yields a *legal* execution (per-channel FIFO and the plan
/// invariants survive by construction), so a verdict flip found under a
/// perturbation is a genuine counterexample, not an artifact.
struct Perturbation {
  /// Seeded delivery tie-break permutation (0 = off). See
  /// trace::RunnerOptions::TieBreakBias.
  uint64_t TieBias = 0;
  /// Re-deals the fault plane's per-channel schedules (0 = off). See
  /// net::LinkModel.
  uint64_t LinkSalt = 0;
  /// Replaces the spec's `link` conditions wholesale (`perturb link ...`),
  /// mutating drop/dup/reorder rates themselves.
  bool HasLink = false;
  net::LinkSpec Link;
  /// Crash indices removed from the plan; sorted, unique.
  std::vector<uint32_t> Drops;
  /// Crash timing shifts; sorted by index, unique, non-zero deltas. A
  /// shift of a dropped index is allowed — the drop wins.
  std::vector<CrashShift> Shifts;

  bool empty() const {
    return TieBias == 0 && LinkSalt == 0 && !HasLink && Drops.empty() &&
           Shifts.empty();
  }

  bool operator==(const Perturbation &O) const {
    return TieBias == O.TieBias && LinkSalt == O.LinkSalt &&
           HasLink == O.HasLink && Link == O.Link && Drops == O.Drops &&
           Shifts == O.Shifts;
  }
};

/// The `expect` directive: the verdict a committed repro asserts when
/// replayed (`cliffedge-sim replay`). None for ordinary scenarios.
enum class Expectation : uint8_t { None, Ok, Violation };

/// The `transport` directive: which world executes a job. Sim is every
/// simulated backend (the `backend` directive then picks des/sharded);
/// Proc is the real-process runtime — cliffedge-node daemons over UDP
/// loopback, crashes injected as SIGKILLs by proc::Launcher. Orthogonal
/// to Backend on purpose: a proc job ignores Backend, and the parity
/// suite pins the two transports against each other per (spec, seed).
enum class TransportKind : uint8_t { Sim, Proc };

/// A full parsed scenario. Defaults mirror the cliffedge-sim CLI defaults
/// so a flags-built Spec and a minimal .scn behave identically.
struct Spec {
  std::string Name;
  std::string Topology = "grid:8x8"; ///< Compact form, see buildTopology.
  uint64_t SeedLo = 1, SeedHi = 1;   ///< Inclusive campaign seed range.
  LatencySpec Latency;
  /// Raw link conditions (`link` directive; sweepable with `sweep link
  /// none drop:0.1 ...`). The default is the paper's axiom — perfect
  /// channels, no fault plane; lossy values layer the net:: plane under
  /// the transport with the reliable-channel sublayer restoring the
  /// §2.2 contract, so verdicts must not change (differentially tested),
  /// but event counts and transport stats do.
  net::LinkSpec Link;
  SimTime Detect = 5;
  graph::RankingKind Ranking = graph::RankingKind::SizeBorderLex;
  bool EarlyTermination = false;
  bool Check = true;     ///< Run CD1..CD7 on every job.
  /// Execution backend (`backend` directive; sweepable with
  /// `sweep backend des sharded`). Outcomes must not depend on it — that
  /// is what EngineEquivalenceTest enforces — but event counts and
  /// interleavings do, so it is part of the spec for replayability.
  engine::BackendKind Backend = engine::BackendKind::Des;
  /// `transport proc`: run jobs on the real-process runtime instead of a
  /// simulated backend (single-epoch, non-service scenarios only — the
  /// parser enforces it). Defaults to Sim; emitted only when non-default
  /// so pre-existing canonical forms are unchanged.
  TransportKind Transport = TransportKind::Sim;
  /// `streaming on`: check online through trace::StreamingChecker instead
  /// of materializing a send log for the batch checker — required for
  /// bounded-memory service runs, equivalent verdicts everywhere
  /// (CheckerEquivalenceTest). Off by default: batch checking stays the
  /// reference path for short scenarios.
  bool Streaming = false;
  /// `service N`: continuous-churn service mode — N epochs of generated
  /// churn (see ChurnRate) instead of literal crash directives. 0 means an
  /// ordinary scripted scenario.
  uint64_t ServiceEpochs = 0;
  /// `churn rate R size S horizon H`: per service epoch, K ~ Poisson(R)
  /// regional outages of S nodes each land uniformly over a window of H
  /// ticks (workload::poissonChurn). Meaningful only with ServiceEpochs.
  uint64_t ChurnRate = 0;
  uint64_t ChurnSize = 0;
  uint64_t ChurnHorizon = 0;
  uint64_t MaxEvents = 0;
  uint64_t MaxFaulty = 0; ///< >0 caps each epoch's faulty set (capFaulty).
  /// Execution perturbation applied at materialization (search plane;
  /// `perturb` directives). Empty for ordinary scenarios. Crash-plan
  /// mutations are single-epoch only (the parser enforces it).
  Perturbation Perturb;
  /// Objective name a repro was hunted with (`objective` directive) —
  /// provenance for committed repros; empty otherwise.
  std::string Objective;
  /// Replay assertion for committed repros (`expect` directive).
  Expectation Expect = Expectation::None;
  std::vector<SweepAxis> Sweeps;
  /// Crash directives per epoch; parse guarantees >= 1 epoch, each with
  /// >= 1 directive — except service mode (ServiceEpochs > 0), where the
  /// plan is generated and the single epoch stays empty.
  /// Multi-epoch specs run through workload::EpochRunner.
  std::vector<std::vector<CrashDirective>> Epochs =
      std::vector<std::vector<CrashDirective>>(1);

  size_t seedCount() const {
    return SeedHi >= SeedLo ? static_cast<size_t>(SeedHi - SeedLo) + 1 : 0;
  }

  bool operator==(const Spec &O) const;
};

/// Serializes \p S to canonical `.scn` text: every scalar directive is
/// emitted explicitly (defaults included), one directive per line, in a
/// fixed order. parse(writeSpec(S)) reproduces S exactly, and writeSpec is
/// idempotent across parse/write cycles — the property the round-trip
/// tests and `cliffedge-sim --emit-scn` rely on.
std::string writeSpec(const Spec &S);

// --- Materialization -------------------------------------------------------

/// A built topology plus the grid width (non-zero only for grid/torus,
/// where `crash patch`/`crash chain` make sense).
struct TopologyInfo {
  graph::Graph G;
  uint32_t GridWidth = 0;
  uint32_t GridHeight = 0;
};

/// Builds a topology from its compact spec token: grid:WxH, torus:WxH,
/// ring:N, line:N, tree:N:ARITY, hypercube:D, chord:N:FINGERS, ba:N:M,
/// er:N:P, geo:N:R (P and R in percent), or fig1. Random families draw
/// from \p Rand. Returns false and sets \p Error on malformed specs.
bool buildTopology(const std::string &SpecTok, Rng &Rand, TopologyInfo &Out,
                   std::string &Error);

/// Expands one epoch's crash directives into a timed plan against \p Topo,
/// validating node bounds and grid requirements. Random/Grow kinds draw
/// from \p Rand. \p MaxFaulty > 0 applies workload::capFaulty to the
/// combined plan.
bool buildCrashPlan(const std::vector<CrashDirective> &Directives,
                    const TopologyInfo &Topo, Rng &Rand, uint64_t MaxFaulty,
                    workload::CrashPlan &Out, std::string &Error);

/// Applies \p P's crash-plan mutations to \p Plan: drops, then shifts
/// (indices into the unperturbed plan; out-of-range entries are silently
/// inert, so arbitrary mutation streams stay valid), then a stable
/// (time, node) re-sort. Finally the degenerate-plan guard: a perturbed
/// plan may never crash more than 3/4 of the \p NumNodes-node graph —
/// excess crashes are cut with workload::capFaulty. Never fails.
void applyPerturbation(const Perturbation &P, uint32_t NumNodes,
                       workload::CrashPlan &Plan);

/// RunnerOptions for \p S. The latency closure captures \p LatRand by
/// reference; the caller keeps it alive for the runner's lifetime.
/// Carries the spec's perturbation: tie bias, link salt, and the link
/// override all land in the returned options.
trace::RunnerOptions makeRunnerOptions(const Spec &S, Rng &LatRand);

/// Applies one sweep override to \p S. Supported keys: topology, detect,
/// ranking, early-termination, latency (compact form), backend. Returns
/// false and sets \p Error for unknown keys or malformed values.
bool applyOverride(Spec &S, const std::string &Key, const std::string &Value,
                   std::string &Error);

/// True when \p Topology draws from the job seed (ba, er, geo): jobs at
/// different seeds run on different worlds. Every other kind is a pure
/// function of its token, so all seeds of a variant can share one world.
bool topologyDrawsFromSeed(const std::string &Topology);

/// Builds the world of variant \p V at \p Seed — its topology from
/// Rng(Seed), exactly as materializeSingle does. A driver that runs many
/// jobs on one (topology, seed) builds it once here and lends it to each.
bool buildWorld(const Spec &V, uint64_t Seed, TopologyInfo &Out,
                std::string &Error);

/// One job's worth of concrete objects, with the RNGs the options capture
/// kept alive alongside them. All randomness is derived from \p Seed, so a
/// (spec, seed) pair identifies a run completely.
struct MaterializedRun {
  /// The job's world: the caller's, when materializeSingle was lent one,
  /// else OwnedTopo. Read-only either way.
  const TopologyInfo *Topo = nullptr;
  /// A world built for this job alone; null when the world is borrowed.
  std::unique_ptr<TopologyInfo> OwnedTopo;
  workload::CrashPlan Plan; ///< First epoch's plan.
  trace::RunnerOptions Options;
  std::unique_ptr<Rng> LatRand;
  std::unique_ptr<Rng> PlanRand;
};

/// Materializes variant \p V at \p Seed: plan and latency RNGs derived
/// from Seed via SplitMix64, and the topology from Rng(Seed). With
/// \p World set, the run borrows that world instead of building one; it
/// must be buildWorld(V, Seed)'s result (any seed, for a kind that does
/// not draw from it) and outlive the run. Only the first epoch's plan is
/// built here; multi-epoch execution lives in CampaignRunner.
bool materializeSingle(const Spec &V, uint64_t Seed, MaterializedRun &Out,
                       std::string &Error,
                       const TopologyInfo *World = nullptr);

/// Human-readable names used by the writer and the CLI.
const char *rankingName(graph::RankingKind K);
const char *crashKindName(CrashDirective::Kind K);
const char *transportName(TransportKind K);

/// Parses a transport token ("sim" | "proc").
bool parseTransportName(const std::string &Tok, TransportKind &Out,
                        std::string &Error);

} // namespace scenario
} // namespace cliffedge

#endif // CLIFFEDGE_SCENARIO_SPEC_H
