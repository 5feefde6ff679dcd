//===- scenario/Campaign.h - Parallel scenario campaigns --------*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CampaignRunner expands a Spec's sweep axes and seed range into a job
/// matrix (cartesian product, jobs = seeds x prod(|axis|)) and executes the
/// jobs on a std::thread pool. Each job materializes its crash plan and
/// RNG streams from nothing but (variant, seed) and runs on the variant's
/// world: built once per variant and shared read-only by all its jobs
/// when the topology does not draw from the seed, built per job for the
/// seeded kinds (ba, er, geo). It runs
/// through trace::ScenarioRunner — or workload::EpochRunner for multi-epoch
/// specs — verifies CD1..CD7 when checking is on, and lands its outcome in
/// a fixed slot, so the aggregated summary (and its JSON/CSV renderings)
/// is bit-identical regardless of thread count or scheduling.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_SCENARIO_CAMPAIGN_H
#define CLIFFEDGE_SCENARIO_CAMPAIGN_H

#include "scenario/Spec.h"

#include <atomic>
#include <string>
#include <vector>

namespace cliffedge {
namespace scenario {

/// Outcome of one job (one variant at one seed).
struct JobOutcome {
  size_t Index = 0;
  uint64_t Seed = 0;
  std::string Variant; ///< "key=value ..." of sweep overrides; empty if none.
  bool Ran = false;    ///< False when materialization failed.
  std::string Error;   ///< Why the job could not run (or aborted).
  bool SpecOk = false; ///< CD1..CD7 held (vacuously true with check off).
  std::vector<std::string> Violations;
  size_t Epochs = 1;
  size_t Decisions = 0;
  size_t DistinctViews = 0;
  uint64_t Events = 0; ///< Summed across epochs on the multi-epoch path.
  uint64_t Messages = 0;
  uint64_t Bytes = 0;
  // Fault-plane counters (zero without an active `link` spec).
  uint64_t Retransmits = 0;
  uint64_t DupSuppressed = 0;
  uint64_t AckBytes = 0;
  /// Absolute times of the run's first/last decision on the single-run
  /// simulation clock. TimeNever means "no decision time exists": the job
  /// never decided, did not run, or is multi-epoch (each epoch restarts
  /// its clock, so no single timeline exists). Rendered as `null` in JSON
  /// and an empty field in CSV — never collapsed onto t=0, which is a
  /// legitimate decision time.
  SimTime FirstDecision = TimeNever;
  SimTime LastDecision = TimeNever;
  /// Crash events executed across all epochs (a service-run health
  /// number: churn scenarios generate their plans, so the count is not
  /// readable off the spec).
  uint64_t Crashes = 0;
  // Steady-state streaming-checker metrics (`streaming on` + check only;
  // all zero otherwise). Latencies are per retired agreement wave: last
  // border decision minus first crash of the wave's cluster.
  SimTime LatP50 = 0;
  SimTime LatP90 = 0;
  SimTime LatP99 = 0;
  SimTime LatMax = 0;
  double MsgsPerDecision = 0.0;
  uint64_t OpenWavesHw = 0; ///< Most agreement waves open at once.
  /// Real-process transport only (zero on the simulated backends):
  /// kernel accounting reaped from the daemons via wait4. Max peak RSS
  /// across daemons and summed user+system CPU. Host-dependent evidence
  /// columns — the bundle comparator deliberately does not gate on them.
  uint64_t DaemonPeakRssKb = 0;
  uint64_t DaemonCpuMs = 0;
};

/// Fleet-level aggregation over every job of a campaign.
struct CampaignSummary {
  std::string Scenario;
  size_t Jobs = 0;
  size_t Passed = 0; ///< Ran and SpecOk.
  size_t Failed = 0; ///< Ran with violations.
  size_t Errors = 0; ///< Did not run (bad materialization / event budget).
  /// True when the campaign was cancelled: dispatch stopped, in-flight
  /// jobs finished, undispatched slots carry Error "cancelled before
  /// dispatch". A cancelled summary must never be published as a bundle.
  bool Cancelled = false;
  uint64_t TotalDecisions = 0;
  uint64_t TotalMessages = 0;
  uint64_t TotalBytes = 0;
  uint64_t TotalEvents = 0;
  std::vector<JobOutcome> Results; ///< Indexed by job, deterministic order.

  /// Machine-readable summary; deterministic for a given (spec, seeds).
  std::string toJson() const;

  /// One CSV row per job with a header line.
  std::string toCsv() const;
};

/// Execution options for a campaign.
struct CampaignOptions {
  unsigned Threads = 1; ///< Worker threads; clamped to the job count.
  /// Cooperative cancellation (SIGINT/SIGTERM): when it reads true,
  /// workers stop taking new jobs and drain. Jobs already running finish
  /// normally and keep their outcomes.
  const std::atomic<bool> *Cancel = nullptr;
};

/// Runs every (variant, seed) job of one Spec.
class CampaignRunner {
public:
  explicit CampaignRunner(Spec S);

  /// The sweep-expanded variants, in deterministic order (later axes vary
  /// fastest). Specs without sweeps have exactly one variant.
  const std::vector<Spec> &variants() const { return Variants; }

  /// Human-readable override string per variant, aligned with variants().
  const std::vector<std::string> &variantLabels() const { return Labels; }

  size_t jobCount() const { return Variants.size() * Base.seedCount(); }

  /// Executes all jobs and aggregates. Safe to call once per runner.
  CampaignSummary run(const CampaignOptions &Opts = CampaignOptions());

  /// Runs one job in isolation — the unit the pool executes, exposed for
  /// tests and for the CLI's single-run path. The variant's Backend picks
  /// the engine, which runs on the calling thread. With \p World set, the
  /// job borrows that world (see materializeSingle) instead of building
  /// its own; proc jobs ignore it.
  static JobOutcome runOneJob(const Spec &Variant, uint64_t Seed,
                              const TopologyInfo *World = nullptr);

private:
  Spec Base;
  std::vector<Spec> Variants;
  std::vector<std::string> Labels;
};

} // namespace scenario
} // namespace cliffedge

#endif // CLIFFEDGE_SCENARIO_CAMPAIGN_H
