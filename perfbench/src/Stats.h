//===- perfbench/src/Stats.h - Summary statistics of one benchmark run ----===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pure arithmetic behind the benchmark's reported numbers, kept apart
/// from the timing loop so the self-test can pin it on hand-built inputs:
/// nearest-rank percentiles, the tail rule (the highest percentile with at
/// least ten samples beyond it), ok-share accounting and the decide-latency
/// definition.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_PERFBENCH_STATS_H
#define CLIFFEDGE_PERFBENCH_STATS_H

#include "trace/Runner.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly above a reported tail value.
constexpr size_t TailBeyond = 10;

/// Nearest-rank percentile of \p Sorted (ascending, non-empty): the sample
/// at index ceil(P/100 * n) - 1, clamped to [0, n-1].
double percentile(const std::vector<double> &Sorted, double P);

/// Samples above the nearest-rank P-th percentile of \p N samples.
size_t beyondPercentile(size_t N, double P);

/// One reported tail: the highest whole percentile in [50, 99] whose
/// nearest-rank sample has at least TailBeyond samples beyond it.
struct Tail {
  bool Valid = false; ///< False below 2 * TailBeyond samples.
  unsigned Percentile = 0;
  double Value = 0;
  size_t Samples = 0;
  size_t Beyond = 0; ///< Samples at indices above the chosen one.
};

/// Applies the tail rule to \p Sorted (ascending).
Tail tailOf(const std::vector<double> &Sorted);

/// The printed note of a tail: "p96 of 250 ops, 10 beyond", with \p Of
/// naming the samples.
std::string describe(const Tail &T, const char *Of);

/// Ok-share accounting: an op counts as ok only when its run quiesced
/// and every CD1..CD7 checker passed.
struct OpTally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  void record(bool Quiesced, bool CheckOk) {
    ++Attempted;
    if (!Quiesced || !CheckOk)
      ++Failed;
  }
  double okShare() const {
    return Attempted ? static_cast<double>(Attempted - Failed) /
                           static_cast<double>(Attempted)
                     : 0.0;
  }
};

/// Appends one decide latency per decision to \p Out: the decision's time
/// minus the earliest crash time among the nodes of its decided view,
/// with \p CrashTimes indexed by node id. Returns false (appending
/// nothing for that decision) when the view is empty or holds a node
/// that never crashed — a decision no correct run can produce.
bool appendDecideTicks(const std::vector<cliffedge::trace::DecisionRecord> &Ds,
                       const std::vector<cliffedge::SimTime> &CrashTimes,
                       std::vector<double> &Out);

} // namespace perfbench

#endif // CLIFFEDGE_PERFBENCH_STATS_H
