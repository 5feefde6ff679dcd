//===- perfbench/src/Stats.cpp - Summary statistics of one benchmark run --===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>

using namespace cliffedge;

namespace perfbench {

/// Index of the nearest-rank P-th percentile among \p N samples.
static size_t rankIndex(size_t N, double P) {
  // P * N first: exact for whole percentiles, so ranks land on integers.
  double Rank = std::ceil(P * static_cast<double>(N) / 100.0);
  if (Rank < 1)
    return 0;
  return std::min(N, static_cast<size_t>(Rank)) - 1;
}

double percentile(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  return Sorted[rankIndex(Sorted.size(), P)];
}

size_t beyondPercentile(size_t N, double P) {
  return N ? N - 1 - rankIndex(N, P) : 0;
}

Tail tailOf(const std::vector<double> &Sorted) {
  Tail T;
  T.Samples = Sorted.size();
  for (unsigned P = 99; P >= 50; --P) {
    size_t Beyond = beyondPercentile(Sorted.size(), P);
    if (Beyond < TailBeyond)
      continue;
    T.Valid = true;
    T.Percentile = P;
    T.Value = percentile(Sorted, P);
    T.Beyond = Beyond;
    break;
  }
  return T;
}

std::string describe(const Tail &T, const char *Of) {
  return "p" + std::to_string(T.Percentile) + " of " +
         std::to_string(T.Samples) + " " + Of + ", " +
         std::to_string(T.Beyond) + " beyond";
}

bool appendDecideTicks(const std::vector<trace::DecisionRecord> &Ds,
                       const std::vector<SimTime> &CrashTimes,
                       std::vector<double> &Out) {
  bool Ok = true;
  for (const trace::DecisionRecord &D : Ds) {
    bool AllCrashed = !D.View.empty();
    SimTime First = TimeNever;
    for (NodeId N : D.View) {
      if (N >= CrashTimes.size() || CrashTimes[N] == TimeNever)
        AllCrashed = false;
      else
        First = std::min(First, CrashTimes[N]);
    }
    if (!AllCrashed || D.When < First) {
      Ok = false;
      continue;
    }
    Out.push_back(static_cast<double>(D.When - First));
  }
  return Ok;
}

} // namespace perfbench
