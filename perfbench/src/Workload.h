//===- perfbench/src/Workload.h - One benchmark workload ------*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A workload is a `.scn` spec plus the op loop's view of it. Set-up parses
/// the spec, builds the topology and constructs the engine (and, for
/// streaming specs, the long-lived online checker). An op then builds a
/// crash plan from its own seed, runs it to quiescence and checks
/// CD1..CD7:
///
///  * scripted specs (crash directives): scenario::buildCrashPlan, then
///    trace::checkAll over the run's trace;
///  * service specs (`service` + `churn`): one epoch of
///    workload::poissonChurn capped by workload::capFaulty, checked online
///    and sealed with trace::StreamingChecker::sealEpoch.
///
/// Every layer call is wrapped in a span when the span log is enabled.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_PERFBENCH_WORKLOAD_H
#define CLIFFEDGE_PERFBENCH_WORKLOAD_H

#include "Spans.h"

#include "engine/Engine.h"
#include "scenario/Spec.h"
#include "trace/StreamingChecker.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// What one op produced, as counts.
struct OpResult {
  bool Quiesced = false;
  bool CheckOk = false;
  std::string FirstViolation;
  uint64_t Crashes = 0;
  uint64_t Decisions = 0;
  uint64_t DistinctViews = 0;
  uint64_t Events = 0;
  uint64_t Msgs = 0;
  uint64_t Bytes = 0;
  uint64_t Delivered = 0;
  uint64_t DroppedAtCrashed = 0;
  cliffedge::net::ChannelStats Channel;
  /// Decide latencies in ticks (see appendDecideTicks).
  std::vector<double> DecideTicks;
  bool DecideTicksOk = true;
};

/// The idle-run probe: one engine run and one batch check on an empty
/// crash plan over the workload's topology, in milliseconds.
struct IdleProbe {
  double RunMs = 0;
  double CheckMs = 0;
  bool Ok = false;
};

class Workload {
public:
  /// Parses \p SpecText, builds the topology and the engine. Returns null
  /// and sets \p Error when the spec is unusable for the benchmark.
  static std::unique_ptr<Workload> setUp(const std::string &SpecText,
                                         SpanLog &Spans, uint32_t Rep,
                                         std::string &Error);

  /// Runs op \p OpId, whose inputs derive from \p OpSeed alone.
  OpResult runOp(uint64_t OpSeed, uint32_t OpId);

  /// Times the idle-run probe.
  IdleProbe idleProbe();

  const cliffedge::trace::StreamingChecker *checker() const {
    return Checker.get();
  }

  /// The engine options capture LatRand by reference.
  Workload(const Workload &) = delete;
  Workload &operator=(const Workload &) = delete;

private:
  explicit Workload(SpanLog &Spans) : Spans(Spans) {}
  cliffedge::engine::EngineJob makeJob(const cliffedge::workload::CrashPlan &P,
                                       uint64_t OpSeed);

  SpanLog &Spans;
  cliffedge::scenario::Spec S;
  cliffedge::scenario::TopologyInfo Topo;
  std::unique_ptr<cliffedge::engine::Engine> Eng;
  /// Latency draws of the current op; re-seeded per op so any op replays
  /// from its seed alone.
  cliffedge::Rng LatRand;
  cliffedge::trace::RunnerOptions Options;
  std::unique_ptr<cliffedge::trace::StreamingChecker> Checker;
};

} // namespace perfbench

#endif // CLIFFEDGE_PERFBENCH_WORKLOAD_H
