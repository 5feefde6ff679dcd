//===- perfbench/src/Main.cpp - End-to-end benchmark entry point ---------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload NAME --seed N --seconds S --trace 0|1
///           [--spec-dir DIR] [--out-dir DIR]
///
/// Sets the workload up several times (reporting the median), runs one
/// warm-up op, then runs ops back to back on one thread for S seconds (a
/// closed loop with one caller). Every op is checked; op 0 is replayed at
/// the end and must reproduce its counts exactly. With --trace 0 it prints
/// the end-to-end metrics; with --trace 1 every other op records spans
/// and the run prints the per-layer metrics, the idle-run probe and the
/// tracing overhead against the untraced ops. The last stdout line is one
/// JSON object; the exit code is 0 only when every check passed.
///
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Stats.h"
#include "Workload.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace perfbench;

namespace {

/// Set-up repeats until both floors are met (or the cap is hit); setup_s
/// is the median repetition. Small worlds set up in well under a
/// millisecond, so they repeat hundreds of times to steady the median.
constexpr uint32_t SetupMinReps = 7;
constexpr uint32_t SetupMaxReps = 5000;
constexpr double SetupMinSeconds = 1.0;
/// Idle-run probe repetitions per traced run.
constexpr unsigned IdleReps = 5;
/// Timed ops a run makes even when S seconds pass sooner, so the tail
/// always has ten samples beyond it.
constexpr size_t MinOps = 2 * TailBeyond;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string SpecDir = "perfbench/workloads";
  std::string OutDir = ".bench_build/perfbench";
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    char *End = nullptr;
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (K == "--seconds")
      A.Seconds = std::strtod(V.c_str(), &End);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--spec-dir")
      A.SpecDir = V;
    else if (K == "--out-dir")
      A.OutDir = V;
    else
      return false;
    if (End && *End)
      return false;
  }
  return Argc % 2 == 1 && !A.Workload.empty() && A.Seconds > 0;
}

/// Inputs of op \p I of the run seeded \p Seed.
uint64_t opSeed(uint64_t Seed, uint64_t I) {
  cliffedge::SplitMix64 M(Seed * 0x100000001b3ULL + I);
  return M.next();
}

double residentMb() {
  std::ifstream F("/proc/self/statm");
  long long Pages = 0, Resident = 0;
  if (!(F >> Pages >> Resident))
    return 0;
  return static_cast<double>(Resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return percentile(V, 50);
}

double ratio(double A, double B) { return B != 0 ? A / B : 0; }

double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  std::string Note;
};

/// Counts summed over a set of ops.
struct Totals {
  uint64_t Ops = 0, Crashes = 0, Decisions = 0, DistinctViews = 0,
           Events = 0, Msgs = 0, Bytes = 0, Delivered = 0,
           DroppedAtCrashed = 0;
  cliffedge::net::ChannelStats Channel;

  void add(const OpResult &R) {
    ++Ops;
    Crashes += R.Crashes;
    Decisions += R.Decisions;
    DistinctViews += R.DistinctViews;
    Events += R.Events;
    Msgs += R.Msgs;
    Bytes += R.Bytes;
    Delivered += R.Delivered;
    DroppedAtCrashed += R.DroppedAtCrashed;
    Channel.merge(R.Channel);
  }
};

bool sameCounts(const OpResult &A, const OpResult &B) {
  return A.Crashes == B.Crashes && A.Decisions == B.Decisions &&
         A.Msgs == B.Msgs && A.Bytes == B.Bytes && A.Events == B.Events &&
         A.DecideTicks == B.DecideTicks;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spec-dir DIR] [--out-dir DIR]\n");
    return 2;
  }
  std::string SpecPath = A.SpecDir + "/" + A.Workload + ".scn";
  std::ifstream In(SpecPath);
  if (!In) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' (no %s)\n",
                 A.Workload.c_str(), SpecPath.c_str());
    return 2;
  }
  std::stringstream Text;
  Text << In.rdbuf();
  const std::string SpecText = Text.str();

  SpanLog Spans;
  bool Correct = true;
  std::vector<std::string> Problems;
  auto problem = [&](const std::string &Why) {
    Correct = false;
    if (Problems.size() < 5)
      Problems.push_back(Why);
  };

  // -- Set-up, repeated; the last one is kept for the op loop. ------------
  Spans.setEnabled(A.Trace);
  std::vector<double> SetupS;
  std::unique_ptr<Workload> W;
  double SetupTotal = 0;
  for (uint32_t Rep = 0; Rep < SetupMaxReps; ++Rep) {
    if (Rep >= SetupMinReps && SetupTotal >= SetupMinSeconds)
      break;
    W.reset();
    std::string Error;
    int64_t T0 = nowNs();
    W = Workload::setUp(SpecText, Spans, Rep, Error);
    int64_t T1 = nowNs();
    if (!W) {
      std::fprintf(stderr, "perfbench: %s: %s\n", SpecPath.c_str(),
                   Error.c_str());
      return 2;
    }
    SetupS.push_back(static_cast<double>(T1 - T0) / 1e9);
    SetupTotal += SetupS.back();
  }

  OpTally Tally;
  auto tally = [&](const OpResult &R, uint64_t I) {
    Tally.record(R.Quiesced, R.CheckOk);
    std::string Op = "op " + std::to_string(I);
    if (!R.Quiesced || !R.CheckOk)
      problem(Op + (R.Quiesced ? "" : " did not quiesce") +
              (R.FirstViolation.empty() ? "" : ": " + R.FirstViolation));
    if (!R.DecideTicksOk)
      problem(Op + " decided a view with a live node");
  };

  // -- Warm-up op, kept as the replay reference. ---------------------------
  Spans.setEnabled(false);
  OpResult Ref = W->runOp(opSeed(A.Seed, 0), 0);
  tally(Ref, 0);

  // -- Timed loop. ---------------------------------------------------------
  Totals All;
  std::vector<double> OpMs, TracedMs, UntracedMs, DecideTicks;
  uint64_t TracedEvents = 0;
  double RssQuarter = -1;
  int64_t Budget = static_cast<int64_t>(A.Seconds * 1e9);
  int64_t LoopStart = nowNs();
  for (uint64_t I = 1;; ++I) {
    int64_t Now = nowNs();
    if (Now - LoopStart >= Budget && OpMs.size() >= MinOps)
      break;
    if (RssQuarter < 0 && Now - LoopStart >= Budget / 4)
      RssQuarter = residentMb();
    bool Traced = A.Trace && I % 2 == 0;
    Spans.setEnabled(Traced);
    int64_t T0 = nowNs();
    int32_t Root = Spans.open("bench.op", static_cast<uint32_t>(I));
    OpResult R = W->runOp(opSeed(A.Seed, I), static_cast<uint32_t>(I));
    tally(R, I);
    All.add(R);
    DecideTicks.insert(DecideTicks.end(), R.DecideTicks.begin(),
                       R.DecideTicks.end());
    if (Traced)
      TracedEvents += R.Events;
    Spans.close(Root);
    double Ms = static_cast<double>(nowNs() - T0) / 1e6;
    OpMs.push_back(Ms);
    (Traced ? TracedMs : UntracedMs).push_back(Ms);
  }
  double LoopS = static_cast<double>(nowNs() - LoopStart) / 1e9;
  double RssEnd = residentMb();
  Spans.setEnabled(false);

  // -- Replay: op 0 again, from its seed alone. ----------------------------
  OpResult Replay = W->runOp(opSeed(A.Seed, 0), 0);
  tally(Replay, 0);
  if (!sameCounts(Ref, Replay))
    problem("replay of op 0 diverged: decisions " +
            std::to_string(Ref.Decisions) + " vs " +
            std::to_string(Replay.Decisions) + ", msgs " +
            std::to_string(Ref.Msgs) + " vs " + std::to_string(Replay.Msgs) +
            ", bytes " + std::to_string(Ref.Bytes) + " vs " +
            std::to_string(Replay.Bytes));

  std::sort(OpMs.begin(), OpMs.end());
  std::sort(DecideTicks.begin(), DecideTicks.end());
  Tail OpTail = tailOf(OpMs);
  size_t P99Beyond = beyondPercentile(DecideTicks.size(), 99);
  if (!OpTail.Valid)
    problem("too few ops for a tail");
  if (P99Beyond < TailBeyond)
    problem("too few decisions for decide_ticks_p99");
  if (All.Decisions == 0)
    problem("no decisions");

  std::vector<Metric> Ms;
  if (!A.Trace) {
    Ms.push_back({"setup_s", median(SetupS), "s",
                  "median of " + std::to_string(SetupS.size()) + " set-ups"});
    Ms.push_back({"ops_per_s", static_cast<double>(All.Ops) / LoopS, "ops/s",
                  std::to_string(All.Ops) + " ops, closed loop, 1 caller"});
    Ms.push_back({"op_ms_p50", percentile(OpMs, 50), "ms",
                  std::to_string(OpMs.size()) + " ops"});
    Ms.push_back({"op_ms_tail", OpTail.Value, "ms", describe(OpTail, "ops")});
    Ms.push_back({"peak_rss_mb", peakRssMb(), "MB", "ru_maxrss at exit"});
    Ms.push_back({"ok_share", Tally.okShare(), "share",
                  std::to_string(Tally.Attempted - Tally.Failed) + " of " +
                      std::to_string(Tally.Attempted) + " ops ok"});
    Ms.push_back({"msgs_per_decision", ratio(All.Msgs, All.Decisions), "msgs",
                  std::to_string(All.Decisions) + " decisions"});
    Ms.push_back({"bytes_per_decision", ratio(All.Bytes, All.Decisions),
                  "bytes", ""});
    Ms.push_back({"decide_ticks_p50", percentile(DecideTicks, 50), "ticks",
                  std::to_string(DecideTicks.size()) + " decisions"});
    Ms.push_back({"decide_ticks_p99", percentile(DecideTicks, 99), "ticks",
                  "p99 of " + std::to_string(DecideTicks.size()) +
                      " decisions, " + std::to_string(P99Beyond) +
                      " beyond"});
  } else {
    // Per-layer split over the traced ops.
    std::map<std::string, int64_t> Self = Spans.selfNsByLayer("bench.op");
    double OpNs = 0;
    for (const auto &KV : Self)
      OpNs += static_cast<double>(KV.second);
    double Traced = static_cast<double>(TracedMs.size());
    auto selfMs = [&](const char *L) {
      auto It = Self.find(L);
      return It == Self.end() ? 0.0 : static_cast<double>(It->second) / 1e6;
    };
    auto spanMedian = [&](const char *Name) {
      std::vector<double> D = Spans.durationsMs(Name);
      return D.empty() ? 0.0 : median(D);
    };
    auto spanShare = [&](const char *Name) {
      return ratio(sum(Spans.durationsMs(Name)) * 1e6, OpNs);
    };
    std::vector<double> SetupGraph = Spans.durationsMs("graph.build");

    std::vector<double> IdleRun, IdleCheck;
    for (unsigned I = 0; I < IdleReps; ++I) {
      IdleProbe P = W->idleProbe();
      if (!P.Ok)
        problem("idle-run probe failed");
      IdleRun.push_back(P.RunMs);
      IdleCheck.push_back(P.CheckMs);
    }
    cliffedge::trace::StreamingChecker::Metrics SM;
    if (W->checker())
      SM = W->checker()->metrics();
    double Data = static_cast<double>(All.Msgs + All.Channel.Retransmits);

    Ms.push_back({"graph.build_ms", median(SetupGraph), "ms",
                  "median of " + std::to_string(SetupS.size()) + " set-ups"});
    Ms.push_back({"workload.plan_ms", spanMedian("workload.plan"), "ms", ""});
    Ms.push_back({"workload.crashes_per_op", ratio(All.Crashes, All.Ops),
                  "crashes", ""});
    Ms.push_back({"engine.run_ms_p50", spanMedian("engine.run"), "ms", ""});
    Ms.push_back({"engine.run_share", spanShare("engine.run"), "share", ""});
    Ms.push_back({"engine.idle_run_ms", median(IdleRun), "ms",
                  "empty crash plan, median of " + std::to_string(IdleReps)});
    Ms.push_back({"engine.events_per_op", ratio(All.Events, All.Ops),
                  "events", ""});
    Ms.push_back({"engine.events_per_crash", ratio(All.Events, All.Crashes),
                  "events", ""});
    Ms.push_back({"engine.ns_per_event",
                  ratio(sum(Spans.durationsMs("engine.run")) * 1e6,
                        static_cast<double>(TracedEvents)),
                  "ns", ""});
    Ms.push_back({"sim.msgs_per_op", ratio(All.Msgs, All.Ops), "msgs", ""});
    Ms.push_back({"sim.bytes_per_msg", ratio(All.Bytes, All.Msgs), "bytes",
                  ""});
    Ms.push_back({"sim.dropped_at_crashed_share",
                  ratio(All.DroppedAtCrashed, All.Msgs), "share", ""});
    Ms.push_back({"net.retransmits_per_msg",
                  ratio(All.Channel.Retransmits, All.Msgs), "frames", ""});
    Ms.push_back({"net.dup_suppressed_per_msg",
                  ratio(All.Channel.DupSuppressed, All.Msgs), "frames", ""});
    Ms.push_back({"net.ack_bytes_per_msg",
                  ratio(All.Channel.AckBytes, All.Msgs), "bytes", ""});
    Ms.push_back({"net.link_dropped_per_msg",
                  ratio(All.Channel.LinkDropped, All.Msgs), "frames", ""});
    Ms.push_back({"net.useful_share", ratio(All.Delivered, Data), "share",
                  "delivered / (sent + retransmitted)"});
    Ms.push_back({"core.decisions_per_op", ratio(All.Decisions, All.Ops),
                  "decisions", ""});
    Ms.push_back({"core.views_per_decision",
                  ratio(All.DistinctViews, All.Decisions), "views",
                  "distinct decided views per decision"});
    Ms.push_back({"trace.check_ms_p50", spanMedian("trace.check"), "ms", ""});
    Ms.push_back({"trace.check_share", spanShare("trace.check"), "share",
                  ""});
    Ms.push_back({"trace.idle_check_ms", median(IdleCheck), "ms",
                  "empty crash plan, median of " + std::to_string(IdleReps)});
    Ms.push_back({"trace.seal_ms_p50", spanMedian("trace.seal"), "ms", ""});
    Ms.push_back({"trace.seal_share", spanShare("trace.seal"), "share", ""});
    Ms.push_back({"trace.stream_state_hw",
                  static_cast<double>(SM.StateHighWater), "items", ""});
    Ms.push_back({"trace.open_waves_hw",
                  static_cast<double>(SM.OpenWavesHighWater), "waves", ""});
    Ms.push_back({"mem.rss_growth_mb",
                  RssQuarter < 0 ? 0 : RssEnd - RssQuarter, "MB",
                  "RSS at loop end minus RSS a quarter into the loop"});
    for (const char *L : {"workload", "engine", "trace", "bench"}) {
      Ms.push_back({std::string(L) + ".self_ms_per_op",
                    ratio(selfMs(L), Traced), "ms", "traced ops"});
      Ms.push_back({std::string(L) + ".self_share",
                    ratio(selfMs(L) * 1e6, OpNs), "share", ""});
    }
    Ms.push_back({"layers.sum_share",
                  ratio((selfMs("workload") + selfMs("engine") +
                         selfMs("trace")) * 1e6, OpNs),
                  "share", "workload+engine+trace self time / op time"});
    Ms.push_back({"bench.traced_op_ms_p50", median(TracedMs), "ms",
                  std::to_string(TracedMs.size()) + " ops"});
    Ms.push_back({"bench.untraced_op_ms_p50", median(UntracedMs), "ms",
                  std::to_string(UntracedMs.size()) + " ops"});
    Ms.push_back({"bench.trace_overhead",
                  ratio(median(TracedMs), median(UntracedMs)) - 1, "share",
                  "traced / untraced op_ms_p50 - 1"});

    std::string SpanPath = A.OutDir + "/spans-" + A.Workload + "-seed" +
                           std::to_string(A.Seed) + ".csv";
    if (Spans.writeCsv(SpanPath))
      std::printf("spans: %zu written to %s\n", Spans.spans().size(),
                  SpanPath.c_str());
    else
      std::printf("spans: could not write %s\n", SpanPath.c_str());
  }

  std::printf("workload %s seed %llu: %llu ops in %.3f s\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              static_cast<unsigned long long>(All.Ops), LoopS);
  for (const Metric &M : Ms)
    std::printf("  %-28s %14.6g %-7s %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Note.c_str());
  for (const std::string &P : Problems)
    std::printf("FAIL: %s\n", P.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Tally.Attempted),
              static_cast<unsigned long long>(Tally.Failed));
  for (size_t I = 0; I < Ms.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Ms[I].Name.c_str(), Ms[I].Value,
                Ms[I].Unit.c_str());
  std::printf("}}\n");
  return Correct ? 0 : 1;
}
