//===- scenario/Campaign.cpp - Parallel scenario campaigns -----------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "scenario/Campaign.h"

#include "engine/Engine.h"
#include "proc/Launcher.h"
#include "support/StrUtil.h"
#include "trace/Checker.h"
#include "trace/StreamingChecker.h"
#include "workload/EpochRunner.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

using namespace cliffedge;
using namespace cliffedge::scenario;

CampaignRunner::CampaignRunner(Spec S) : Base(std::move(S)) {
  // Cartesian product of the sweep axes, later axes varying fastest, so
  // variant order (and therefore job order and every summary) is a pure
  // function of the spec.
  Variants.push_back(Base);
  Variants.back().Sweeps.clear();
  Labels.push_back("");
  for (const SweepAxis &Axis : Base.Sweeps) {
    std::vector<Spec> Next;
    std::vector<std::string> NextLabels;
    for (size_t V = 0; V < Variants.size(); ++V)
      for (const std::string &Value : Axis.Values) {
        Spec Applied = Variants[V];
        std::string Err;
        // Values were validated at parse time; an applyOverride failure
        // here would be a programming error, not user input.
        applyOverride(Applied, Axis.Key, Value, Err);
        Next.push_back(std::move(Applied));
        std::string Label = Labels[V];
        if (!Label.empty())
          Label += " ";
        Label += Axis.Key + "=" + Value;
        NextLabels.push_back(std::move(Label));
      }
    Variants = std::move(Next);
    Labels = std::move(NextLabels);
  }
}

/// Copies a streaming checker's steady-state metrics into the outcome's
/// first-class columns.
static void fillStreamMetrics(const trace::StreamingChecker &SC,
                              JobOutcome &Out) {
  trace::StreamingChecker::Metrics M = SC.metrics();
  Out.LatP50 = M.LatencyP50;
  Out.LatP90 = M.LatencyP90;
  Out.LatP99 = M.LatencyP99;
  Out.LatMax = M.LatencyMax;
  Out.MsgsPerDecision = M.msgsPerDecision();
  Out.OpenWavesHw = M.OpenWavesHighWater;
}

/// Distinct views among a run's decisions.
static size_t countDistinctViews(const std::vector<trace::DecisionRecord> &Ds) {
  std::vector<graph::Region> Views;
  for (const trace::DecisionRecord &D : Ds)
    if (std::find(Views.begin(), Views.end(), D.View) == Views.end())
      Views.push_back(D.View);
  return Views.size();
}

/// Runs one job on the real-process runtime and maps its ProcResult onto
/// the campaign's outcome columns. Decision times are Lamport stamps, not
/// simulation ticks — comparable within a run, not across transports.
static JobOutcome runOneProcJob(const Spec &V, uint64_t Seed) {
  JobOutcome Out;
  Out.Seed = Seed;
  Out.Epochs = 1;
  proc::Launcher L(V, Seed);
  proc::ProcResult R;
  if (!L.run(R, Out.Error))
    return Out;
  if (R.Infra != proc::FailureClass::Ok) {
    // A classified infrastructure failure is an error outcome, never a
    // spec verdict: the world did not run end-to-end.
    Out.Error = formatStr("infra_failure: %s: %s",
                          proc::failureClassName(R.Infra), R.Error.c_str());
    return Out;
  }
  Out.Ran = true;
  Out.Decisions = R.Trace.Decisions.size();
  Out.DistinctViews = countDistinctViews(R.Trace.Decisions);
  Out.Events = R.Stats.Events;
  Out.Messages = R.Stats.Sent;
  Out.Retransmits = R.Stats.Retransmits;
  Out.DupSuppressed = R.Stats.DupSuppressed;
  Out.AckBytes = R.Stats.AckBytes;
  Out.Crashes = R.Faulty.size();
  Out.DaemonPeakRssKb = R.DaemonPeakRssKb;
  Out.DaemonCpuMs = R.DaemonCpuMs;
  for (const trace::DecisionRecord &D : R.Trace.Decisions) {
    Out.FirstDecision = std::min(Out.FirstDecision, D.When);
    Out.LastDecision = Out.LastDecision == TimeNever
                           ? D.When
                           : std::max(Out.LastDecision, D.When);
  }
  if (V.Check) {
    Out.SpecOk = R.Check.Ok;
    Out.Violations = std::move(R.Check.Violations);
  } else {
    Out.SpecOk = true;
  }
  return Out;
}

/// A fresh outcome for (\p V, \p Seed): the fields every simulated job
/// fills before it can fail.
static JobOutcome startOutcome(const Spec &V, uint64_t Seed) {
  JobOutcome Out;
  Out.Seed = Seed;
  Out.Epochs = V.ServiceEpochs ? V.ServiceEpochs : V.Epochs.size();
  return Out;
}

JobOutcome CampaignRunner::runOneJob(const Spec &V, uint64_t Seed,
                                     unsigned EngineWorkers,
                                     const TopologyInfo *World) {
  if (V.Transport == TransportKind::Proc)
    return runOneProcJob(V, Seed);

  JobOutcome Out = startOutcome(V, Seed);

  engine::EngineOptions EngOpts;
  EngOpts.Workers = EngineWorkers;
  std::unique_ptr<engine::Engine> Eng =
      engine::makeEngine(V.Backend, EngOpts);

  if (V.Epochs.size() == 1 && V.ServiceEpochs == 0) {
    MaterializedRun Run;
    if (!materializeSingle(V, Seed, Run, Out.Error, World))
      return Out;
    // Online checking: the engine feeds the checker as it goes and the
    // send log stays off — the run's memory is bounded by open agreement
    // state, not trace length.
    std::unique_ptr<trace::StreamingChecker> SC;
    if (V.Streaming && V.Check) {
      SC = std::make_unique<trace::StreamingChecker>(Run.Topo->G);
      Run.Options.StreamingCheck = SC.get();
      Run.Options.RecordSends = false;
    }
    engine::EngineJob Job;
    Job.G = &Run.Topo->G;
    Job.Plan = &Run.Plan;
    Job.Options = std::move(Run.Options);
    Job.Seed = Seed;
    engine::EngineResult R = Eng->run(Job);
    Out.Events = R.Events;
    if (!R.Quiesced) {
      Out.Error = formatStr("aborted: event budget of %llu exhausted",
                            (unsigned long long)V.MaxEvents);
      return Out;
    }
    Out.Ran = true;
    Out.Decisions = R.Decisions.size();
    Out.DistinctViews = countDistinctViews(R.Decisions);
    Out.Messages = R.Stats.MessagesSent;
    Out.Bytes = R.Stats.BytesSent;
    Out.Retransmits = R.Stats.Channel.Retransmits;
    Out.DupSuppressed = R.Stats.Channel.DupSuppressed;
    Out.AckBytes = R.Stats.Channel.AckBytes;
    Out.Crashes = Run.Plan.Crashes.size();
    // A run with no decisions keeps the TimeNever sentinel in both fields:
    // "never decided" must stay distinguishable from "decided at t=0"
    // (the renderers emit null / an empty field for it).
    for (const trace::DecisionRecord &D : R.Decisions) {
      Out.FirstDecision = std::min(Out.FirstDecision, D.When);
      Out.LastDecision = Out.LastDecision == TimeNever
                             ? D.When
                             : std::max(Out.LastDecision, D.When);
    }
    if (V.Check) {
      trace::CheckResult Res =
          SC ? SC->sealEpoch()
             : trace::checkAll(engine::toCheckInput(R, Run.Topo->G));
      Out.SpecOk = Res.Ok;
      Out.Violations = std::move(Res.Violations);
      if (SC)
        fillStreamMetrics(*SC, Out);
    } else {
      Out.SpecOk = true;
    }
    return Out;
  }

  // Multi-epoch (scripted or generated service churn): one EpochRunner
  // over one topology; the plan RNG is consumed sequentially across
  // epochs so the whole lifecycle replays from (spec, seed).
  TopologyInfo OwnedTopo;
  if (!World) {
    if (!buildWorld(V, Seed, OwnedTopo, Out.Error))
      return Out;
    World = &OwnedTopo;
  }
  const TopologyInfo &Topo = *World;
  SplitMix64 Sub(Seed);
  Rng PlanRand(Sub.next());
  Rng LatRand(Sub.next());
  trace::RunnerOptions Options = makeRunnerOptions(V, LatRand);
  std::unique_ptr<trace::StreamingChecker> SC;
  if (V.Streaming && V.Check) {
    SC = std::make_unique<trace::StreamingChecker>(Topo.G);
    Options.StreamingCheck = SC.get();
    Options.RecordSends = false;
  }
  workload::EpochRunner Runner(Topo.G, std::move(Options), Eng.get());
  Out.SpecOk = true;
  size_t EpochCount = V.ServiceEpochs
                          ? static_cast<size_t>(V.ServiceEpochs)
                          : V.Epochs.size();
  for (size_t E = 0; E < EpochCount; ++E) {
    workload::CrashPlan Plan;
    if (V.ServiceEpochs) {
      // Generated churn. Outages land after t=100 (detector subscriptions
      // settle first) across the configured horizon. The degenerate-plan
      // guard keeps a live majority even when a Poisson burst would drown
      // the graph; max-faulty tightens it further.
      Plan = workload::poissonChurn(Topo.G,
                                    static_cast<double>(V.ChurnRate),
                                    static_cast<size_t>(V.ChurnSize), 100,
                                    V.ChurnHorizon, PlanRand);
      size_t Cap = Topo.G.numNodes() * 3 / 4;
      if (V.MaxFaulty)
        Cap = std::min(Cap, static_cast<size_t>(V.MaxFaulty));
      Plan = workload::capFaulty(std::move(Plan), Cap);
    } else if (!buildCrashPlan(V.Epochs[E], Topo, PlanRand, V.MaxFaulty,
                               Plan, Out.Error)) {
      Out.Error = formatStr("epoch %zu: %s", E + 1, Out.Error.c_str());
      Out.SpecOk = false;
      return Out;
    }
    const workload::EpochResult &Res = Runner.runEpoch(Plan, Seed);
    Out.Decisions += Res.Decisions;
    Out.DistinctViews += Res.DecidedViews.size();
    Out.Events += Res.Events;
    Out.Messages += Res.Messages;
    Out.Bytes += Res.Bytes;
    Out.Retransmits += Res.Channel.Retransmits;
    Out.DupSuppressed += Res.Channel.DupSuppressed;
    Out.AckBytes += Res.Channel.AckBytes;
    Out.Crashes += Plan.Crashes.size();
    if (!Res.Quiesced) {
      Out.Error = formatStr("epoch %zu aborted: event budget of %llu "
                            "exhausted",
                            E + 1, (unsigned long long)V.MaxEvents);
      Out.SpecOk = false;
      return Out;
    }
    if (V.Check && !Res.Check.Ok) {
      Out.SpecOk = false;
      for (const std::string &Why : Res.Check.Violations)
        Out.Violations.push_back(formatStr("epoch %zu: %s", E + 1,
                                           Why.c_str()));
    }
  }
  if (SC)
    fillStreamMetrics(*SC, Out);
  Out.Ran = true;
  return Out;
}

CampaignSummary CampaignRunner::run(const CampaignOptions &Opts) {
  CampaignSummary Summary;
  Summary.Scenario = Base.Name;
  size_t Seeds = Base.seedCount();
  size_t Jobs = Variants.size() * Seeds;
  Summary.Jobs = Jobs;
  Summary.Results.resize(Jobs);

  // One world per variant whose topology does not draw from the seed:
  // the first of its jobs to run builds it, every job of the variant
  // borrows it read-only, and the last to finish frees it — so only the
  // worlds of variants with jobs still to run are held. Seeded kinds (and
  // proc jobs, whose launcher builds its own) keep one world per job.
  struct VariantWorld {
    bool Shared = false;
    std::mutex M;
    bool Built = false;
    std::unique_ptr<TopologyInfo> Topo; ///< Null once freed or on error.
    std::string Error;
    size_t Pending = 0; ///< Jobs of the variant not yet finished.
  };
  std::vector<VariantWorld> Worlds(Variants.size());
  for (size_t V = 0; V < Variants.size(); ++V) {
    Worlds[V].Shared = Variants[V].Transport == TransportKind::Sim &&
                       !topologyDrawsFromSeed(Variants[V].Topology);
    Worlds[V].Pending = Seeds;
  }

  // Static job list; outcomes land in per-job slots, so the summary is
  // independent of worker count and scheduling.
  std::atomic<size_t> NextJob{0};
  auto Work = [&]() {
    for (;;) {
      // Cooperative cancel: checked between jobs only, so whatever is
      // in flight completes and keeps its slot.
      if (Opts.Cancel && Opts.Cancel->load(std::memory_order_relaxed))
        return;
      size_t I = NextJob.fetch_add(1, std::memory_order_relaxed);
      if (I >= Jobs)
        return;
      size_t VariantIdx = I / Seeds;
      const Spec &V = Variants[VariantIdx];
      uint64_t Seed = Base.SeedLo + (I % Seeds);
      VariantWorld &W = Worlds[VariantIdx];
      JobOutcome Out;
      if (!W.Shared) {
        Out = runOneJob(V, Seed, Opts.EngineWorkers);
      } else {
        const TopologyInfo *World;
        {
          std::lock_guard<std::mutex> Lock(W.M);
          if (!W.Built) {
            W.Built = true;
            W.Topo = std::make_unique<TopologyInfo>();
            if (!buildWorld(V, Seed, *W.Topo, W.Error))
              W.Topo.reset();
          }
          World = W.Topo.get();
        }
        if (World) {
          Out = runOneJob(V, Seed, Opts.EngineWorkers, World);
        } else {
          Out = startOutcome(V, Seed);
          Out.Error = W.Error;
        }
        std::lock_guard<std::mutex> Lock(W.M);
        if (--W.Pending == 0)
          W.Topo.reset();
      }
      Out.Index = I;
      Out.Variant = Labels[VariantIdx];
      Summary.Results[I] = std::move(Out);
    }
  };

  unsigned Threads = std::max(1u, Opts.Threads);
  if (Jobs > 0)
    Threads = static_cast<unsigned>(
        std::min<size_t>(Threads, Jobs));
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < Threads; ++T)
    Pool.emplace_back(Work);
  Work();
  for (std::thread &T : Pool)
    T.join();

  Summary.Cancelled =
      Opts.Cancel && Opts.Cancel->load(std::memory_order_relaxed);
  if (Summary.Cancelled) {
    // Fill the never-dispatched slots so every row of a (diagnostic-only)
    // cancelled summary still names its job. A job that ran but failed
    // keeps its own error: runOneJob always explains a !Ran outcome.
    for (size_t I = 0; I < Jobs; ++I) {
      JobOutcome &R = Summary.Results[I];
      if (!R.Ran && R.Error.empty()) {
        R.Index = I;
        R.Seed = Base.SeedLo + (I % Seeds);
        R.Variant = Labels[I / Seeds];
        R.Error = "cancelled before dispatch";
      }
    }
  }

  for (const JobOutcome &Out : Summary.Results) {
    if (!Out.Ran)
      ++Summary.Errors;
    else if (Out.SpecOk)
      ++Summary.Passed;
    else
      ++Summary.Failed;
    Summary.TotalDecisions += Out.Decisions;
    Summary.TotalMessages += Out.Messages;
    Summary.TotalBytes += Out.Bytes;
    Summary.TotalEvents += Out.Events;
  }
  return Summary;
}

// --- Rendering --------------------------------------------------------------

/// Renders a nullable decision time: TimeNever (no decision on this run's
/// clock) becomes JSON null, anything else the integer tick.
static std::string jsonTimeOrNull(SimTime T) {
  return T == TimeNever ? std::string("null")
                        : formatStr("%llu", (unsigned long long)T);
}

/// CSV flavour of the same rule: TimeNever renders as an empty field.
static std::string csvTimeOrEmpty(SimTime T) {
  return T == TimeNever ? std::string()
                        : formatStr("%llu", (unsigned long long)T);
}

std::string CampaignSummary::toJson() const {
  std::string Out = "{\n";
  Out += formatStr("  \"scenario\": \"%s\",\n", jsonEscape(Scenario).c_str());
  Out += formatStr("  \"jobs\": %zu,\n  \"passed\": %zu,\n"
                   "  \"failed\": %zu,\n  \"errors\": %zu,\n",
                   Jobs, Passed, Failed, Errors);
  Out += formatStr("  \"totals\": {\"decisions\": %llu, \"messages\": %llu, "
                   "\"bytes\": %llu, \"events\": %llu},\n",
                   (unsigned long long)TotalDecisions,
                   (unsigned long long)TotalMessages,
                   (unsigned long long)TotalBytes,
                   (unsigned long long)TotalEvents);
  Out += "  \"results\": [\n";
  for (size_t I = 0; I < Results.size(); ++I) {
    const JobOutcome &R = Results[I];
    Out += formatStr(
        "    {\"job\": %zu, \"seed\": %llu, \"variant\": \"%s\", "
        "\"ran\": %s, \"spec_ok\": %s, \"epochs\": %zu, "
        "\"decisions\": %zu, \"views\": %zu, \"events\": %llu, "
        "\"messages\": %llu, \"bytes\": %llu, \"retransmits\": %llu, "
        "\"dup_suppressed\": %llu, \"ack_bytes\": %llu, "
        "\"first_decision\": %s, "
        "\"last_decision\": %s, \"crashes\": %llu, "
        "\"lat_p50\": %llu, \"lat_p90\": %llu, \"lat_p99\": %llu, "
        "\"lat_max\": %llu, \"msgs_per_decision\": %.3f, "
        "\"open_waves_hw\": %llu, \"daemon_peak_rss_kb\": %llu, "
        "\"daemon_cpu_ms\": %llu, \"error\": \"%s\", \"violations\": [",
        R.Index, (unsigned long long)R.Seed, jsonEscape(R.Variant).c_str(),
        R.Ran ? "true" : "false", R.SpecOk ? "true" : "false", R.Epochs,
        R.Decisions, R.DistinctViews, (unsigned long long)R.Events,
        (unsigned long long)R.Messages, (unsigned long long)R.Bytes,
        (unsigned long long)R.Retransmits,
        (unsigned long long)R.DupSuppressed,
        (unsigned long long)R.AckBytes,
        jsonTimeOrNull(R.FirstDecision).c_str(),
        jsonTimeOrNull(R.LastDecision).c_str(),
        (unsigned long long)R.Crashes,
        (unsigned long long)R.LatP50, (unsigned long long)R.LatP90,
        (unsigned long long)R.LatP99, (unsigned long long)R.LatMax,
        R.MsgsPerDecision, (unsigned long long)R.OpenWavesHw,
        (unsigned long long)R.DaemonPeakRssKb,
        (unsigned long long)R.DaemonCpuMs,
        jsonEscape(R.Error).c_str());
    Out += joinMapped(R.Violations, ", ", [](const std::string &V) {
      return "\"" + jsonEscape(V) + "\"";
    });
    Out += "]}";
    Out += I + 1 < Results.size() ? ",\n" : "\n";
  }
  Out += "  ]\n}\n";
  return Out;
}

std::string CampaignSummary::toCsv() const {
  std::string Out = "job,seed,variant,ran,spec_ok,epochs,decisions,views,"
                    "events,messages,bytes,retransmits,dup_suppressed,"
                    "ack_bytes,first_decision,last_decision,crashes,"
                    "lat_p50,lat_p90,lat_p99,lat_max,msgs_per_decision,"
                    "open_waves_hw,daemon_peak_rss_kb,daemon_cpu_ms,"
                    "error\n";
  for (const JobOutcome &R : Results)
    // variant and error pass through csvField (RFC 4180: always quoted,
    // embedded quotes doubled) so hostile sweep values and parse
    // diagnostics — quotes, commas, newlines — can never corrupt a row.
    Out += formatStr("%zu,%llu,%s,%d,%d,%zu,%zu,%zu,%llu,%llu,%llu,"
                     "%llu,%llu,%llu,%s,%s,%llu,%llu,%llu,%llu,%llu,"
                     "%.3f,%llu,%llu,%llu,%s\n",
                     R.Index, (unsigned long long)R.Seed,
                     csvField(R.Variant).c_str(),
                     R.Ran ? 1 : 0, R.SpecOk ? 1 : 0, R.Epochs, R.Decisions,
                     R.DistinctViews, (unsigned long long)R.Events,
                     (unsigned long long)R.Messages,
                     (unsigned long long)R.Bytes,
                     (unsigned long long)R.Retransmits,
                     (unsigned long long)R.DupSuppressed,
                     (unsigned long long)R.AckBytes,
                     csvTimeOrEmpty(R.FirstDecision).c_str(),
                     csvTimeOrEmpty(R.LastDecision).c_str(),
                     (unsigned long long)R.Crashes,
                     (unsigned long long)R.LatP50,
                     (unsigned long long)R.LatP90,
                     (unsigned long long)R.LatP99,
                     (unsigned long long)R.LatMax, R.MsgsPerDecision,
                     (unsigned long long)R.OpenWavesHw,
                     (unsigned long long)R.DaemonPeakRssKb,
                     (unsigned long long)R.DaemonCpuMs,
                     csvField(R.Error).c_str());
  return Out;
}
