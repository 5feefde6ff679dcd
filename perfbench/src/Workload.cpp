//===- perfbench/src/Workload.cpp - One benchmark workload ---------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "Stats.h"

#include "scenario/Parse.h"
#include "trace/Checker.h"
#include "workload/CrashPlans.h"

#include <algorithm>
#include <optional>

using namespace cliffedge;

namespace perfbench {

std::unique_ptr<Workload> Workload::setUp(const std::string &SpecText,
                                          SpanLog &Spans, uint32_t Rep,
                                          std::string &Error) {
  ScopedSpan Root(Spans, "bench.setup", Rep);
  std::unique_ptr<Workload> W(new Workload(Spans));
  {
    ScopedSpan Sp(Spans, "scenario.parse", Rep);
    scenario::ParseResult P = scenario::parseSpec(SpecText);
    if (!P.Ok) {
      Error = P.diagText();
      return nullptr;
    }
    W->S = std::move(P.S);
  }
  const scenario::Spec &S = W->S;
  // The op loop runs exactly one plan per op on one thread; anything the
  // spec could ask for beyond that is refused rather than half-measured.
  if (S.Transport != scenario::TransportKind::Sim || S.Epochs.size() != 1 ||
      !S.Check || !S.Sweeps.empty() || !S.Perturb.empty() ||
      (S.ServiceEpochs > 0) != S.Streaming) {
    Error = "a benchmark spec is a checked, single-epoch sim scenario "
            "without sweeps or perturbations; service specs stream";
    return nullptr;
  }
  {
    ScopedSpan Sp(Spans, "graph.build", Rep);
    Rng TopoRand(0);
    if (!scenario::buildTopology(S.Topology, TopoRand, W->Topo, Error))
      return nullptr;
  }
  {
    ScopedSpan Sp(Spans, "engine.make", Rep);
    engine::EngineOptions EO;
    EO.Workers = 1;
    W->Eng = engine::makeEngine(S.Backend, EO);
    W->Options = scenario::makeRunnerOptions(S, W->LatRand);
  }
  if (S.Streaming) {
    ScopedSpan Sp(Spans, "trace.make", Rep);
    W->Checker = std::make_unique<trace::StreamingChecker>(W->Topo.G);
    W->Options.StreamingCheck = W->Checker.get();
    W->Options.RecordSends = false;
  }
  return W;
}

engine::EngineJob Workload::makeJob(const workload::CrashPlan &P,
                                    uint64_t OpSeed) {
  engine::EngineJob Job;
  Job.G = &Topo.G;
  Job.Plan = &P;
  Job.Options = Options;
  Job.Seed = OpSeed;
  return Job;
}

OpResult Workload::runOp(uint64_t OpSeed, uint32_t OpId) {
  OpResult Out;
  SplitMix64 Sub(OpSeed);
  Rng PlanRand(Sub.next());
  LatRand = Rng(Sub.next());

  workload::CrashPlan Plan;
  {
    ScopedSpan Sp(Spans, "workload.plan", OpId);
    if (S.ServiceEpochs) {
      // Same shape as a campaign's service epoch: outages land after
      // t=100, and the degenerate-plan guard keeps a live majority.
      Plan = workload::poissonChurn(Topo.G, static_cast<double>(S.ChurnRate),
                                    static_cast<size_t>(S.ChurnSize), 100,
                                    S.ChurnHorizon, PlanRand);
      size_t Cap = Topo.G.numNodes() * 3 / 4;
      if (S.MaxFaulty)
        Cap = std::min(Cap, static_cast<size_t>(S.MaxFaulty));
      Plan = workload::capFaulty(std::move(Plan), Cap);
    } else {
      std::string Error;
      if (!scenario::buildCrashPlan(S.Epochs[0], Topo, PlanRand, S.MaxFaulty,
                                    Plan, Error)) {
        Out.FirstViolation = "crash plan: " + Error;
        return Out;
      }
    }
  }
  Out.Crashes = Plan.Crashes.size();

  std::optional<engine::EngineResult> R;
  {
    ScopedSpan Sp(Spans, "engine.run", OpId);
    R = Eng->run(makeJob(Plan, OpSeed));
  }
  Out.Quiesced = R->Quiesced;

  trace::CheckResult Check;
  if (Checker) {
    ScopedSpan Sp(Spans, "trace.seal", OpId);
    Check = Checker->sealEpoch();
  } else {
    ScopedSpan Sp(Spans, "trace.check", OpId);
    Check = trace::checkAll(engine::toCheckInput(*R, Topo.G));
  }
  Out.CheckOk = Check.Ok;
  if (!Check.Ok && !Check.Violations.empty())
    Out.FirstViolation = Check.Violations.front();

  Out.Decisions = R->Decisions.size();
  std::vector<size_t> ViewHashes;
  ViewHashes.reserve(R->Decisions.size());
  for (const trace::DecisionRecord &D : R->Decisions)
    ViewHashes.push_back(D.View.hash());
  std::sort(ViewHashes.begin(), ViewHashes.end());
  Out.DistinctViews = static_cast<uint64_t>(
      std::unique(ViewHashes.begin(), ViewHashes.end()) - ViewHashes.begin());
  Out.Events = R->Events;
  Out.Msgs = R->Stats.MessagesSent;
  Out.Bytes = R->Stats.BytesSent;
  Out.Delivered = R->Stats.MessagesDelivered;
  Out.DroppedAtCrashed = R->Stats.MessagesDroppedAtCrashed;
  Out.Channel = R->Stats.Channel;
  Out.DecideTicksOk =
      appendDecideTicks(R->Decisions, R->CrashTimes, Out.DecideTicks);

  {
    ScopedSpan Sp(Spans, "engine.release", OpId);
    R.reset();
  }
  return Out;
}

IdleProbe Workload::idleProbe() {
  IdleProbe P;
  workload::CrashPlan Empty;
  // The probe checks with the batch checker on every workload, so the
  // online sink is detached and the send log kept.
  trace::RunnerOptions Saved = Options;
  Options.StreamingCheck = nullptr;
  Options.RecordSends = true;
  LatRand = Rng(1);
  int64_t T0 = nowNs();
  engine::EngineResult R = Eng->run(makeJob(Empty, 1));
  int64_t T1 = nowNs();
  trace::CheckResult C = trace::checkAll(engine::toCheckInput(R, Topo.G));
  int64_t T2 = nowNs();
  Options = std::move(Saved);
  P.RunMs = static_cast<double>(T1 - T0) / 1e6;
  P.CheckMs = static_cast<double>(T2 - T1) / 1e6;
  P.Ok = R.Quiesced && C.Ok && R.Decisions.empty();
  return P;
}

} // namespace perfbench
