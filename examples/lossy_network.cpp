//===- examples/lossy_network.cpp - The fault plane in five minutes -----------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper assumes reliable FIFO channels (§2.2). This example takes
/// that assumption away: the Fig. 1 world-city scenario
/// (scenarios/fig1_world.scn) runs once over perfect links and once over
/// links that drop 30% of all frames — with the net:: reliable-channel
/// sublayer (sequence numbers, cumulative acks, timer-driven
/// retransmission) rebuilding the abstraction underneath. The CD1..CD7
/// verdict and every decision must come out identical; only the
/// transport-level statistics show the battle that was fought.
///
/// Equivalent CLI invocation:
///   cliffedge-sim --scenario scenarios/fig1_world.scn --link drop:0.3 --check
///
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "scenario/Parse.h"
#include "scenario/Spec.h"
#include "trace/Checker.h"

#include <cstdio>

using namespace cliffedge;

namespace {

/// Runs the spec's first variant at seed 1 on the DES engine.
bool runOnce(const scenario::Spec &S, engine::EngineResult &Out,
             trace::CheckResult &Check) {
  scenario::MaterializedRun Run;
  std::string Err;
  if (!scenario::materializeSingle(S, /*Seed=*/1, Run, Err)) {
    std::fprintf(stderr, "materialize: %s\n", Err.c_str());
    return false;
  }
  std::unique_ptr<engine::Engine> Eng = engine::makeEngine(S.Backend);
  engine::EngineJob Job;
  Job.G = &Run.Topo->G;
  Job.Plan = &Run.Plan;
  Job.Options = std::move(Run.Options);
  Job.Seed = 1;
  Out = Eng->run(Job);
  Check = trace::checkAll(engine::toCheckInput(Out, Run.Topo->G));
  return true;
}

} // namespace

int main() {
  // scenarios/fig1_world.scn, embedded: the paper's Figure 1 narrative
  // (F1 and F2 crash, then paris dies and F1 grows under a live
  // instance).
  const char *Text = "scenario fig1-world\n"
                     "topology fig1\n"
                     "seeds 1\n"
                     "latency fixed 10\n"
                     "detect 5\n"
                     "ranking sizeborderlex\n"
                     "check on\n"
                     "crash nodes 10,11 at 100\n"
                     "crash nodes 12,13,14 at 100\n"
                     "crash nodes 0 at 160\n";
  scenario::ParseResult Parsed = scenario::parseSpec(Text);
  if (!Parsed.Ok) {
    std::fprintf(stderr, "%s\n", Parsed.diagText("<embedded>").c_str());
    return 1;
  }

  std::printf("cliffedge lossy-network example: Fig. 1 over faulty links\n\n");

  // 1. The baseline: the paper's axiom, perfect channels.
  engine::EngineResult Perfect;
  trace::CheckResult PerfectCheck;
  if (!runOnce(Parsed.S, Perfect, PerfectCheck))
    return 1;

  // 2. The same (spec, seed) with every link dropping 30% of frames.
  //    The reliability sublayer re-establishes reliable-FIFO delivery.
  scenario::Spec Lossy = Parsed.S;
  std::string Err;
  if (!scenario::applyOverride(Lossy, "link", "drop:0.3", Err)) {
    std::fprintf(stderr, "link override: %s\n", Err.c_str());
    return 1;
  }
  engine::EngineResult Faulted;
  trace::CheckResult FaultedCheck;
  if (!runOnce(Lossy, Faulted, FaultedCheck))
    return 1;

  std::printf("                    perfect links   drop:0.3\n");
  std::printf("decisions           %-15zu %zu\n", Perfect.Decisions.size(),
              Faulted.Decisions.size());
  std::printf("messages (logical)  %-15llu %llu\n",
              (unsigned long long)Perfect.Stats.MessagesSent,
              (unsigned long long)Faulted.Stats.MessagesSent);
  std::printf("link drops          %-15llu %llu\n",
              (unsigned long long)Perfect.Stats.Channel.LinkDropped,
              (unsigned long long)Faulted.Stats.Channel.LinkDropped);
  std::printf("retransmits         %-15llu %llu\n",
              (unsigned long long)Perfect.Stats.Channel.Retransmits,
              (unsigned long long)Faulted.Stats.Channel.Retransmits);
  std::printf("dups suppressed     %-15llu %llu\n",
              (unsigned long long)Perfect.Stats.Channel.DupSuppressed,
              (unsigned long long)Faulted.Stats.Channel.DupSuppressed);
  std::printf("acks (bytes)        %-15llu %llu\n",
              (unsigned long long)Perfect.Stats.Channel.AckBytes,
              (unsigned long long)Faulted.Stats.Channel.AckBytes);
  std::printf("CD1..CD7            %-15s %s\n\n",
              PerfectCheck.Ok ? "all hold" : "VIOLATED",
              FaultedCheck.Ok ? "all hold" : "VIOLATED");

  // 3. The point: the CD1..CD7 verdict and the converged max_view of
  //    every correct node are identical — loss below the reliable
  //    channel is invisible to the protocol's outcome. (Individual
  //    decision *timings* legitimately shift: retransmission delays are
  //    just another admissible asynchronous schedule, which can even
  //    move a crash from "after agreement" to "mid-agreement" — the
  //    same freedom the paper's model always allowed.)
  // (Faulty nodes freeze wherever the schedule caught them.)
  bool SameViews = engine::correctMaxViews(Perfect) ==
                   engine::correctMaxViews(Faulted);
  std::printf("correct nodes converged to identical max_views: %s\n",
              SameViews ? "yes" : "NO");

  bool Ok = PerfectCheck.Ok && FaultedCheck.Ok && SameViews &&
            Faulted.Stats.Channel.Retransmits > 0;
  std::printf("\n%s\n", Ok ? "the §2.2 abstraction held under 30% loss"
                           : "MISMATCH — the sublayer failed its contract");
  return Ok ? 0 : 1;
}
