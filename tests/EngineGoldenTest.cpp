//===- tests/EngineGoldenTest.cpp - Engine-level golden hashes ------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Golden hashes of whole engine jobs on both backends. Where
/// GoldenTraceTest pins a directly driven ScenarioRunner, these pin what
/// an engine hands back: the send log, the decisions, the final
/// max_views, the event count and every NetworkStats counter including
/// the fault plane's channel stats. Each scenario runs its first epochs
/// through engine::DesEngine and engine::ShardedEngine at a fixed seed.
///
/// The hashes are a byte-identity contract for performance work on the
/// execution path (decoding, scheduling, instance bookkeeping): such a
/// change must leave every one of them untouched. A change that alters
/// behaviour on purpose updates the constants; each failure prints the
/// new hash.
///
//===----------------------------------------------------------------------===//

#include "engine/DesEngine.h"
#include "engine/ShardedEngine.h"
#include "scenario/Parse.h"
#include "scenario/Spec.h"
#include "workload/CrashPlans.h"

#include "gtest/gtest.h"

#include <fstream>
#include <sstream>
#include <string>

using namespace cliffedge;

#ifndef CLIFFEDGE_SCENARIO_DIR
#error "CLIFFEDGE_SCENARIO_DIR must point at the repo's scenarios/ directory"
#endif

namespace {

/// FNV-1a accumulator.
struct Fnv {
  uint64_t H = 1469598103934665603ULL;
  void mix(uint64_t V) {
    for (int Byte = 0; Byte < 8; ++Byte) {
      H ^= (V >> (8 * Byte)) & 0xffU;
      H *= 1099511628211ULL;
    }
  }
};

void mixResult(Fnv &F, const engine::EngineResult &R) {
  F.mix(R.Events);
  F.mix(R.Quiesced);
  for (const sim::SendRecord &S : R.SendLog) {
    F.mix(S.When);
    F.mix((static_cast<uint64_t>(S.From) << 32) | S.To);
    F.mix(S.Bytes);
  }
  for (const trace::DecisionRecord &D : R.Decisions) {
    F.mix(D.When);
    F.mix(D.Node);
    F.mix(D.Chosen);
    F.mix(D.View.hash());
  }
  for (const engine::NodeMaxView &M : R.FinalMaxViews) {
    F.mix(M.first);
    F.mix(M.second.hash());
  }
  const sim::NetworkStats &S = R.Stats;
  F.mix(S.MessagesSent);
  F.mix(S.MessagesDelivered);
  F.mix(S.MessagesDroppedAtCrashed);
  F.mix(S.BytesSent);
  const net::ChannelStats &C = S.Channel;
  for (uint64_t V : {C.Retransmits, C.DupSuppressed, C.AcksSent, C.AckBytes,
                     C.LinkDropped, C.LinkDuplicated, C.Reordered})
    F.mix(V);
}

scenario::Spec parseOrDie(const std::string &Text) {
  scenario::ParseResult Parsed = scenario::parseSpec(Text);
  EXPECT_TRUE(Parsed.Ok) << Parsed.diagText();
  scenario::Spec V = Parsed.S;
  // Pin the first sweep variant, as cliffedge-sim does without --campaign.
  V.Sweeps.clear();
  for (const scenario::SweepAxis &Axis : Parsed.S.Sweeps) {
    std::string Err;
    EXPECT_TRUE(
        scenario::applyOverride(V, Axis.Key, Axis.Values.front(), Err))
        << Err;
  }
  return V;
}

scenario::Spec loadScenario(const std::string &File) {
  std::ifstream In(std::string(CLIFFEDGE_SCENARIO_DIR) + "/" + File);
  EXPECT_TRUE(In) << "missing scenarios/" << File;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return parseOrDie(Buf.str());
}

/// Runs up to \p MaxEpochs epochs of \p V at \p Seed on \p Eng, with the
/// campaign's RNG threading (topology from Rng(Seed), plan and latency
/// streams split from the seed, service specs drawing Poisson churn),
/// and hashes every epoch's result.
uint64_t engineHash(engine::Engine &Eng, const scenario::Spec &V,
                    uint64_t Seed, size_t MaxEpochs) {
  std::string Error;
  Rng TopoRand(Seed);
  scenario::TopologyInfo Topo;
  EXPECT_TRUE(scenario::buildTopology(V.Topology, TopoRand, Topo, Error))
      << Error;
  SplitMix64 Sub(Seed);
  Rng PlanRand(Sub.next());
  Rng LatRand(Sub.next());
  trace::RunnerOptions Opts = scenario::makeRunnerOptions(V, LatRand);
  Opts.RecordSends = true;
  size_t Epochs = V.ServiceEpochs ? static_cast<size_t>(V.ServiceEpochs)
                                  : V.Epochs.size();
  Epochs = std::min(Epochs, MaxEpochs);
  Fnv F;
  for (size_t E = 0; E < Epochs; ++E) {
    workload::CrashPlan Plan;
    if (V.ServiceEpochs) {
      Plan = workload::poissonChurn(Topo.G, static_cast<double>(V.ChurnRate),
                                    static_cast<size_t>(V.ChurnSize), 100,
                                    V.ChurnHorizon, PlanRand);
      Plan = workload::capFaulty(std::move(Plan), Topo.G.numNodes() * 3 / 4);
    } else {
      EXPECT_TRUE(scenario::buildCrashPlan(V.Epochs[E], Topo, PlanRand,
                                           V.MaxFaulty, Plan, Error))
          << Error;
    }
    scenario::applyPerturbation(V.Perturb, Topo.G.numNodes(), Plan);
    engine::EngineJob Job;
    Job.G = &Topo.G;
    Job.Plan = &Plan;
    Job.Options = Opts;
    Job.Seed = Seed;
    engine::EngineResult R = Eng.run(Job);
    EXPECT_TRUE(R.Quiesced) << Eng.name() << " epoch " << E + 1;
    mixResult(F, R);
  }
  return F.H;
}

struct GoldenCase {
  const char *Name;
  scenario::Spec (*Load)();
  uint64_t Seed;
  size_t MaxEpochs;
  uint64_t DesHash;
  uint64_t ShardedHash;
};

/// A miniature dense_storm: jittered latency, many small outages
/// overlapping in time on a torus.
scenario::Spec jitteredStorm() {
  return parseOrDie("scenario jittered-storm\n"
                    "topology torus:24x24\n"
                    "latency uniform 1 30\n"
                    "detect 5\n"
                    "check on\n"
                    "crash random 10 6 at 100 spread 200\n");
}

/// The same storm with footnote-6 early termination and a tie-break bias:
/// Final messages covering untouched rounds, and biased same-tick drains
/// across deliveries and crash notices.
scenario::Spec jitteredStormEarlyBiased() {
  return parseOrDie("scenario jittered-storm-early-biased\n"
                    "topology torus:24x24\n"
                    "latency uniform 1 30\n"
                    "detect 5\n"
                    "early-termination on\n"
                    "check on\n"
                    "perturb tie-bias 77\n"
                    "crash random 10 6 at 100 spread 200\n");
}

/// A lossy cascade (one node every 5 ticks, detection after 5): a node
/// handles the crash notice of its predecessor in the round its own crash
/// executes, and multicasts there. Some of those legs go on channels it
/// had already used, which the crash purges, so they are dropped; the
/// others open new channels and are transmitted once. Pins that quirk:
/// at seed 4, two such legs reach live peers on used channels and three
/// on new ones; skipping the purge, or purging the new channels too,
/// changes the sharded hash.
scenario::Spec crashRoundMulticast() {
  return parseOrDie("scenario crash-round-multicast\n"
                    "topology torus:12x12\n"
                    "latency uniform 1 10\n"
                    "link drop:0.1 dup:0.02 reorder:5\n"
                    "detect 5\n"
                    "check on\n"
                    "crash patch 2 2 3 at 100 gap 5\n");
}

/// Zero detection delay: every crash notice the merge schedules lands at
/// the round's own timestamp and opens a sub-round there.
scenario::Spec detectZero() {
  return parseOrDie("scenario detect-zero\n"
                    "topology torus:16x16\n"
                    "latency uniform 1 30\n"
                    "detect 0\n"
                    "check on\n"
                    "crash random 6 5 at 100 spread 100\n");
}

const GoldenCase Cases[] = {
    {"lossy_churn_service",
     [] { return loadScenario("lossy_churn_service.scn"); }, 1, 3,
     0xf57fc7b95bf3e3a1ULL, 0x8fb8468bb6972cd5ULL},
    {"torus_patch_storm",
     [] { return loadScenario("torus_patch_storm.scn"); }, 2, 1,
     0x1ed9ff440d720608ULL, 0x1362e711ec2f557dULL},
    {"fig1_world_early",
     [] {
       scenario::Spec V = loadScenario("fig1_world.scn");
       std::string Err;
       EXPECT_TRUE(
           scenario::applyOverride(V, "early-termination", "on", Err))
           << Err;
       return V;
     },
     1, 1, 0x360ceabc2c21d0a7ULL, 0x7feaed3cb01ac623ULL},
    {"purelex_ablation",
     [] { return loadScenario("purelex_ablation.scn"); }, 3, 1,
     0x5ffd2fae50aa784fULL, 0x3d1bff94619b8a5aULL},
    {"multi_epoch_repair",
     [] { return loadScenario("multi_epoch_repair.scn"); }, 1, 3,
     0xf94c805fe3242ffaULL, 0x0e037a5fa405a807ULL},
    {"jittered_storm", jitteredStorm, 5, 1, 0x003780e681f57f67ULL,
     0xe260421ca4a1e31aULL},
    {"jittered_storm_early_biased", jitteredStormEarlyBiased, 6, 1,
     0x3764ac7b7ef913a0ULL, 0xacf1f0d84b7ca6b4ULL},
    {"crash_round_multicast", crashRoundMulticast, 4, 1,
     0x59b47d1b0f1282ebULL, 0xc111a55116585306ULL},
    {"detect_zero", detectZero, 4, 1, 0x0ca154bf30d7337aULL,
     0xd078d76b9f519431ULL},
};

class EngineGolden : public ::testing::TestWithParam<size_t> {};

TEST_P(EngineGolden, HashesArePinnedOnBothBackends) {
  const GoldenCase &C = Cases[GetParam()];
  scenario::Spec V = C.Load();
  engine::DesEngine Des;
  engine::ShardedEngine Sharded;
  uint64_t DesHash = engineHash(Des, V, C.Seed, C.MaxEpochs);
  uint64_t ShardedHash = engineHash(Sharded, V, C.Seed, C.MaxEpochs);
  EXPECT_EQ(DesHash, C.DesHash)
      << C.Name << " des: new hash 0x" << std::hex << DesHash;
  EXPECT_EQ(ShardedHash, C.ShardedHash)
      << C.Name << " sharded: new hash 0x" << std::hex << ShardedHash;
}

std::string caseName(const ::testing::TestParamInfo<size_t> &Info) {
  return Cases[Info.param].Name;
}

INSTANTIATE_TEST_SUITE_P(Scenarios, EngineGolden,
                         ::testing::Range<size_t>(0, std::size(Cases)),
                         caseName);

/// Retransmit timers on the sharded engine. Both specs pair a fixed
/// 30-tick latency with a shorter retransmit timeout, so timers fall due
/// while their frames and acks are still in flight.
///
/// Many ticks have only timers due (about 24 per run here): the rounds
/// run at a timer's due time with nothing drained from the calendar.
scenario::Spec timerOnlyTicks() {
  return parseOrDie("scenario timer-only-ticks\n"
                    "topology torus:6x6\n"
                    "latency fixed 30\n"
                    "link drop:0.3 rto:7\n"
                    "detect 5\n"
                    "check on\n"
                    "crash nodes 14 at 100\n");
}

/// Node 15 multicasts at t=105, on detecting 14's crash, and arms its
/// channels' timers for t=125, the tick its own crash executes. Its four
/// timers due then are skipped: the crash, merged first, purged their
/// channels.
scenario::Spec crashOnTimerTick() {
  return parseOrDie("scenario crash-on-timer-tick\n"
                    "topology torus:6x6\n"
                    "latency fixed 30\n"
                    "link drop:0.2 rto:20\n"
                    "detect 5\n"
                    "check on\n"
                    "crash nodes 14,15 at 100 gap 25\n");
}

struct TimerCase {
  const char *Name;
  scenario::Spec (*Load)();
  uint64_t Seed;
  uint64_t Hash;
};

// Recorded with retransmit timers still scheduled as calendar events.
const TimerCase TimerCases[] = {
    {"timer_only_ticks", timerOnlyTicks, 1, 0x483d7648855defb1ULL},
    {"crash_on_timer_tick", crashOnTimerTick, 1, 0x530ca609a44cd528ULL},
};

class ShardedTimerGolden : public ::testing::TestWithParam<size_t> {};

TEST_P(ShardedTimerGolden, HashIsPinnedAtEveryWorkerCount) {
  const TimerCase &C = TimerCases[GetParam()];
  scenario::Spec V = C.Load();
  for (unsigned Workers : {1u, 2u, 3u}) {
    engine::EngineOptions EO;
    EO.Workers = Workers;
    engine::ShardedEngine Sharded(EO);
    uint64_t Hash = engineHash(Sharded, V, C.Seed, 1);
    EXPECT_EQ(Hash, C.Hash) << C.Name << " workers " << Workers
                            << ": new hash 0x" << std::hex << Hash;
  }
}

INSTANTIATE_TEST_SUITE_P(
    LossyTimers, ShardedTimerGolden,
    ::testing::Range<size_t>(0, std::size(TimerCases)),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      return std::string(TimerCases[Info.param].Name);
    });

} // namespace
