//===- tests/CheckerEquivalenceTest.cpp - Streaming vs batch checker ---------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential pinning of trace::StreamingChecker to the batch reference
/// checker. The streaming core is the production verdict path (checkAll
/// replays through it), so its contract is strict: for every curated
/// scenario — repros included — on both backends, the online checker fed
/// during the run must produce the *byte-identical* CD1..CD7 verdict the
/// seven-pass batch checker computes from the materialized trace.
///
/// A second property pins feed-order insensitivity: the verdict is a pure
/// function of the event sets, not of how the run interleaved them.
/// Chunking one trace's merged event stream into batches of 1, of 7, and
/// of everything-at-once — regrouping each chunk as sends, then
/// decisions, then crashes — must yield byte-identical results. This is
/// what lets very different producers (DES callbacks, the sharded merge)
/// share one checker.
///
//===----------------------------------------------------------------------===//

#include "engine/DesEngine.h"
#include "engine/ShardedEngine.h"
#include "graph/Builders.h"
#include "scenario/Parse.h"
#include "scenario/Spec.h"
#include "support/PagedStore.h"
#include "trace/Checker.h"
#include "trace/StreamingChecker.h"
#include "workload/CrashPlans.h"

#include "gtest/gtest.h"

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace cliffedge;

#ifndef CLIFFEDGE_SCENARIO_DIR
#error "CLIFFEDGE_SCENARIO_DIR must point at the repo's scenarios/ directory"
#endif

namespace {

constexpr uint64_t SeedsPerScenario = 5;

/// Service specs generate unbounded churn; a few epochs exercise the
/// seal/reset boundary (carried state must not leak across epochs) while
/// keeping tier-1 affordable. The full 100k-crash run is the soak test.
constexpr size_t ServiceEpochCap = 3;

struct LoadedScenario {
  std::string File;
  scenario::Spec S;
};

/// Every .scn in scenarios/ AND scenarios/repros/. Unlike the engine
/// equivalence suite, repros belong here: a repro's run *violates*
/// CD1..CD7 by design, which is exactly the path where the two checkers'
/// violation strings must still match byte for byte.
std::vector<LoadedScenario> loadAllScenarios() {
  std::vector<LoadedScenario> Out;
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(CLIFFEDGE_SCENARIO_DIR))
    if (Entry.path().extension() == ".scn")
      Files.push_back(Entry.path());
  std::filesystem::path Repros =
      std::filesystem::path(CLIFFEDGE_SCENARIO_DIR) / "repros";
  if (std::filesystem::exists(Repros))
    for (const auto &Entry : std::filesystem::directory_iterator(Repros))
      if (Entry.path().extension() == ".scn")
        Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  for (const auto &Path : Files) {
    std::ifstream In(Path);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    scenario::ParseResult Parsed = scenario::parseSpec(Buf.str());
    EXPECT_TRUE(Parsed.Ok) << Path << ":\n" << Parsed.diagText();
    if (Parsed.Ok)
      Out.push_back({Path.filename().string(), std::move(Parsed.S)});
  }
  return Out;
}

scenario::Spec firstVariant(const scenario::Spec &S) {
  scenario::Spec V = S;
  V.Sweeps.clear();
  for (const scenario::SweepAxis &Axis : S.Sweeps) {
    std::string Err;
    EXPECT_TRUE(scenario::applyOverride(V, Axis.Key, Axis.Values.front(),
                                        Err))
        << Err;
  }
  return V;
}

scenario::Spec loadScenario(const std::string &Name) {
  std::ifstream In(std::string(CLIFFEDGE_SCENARIO_DIR) + "/" + Name);
  EXPECT_TRUE(In) << "missing scenario " << Name;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  scenario::ParseResult Parsed = scenario::parseSpec(Buf.str());
  EXPECT_TRUE(Parsed.Ok) << Name << ":\n" << Parsed.diagText();
  return Parsed.S;
}

/// Runs every epoch of \p V at \p Seed on \p Eng with both worlds active
/// at once — the send log recorded for the batch checker AND the
/// streaming checker attached as the engine's online sink — and asserts
/// the two verdicts agree byte for byte at each epoch seal.
void expectStreamingMatchesBatch(engine::Engine &Eng,
                                 const scenario::Spec &V, uint64_t Seed,
                                 const std::string &Label) {
  Rng TopoRand(Seed);
  scenario::TopologyInfo Topo;
  std::string Error;
  ASSERT_TRUE(scenario::buildTopology(V.Topology, TopoRand, Topo, Error))
      << Label << ": " << Error;
  SplitMix64 Sub(Seed);
  Rng PlanRand(Sub.next());
  Rng LatRand(Sub.next());
  trace::RunnerOptions Opts = scenario::makeRunnerOptions(V, LatRand);
  trace::StreamingChecker SC(Topo.G);
  Opts.StreamingCheck = &SC;
  Opts.RecordSends = true;
  size_t EpochCount =
      V.ServiceEpochs
          ? std::min<size_t>(ServiceEpochCap, (size_t)V.ServiceEpochs)
          : V.Epochs.size();
  for (size_t E = 0; E < EpochCount; ++E) {
    workload::CrashPlan Plan;
    if (V.ServiceEpochs) {
      Plan = workload::poissonChurn(Topo.G, (double)V.ChurnRate,
                                    (size_t)V.ChurnSize, 100,
                                    V.ChurnHorizon, PlanRand);
      size_t Cap = Topo.G.numNodes() * 3 / 4;
      if (V.MaxFaulty)
        Cap = std::min(Cap, (size_t)V.MaxFaulty);
      Plan = workload::capFaulty(std::move(Plan), Cap);
    } else {
      ASSERT_TRUE(scenario::buildCrashPlan(V.Epochs[E], Topo, PlanRand,
                                           V.MaxFaulty, Plan, Error))
          << Label << ": " << Error;
      scenario::applyPerturbation(V.Perturb, Topo.G.numNodes(), Plan);
    }
    engine::EngineJob Job;
    Job.G = &Topo.G;
    Job.Plan = &Plan;
    Job.Options = Opts;
    Job.Seed = Seed;
    engine::EngineResult R = Eng.run(Job);
    std::string Where = Label + " epoch " + std::to_string(E + 1);
    ASSERT_TRUE(R.Quiesced) << Where;
    trace::CheckResult Batch =
        trace::checkAllBatch(engine::toCheckInput(R, Topo.G));
    trace::CheckResult Online = SC.sealEpoch();
    EXPECT_EQ(Batch.Ok, Online.Ok)
        << Where << "\nbatch:\n"
        << Batch.summary() << "\nstreaming:\n"
        << Online.summary();
    EXPECT_EQ(Batch.Violations, Online.Violations) << Where;
  }
}

class CheckerEquivalence : public ::testing::TestWithParam<size_t> {
public:
  static const std::vector<LoadedScenario> &scenarios() {
    static const std::vector<LoadedScenario> All = loadAllScenarios();
    return All;
  }
};

TEST_P(CheckerEquivalence, StreamingMatchesBatchOnBothBackends) {
  const LoadedScenario &Scn = scenarios()[GetParam()];
  scenario::Spec V = firstVariant(Scn.S);
  engine::DesEngine Des;
  engine::ShardedEngine Sharded;
  for (engine::Engine *Eng :
       {static_cast<engine::Engine *>(&Des),
        static_cast<engine::Engine *>(&Sharded)}) {
    const char *Backend = Eng == &Des ? " [des]" : " [sharded]";
    for (uint64_t I = 0; I < SeedsPerScenario; ++I) {
      uint64_t Seed = V.SeedLo + I;
      expectStreamingMatchesBatch(
          *Eng, V, Seed,
          Scn.File + Backend + " seed " + std::to_string(Seed));
    }
  }
}

std::string scenarioName(const ::testing::TestParamInfo<size_t> &Info) {
  std::string Name = CheckerEquivalence::scenarios()[Info.param].File;
  for (char &C : Name)
    if (!std::isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Name;
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, CheckerEquivalence,
    ::testing::Range<size_t>(0, CheckerEquivalence::scenarios().size()),
    scenarioName);

TEST(CheckerEquivalenceSuite, ReprosWereIncluded) {
  // The violating path is only pinned if the committed repro actually
  // entered the sweep (guards against the repros/ scan silently failing).
  bool SawRepro = false;
  for (const LoadedScenario &Scn : CheckerEquivalence::scenarios())
    SawRepro |= Scn.File == "purelex_flip_min.scn";
  EXPECT_TRUE(SawRepro);
}

// -- Feed-order insensitivity -----------------------------------------------

/// One materialized trace, reduced to the three event streams a producer
/// can feed. Per-stream order is the feed contract (decisions in emission
/// order, sends in log order); cross-stream interleaving is not.
struct EventStreams {
  graph::Graph G;
  std::vector<std::pair<NodeId, SimTime>> Crashes; ///< Sorted by (When, Node).
  std::vector<sim::SendRecord> Sends;
  std::vector<trace::DecisionRecord> Decisions;
};

/// Runs the first variant of \p Name at its first seed on the DES engine
/// and captures the full event streams plus the batch verdict.
void materializeStreams(const std::string &Name, EventStreams &Out,
                        trace::CheckResult &Batch) {
  scenario::Spec V = firstVariant(loadScenario(Name));
  ASSERT_EQ(V.Epochs.size(), 1u) << Name;
  scenario::MaterializedRun Run;
  std::string Err;
  // materializeSingle already applies V.Perturb — the repro's flip rides in.
  ASSERT_TRUE(scenario::materializeSingle(V, V.SeedLo, Run, Err)) << Err;
  engine::DesEngine Eng;
  engine::EngineJob Job;
  Job.G = &Run.Topo->G;
  Job.Plan = &Run.Plan;
  Job.Options = Run.Options;
  Job.Seed = V.SeedLo;
  engine::EngineResult R = Eng.run(Job);
  ASSERT_TRUE(R.Quiesced) << Name;
  Batch = trace::checkAllBatch(engine::toCheckInput(R, Run.Topo->G));
  Out.G = Run.Topo->G;
  for (NodeId N : R.Faulty)
    Out.Crashes.push_back({N, R.CrashTimes[N]});
  std::sort(Out.Crashes.begin(), Out.Crashes.end(),
            [](const auto &A, const auto &B) {
              return A.second != B.second ? A.second < B.second
                                          : A.first < B.first;
            });
  Out.Sends = R.SendLog;
  Out.Decisions = R.Decisions;
}

/// Feeds the three streams through a fresh StreamingChecker in chunks of
/// \p Chunk events drawn from a 3-way time merge (per-stream order
/// preserved). Within each chunk the events are regrouped sends first,
/// then decisions, then crashes — so chunk=everything feeds every send
/// before any crash, the maximal reordering the contract allows.
trace::CheckResult feedChunked(const EventStreams &Ev, size_t Chunk) {
  trace::StreamingChecker SC(Ev.G);
  size_t Ci = 0, Si = 0, Di = 0;
  auto Remaining = [&] {
    return (Ev.Crashes.size() - Ci) + (Ev.Sends.size() - Si) +
           (Ev.Decisions.size() - Di);
  };
  while (Remaining() > 0) {
    size_t Budget = std::min(Chunk, Remaining());
    // Draw the next Budget events off the merge front.
    size_t C0 = Ci, S0 = Si, D0 = Di;
    for (size_t K = 0; K < Budget; ++K) {
      SimTime Ct = Ci < Ev.Crashes.size() ? Ev.Crashes[Ci].second
                                          : TimeNever;
      SimTime St = Si < Ev.Sends.size() ? Ev.Sends[Si].When : TimeNever;
      SimTime Dt = Di < Ev.Decisions.size() ? Ev.Decisions[Di].When
                                            : TimeNever;
      if (Ci < Ev.Crashes.size() && Ct <= St && Ct <= Dt)
        ++Ci;
      else if (Si < Ev.Sends.size() && St <= Dt)
        ++Si;
      else
        ++Di;
    }
    // Regrouped delivery: sends, then decisions, then crashes.
    for (size_t I = S0; I < Si; ++I)
      SC.onSend(Ev.Sends[I].When, Ev.Sends[I].From, Ev.Sends[I].To,
                Ev.Sends[I].Bytes);
    for (size_t I = D0; I < Di; ++I)
      SC.onDecision(Ev.Decisions[I]);
    for (size_t I = C0; I < Ci; ++I)
      SC.onCrash(Ev.Crashes[I].first, Ev.Crashes[I].second);
  }
  return SC.sealEpoch();
}

/// Chunk sizes 1, 7 and all-at-once must be indistinguishable from each
/// other and from the batch checker — on a clean trace and, more
/// importantly, on the committed repro's violating one, where the
/// violation *strings* (not just the flags) must survive every chunking.
TEST(CheckerEquivalenceSuite, ChunkedFeedsAreByteIdentical) {
  struct Case {
    const char *Name;
    bool ExpectOk;
  } Cases[] = {
      {"fig2_adjacent_domains.scn", true},
      {"repros/purelex_flip_min.scn", false},
  };
  for (const Case &C : Cases) {
    EventStreams Ev;
    trace::CheckResult Batch;
    materializeStreams(C.Name, Ev, Batch);
    EXPECT_EQ(Batch.Ok, C.ExpectOk) << C.Name;
    trace::CheckResult One = feedChunked(Ev, 1);
    trace::CheckResult Seven = feedChunked(Ev, 7);
    trace::CheckResult All = feedChunked(Ev, (size_t)-1);
    EXPECT_EQ(Batch.Ok, One.Ok) << C.Name;
    EXPECT_EQ(Batch.Violations, One.Violations) << C.Name;
    EXPECT_EQ(One.Ok, Seven.Ok) << C.Name;
    EXPECT_EQ(One.Violations, Seven.Violations) << C.Name;
    EXPECT_EQ(One.Ok, All.Ok) << C.Name;
    EXPECT_EQ(One.Violations, All.Violations) << C.Name;
  }
}

/// The replay wrapper IS the streaming checker: trace::checkAll must give
/// the reference verdict too (this is the production path every other
/// suite exercises implicitly; pinned here once, explicitly).
TEST(CheckerEquivalenceSuite, ReplayWrapperMatchesBatch) {
  EventStreams Ev;
  trace::CheckResult Batch;
  materializeStreams("repros/purelex_flip_min.scn", Ev, Batch);
  trace::CheckInput In;
  In.G = &Ev.G;
  for (const auto &Cr : Ev.Crashes)
    In.Faulty.insert(Cr.first);
  In.CrashTimes.assign(Ev.G.numNodes(), TimeNever);
  for (const auto &Cr : Ev.Crashes)
    In.CrashTimes[Cr.first] = Cr.second;
  In.Decisions = Ev.Decisions;
  In.SendLog = &Ev.Sends;
  trace::CheckResult Replayed = trace::checkAll(In);
  EXPECT_EQ(Batch.Ok, Replayed.Ok);
  EXPECT_EQ(Batch.Violations, Replayed.Violations);
}

/// A 10,000-node torus spans many pages of the checker's node store.
/// Nodes 4095 and 4096 (row 40, columns 95/96) and 8191 and
/// 8192 (row 81, columns 91/92) are horizontal neighbours across a page
/// boundary, so these outages, their borders and their agreement waves
/// all straddle pages.
static_assert(4096 % support::PagedStore<uint64_t>::PageSize == 0,
              "4096 and 8192 must start pages");
graph::Graph pageStraddlingWorld() { return graph::makeTorus(100, 100); }

workload::CrashPlan straddlingPlan(std::initializer_list<NodeId> Nodes,
                                   SimTime When) {
  workload::CrashPlan P;
  SimTime T = When;
  for (NodeId N : Nodes)
    P.Crashes.push_back({N, T++});
  return P;
}

engine::EngineResult runPlan(engine::Engine &Eng, const graph::Graph &G,
                             const workload::CrashPlan &Plan) {
  engine::EngineJob Job;
  Job.G = &G;
  Job.Plan = &Plan;
  Job.Seed = 7;
  return Eng.run(Job);
}

/// Breaks a clean run's decisions so every seal path has findings across
/// the page boundary: a wrong value (CD5), a view with a live member
/// (CD2 pending, then CD4 obligations on its border), and a decision by
/// a node off the view's border (CD2).
void tamper(std::vector<trace::DecisionRecord> &Ds) {
  ASSERT_FALSE(Ds.empty());
  Ds.front().Chosen += 1;
  trace::DecisionRecord Live;
  Live.Node = 4097;
  Live.View = graph::Region({4096, 4098});
  Live.When = Ds.back().When;
  Ds.push_back(Live);
  trace::DecisionRecord OffBorder;
  OffBorder.Node = 5000;
  OffBorder.View = graph::Region({4095});
  OffBorder.When = Ds.back().When + 1;
  Ds.push_back(OffBorder);
}

TEST(CheckerEquivalenceSuite, PageStraddlingWorldIsByteIdentical) {
  graph::Graph G = pageStraddlingWorld();
  workload::CrashPlan Plan =
      straddlingPlan({4095, 4096, 3996, 8191, 8192, 9999}, 100);
  engine::DesEngine Des;
  engine::ShardedEngine Sharded;
  for (engine::Engine *Eng : {static_cast<engine::Engine *>(&Des),
                              static_cast<engine::Engine *>(&Sharded)}) {
    engine::EngineResult R = runPlan(*Eng, G, Plan);
    ASSERT_TRUE(R.Quiesced) << Eng->name();
    for (bool Tampered : {false, true}) {
      std::string Where = std::string(Eng->name()) +
                          (Tampered ? " tampered" : " clean");
      trace::CheckInput In = engine::toCheckInput(R, G);
      if (Tampered)
        tamper(In.Decisions);
      trace::CheckResult Batch = trace::checkAllBatch(In);
      trace::CheckResult Streamed = trace::checkAll(In);
      EXPECT_EQ(Batch.Ok, !Tampered) << Where << "\n" << Batch.summary();
      EXPECT_EQ(Batch.Ok, Streamed.Ok) << Where;
      EXPECT_EQ(Batch.Violations, Streamed.Violations) << Where;
    }
  }
}

/// Feeds one finished run (optionally tampered) into \p SC as one epoch.
trace::CheckResult feedEpoch(trace::StreamingChecker &SC,
                             const engine::EngineResult &R, bool Tampered) {
  for (NodeId N : R.Faulty)
    SC.onCrash(N, R.CrashTimes[N]);
  for (const sim::SendRecord &S : R.SendLog)
    SC.onSend(S.When, S.From, S.To, S.Bytes);
  std::vector<trace::DecisionRecord> Ds = R.Decisions;
  if (Tampered)
    tamper(Ds);
  for (const trace::DecisionRecord &D : Ds)
    SC.onDecision(D);
  return SC.sealEpoch();
}

/// The seal resets only what the epoch touched. Epoch 2 reuses nodes that
/// epoch 1 crashed, bordered and decided on (its records live on the same
/// pages), so any state the reset missed would change epoch 2's verdict or
/// metrics against a fresh checker fed epoch 2 alone.
TEST(CheckerEquivalenceSuite, SealedEpochLeaksNothingIntoTheNext) {
  graph::Graph G = pageStraddlingWorld();
  workload::CrashPlan Plan1 =
      straddlingPlan({4095, 4096, 3996, 8191, 8192, 9999}, 100);
  // Epoch 2's border holds epoch 1's crashed nodes 4096, 3996 and 8191
  // and its decider 4196; they decide again, now as live nodes.
  workload::CrashPlan Plan2 =
      straddlingPlan({4097, 4098, 3997, 4197, 8190}, 50);
  engine::DesEngine Des;
  engine::EngineResult R1 = runPlan(Des, G, Plan1);
  engine::EngineResult R2 = runPlan(Des, G, Plan2);
  ASSERT_TRUE(R1.Quiesced && R2.Quiesced);

  for (bool Tampered : {false, true}) {
    std::string Where = Tampered ? "tampered" : "clean";
    trace::StreamingChecker Long(G), Fresh1(G), Fresh2(G);
    trace::CheckResult First = feedEpoch(Long, R1, /*Tampered=*/true);
    EXPECT_FALSE(First.Ok) << Where;
    trace::StreamingChecker::Metrics M1 = Long.metrics();
    trace::CheckResult Second = feedEpoch(Long, R2, Tampered);
    trace::StreamingChecker::Metrics M2 = Long.metrics();
    EXPECT_EQ(Long.openWaves(), 0u) << Where;

    feedEpoch(Fresh1, R1, /*Tampered=*/true);
    trace::CheckResult Alone = feedEpoch(Fresh2, R2, Tampered);
    trace::StreamingChecker::Metrics F1 = Fresh1.metrics();
    trace::StreamingChecker::Metrics F2 = Fresh2.metrics();

    // Epoch 2's verdict is the fresh checker's, and both are the batch
    // checker's over epoch 2's materialized trace.
    EXPECT_EQ(Second.Ok, Alone.Ok) << Where;
    EXPECT_EQ(Second.Violations, Alone.Violations) << Where;
    EXPECT_EQ(Second.Ok, !Tampered) << Where;
    trace::CheckInput In2 = engine::toCheckInput(R2, G);
    if (Tampered)
      tamper(In2.Decisions);
    EXPECT_EQ(trace::checkAllBatch(In2).Violations, Second.Violations)
        << Where;

    // Epoch 2's share of the cumulative metrics is the fresh checker's;
    // the high-water marks are the larger epoch's.
    EXPECT_EQ(M1.EpochsSealed, 1u);
    EXPECT_EQ(M2.EpochsSealed, 2u);
    EXPECT_EQ(M2.CrashesSeen - M1.CrashesSeen, F2.CrashesSeen) << Where;
    EXPECT_EQ(M2.DecisionsSeen - M1.DecisionsSeen, F2.DecisionsSeen)
        << Where;
    EXPECT_EQ(M2.MessagesSeen - M1.MessagesSeen, F2.MessagesSeen) << Where;
    EXPECT_EQ(M2.ViolationsSeen - M1.ViolationsSeen, F2.ViolationsSeen)
        << Where;
    EXPECT_EQ(M2.StateHighWater,
              std::max(F1.StateHighWater, F2.StateHighWater))
        << Where;
    EXPECT_EQ(M2.OpenWavesHighWater,
              std::max(F1.OpenWavesHighWater, F2.OpenWavesHighWater))
        << Where;
    EXPECT_EQ(M2.LatencyMax, std::max(F1.LatencyMax, F2.LatencyMax))
        << Where;
  }
}

} // namespace
