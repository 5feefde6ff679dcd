//===- tests/EngineEquivalenceTest.cpp - Cross-backend differential tests -----===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The strongest evidence this reproduction offers: every curated scenario
/// is executed on both backends — the deterministic discrete-event
/// simulator and the sharded engine in deterministic-merge mode — from the
/// same (spec, seed) pair, and the runs must agree on:
///
///  * the CD1..CD7 verdicts (byte-identical violation lists, normally
///    both empty), and
///  * the final max_view of every *correct* node.
///
/// The two backends realise genuinely different interleavings (the sharded
/// merge draws seeded tie-breaks, latency streams are consumed in a
/// different order), so agreement here is exactly the paper's claim:
/// region-local consensus converges regardless of how crashes, messages
/// and repairs interleave. Faulty nodes are exempt from the max_view
/// comparison — their state freezes wherever the interleaving caught them,
/// which the paper's properties (quantified over correct nodes, except
/// uniform CD5) never constrain.
///
/// The sharded engine must additionally be replayable: identical full
/// results every time one (spec, seed) runs.
///
//===----------------------------------------------------------------------===//

#include "engine/DesEngine.h"
#include "engine/ShardedEngine.h"
#include "scenario/Parse.h"
#include "scenario/Spec.h"
#include "search/Hunter.h"
#include "trace/Checker.h"

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

struct LoadedScenario {
  std::string File;
  scenario::Spec S;
};

std::vector<LoadedScenario> loadAllScenarios() {
  std::vector<LoadedScenario> Out;
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(CLIFFEDGE_SCENARIO_DIR))
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

/// The first sweep variant, the same one `cliffedge-sim` runs without
/// --campaign. The full matrix is covered by the campaign suite; the
/// differential test pins one variant per spec to keep tier-1 fast.
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

/// One epoch's outcome on one backend, reduced to what must agree.
struct EpochOutcome {
  bool Quiesced = false;
  trace::CheckResult Check;
  graph::Region Faulty;
  std::vector<engine::NodeMaxView> FinalMaxViews;
  /// FinalMaxViews without the faulty nodes' entries.
  std::vector<engine::NodeMaxView> CorrectMaxViews;
};

/// Runs every epoch of \p V at \p Seed on \p Eng, mirroring the RNG
/// threading of CampaignRunner exactly (topology from Rng(Seed), plan and
/// latency streams split from the seed, the plan RNG consumed sequentially
/// across epochs).
std::vector<EpochOutcome> runAllEpochs(engine::Engine &Eng,
                                       const scenario::Spec &V,
                                       uint64_t Seed, std::string &Error,
                                       const net::LinkSpec *LinkOverride =
                                           nullptr) {
  std::vector<EpochOutcome> Out;
  Rng TopoRand(Seed);
  scenario::TopologyInfo Topo;
  if (!scenario::buildTopology(V.Topology, TopoRand, Topo, Error))
    return Out;
  SplitMix64 Sub(Seed);
  Rng PlanRand(Sub.next());
  Rng LatRand(Sub.next());
  trace::RunnerOptions Opts = scenario::makeRunnerOptions(V, LatRand);
  if (LinkOverride)
    Opts.Link = *LinkOverride;
  for (size_t E = 0; E < V.Epochs.size(); ++E) {
    workload::CrashPlan Plan;
    if (!scenario::buildCrashPlan(V.Epochs[E], Topo, PlanRand, V.MaxFaulty,
                                  Plan, Error))
      return Out;
    scenario::applyPerturbation(V.Perturb, Topo.G.numNodes(), Plan);
    engine::EngineJob Job;
    Job.G = &Topo.G;
    Job.Plan = &Plan;
    Job.Options = Opts;
    Job.Seed = Seed;
    engine::EngineResult R = Eng.run(Job);
    EpochOutcome O;
    O.Quiesced = R.Quiesced;
    O.Faulty = R.Faulty;
    O.CorrectMaxViews = engine::correctMaxViews(R);
    O.FinalMaxViews = std::move(R.FinalMaxViews);
    O.Check = trace::checkAll(engine::toCheckInput(R, Topo.G));
    Out.push_back(std::move(O));
  }
  return Out;
}

/// The cross-backend differential assertion for one (spec, seed).
void expectBackendsAgree(const scenario::Spec &V, uint64_t Seed,
                         const std::string &Label) {
  engine::DesEngine Des;
  engine::ShardedEngine Sharded;
  std::string ErrA, ErrB;
  std::vector<EpochOutcome> A = runAllEpochs(Des, V, Seed, ErrA);
  std::vector<EpochOutcome> B = runAllEpochs(Sharded, V, Seed, ErrB);
  ASSERT_TRUE(ErrA.empty()) << Label << ": " << ErrA;
  ASSERT_TRUE(ErrB.empty()) << Label << ": " << ErrB;
  ASSERT_EQ(A.size(), V.Epochs.size()) << Label;
  ASSERT_EQ(B.size(), V.Epochs.size()) << Label;

  for (size_t E = 0; E < A.size(); ++E) {
    const EpochOutcome &Da = A[E], &Db = B[E];
    std::string Where = Label + " epoch " + std::to_string(E + 1);
    ASSERT_TRUE(Da.Quiesced) << Where << ": des did not quiesce";
    ASSERT_TRUE(Db.Quiesced) << Where << ": sharded did not quiesce";
    // Identical materialization is a precondition of everything else.
    ASSERT_EQ(Da.Faulty, Db.Faulty) << Where << ": faulty sets differ";
    // `check off` marks an ablation whose misbehaviour is the point
    // (purelex starvation, §3.1) — and a broken ranking's failures are
    // interleaving-*dependent*, so the backends may legitimately diverge
    // there. Convergence is only claimed (and only compared) for specs
    // the paper's ranking governs.
    if (!V.Check)
      continue;
    // Byte-identical CD1..CD7 verdicts.
    EXPECT_EQ(Da.Check.Ok, Db.Check.Ok)
        << Where << "\ndes:\n"
        << Da.Check.summary() << "\nsharded:\n"
        << Db.Check.summary();
    EXPECT_EQ(Da.Check.Violations, Db.Check.Violations) << Where;
    // Final max_views of correct nodes must have converged identically
    // (a correct node absent from both lists ended with an empty view).
    EXPECT_EQ(Da.CorrectMaxViews, Db.CorrectMaxViews)
        << Where << ": correct nodes' max_views diverged";
  }
}

class EngineEquivalence : public ::testing::TestWithParam<size_t> {
public:
  static const std::vector<LoadedScenario> &scenarios() {
    static const std::vector<LoadedScenario> All = loadAllScenarios();
    return All;
  }
};

TEST_P(EngineEquivalence, VerdictsAndMaxViewsMatchAcrossBackends) {
  const LoadedScenario &Scn = scenarios()[GetParam()];
  scenario::Spec V = firstVariant(Scn.S);
  // The million-node world is a memory probe, not an interleaving probe:
  // one seed buys the cross-backend parity evidence (quiescence + faulty
  // sets; it is check-off, so the heavy comparisons are exempt anyway)
  // without ten full-scale runs in tier-1.
  uint64_t Seeds =
      Scn.File.rfind("million_", 0) == 0 ? 1 : SeedsPerScenario;
  for (uint64_t I = 0; I < Seeds; ++I) {
    uint64_t Seed = V.SeedLo + I;
    expectBackendsAgree(V, Seed,
                        Scn.File + " seed " + std::to_string(Seed));
  }
}

/// The sparse result format against per-node introspection. FinalMaxViews
/// lists (node, max_view) for touched nodes with a non-empty view and
/// Stats.SentByNode is a paged counter; read back for *every* node, they
/// must equal what a directly driven ScenarioRunner's node(N).maxView()
/// reports and what the send log counts per sender. The DES engine must
/// match the reference runner on every node (same interleaving); the
/// sharded engine on every correct node of a checked spec (converged).
TEST_P(EngineEquivalence, SparseResultsMatchPerNodeIntrospection) {
  const LoadedScenario &Scn = scenarios()[GetParam()];
  // The million-node world runs in the suites above; here it would add
  // three more full-scale runs for no extra coverage of the format.
  if (Scn.File.rfind("million_", 0) == 0)
    return;
  scenario::Spec V = firstVariant(Scn.S);
  // Each run gets its own materialization: the latency model draws from
  // an RNG the options capture, so runs must not share one.
  auto Materialize = [&](scenario::MaterializedRun &Run) {
    std::string Err;
    ASSERT_TRUE(scenario::materializeSingle(V, V.SeedLo, Run, Err))
        << Scn.File << ": " << Err;
    Run.Options.RecordSends = true;
    Run.Options.StreamingCheck = nullptr;
  };
  scenario::MaterializedRun RefRun;
  Materialize(RefRun);
  RefRun.Options.LinkSeed = V.SeedLo; // As DesEngine sets it.
  trace::ScenarioRunner Ref(RefRun.Topo->G, RefRun.Options);
  RefRun.Plan.apply(Ref);
  Ref.run();
  const uint32_t NumNodes = RefRun.Topo->G.numNodes();

  engine::DesEngine Des;
  engine::ShardedEngine Sharded;
  for (engine::Engine *Eng : {static_cast<engine::Engine *>(&Des),
                              static_cast<engine::Engine *>(&Sharded)}) {
    std::string Where = Scn.File + " [" + Eng->name() + "]";
    scenario::MaterializedRun Run;
    Materialize(Run);
    engine::EngineJob Job;
    Job.G = &Run.Topo->G;
    Job.Plan = &Run.Plan;
    Job.Options = Run.Options;
    Job.Seed = V.SeedLo;
    engine::EngineResult R = Eng->run(Job);
    ASSERT_TRUE(R.Quiesced) << Where;

    for (size_t I = 0; I < R.FinalMaxViews.size(); ++I) {
      EXPECT_FALSE(R.FinalMaxViews[I].second.empty()) << Where;
      if (I > 0) {
        EXPECT_LT(R.FinalMaxViews[I - 1].first, R.FinalMaxViews[I].first)
            << Where << ": entries must be unique and ascending";
      }
    }
    std::vector<uint64_t> SendsByNode(NumNodes, 0);
    for (const sim::SendRecord &S : R.SendLog)
      ++SendsByNode[S.From];
    EXPECT_EQ(R.Stats.SentByNode.size(), NumNodes) << Where;

    bool IsDes = Eng == &Des;
    size_t K = 0;
    for (NodeId N = 0; N < NumNodes; ++N) {
      graph::Region Sparse;
      if (K < R.FinalMaxViews.size() && R.FinalMaxViews[K].first == N)
        Sparse = R.FinalMaxViews[K++].second;
      if (IsDes || (V.Check && !R.Faulty.contains(N))) {
        EXPECT_EQ(Sparse, Ref.node(N).maxView())
            << Where << ": node " << N << " sparse max_view "
            << Sparse.str() << " vs introspected "
            << Ref.node(N).maxView().str();
      }
      EXPECT_EQ(R.Stats.SentByNode[N], SendsByNode[N])
          << Where << ": node " << N;
      if (IsDes) {
        EXPECT_EQ(R.Stats.SentByNode[N], Ref.netStats().SentByNode[N])
            << Where << ": node " << N;
      }
    }
    EXPECT_EQ(K, R.FinalMaxViews.size()) << Where;
  }
}

std::string scenarioName(const ::testing::TestParamInfo<size_t> &Info) {
  std::string Name = EngineEquivalence::scenarios()[Info.param].File;
  for (char &C : Name)
    if (!std::isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Name;
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, EngineEquivalence,
    ::testing::Range<size_t>(0, EngineEquivalence::scenarios().size()),
    scenarioName);

/// The fault-plane differential: every curated scenario re-run under
/// `link drop:0.2 dup:0.01 reorder:15` on BOTH backends must produce the
/// CD1..CD7 verdicts, faulty sets and converged max_views of the
/// zero-loss run from the same (spec, seed). This is the §2.2 abstraction
/// theorem as a test: the reliable-channel sublayer restores exactly the
/// contract the protocol was built on, so loss below it is invisible to
/// correctness — only timings, event counts and transport stats move.
/// Check-off ablation specs are exempt for the usual reason: a broken
/// ranking's failures are interleaving-dependent by design, and loss
/// changes interleavings.
TEST_P(EngineEquivalence, LossyLinksMatchZeroLossBaselineOnBothBackends) {
  const LoadedScenario &Scn = scenarios()[GetParam()];
  scenario::Spec V = firstVariant(Scn.S);
  // Ablation specs (check off) are exempt like in the cross-backend
  // suite — their misbehaviour is interleaving-dependent by design and
  // loss shifts interleavings — but exempt by *not comparing*, not by a
  // skip: the suite stays skip-free (the repo's zero-skip discipline).
  if (!V.Check)
    return;
  net::LinkSpec Lossy;
  std::string LinkErr;
  ASSERT_TRUE(
      net::parseLinkCompact("drop:0.2,dup:0.01,reorder:15", Lossy, LinkErr))
      << LinkErr;
  net::LinkSpec None;
  // The 100k+-node worlds cover scale; one seed keeps tier-1 affordable.
  // (million_* never reaches the loop body today — check off exits above
  // — but the guard keeps a future checked million spec affordable too.)
  uint64_t Seeds = Scn.File.rfind("large_", 0) == 0 ||
                           Scn.File.rfind("million_", 0) == 0
                       ? 1
                       : 2;
  for (uint64_t I = 0; I < Seeds; ++I) {
    uint64_t Seed = V.SeedLo + I;
    std::string Label = Scn.File + " seed " + std::to_string(Seed);
    engine::DesEngine Des;
    engine::ShardedEngine Sharded;
    for (engine::Engine *Eng :
         {static_cast<engine::Engine *>(&Des),
          static_cast<engine::Engine *>(&Sharded)}) {
      const char *Backend = Eng == &Des ? " [des]" : " [sharded]";
      std::string ErrBase, ErrLossy;
      std::vector<EpochOutcome> Base =
          runAllEpochs(*Eng, V, Seed, ErrBase, &None);
      std::vector<EpochOutcome> Faulted =
          runAllEpochs(*Eng, V, Seed, ErrLossy, &Lossy);
      ASSERT_TRUE(ErrBase.empty()) << Label << Backend << ": " << ErrBase;
      ASSERT_TRUE(ErrLossy.empty()) << Label << Backend << ": " << ErrLossy;
      ASSERT_EQ(Base.size(), V.Epochs.size()) << Label << Backend;
      ASSERT_EQ(Faulted.size(), V.Epochs.size()) << Label << Backend;
      for (size_t E = 0; E < Base.size(); ++E) {
        std::string Where =
            Label + Backend + " epoch " + std::to_string(E + 1);
        ASSERT_TRUE(Base[E].Quiesced) << Where;
        ASSERT_TRUE(Faulted[E].Quiesced)
            << Where << ": lossy run failed to quiesce";
        ASSERT_EQ(Base[E].Faulty, Faulted[E].Faulty) << Where;
        EXPECT_EQ(Base[E].Check.Ok, Faulted[E].Check.Ok)
            << Where << "\nzero-loss:\n"
            << Base[E].Check.summary() << "\nlossy:\n"
            << Faulted[E].Check.summary();
        EXPECT_EQ(Base[E].Check.Violations, Faulted[E].Check.Violations)
            << Where;
        // Faulty nodes freeze wherever loss caught them.
        EXPECT_EQ(Base[E].CorrectMaxViews, Faulted[E].CorrectMaxViews)
            << Where << ": max_views diverged under loss";
      }
    }
  }
}

/// Shard counts the determinism sweeps cover (the shard count is part of
/// the replay key: it orders the merge).
constexpr uint32_t SweepShards[] = {7, 32};

/// One sharded run of \p V at its first seed, freshly materialized (the
/// latency closures draw from the run's own RNG).
engine::EngineResult runSharded(const scenario::Spec &V, uint32_t Shards) {
  scenario::MaterializedRun Run;
  std::string Err;
  EXPECT_TRUE(scenario::materializeSingle(V, V.SeedLo, Run, Err)) << Err;
  engine::EngineOptions Opts;
  Opts.Shards = Shards;
  engine::ShardedEngine Eng(Opts);
  engine::EngineJob Job;
  Job.G = &Run.Topo->G;
  Job.Plan = &Run.Plan;
  Job.Options = Run.Options;
  Job.Seed = V.SeedLo;
  return Eng.run(Job);
}

/// The full result of \p B equals that of \p A: decisions, events, sends,
/// fault-plane counters and final max_views.
void expectSameRun(const engine::EngineResult &A,
                   const engine::EngineResult &B, const std::string &Where) {
  ASSERT_EQ(A.Decisions.size(), B.Decisions.size()) << Where;
  for (size_t I = 0; I < A.Decisions.size(); ++I) {
    EXPECT_EQ(A.Decisions[I].Node, B.Decisions[I].Node) << Where;
    EXPECT_EQ(A.Decisions[I].View, B.Decisions[I].View) << Where;
    EXPECT_EQ(A.Decisions[I].Chosen, B.Decisions[I].Chosen) << Where;
    EXPECT_EQ(A.Decisions[I].When, B.Decisions[I].When) << Where;
  }
  EXPECT_EQ(A.Events, B.Events) << Where;
  EXPECT_EQ(A.Stats.MessagesSent, B.Stats.MessagesSent) << Where;
  EXPECT_EQ(A.Stats.BytesSent, B.Stats.BytesSent) << Where;
  EXPECT_EQ(A.Stats.Channel.Retransmits, B.Stats.Channel.Retransmits)
      << Where;
  EXPECT_EQ(A.Stats.Channel.DupSuppressed, B.Stats.Channel.DupSuppressed)
      << Where;
  EXPECT_EQ(A.Stats.Channel.LinkDropped, B.Stats.Channel.LinkDropped)
      << Where;
  EXPECT_EQ(A.Stats.Channel.AcksSent, B.Stats.Channel.AcksSent) << Where;
  ASSERT_EQ(A.SendLog.size(), B.SendLog.size()) << Where;
  for (size_t I = 0; I < A.SendLog.size(); ++I) {
    EXPECT_EQ(A.SendLog[I].When, B.SendLog[I].When) << Where;
    EXPECT_EQ(A.SendLog[I].From, B.SendLog[I].From) << Where;
    EXPECT_EQ(A.SendLog[I].To, B.SendLog[I].To) << Where;
  }
  EXPECT_EQ(A.FinalMaxViews, B.FinalMaxViews) << Where;
}

/// Lossy sharded runs replay bit-for-bit: every link draw happens at the
/// merge, so the whole fault schedule — and with it the full result — is
/// a pure function of (spec, seed).
TEST(EngineEquivalenceSuite, LossyShardedRunReplays) {
  const auto &All = EngineEquivalence::scenarios();
  ASSERT_FALSE(All.empty());
  net::LinkSpec Lossy;
  std::string LinkErr;
  ASSERT_TRUE(net::parseLinkCompact("drop:0.25,dup:0.05,reorder:20", Lossy,
                                    LinkErr))
      << LinkErr;
  size_t Checked = 0;
  for (const LoadedScenario &Scn : All) {
    if (Scn.S.Epochs.size() != 1)
      continue;
    scenario::Spec V = firstVariant(Scn.S);
    if (++Checked > 2)
      break;
    V.Link = Lossy;
    for (uint32_t Shards : SweepShards) {
      engine::EngineResult A = runSharded(V, Shards);
      expectSameRun(A, runSharded(V, Shards),
                    Scn.File + " shards " + std::to_string(Shards));
      // A 25% drop rate on real traffic must actually have exercised the
      // plane for this determinism check to mean anything.
      EXPECT_GT(A.Stats.Channel.LinkDropped, 0u) << Scn.File;
      EXPECT_GT(A.Stats.Channel.Retransmits, 0u) << Scn.File;
    }
  }
  EXPECT_GE(Checked, 2u);
}

/// The committed hunt repro: scenarios/repros/purelex_flip_min.scn is a
/// minimized adversarial execution (found by `cliffedge-sim hunt`, shrunk
/// by the delta-debugger) whose perturbation flips the purelex ablation's
/// seed-5 verdict from passing to a CD7 starvation — and, per the repro
/// contract its `expect violation` line records, fails CD1..CD7 on BOTH
/// backends. The repros/ subdirectory is deliberately outside
/// loadAllScenarios' (non-recursive) sweep: a repro's divergence is its
/// point, so it must never enter the agreement suites above.
TEST(EngineEquivalenceSuite, CommittedReproStillFlipsOnBothBackends) {
  std::filesystem::path Path =
      std::filesystem::path(CLIFFEDGE_SCENARIO_DIR) / "repros" /
      "purelex_flip_min.scn";
  std::ifstream In(Path);
  ASSERT_TRUE(In) << "missing committed repro " << Path;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  scenario::ParseResult Parsed = scenario::parseSpec(Buf.str());
  ASSERT_TRUE(Parsed.Ok) << Parsed.diagText();
  scenario::Spec V = firstVariant(Parsed.S);
  ASSERT_EQ(V.Expect, scenario::Expectation::Violation);
  ASSERT_FALSE(V.Perturb.empty());
  for (engine::BackendKind B :
       {engine::BackendKind::Des, engine::BackendKind::Sharded}) {
    search::RunSummary Sum;
    std::string Err;
    ASSERT_TRUE(search::evaluatePerturbed(V, V.Perturb, B, V.SeedLo, Sum,
                                          Err))
        << Err;
    EXPECT_TRUE(Sum.Quiesced) << engine::backendName(B);
    EXPECT_FALSE(Sum.CheckOk)
        << engine::backendName(B)
        << ": the committed repro no longer violates CD1..CD7";
  }
  // The unperturbed baseline must still pass on the hunted backend —
  // otherwise this is not a flip, just a broken scenario.
  search::RunSummary Base;
  std::string Err;
  ASSERT_TRUE(search::evaluatePerturbed(V, scenario::Perturbation(),
                                        engine::BackendKind::Sharded,
                                        V.SeedLo, Base, Err))
      << Err;
  EXPECT_TRUE(Base.CheckOk) << "seed-5 sharded baseline regressed";
}

/// The inverse guarantee: scenarios the paper's ranking governs (check
/// on) survive a short adversarial hunt with zero confirmed violations —
/// the hunter only finds flips where the protocol is deliberately broken.
TEST(EngineEquivalenceSuite, CheckedScenariosSurviveShortHunt) {
  size_t Hunted = 0;
  for (const LoadedScenario &Scn : EngineEquivalence::scenarios()) {
    if (!Scn.S.Check || Scn.S.Epochs.size() != 1)
      continue;
    if (Scn.File.rfind("large_", 0) == 0)
      continue; // The 100k-node worlds: hunted by the perf suite's budget.
    scenario::Spec V = firstVariant(Scn.S);
    search::HuntOptions Opts;
    Opts.Budget = 4;
    Opts.Jobs = 2;
    search::HuntResult Res = search::hunt(V, Opts);
    ASSERT_TRUE(Res.Ok) << Scn.File << ": " << Res.Error;
    EXPECT_TRUE(Res.Violations.empty())
        << Scn.File << ": adversarial perturbation flipped a governed "
        << "scenario's CD1..CD7 verdict (nonce "
        << (Res.Violations.empty() ? 0 : Res.Violations.front().Nonce)
        << ")";
    ++Hunted;
  }
  EXPECT_GE(Hunted, 4u);
}

TEST(EngineEquivalenceSuite, CuratedScenariosWereFound) {
  // The differential suite is only meaningful if it actually saw the
  // curated specs (guards against a bad CLIFFEDGE_SCENARIO_DIR).
  EXPECT_GE(EngineEquivalence::scenarios().size(), 9u);
}

/// Deterministic merge: the sharded engine's full result — not just the
/// converged outcome — is a pure function of (spec, seed).
TEST(EngineEquivalenceSuite, ShardedRunReplays) {
  const auto &All = EngineEquivalence::scenarios();
  ASSERT_FALSE(All.empty());
  size_t Checked = 0;
  for (const LoadedScenario &Scn : All) {
    if (Scn.S.Epochs.size() != 1)
      continue;
    scenario::Spec V = firstVariant(Scn.S);
    // Keep this determinism sweep cheap: the two smallest-name scenarios
    // suffice; every scenario is covered by the differential suite above.
    if (++Checked > 2)
      break;
    for (uint32_t Shards : SweepShards)
      expectSameRun(runSharded(V, Shards), runSharded(V, Shards),
                    Scn.File + " shards " + std::to_string(Shards));
  }
  EXPECT_GE(Checked, 2u);
}

} // namespace
