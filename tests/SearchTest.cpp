//===- tests/SearchTest.cpp - Search-plane unit and property tests ---------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The search plane's contracts, from the bottom up: applyPerturbation
/// keeps any mutation stream — however hostile — inside a legal crash
/// plan; Perturbation records round-trip losslessly through the .scn
/// format; a perturbed execution replays bit-for-bit on both backends;
/// the null perturbation is byte-identical
/// to the unhooked data path; a hunt's result is a pure function of its
/// options at any --jobs value; and the headline acceptance — the hunter
/// finds the purelex seed-5 verdict flip, the delta-debugger shrinks it,
/// and the emitted repro replays to the same violation on both engines.
///
//===----------------------------------------------------------------------===//

#include "scenario/Parse.h"
#include "scenario/Spec.h"
#include "search/Hunter.h"
#include "search/Minimize.h"
#include "support/Random.h"
#include "workload/CrashPlans.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

using namespace cliffedge;

#ifndef CLIFFEDGE_SCENARIO_DIR
#error "CLIFFEDGE_SCENARIO_DIR must point at the repo's scenarios/ directory"
#endif

namespace {

scenario::Spec loadScenario(const std::string &Name) {
  std::ifstream In(std::string(CLIFFEDGE_SCENARIO_DIR) + "/" + Name);
  EXPECT_TRUE(In) << Name;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  scenario::ParseResult Parsed = scenario::parseSpec(Buf.str());
  EXPECT_TRUE(Parsed.Ok) << Name << ":\n" << Parsed.diagText();
  return std::move(Parsed.S);
}

/// The sweep-resolved variant a single run executes.
scenario::Spec firstVariant(const scenario::Spec &S) {
  scenario::Spec V = S;
  V.Sweeps.clear();
  for (const scenario::SweepAxis &Axis : S.Sweeps) {
    std::string Err;
    EXPECT_TRUE(
        scenario::applyOverride(V, Axis.Key, Axis.Values.front(), Err))
        << Err;
  }
  return V;
}

workload::CrashPlan makePlan(uint32_t Nodes, SimTime Start = 100,
                             SimTime Gap = 10) {
  workload::CrashPlan Plan;
  for (uint32_t I = 0; I < Nodes; ++I) {
    workload::TimedCrash C;
    C.Node = I;
    C.When = Start + I * Gap;
    Plan.Crashes.push_back(C);
  }
  return Plan;
}

/// Plans stay sorted by (When, Node) — the schedule order every engine
/// (and capFaulty) assumes.
void expectWellOrdered(const workload::CrashPlan &Plan) {
  for (size_t I = 1; I < Plan.Crashes.size(); ++I) {
    const workload::TimedCrash &A = Plan.Crashes[I - 1];
    const workload::TimedCrash &B = Plan.Crashes[I];
    EXPECT_TRUE(A.When < B.When || (A.When == B.When && A.Node <= B.Node));
  }
}

TEST(SearchPerturbation, OutOfRangeEditsAreInert) {
  workload::CrashPlan Plan = makePlan(4);
  scenario::Perturbation P;
  P.Drops = {7, 100};
  scenario::CrashShift Sh;
  Sh.Index = 50;
  Sh.Delta = -30;
  P.Shifts = {Sh};
  scenario::applyPerturbation(P, /*NumNodes=*/64, Plan);
  ASSERT_EQ(Plan.Crashes.size(), 4u);
  for (uint32_t I = 0; I < 4; ++I)
    EXPECT_EQ(Plan.Crashes[I].When, 100u + I * 10);
}

TEST(SearchPerturbation, ShiftsSaturateAtBothEnds) {
  workload::CrashPlan Plan = makePlan(3);
  scenario::Perturbation P;
  scenario::CrashShift Lo, Hi;
  Lo.Index = 0;
  Lo.Delta = -1000000; // Far past t=0.
  Hi.Index = 2;
  Hi.Delta = std::numeric_limits<int64_t>::max(); // Far past TimeNever.
  P.Shifts = {Lo, Hi};
  scenario::applyPerturbation(P, 64, Plan);
  ASSERT_EQ(Plan.Crashes.size(), 3u);
  EXPECT_EQ(Plan.Crashes.front().When, 0u);
  EXPECT_LT(Plan.Crashes.back().When, TimeNever);
  expectWellOrdered(Plan);
}

TEST(SearchPerturbation, DegeneratePlansAreCappedAtThreeQuarters) {
  // A hostile record that drops nothing over a plan crashing the whole
  // graph: the capFaulty guard must bound it at 3/4 of the topology.
  workload::CrashPlan Plan = makePlan(16);
  scenario::applyPerturbation(scenario::Perturbation(), /*NumNodes=*/16,
                              Plan);
  EXPECT_EQ(Plan.Crashes.size(), 12u);
  EXPECT_LE(Plan.faultySet().size(), 12u);
}

TEST(SearchPerturbation, HostileMutationStreamsStayBounded) {
  // Property: whatever a random (adversarially seeded) stream of drops
  // and shifts does, the applied plan never crashes more than 3/4 of the
  // graph and stays schedule-ordered.
  SplitMix64 R(0xbadc0ffee0ddf00dULL);
  for (int Iter = 0; Iter < 200; ++Iter) {
    uint32_t Nodes = 4 + static_cast<uint32_t>(R.next() % 29);
    uint32_t PlanSize = static_cast<uint32_t>(R.next() % (Nodes + 1));
    workload::CrashPlan Plan = makePlan(PlanSize, R.next() % 200,
                                        R.next() % 40);
    scenario::Perturbation P;
    for (uint64_t D = R.next() % 8; D; --D) {
      uint32_t Idx = static_cast<uint32_t>(R.next() % (PlanSize + 4));
      auto It = std::lower_bound(P.Drops.begin(), P.Drops.end(), Idx);
      if (It == P.Drops.end() || *It != Idx)
        P.Drops.insert(It, Idx);
    }
    for (uint64_t S = R.next() % 8; S; --S) {
      scenario::CrashShift Sh;
      Sh.Index = static_cast<uint32_t>(R.next() % (PlanSize + 4));
      Sh.Delta = static_cast<int64_t>(R.next() % 4000) - 2000;
      if (!Sh.Delta)
        Sh.Delta = 1;
      bool Dup = false;
      for (const scenario::CrashShift &E : P.Shifts)
        Dup |= E.Index == Sh.Index;
      if (!Dup)
        P.Shifts.push_back(Sh);
    }
    std::sort(P.Shifts.begin(), P.Shifts.end(),
              [](const scenario::CrashShift &A,
                 const scenario::CrashShift &B) { return A.Index < B.Index; });
    scenario::applyPerturbation(P, Nodes, Plan);
    EXPECT_LE(Plan.faultySet().size(), (static_cast<size_t>(Nodes) * 3) / 4)
        << "iter " << Iter;
    expectWellOrdered(Plan);
  }
}

TEST(SearchPerturbation, RoundTripsThroughScnFormat) {
  // Property: any well-formed Perturbation survives writeSpec -> parse
  // unchanged (with objective and expectation riding along).
  scenario::Spec Base = loadScenario("purelex_ablation.scn");
  SplitMix64 R(0x5363656e52747269ULL);
  for (int Iter = 0; Iter < 100; ++Iter) {
    scenario::Spec S = Base;
    scenario::Perturbation &P = S.Perturb;
    if (R.next() & 1)
      P.TieBias = R.next() | 1;
    if (R.next() & 1)
      P.LinkSalt = R.next() | 1;
    if (R.next() & 1) {
      P.HasLink = true;
      P.Link.DropBp = static_cast<uint32_t>(R.next() % 4000);
      P.Link.DupBp = static_cast<uint32_t>(R.next() % 1000);
      P.Link.Reorder = R.next() % 40;
      net::normalizeLinkSpec(P.Link);
    }
    for (uint64_t D = R.next() % 4; D; --D) {
      uint32_t Idx = static_cast<uint32_t>(R.next() % 8);
      auto It = std::lower_bound(P.Drops.begin(), P.Drops.end(), Idx);
      if (It == P.Drops.end() || *It != Idx)
        P.Drops.insert(It, Idx);
    }
    for (uint64_t N = R.next() % 4; N; --N) {
      uint32_t Idx = static_cast<uint32_t>(R.next() % 8);
      int64_t Delta = static_cast<int64_t>(R.next() % 240) - 120;
      if (!Delta)
        Delta = 10;
      bool Dup = false;
      for (const scenario::CrashShift &E : P.Shifts)
        Dup |= E.Index == Idx;
      if (Dup)
        continue;
      scenario::CrashShift Sh;
      Sh.Index = Idx;
      Sh.Delta = Delta;
      auto It = std::lower_bound(
          P.Shifts.begin(), P.Shifts.end(), Idx,
          [](const scenario::CrashShift &A, uint32_t I) {
            return A.Index < I;
          });
      P.Shifts.insert(It, Sh);
    }
    S.Objective = "cd-flip";
    S.Expect = (R.next() & 1) ? scenario::Expectation::Violation
                              : scenario::Expectation::Ok;
    std::string Text = scenario::writeSpec(S);
    scenario::ParseResult Back = scenario::parseSpec(Text);
    ASSERT_TRUE(Back.Ok) << "iter " << Iter << ":\n"
                         << Back.diagText() << "\n"
                         << Text;
    EXPECT_EQ(S, Back.S) << "iter " << Iter << "\n" << Text;
  }
}

TEST(SearchReplay, PerturbedRunIsBitIdenticalAcrossReplays) {
  scenario::Spec V = firstVariant(loadScenario("purelex_ablation.scn"));
  scenario::Perturbation P;
  P.TieBias = 0x7ea5;
  P.LinkSalt = 0x11;
  P.HasLink = true;
  std::string LinkErr;
  ASSERT_TRUE(net::parseLinkCompact("drop:0.25,reorder:10", P.Link, LinkErr))
      << LinkErr;
  P.Drops = {1};
  for (engine::BackendKind B :
       {engine::BackendKind::Des, engine::BackendKind::Sharded}) {
    search::RunSummary A, C;
    std::string Err;
    ASSERT_TRUE(search::evaluatePerturbed(V, P, B, 5, A, Err)) << Err;
    ASSERT_TRUE(search::evaluatePerturbed(V, P, B, 5, C, Err)) << Err;
    EXPECT_EQ(A.Events, C.Events) << engine::backendName(B);
    EXPECT_EQ(A.Signature, C.Signature) << engine::backendName(B);
    EXPECT_EQ(A.ViewPathHash, C.ViewPathHash) << engine::backendName(B);
    EXPECT_EQ(A.FaultyHash, C.FaultyHash) << engine::backendName(B);
    EXPECT_EQ(A.Retransmits, C.Retransmits) << engine::backendName(B);
    EXPECT_EQ(A.DecisionCount, C.DecisionCount) << engine::backendName(B);
  }
}

TEST(SearchReplay, NullPerturbationIsByteIdenticalToUnhookedPath) {
  // The tie-bias and link-salt hooks must vanish when zero: a run through
  // the perturbation plumbing with an empty record produces the exact
  // event stream of the pre-hook data path (the golden traces' guarantee).
  for (const char *Name : {"fig1_world.scn", "purelex_ablation.scn"}) {
    scenario::Spec V = firstVariant(loadScenario(Name));
    scenario::MaterializedRun Plain, Hooked;
    std::string Err;
    ASSERT_TRUE(scenario::materializeSingle(V, V.SeedLo, Plain, Err)) << Err;
    scenario::Spec VH = V;
    VH.Perturb = scenario::Perturbation(); // Explicitly null.
    ASSERT_TRUE(scenario::materializeSingle(VH, V.SeedLo, Hooked, Err))
        << Err;
    EXPECT_EQ(Hooked.Options.TieBreakBias, 0u);
    EXPECT_EQ(Hooked.Options.LinkSalt, 0u);
    for (engine::BackendKind B :
         {engine::BackendKind::Des, engine::BackendKind::Sharded}) {
      engine::EngineJob JobP{&Plain.Topo->G, &Plain.Plan, Plain.Options,
                             V.SeedLo};
      engine::EngineJob JobH{&Hooked.Topo->G, &Hooked.Plan, Hooked.Options,
                             V.SeedLo};
      engine::EngineResult A = engine::makeEngine(B)->run(JobP);
      engine::EngineResult C = engine::makeEngine(B)->run(JobH);
      EXPECT_EQ(A.Events, C.Events) << Name << engine::backendName(B);
      EXPECT_EQ(A.FinalMaxViews, C.FinalMaxViews)
          << Name << engine::backendName(B);
      ASSERT_EQ(A.SendLog.size(), C.SendLog.size())
          << Name << engine::backendName(B);
      for (size_t I = 0; I < A.SendLog.size(); ++I) {
        EXPECT_EQ(A.SendLog[I].When, C.SendLog[I].When);
        EXPECT_EQ(A.SendLog[I].From, C.SendLog[I].From);
        EXPECT_EQ(A.SendLog[I].To, C.SendLog[I].To);
      }
    }
  }
}

TEST(SearchHunt, ResultIndependentOfJobCount) {
  scenario::Spec V = firstVariant(loadScenario("purelex_ablation.scn"));
  V.Backend = engine::BackendKind::Sharded;
  search::HuntOptions Opts;
  Opts.Seed = 5;
  Opts.Budget = 16;
  search::HuntResult Ref;
  for (unsigned Jobs : {1u, 2u, 4u}) {
    Opts.Jobs = Jobs;
    search::HuntResult Res = search::hunt(V, Opts);
    ASSERT_TRUE(Res.Ok) << Res.Error;
    if (Jobs == 1) {
      Ref = std::move(Res);
      continue;
    }
    EXPECT_EQ(Res.FrontierHash, Ref.FrontierHash) << "jobs " << Jobs;
    EXPECT_EQ(Res.Evaluated, Ref.Evaluated) << "jobs " << Jobs;
    EXPECT_EQ(Res.Violations.size(), Ref.Violations.size())
        << "jobs " << Jobs;
    ASSERT_EQ(Res.Frontier.size(), Ref.Frontier.size()) << "jobs " << Jobs;
    for (size_t I = 0; I < Res.Frontier.size(); ++I) {
      EXPECT_EQ(Res.Frontier[I].Nonce, Ref.Frontier[I].Nonce);
      EXPECT_EQ(Res.Frontier[I].Score, Ref.Frontier[I].Score);
      EXPECT_EQ(Res.Frontier[I].P, Ref.Frontier[I].P);
    }
  }
}

/// The acceptance path of the whole PR: hunt the purelex ablation at
/// seed 5 on the sharded backend (whose baseline passes CD1..CD7 there),
/// find a confirmed verdict flip, delta-debug it down to a strictly
/// smaller execution, and replay the emitted repro to the same violation
/// on both engines.
TEST(SearchHunt, FindsMinimizesAndReplaysPurelexFlip) {
  scenario::Spec V = firstVariant(loadScenario("purelex_ablation.scn"));
  V.Backend = engine::BackendKind::Sharded;
  search::HuntOptions Opts;
  Opts.Seed = 5;
  Opts.Budget = 24;
  Opts.Jobs = 2;
  search::HuntResult Res = search::hunt(V, Opts);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  ASSERT_TRUE(Res.Baseline.CheckOk)
      << "seed-5 sharded baseline must pass for a flip to mean anything";
  ASSERT_FALSE(Res.Violations.empty())
      << "hunter lost the purelex seed-5 flip (evaluated "
      << Res.Evaluated << ")";
  const search::Finding &Found = Res.Violations.front();
  EXPECT_FALSE(Found.Summary.CheckOk);

  const size_t PlanSize = 5; // `crash grow 27 5` materializes 5 events.
  search::MinimizeResult Min = search::minimize(V, 5, Found.P);
  ASSERT_TRUE(Min.StillViolates);
  EXPECT_FALSE(Min.Summary.CheckOk);
  // Strict shrinkage: the minimized execution runs fewer crash events
  // than the unperturbed plan, and no more than the found record did.
  EXPECT_LT(Min.CrashEvents, PlanSize);
  EXPECT_LE(Min.CrashEvents, PlanSize - Found.P.Drops.size());
  EXPECT_LE(Min.P.Shifts.size(), Found.P.Shifts.size());

  // The emitted repro replays to the violation on BOTH backends — after a
  // round-trip through the .scn format, like the committed file.
  scenario::Spec Repro = search::makeRepro(V, 5, Min.P,
                                           search::ObjectiveKind::CdFlip,
                                           "purelex-flip-accept");
  scenario::ParseResult Back = scenario::parseSpec(scenario::writeSpec(Repro));
  ASSERT_TRUE(Back.Ok) << Back.diagText();
  ASSERT_EQ(Repro, Back.S);
  EXPECT_EQ(Back.S.Expect, scenario::Expectation::Violation);
  for (engine::BackendKind B :
       {engine::BackendKind::Des, engine::BackendKind::Sharded}) {
    search::RunSummary Sum;
    std::string Err;
    ASSERT_TRUE(search::evaluatePerturbed(Back.S, Back.S.Perturb, B,
                                          Back.S.SeedLo, Sum, Err))
        << Err;
    EXPECT_TRUE(Sum.Quiesced) << engine::backendName(B);
    EXPECT_FALSE(Sum.CheckOk) << engine::backendName(B);
  }
}

} // namespace
