//===- tests/LossyChurnDifferentialTest.cpp - link drop x service ---------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The previously untested combination: a genuinely lossy transport
/// (`link drop` — the fault plane's ARQ sublayer armed) underneath a
/// continuous-churn *service* run (multi-epoch, streaming checker). The
/// curated scenarios/lossy_churn_service.scn world is run through the
/// campaign job unit on BOTH backends at the same seed, and everything a
/// backend may not influence is pinned differentially: the CD1..CD7
/// verdict, the violation text, the crash total and the epoch count.
/// (Decision counts and transport bookkeeping are interleaving-dependent
/// and NOT pinned across backends, matching the EngineEquivalence
/// precedent — but loss must demonstrably be active on each.)
///
//===----------------------------------------------------------------------===//

#include "scenario/Campaign.h"
#include "scenario/Parse.h"

#include "gtest/gtest.h"

#include <fstream>
#include <sstream>
#include <string>

using namespace cliffedge;

#ifndef CLIFFEDGE_SCENARIO_DIR
#error "CLIFFEDGE_SCENARIO_DIR must point at the repo's scenarios/ directory"
#endif

namespace {

scenario::Spec loadLossyChurnService() {
  std::ifstream In(std::string(CLIFFEDGE_SCENARIO_DIR) +
                   "/lossy_churn_service.scn");
  EXPECT_TRUE(In) << "missing scenarios/lossy_churn_service.scn";
  std::ostringstream Buf;
  Buf << In.rdbuf();
  scenario::ParseResult Parsed = scenario::parseSpec(Buf.str());
  EXPECT_TRUE(Parsed.Ok) << Parsed.diagText();
  return Parsed.S;
}

scenario::Spec backendVariant(const scenario::Spec &S, const char *Backend) {
  scenario::Spec V = S;
  V.Sweeps.clear();
  std::string Err;
  EXPECT_TRUE(scenario::applyOverride(V, "backend", Backend, Err)) << Err;
  return V;
}

TEST(LossyChurnService, SpecArmsBothPlanes) {
  // Guard the scenario file itself: if a future edit drops the loss or
  // the service mode, this suite silently stops testing the combination.
  scenario::Spec S = loadLossyChurnService();
  EXPECT_TRUE(S.Link.active());
  EXPECT_GT(S.Link.DropBp, 0u);
  EXPECT_GT(S.ServiceEpochs, 0u);
  EXPECT_GT(S.ChurnRate, 0u);
  EXPECT_TRUE(S.Check);
  EXPECT_TRUE(S.Streaming);
  ASSERT_EQ(S.Sweeps.size(), 1u);
  EXPECT_EQ(S.Sweeps[0].Key, "backend");
}

TEST(LossyChurnService, BackendsAgreeUnderLoss) {
  scenario::Spec S = loadLossyChurnService();
  uint64_t Seed = S.SeedLo;

  scenario::JobOutcome Des =
      scenario::CampaignRunner::runOneJob(backendVariant(S, "des"), Seed);
  scenario::JobOutcome Sharded =
      scenario::CampaignRunner::runOneJob(backendVariant(S, "sharded"), Seed);

  ASSERT_TRUE(Des.Ran) << Des.Error;
  ASSERT_TRUE(Sharded.Ran) << Sharded.Error;

  // The service ran its full horizon under churn on both engines.
  EXPECT_EQ(Des.Epochs, S.ServiceEpochs);
  EXPECT_EQ(Sharded.Epochs, Des.Epochs);
  EXPECT_GT(Des.Crashes, 0u);

  // Loss < 1 must not change verdicts (the reliable-FIFO sublayer
  // restores the paper's channels): the streaming checker's verdict and
  // everything protocol-visible is pinned across backends.
  EXPECT_TRUE(Des.SpecOk) << Des.Violations.size() << " violations";
  EXPECT_EQ(Des.SpecOk, Sharded.SpecOk);
  EXPECT_EQ(Des.Violations, Sharded.Violations);
  // The churn plan is materialized from the seed before either engine
  // starts, so crash totals must agree to the event; decision counts are
  // interleaving-dependent (which border nodes decide redundantly, which
  // doomed nodes decide before their crash lands) and are only required
  // to exist — the EngineEquivalence precedent pins verdicts, not logs.
  EXPECT_EQ(Des.Crashes, Sharded.Crashes);
  EXPECT_GT(Des.Decisions, 0u);
  EXPECT_GT(Sharded.Decisions, 0u);
  EXPECT_GT(Des.DistinctViews, 0u);
  EXPECT_GT(Sharded.DistinctViews, 0u);

  // And the loss genuinely bit on both engines — retransmissions prove
  // the ARQ sublayer was doing work, not idling behind a pass-through.
  EXPECT_GT(Des.Retransmits, 0u);
  EXPECT_GT(Sharded.Retransmits, 0u);
  EXPECT_GT(Des.DupSuppressed, 0u);
  EXPECT_GT(Sharded.DupSuppressed, 0u);
}

} // namespace
