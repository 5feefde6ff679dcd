//===- tests/CampaignTest.cpp - Parallel campaign runner tests ----------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Campaign guarantees: the job matrix expands deterministically, the
/// summary (including its JSON rendering) is bit-identical regardless of
/// worker count, CD1..CD7 run on every job, and failures surface as data
/// rather than aborting the fleet.
///
//===----------------------------------------------------------------------===//

#include "scenario/Campaign.h"
#include "scenario/Parse.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <string>
#include <utility>

using namespace cliffedge;
using scenario::CampaignOptions;
using scenario::CampaignRunner;
using scenario::CampaignSummary;
using scenario::ParseResult;

namespace {

scenario::Spec parseOrDie(const std::string &Text) {
  ParseResult P = scenario::parseSpec(Text);
  EXPECT_TRUE(P.Ok) << P.diagText();
  return P.S;
}

/// The summary a campaign of \p S must render: every job run alone
/// through runOneJob, each materializing its own world, then tallied the
/// way CampaignRunner::run tallies.
CampaignSummary perJobReference(const scenario::Spec &S) {
  CampaignRunner Runner(S);
  CampaignSummary Sum;
  Sum.Scenario = S.Name;
  for (size_t V = 0; V < Runner.variants().size(); ++V)
    for (uint64_t Seed = S.SeedLo; Seed <= S.SeedHi; ++Seed) {
      scenario::JobOutcome Out =
          CampaignRunner::runOneJob(Runner.variants()[V], Seed);
      Out.Index = Sum.Results.size();
      Out.Variant = Runner.variantLabels()[V];
      Sum.Results.push_back(std::move(Out));
    }
  Sum.Jobs = Sum.Results.size();
  for (const scenario::JobOutcome &Out : Sum.Results) {
    if (!Out.Ran)
      ++Sum.Errors;
    else if (Out.SpecOk)
      ++Sum.Passed;
    else
      ++Sum.Failed;
    Sum.TotalDecisions += Out.Decisions;
    Sum.TotalMessages += Out.Messages;
    Sum.TotalBytes += Out.Bytes;
    Sum.TotalEvents += Out.Events;
  }
  return Sum;
}

/// Campaigns of \p Text at one and at four workers render byte-identical
/// JSON and CSV to per-job materialization.
void expectMatchesPerJobReference(const std::string &Text) {
  scenario::Spec S = parseOrDie(Text);
  CampaignSummary Ref = perJobReference(S);
  for (unsigned Threads : {1u, 4u}) {
    SCOPED_TRACE(Threads);
    CampaignSummary Sum = CampaignRunner(S).run({Threads});
    EXPECT_EQ(Sum.toJson(), Ref.toJson());
    EXPECT_EQ(Sum.toCsv(), Ref.toCsv());
  }
}

TEST(CampaignTest, SweepMatrixExpandsDeterministically) {
  scenario::Spec S = parseOrDie("topology grid:6x6\n"
                                "seeds 1..4\n"
                                "sweep detect 3 9\n"
                                "sweep ranking sizeborderlex sizelex purelex\n"
                                "crash patch 1 1 2 at 100\n");
  CampaignRunner Runner(S);
  EXPECT_EQ(Runner.variants().size(), 6u);
  EXPECT_EQ(Runner.jobCount(), 24u);
  // Later axes vary fastest; labels carry every override.
  ASSERT_EQ(Runner.variantLabels().size(), 6u);
  EXPECT_EQ(Runner.variantLabels()[0], "detect=3 ranking=sizeborderlex");
  EXPECT_EQ(Runner.variantLabels()[1], "detect=3 ranking=sizelex");
  EXPECT_EQ(Runner.variantLabels()[3], "detect=9 ranking=sizeborderlex");
  EXPECT_EQ(Runner.variants()[3].Detect, 9u);
  EXPECT_EQ(Runner.variants()[1].Ranking, graph::RankingKind::SizeLex);
  // Sweeps are consumed into variants, not inherited by each job's spec.
  EXPECT_TRUE(Runner.variants()[0].Sweeps.empty());
}

TEST(CampaignTest, SummaryIdenticalAcrossThreadCounts) {
  const char *Text = "scenario determinism\n"
                     "topology er:32:10\n"
                     "seeds 1..6\n"
                     "latency uniform 1 60\n"
                     "sweep detect 3 9\n"
                     "crash random 2 4 at 100 spread 80\n";
  CampaignSummary One = CampaignRunner(parseOrDie(Text)).run({1});
  CampaignSummary Eight = CampaignRunner(parseOrDie(Text)).run({8});
  EXPECT_EQ(One.Jobs, 12u);
  EXPECT_EQ(One.toJson(), Eight.toJson());
  EXPECT_EQ(One.toCsv(), Eight.toCsv());
  EXPECT_EQ(One.Passed, One.Jobs);
}

TEST(CampaignTest, SharedWorldsMatchPerJobMaterialization) {
  // Deterministic topologies: each variant's world is built once and lent
  // to all its jobs. The matrix spans lattices, a chord ring, a tree, both
  // backends, and a variant whose world cannot be built (ring:2), whose
  // jobs must all carry the builder's error.
  expectMatchesPerJobReference("scenario shared-worlds\n"
                               "topology torus:10x10\n"
                               "seeds 1..6\n"
                               "latency uniform 1 40\n"
                               "sweep topology torus:10x10 chord:64:5 "
                               "tree:40:3 ring:2\n"
                               "sweep backend des sharded\n"
                               "crash random 2 3 at 100 spread 60\n");
  // The multi-epoch path borrows the variant's world the same way.
  expectMatchesPerJobReference("scenario shared-epochs\n"
                               "topology grid:8x8\n"
                               "seeds 3..7\n"
                               "crash random 1 3 at 100\n"
                               "epoch\n"
                               "crash random 1 2 at 100\n");
}

TEST(CampaignTest, SeededTopologiesKeepOneWorldPerSeed) {
  EXPECT_TRUE(scenario::topologyDrawsFromSeed("er:40:10"));
  EXPECT_TRUE(scenario::topologyDrawsFromSeed("ba:48:2"));
  EXPECT_TRUE(scenario::topologyDrawsFromSeed("geo:48:25"));
  for (const char *Tok : {"torus:10x10", "grid:4x4", "ring:9", "line:5",
                          "tree:31:2", "hypercube:4", "chord:64:5", "fig1"})
    EXPECT_FALSE(scenario::topologyDrawsFromSeed(Tok)) << Tok;

  // er worlds differ from seed to seed, so a campaign that lent seed 1's
  // world to seed 2 would drift from per-job materialization.
  scenario::Spec S = parseOrDie("scenario er-worlds\n"
                                "topology er:40:10\n"
                                "seeds 1..6\n"
                                "crash random 2 3 at 100 spread 60\n");
  std::string Err;
  scenario::TopologyInfo One, Two;
  ASSERT_TRUE(scenario::buildWorld(S, 1, One, Err)) << Err;
  ASSERT_TRUE(scenario::buildWorld(S, 2, Two, Err)) << Err;
  bool Differ = One.G.numEdges() != Two.G.numEdges();
  for (NodeId N = 0; N < One.G.numNodes() && !Differ; ++N)
    Differ = !std::equal(One.G.adj(N).begin(), One.G.adj(N).end(),
                         Two.G.adj(N).begin(), Two.G.adj(N).end());
  EXPECT_TRUE(Differ);
  expectMatchesPerJobReference("scenario er-worlds\n"
                               "topology er:40:10\n"
                               "seeds 1..6\n"
                               "crash random 2 3 at 100 spread 60\n");
}

TEST(CampaignTest, ChecksRunOnEveryJob) {
  scenario::Spec S = parseOrDie("topology grid:6x6\n"
                                "seeds 1..3\n"
                                "crash patch 1 1 2 at 100 gap 9\n");
  CampaignSummary Sum = CampaignRunner(S).run({2});
  ASSERT_EQ(Sum.Results.size(), 3u);
  for (const scenario::JobOutcome &R : Sum.Results) {
    EXPECT_TRUE(R.Ran);
    EXPECT_TRUE(R.SpecOk);
    EXPECT_GT(R.Decisions, 0u);
    EXPECT_GT(R.Events, 0u);
    EXPECT_GE(R.LastDecision, R.FirstDecision);
  }
  EXPECT_EQ(Sum.TotalDecisions,
            static_cast<uint64_t>(Sum.Results[0].Decisions) * 3);
}

TEST(CampaignTest, MultiEpochJobsAggregateAcrossEpochs) {
  scenario::Spec S = parseOrDie("topology grid:8x8\n"
                                "seeds 1..2\n"
                                "crash patch 1 1 2 at 100\n"
                                "epoch\n"
                                "crash ball 30 1 at 100 gap 10\n"
                                "epoch\n"
                                "crash random 2 4 at 100 spread 50\n");
  CampaignSummary Sum = CampaignRunner(S).run({2});
  EXPECT_EQ(Sum.Errors, 0u);
  EXPECT_EQ(Sum.Passed, 2u);
  for (const scenario::JobOutcome &R : Sum.Results) {
    EXPECT_EQ(R.Epochs, 3u);
    // At least one decision per epoch.
    EXPECT_GE(R.Decisions, 3u);
    EXPECT_TRUE(R.SpecOk);
  }
}

TEST(CampaignTest, MaterializationFailureIsAJobError) {
  // Ball center 99 does not exist in a 16-node ring.
  scenario::Spec S = parseOrDie("topology ring:16\n"
                                "seeds 1..2\n"
                                "crash ball 99 1 at 100\n");
  CampaignSummary Sum = CampaignRunner(S).run({2});
  EXPECT_EQ(Sum.Errors, 2u);
  EXPECT_EQ(Sum.Passed, 0u);
  for (const scenario::JobOutcome &R : Sum.Results) {
    EXPECT_FALSE(R.Ran);
    EXPECT_NE(R.Error.find("out of range"), std::string::npos);
  }
  // The error text lands in the JSON too.
  EXPECT_NE(Sum.toJson().find("out of range"), std::string::npos);
}

TEST(CampaignTest, EventBudgetAbortSurfaces) {
  scenario::Spec S = parseOrDie("topology grid:6x6\n"
                                "max-events 5\n"
                                "crash patch 1 1 2 at 100\n");
  CampaignSummary Sum = CampaignRunner(S).run({1});
  ASSERT_EQ(Sum.Results.size(), 1u);
  EXPECT_FALSE(Sum.Results[0].Ran);
  EXPECT_NE(Sum.Results[0].Error.find("event budget"), std::string::npos);
  EXPECT_EQ(Sum.Errors, 1u);
}

TEST(CampaignTest, EventBudgetAbortSurfacesAcrossEpochs) {
  // The multi-epoch path must detect budget exhaustion too, even with
  // checking off — a truncated run is an error, never a pass.
  scenario::Spec S = parseOrDie("topology grid:6x6\n"
                                "max-events 5\n"
                                "check off\n"
                                "crash patch 1 1 2 at 100\n"
                                "epoch\n"
                                "crash ball 20 1 at 100\n");
  CampaignSummary Sum = CampaignRunner(S).run({1});
  ASSERT_EQ(Sum.Results.size(), 1u);
  EXPECT_FALSE(Sum.Results[0].Ran);
  EXPECT_NE(Sum.Results[0].Error.find("event budget"), std::string::npos);
  EXPECT_NE(Sum.Results[0].Error.find("epoch 1"), std::string::npos);
  EXPECT_EQ(Sum.Errors, 1u);
}

TEST(CampaignTest, CheckOffSkipsVerdict) {
  scenario::Spec S = parseOrDie("topology grid:6x6\n"
                                "check off\n"
                                "ranking purelex\n"
                                "crash grow 14 4 at 100 gap 13\n");
  CampaignSummary Sum = CampaignRunner(S).run({1});
  ASSERT_EQ(Sum.Results.size(), 1u);
  EXPECT_TRUE(Sum.Results[0].Ran);
  EXPECT_TRUE(Sum.Results[0].SpecOk); // Vacuously: checking disabled.
  EXPECT_TRUE(Sum.Results[0].Violations.empty());
}

TEST(CampaignTest, CsvHasHeaderAndOneRowPerJob) {
  scenario::Spec S = parseOrDie("topology grid:6x6\n"
                                "seeds 1..3\n"
                                "crash patch 1 1 2 at 100\n");
  CampaignSummary Sum = CampaignRunner(S).run({3});
  std::string Csv = Sum.toCsv();
  size_t Lines = 0;
  for (char C : Csv)
    Lines += C == '\n';
  EXPECT_EQ(Lines, 4u); // Header + 3 jobs.
  EXPECT_EQ(Csv.compare(0, 4, "job,"), 0);
}

/// A (spec, seed) pair pins the run exactly: the same job re-executed in
/// isolation reproduces the campaign's numbers.
TEST(CampaignTest, JobReplaysFromSpecAndSeed) {
  scenario::Spec S = parseOrDie("topology ba:40:2\n"
                                "latency uniform 1 40\n"
                                "crash grow 0 5 at 100 gap 11\n");
  scenario::JobOutcome A = CampaignRunner::runOneJob(S, 77);
  scenario::JobOutcome B = CampaignRunner::runOneJob(S, 77);
  EXPECT_EQ(A.Messages, B.Messages);
  EXPECT_EQ(A.Events, B.Events);
  EXPECT_EQ(A.LastDecision, B.LastDecision);
  scenario::JobOutcome C = CampaignRunner::runOneJob(S, 78);
  EXPECT_NE(A.Messages, C.Messages); // Different seed, different world.
}

} // namespace
