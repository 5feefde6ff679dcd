//===- tests/ScenarioTest.cpp - .scn spec parser and writer tests -------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scenario format's core guarantees: parse/write round-trips are
/// lossless and idempotent, every parse error carries an exact line:column
/// position, and materialization validates directives against the real
/// topology.
///
//===----------------------------------------------------------------------===//

#include "graph/Builders.h"
#include "scenario/Campaign.h"
#include "scenario/Parse.h"
#include "scenario/Spec.h"

#include "gtest/gtest.h"

#include <string>
#include <utility>

using namespace cliffedge;
using scenario::CrashDirective;
using scenario::LatencySpec;
using scenario::ParseResult;
using scenario::Spec;

namespace {

/// A spec exercising every directive: all crash kinds, spiky latency,
/// sweeps, epochs, caps.
Spec kitchenSinkSpec() {
  Spec S;
  S.Name = "kitchen-sink";
  S.Topology = "torus:9x7";
  S.SeedLo = 3;
  S.SeedHi = 12;
  S.Latency.K = LatencySpec::Kind::Spiky;
  S.Latency.A = 8;
  S.Latency.SpikePercent = 10;
  S.Latency.B = 20;
  S.Detect = 7;
  S.Ranking = graph::RankingKind::SizeLex;
  S.EarlyTermination = true;
  S.Check = false;
  S.MaxEvents = 500000;
  S.MaxFaulty = 40;
  S.Sweeps.push_back({"detect", {"3", "9", "27"}});
  S.Sweeps.push_back({"latency", {"fixed:10", "uniform:1:60"}});

  auto Crash = [](CrashDirective::Kind K, std::vector<uint64_t> Args,
                  SimTime At, SimTime Gap, SimTime Spread) {
    CrashDirective C;
    C.K = K;
    C.Args = std::move(Args);
    C.At = At;
    C.Gap = Gap;
    C.Spread = Spread;
    return C;
  };
  S.Epochs.clear();
  S.Epochs.push_back({
      Crash(CrashDirective::Kind::Patch, {1, 1, 3}, 100, 15, 0),
      Crash(CrashDirective::Kind::Nodes, {4, 9, 11}, 130, 0, 0),
      Crash(CrashDirective::Kind::Ball, {5, 1}, 200, 4, 0),
  });
  S.Epochs.push_back({
      Crash(CrashDirective::Kind::Wave, {6, 2}, 100, 25, 0),
      Crash(CrashDirective::Kind::Grow, {12, 5}, 150, 9, 0),
  });
  S.Epochs.push_back({
      Crash(CrashDirective::Kind::Random, {2, 4}, 100, 0, 80),
      Crash(CrashDirective::Kind::Chain, {2, 2}, 120, 0, 0),
  });
  return S;
}

TEST(ScenarioWriterTest, RoundTripIsLossless) {
  Spec S = kitchenSinkSpec();
  std::string Text = scenario::writeSpec(S);
  ParseResult Parsed = scenario::parseSpec(Text);
  ASSERT_TRUE(Parsed.Ok) << Parsed.diagText();
  EXPECT_TRUE(Parsed.S == S) << "re-parsed spec differs\n" << Text;
  // Idempotent: write(parse(write(S))) == write(S).
  EXPECT_EQ(scenario::writeSpec(Parsed.S), Text);
}

TEST(ScenarioWriterTest, DefaultsRoundTrip) {
  Spec S; // All defaults, single implicit epoch.
  CrashDirective C;
  C.Args = {2, 2, 2};
  S.Epochs.front().push_back(C);
  ParseResult Parsed = scenario::parseSpec(scenario::writeSpec(S));
  ASSERT_TRUE(Parsed.Ok) << Parsed.diagText();
  EXPECT_TRUE(Parsed.S == S);
}

TEST(ScenarioParseTest, CommentsBlanksAndCrlf) {
  ParseResult P = scenario::parseSpec("# a comment\n"
                                      "\r\n"
                                      "topology grid:4x4   # trailing\r\n"
                                      "\n"
                                      "crash patch 1 1 2 at 50\n");
  ASSERT_TRUE(P.Ok) << P.diagText();
  EXPECT_EQ(P.S.Topology, "grid:4x4");
  ASSERT_EQ(P.S.Epochs.size(), 1u);
  ASSERT_EQ(P.S.Epochs[0].size(), 1u);
  EXPECT_EQ(P.S.Epochs[0][0].At, 50u);
}

TEST(ScenarioParseTest, SeedsSingleAndRange) {
  ParseResult One =
      scenario::parseSpec("seeds 7\ncrash patch 0 0 1 at 1\n");
  ASSERT_TRUE(One.Ok);
  EXPECT_EQ(One.S.SeedLo, 7u);
  EXPECT_EQ(One.S.SeedHi, 7u);
  EXPECT_EQ(One.S.seedCount(), 1u);

  ParseResult Range =
      scenario::parseSpec("seeds 5..9\ncrash patch 0 0 1 at 1\n");
  ASSERT_TRUE(Range.Ok);
  EXPECT_EQ(Range.S.SeedLo, 5u);
  EXPECT_EQ(Range.S.SeedHi, 9u);
  EXPECT_EQ(Range.S.seedCount(), 5u);
}

/// Asserts that parsing \p Text yields a diagnostic at exactly
/// (line, col) whose message contains \p Needle.
void expectDiagAt(const std::string &Text, unsigned Line, unsigned Col,
                  const std::string &Needle) {
  ParseResult P = scenario::parseSpec(Text);
  EXPECT_FALSE(P.Ok);
  for (const scenario::Diag &D : P.Diags)
    if (D.Line == Line && D.Col == Col &&
        D.Message.find(Needle) != std::string::npos)
      return;
  ADD_FAILURE() << "no diagnostic at " << Line << ":" << Col
                << " containing '" << Needle << "' in:\n"
                << P.diagText();
}

TEST(ScenarioParseTest, ErrorPositionsAreExact) {
  // Column of the bad numeric argument, not of the directive.
  expectDiagAt("crash patch 1 x 2 at 50\n", 1, 15, "numeric argument");
  // Column of the bad time after 'at'.
  expectDiagAt("crash patch 1 1 2 at y\n", 1, 22, "crash time");
  // Column of a bad node id inside a comma list.
  expectDiagAt("crash nodes 3,4,x at 50\n", 1, 17, "node id");
  // Column of the unknown directive on a later line.
  expectDiagAt("topology grid:4x4\nbogus on\n", 2, 1, "unknown directive");
  // Column of a bad sweep value.
  expectDiagAt("sweep detect 3 4x\ncrash patch 0 0 1 at 1\n", 1, 16,
               "bad detect value");
  // Column of the trailing junk.
  expectDiagAt("detect 5 extra\ncrash patch 0 0 1 at 1\n", 1, 10,
               "trailing");
  // Column of the 'hi' part of an inverted seed range.
  expectDiagAt("seeds 9..5\ncrash patch 0 0 1 at 1\n", 1, 7, "empty");
  // 'spread' rejected outside crash random.
  expectDiagAt("crash ball 1 1 at 50 spread 9\n", 1, 22, "spread");
}

TEST(ScenarioParseTest, MultipleErrorsAllReported) {
  ParseResult P = scenario::parseSpec("bogus\n"
                                      "topology nope:3\n"
                                      "detect x\n"
                                      "crash patch 0 0 1 at 1\n");
  EXPECT_FALSE(P.Ok);
  EXPECT_EQ(P.Diags.size(), 3u) << P.diagText();
}

TEST(ScenarioParseTest, DuplicateScalarDirectivesRejected) {
  expectDiagAt("detect 5\ndetect 7\ncrash patch 0 0 1 at 1\n", 2, 1,
               "duplicate");
  expectDiagAt("sweep detect 3 4\nsweep detect 5 6\n"
               "crash patch 0 0 1 at 1\n",
               2, 7, "duplicate sweep axis");
}

TEST(ScenarioParseTest, EmptyEpochsRejected) {
  // No crash directives at all.
  expectDiagAt("topology grid:4x4\n", 1, 1, "no crash directives");
  // An 'epoch' divider with nothing after it.
  expectDiagAt("crash patch 0 0 1 at 1\nepoch\n", 2, 1,
               "no crash directives");
}

TEST(ScenarioMaterializeTest, TopologyAndPlanValidation) {
  Rng Rand(1);
  scenario::TopologyInfo Topo;
  std::string Err;
  EXPECT_FALSE(scenario::buildTopology("mesh:4x4", Rand, Topo, Err));
  EXPECT_NE(Err.find("unknown topology"), std::string::npos);
  ASSERT_TRUE(scenario::buildTopology("grid:6x5", Rand, Topo, Err));
  EXPECT_EQ(Topo.G.numNodes(), 30u);
  EXPECT_EQ(Topo.GridWidth, 6u);
  EXPECT_EQ(Topo.GridHeight, 5u);

  // Patch exceeding the grid is rejected with the offending geometry.
  CrashDirective Patch;
  Patch.K = CrashDirective::Kind::Patch;
  Patch.Args = {4, 4, 3};
  workload::CrashPlan Plan;
  EXPECT_FALSE(scenario::buildCrashPlan({Patch}, Topo, Rand, 0, Plan, Err));
  EXPECT_NE(Err.find("exceeds"), std::string::npos);

  // Ball center out of range.
  CrashDirective Ball;
  Ball.K = CrashDirective::Kind::Ball;
  Ball.Args = {99, 1};
  EXPECT_FALSE(scenario::buildCrashPlan({Ball}, Topo, Rand, 0, Plan, Err));
  EXPECT_NE(Err.find("out of range"), std::string::npos);

  // Patch on a non-grid topology.
  scenario::TopologyInfo Ring;
  ASSERT_TRUE(scenario::buildTopology("ring:16", Rand, Ring, Err));
  Patch.Args = {0, 0, 2};
  EXPECT_FALSE(scenario::buildCrashPlan({Patch}, Ring, Rand, 0, Plan, Err));
  EXPECT_NE(Err.find("grid"), std::string::npos);

  // Crashing everything is rejected: somebody must survive to decide.
  CrashDirective All;
  All.K = CrashDirective::Kind::Nodes;
  for (uint64_t N = 0; N < 16; ++N)
    All.Args.push_back(N);
  EXPECT_FALSE(scenario::buildCrashPlan({All}, Ring, Rand, 0, Plan, Err));
  EXPECT_NE(Err.find("survive"), std::string::npos);
}

TEST(ScenarioMaterializeTest, DegenerateTopologySizesAreErrors) {
  // Each token names a size its generator cannot build: a zero tree arity
  // divides by zero, a 40-dimension cube shifts past 32 bits, a 1-wide
  // torus wraps a node onto itself, and a node count past the id range
  // wraps NodeId. buildTopology must refuse every one with an error
  // (Release builds have no generator asserts to stop them).
  const std::pair<const char *, const char *> Cases[] = {
      {"torus:1x5", "at least 3x3"},
      {"torus:5x2", "at least 3x3"},
      {"torus:2x2", "at least 3x3"},
      {"ring:2", "at least 3 nodes"},
      {"ring:0", "at least 3 nodes"},
      {"chord:2:1", "at least 3 nodes"},
      {"tree:10:0", "arity"},
      {"hypercube:0", "1..30"},
      {"hypercube:31", "1..30"},
      {"hypercube:40", "1..30"},
      {"line:0", "at least 1 node"},
      {"ba:3:5", "1 <= M < N"},
      {"ba:10:0", "1 <= M < N"},
      {"grid:70000x70000", "id range"},
      {"torus:4294967296x3", "id range"},
      {"ring:4294967296", "id range"},
      {"line:18446744073709551615", "id range"},
      {"tree:99999999999:2", "id range"},
      {"chord:5000000000:4", "id range"},
      {"er:4294967296:8", "id range"},
  };
  for (const auto &[Tok, Why] : Cases) {
    SCOPED_TRACE(Tok);
    Rng Rand(1);
    scenario::TopologyInfo Topo;
    std::string Err;
    EXPECT_FALSE(scenario::buildTopology(Tok, Rand, Topo, Err));
    EXPECT_NE(Err.find(Why), std::string::npos) << Err;
  }

  // The smallest legal sizes still build, with no self-loops.
  for (const char *Tok : {"torus:3x3", "ring:3", "chord:3:1", "tree:10:1",
                          "hypercube:1", "hypercube:2", "line:1", "ba:2:1"}) {
    SCOPED_TRACE(Tok);
    Rng Rand(1);
    scenario::TopologyInfo Topo;
    std::string Err;
    ASSERT_TRUE(scenario::buildTopology(Tok, Rand, Topo, Err)) << Err;
    for (NodeId N = 0; N < Topo.G.numNodes(); ++N)
      EXPECT_FALSE(Topo.G.hasEdge(N, N)) << "self-loop at " << N;
  }

  // A scenario run reports the same error instead of crashing.
  ParseResult P = scenario::parseSpec("topology tree:10:0\n"
                                      "crash nodes 1 at 100\n");
  ASSERT_TRUE(P.Ok) << P.diagText();
  scenario::JobOutcome Out =
      scenario::CampaignRunner::runOneJob(P.S, P.S.SeedLo);
  EXPECT_FALSE(Out.Ran);
  EXPECT_NE(Out.Error.find("arity"), std::string::npos) << Out.Error;
}

TEST(ScenarioMaterializeTest, OverlappingDirectivesCrashOnce) {
  Rng Rand(1);
  scenario::TopologyInfo Topo;
  std::string Err;
  ASSERT_TRUE(scenario::buildTopology("grid:6x6", Rand, Topo, Err));
  CrashDirective A, B;
  A.K = B.K = CrashDirective::Kind::Patch;
  A.Args = {1, 1, 2};
  A.At = 100;
  B.Args = {2, 2, 2}; // Overlaps A at (2,2).
  B.At = 150;
  workload::CrashPlan Plan;
  ASSERT_TRUE(scenario::buildCrashPlan({A, B}, Topo, Rand, 0, Plan, Err))
      << Err;
  // 4 + 4 - 1 shared node; the shared node keeps its earliest time.
  EXPECT_EQ(Plan.faultySet().size(), 7u);
  for (const workload::TimedCrash &C : Plan.Crashes)
    if (C.Node == graph::gridId(6, 2, 2))
      EXPECT_EQ(C.When, 100u);
}

TEST(ScenarioMaterializeTest, MaxFaultyCapsThePlan) {
  ParseResult P = scenario::parseSpec("topology er:48:8\n"
                                      "max-faulty 10\n"
                                      "crash wave 5 2 at 100 gap 25\n");
  ASSERT_TRUE(P.Ok) << P.diagText();
  scenario::MaterializedRun Run;
  std::string Err;
  ASSERT_TRUE(scenario::materializeSingle(P.S, 44, Run, Err)) << Err;
  EXPECT_LE(Run.Plan.faultySet().size(), 10u);
}

TEST(ScenarioOverrideTest, KeysApplyAndRejectJunk) {
  Spec S;
  std::string Err;
  EXPECT_TRUE(scenario::applyOverride(S, "detect", "42", Err));
  EXPECT_EQ(S.Detect, 42u);
  EXPECT_TRUE(scenario::applyOverride(S, "topology", "ring:9", Err));
  EXPECT_EQ(S.Topology, "ring:9");
  EXPECT_TRUE(scenario::applyOverride(S, "ranking", "purelex", Err));
  EXPECT_EQ(S.Ranking, graph::RankingKind::PureLex);
  EXPECT_TRUE(scenario::applyOverride(S, "early-termination", "on", Err));
  EXPECT_TRUE(S.EarlyTermination);
  EXPECT_TRUE(scenario::applyOverride(S, "latency", "spiky:8:10:20", Err));
  EXPECT_EQ(S.Latency.K, LatencySpec::Kind::Spiky);
  EXPECT_EQ(S.Latency.SpikePercent, 10u);
  EXPECT_EQ(S.Latency.compact(), "spiky:8:10:20");

  EXPECT_FALSE(scenario::applyOverride(S, "jitter", "1", Err));
  EXPECT_NE(Err.find("unknown sweep key"), std::string::npos);
  EXPECT_FALSE(scenario::applyOverride(S, "detect", "4x", Err));
  EXPECT_FALSE(scenario::applyOverride(S, "latency", "uniform:9:1", Err));
  EXPECT_FALSE(scenario::applyOverride(S, "early-termination", "yes", Err));
}

} // namespace
