//===- tests/PagedStateTest.cpp - Paged per-node state ---------------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
//
// support::PagedStore (pristine reads, first-write materialization, the
// cut last page, deep copies) and the crash-plan guard both engines apply
// before a plan node can index the paged stores.
//
//===----------------------------------------------------------------------===//

#include "engine/DesEngine.h"
#include "engine/ShardedEngine.h"
#include "graph/Builders.h"
#include "support/PagedStore.h"

#include "gtest/gtest.h"

using namespace cliffedge;

namespace {

using Store = support::PagedStore<uint64_t>;
constexpr size_t Page = Store::PageSize;

TEST(PagedStoreTest, ReadsArePristineAndAllocateNothing) {
  Store S(3 * Page + 5);
  EXPECT_EQ(S.size(), 3 * Page + 5);
  EXPECT_EQ(S[0], 0u);
  EXPECT_EQ(S[3 * Page + 4], 0u);
  EXPECT_EQ(S[10 * Page], 0u); // Past the end reads pristine too.
  EXPECT_EQ(S.pages(), 0u);
}

TEST(PagedStoreTest, FirstWriteMaterializesOnlyItsPage) {
  Store S(3 * Page + 5);
  S.mut(Page - 1) = 7;
  S.mut(Page) = 8; // Across the boundary: a second page.
  EXPECT_EQ(S.pages(), 2u);
  EXPECT_EQ(S[Page - 1], 7u);
  EXPECT_EQ(S[Page], 8u);
  EXPECT_EQ(S[Page + 1], 0u);
  uint64_t &Ref = S.mut(Page - 1);
  S.mut(3 * Page + 4) = 9; // The cut last page.
  EXPECT_EQ(S.pages(), 3u);
  EXPECT_EQ(&Ref, &S.mut(Page - 1)) << "pages must never move";

  std::vector<std::pair<size_t, uint64_t>> Seen;
  S.forEachMaterialized([&](size_t Id, uint64_t V) {
    if (V)
      Seen.push_back({Id, V});
  });
  std::vector<std::pair<size_t, uint64_t>> Want = {
      {Page - 1, 7}, {Page, 8}, {3 * Page + 4, 9}};
  EXPECT_EQ(Seen, Want);

  size_t Visited = 0;
  S.forEachMaterialized([&](size_t, uint64_t) { ++Visited; });
  EXPECT_EQ(Visited, 2 * Page + 5) << "the last page holds 5 ids only";
}

TEST(PagedStoreTest, CopiesAreDeep) {
  Store A(2 * Page);
  A.mut(3) = 1;
  Store B = A;
  EXPECT_EQ(B[3], 1u);
  EXPECT_EQ(B.pages(), 1u);
  B.mut(3) = 2;
  EXPECT_EQ(A[3], 1u);
  EXPECT_EQ(B[3], 2u);
}

// -- Crash-plan guard ---------------------------------------------------------
//
// A hand-built plan can name any id. Both engines must refuse one outside
// the topology or a repeated node in every build type — without the guard
// a Release build would index past the paged stores or crash a node twice.

class CrashPlanGuard : public ::testing::TestWithParam<engine::BackendKind> {
protected:
  void SetUp() override {
    GTEST_FLAG_SET(death_test_style, "threadsafe");
  }

  static void runPlan(engine::BackendKind K, const graph::Graph &G,
                      const workload::CrashPlan &Plan) {
    std::unique_ptr<engine::Engine> Eng = engine::makeEngine(K);
    engine::EngineJob Job;
    Job.G = &G;
    Job.Plan = &Plan;
    Eng->run(Job);
  }
};

TEST_P(CrashPlanGuard, RejectsNodeOutsideTheTopology) {
  graph::Graph G = graph::makeGrid(4, 4);
  workload::CrashPlan Plan;
  Plan.Crashes = {{5, 100}, {16, 100}};
  EXPECT_DEATH(runPlan(GetParam(), G, Plan),
               "crash plan names node 16, outside the 16-node topology");
}

TEST_P(CrashPlanGuard, RejectsRepeatedNode) {
  graph::Graph G = graph::makeGrid(4, 4);
  workload::CrashPlan Plan;
  Plan.Crashes = {{5, 100}, {6, 100}, {5, 140}};
  EXPECT_DEATH(runPlan(GetParam(), G, Plan),
               "crash plan schedules node 5 twice");
}

TEST_P(CrashPlanGuard, AcceptsAWellFormedPlan) {
  graph::Graph G = graph::makeGrid(4, 4);
  workload::CrashPlan Plan;
  Plan.Crashes = {{5, 100}, {6, 100}, {15, 140}};
  std::unique_ptr<engine::Engine> Eng = engine::makeEngine(GetParam());
  engine::EngineJob Job;
  Job.G = &G;
  Job.Plan = &Plan;
  engine::EngineResult R = Eng->run(Job);
  EXPECT_TRUE(R.Quiesced);
  EXPECT_EQ(R.Faulty, graph::Region({5, 6, 15}));
  EXPECT_EQ(R.CrashTimes.size(), 16u);
  EXPECT_EQ(R.CrashTimes[15], 140u);
  EXPECT_EQ(R.CrashTimes[0], TimeNever);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, CrashPlanGuard,
    ::testing::Values(engine::BackendKind::Des, engine::BackendKind::Sharded),
    [](const ::testing::TestParamInfo<engine::BackendKind> &Info) {
      return std::string(engine::backendName(Info.param));
    });

} // namespace
