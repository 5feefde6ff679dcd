//===- tests/HostCoreTest.cpp - The engines' shared host core --------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
//
// trace::HostCore's contract, which both simulated engines rely on: a
// frame decodes once however many legs read it, a recycled buffer never
// serves its previous payload's message, an untouched node costs no page,
// and the harvest comes out in id order. The crash-plan guard is covered
// on both engines by PagedStateTest's CrashPlanGuard.
//
//===----------------------------------------------------------------------===//

#include "trace/HostCore.h"

#include "graph/Builders.h"
#include "trace/Runner.h"

#include "gtest/gtest.h"

using namespace cliffedge;
using graph::Region;

namespace {

/// A host that drops every effect: the tests drive the core directly.
struct NullHost final : core::NodeHost {
  void multicast(NodeId, const Region &, const core::Message &) override {}
  void monitorCrash(NodeId, const Region &) override {}
  void decide(NodeId, const Region &, core::Value) override {}
  core::Value selectValue(NodeId From, const Region &) override {
    return From;
  }
};

class HostCoreTest : public ::testing::Test {
protected:
  HostCoreTest() : G(graph::makeTorus(40, 40)), Core(G, Opts, Host) {}

  /// A round-\p Round message on view {\p Crashed} with its border.
  core::Message message(NodeId Crashed, uint32_t Round) {
    Region View{Crashed};
    Region Border;
    G.borderInto(Crashed, Border);
    core::Message M;
    M.Round = Round;
    M.setView(Core.viewTable().intern(View, Border));
    M.Opinions = core::OpinionVec(M.border().size());
    return M;
  }

  graph::Graph G;
  trace::RunnerOptions Opts;
  NullHost Host;
  trace::HostCore Core;
};

TEST_F(HostCoreTest, LegsOfOneFrameDecodeOnceIntoOneMessage) {
  core::Message M = message(500, 3);
  NodeId From = M.border().ids().front();
  support::FrameRef First = Core.encode(From, M);
  support::FrameRef Second = First; // A second leg of the same multicast.

  const core::Message &A = Core.decoded(From, First);
  EXPECT_EQ(A.Round, 3u);
  EXPECT_EQ(A.view(), M.view());
  EXPECT_EQ(A.border(), M.border());
  // Mark the attached message: a second decode would overwrite the mark.
  const_cast<core::Message &>(A).Round = 99;

  const core::Message &B = Core.decoded(From, Second);
  EXPECT_EQ(&A, &B);
  EXPECT_EQ(B.Round, 99u);
}

TEST_F(HostCoreTest, RecycledBufferDecodesItsNewPayload) {
  core::Message M1 = message(500, 1);
  core::Message M2 = message(900, 2);
  NodeId From = M1.border().ids().front();
  support::FrameRef Frame = Core.encode(From, M1);
  EXPECT_EQ(Core.decoded(From, Frame).view(), M1.view());
  const support::FrameBuf *Buf = Frame.get();
  Frame = support::FrameRef(); // Last leg done: back to the pool.

  support::FrameRef Again = Core.encode(From, M2);
  ASSERT_EQ(Again.get(), Buf) << "the pool should recycle the buffer";
  const core::Message &Fresh = Core.decoded(From, Again);
  EXPECT_EQ(Fresh.Round, 2u);
  EXPECT_EQ(Fresh.view(), M2.view());
  EXPECT_EQ(Fresh.border(), M2.border());
}

TEST_F(HostCoreTest, UntouchedNodeReadsPristineAndCostsNoPage) {
  const trace::HostCore::NodeSlot &S = Core.slot(777);
  EXPECT_FALSE(S.Node.started());
  EXPECT_TRUE(S.Node.maxView().empty());
  EXPECT_EQ(S.CrashTime, TimeNever);
  EXPECT_EQ(Core.pages(), 0u);
  EXPECT_TRUE(Core.finalMaxViews().empty());

  Core.liveNode(777);
  EXPECT_TRUE(Core.slot(777).Node.started());
  EXPECT_EQ(Core.pages(), 1u);
}

TEST_F(HostCoreTest, HarvestIsInIdOrderWithoutSorting) {
  // Bind the nodes in descending id order, on three different pages, and
  // let each observe a neighbour's crash.
  const NodeId Nodes[] = {1500, 700, 20};
  for (NodeId N : Nodes) {
    NodeId Crashed = N + 1; // Same torus row, so a neighbour.
    Core.admitCrash(Crashed, 100 + N);
    Core.liveNode(N).onCrash(Crashed);
  }
  std::vector<trace::NodeMaxView> Views = Core.finalMaxViews();
  ASSERT_EQ(Views.size(), 3u);
  EXPECT_EQ(Views[0], trace::NodeMaxView(20, Region{21}));
  EXPECT_EQ(Views[1], trace::NodeMaxView(700, Region{701}));
  EXPECT_EQ(Views[2], trace::NodeMaxView(1500, Region{1501}));

  std::vector<SimTime> Times = Core.crashTimes();
  ASSERT_EQ(Times.size(), G.numNodes());
  EXPECT_EQ(Times[21], 120u);
  EXPECT_EQ(Times[701], 800u);
  EXPECT_EQ(Times[1501], 1600u);
  EXPECT_EQ(Times[20], TimeNever);
  EXPECT_EQ(Core.faulty(), (Region{21, 701, 1501}));
}

} // namespace
