//===- perfbench/tests/SelfTest.cpp - The benchmark's own tests ----------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the arithmetic the benchmark reports: the tail rule and its
/// printed note, ok-share accounting when an op fails its checks, and the
/// decide-latency definition. Run with `python3 perfbench/run.py
/// --self-test`; it checks every expectation and exits non-zero if any
/// failed.
///
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include "scenario/Spec.h"
#include "trace/Checker.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace cliffedge;
using namespace perfbench;

static int Failures = 0;

#define EXPECT(Cond)                                                          \
  do {                                                                        \
    if (!(Cond)) {                                                            \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__,       \
                   #Cond);                                                    \
      ++Failures;                                                             \
    }                                                                         \
  } while (0)

static std::vector<double> iota(size_t N) {
  std::vector<double> V;
  for (size_t I = 1; I <= N; ++I)
    V.push_back(static_cast<double>(I));
  return V;
}

static void tailSelection() {
  // 19 samples cannot leave ten beyond any percentile from p50 up; 20
  // leave ten beyond p50 (the 10th) and only nine beyond p51 (the 11th).
  EXPECT(!tailOf(iota(19)).Valid);
  Tail T20 = tailOf(iota(20));
  EXPECT(T20.Valid && T20.Percentile == 50 && T20.Value == 10 &&
         T20.Beyond == 10);

  // 21 samples: p52 still ranks the 11th (ten beyond); p53 ranks the
  // 12th (nine beyond).
  Tail T21 = tailOf(iota(21));
  EXPECT(T21.Valid && T21.Percentile == 52 && T21.Value == 11 &&
         T21.Beyond == 10);

  // 100 samples: p90 (the 90th) keeps ten beyond; p91 would keep nine.
  Tail T100 = tailOf(iota(100));
  EXPECT(T100.Percentile == 90 && T100.Value == 90 && T100.Beyond == 10);

  // 74 samples: p86 is the 64th (ten beyond); p87 is the 65th (nine).
  Tail T74 = tailOf(iota(74));
  EXPECT(T74.Percentile == 86 && T74.Value == 64 && T74.Beyond == 10);

  // Enough samples: the rule stops at p99.
  Tail T5000 = tailOf(iota(5000));
  EXPECT(T5000.Percentile == 99 && T5000.Value == 4950 &&
         T5000.Beyond == 50);

  EXPECT(describe(T74, "ops") == "p86 of 74 ops, 10 beyond");
  EXPECT(describe(T5000, "ops") == "p99 of 5000 ops, 50 beyond");

  EXPECT(beyondPercentile(1100, 99) == 11);
  EXPECT(percentile(iota(4), 50) == 2);
}

static void okShareCountsFailedOps() {
  OpTally T;
  T.record(true, true);
  T.record(true, true);
  T.record(false, true); // Did not quiesce: its trace is not checked.
  EXPECT(T.Attempted == 3 && T.Failed == 1);

  // A real failing check: node 4 of a 3x3 grid decides a view of a node
  // that never crashed, which CD1..CD7 must refuse.
  Rng R(1);
  scenario::TopologyInfo Topo;
  std::string Error;
  EXPECT(scenario::buildTopology("grid:3x3", R, Topo, Error));
  trace::CheckInput In;
  In.G = &Topo.G;
  In.CrashTimes.assign(Topo.G.numNodes(), TimeNever);
  trace::DecisionRecord D;
  D.Node = 4;
  D.View = graph::Region({1});
  D.When = 50;
  In.Decisions.push_back(D);
  trace::CheckResult Bad = trace::checkAll(In);
  EXPECT(!Bad.Ok);
  T.record(true, Bad.Ok);
  EXPECT(T.Attempted == 4 && T.Failed == 2);
  EXPECT(T.okShare() == 0.5);

  EXPECT(OpTally().okShare() == 0);
}

static void decideTicksDefinition() {
  std::vector<SimTime> Crash = {TimeNever, 100, 120, TimeNever, 90};
  std::vector<trace::DecisionRecord> Ds(3);
  // Earliest crash among the view's nodes is node 1's (100).
  Ds[0].Node = 0;
  Ds[0].View = graph::Region({1, 2});
  Ds[0].When = 150;
  // A one-node view: its own crash time.
  Ds[1].Node = 3;
  Ds[1].View = graph::Region({2});
  Ds[1].When = 130;
  // The earliest crash, not the first-listed or the latest.
  Ds[2].Node = 3;
  Ds[2].View = graph::Region({1, 2, 4});
  Ds[2].When = 200;
  std::vector<double> Out;
  EXPECT(appendDecideTicks(Ds, Crash, Out));
  EXPECT((Out == std::vector<double>{50, 10, 110}));

  // A view holding a live node is refused and contributes no sample.
  std::vector<trace::DecisionRecord> Live(1);
  Live[0].Node = 1;
  Live[0].View = graph::Region({0, 2});
  Live[0].When = 300;
  Out.clear();
  EXPECT(!appendDecideTicks(Live, Crash, Out));
  EXPECT(Out.empty());
}

int main() {
  tailSelection();
  okShareCountsFailedOps();
  decideTicksDefinition();
  if (Failures) {
    std::printf("perfbench self-test: %d failed expectations\n", Failures);
    return 1;
  }
  std::printf("perfbench self-test: all expectations held\n");
  return 0;
}
