//===- trace/Timeline.cpp - ASCII run timelines ------------------------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "trace/Timeline.h"

#include "support/StrUtil.h"

#include <algorithm>
#include <map>
#include <vector>

using namespace cliffedge;
using namespace cliffedge::trace;

namespace {

struct NodeEvents {
  SimTime CrashAt = TimeNever;
  const DecisionRecord *Decision = nullptr;
};

} // namespace

std::string trace::renderTimeline(const CheckInput &In,
                                  TimelineOptions Opts) {
  const graph::Graph &G = *In.G;
  std::map<NodeId, NodeEvents> Events;
  SimTime TMin = TimeNever, TMax = 0;

  // Crash times exist only for faulty nodes: O(faulty), not O(N).
  for (NodeId N : In.Faulty)
    if (SimTime T = crashTimeOf(In, N); T != TimeNever) {
      Events[N].CrashAt = T;
      TMin = std::min(TMin, T);
      TMax = std::max(TMax, T);
    }
  for (const DecisionRecord &D : In.Decisions) {
    Events[D.Node].Decision = &D;
    TMin = std::min(TMin, D.When);
    TMax = std::max(TMax, D.When);
  }
  if (Events.empty())
    return "(no events)\n";
  if (!Opts.OnlyInvolved)
    for (NodeId N = 0; N < G.numNodes(); ++N)
      Events.emplace(N, NodeEvents{});

  if (TMax <= TMin)
    TMax = TMin + 1;
  const uint32_t Cols = std::max<uint32_t>(Opts.Columns, 8);
  auto ToCol = [&](SimTime T) -> uint32_t {
    return static_cast<uint32_t>((T - TMin) * (Cols - 1) / (TMax - TMin));
  };

  // Header: time axis with three anchors.
  std::string Out = formatStr("t: %-*llu%*llu\n", Cols / 2,
                              (unsigned long long)TMin, Cols - Cols / 2,
                              (unsigned long long)TMax);

  size_t LabelWidth = 4;
  for (const auto &[N, E] : Events)
    LabelWidth = std::max(LabelWidth, G.label(N).size() + 1);

  for (const auto &[N, E] : Events) {
    std::string Row(Cols, ' ');
    for (uint32_t C = 0; C < Cols; ++C)
      Row[C] = '.';
    if (E.CrashAt != TimeNever) {
      uint32_t C = ToCol(E.CrashAt);
      Row[C] = 'X';
      // Nothing after a crash.
      for (uint32_t K = C + 1; K < Cols; ++K)
        Row[K] = ' ';
    }
    std::string Annotation;
    if (E.Decision) {
      uint32_t C = ToCol(E.Decision->When);
      if (Row[C] != 'X')
        Row[C] = 'D';
      Annotation = " " + E.Decision->View.str();
    }
    Out += formatStr("%-*s %s%s\n", (int)LabelWidth, G.label(N).c_str(),
                     Row.c_str(), Annotation.c_str());
  }
  return Out;
}

std::string trace::renderEventLog(const CheckInput &In) {
  const graph::Graph &G = *In.G;
  struct Event {
    SimTime When;
    int Kind; // 0 = crash, 1 = decide; crashes first on ties.
    std::string Text;
  };
  std::vector<Event> Events;
  for (NodeId N : In.Faulty)
    if (SimTime T = crashTimeOf(In, N); T != TimeNever)
      Events.push_back({T, 0,
                        formatStr("t=%-8llu CRASH  %s",
                                  (unsigned long long)T,
                                  G.label(N).c_str())});
  for (const DecisionRecord &D : In.Decisions)
    Events.push_back(
        {D.When, 1,
         formatStr("t=%-8llu DECIDE %s -> view=%s value=%llu",
                   (unsigned long long)D.When, G.label(D.Node).c_str(),
                   D.View.str().c_str(), (unsigned long long)D.Chosen)});
  std::sort(Events.begin(), Events.end(),
            [](const Event &A, const Event &B) {
              if (A.When != B.When)
                return A.When < B.When;
              if (A.Kind != B.Kind)
                return A.Kind < B.Kind;
              return A.Text < B.Text;
            });
  std::string Out;
  for (const Event &E : Events) {
    Out += E.Text;
    Out += '\n';
  }
  return Out;
}
