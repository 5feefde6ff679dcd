//===- trace/Checker.cpp - CD1..CD7 specification checkers -----------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "trace/Checker.h"

#include "support/StrUtil.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <numeric>
#include <set>

using namespace cliffedge;
using namespace cliffedge::trace;

CheckInput trace::makeCheckInput(const ScenarioRunner &Runner) {
  CheckInput In;
  In.G = &Runner.topology();
  In.Faulty = Runner.faultySet();
  if (!In.Faulty.empty()) {
    In.CrashTimes.assign(size_t(In.Faulty.ids().back()) + 1, TimeNever);
    for (NodeId N : In.Faulty)
      In.CrashTimes[N] = Runner.hostCore().slot(N).CrashTime;
  }
  In.Decisions = Runner.decisions();
  In.SendLog = &Runner.sendLog();
  return In;
}

void CheckResult::fail(std::string Why) {
  Ok = false;
  Violations.push_back(std::move(Why));
}

std::string CheckResult::summary() const {
  return joinMapped(Violations, "\n",
                    [](const std::string &S) { return S; });
}

std::vector<graph::Region>
trace::faultyDomains(const graph::Graph &G, const graph::Region &Faulty) {
  return G.connectedComponents(Faulty);
}

std::vector<size_t>
trace::clusterDomains(const graph::Graph &G,
                      const std::vector<graph::Region> &Domains) {
  // Union-find over domains; two domains are adjacent when their borders
  // intersect (§2.2, "F || H").
  std::vector<size_t> Parent(Domains.size());
  std::iota(Parent.begin(), Parent.end(), size_t(0));
  std::function<size_t(size_t)> Find = [&](size_t X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  };
  std::vector<graph::Region> Borders;
  Borders.reserve(Domains.size());
  for (const graph::Region &D : Domains)
    Borders.push_back(G.border(D));
  for (size_t I = 0; I < Domains.size(); ++I)
    for (size_t J = I + 1; J < Domains.size(); ++J)
      if (Borders[I].intersects(Borders[J]))
        Parent[Find(I)] = Find(J);
  // Normalise to dense cluster ids.
  std::vector<size_t> Ids(Domains.size());
  std::map<size_t, size_t> Dense;
  for (size_t I = 0; I < Domains.size(); ++I) {
    size_t Root = Find(I);
    auto It = Dense.find(Root);
    if (It == Dense.end())
      It = Dense.emplace(Root, Dense.size()).first;
    Ids[I] = It->second;
  }
  return Ids;
}

void trace::checkIntegrityCD1(const CheckInput &In, CheckResult &Out) {
  // "No node decides twice on the same region." Our implementation is
  // stricter — a node decides at most once, ever — so check that too.
  std::set<NodeId> Seen;
  for (const DecisionRecord &D : In.Decisions) {
    if (!Seen.insert(D.Node).second)
      Out.fail(formatStr("CD1: node %u decided more than once", D.Node));
  }
}

void trace::checkViewAccuracyCD2(const CheckInput &In, CheckResult &Out) {
  for (const DecisionRecord &D : In.Decisions) {
    if (!In.G->isConnectedRegion(D.View)) {
      Out.fail(formatStr("CD2: node %u decided non-connected view %s",
                         D.Node, D.View.str().c_str()));
      continue;
    }
    // Every member of the view must have crashed before the decision.
    for (NodeId Member : D.View)
      if (crashTimeOf(In, Member) == TimeNever ||
          crashTimeOf(In, Member) > D.When)
        Out.fail(formatStr(
            "CD2: node %u decided view %s containing node %u which had "
            "not crashed at t=%llu",
            D.Node, D.View.str().c_str(), Member,
            static_cast<unsigned long long>(D.When)));
    if (!In.G->border(D.View).contains(D.Node))
      Out.fail(formatStr("CD2: deciding node %u is not on border(%s)",
                         D.Node, D.View.str().c_str()));
  }
}

void trace::checkLocalityCD3(const CheckInput &In, CheckResult &Out) {
  if (!In.SendLog)
    return;
  std::vector<graph::Region> Domains = faultyDomains(*In.G, In.Faulty);
  std::vector<graph::Region> Scopes; // domain + border, per domain
  Scopes.reserve(Domains.size());
  for (const graph::Region &D : Domains)
    Scopes.push_back(D.unionWith(In.G->border(D)));
  for (const sim::SendRecord &S : *In.SendLog) {
    bool Covered = false;
    for (const graph::Region &Scope : Scopes)
      if (Scope.contains(S.From) && Scope.contains(S.To)) {
        Covered = true;
        break;
      }
    if (!Covered)
      Out.fail(formatStr(
          "CD3: message %u -> %u at t=%llu is outside every faulty "
          "domain's scope",
          S.From, S.To, static_cast<unsigned long long>(S.When)));
  }
}

void trace::checkBorderTerminationCD4(const CheckInput &In,
                                      CheckResult &Out) {
  std::set<NodeId> Deciders;
  for (const DecisionRecord &D : In.Decisions)
    Deciders.insert(D.Node);
  for (const DecisionRecord &D : In.Decisions) {
    for (NodeId Q : In.G->border(D.View)) {
      bool Correct = crashTimeOf(In, Q) == TimeNever;
      if (Correct && !Deciders.count(Q))
        Out.fail(formatStr(
            "CD4: node %u decided on %s but correct border node %u never "
            "decided",
            D.Node, D.View.str().c_str(), Q));
    }
  }
}

void trace::checkUniformAgreementCD5(const CheckInput &In,
                                     CheckResult &Out) {
  // "If two nodes p and q decide, and p decides (V,d), and q in border(V),
  // then q decides (V,d)." Uniform: applies to faulty deciders too.
  for (const DecisionRecord &P : In.Decisions) {
    graph::Region Border = In.G->border(P.View);
    for (const DecisionRecord &Q : In.Decisions) {
      if (!Border.contains(Q.Node))
        continue;
      if (Q.View != P.View || Q.Chosen != P.Chosen)
        Out.fail(formatStr(
            "CD5: node %u decided (%s, %llu) but border node %u decided "
            "(%s, %llu)",
            P.Node, P.View.str().c_str(),
            static_cast<unsigned long long>(P.Chosen), Q.Node,
            Q.View.str().c_str(),
            static_cast<unsigned long long>(Q.Chosen)));
    }
  }
}

void trace::checkViewConvergenceCD6(const CheckInput &In, CheckResult &Out) {
  checkViewConvergenceCD6(
      In.Decisions,
      [&In](NodeId N) { return crashTimeOf(In, N) == TimeNever; }, Out);
}

void trace::checkViewConvergenceCD6(
    const std::vector<DecisionRecord> &Decisions, const CorrectFn &IsCorrect,
    CheckResult &Out) {
  // "If two correct nodes decide V and W, V and W intersecting implies
  // V = W." Correctness is asked once per decision, not once per pair.
  std::vector<uint8_t> Correct(Decisions.size());
  for (size_t I = 0; I < Decisions.size(); ++I)
    Correct[I] = IsCorrect(Decisions[I].Node);
  for (size_t I = 0; I < Decisions.size(); ++I) {
    const DecisionRecord &A = Decisions[I];
    if (!Correct[I])
      continue;
    for (size_t J = I + 1; J < Decisions.size(); ++J) {
      const DecisionRecord &B = Decisions[J];
      if (!Correct[J])
        continue;
      if (A.View.intersects(B.View) && A.View != B.View)
        Out.fail(formatStr(
            "CD6: correct nodes %u and %u decided overlapping but "
            "different views %s and %s",
            A.Node, B.Node, A.View.str().c_str(), B.View.str().c_str()));
    }
  }
}

void trace::checkProgressCD7(const CheckInput &In, CheckResult &Out) {
  checkProgressCD7(
      *In.G, In.Faulty, In.Decisions,
      [&In](NodeId N) { return crashTimeOf(In, N) == TimeNever; }, Out);
}

void trace::checkProgressCD7(const graph::Graph &G,
                             const graph::Region &Faulty,
                             const std::vector<DecisionRecord> &Decisions,
                             const CorrectFn &IsCorrect, CheckResult &Out) {
  if (Faulty.empty())
    return;
  std::vector<graph::Region> Domains = faultyDomains(G, Faulty);
  std::vector<size_t> Clusters = clusterDomains(G, Domains);
  size_t NumClusters = 0;
  for (size_t C : Clusters)
    NumClusters = std::max(NumClusters, C + 1);

  std::set<NodeId> Deciders;
  for (const DecisionRecord &D : Decisions)
    Deciders.insert(D.Node);

  std::vector<NodeId> UnionScratch;
  for (size_t Cluster = 0; Cluster < NumClusters; ++Cluster) {
    bool Satisfied = false;
    graph::Region ClusterBorder;
    for (size_t I = 0; I < Domains.size() && !Satisfied; ++I) {
      if (Clusters[I] != Cluster)
        continue;
      graph::Region Border = G.border(Domains[I]);
      ClusterBorder.unionInPlace(Border, UnionScratch);
      for (NodeId P : Border) {
        if (IsCorrect(P) && Deciders.count(P)) {
          Satisfied = true;
          break;
        }
      }
    }
    if (!Satisfied)
      Out.fail(formatStr(
          "CD7: no correct border node of faulty cluster %zu (border %s) "
          "ever decided",
          Cluster, ClusterBorder.str().c_str()));
  }
}

CheckResult trace::checkAllBatch(const CheckInput &In) {
  assert(In.G && "CheckInput.G must be set");
  CheckResult Out;
  checkIntegrityCD1(In, Out);
  checkViewAccuracyCD2(In, Out);
  checkLocalityCD3(In, Out);
  checkBorderTerminationCD4(In, Out);
  checkUniformAgreementCD5(In, Out);
  checkViewConvergenceCD6(In, Out);
  checkProgressCD7(In, Out);
  return Out;
}

CheckResult trace::checkNodeInvariants(const ScenarioRunner &Runner) {
  CheckResult Out;
  const graph::Region &Faulty = Runner.faultySet();
  Runner.hostCore().forEachTouchedNode([&](const core::CliffEdgeNode &Node) {
    NodeId N = Node.id();

    if (!Node.locallyCrashed().isSubsetOf(Faulty))
      Out.fail(formatStr(
          "INV: node %u observed crashes %s outside the faulty set", N,
          Node.locallyCrashed().differenceWith(Faulty).str().c_str()));

    if (Node.counters().Proposals > 0 && Node.locallyCrashed().empty())
      Out.fail(formatStr("INV: node %u proposed without observing any "
                         "crash",
                         N));

    if (Node.hasDecided()) {
      if (!Node.hasActiveProposal())
        Out.fail(formatStr(
            "INV: decided node %u has no pinned proposal (line 37 must "
            "not run after a decision)",
            N));
      if (Node.lastProposedView() != Node.decidedView())
        Out.fail(formatStr(
            "INV: node %u decided %s but its last proposal is %s", N,
            Node.decidedView().str().c_str(),
            Node.lastProposedView().str().c_str()));
      if (!Node.decidedView().isSubsetOf(Node.locallyCrashed()))
        Out.fail(formatStr(
            "INV: node %u decided %s not contained in its observed "
            "crash set %s",
            N, Node.decidedView().str().c_str(),
            Node.locallyCrashed().str().c_str()));
    }
  });
  return Out;
}
