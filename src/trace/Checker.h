//===- trace/Checker.h - CD1..CD7 specification checkers --------*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Post-hoc verification of a completed run against the paper's
/// specification of convergent detection of crashed regions (§2.3):
///
///   CD1 Integrity, CD2 View Accuracy, CD3 Locality, CD4 Border
///   Termination, CD5 Uniform Border Agreement, CD6 View Convergence,
///   CD7 Progress.
///
/// The checkers operate on ground truth the simulation harness has and the
/// protocol does not: the full crash schedule and the complete send log.
/// Notes on interpretation (argued in DESIGN.md):
///  * CD4/CD6/CD7 quantify over *correct* nodes (never crashed in the
///    run); CD5 is uniform and covers faulty deciders too.
///  * CD7's "p decides" does not constrain *what* p decides — a node may
///    satisfy a cluster's progress by deciding an early sub-region whose
///    entire border later crashed.
///  * Faulty domains are the connected components of the final faulty set
///    (every faulty node has crashed at quiescence); clusters are the
///    transitive closure of border-intersection adjacency.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_TRACE_CHECKER_H
#define CLIFFEDGE_TRACE_CHECKER_H

#include "graph/Graph.h"
#include "graph/Region.h"
#include "sim/Network.h"
#include "trace/Runner.h"

#include <functional>
#include <string>
#include <vector>

namespace cliffedge {
namespace trace {

/// Everything the checkers need about a finished run.
struct CheckInput {
  const graph::Graph *G = nullptr;
  /// All nodes that crashed during the run.
  graph::Region Faulty;
  /// Crash time per node (TimeNever for correct nodes), indexed by id.
  /// May end early: ids at or past the end read as TimeNever (see
  /// crashTimeOf), so producers can stop after the highest faulty id.
  std::vector<SimTime> CrashTimes;
  /// Optional: a crash-time array of the same form owned by the producer
  /// (engine::toCheckInput points it at the EngineResult's), read instead
  /// of CrashTimes when set, so a check never copies an N-sized array.
  const std::vector<SimTime> *CrashTimesRef = nullptr;
  /// Every decision, in emission order.
  std::vector<DecisionRecord> Decisions;
  /// Optional: full send log for CD3 (skipped when null).
  const std::vector<sim::SendRecord> *SendLog = nullptr;
};

/// Crash time of \p Node in \p In: TimeNever for correct nodes, including
/// every id past the end of the crash-time array (In.CrashTimesRef when
/// set, else In.CrashTimes).
inline SimTime crashTimeOf(const CheckInput &In, NodeId Node) {
  const std::vector<SimTime> &Times =
      In.CrashTimesRef ? *In.CrashTimesRef : In.CrashTimes;
  return Node < Times.size() ? Times[Node] : TimeNever;
}

/// Builds a CheckInput straight from a finished ScenarioRunner, in
/// O(faulty + decisions): CrashTimes ends after the highest faulty id.
CheckInput makeCheckInput(const ScenarioRunner &Runner);

/// Result of checking one run.
struct CheckResult {
  bool Ok = true;
  std::vector<std::string> Violations;

  /// Appends a violation and clears Ok.
  void fail(std::string Why);

  /// All violations joined with newlines (empty when Ok).
  std::string summary() const;
};

/// The faulty domains of a run: connected components of the faulty set.
std::vector<graph::Region> faultyDomains(const graph::Graph &G,
                                         const graph::Region &Faulty);

/// Groups faulty domains into clusters (equivalence classes of transitive
/// border-intersection adjacency, §2.2). Returns, for each domain index,
/// its cluster id.
std::vector<size_t> clusterDomains(const graph::Graph &G,
                                   const std::vector<graph::Region> &Domains);

// Individual property checkers; each appends violations to \p Out.
void checkIntegrityCD1(const CheckInput &In, CheckResult &Out);
void checkViewAccuracyCD2(const CheckInput &In, CheckResult &Out);
void checkLocalityCD3(const CheckInput &In, CheckResult &Out);
void checkBorderTerminationCD4(const CheckInput &In, CheckResult &Out);
void checkUniformAgreementCD5(const CheckInput &In, CheckResult &Out);
void checkViewConvergenceCD6(const CheckInput &In, CheckResult &Out);
void checkProgressCD7(const CheckInput &In, CheckResult &Out);

/// A node-correctness oracle: true iff the node never crashed, in the
/// batch checker's sense (crash time TimeNever).
using CorrectFn = std::function<bool(NodeId)>;

/// CD6 and CD7 over ground truth held outside a CheckInput — the
/// streaming checker keeps crash times in its paged node store. Output is
/// identical to the CheckInput overloads given the same correctness.
void checkViewConvergenceCD6(const std::vector<DecisionRecord> &Decisions,
                             const CorrectFn &IsCorrect, CheckResult &Out);
void checkProgressCD7(const graph::Graph &G, const graph::Region &Faulty,
                      const std::vector<DecisionRecord> &Decisions,
                      const CorrectFn &IsCorrect, CheckResult &Out);

/// Runs all seven checkers in one pass over the materialized trace. Kept
/// as the reference implementation: checkAll produces identical output by
/// replaying the trace through trace::StreamingChecker, and
/// CheckerEquivalenceTest pins the two against each other.
CheckResult checkAllBatch(const CheckInput &In);

/// Runs all seven checkers. Implemented as a replay of the materialized
/// trace through the streaming core (StreamingChecker.cpp); byte-identical
/// to checkAllBatch.
CheckResult checkAll(const CheckInput &In);

/// White-box per-node invariants at quiescence, using the protocol
/// objects' introspection (beyond the paper's black-box properties).
/// Walks only the nodes the run touched; an untouched node is in its
/// start()-state and satisfies every invariant trivially.
///  * a decided node's proposal is still pinned to its decided view
///    (`proposed` is never reset after a decision);
///  * every crash a node observed really happened (end-to-end strong
///    accuracy);
///  * a node only ever proposed if it observed a crash;
///  * the decided view is contained in the decider's observed crash set.
CheckResult checkNodeInvariants(const ScenarioRunner &Runner);

} // namespace trace
} // namespace cliffedge

#endif // CLIFFEDGE_TRACE_CHECKER_H
