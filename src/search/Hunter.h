//===- search/Hunter.h - Coverage-guided adversarial executor ---*- C++ -*-===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hunt loop of the search plane: a coverage-guided mutate→run→score
/// driver over scenario::Perturbation space. Every candidate is a pure
/// function of (spec, seed, hunt-seed, nonce) — mutation streams are
/// derived per nonce, parents are picked from the frontier as it stood at
/// the round boundary, and results are admitted serially in nonce order —
/// so a hunt's frontier, violations, and FrontierHash are identical at any
/// --jobs value (the CampaignRunner discipline) and any finding replays
/// bit-for-bit from its Perturbation record alone.
///
/// Violations (runs where a passing baseline's CD1..CD7 verdict flips) are
/// cross-validated on the *other* backend before they count: a confirmed
/// finding fails the spec on both engines, which is what the committed
/// repro format (`expect violation`) asserts on replay.
///
//===----------------------------------------------------------------------===//

#ifndef CLIFFEDGE_SEARCH_HUNTER_H
#define CLIFFEDGE_SEARCH_HUNTER_H

#include "scenario/Spec.h"
#include "search/Objective.h"

#include <string>
#include <vector>

namespace cliffedge {
namespace search {

/// Hunt configuration (`cliffedge-sim hunt`).
struct HuntOptions {
  ObjectiveKind Objective = ObjectiveKind::CdFlip;
  /// Perturbations evaluated before the hunt stops (cross-validation
  /// runs are free — they confirm findings, they don't explore).
  uint64_t Budget = 32;
  /// Worker threads evaluating one round's candidates. Results are
  /// independent of this value.
  unsigned Jobs = 1;
  /// Job seed; 0 means the variant's SeedLo.
  uint64_t Seed = 0;
  /// Seeds the mutation stream — a different hunt over the same spec.
  uint64_t HuntSeed = 1;
  /// Stop at the first confirmed violation instead of spending the
  /// whole budget.
  bool StopAtViolation = false;
  /// Frontier capacity; lowest-scoring entries are evicted beyond it.
  size_t FrontierCap = 32;
};

/// One frontier entry or confirmed violation.
struct Finding {
  scenario::Perturbation P;
  RunSummary Summary; ///< Primary-backend summary.
  uint64_t Score = 0;
  uint64_t Nonce = 0; ///< Mutation nonce that produced P (provenance).
};

struct HuntResult {
  bool Ok = true;
  std::string Error;
  uint64_t Seed = 0; ///< The job seed actually hunted.
  RunSummary Baseline;
  /// Coverage frontier in admission order: one entry per novel coverage
  /// signature (plus score-based replacements).
  std::vector<Finding> Frontier;
  /// Confirmed violations: the verdict flips on the hunted backend AND
  /// the perturbed run fails CD1..CD7 on the other backend too.
  std::vector<Finding> Violations;
  uint64_t Evaluated = 0;
  /// Order-sensitive hash of the frontier — the determinism witness the
  /// hunt-smoke tests compare across backends and job counts.
  uint64_t FrontierHash = 0;
};

/// Runs one hunt over \p Variant (a sweep-resolved spec; sweeps inside it
/// are ignored). Deterministic for fixed (Variant, Opts) at any Jobs.
HuntResult hunt(const scenario::Spec &Variant, const HuntOptions &Opts);

/// Materializes \p Variant with \p P applied at \p Seed and runs it on
/// \p Backend (workers=1). The shared evaluation primitive of the hunt
/// loop, the minimizer, `cliffedge-sim replay`, and the tests. \p World,
/// when set, is buildWorld(Variant, Seed)'s result, borrowed instead of
/// building the topology again.
bool evaluatePerturbed(const scenario::Spec &Variant,
                       const scenario::Perturbation &P,
                       engine::BackendKind Backend, uint64_t Seed,
                       RunSummary &Out, std::string &Error,
                       const scenario::TopologyInfo *World = nullptr);

} // namespace search
} // namespace cliffedge

#endif // CLIFFEDGE_SEARCH_HUNTER_H
