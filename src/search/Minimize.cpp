//===- search/Minimize.cpp - Delta-debugging repro minimizer ---------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "search/Minimize.h"

#include <algorithm>

using namespace cliffedge;
using namespace cliffedge::search;

namespace {

/// The minimization predicate plus its bookkeeping.
struct Ctx {
  const scenario::Spec &Variant;
  uint64_t Seed;
  /// The (Variant, Seed) world, built once and lent to every evaluation.
  const scenario::TopologyInfo &World;
  uint64_t Steps = 0;
  /// Soft budget: minimization is greedy, each step strictly shrinks, so
  /// this only bounds pathological plans.
  static constexpr uint64_t MaxSteps = 300;

  /// True iff \p P's execution fails CD1..CD7 on both backends — the
  /// contract a committed `expect violation` repro asserts.
  bool violates(const scenario::Perturbation &P,
                RunSummary *Primary = nullptr) {
    ++Steps;
    RunSummary A, B;
    std::string Err;
    if (!evaluatePerturbed(Variant, P, Variant.Backend, Seed, A, Err, &World))
      return false;
    if (Primary)
      *Primary = A;
    if (!A.Quiesced || A.CheckOk)
      return false;
    if (!evaluatePerturbed(Variant, P,
                           Variant.Backend == engine::BackendKind::Des
                               ? engine::BackendKind::Sharded
                               : engine::BackendKind::Des,
                           Seed, B, Err, &World))
      return false;
    return B.Quiesced && !B.CheckOk;
  }

  bool exhausted() const { return Steps >= MaxSteps; }
};

/// Unperturbed crash-plan size: the index space `crash-drop` names.
size_t planSize(const Ctx &C) {
  scenario::Spec Base = C.Variant;
  Base.Perturb = scenario::Perturbation();
  scenario::MaterializedRun MR;
  std::string Err;
  if (!scenario::materializeSingle(Base, C.Seed, MR, Err, &C.World))
    return 0;
  return MR.Plan.Crashes.size();
}

/// Clears scalar mutations (tie bias, link salt, link override) that the
/// violation turns out not to need.
bool clearScalars(Ctx &C, scenario::Perturbation &Best) {
  bool Changed = false;
  if (Best.TieBias && !C.exhausted()) {
    scenario::Perturbation Cand = Best;
    Cand.TieBias = 0;
    if (C.violates(Cand)) {
      Best = Cand;
      Changed = true;
    }
  }
  if (Best.LinkSalt && !C.exhausted()) {
    scenario::Perturbation Cand = Best;
    Cand.LinkSalt = 0;
    if (C.violates(Cand)) {
      Best = Cand;
      Changed = true;
    }
  }
  if (Best.HasLink && !C.exhausted()) {
    scenario::Perturbation Cand = Best;
    Cand.HasLink = false;
    Cand.Link = net::LinkSpec();
    if (C.violates(Cand)) {
      Best = Cand;
      Changed = true;
    }
  }
  return Changed;
}

/// ddmin-style chunk removal over the shift list.
bool shrinkShifts(Ctx &C, scenario::Perturbation &Best) {
  bool Changed = false;
  size_t Chunk = std::max<size_t>(1, Best.Shifts.size() / 2);
  while (Chunk >= 1 && !Best.Shifts.empty() && !C.exhausted()) {
    bool Removed = false;
    for (size_t At = 0; At + Chunk <= Best.Shifts.size() && !C.exhausted();) {
      scenario::Perturbation Cand = Best;
      Cand.Shifts.erase(Cand.Shifts.begin() + At,
                        Cand.Shifts.begin() + At + Chunk);
      if (C.violates(Cand)) {
        Best = Cand;
        Removed = Changed = true;
      } else {
        At += Chunk;
      }
    }
    if (Chunk == 1 && !Removed)
      break;
    Chunk = Chunk > 1 ? Chunk / 2 : (Removed ? 1 : 0);
  }
  return Changed;
}

/// Timing re-quantization: halve surviving deltas toward zero, rounded to
/// 10-tick quanta — smaller numbers in the committed file, same flip.
bool requantizeShifts(Ctx &C, scenario::Perturbation &Best) {
  bool Changed = false;
  for (size_t I = 0; I < Best.Shifts.size() && !C.exhausted(); ++I) {
    for (;;) {
      int64_t D = Best.Shifts[I].Delta;
      int64_t Half = (D / 2) / 10 * 10;
      if (Half == 0 || Half == D)
        break;
      scenario::Perturbation Cand = Best;
      Cand.Shifts[I].Delta = Half;
      if (!C.violates(Cand) || C.exhausted())
        break;
      Best = Cand;
      Changed = true;
    }
  }
  return Changed;
}

/// Greedy chunk removal of crash events: try *adding* drop chunks over
/// the still-kept plan indices — every adopted chunk is a strictly
/// smaller execution.
bool shrinkPlan(Ctx &C, scenario::Perturbation &Best, size_t PlanSize) {
  bool Changed = false;
  auto Kept = [&]() {
    std::vector<uint32_t> K;
    for (uint32_t I = 0; I < PlanSize; ++I)
      if (!std::binary_search(Best.Drops.begin(), Best.Drops.end(), I))
        K.push_back(I);
    return K;
  };
  std::vector<uint32_t> K = Kept();
  size_t Chunk = std::max<size_t>(1, K.size() / 2);
  while (Chunk >= 1 && !K.empty() && !C.exhausted()) {
    bool Removed = false;
    for (size_t At = 0; At + Chunk <= K.size() && !C.exhausted();) {
      scenario::Perturbation Cand = Best;
      for (size_t J = 0; J < Chunk; ++J) {
        auto It = std::lower_bound(Cand.Drops.begin(), Cand.Drops.end(),
                                   K[At + J]);
        Cand.Drops.insert(It, K[At + J]);
      }
      if (C.violates(Cand)) {
        Best = Cand;
        K = Kept();
        At = 0; // Index space shifted; restart this chunk size.
        Removed = Changed = true;
      } else {
        At += Chunk;
      }
    }
    if (Chunk == 1 && !Removed)
      break;
    Chunk = Chunk > 1 ? std::min(Chunk / 2, std::max<size_t>(1, K.size()))
                      : (Removed ? 1 : 0);
  }
  return Changed;
}

} // namespace

MinimizeResult search::minimize(const scenario::Spec &Variant, uint64_t Seed,
                                const scenario::Perturbation &Found) {
  MinimizeResult Res;
  Res.P = Found;
  // A world that cannot be built cannot violate anything: report the
  // finding as not reproducing, as a failed evaluation would.
  scenario::TopologyInfo World;
  std::string Err;
  if (!scenario::buildWorld(Variant, Seed, World, Err)) {
    Res.StillViolates = false;
    return Res;
  }
  Ctx C{Variant, Seed, World};
  if (!C.violates(Found, &Res.Summary)) {
    Res.Steps = C.Steps;
    Res.StillViolates = false;
    return Res;
  }
  const size_t PlanSize = planSize(C);
  bool Changed = true;
  int Rounds = 0;
  while (Changed && Rounds++ < 4 && !C.exhausted()) {
    Changed = false;
    Changed |= clearScalars(C, Res.P);
    Changed |= shrinkShifts(C, Res.P);
    Changed |= requantizeShifts(C, Res.P);
    Changed |= shrinkPlan(C, Res.P, PlanSize);
  }
  // Final re-validation fills the summary for the exact committed record.
  Res.StillViolates = C.violates(Res.P, &Res.Summary);
  Res.Steps = C.Steps;
  Res.CrashEvents = PlanSize - Res.P.Drops.size();
  return Res;
}

scenario::Spec search::makeRepro(const scenario::Spec &Variant, uint64_t Seed,
                                 const scenario::Perturbation &P,
                                 ObjectiveKind Objective,
                                 const std::string &Name) {
  scenario::Spec R = Variant;
  R.Name = Name;
  R.SeedLo = R.SeedHi = Seed;
  R.Sweeps.clear();
  // The violation is the repro's point: plain runs of the file should not
  // die on it, `cliffedge-sim replay` re-arms the checkers and asserts
  // the expectation.
  R.Check = false;
  R.Perturb = P;
  R.Objective = objectiveName(Objective);
  R.Expect = scenario::Expectation::Violation;
  return R;
}
