//===- search/Hunter.cpp - Coverage-guided adversarial executor ------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "search/Hunter.h"

#include "support/Random.h"

#include <algorithm>
#include <thread>

using namespace cliffedge;
using namespace cliffedge::search;

bool search::evaluatePerturbed(const scenario::Spec &Variant,
                               const scenario::Perturbation &P,
                               engine::BackendKind Backend, uint64_t Seed,
                               RunSummary &Out, std::string &Error,
                               const scenario::TopologyInfo *World) {
  scenario::Spec V = Variant;
  V.Perturb = P;
  V.Backend = Backend;
  scenario::MaterializedRun MR;
  if (!scenario::materializeSingle(V, Seed, MR, Error, World))
    return false;
  engine::EngineJob Job;
  Job.G = &MR.Topo->G;
  Job.Plan = &MR.Plan;
  Job.Options = MR.Options;
  Job.Seed = Seed;
  engine::EngineResult R = engine::makeEngine(Backend)->run(Job);
  Out = summarize(R, MR.Topo->G);
  return true;
}

namespace {

constexpr uint64_t Golden = 0x9e3779b97f4a7c15ULL;

engine::BackendKind otherBackend(engine::BackendKind K) {
  return K == engine::BackendKind::Des ? engine::BackendKind::Sharded
                                       : engine::BackendKind::Des;
}

/// Inserts or replaces the shift for \p Idx, keeping Shifts sorted.
void setShift(std::vector<scenario::CrashShift> &Shifts, uint32_t Idx,
              int64_t Delta) {
  auto It = std::lower_bound(
      Shifts.begin(), Shifts.end(), Idx,
      [](const scenario::CrashShift &S, uint32_t I) { return S.Index < I; });
  if (It != Shifts.end() && It->Index == Idx) {
    It->Delta = Delta;
    return;
  }
  scenario::CrashShift Sh;
  Sh.Index = Idx;
  Sh.Delta = Delta;
  Shifts.insert(It, Sh);
}

/// One mutation step: a small random edit of \p P. Every branch keeps the
/// record well-formed (sorted unique indices, non-zero scalars), so any
/// mutation stream — however hostile — yields a valid Perturbation; the
/// plan-level guard (applyPerturbation) handles semantic excess like
/// dropping into a degenerate plan.
scenario::Perturbation mutate(scenario::Perturbation P, size_t PlanSize,
                              const net::LinkSpec &BaseLink, SplitMix64 &R) {
  for (int Tries = 0; Tries < 8; ++Tries) {
    switch (R.next() % 6) {
    case 0:
      P.TieBias = R.next() | 1;
      return P;
    case 1:
      P.LinkSalt = R.next() | 1;
      return P;
    case 2: { // Move one crash, in 10-tick quanta up to +-120.
      if (!PlanSize)
        break;
      uint32_t Idx = static_cast<uint32_t>(R.next() % PlanSize);
      int64_t Mag = static_cast<int64_t>(R.next() % 12 + 1) * 10;
      setShift(P.Shifts, Idx, (R.next() & 1) ? Mag : -Mag);
      return P;
    }
    case 3: { // Remove one crash.
      if (!PlanSize)
        break;
      uint32_t Idx = static_cast<uint32_t>(R.next() % PlanSize);
      auto It = std::lower_bound(P.Drops.begin(), P.Drops.end(), Idx);
      if (It != P.Drops.end() && *It == Idx)
        break; // Already dropped; try another edit.
      P.Drops.insert(It, Idx);
      return P;
    }
    case 4: { // Mutate the raw link conditions themselves.
      net::LinkSpec L = P.HasLink ? P.Link : BaseLink;
      switch (R.next() % 3) {
      case 0:
        L.DropBp = static_cast<uint32_t>(R.next() % 4000); // <= 40% loss
        break;
      case 1:
        L.DupBp = static_cast<uint32_t>(R.next() % 1000);
        break;
      case 2:
        L.Reorder = R.next() % 40;
        break;
      }
      net::normalizeLinkSpec(L);
      P.HasLink = true;
      P.Link = L;
      return P;
    }
    case 5: { // Back-mutation: forget one edit, keeps records small.
      if (P.TieBias && (R.next() & 1)) {
        P.TieBias = 0;
        return P;
      }
      if (P.LinkSalt && (R.next() & 1)) {
        P.LinkSalt = 0;
        return P;
      }
      if (!P.Shifts.empty()) {
        P.Shifts.erase(P.Shifts.begin() + (R.next() % P.Shifts.size()));
        return P;
      }
      if (!P.Drops.empty()) {
        P.Drops.erase(P.Drops.begin() + (R.next() % P.Drops.size()));
        return P;
      }
      if (P.HasLink) {
        P.HasLink = false;
        P.Link = net::LinkSpec();
        return P;
      }
      break; // Nothing to forget.
    }
    }
  }
  // Every path above can decline on an empty record; the tie bias never
  // does, so a hostile stream still returns a fresh legal perturbation.
  P.TieBias = R.next() | 1;
  return P;
}

constexpr uint64_t FnvPrime = 0x100000001b3ULL;

void fnvMix(uint64_t &H, uint64_t V) {
  for (int B = 0; B < 8; ++B) {
    H ^= (V >> (B * 8)) & 0xff;
    H *= FnvPrime;
  }
}

} // namespace

HuntResult search::hunt(const scenario::Spec &Variant,
                        const HuntOptions &Opts) {
  HuntResult Res;
  Res.Seed = Opts.Seed ? Opts.Seed : Variant.SeedLo;

  // Every candidate runs at this one (spec, seed), and a perturbation
  // never touches the topology: build the world once and lend it to every
  // evaluation, whatever the topology kind.
  scenario::TopologyInfo World;
  if (!scenario::buildWorld(Variant, Res.Seed, World, Res.Error)) {
    Res.Ok = false;
    return Res;
  }

  // Baseline: the unperturbed execution the objective scores against.
  // Materialized directly so the unperturbed plan size (the index space
  // of crash mutations) comes for free.
  scenario::Spec Base = Variant;
  Base.Perturb = scenario::Perturbation();
  scenario::MaterializedRun BaseRun;
  if (!scenario::materializeSingle(Base, Res.Seed, BaseRun, Res.Error,
                                   &World)) {
    Res.Ok = false;
    return Res;
  }
  {
    engine::EngineJob Job;
    Job.G = &BaseRun.Topo->G;
    Job.Plan = &BaseRun.Plan;
    Job.Options = BaseRun.Options;
    Job.Seed = Res.Seed;
    engine::EngineResult R = engine::makeEngine(Variant.Backend)->run(Job);
    Res.Baseline = summarize(R, BaseRun.Topo->G);
  }
  const size_t PlanSize = BaseRun.Plan.Crashes.size();

  std::vector<uint64_t> SeenSignatures{Res.Baseline.Signature};
  uint64_t Nonce = 0;
  const unsigned Jobs = std::max(1u, Opts.Jobs);
  // A fixed round width regardless of Jobs: threads only split a round's
  // evaluations, they never see different candidate sets.
  const size_t RoundSize = 8;

  struct Slot {
    scenario::Perturbation P;
    uint64_t Nonce = 0;
    RunSummary Summary;
    bool Ok = false;
    std::string Error;
  };

  while (Res.Evaluated < Opts.Budget &&
         !(Opts.StopAtViolation && !Res.Violations.empty())) {
    size_t N = static_cast<size_t>(
        std::min<uint64_t>(RoundSize, Opts.Budget - Res.Evaluated));
    std::vector<Slot> Slots(N);
    // Candidate generation is serial, against the frontier as it stands
    // at the round boundary — the frontier mid-round is a race at Jobs>1.
    for (size_t I = 0; I < N; ++I) {
      Slots[I].Nonce = Nonce++;
      SplitMix64 R(SplitMix64(Opts.HuntSeed ^
                              ((Slots[I].Nonce + 1) * Golden)).next());
      scenario::Perturbation Parent;
      if (!Res.Frontier.empty())
        Parent = Res.Frontier[R.next() % Res.Frontier.size()].P;
      Slots[I].P = mutate(std::move(Parent), PlanSize, Variant.Link, R);
    }
    auto Work = [&](unsigned Tid) {
      for (size_t I = Tid; I < N; I += Jobs)
        Slots[I].Ok = evaluatePerturbed(Variant, Slots[I].P, Variant.Backend,
                                        Res.Seed, Slots[I].Summary,
                                        Slots[I].Error, &World);
    };
    if (Jobs == 1 || N == 1) {
      Work(0);
    } else {
      std::vector<std::thread> Threads;
      for (unsigned T = 0; T < Jobs; ++T)
        Threads.emplace_back(Work, T);
      for (std::thread &T : Threads)
        T.join();
    }
    // Serial admission in nonce order: identical at any job count.
    for (Slot &S : Slots) {
      ++Res.Evaluated;
      if (!S.Ok) {
        // Materialization of a perturbed spec never fails by construction;
        // surface it loudly if it ever does.
        Res.Ok = false;
        Res.Error = S.Error;
        return Res;
      }
      Finding F;
      F.P = std::move(S.P);
      F.Summary = S.Summary;
      F.Nonce = S.Nonce;
      F.Score = scoreRun(Opts.Objective, Res.Baseline, F.Summary);

      if (isViolation(Res.Baseline, F.Summary)) {
        // Cross-validate on the other engine: a committed repro asserts
        // a both-backends failure, so only those count as confirmed.
        RunSummary Other;
        std::string Err;
        if (evaluatePerturbed(Variant, F.P, otherBackend(Variant.Backend),
                              Res.Seed, Other, Err, &World) &&
            Other.Quiesced && !Other.CheckOk)
          Res.Violations.push_back(F);
      }

      bool Novel =
          std::find(SeenSignatures.begin(), SeenSignatures.end(),
                    F.Summary.Signature) == SeenSignatures.end();
      if (Novel) {
        SeenSignatures.push_back(F.Summary.Signature);
        if (Res.Frontier.size() < Opts.FrontierCap) {
          Res.Frontier.push_back(std::move(F));
          continue;
        }
      }
      // Known signature or full frontier: keep it only over the current
      // weakest entry.
      if (!Res.Frontier.empty()) {
        size_t Min = 0;
        for (size_t I = 1; I < Res.Frontier.size(); ++I)
          if (Res.Frontier[I].Score < Res.Frontier[Min].Score)
            Min = I;
        if (F.Score > Res.Frontier[Min].Score)
          Res.Frontier[Min] = std::move(F);
      }
      if (Opts.StopAtViolation && !Res.Violations.empty())
        break;
    }
  }

  uint64_t H = 0xcbf29ce484222325ULL;
  for (const Finding &F : Res.Frontier) {
    fnvMix(H, F.Nonce);
    fnvMix(H, F.Score);
    fnvMix(H, F.Summary.Signature);
  }
  Res.FrontierHash = H;
  return Res;
}
