//===- tools/cliffedge-sim.cpp - Command-line scenario driver ------------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A command-line front end over the whole stack. Every invocation — flags
/// or a declarative `.scn` file — is normalized into one scenario::Spec, so
/// both entry points share a single execution path and any flag combination
/// can be dumped back out as a replayable spec with --emit-scn.
///
///   cliffedge-sim --topology grid:12x12 --crash patch:3,3,2@100 --check
///   cliffedge-sim --scenario scenarios/fig1_growing_region.scn
///   cliffedge-sim --scenario scenarios/er_wave.scn --campaign --jobs 8
///   cliffedge-sim --topology chord:64:5 --crash ball:7,1@100 --emit-scn
///
/// The `.scn` grammar is documented in docs/scenario-format.md.
///
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "graph/Dot.h"
#include "proc/Launcher.h"
#include "report/Bundle.h"
#include "report/Compare.h"
#include "scenario/Campaign.h"
#include "scenario/Parse.h"
#include "scenario/Spec.h"
#include "search/Hunter.h"
#include "search/Minimize.h"
#include "support/StrUtil.h"
#include "trace/Checker.h"
#include "trace/Runner.h"
#include "trace/Timeline.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace cliffedge;

namespace {

void usage(const char *Prog) {
  std::printf(
      "usage: %s [options]\n"
      "       %s hunt --scenario FILE [--objective NAME] [--budget N]\n"
      "                [--jobs J] [--seed S] [--hunt-seed H] [--backend B]\n"
      "                [--link SPEC] [--out FILE] [--stop-at-violation]\n"
      "                adversarial execution search: mutate crash timings,\n"
      "                link schedules and delivery tie-breaks hunting for\n"
      "                CD1..CD7 violations (objectives: cd-flip |\n"
      "                agreement-overlap | decision-retransmits |\n"
      "                faulty-divergence). Exits 0 when the budget ends\n"
      "                clean, 3 on a confirmed minimized violation\n"
      "       %s replay --scenario FILE\n"
      "                re-run a committed repro on BOTH backends with\n"
      "                checking forced on and assert its `expect` verdict\n"
      "       %s baseline capture --scenario FILE --out DIR [--backend B]\n"
      "                [--link SPEC] [--jobs J]\n"
      "                run the file's full campaign and capture its run\n"
      "                bundle directly into DIR as a stored baseline\n"
      "                (layout: docs/run-bundles.md)\n"
      "       %s compare --baseline DIR --run DIR [--abs-tol X]\n"
      "                [--rel-tol Y] [--out DIR]\n"
      "                diff a run bundle against a baseline bundle: writes\n"
      "                diff.json and diff.md (into the run dir unless\n"
      "                --out), exits 0 clean / 1 on verdict or gated-metric\n"
      "                regressions / 2 on I-O or integrity errors\n"
      "scenario files:\n"
      "  --scenario FILE      load a declarative .scn scenario\n"
      "                       (format reference: docs/scenario-format.md)\n"
      "  --campaign           run the file's full seed range and sweeps\n"
      "  --jobs N             campaign worker threads; for a single\n"
      "                       --backend sharded run, its shard workers\n"
      "                       (default 1)\n"
      "  --backend KIND       execution engine: des | sharded; overrides\n"
      "                       the spec's `backend` directive. Outcomes are\n"
      "                       backend-independent (differentially tested),\n"
      "                       and sharded runs replay identically for any\n"
      "                       --jobs value (deterministic merge)\n"
      "  --transport KIND     sim | proc; overrides the spec's `transport`\n"
      "                       directive. proc runs the world as real\n"
      "                       cliffedge-node processes over UDP loopback\n"
      "                       with crashes injected as SIGKILLs\n"
      "                       (docs/process-runtime.md); single-epoch,\n"
      "                       non-service scenarios only\n"
      "  --emit-scn           print the .scn equivalent of the current\n"
      "                       flags (or the canonical form of --scenario)\n"
      "                       and exit\n"
      "  --link SPEC          raw link conditions under the transport:\n"
      "                       none | reliable | comma-joined fields\n"
      "                       drop:P,dup:P,reorder:N,rto:N,lat:N (e.g.\n"
      "                       drop:0.2,dup:0.01,reorder:15). Loss < 1\n"
      "                       cannot change verdicts — the reliable-FIFO\n"
      "                       sublayer restores the paper's channels — so\n"
      "                       like --backend it composes with --scenario,\n"
      "                       overriding the spec's `link` directive\n"
      "flags (each combination is expressible as a .scn file):\n"
      "  --topology SPEC      grid:WxH | torus:WxH | ring:N | line:N |\n"
      "                       er:N:P | geo:N:R | tree:N:ARITY |\n"
      "                       hypercube:D | chord:N:FINGERS | ba:N:M |\n"
      "                       fig1            (default grid:8x8)\n"
      "  --crash SPEC@T[:GAP] patch:X,Y,SIDE   (grid patch)\n"
      "                       region:ID,ID,... (explicit node list)\n"
      "                       ball:CENTER,R    (BFS ball)\n"
      "                       A GAP turns the crash into a cascade\n"
      "                       (one node per GAP ticks). Repeatable.\n"
      "  --seed S             RNG seed (default 1)\n"
      "  --latency L[:HI]     fixed, or uniform in [L,HI] (default 10)\n"
      "  --detect D           detection delay in ticks (default 5)\n"
      "  --ranking KIND       sizeborderlex | sizelex | purelex\n"
      "  --early-termination  enable the footnote-6 optimisation\n"
      "  --output KIND        summary | events | timeline | dot | all;\n"
      "                       for --campaign: json (default) | csv\n"
      "  --check              verify CD1..CD7 (exit 1 on violation)\n"
      "  --bundle DIR         with --campaign: also write the run bundle\n"
      "                       (artifacts + hashed manifest) into\n"
      "                       DIR/<run-id>/ — byte-identical for any\n"
      "                       --jobs value\n",
      Prog, Prog, Prog, Prog, Prog);
}

/// Translates a --crash flag (patch:X,Y,SIDE@T[:GAP] | region:... |
/// ball:...) into a scenario crash directive.
bool parseCrashFlag(const std::string &Spec,
                    scenario::CrashDirective &Out) {
  size_t AtPos = Spec.find('@');
  std::string Body = Spec.substr(0, AtPos);
  if (AtPos != std::string::npos) {
    std::vector<uint64_t> Times = splitUnsigned(Spec.substr(AtPos + 1), ':');
    if (!Times.empty())
      Out.At = Times[0];
    if (Times.size() > 1)
      Out.Gap = Times[1];
  }
  size_t Colon = Body.find(':');
  std::string Key = Body.substr(0, Colon);
  std::string Rest =
      Colon == std::string::npos ? std::string() : Body.substr(Colon + 1);
  Out.Args = splitUnsigned(Rest, ',');
  if (Key == "patch")
    Out.K = scenario::CrashDirective::Kind::Patch;
  else if (Key == "region")
    Out.K = scenario::CrashDirective::Kind::Nodes;
  else if (Key == "ball")
    Out.K = scenario::CrashDirective::Kind::Ball;
  else
    return false;
  return !Out.Args.empty();
}

/// Set by the SIGINT/SIGTERM handler; campaign workers poll it between
/// jobs. std::atomic<bool> store is async-signal-safe when lock-free.
std::atomic<bool> GCancel{false};

extern "C" void onCancelSignal(int) {
  GCancel.store(true, std::memory_order_relaxed);
}

int runCampaign(const scenario::Spec &S, unsigned Jobs,
                const std::string &Output,
                const report::BundleOptions *Bundle = nullptr) {
  scenario::CampaignRunner Runner(S);
  std::fprintf(stderr, "campaign: %zu variant(s) x %zu seed(s) = %zu jobs "
                       "on %u thread(s)\n",
               Runner.variants().size(), S.seedCount(), Runner.jobCount(),
               Jobs);
  // Graceful shutdown: a signal stops dispatch, in-flight jobs drain, and
  // the run exits 2 without ever manifesting a bundle — a half-written
  // summary must not be publishable evidence.
  std::signal(SIGINT, onCancelSignal);
  std::signal(SIGTERM, onCancelSignal);
  scenario::CampaignOptions Opts;
  Opts.Threads = Jobs;
  Opts.Cancel = &GCancel;
  scenario::CampaignSummary Summary = Runner.run(Opts);
  if (Output == "csv")
    std::printf("%s", Summary.toCsv().c_str());
  else
    std::printf("%s", Summary.toJson().c_str());
  std::fprintf(stderr, "campaign: %zu passed, %zu failed, %zu errors\n",
               Summary.Passed, Summary.Failed, Summary.Errors);
  if (Summary.Cancelled) {
    std::fprintf(stderr, "campaign: cancelled by signal; partial summary "
                         "above is diagnostic only%s\n",
                 Bundle ? ", no bundle written" : "");
    return 2;
  }
  if (Bundle) {
    report::BundleResult Res;
    std::string Err;
    if (!report::writeBundle(S, Summary, *Bundle, Res, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
    std::fprintf(stderr, "bundle: %s (run id %s, manifest %s)\n",
                 Res.Dir.c_str(), Res.RunId.c_str(),
                 Res.ManifestHash.c_str());
  }
  return Summary.Failed == 0 && Summary.Errors == 0 ? 0 : 1;
}

/// Loads and parses a .scn file; exits 2 on failure (shared by the hunt
/// and replay subcommands; the main path predates it and reports inline).
scenario::Spec loadSpecOrDie(const std::string &File) {
  std::ifstream In(File);
  if (!In) {
    std::fprintf(stderr, "error: cannot read '%s'\n", File.c_str());
    std::exit(2);
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  scenario::ParseResult Parsed = scenario::parseSpec(Buf.str());
  if (!Parsed.Ok) {
    std::fprintf(stderr, "%s\n", Parsed.diagText(File).c_str());
    std::exit(2);
  }
  return std::move(Parsed.S);
}

/// Collapses sweeps to the first variant — the single-run discipline.
scenario::Spec firstVariant(const scenario::Spec &S) {
  scenario::Spec V = S;
  V.Sweeps.clear();
  for (const scenario::SweepAxis &Axis : S.Sweeps) {
    std::string Err;
    scenario::applyOverride(V, Axis.Key, Axis.Values.front(), Err);
  }
  return V;
}

void printPerturbation(const scenario::Perturbation &P) {
  if (P.TieBias)
    std::printf("  perturb tie-bias %llu\n", (unsigned long long)P.TieBias);
  if (P.LinkSalt)
    std::printf("  perturb link-salt %llu\n",
                (unsigned long long)P.LinkSalt);
  if (P.HasLink)
    std::printf("  perturb link %s\n", P.Link.compact().c_str());
  for (uint32_t Idx : P.Drops)
    std::printf("  perturb crash-drop %u\n", Idx);
  for (const scenario::CrashShift &Sh : P.Shifts)
    std::printf("  perturb crash-shift %u %lld\n", Sh.Index,
                (long long)Sh.Delta);
  if (P.empty())
    std::printf("  (null perturbation)\n");
}

int runHunt(int argc, char **argv) {
  std::string ScenarioFile, BackendFlag, LinkFlag, OutFile;
  std::string ObjectiveName = "cd-flip";
  search::HuntOptions Opts;
  for (int I = 2; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Flag);
        std::exit(2);
      }
      return argv[++I];
    };
    if (Arg == "--scenario")
      ScenarioFile = Next("--scenario");
    else if (Arg == "--objective")
      ObjectiveName = Next("--objective");
    else if (Arg == "--budget")
      Opts.Budget = std::strtoull(Next("--budget"), nullptr, 10);
    else if (Arg == "--jobs")
      Opts.Jobs =
          static_cast<unsigned>(std::strtoul(Next("--jobs"), nullptr, 10));
    else if (Arg == "--seed")
      Opts.Seed = std::strtoull(Next("--seed"), nullptr, 10);
    else if (Arg == "--hunt-seed")
      Opts.HuntSeed = std::strtoull(Next("--hunt-seed"), nullptr, 10);
    else if (Arg == "--backend")
      BackendFlag = Next("--backend");
    else if (Arg == "--link")
      LinkFlag = Next("--link");
    else if (Arg == "--out")
      OutFile = Next("--out");
    else if (Arg == "--stop-at-violation")
      Opts.StopAtViolation = true;
    else {
      std::fprintf(stderr, "error: unknown hunt option '%s'\n", Arg.c_str());
      return 2;
    }
  }
  if (ScenarioFile.empty()) {
    std::fprintf(stderr, "error: hunt needs --scenario FILE\n");
    return 2;
  }
  std::string Err;
  if (!search::parseObjectiveName(ObjectiveName, Opts.Objective, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 2;
  }
  scenario::Spec S = loadSpecOrDie(ScenarioFile);
  if (S.Epochs.size() > 1) {
    std::fprintf(stderr, "error: hunt needs a single-epoch scenario\n");
    return 2;
  }
  // --backend / --link win over matching sweep axes, as in the main path.
  for (const char *Key : {"backend", "link"}) {
    const std::string &Flag =
        std::string(Key) == "backend" ? BackendFlag : LinkFlag;
    if (Flag.empty())
      continue;
    if (!scenario::applyOverride(S, Key, Flag, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
    for (size_t I = 0; I < S.Sweeps.size(); ++I)
      if (S.Sweeps[I].Key == Key) {
        S.Sweeps.erase(S.Sweeps.begin() + I);
        break;
      }
  }
  scenario::Spec Variant = firstVariant(S);

  search::HuntResult Res = search::hunt(Variant, Opts);
  if (!Res.Ok) {
    std::fprintf(stderr, "error: %s\n", Res.Error.c_str());
    return 2;
  }
  std::printf("hunt: %s seed=%llu backend=%s objective=%s budget=%llu\n",
              Variant.Name.empty() ? "<unnamed>" : Variant.Name.c_str(),
              (unsigned long long)Res.Seed,
              engine::backendName(Variant.Backend),
              search::objectiveName(Opts.Objective),
              (unsigned long long)Opts.Budget);
  std::printf("baseline: CD1..CD7 %s (%zu faulty, %zu decisions)\n",
              Res.Baseline.CheckOk ? "hold" : "violated",
              Res.Baseline.FaultyCount, Res.Baseline.DecisionCount);
  if (!Res.Baseline.CheckOk)
    std::printf("baseline: %s\n", Res.Baseline.FirstViolation.c_str());
  std::printf("evaluated=%llu frontier=%zu frontier-hash=%016llx "
              "violations=%zu\n",
              (unsigned long long)Res.Evaluated, Res.Frontier.size(),
              (unsigned long long)Res.FrontierHash, Res.Violations.size());
  if (Res.Violations.empty())
    return 0;

  const search::Finding &Worst = Res.Violations.front();
  std::printf("violation (nonce %llu): %s\n",
              (unsigned long long)Worst.Nonce,
              Worst.Summary.FirstViolation.c_str());
  printPerturbation(Worst.P);
  search::MinimizeResult Min =
      search::minimize(Variant, Res.Seed, Worst.P);
  if (!Min.StillViolates) {
    // Should be impossible: the hunter only confirms reproducible flips.
    std::fprintf(stderr,
                 "error: violation did not survive re-validation\n");
    return 2;
  }
  std::printf("minimized (%llu steps): %zu crash events, verdict %s\n",
              (unsigned long long)Min.Steps, Min.CrashEvents,
              Min.Summary.FirstViolation.c_str());
  printPerturbation(Min.P);
  if (!OutFile.empty()) {
    std::string Name = Variant.Name.empty() ? "repro" : Variant.Name;
    scenario::Spec Repro = search::makeRepro(Variant, Res.Seed, Min.P,
                                             Opts.Objective, Name + "-min");
    std::ofstream Out(OutFile);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write '%s'\n", OutFile.c_str());
      return 2;
    }
    Out << scenario::writeSpec(Repro);
    std::printf("repro written to %s\n", OutFile.c_str());
  }
  return 3;
}

int runReplay(int argc, char **argv) {
  std::string ScenarioFile;
  for (int I = 2; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--scenario" && I + 1 < argc)
      ScenarioFile = argv[++I];
    else {
      std::fprintf(stderr, "error: unknown replay option '%s'\n",
                   Arg.c_str());
      return 2;
    }
  }
  if (ScenarioFile.empty()) {
    std::fprintf(stderr, "error: replay needs --scenario FILE\n");
    return 2;
  }
  scenario::Spec Variant = firstVariant(loadSpecOrDie(ScenarioFile));
  uint64_t Seed = Variant.SeedLo;
  bool AllFail = true, AllOk = true;
  for (engine::BackendKind B :
       {engine::BackendKind::Des, engine::BackendKind::Sharded}) {
    search::RunSummary Sum;
    std::string Err;
    if (!search::evaluatePerturbed(Variant, Variant.Perturb, B, Seed, Sum,
                                   Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
    std::printf("replay %s seed=%llu: CD1..CD7 %s%s%s\n",
                engine::backendName(B), (unsigned long long)Seed,
                Sum.CheckOk ? "hold" : "violated",
                Sum.CheckOk ? "" : " — ",
                Sum.CheckOk ? "" : Sum.FirstViolation.c_str());
    AllFail &= !Sum.CheckOk;
    AllOk &= Sum.CheckOk;
  }
  if (Variant.Expect == scenario::Expectation::None) {
    std::printf("no `expect` directive; nothing to assert\n");
    return 0;
  }
  bool Want = Variant.Expect == scenario::Expectation::Violation;
  bool Match = Want ? AllFail : AllOk;
  std::printf("expect %s: %s\n", Want ? "violation" : "ok",
              Match ? "verdict matches on both backends"
                    : "VERDICT MISMATCH");
  return Match ? 0 : 1;
}

/// --backend / --link on a loaded spec: the override wins over a matching
/// sweep axis (same discipline as the main and hunt paths).
bool applyExecOverride(scenario::Spec &S, const char *Key,
                       const std::string &Flag) {
  if (Flag.empty())
    return true;
  std::string Err;
  if (!scenario::applyOverride(S, Key, Flag, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return false;
  }
  for (size_t I = 0; I < S.Sweeps.size(); ++I)
    if (S.Sweeps[I].Key == Key) {
      S.Sweeps.erase(S.Sweeps.begin() + I);
      break;
    }
  return true;
}

/// `baseline capture --scenario F --out DIR`: run the full campaign and
/// drop its bundle directly into DIR (flat — the baseline IS the
/// directory), marked with the BASELINE file. Exit codes follow
/// --campaign: 0 all passed, 1 failures or errors, 2 usage or I/O.
int runBaselineCapture(int argc, char **argv) {
  std::string ScenarioFile, OutDir, BackendFlag, LinkFlag;
  unsigned Jobs = 1;
  for (int I = 3; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Flag);
        std::exit(2);
      }
      return argv[++I];
    };
    if (Arg == "--scenario")
      ScenarioFile = Next("--scenario");
    else if (Arg == "--out")
      OutDir = Next("--out");
    else if (Arg == "--backend")
      BackendFlag = Next("--backend");
    else if (Arg == "--link")
      LinkFlag = Next("--link");
    else if (Arg == "--jobs")
      Jobs = static_cast<unsigned>(std::strtoul(Next("--jobs"), nullptr,
                                                10));
    else {
      std::fprintf(stderr, "error: unknown baseline option '%s'\n",
                   Arg.c_str());
      return 2;
    }
  }
  if (ScenarioFile.empty() || OutDir.empty()) {
    std::fprintf(stderr,
                 "error: baseline capture needs --scenario FILE and "
                 "--out DIR\n");
    return 2;
  }
  scenario::Spec S = loadSpecOrDie(ScenarioFile);
  if (!applyExecOverride(S, "backend", BackendFlag) ||
      !applyExecOverride(S, "link", LinkFlag))
    return 2;
  report::BundleOptions Bundle;
  Bundle.OutDir = OutDir;
  Bundle.Flat = true;
  Bundle.MarkBaseline = true;
  return runCampaign(S, Jobs, "json", &Bundle);
}

/// `compare --baseline DIR --run DIR`: diff two bundles, write
/// diff.json/diff.md, exit 0 clean / 1 regressed / 2 on errors.
int runCompare(int argc, char **argv) {
  std::string BaselineDir, RunDir, OutDir;
  report::CompareOptions Opts;
  for (int I = 2; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Flag);
        std::exit(2);
      }
      return argv[++I];
    };
    if (Arg == "--baseline")
      BaselineDir = Next("--baseline");
    else if (Arg == "--run")
      RunDir = Next("--run");
    else if (Arg == "--out")
      OutDir = Next("--out");
    else if (Arg == "--abs-tol")
      Opts.LatencyAbsTol = std::strtod(Next("--abs-tol"), nullptr);
    else if (Arg == "--rel-tol")
      Opts.LatencyRelTol = std::strtod(Next("--rel-tol"), nullptr);
    else {
      std::fprintf(stderr, "error: unknown compare option '%s'\n",
                   Arg.c_str());
      return 2;
    }
  }
  if (BaselineDir.empty() || RunDir.empty()) {
    std::fprintf(stderr,
                 "error: compare needs --baseline DIR and --run DIR\n");
    return 2;
  }
  if (OutDir.empty())
    OutDir = RunDir;
  report::DiffResult Diff;
  std::string Err;
  if (!report::compareBundles(BaselineDir, RunDir, Opts, Diff, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 2;
  }
  std::filesystem::path Out(OutDir);
  std::error_code DirEc;
  std::filesystem::create_directories(Out, DirEc);
  if (DirEc) {
    std::fprintf(stderr, "error: cannot create '%s': %s\n",
                 Out.string().c_str(), DirEc.message().c_str());
    return 2;
  }
  for (const auto &[Name, Bytes] :
       {std::pair<const char *, std::string>{"diff.json",
                                             Diff.toJson(Opts)},
        {"diff.md", Diff.toMarkdown(Opts)}}) {
    std::ofstream File(Out / Name, std::ios::binary | std::ios::trunc);
    if (!File || !(File << Bytes)) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   (Out / Name).string().c_str());
      return 2;
    }
  }
  std::printf("%s", Diff.toMarkdown(Opts).c_str());
  return Diff.Regressed ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc > 1 && std::strcmp(argv[1], "hunt") == 0)
    return runHunt(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "replay") == 0)
    return runReplay(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "baseline") == 0) {
    if (argc > 2 && std::strcmp(argv[2], "capture") == 0)
      return runBaselineCapture(argc, argv);
    std::fprintf(stderr, "error: unknown baseline subcommand (expected "
                         "'baseline capture')\n");
    return 2;
  }
  if (argc > 1 && std::strcmp(argv[1], "compare") == 0)
    return runCompare(argc, argv);
  scenario::Spec Flags; // Spec built up from command-line flags.
  Flags.Check = false;  // Plain flag runs only check with --check.
  std::string ScenarioFile;
  std::string Output = "summary";
  std::string BackendFlag;   ///< Empty = keep the spec's backend.
  std::string LinkFlag;      ///< Empty = keep the spec's link conditions.
  std::string TransportFlag; ///< Empty = keep the spec's transport.
  std::string BundleDir;     ///< Empty = no run bundle.
  bool Campaign = false, EmitScn = false, CheckFlag = false;
  unsigned Jobs = 1;
  // Tuning flags are an *alternative* to a .scn file, not overrides on
  // one; mixing them would silently lose whichever side we dropped, so
  // track their use and reject the combination outright.
  std::vector<std::string> TuningFlags;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Flag);
        std::exit(2);
      }
      return argv[++I];
    };
    if (Arg == "--scenario")
      ScenarioFile = Next("--scenario");
    else if (Arg == "--campaign")
      Campaign = true;
    else if (Arg == "--jobs")
      Jobs = static_cast<unsigned>(
          std::strtoul(Next("--jobs"), nullptr, 10));
    else if (Arg == "--backend")
      BackendFlag = Next("--backend");
    else if (Arg == "--link")
      LinkFlag = Next("--link");
    else if (Arg == "--transport")
      TransportFlag = Next("--transport");
    else if (Arg == "--bundle")
      BundleDir = Next("--bundle");
    else if (Arg == "--emit-scn")
      EmitScn = true;
    else if (Arg == "--topology") {
      Flags.Topology = Next("--topology");
      TuningFlags.push_back(Arg);
    }
    else if (Arg == "--crash") {
      TuningFlags.push_back(Arg);
      const char *Spec = Next("--crash");
      scenario::CrashDirective C;
      if (!parseCrashFlag(Spec, C)) {
        std::fprintf(stderr, "error: bad crash spec '%s'\n", Spec);
        return 2;
      }
      Flags.Epochs.front().push_back(std::move(C));
    } else if (Arg == "--seed") {
      Flags.SeedLo = Flags.SeedHi =
          std::strtoull(Next("--seed"), nullptr, 10);
      TuningFlags.push_back(Arg);
    } else if (Arg == "--latency") {
      TuningFlags.push_back(Arg);
      std::vector<uint64_t> L = splitUnsigned(Next("--latency"), ':');
      if (L.size() > 1 && L[1] > L[0]) {
        Flags.Latency.K = scenario::LatencySpec::Kind::Uniform;
        Flags.Latency.A = L[0];
        Flags.Latency.B = L[1];
      } else {
        Flags.Latency.K = scenario::LatencySpec::Kind::Fixed;
        Flags.Latency.A = L.empty() ? 10 : L[0];
        Flags.Latency.B = 0;
      }
    } else if (Arg == "--detect") {
      Flags.Detect = std::strtoull(Next("--detect"), nullptr, 10);
      TuningFlags.push_back(Arg);
    }
    else if (Arg == "--ranking") {
      TuningFlags.push_back(Arg);
      std::string Kind = Next("--ranking"), Err;
      if (!scenario::applyOverride(Flags, "ranking", Kind, Err)) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return 2;
      }
    } else if (Arg == "--early-termination") {
      Flags.EarlyTermination = true;
      TuningFlags.push_back(Arg);
    }
    else if (Arg == "--output")
      Output = Next("--output");
    else if (Arg == "--check")
      CheckFlag = true;
    else if (Arg == "--help" || Arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  if (!ScenarioFile.empty() && !TuningFlags.empty()) {
    std::fprintf(stderr,
                 "error: %s cannot be combined with --scenario — edit the "
                 "spec (or dump a starting point with --emit-scn)\n",
                 joinMapped(TuningFlags, "/", [](const std::string &F) {
                   return F;
                 }).c_str());
    return 2;
  }

  // Normalize both entry points into one Spec.
  scenario::Spec S;
  if (!ScenarioFile.empty()) {
    std::ifstream In(ScenarioFile);
    if (!In) {
      std::fprintf(stderr, "error: cannot read '%s'\n",
                   ScenarioFile.c_str());
      return 2;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    scenario::ParseResult Parsed = scenario::parseSpec(Buf.str());
    if (!Parsed.Ok) {
      std::fprintf(stderr, "%s\n",
                   Parsed.diagText(ScenarioFile).c_str());
      return 2;
    }
    S = std::move(Parsed.S);
    if (CheckFlag)
      S.Check = true;
  } else {
    S = std::move(Flags);
    S.Check = CheckFlag;
    if (S.Epochs.front().empty()) {
      // A sensible default demo.
      scenario::CrashDirective C;
      C.K = scenario::CrashDirective::Kind::Patch;
      C.Args = {2, 2, 2};
      C.At = 100;
      S.Epochs.front().push_back(std::move(C));
    }
  }

  // --backend is an execution override (like --jobs), not a tuning flag:
  // it composes with --scenario because it cannot change a run's outcome,
  // only which engine realises it. Overriding means winning over a
  // `sweep backend` axis too — drop the axis so the campaign matrix (and
  // the single-run first-variant collapse) cannot undo the flag.
  if (!BackendFlag.empty()) {
    std::string Err;
    if (!scenario::applyOverride(S, "backend", BackendFlag, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
    for (size_t I = 0; I < S.Sweeps.size(); ++I)
      if (S.Sweeps[I].Key == "backend") {
        std::fprintf(stderr, "note: --backend %s overrides the spec's "
                             "'sweep backend' axis\n",
                     BackendFlag.c_str());
        S.Sweeps.erase(S.Sweeps.begin() + I);
        break;
      }
  }

  // --link composes with --scenario for the same reason --backend does:
  // under the reliable-channel sublayer, loss < 1 cannot change a run's
  // verdicts (the differential suite enforces it) — only the transport's
  // realisation. It likewise wins over a `sweep link` axis.
  if (!LinkFlag.empty()) {
    std::string Err;
    if (!scenario::applyOverride(S, "link", LinkFlag, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
    for (size_t I = 0; I < S.Sweeps.size(); ++I)
      if (S.Sweeps[I].Key == "link") {
        std::fprintf(stderr, "note: --link %s overrides the spec's "
                             "'sweep link' axis\n",
                     LinkFlag.c_str());
        S.Sweeps.erase(S.Sweeps.begin() + I);
        break;
      }
  }

  // --transport is an execution override like --backend: it picks which
  // world (simulated engine vs. real processes) realises the spec, and
  // the parity suite pins the two against each other.
  if (!TransportFlag.empty()) {
    std::string Err;
    if (!scenario::applyOverride(S, "transport", TransportFlag, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
    for (size_t I = 0; I < S.Sweeps.size(); ++I)
      if (S.Sweeps[I].Key == "transport") {
        std::fprintf(stderr, "note: --transport %s overrides the spec's "
                             "'sweep transport' axis\n",
                     TransportFlag.c_str());
        S.Sweeps.erase(S.Sweeps.begin() + I);
        break;
      }
  }
  if (S.Transport == scenario::TransportKind::Proc) {
    std::string Why;
    if (!proc::specSupportsProc(S, Why)) {
      // The parser enforces this for `transport proc` in a .scn file; the
      // flag path has to re-check because it composes with any spec.
      std::fprintf(stderr, "error: --transport proc: %s\n", Why.c_str());
      return 2;
    }
  }

  if (EmitScn) {
    std::printf("%s", scenario::writeSpec(S).c_str());
    return 0;
  }

  if (Campaign) {
    report::BundleOptions Bundle;
    Bundle.OutDir = BundleDir;
    return runCampaign(S, Jobs, Output,
                       BundleDir.empty() ? nullptr : &Bundle);
  }
  if (!BundleDir.empty()) {
    std::fprintf(stderr, "error: --bundle needs --campaign (bundles hold "
                         "campaign summaries)\n");
    return 2;
  }

  // Single run: first variant, first seed, full trace outputs.
  if (S.Epochs.size() > 1) {
    std::fprintf(stderr,
                 "error: multi-epoch scenarios need --campaign\n");
    return 2;
  }
  if (S.ServiceEpochs > 0) {
    std::fprintf(stderr,
                 "error: service scenarios need --campaign\n");
    return 2;
  }
  scenario::Spec Variant = S;
  Variant.Sweeps.clear();
  for (const scenario::SweepAxis &Axis : S.Sweeps) {
    std::string Err;
    scenario::applyOverride(Variant, Axis.Key, Axis.Values.front(), Err);
  }
  if (!S.Sweeps.empty())
    std::fprintf(stderr, "note: running first sweep variant only; use "
                         "--campaign for the full matrix\n");
  if (S.seedCount() > 1)
    std::fprintf(stderr, "note: running seed %llu only; use --campaign "
                         "for all %zu seeds\n",
                 (unsigned long long)S.SeedLo, S.seedCount());

  uint64_t Seed = S.SeedLo;
  scenario::MaterializedRun Run;
  std::string Err;
  if (!scenario::materializeSingle(Variant, Seed, Run, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 2;
  }
  // Real-process transport: hand the whole world to the supervisor; there
  // is no engine, no event log and no timeline — decision times below are
  // Lamport stamps from the merged per-daemon streams.
  if (Variant.Transport == scenario::TransportKind::Proc) {
    proc::Launcher L(Variant, Seed);
    proc::ProcResult R;
    if (!L.run(R, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
    if (R.Infra != proc::FailureClass::Ok) {
      std::fprintf(stderr, "error: infra_failure: %s: %s\n",
                   proc::failureClassName(R.Infra), R.Error.c_str());
      return 2;
    }
    std::printf("topology: %s (%u nodes, %zu edges)\n",
                Variant.Topology.c_str(), Run.Topo->G.numNodes(),
                Run.Topo->G.numEdges());
    std::printf("transport: proc (%u shards, %u killed, %llu ms "
                "wall)\n",
                R.NumShards, R.KilledShards, (unsigned long long)R.WallMs);
    std::printf("daemons:  peak_rss=%llu KB cpu=%llu ms\n",
                (unsigned long long)R.DaemonPeakRssKb,
                (unsigned long long)R.DaemonCpuMs);
    std::printf("faulty:   %s\n", R.Faulty.str().c_str());
    if (Variant.Link.active())
      std::printf("link:     %s\n", Variant.Link.compact().c_str());
    std::printf("events=%llu sent=%llu delivered=%llu decisions=%zu\n",
                (unsigned long long)R.Stats.Events,
                (unsigned long long)R.Stats.Sent,
                (unsigned long long)R.Stats.Delivered,
                R.Trace.Decisions.size());
    std::printf("arq: retransmits=%llu dup_suppressed=%llu acks=%llu "
                "ack_bytes=%llu shim_dropped=%llu shim_duplicated=%llu "
                "reorder_dropped=%llu\n",
                (unsigned long long)R.Stats.Retransmits,
                (unsigned long long)R.Stats.DupSuppressed,
                (unsigned long long)R.Stats.AcksSent,
                (unsigned long long)R.Stats.AckBytes,
                (unsigned long long)R.Stats.ShimDropped,
                (unsigned long long)R.Stats.ShimDuplicated,
                (unsigned long long)R.Stats.ReorderDropped);
    for (const trace::DecisionRecord &D : R.Trace.Decisions)
      std::printf("  L=%-8llu %-10s view=%s value=%llu\n",
                  (unsigned long long)D.When,
                  Run.Topo->G.label(D.Node).c_str(), D.View.str().c_str(),
                  (unsigned long long)D.Chosen);
    if (S.Check) {
      std::printf("CD1..CD7: %s\n",
                  R.Check.Ok ? "all hold" : R.Check.summary().c_str());
      return R.Check.Ok ? 0 : 1;
    }
    return 0;
  }

  // One execution path for every backend: build the engine named by the
  // spec (or --backend) and hand it the materialized job.
  engine::EngineOptions EngOpts;
  EngOpts.Workers = Jobs;
  std::unique_ptr<engine::Engine> Eng =
      engine::makeEngine(Variant.Backend, EngOpts);
  engine::EngineJob Job;
  Job.G = &Run.Topo->G;
  Job.Plan = &Run.Plan;
  Job.Options = std::move(Run.Options);
  Job.Seed = Seed;
  graph::Region AllFaulty = Run.Plan.faultySet();

  engine::EngineResult Res = Eng->run(Job);
  if (!Res.Quiesced) {
    // Same contract as the campaign path: a truncated run is an error,
    // never a checked verdict.
    std::fprintf(stderr, "error: aborted: event budget of %llu exhausted\n",
                 (unsigned long long)S.MaxEvents);
    return 2;
  }
  trace::CheckInput In = engine::toCheckInput(Res, Run.Topo->G);

  bool WantAll = Output == "all";
  if (Output == "summary" || WantAll) {
    std::printf("topology: %s (%u nodes, %zu edges)\n",
                Variant.Topology.c_str(), Run.Topo->G.numNodes(),
                Run.Topo->G.numEdges());
    std::printf("backend:  %s\n", Eng->name());
    std::printf("faulty:   %s\n", AllFaulty.str().c_str());
    if (Variant.Link.active())
      std::printf("link:     %s\n", Variant.Link.compact().c_str());
    std::printf("events=%llu messages=%llu bytes=%llu decisions=%zu\n",
                (unsigned long long)Res.Events,
                (unsigned long long)Res.Stats.MessagesSent,
                (unsigned long long)Res.Stats.BytesSent,
                Res.Decisions.size());
    if (Variant.Link.active())
      std::printf("link: retransmits=%llu dup_suppressed=%llu "
                  "acks=%llu ack_bytes=%llu dropped=%llu duplicated=%llu\n",
                  (unsigned long long)Res.Stats.Channel.Retransmits,
                  (unsigned long long)Res.Stats.Channel.DupSuppressed,
                  (unsigned long long)Res.Stats.Channel.AcksSent,
                  (unsigned long long)Res.Stats.Channel.AckBytes,
                  (unsigned long long)Res.Stats.Channel.LinkDropped,
                  (unsigned long long)Res.Stats.Channel.LinkDuplicated);
    for (const trace::DecisionRecord &D : Res.Decisions)
      std::printf("  t=%-8llu %-10s view=%s value=%llu\n",
                  (unsigned long long)D.When,
                  Run.Topo->G.label(D.Node).c_str(), D.View.str().c_str(),
                  (unsigned long long)D.Chosen);
  }
  if (Output == "events" || WantAll)
    std::printf("%s", trace::renderEventLog(In).c_str());
  if (Output == "timeline" || WantAll)
    std::printf("%s", trace::renderTimeline(In).c_str());
  if (Output == "dot" || WantAll)
    std::printf("%s",
                graph::toDot(Run.Topo->G, {{AllFaulty, "lightcoral", "F"}})
                    .c_str());

  if (S.Check) {
    trace::CheckResult Res = trace::checkAll(In);
    std::printf("CD1..CD7: %s\n",
                Res.Ok ? "all hold" : Res.summary().c_str());
    return Res.Ok ? 0 : 1;
  }
  return 0;
}
