//===- scenario/Spec.cpp - Spec writer and materialization -----------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//

#include "scenario/Spec.h"

#include "graph/Algorithms.h"
#include "graph/Builders.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <cstdlib>

using namespace cliffedge;
using namespace cliffedge::scenario;

bool Spec::operator==(const Spec &O) const {
  return Name == O.Name && Topology == O.Topology && SeedLo == O.SeedLo &&
         SeedHi == O.SeedHi && Latency == O.Latency && Link == O.Link &&
         Detect == O.Detect &&
         Ranking == O.Ranking && EarlyTermination == O.EarlyTermination &&
         Check == O.Check && Backend == O.Backend &&
         Transport == O.Transport &&
         Streaming == O.Streaming && ServiceEpochs == O.ServiceEpochs &&
         ChurnRate == O.ChurnRate && ChurnSize == O.ChurnSize &&
         ChurnHorizon == O.ChurnHorizon &&
         MaxEvents == O.MaxEvents && MaxFaulty == O.MaxFaulty &&
         Perturb == O.Perturb && Objective == O.Objective &&
         Expect == O.Expect && Sweeps == O.Sweeps && Epochs == O.Epochs;
}

const char *scenario::rankingName(graph::RankingKind K) {
  switch (K) {
  case graph::RankingKind::SizeBorderLex:
    return "sizeborderlex";
  case graph::RankingKind::SizeLex:
    return "sizelex";
  case graph::RankingKind::PureLex:
    return "purelex";
  }
  return "?";
}

const char *scenario::transportName(TransportKind K) {
  switch (K) {
  case TransportKind::Sim:
    return "sim";
  case TransportKind::Proc:
    return "proc";
  }
  return "?";
}

bool scenario::parseTransportName(const std::string &Tok, TransportKind &Out,
                                  std::string &Error) {
  if (Tok == "sim") {
    Out = TransportKind::Sim;
    return true;
  }
  if (Tok == "proc") {
    Out = TransportKind::Proc;
    return true;
  }
  Error = "unknown transport '" + Tok + "' (want sim | proc)";
  return false;
}

const char *scenario::crashKindName(CrashDirective::Kind K) {
  switch (K) {
  case CrashDirective::Kind::Patch:
    return "patch";
  case CrashDirective::Kind::Nodes:
    return "nodes";
  case CrashDirective::Kind::Ball:
    return "ball";
  case CrashDirective::Kind::Wave:
    return "wave";
  case CrashDirective::Kind::Grow:
    return "grow";
  case CrashDirective::Kind::Random:
    return "random";
  case CrashDirective::Kind::Chain:
    return "chain";
  }
  return "?";
}

std::string LatencySpec::compact() const {
  switch (K) {
  case Kind::Fixed:
    return formatStr("fixed:%llu", (unsigned long long)A);
  case Kind::Uniform:
    return formatStr("uniform:%llu:%llu", (unsigned long long)A,
                     (unsigned long long)B);
  case Kind::Spiky:
    return formatStr("spiky:%llu:%u:%llu", (unsigned long long)A,
                     SpikePercent, (unsigned long long)B);
  }
  return "?";
}

// --- Writer -----------------------------------------------------------------

static std::string writeLatency(const LatencySpec &L) {
  switch (L.K) {
  case LatencySpec::Kind::Fixed:
    return formatStr("latency fixed %llu", (unsigned long long)L.A);
  case LatencySpec::Kind::Uniform:
    return formatStr("latency uniform %llu %llu", (unsigned long long)L.A,
                     (unsigned long long)L.B);
  case LatencySpec::Kind::Spiky:
    return formatStr("latency spiky %llu %u %llu", (unsigned long long)L.A,
                     L.SpikePercent, (unsigned long long)L.B);
  }
  return "";
}

static std::string writeLink(const net::LinkSpec &L) {
  // The directive form is the compact form with spaces for commas.
  std::string Compact = L.compact();
  for (char &C : Compact)
    if (C == ',')
      C = ' ';
  return "link " + Compact;
}

static std::string writeCrash(const CrashDirective &C) {
  std::string Line = "crash ";
  Line += crashKindName(C.K);
  if (C.K == CrashDirective::Kind::Nodes) {
    Line += " " + joinMapped(C.Args, ",", [](uint64_t Id) {
      return formatStr("%llu", (unsigned long long)Id);
    });
  } else {
    for (uint64_t A : C.Args)
      Line += formatStr(" %llu", (unsigned long long)A);
  }
  Line += formatStr(" at %llu", (unsigned long long)C.At);
  if (C.Gap)
    Line += formatStr(" gap %llu", (unsigned long long)C.Gap);
  if (C.Spread)
    Line += formatStr(" spread %llu", (unsigned long long)C.Spread);
  return Line;
}

std::string scenario::writeSpec(const Spec &S) {
  std::string Out;
  auto Emit = [&Out](const std::string &Line) { Out += Line + "\n"; };
  if (!S.Name.empty())
    Emit("scenario " + S.Name);
  Emit("topology " + S.Topology);
  if (S.SeedLo == S.SeedHi)
    Emit(formatStr("seeds %llu", (unsigned long long)S.SeedLo));
  else
    Emit(formatStr("seeds %llu..%llu", (unsigned long long)S.SeedLo,
                   (unsigned long long)S.SeedHi));
  Emit(writeLatency(S.Latency));
  Emit(writeLink(S.Link));
  Emit(formatStr("detect %llu", (unsigned long long)S.Detect));
  Emit(formatStr("ranking %s", rankingName(S.Ranking)));
  Emit(formatStr("early-termination %s", S.EarlyTermination ? "on" : "off"));
  Emit(formatStr("check %s", S.Check ? "on" : "off"));
  Emit(formatStr("backend %s", engine::backendName(S.Backend)));
  // Transport/streaming/service directives are emitted only when set, so
  // the canonical form of every pre-existing scenario is unchanged.
  if (S.Transport != TransportKind::Sim)
    Emit(formatStr("transport %s", transportName(S.Transport)));
  if (S.Streaming)
    Emit("streaming on");
  if (S.MaxEvents)
    Emit(formatStr("max-events %llu", (unsigned long long)S.MaxEvents));
  if (S.MaxFaulty)
    Emit(formatStr("max-faulty %llu", (unsigned long long)S.MaxFaulty));
  if (S.ServiceEpochs)
    Emit(formatStr("service %llu", (unsigned long long)S.ServiceEpochs));
  if (S.ChurnRate || S.ChurnSize || S.ChurnHorizon)
    Emit(formatStr("churn rate %llu size %llu horizon %llu",
                   (unsigned long long)S.ChurnRate,
                   (unsigned long long)S.ChurnSize,
                   (unsigned long long)S.ChurnHorizon));
  // Perturbation block, one directive per mutation. Drops and shifts are
  // stored sorted, so emission order is canonical and round-trips.
  if (S.Perturb.TieBias)
    Emit(formatStr("perturb tie-bias %llu",
                   (unsigned long long)S.Perturb.TieBias));
  if (S.Perturb.LinkSalt)
    Emit(formatStr("perturb link-salt %llu",
                   (unsigned long long)S.Perturb.LinkSalt));
  if (S.Perturb.HasLink)
    Emit("perturb link " + S.Perturb.Link.compact());
  for (uint32_t Idx : S.Perturb.Drops)
    Emit(formatStr("perturb crash-drop %u", Idx));
  for (const CrashShift &Sh : S.Perturb.Shifts)
    Emit(formatStr("perturb crash-shift %u %lld", Sh.Index,
                   (long long)Sh.Delta));
  if (!S.Objective.empty())
    Emit("objective " + S.Objective);
  if (S.Expect != Expectation::None)
    Emit(formatStr("expect %s",
                   S.Expect == Expectation::Violation ? "violation" : "ok"));
  for (const SweepAxis &Axis : S.Sweeps) {
    std::string Line = "sweep " + Axis.Key;
    for (const std::string &V : Axis.Values)
      Line += " " + V;
    Emit(Line);
  }
  for (size_t E = 0; E < S.Epochs.size(); ++E) {
    if (E > 0)
      Emit("epoch");
    for (const CrashDirective &C : S.Epochs[E])
      Emit(writeCrash(C));
  }
  return Out;
}

// --- Materialization --------------------------------------------------------

/// Largest node count a world may have: ids 0..N-1 must stay below
/// InvalidNode.
static constexpr uint64_t MaxWorldNodes = InvalidNode;

/// The size checks of buildTopology. The generators only assert their
/// preconditions, so every size they cannot build must be refused here,
/// before a Release build divides by a zero arity or shifts past 32 bits.
static bool checkTopologySize(const std::string &Key, uint64_t Nodes,
                              uint64_t Extra, std::string &Error) {
  if (Key == "hypercube") {
    if (Nodes < 1 || Nodes > 30) {
      Error = formatStr("hypercube dimension must be 1..30, got %llu",
                        (unsigned long long)Nodes);
      return false;
    }
    return true;
  }
  if (Nodes > MaxWorldNodes) {
    Error = formatStr("%s of %llu nodes exceeds the %llu-node id range",
                      Key.c_str(), (unsigned long long)Nodes,
                      (unsigned long long)MaxWorldNodes);
    return false;
  }
  const uint64_t MinNodes = Key == "ring" || Key == "chord" ? 3 : 1;
  if (Nodes < MinNodes) {
    Error = formatStr("%s needs at least %llu node%s, got %llu", Key.c_str(),
                      (unsigned long long)MinNodes, MinNodes == 1 ? "" : "s",
                      (unsigned long long)Nodes);
    return false;
  }
  if (Key == "tree" && Extra == 0) {
    Error = "tree arity must be at least 1";
    return false;
  }
  if (Key == "ba" && (Extra == 0 || Extra >= Nodes)) {
    Error = formatStr("ba needs 1 <= M < N, got N=%llu M=%llu",
                      (unsigned long long)Nodes, (unsigned long long)Extra);
    return false;
  }
  return true;
}

static bool buildTopologyImpl(const std::string &SpecTok, Rng &Rand,
                              TopologyInfo &Out, std::string &Error) {
  size_t Colon = SpecTok.find(':');
  std::string Key =
      Colon == std::string::npos ? SpecTok : SpecTok.substr(0, Colon);
  std::string Rest =
      Colon == std::string::npos ? std::string() : SpecTok.substr(Colon + 1);
  Out = TopologyInfo();

  if (Key == "fig1") {
    Out.G = graph::makeFig1World().G;
    return true;
  }
  if (Key == "grid" || Key == "torus") {
    size_t X = Rest.find('x');
    uint64_t W = 0, H = 0;
    if (X != std::string::npos) {
      W = std::strtoull(Rest.substr(0, X).c_str(), nullptr, 10);
      H = std::strtoull(Rest.substr(X + 1).c_str(), nullptr, 10);
    }
    if (W == 0 || H == 0) {
      Error = "bad " + Key + " size '" + Rest + "' (want WxH)";
      return false;
    }
    if (Key == "torus" && (W < 3 || H < 3)) {
      Error = formatStr("torus needs at least 3x3 nodes, got %llux%llu",
                        (unsigned long long)W, (unsigned long long)H);
      return false;
    }
    // W, H <= MaxWorldNodes keeps the product from wrapping.
    if (W > MaxWorldNodes || H > MaxWorldNodes || W * H > MaxWorldNodes) {
      Error = formatStr("%s of %llux%llu nodes exceeds the %llu-node id "
                        "range",
                        Key.c_str(), (unsigned long long)W,
                        (unsigned long long)H,
                        (unsigned long long)MaxWorldNodes);
      return false;
    }
    const uint32_t W32 = static_cast<uint32_t>(W);
    const uint32_t H32 = static_cast<uint32_t>(H);
    Out.G = Key == "grid" ? graph::makeGrid(W32, H32)
                          : graph::makeTorus(W32, H32);
    Out.GridWidth = W32;
    Out.GridHeight = H32;
    return true;
  }

  // Default size and second parameter (arity, fingers, M, P or R) of
  // every kind spelled KIND:N[:X].
  struct KindDefaults {
    const char *Key;
    uint64_t Size, Extra;
  };
  static const KindDefaults Kinds[] = {
      {"ring", 16, 0},  {"line", 16, 0}, {"tree", 31, 2}, {"hypercube", 5, 0},
      {"chord", 32, 4}, {"ba", 48, 2},   {"er", 48, 8},   {"geo", 48, 25}};
  const KindDefaults *Kind = std::find_if(
      std::begin(Kinds), std::end(Kinds),
      [&Key](const KindDefaults &K) { return Key == K.Key; });
  if (Kind == std::end(Kinds)) {
    Error = "unknown topology kind '" + Key + "'";
    return false;
  }
  std::vector<uint64_t> Args = splitUnsigned(Rest, ':');
  const uint64_t Size = Args.size() > 0 ? Args[0] : Kind->Size;
  const uint64_t Extra = Args.size() > 1 ? Args[1] : Kind->Extra;
  if (!checkTopologySize(Key, Size, Extra, Error))
    return false;
  const uint32_t N = static_cast<uint32_t>(Size);
  // Clamped: a tree arity or finger count past the id range behaves as
  // the largest one.
  const uint32_t E32 =
      static_cast<uint32_t>(std::min<uint64_t>(Extra, MaxWorldNodes));
  if (Key == "ring")
    Out.G = graph::makeRing(N);
  else if (Key == "line")
    Out.G = graph::makeLine(N);
  else if (Key == "tree")
    Out.G = graph::makeTree(N, E32);
  else if (Key == "hypercube")
    Out.G = graph::makeHypercube(N);
  else if (Key == "chord")
    Out.G = graph::makeChordRing(N, E32);
  else if (Key == "ba")
    Out.G = graph::makeBarabasiAlbert(N, E32, Rand);
  else if (Key == "er")
    // er:N:P with P in percent (er:48:8 => p = 0.08).
    Out.G = graph::makeErdosRenyi(N, static_cast<double>(Extra) / 100.0, Rand);
  else
    // geo:N:R with R in percent of the unit square.
    Out.G = graph::makeRandomGeometric(N, static_cast<double>(Extra) / 100.0,
                                       Rand);
  return true;
}

bool scenario::buildTopology(const std::string &SpecTok, Rng &Rand,
                             TopologyInfo &Out, std::string &Error) {
  if (!buildTopologyImpl(SpecTok, Rand, Out, Error))
    return false;
  // A materialized topology is immutable from here on: move it into CSR
  // storage so 100k-node worlds are one flat array instead of one heap
  // block per node (and every traversal streams through cache).
  Out.G.compact();
  return true;
}

/// Expands one directive into timed crashes appended to \p Plan.
static bool expandDirective(const CrashDirective &C, const TopologyInfo &Topo,
                            Rng &Rand, workload::CrashPlan &Plan,
                            std::string &Error) {
  const graph::Graph &G = Topo.G;
  auto NeedGrid = [&]() {
    if (Topo.GridWidth == 0) {
      Error = formatStr("crash %s requires a grid/torus topology",
                        crashKindName(C.K));
      return false;
    }
    return true;
  };
  auto NeedArgs = [&](size_t N) {
    if (C.Args.size() != N) {
      Error = formatStr("crash %s takes %zu arguments, got %zu",
                        crashKindName(C.K), N, C.Args.size());
      return false;
    }
    return true;
  };

  workload::CrashPlan Part;
  switch (C.K) {
  case CrashDirective::Kind::Patch: {
    if (!NeedGrid() || !NeedArgs(3))
      return false;
    uint32_t X = static_cast<uint32_t>(C.Args[0]);
    uint32_t Y = static_cast<uint32_t>(C.Args[1]);
    uint32_t Side = static_cast<uint32_t>(C.Args[2]);
    if (X + Side > Topo.GridWidth || Y + Side > Topo.GridHeight) {
      Error = formatStr("patch %u,%u side %u exceeds the %ux%u grid", X, Y,
                        Side, Topo.GridWidth, Topo.GridHeight);
      return false;
    }
    graph::Region R = graph::gridPatch(Topo.GridWidth, X, Y, Side);
    Part = C.Gap ? workload::cascade(R, C.At, C.Gap)
                 : workload::simultaneous(R, C.At);
    break;
  }
  case CrashDirective::Kind::Nodes: {
    if (C.Args.empty()) {
      Error = "crash nodes needs at least one node id";
      return false;
    }
    std::vector<NodeId> Ids;
    for (uint64_t Id : C.Args)
      Ids.push_back(static_cast<NodeId>(Id));
    graph::Region R(std::move(Ids));
    Part = C.Gap ? workload::cascade(R, C.At, C.Gap)
                 : workload::simultaneous(R, C.At);
    break;
  }
  case CrashDirective::Kind::Ball: {
    if (!NeedArgs(2))
      return false;
    if (C.Args[0] >= G.numNodes()) {
      Error = formatStr("ball center %llu out of range (%u nodes)",
                        (unsigned long long)C.Args[0], G.numNodes());
      return false;
    }
    graph::Region R = graph::ballAround(G, static_cast<NodeId>(C.Args[0]),
                                        static_cast<uint32_t>(C.Args[1]));
    Part = C.Gap ? workload::cascade(R, C.At, C.Gap)
                 : workload::simultaneous(R, C.At);
    break;
  }
  case CrashDirective::Kind::Wave: {
    if (!NeedArgs(2))
      return false;
    if (C.Args[0] >= G.numNodes()) {
      Error = formatStr("wave epicenter %llu out of range (%u nodes)",
                        (unsigned long long)C.Args[0], G.numNodes());
      return false;
    }
    Part = workload::radialWave(G, static_cast<NodeId>(C.Args[0]),
                                static_cast<uint32_t>(C.Args[1]), C.At,
                                C.Gap);
    break;
  }
  case CrashDirective::Kind::Grow: {
    if (!NeedArgs(2))
      return false;
    if (C.Args[0] >= G.numNodes()) {
      Error = formatStr("grow seed node %llu out of range (%u nodes)",
                        (unsigned long long)C.Args[0], G.numNodes());
      return false;
    }
    graph::Region R = graph::growRegionFrom(
        G, static_cast<NodeId>(C.Args[0]), static_cast<size_t>(C.Args[1]));
    Part = C.Gap ? workload::connectedCascade(G, R, C.At, C.Gap, Rand)
                 : workload::simultaneous(R, C.At);
    break;
  }
  case CrashDirective::Kind::Random: {
    if (!NeedArgs(2))
      return false;
    Part = workload::randomRegions(G, static_cast<uint32_t>(C.Args[0]),
                                   static_cast<size_t>(C.Args[1]), C.At,
                                   C.Spread, Rand);
    break;
  }
  case CrashDirective::Kind::Chain: {
    if (!NeedGrid() || !NeedArgs(2))
      return false;
    Part = workload::adjacentDomainChain(Topo.GridWidth, Topo.GridHeight,
                                         static_cast<uint32_t>(C.Args[0]),
                                         static_cast<uint32_t>(C.Args[1]),
                                         C.At);
    if (Part.Crashes.empty()) {
      Error = formatStr("chain of %llu %llux%llu domains does not fit a "
                        "%ux%u grid",
                        (unsigned long long)C.Args[1],
                        (unsigned long long)C.Args[0],
                        (unsigned long long)C.Args[0], Topo.GridWidth,
                        Topo.GridHeight);
      return false;
    }
    break;
  }
  }

  for (const workload::TimedCrash &TC : Part.Crashes) {
    if (TC.Node >= G.numNodes()) {
      Error = formatStr("crash %s targets node %u, out of range (%u nodes)",
                        crashKindName(C.K), TC.Node, G.numNodes());
      return false;
    }
    Plan.Crashes.push_back(TC);
  }
  return true;
}

bool scenario::buildCrashPlan(const std::vector<CrashDirective> &Directives,
                              const TopologyInfo &Topo, Rng &Rand,
                              uint64_t MaxFaulty, workload::CrashPlan &Out,
                              std::string &Error) {
  Out = workload::CrashPlan();
  for (const CrashDirective &C : Directives)
    if (!expandDirective(C, Topo, Rand, Out, Error))
      return false;
  // Nodes named by several directives crash at their earliest time; drop
  // the later duplicates so ScenarioRunner sees each node once.
  std::stable_sort(Out.Crashes.begin(), Out.Crashes.end(),
                   [](const workload::TimedCrash &A,
                      const workload::TimedCrash &B) {
                     if (A.When != B.When)
                       return A.When < B.When;
                     return A.Node < B.Node;
                   });
  graph::Region Seen;
  std::vector<workload::TimedCrash> Unique;
  Unique.reserve(Out.Crashes.size());
  for (const workload::TimedCrash &TC : Out.Crashes) {
    if (Seen.contains(TC.Node))
      continue;
    Seen.insert(TC.Node);
    Unique.push_back(TC);
  }
  Out.Crashes = std::move(Unique);
  if (MaxFaulty)
    Out = workload::capFaulty(std::move(Out), static_cast<size_t>(MaxFaulty));
  if (Out.Crashes.size() >= Topo.G.numNodes()) {
    Error = formatStr("plan crashes all %u nodes; at least one node must "
                      "survive",
                      Topo.G.numNodes());
    return false;
  }
  return true;
}

trace::RunnerOptions scenario::makeRunnerOptions(const Spec &S, Rng &LatRand) {
  trace::RunnerOptions Opts;
  Opts.NodeConfig.Ranking = S.Ranking;
  Opts.NodeConfig.EarlyTermination = S.EarlyTermination;
  switch (S.Latency.K) {
  case LatencySpec::Kind::Fixed:
    Opts.Latency = sim::fixedLatency(S.Latency.A);
    Opts.MonotoneLatency = true;
    break;
  case LatencySpec::Kind::Uniform:
    Opts.Latency = sim::uniformLatency(S.Latency.A, S.Latency.B, LatRand);
    break;
  case LatencySpec::Kind::Spiky:
    Opts.Latency = sim::spikyLatency(S.Latency.A,
                                     S.Latency.SpikePercent / 100.0,
                                     S.Latency.B, LatRand);
    break;
  }
  Opts.DetectionDelay = detector::fixedDetectionDelay(S.Detect);
  // The search plane's link override replaces the spec's conditions
  // wholesale; the salt and tie bias ride alongside (both no-ops at 0).
  Opts.Link = S.Perturb.HasLink ? S.Perturb.Link : S.Link;
  Opts.LinkSalt = S.Perturb.LinkSalt;
  Opts.TieBreakBias = S.Perturb.TieBias;
  Opts.MaxEvents = S.MaxEvents;
  return Opts;
}

void scenario::applyPerturbation(const Perturbation &P, uint32_t NumNodes,
                                 workload::CrashPlan &Plan) {
  if (!P.Drops.empty() || !P.Shifts.empty()) {
    std::vector<workload::TimedCrash> Out;
    Out.reserve(Plan.Crashes.size());
    for (size_t I = 0; I < Plan.Crashes.size(); ++I) {
      uint32_t Idx = static_cast<uint32_t>(I);
      if (std::binary_search(P.Drops.begin(), P.Drops.end(), Idx))
        continue;
      workload::TimedCrash TC = Plan.Crashes[I];
      auto It = std::lower_bound(P.Shifts.begin(), P.Shifts.end(), Idx,
                                 [](const CrashShift &Sh, uint32_t V) {
                                   return Sh.Index < V;
                                 });
      if (It != P.Shifts.end() && It->Index == Idx) {
        if (It->Delta < 0) {
          // -(Delta+1)+1 avoids UB on INT64_MIN; saturate at time zero.
          uint64_t Mag = static_cast<uint64_t>(-(It->Delta + 1)) + 1;
          TC.When = TC.When > Mag ? TC.When - Mag : 0;
        } else {
          uint64_t Mag = static_cast<uint64_t>(It->Delta);
          TC.When = TC.When + Mag < TC.When ? TimeNever - 1 : TC.When + Mag;
        }
      }
      Out.push_back(TC);
    }
    std::stable_sort(Out.begin(), Out.end(),
                     [](const workload::TimedCrash &A,
                        const workload::TimedCrash &B) {
                       if (A.When != B.When)
                         return A.When < B.When;
                       return A.Node < B.Node;
                     });
    Plan.Crashes = std::move(Out);
  }
  // Degenerate-plan guard: whatever the mutation stream did, the result
  // never crashes more than 3/4 of the graph. Crashes are one-per-node
  // here (buildCrashPlan dedups, drops/shifts preserve that), so the
  // faulty count is just the schedule length.
  size_t Cap = (static_cast<size_t>(NumNodes) * 3) / 4;
  if (Plan.Crashes.size() > Cap)
    Plan = workload::capFaulty(std::move(Plan), Cap);
}

/// Parses the compact latency token ("fixed:10", "uniform:1:60",
/// "spiky:8:10:20"); shared by sweep overrides and the parser.
static bool parseLatencyCompact(const std::string &Tok, LatencySpec &Out,
                                std::string &Error) {
  size_t Colon = Tok.find(':');
  std::string Kind = Colon == std::string::npos ? Tok : Tok.substr(0, Colon);
  std::vector<uint64_t> Args = splitUnsigned(
      Colon == std::string::npos ? std::string() : Tok.substr(Colon + 1),
      ':');
  if (Kind == "fixed" && Args.size() == 1) {
    Out = LatencySpec();
    Out.K = LatencySpec::Kind::Fixed;
    Out.A = Args[0];
    return true;
  }
  if (Kind == "uniform" && Args.size() == 2 && Args[0] <= Args[1]) {
    Out = LatencySpec();
    Out.K = LatencySpec::Kind::Uniform;
    Out.A = Args[0];
    Out.B = Args[1];
    return true;
  }
  if (Kind == "spiky" && Args.size() == 3 && Args[1] <= 100) {
    Out = LatencySpec();
    Out.K = LatencySpec::Kind::Spiky;
    Out.A = Args[0];
    Out.SpikePercent = static_cast<uint32_t>(Args[1]);
    Out.B = Args[2];
    return true;
  }
  Error = "bad latency '" + Tok +
          "' (want fixed:T | uniform:LO:HI | spiky:BASE:P:FACTOR)";
  return false;
}

static bool parseRankingName(const std::string &Tok, graph::RankingKind &Out,
                             std::string &Error) {
  if (Tok == "sizeborderlex")
    Out = graph::RankingKind::SizeBorderLex;
  else if (Tok == "sizelex")
    Out = graph::RankingKind::SizeLex;
  else if (Tok == "purelex")
    Out = graph::RankingKind::PureLex;
  else {
    Error = "unknown ranking '" + Tok +
            "' (want sizeborderlex | sizelex | purelex)";
    return false;
  }
  return true;
}

bool scenario::applyOverride(Spec &S, const std::string &Key,
                             const std::string &Value, std::string &Error) {
  if (Key == "topology") {
    // Validated for real at materialization; reject the obviously empty.
    if (Value.empty()) {
      Error = "empty topology value";
      return false;
    }
    S.Topology = Value;
    return true;
  }
  if (Key == "detect") {
    char *End = nullptr;
    unsigned long long V = std::strtoull(Value.c_str(), &End, 10);
    if (Value.empty() || *End != '\0') {
      Error = "bad detect value '" + Value + "' (want an integer)";
      return false;
    }
    S.Detect = V;
    return true;
  }
  if (Key == "ranking")
    return parseRankingName(Value, S.Ranking, Error);
  if (Key == "early-termination") {
    if (Value == "on")
      S.EarlyTermination = true;
    else if (Value == "off")
      S.EarlyTermination = false;
    else {
      Error = "bad early-termination value '" + Value + "' (want on | off)";
      return false;
    }
    return true;
  }
  if (Key == "latency")
    return parseLatencyCompact(Value, S.Latency, Error);
  if (Key == "link")
    return net::parseLinkCompact(Value, S.Link, Error);
  if (Key == "backend")
    return engine::parseBackendName(Value, S.Backend, Error);
  if (Key == "transport")
    return parseTransportName(Value, S.Transport, Error);
  Error = "unknown sweep key '" + Key +
          "' (want topology | detect | ranking | early-termination | "
          "latency | link | backend | transport)";
  return false;
}

bool scenario::topologyDrawsFromSeed(const std::string &Topology) {
  const std::string Key = Topology.substr(0, Topology.find(':'));
  return Key == "ba" || Key == "er" || Key == "geo";
}

bool scenario::buildWorld(const Spec &V, uint64_t Seed, TopologyInfo &Out,
                          std::string &Error) {
  Rng TopoRand(Seed);
  return buildTopology(V.Topology, TopoRand, Out, Error);
}

bool scenario::materializeSingle(const Spec &V, uint64_t Seed,
                                 MaterializedRun &Out, std::string &Error,
                                 const TopologyInfo *World) {
  if (!World) {
    Out.OwnedTopo = std::make_unique<TopologyInfo>();
    if (!buildWorld(V, Seed, *Out.OwnedTopo, Error))
      return false;
    World = Out.OwnedTopo.get();
  }
  Out.Topo = World;
  // Independent streams for the plan and the latency model, both derived
  // from the job seed, so a (spec, seed) pair pins the whole run.
  SplitMix64 Sub(Seed);
  Out.PlanRand.reset(new Rng(Sub.next()));
  Out.LatRand.reset(new Rng(Sub.next()));
  if (!buildCrashPlan(V.Epochs.front(), *World, *Out.PlanRand, V.MaxFaulty,
                      Out.Plan, Error))
    return false;
  // The search plane's crash mutations apply to the plan buildCrashPlan
  // just produced — indices in the Perturbation name positions in it.
  applyPerturbation(V.Perturb, World->G.numNodes(), Out.Plan);
  Out.Options = makeRunnerOptions(V, *Out.LatRand);
  // Engines overwrite this with the job seed; setting it here too keeps
  // runs driven straight through ScenarioRunner on the same schedule.
  Out.Options.LinkSeed = Seed;
  return true;
}
