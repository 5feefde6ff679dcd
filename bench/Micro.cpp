//===- bench/Micro.cpp - google-benchmark microbenchmarks ----------------------===//
//
// Part of the cliffedge project: a reproduction of "Cliff-Edge Consensus:
// Agreeing on the Precipice" (Taiani, Porter, Coulson, Raynal, PaCT 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Microbenchmarks of the hot paths under the protocol: region set
/// algebra, border computation, connected components, ranking comparisons,
/// wire encode/decode, the event engine, world construction, whole jobs
/// on the million-node, dense and lossy worlds, and the crash-burst
/// view-construction kernel of Algorithm 1 (the incremental union-find
/// tracker CliffEdgeNode::onCrash runs). tools/bench_compare.py distills
/// the run into BENCH_micro.json and gates its deterministic counts.
///
/// Run with --benchmark_format=json for machine-readable output.
///
//===----------------------------------------------------------------------===//

#include "core/Wire.h"
#include "engine/DesEngine.h"
#include "engine/EventQueue.h"
#include "engine/ShardedEngine.h"
#include "graph/Builders.h"
#include "graph/IncrementalComponents.h"
#include "graph/Ranking.h"
#include "net/Link.h"
#include "scenario/Parse.h"
#include "scenario/Spec.h"
#include "support/Random.h"
#include "trace/Checker.h"
#include "trace/Runner.h"
#include "trace/StreamingChecker.h"
#include "workload/CrashPlans.h"

#include "benchmark/benchmark.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

using namespace cliffedge;

// -- Allocation-counting harness ---------------------------------------------
//
// Global operator new/delete replacements that count every heap allocation
// and sum its requested bytes while the flag is up. Bench-binary only (they
// never ship in the library). BM_RoundProcessing_Allocs uses the count to
// assert the steady-state data plane runs allocation-free (gated as
// round_processing_allocs_per_msg <= 0); BM_IdleJob uses the bytes to
// assert an idle job's cost does not scale with the world (gated as
// idle_job_alloc_mb), BM_OutageJob to compare the engines' failure-wave
// bytes (outage_wave_alloc_sharded_over_des) and BM_WorldBuild to gate
// one world build's bytes (world_build_alloc_mb); BM_DenseStormJob and
// its sharded twin divide the count by processed events (gated as
// dense_job_allocs_per_event and _sharded), BM_CrashBurst_Incremental by
// crashes
// (crash_burst_allocs_per_crash_<side>), BM_WireEncodeV3/BM_WireDecodeV3
// by calls (wire_v3_encode_allocs_<arg>, wire_v3_decode_allocs_<arg>);
// the crash-burst benches record it per run so the zero-loss bypass is
// gated on exact extra allocations (reliable_channel_extra_allocs).

namespace {
std::atomic<uint64_t> GAllocCount{0};
std::atomic<uint64_t> GAllocBytes{0};
std::atomic<bool> GAllocCounting{false};

void *countedAlloc(std::size_t Size) {
  if (GAllocCounting.load(std::memory_order_relaxed)) {
    GAllocCount.fetch_add(1, std::memory_order_relaxed);
    GAllocBytes.fetch_add(Size, std::memory_order_relaxed);
  }
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

namespace {

// -- Engine ceiling: the million-node world ----------------------------------
//
// scenarios/million_torus_quake.scn end-to-end on the DES backend: a
// 1,000,000-node torus hit by 120 eight-node quakes. Detection is
// border-local, so what this measures is the at-rest footprint of the
// engine — hybrid bitset Regions, the lazily slab-allocated protocol
// tables, streaming CSR topology and graph-backed crash subscriptions —
// not protocol throughput. The peak_rss_mb counter (getrusage ru_maxrss)
// is what bench_compare distills into the engine_million_peak_rss_mb
// ceiling gated by the perf and mem-smoke ctest labels.
//
// ru_maxrss is a process-lifetime peak, so this bench MUST stay the first
// registration in the binary: anything larger running before it would be
// the number reported here. (The mem-smoke label additionally runs it
// alone via --benchmark_filter.)

const scenario::Spec &millionTorusSpec() {
  static const scenario::Spec S = [] {
    // Inline duplicate of scenarios/million_torus_quake.scn (single seed)
    // so the bench binary stays runnable from any directory;
    // ScenarioGoldenTest pins the two against each other.
    scenario::ParseResult P = scenario::parseSpec(
        "scenario million-torus-quake\n"
        "topology torus:1000x1000\n"
        "latency fixed 10\n"
        "detect 5\n"
        "check off\n"
        "crash random 120 8 at 100 spread 300\n");
    if (!P.Ok) {
      std::fprintf(stderr, "million-torus spec failed to parse:\n%s\n",
                   P.diagText().c_str());
      std::abort();
    }
    return P.S;
  }();
  return S;
}

void BM_EngineMillion_Des(benchmark::State &State) {
  scenario::MaterializedRun Run;
  std::string Err;
  if (!scenario::materializeSingle(millionTorusSpec(), 1, Run, Err)) {
    State.SkipWithError(Err.c_str());
    return;
  }
  Run.Options.RecordSends = false;
  Run.Options.RecordProtocolEvents = false;
  engine::DesEngine Eng;
  uint64_t Events = 0;
  for (auto _ : State) {
    engine::EngineJob Job;
    Job.G = &Run.Topo->G;
    Job.Plan = &Run.Plan;
    Job.Options = Run.Options;
    Job.Seed = 1;
    engine::EngineResult R = Eng.run(Job);
    Events = R.Events;
    benchmark::DoNotOptimize(R.Decisions.size());
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(Events));
#if defined(__unix__) || defined(__APPLE__)
  struct rusage Ru;
  if (getrusage(RUSAGE_SELF, &Ru) == 0)
    // Linux reports ru_maxrss in KB (macOS in bytes; this gate only runs
    // on the Linux CI hosts).
    State.counters["peak_rss_mb"] =
        benchmark::Counter(static_cast<double>(Ru.ru_maxrss) / 1024.0);
#endif
}
// One iteration: the measurement of interest (peak RSS) is identical
// every pass, and a full pass costs seconds at a million nodes.
BENCHMARK(BM_EngineMillion_Des)->Unit(benchmark::kMillisecond)->Iterations(1);

// -- Idle job: the per-job floor at a million nodes ---------------------------
//
// One job with an empty crash plan on torus:1000x1000, followed by the
// batch check every campaign job runs (checkAll over toCheckInput). No
// node is touched, so everything this allocates is the per-job floor the
// engines and the checker pay regardless of the failure — paged per-node
// stores make that O(touched) plus the one node-indexed crash-time array
// of EngineResult. The alloc_mb counter is the heap bytes requested per
// job (operator-new hook, deterministic on any host); bench_compare turns
// the larger backend's into idle_job_alloc_mb and gates it.
void runMillionTorusJob(benchmark::State &State, engine::BackendKind Kind,
                        const workload::CrashPlan &Plan) {
  static const graph::Graph G = graph::makeTorus(1000, 1000);
  std::unique_ptr<engine::Engine> Eng = engine::makeEngine(Kind);
  uint64_t Bytes = 0;
  bool Ok = true;
  for (auto _ : State) {
    engine::EngineJob Job;
    Job.G = &G;
    Job.Plan = &Plan;
    Job.Seed = 1;
    GAllocBytes.store(0, std::memory_order_relaxed);
    GAllocCounting.store(true, std::memory_order_relaxed);
    {
      engine::EngineResult R = Eng->run(Job);
      trace::CheckResult C = trace::checkAll(engine::toCheckInput(R, G));
      // An idle job decides nothing; an outage job must decide.
      Ok = Ok && R.Quiesced && C.Ok &&
           R.Decisions.empty() == Plan.Crashes.empty();
    }
    GAllocCounting.store(false, std::memory_order_relaxed);
    Bytes = GAllocBytes.load(std::memory_order_relaxed);
  }
  if (!Ok) {
    State.SkipWithError("job did not quiesce with a clean check");
    return;
  }
  State.counters["alloc_mb"] =
      static_cast<double>(Bytes) / (1024.0 * 1024.0);
}

void BM_IdleJob(benchmark::State &State, engine::BackendKind Kind) {
  runMillionTorusJob(State, Kind, workload::CrashPlan());
}
BENCHMARK_CAPTURE(BM_IdleJob, des, engine::BackendKind::Des)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_IdleJob, sharded, engine::BackendKind::Sharded)
    ->Unit(benchmark::kMillisecond);

// -- Outage job: what a local failure wave costs ------------------------------
//
// The idle job's world hit by eight 3x3 outages at t=100, each in its own
// band of rows. The paper's locality premise says a job pays for the nodes
// its failures touch, so the bytes this job requests above the idle job's
// are the failure wave's cost, and both engines host their nodes on one
// NodeId-keyed paged store: their waves should cost about the same.
// bench_compare divides the sharded wave by the DES wave
// (outage_wave_alloc_sharded_over_des) and gates the ratio. A store
// striped by shard would materialize a page in nearly every stripe per
// outage and show up as a ratio near 2.
void BM_OutageJob(benchmark::State &State, engine::BackendKind Kind) {
  static const workload::CrashPlan Plan = [] {
    workload::CrashPlan P;
    for (uint32_t I = 0; I < 8; ++I)
      for (uint32_t Row = 0; Row < 3; ++Row)
        for (uint32_t Col = 0; Col < 3; ++Col)
          P.Crashes.push_back(workload::TimedCrash{
              (50 + 120 * I + Row) * 1000 + 100 + 100 * I + Col, 100});
    return P;
  }();
  runMillionTorusJob(State, Kind, Plan);
}
BENCHMARK_CAPTURE(BM_OutageJob, des, engine::BackendKind::Des)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OutageJob, sharded, engine::BackendKind::Sharded)
    ->Unit(benchmark::kMillisecond);

// -- World build: one million-node torus ---------------------------------------
//
// scenario::buildTopology("torus:1000x1000"), the world of
// million_torus_quake.scn and of perfbench's sparse_million. The alloc_mb
// counter is the heap bytes one build requests (operator-new hook,
// deterministic on any host): the final CSR is 8 MB of offsets plus 16 MB
// of edges, so any scratch array a builder adds on top shows up whole.
// bench_compare turns it into world_build_alloc_mb and gates it.
void BM_WorldBuild(benchmark::State &State) {
  uint64_t Bytes = 0;
  for (auto _ : State) {
    Rng Rand(1);
    scenario::TopologyInfo Topo;
    std::string Err;
    GAllocBytes.store(0, std::memory_order_relaxed);
    GAllocCounting.store(true, std::memory_order_relaxed);
    bool Ok = scenario::buildTopology("torus:1000x1000", Rand, Topo, Err);
    GAllocCounting.store(false, std::memory_order_relaxed);
    Bytes = GAllocBytes.load(std::memory_order_relaxed);
    if (!Ok || Topo.G.numEdges() != 2000000) {
      State.SkipWithError("torus:1000x1000 did not build");
      return;
    }
    benchmark::DoNotOptimize(Topo.G.adj(0).begin());
  }
  State.counters["alloc_mb"] =
      static_cast<double>(Bytes) / (1024.0 * 1024.0);
}
BENCHMARK(BM_WorldBuild)->Unit(benchmark::kMillisecond);

// -- Dense job: allocations per event on a jittered storm ---------------------
//
// One DES job of the dense_storm shape — a 16,384-node torus, jittered
// latency, 64 ten-node outages opening within 300 ticks — on a fixed seed,
// followed by the batch check. Every event is protocol work (crash
// notices, multicast legs), so heap allocations per processed event
// measure the bookkeeping Algorithm 1 and its transport pay per unit of
// work: decoding, instance rounds, view construction, notice scheduling.
// The operator-new count is deterministic on any host; bench_compare
// turns it into dense_job_allocs_per_event and gates it. The sharded twin
// runs the identical job on engine::ShardedEngine with one worker (merge,
// calendar and worker outboxes in place of the DES runner), gated as
// dense_job_allocs_per_event_sharded.
void runDenseStormJob(benchmark::State &State, engine::Engine &Eng) {
  static const scenario::Spec Spec = [] {
    scenario::ParseResult P = scenario::parseSpec(
        "scenario dense-storm\n"
        "topology torus:128x128\n"
        "latency uniform 1 30\n"
        "detect 5\n"
        "check on\n"
        "crash random 64 10 at 100 spread 300\n");
    if (!P.Ok) {
      std::fprintf(stderr, "dense-storm spec failed to parse:\n%s\n",
                   P.diagText().c_str());
      std::abort();
    }
    return P.S;
  }();
  uint64_t Allocs = 0, Events = 0;
  bool Ok = true;
  for (auto _ : State) {
    // Fresh materialization per pass: the latency model draws from an RNG
    // the options capture, so every pass replays the identical job.
    State.PauseTiming();
    scenario::MaterializedRun Run;
    std::string Err;
    if (!scenario::materializeSingle(Spec, 1, Run, Err)) {
      State.SkipWithError(Err.c_str());
      return;
    }
    State.ResumeTiming();
    engine::EngineJob Job;
    Job.G = &Run.Topo->G;
    Job.Plan = &Run.Plan;
    Job.Options = Run.Options;
    Job.Seed = 1;
    GAllocCount.store(0, std::memory_order_relaxed);
    GAllocCounting.store(true, std::memory_order_relaxed);
    {
      engine::EngineResult R = Eng.run(Job);
      trace::CheckResult C =
          trace::checkAll(engine::toCheckInput(R, Run.Topo->G));
      Ok = Ok && R.Quiesced && C.Ok && !R.Decisions.empty();
      Events = R.Events;
    }
    GAllocCounting.store(false, std::memory_order_relaxed);
    Allocs = GAllocCount.load(std::memory_order_relaxed);
  }
  if (!Ok || Events == 0) {
    State.SkipWithError("dense job did not quiesce with a clean check");
    return;
  }
  State.counters["allocs_per_event"] =
      static_cast<double>(Allocs) / static_cast<double>(Events);
  State.counters["allocs"] = static_cast<double>(Allocs);
  State.counters["events"] = static_cast<double>(Events);
}

void BM_DenseStormJob(benchmark::State &State) {
  engine::DesEngine Eng;
  runDenseStormJob(State, Eng);
}
BENCHMARK(BM_DenseStormJob)->Unit(benchmark::kMillisecond);

void BM_DenseStormJobSharded(benchmark::State &State) {
  engine::ShardedEngine Eng;
  runDenseStormJob(State, Eng);
}
BENCHMARK(BM_DenseStormJobSharded)->Unit(benchmark::kMillisecond);

// -- Lossy job: allocations per event on the sharded fault plane --------------
//
// One ShardedEngine job of the lossy_churn shape — a
// 2,304-node torus, uniform 1..20 latency, links that drop, duplicate and
// reorder frames — running one service epoch (Poisson(4) outages of six
// nodes within 200 ticks, capped as a service epoch is) on a fixed seed,
// with a streaming checker attached and sealed. It is the only gated job
// on the sharded merge, the net ARQ and the streaming checker: heap
// allocations per processed event (operator-new hook, deterministic on
// any host) measure the channel, calendar and decode bookkeeping a lossy
// round pays. bench_compare turns it into lossy_job_allocs_per_event and
// gates it.
void BM_LossyChurnJob(benchmark::State &State) {
  static const scenario::Spec Spec = [] {
    scenario::ParseResult P = scenario::parseSpec(
        "scenario lossy-churn\n"
        "topology torus:48x48\n"
        "latency uniform 1 20\n"
        "link drop:0.15 dup:0.02 reorder:10\n"
        "detect 5\n"
        "ranking sizeborderlex\n"
        "check on\n"
        "streaming on\n"
        "backend sharded\n"
        "service 1\n"
        "churn rate 4 size 6 horizon 200\n");
    if (!P.Ok) {
      std::fprintf(stderr, "lossy-churn spec failed to parse:\n%s\n",
                   P.diagText().c_str());
      std::abort();
    }
    return P.S;
  }();
  static const graph::Graph G = graph::makeTorus(48, 48);
  constexpr uint64_t Seed = 1;
  engine::ShardedEngine Eng;
  uint64_t Allocs = 0, Events = 0;
  bool Ok = true;
  for (auto _ : State) {
    // Fresh plan, latency stream and checker per pass: every pass replays
    // the identical job.
    State.PauseTiming();
    SplitMix64 Sub(Seed);
    Rng PlanRand(Sub.next());
    Rng LatRand(Sub.next());
    workload::CrashPlan Plan = workload::capFaulty(
        workload::poissonChurn(G, static_cast<double>(Spec.ChurnRate),
                               static_cast<size_t>(Spec.ChurnSize), 100,
                               Spec.ChurnHorizon, PlanRand),
        G.numNodes() * 3 / 4);
    trace::StreamingChecker Checker(G);
    engine::EngineJob Job;
    Job.G = &G;
    Job.Plan = &Plan;
    Job.Options = scenario::makeRunnerOptions(Spec, LatRand);
    Job.Options.StreamingCheck = &Checker;
    Job.Options.RecordSends = false;
    Job.Seed = Seed;
    State.ResumeTiming();
    GAllocCount.store(0, std::memory_order_relaxed);
    GAllocCounting.store(true, std::memory_order_relaxed);
    {
      engine::EngineResult R = Eng.run(Job);
      trace::CheckResult C = Checker.sealEpoch();
      Ok = Ok && R.Quiesced && C.Ok && !R.Decisions.empty() &&
           R.Stats.Channel.Retransmits > 0;
      Events = R.Events;
    }
    GAllocCounting.store(false, std::memory_order_relaxed);
    Allocs = GAllocCount.load(std::memory_order_relaxed);
  }
  if (!Ok || Events == 0) {
    State.SkipWithError("lossy job did not quiesce with a clean check");
    return;
  }
  State.counters["allocs_per_event"] =
      static_cast<double>(Allocs) / static_cast<double>(Events);
  State.counters["allocs"] = static_cast<double>(Allocs);
  State.counters["events"] = static_cast<double>(Events);
}
BENCHMARK(BM_LossyChurnJob)->Unit(benchmark::kMillisecond);

graph::Region randomRegion(Rng &Rand, uint32_t Universe, size_t Size) {
  std::vector<NodeId> Ids;
  Ids.reserve(Size);
  for (size_t I = 0; I < Size; ++I)
    Ids.push_back(static_cast<NodeId>(Rand.nextBelow(Universe)));
  return graph::Region(std::move(Ids));
}

void BM_RegionUnion(benchmark::State &State) {
  Rng Rand(1);
  graph::Region A = randomRegion(Rand, 10000, State.range(0));
  graph::Region B = randomRegion(Rand, 10000, State.range(0));
  for (auto _ : State)
    benchmark::DoNotOptimize(A.unionWith(B));
}
BENCHMARK(BM_RegionUnion)->Arg(8)->Arg(64)->Arg(512);

void BM_RegionUnionInPlace(benchmark::State &State) {
  Rng Rand(1);
  graph::Region A = randomRegion(Rand, 10000, State.range(0));
  graph::Region B = randomRegion(Rand, 10000, State.range(0));
  std::vector<NodeId> Scratch;
  graph::Region Acc;
  for (auto _ : State) {
    Acc = A; // Copy reuses Acc's capacity after the first iteration.
    Acc.unionInPlace(B, Scratch);
    benchmark::DoNotOptimize(Acc);
  }
}
BENCHMARK(BM_RegionUnionInPlace)->Arg(8)->Arg(64)->Arg(512);

void BM_RegionDifferenceInPlace(benchmark::State &State) {
  Rng Rand(5);
  graph::Region A = randomRegion(Rand, 10000, State.range(0));
  graph::Region B = randomRegion(Rand, 10000, State.range(0));
  graph::Region Acc;
  for (auto _ : State) {
    Acc = A;
    Acc.differenceInPlace(B);
    benchmark::DoNotOptimize(Acc);
  }
}
BENCHMARK(BM_RegionDifferenceInPlace)->Arg(8)->Arg(64)->Arg(512);

void BM_RegionIntersects(benchmark::State &State) {
  Rng Rand(2);
  graph::Region A = randomRegion(Rand, 10000, State.range(0));
  graph::Region B = randomRegion(Rand, 10000, State.range(0));
  for (auto _ : State)
    benchmark::DoNotOptimize(A.intersects(B));
}
BENCHMARK(BM_RegionIntersects)->Arg(8)->Arg(64)->Arg(512);

void BM_RegionContains(benchmark::State &State) {
  Rng Rand(3);
  graph::Region A = randomRegion(Rand, 100000, State.range(0));
  NodeId Probe = 4242;
  for (auto _ : State)
    benchmark::DoNotOptimize(A.contains(Probe));
}
BENCHMARK(BM_RegionContains)->Arg(64)->Arg(4096);

void BM_BorderOfPatch(benchmark::State &State) {
  graph::Graph G = graph::makeGrid(64, 64);
  graph::Region Patch =
      graph::gridPatch(64, 4, 4, static_cast<uint32_t>(State.range(0)));
  for (auto _ : State)
    benchmark::DoNotOptimize(G.border(Patch));
}
BENCHMARK(BM_BorderOfPatch)->Arg(2)->Arg(4)->Arg(8);

void BM_ConnectedComponents(benchmark::State &State) {
  graph::Graph G = graph::makeGrid(64, 64);
  // Two disjoint patches plus a singleton: three components.
  graph::Region S = graph::gridPatch(64, 2, 2, 4)
                        .unionWith(graph::gridPatch(64, 20, 20, 4))
                        .unionWith(graph::Region{NodeId(40 * 64 + 40)});
  for (auto _ : State)
    benchmark::DoNotOptimize(G.connectedComponents(S));
}
BENCHMARK(BM_ConnectedComponents);

void BM_RankingCompare(benchmark::State &State) {
  graph::Graph G = graph::makeGrid(32, 32);
  graph::Region A = graph::gridPatch(32, 2, 2, 3);
  graph::Region B = graph::gridPatch(32, 10, 10, 3);
  for (auto _ : State)
    benchmark::DoNotOptimize(graph::rankedLess(G, A, B));
}
BENCHMARK(BM_RankingCompare);

// -- Crash burst: the onCrash-heavy scenario ---------------------------------
//
// A Side x Side patch of a 64x64 grid crashes node by node in a shuffled
// order (components form, merge, and finally fuse into one region — the
// paper's Fig. 1b growth pattern at scale). Per crash the bench runs the
// view-construction step of Algorithm 1 lines 8-11 the way
// CliffEdgeNode::onCrash does: one union-find step of the incremental
// tracker, then a ranking check against the current max view. Each pass
// also counts its heap allocations (operator-new hook) per crash — tracker
// set-up and max-view copies included — a deterministic figure that
// bench_compare gates as crash_burst_allocs_per_crash_<side>. A tracker
// that fell back to rescanning the crashed set with connectedComponents
// allocates a member list per component per crash and trips it.

std::vector<NodeId> burstOrder(uint32_t Side) {
  graph::Region Patch = graph::gridPatch(64, 8, 8, Side);
  std::vector<NodeId> Order(Patch.ids());
  Rng Rand(2024);
  Rand.shuffle(Order);
  return Order;
}

void BM_CrashBurst_Incremental(benchmark::State &State) {
  graph::Graph G = graph::makeGrid(64, 64);
  std::vector<NodeId> Order = burstOrder(static_cast<uint32_t>(State.range(0)));
  uint64_t Allocs = 0;
  for (auto _ : State) {
    GAllocCount.store(0, std::memory_order_relaxed);
    GAllocCounting.store(true, std::memory_order_relaxed);
    {
      graph::IncrementalComponents Tracker(G);
      graph::Region MaxView;
      size_t MaxViewBorder = graph::IncrementalComponents::UnknownBorder;
      for (NodeId Q : Order) {
        Tracker.addCrashed(Q);
        if (Tracker.outranks(Q, MaxView, graph::RankingKind::SizeBorderLex,
                             MaxViewBorder)) {
          MaxView = Tracker.componentOf(Q);
          MaxViewBorder = Tracker.componentBorderSize(Q);
        }
      }
      benchmark::DoNotOptimize(MaxView);
    }
    GAllocCounting.store(false, std::memory_order_relaxed);
    Allocs = GAllocCount.load(std::memory_order_relaxed);
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Order.size()));
  State.counters["allocs_per_crash"] =
      static_cast<double>(Allocs) / static_cast<double>(Order.size());
}
BENCHMARK(BM_CrashBurst_Incremental)->Arg(8)->Arg(16)->Arg(32);

// End-to-end variant: a full simulated run (simulator + network + wire +
// protocol) of a crash burst, the configuration of the Fig. 1-3 benches.
//
// Each pass also records its heap allocations and the frame bytes it put
// on the wire (protocol bytes plus pure-ack bytes): deterministic counts
// that BM_ReliableChannelOverhead_Raw below is gated against.
struct BurstCost {
  uint64_t Allocs = 0;
  uint64_t FrameBytes = 0;
};

BurstCost runCrashBurst(const graph::Graph &G, const graph::Region &Patch,
                        trace::RunnerOptions Opts) {
  Opts.RecordSends = false;
  Opts.RecordProtocolEvents = false;
  BurstCost Cost;
  GAllocCount.store(0, std::memory_order_relaxed);
  GAllocCounting.store(true, std::memory_order_relaxed);
  {
    trace::ScenarioRunner Runner(G, std::move(Opts));
    Runner.scheduleCrashAll(Patch, 100);
    Runner.run();
    benchmark::DoNotOptimize(Runner.decisions().size());
    Cost.FrameBytes =
        Runner.netStats().BytesSent + Runner.netStats().Channel.AckBytes;
  }
  GAllocCounting.store(false, std::memory_order_relaxed);
  Cost.Allocs = GAllocCount.load(std::memory_order_relaxed);
  return Cost;
}

void reportBurstCost(benchmark::State &State, const BurstCost &Cost) {
  State.counters["allocs"] = static_cast<double>(Cost.Allocs);
  State.counters["frame_bytes"] = static_cast<double>(Cost.FrameBytes);
}

void BM_ScenarioCrashBurst(benchmark::State &State) {
  graph::Graph G = graph::makeGrid(24, 24);
  graph::Region Patch =
      graph::gridPatch(24, 4, 4, static_cast<uint32_t>(State.range(0)));
  BurstCost Cost;
  for (auto _ : State)
    Cost = runCrashBurst(G, Patch, trace::RunnerOptions());
  reportBurstCost(State, Cost);
}
BENCHMARK(BM_ScenarioCrashBurst)->Arg(4)->Arg(6);

// -- Fault-plane overhead ----------------------------------------------------
//
// One crash-burst scenario at three link configurations:
//
//  * raw        — `link none`, the zero-loss bypass (no plane object, the
//                 pre-fault-plane code path byte for byte). Gated on exact
//                 counts against the byte-identical BM_ScenarioCrashBurst/6:
//                 reliable_channel_extra_allocs and
//                 reliable_channel_extra_bytes must both be <= 0 (the plane
//                 engaging on the zero-loss path costs allocations at the
//                 least). The within-run time ratio of the two,
//                 reliable_channel_overhead, is informational;
//  * reliable   — the armed sublayer over a perfect link: every frame is
//                 wrapped with a sequence stamp and the receiver verifies
//                 in-order arrival, but nothing can be lost, so no ack
//                 traffic, no windows, no timers (informational:
//                 reliable_channel_armed_ratio);
//  * lossy      — full ARQ at drop:0.2 dup:0.01 reorder:15, the cost of
//                 actually surviving a faulty medium (informational:
//                 reliable_channel_lossy_ratio).

void runChannelScenario(benchmark::State &State, const char *LinkTok) {
  net::LinkSpec Link;
  std::string Err;
  if (!net::parseLinkCompact(LinkTok, Link, Err)) {
    State.SkipWithError(Err.c_str());
    return;
  }
  graph::Graph G = graph::makeGrid(24, 24);
  graph::Region Patch = graph::gridPatch(24, 4, 4, 6);
  BurstCost Cost;
  for (auto _ : State) {
    trace::RunnerOptions Opts;
    Opts.Link = Link;
    Opts.LinkSeed = 42;
    Cost = runCrashBurst(G, Patch, std::move(Opts));
  }
  reportBurstCost(State, Cost);
}

void BM_ReliableChannelOverhead_Raw(benchmark::State &State) {
  runChannelScenario(State, "none");
}
BENCHMARK(BM_ReliableChannelOverhead_Raw)->Unit(benchmark::kMillisecond);

void BM_ReliableChannelOverhead_Armed(benchmark::State &State) {
  runChannelScenario(State, "reliable");
}
BENCHMARK(BM_ReliableChannelOverhead_Armed)->Unit(benchmark::kMillisecond);

void BM_ReliableChannelOverhead_Lossy(benchmark::State &State) {
  runChannelScenario(State, "drop:0.2,dup:0.01,reorder:15");
}
BENCHMARK(BM_ReliableChannelOverhead_Lossy)->Unit(benchmark::kMillisecond);

// -- Steady-state round processing: the zero-allocation gate -----------------
//
// An 8x8 patch of a 24x24 grid crashes at t=100. After the discovery wave
// (crash notices, view growth, instance churn) settles, the run is pure
// Algorithm-1 steady state: every border node relays its opinion vector
// round after round over the fixed final view. The bench cuts a window
// well inside that phase — after instances, frame pools, event heap and
// scratch buffers are warm, before the decisions land — and counts heap
// allocations per delivered message with the operator-new hook. The data
// plane's contract is that this is exactly zero: id-keyed flat lookups,
// reused scratch messages, pooled frames, id-only wire frames.

void BM_RoundProcessing_Allocs(benchmark::State &State) {
  graph::Graph G = graph::makeGrid(24, 24);
  graph::Region Patch = graph::gridPatch(24, 8, 8, 8);

  auto MakeRunner = [&](bool RecordEvents) {
    trace::RunnerOptions Opts;
    Opts.RecordSends = false;
    Opts.RecordProtocolEvents = RecordEvents;
    return std::make_unique<trace::ScenarioRunner>(G, std::move(Opts));
  };

  // Dry run to locate the steady-state window. View construction churns
  // for a long prefix of the run — failed intermediate instances, late
  // proposals, rejections — and each of those transitions legitimately
  // allocates (first sight of a view). Steady state begins once the last
  // Propose/Reject/InstanceFailed transition has happened and its frames
  // have landed; from there to the synchronized decision tick the traffic
  // is pure round relays over the final view. The window cuts that phase
  // with a few latencies of margin on both sides.
  SimTime Last = 0, LastChurn = 0;
  {
    auto Dry = MakeRunner(/*RecordEvents=*/true);
    Dry->scheduleCrashAll(Patch, 100);
    Dry->run();
    Last = Dry->lastDecisionTime();
    for (const trace::TimedProtocolEvent &E : Dry->protocolEvents())
      if (E.Event.Kind != core::EventKind::RoundAdvance &&
          E.Event.Kind != core::EventKind::Decide)
        LastChurn = std::max(LastChurn, E.When);
  }
  const SimTime W0 = LastChurn + 40;
  const SimTime W1 = Last - 25;
  if (W1 <= W0) {
    State.SkipWithError("no steady-state window in this scenario");
    return;
  }

  uint64_t Allocs = 0, Msgs = 0;
  for (auto _ : State) {
    auto Runner = MakeRunner(/*RecordEvents=*/false);
    Runner->scheduleCrashAll(Patch, 100);
    Runner->simulator().runUntil(W0); // Warm-up: discovery + early rounds.
    uint64_t Before = Runner->netStats().MessagesDelivered;
    GAllocCount.store(0, std::memory_order_relaxed);
    GAllocCounting.store(true, std::memory_order_relaxed);
    Runner->simulator().runUntil(W1);
    GAllocCounting.store(false, std::memory_order_relaxed);
    Allocs += GAllocCount.load(std::memory_order_relaxed);
    Msgs += Runner->netStats().MessagesDelivered - Before;
  }
  if (Msgs == 0) {
    // Never report a vacuous pass: a window with no deliveries means the
    // gate measured nothing — fail it loudly (the missing counter makes
    // bench_compare's --require report "not measured").
    State.SkipWithError("no deliveries inside the steady-state window");
    return;
  }
  State.counters["allocs_per_msg"] =
      static_cast<double>(Allocs) / static_cast<double>(Msgs);
  State.counters["steady_msgs"] =
      static_cast<double>(Msgs) / State.iterations();
  State.SetItemsProcessed(static_cast<int64_t>(Msgs));
}
BENCHMARK(BM_RoundProcessing_Allocs)->Unit(benchmark::kMillisecond);

// -- Event engine: the sharded calendar -------------------------------------
//
// Schedule/fire churn through engine::EventQueue, the shipped calendar of
// the sharded engine: n events per pass spread over 7 fresh timestamps,
// every event a leg sharing one frame (one refcount each), dispatched on
// its kind tag. The queue and the round buffer persist across passes, as
// they do across a run's rounds, and timestamps keep advancing. Two
// untimed passes warm the recycled buckets (the round buffer's first swap
// hands one bucket an empty vector); from then on the allocs_per_event
// counter (operator-new hook over every timed pass) is deterministic on
// any host. bench_compare gates it as event_queue_allocs_per_event <= 0,
// so a per-event allocation, or an index that grows with every timestamp
// ever seen, trips it.
void BM_EventDeliverySharded(benchmark::State &State) {
  const int Depth = static_cast<int>(State.range(0));
  support::FrameRef Frame =
      support::FrameRef::fresh(std::vector<uint8_t>(64, 0xab));
  engine::EventQueue Queue;
  std::vector<engine::Event> Round;
  SimTime Base = 0;
  uint64_t Sink = 0;
  auto Pass = [&] {
    SplitMix64 Keys(42);
    for (int I = 0; I < Depth; ++I) {
      engine::Event E;
      E.When = Base + static_cast<SimTime>(I % 7);
      E.Key = Keys.next();
      E.Seq = static_cast<uint64_t>(I);
      E.Shard = static_cast<uint32_t>(I % 32);
      E.K = engine::Event::Deliver;
      E.Frame = Frame;
      Queue.push(std::move(E));
    }
    while (!Queue.empty()) {
      Queue.takeRound(Round);
      for (engine::Event &E : Round) {
        switch (E.K) {
        case engine::Event::Deliver:
          Sink += E.Frame->size();
          break;
        default:
          break;
        }
      }
    }
    Base += 7;
  };
  Pass();
  Pass();
  GAllocCount.store(0, std::memory_order_relaxed);
  for (auto _ : State) {
    GAllocCounting.store(true, std::memory_order_relaxed);
    Pass();
    GAllocCounting.store(false, std::memory_order_relaxed);
  }
  benchmark::DoNotOptimize(Sink);
  State.SetItemsProcessed(State.iterations() * Depth);
  State.counters["allocs_per_event"] =
      static_cast<double>(GAllocCount.load(std::memory_order_relaxed)) /
      static_cast<double>(State.iterations() * Depth);
}
BENCHMARK(BM_EventDeliverySharded)->Arg(1024)->Arg(16384);

// -- Engine end-to-end: the 100k-node quake storm ----------------------------
//
// The scenarios/large_torus_quake.scn world under a heavier storm (150
// ten-node regions), executed end-to-end by each backend. Protocol work
// (view construction, opinion merging) is identical code on both sides, so
// the gap here reflects only the delivery-layer differences (calendar
// rounds and the merge against the simulator's event heap).

const scenario::Spec &quakeStormSpec() {
  static const scenario::Spec S = [] {
    scenario::ParseResult P = scenario::parseSpec(
        "scenario quake-storm\n"
        "topology torus:400x250\n"
        "latency fixed 10\n"
        "detect 5\n"
        "check off\n"
        "crash random 150 10 at 100 spread 200\n");
    if (!P.Ok) {
      // A silent fallback would benchmark a default 8x8 world and record
      // meaningless engine numbers; die loudly instead.
      std::fprintf(stderr, "quake-storm spec failed to parse:\n%s\n",
                   P.diagText().c_str());
      std::abort();
    }
    return P.S;
  }();
  return S;
}

void runEngineStorm(benchmark::State &State, engine::Engine &Eng) {
  scenario::MaterializedRun Run;
  std::string Err;
  if (!scenario::materializeSingle(quakeStormSpec(), 1, Run, Err)) {
    State.SkipWithError(Err.c_str());
    return;
  }
  Run.Options.RecordSends = false;
  Run.Options.RecordProtocolEvents = false;
  uint64_t Events = 0;
  for (auto _ : State) {
    engine::EngineJob Job;
    Job.G = &Run.Topo->G;
    Job.Plan = &Run.Plan;
    Job.Options = Run.Options;
    Job.Seed = 1;
    engine::EngineResult R = Eng.run(Job);
    Events = R.Events;
    benchmark::DoNotOptimize(R.Decisions.size());
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(Events));
}

void BM_EngineQuakeStorm_Des(benchmark::State &State) {
  engine::DesEngine Eng;
  runEngineStorm(State, Eng);
}
BENCHMARK(BM_EngineQuakeStorm_Des)->Unit(benchmark::kMillisecond);

void BM_EngineQuakeStorm_Sharded(benchmark::State &State) {
  engine::ShardedEngine Eng;
  runEngineStorm(State, Eng);
}
BENCHMARK(BM_EngineQuakeStorm_Sharded)->Unit(benchmark::kMillisecond);

// -- Wire format -------------------------------------------------------------

/// Shared intern table for the wire benches (regions outlive the bench).
core::ViewTable &wireBenchTable() {
  static graph::Graph G(1);
  static core::ViewTable Views(G);
  return Views;
}

core::Message sampleMessage(size_t BorderSize) {
  core::Message M;
  std::vector<NodeId> View, Border;
  for (size_t I = 0; I < BorderSize; ++I) {
    View.push_back(static_cast<NodeId>(2 * I));
    Border.push_back(static_cast<NodeId>(2 * I + 1));
  }
  M.Round = 3;
  M.setView(wireBenchTable().intern(graph::Region(std::move(View)),
                                    graph::Region(std::move(Border))));
  M.Opinions = core::OpinionVec(BorderSize);
  for (size_t I = 0; I < BorderSize; ++I)
    M.Opinions[I] = core::OpinionEntry{core::Opinion::Accept, I};
  return M;
}

// The *_V3 pair also exports deterministic counts of the live path: the
// frame's bytes and the heap allocations per call over the timed loop
// (operator-new hook), after one untimed call warms the reused buffers.
// bench_compare gates the 32-member frame's size exactly and both
// allocation counts at zero: a frame that carries the full region again,
// or an encoder or decoder that allocates per call, trips them.

void startAllocCount() {
  GAllocCount.store(0, std::memory_order_relaxed);
  GAllocCounting.store(true, std::memory_order_relaxed);
}

/// Stops the count startAllocCount() began; exports it per iteration.
void setAllocsPerCall(benchmark::State &State) {
  GAllocCounting.store(false, std::memory_order_relaxed);
  State.counters["allocs_per_call"] =
      static_cast<double>(GAllocCount.load(std::memory_order_relaxed)) /
      static_cast<double>(State.iterations());
}

void BM_WireEncodeV3(benchmark::State &State) {
  // The steady-state shape: id-only frame into a reused buffer.
  core::Message M = sampleMessage(State.range(0));
  std::vector<uint8_t> Out;
  core::encodeMessageV3Into(M, /*WithAnnounce=*/false, Out);
  startAllocCount();
  for (auto _ : State) {
    core::encodeMessageV3Into(M, /*WithAnnounce=*/false, Out);
    benchmark::DoNotOptimize(Out.data());
  }
  setAllocsPerCall(State);
  State.counters["frame_bytes"] = static_cast<double>(Out.size());
}
BENCHMARK(BM_WireEncodeV3)->Arg(4)->Arg(32)->Arg(256);

void BM_WireDecodeV3(benchmark::State &State) {
  core::Message M = sampleMessage(State.range(0));
  std::vector<uint8_t> Bytes;
  core::encodeMessageV3Into(M, /*WithAnnounce=*/false, Bytes);
  core::Message Scratch;
  core::decodeMessageInto(Bytes, wireBenchTable(), Scratch);
  startAllocCount();
  for (auto _ : State) {
    bool Ok = core::decodeMessageInto(Bytes, wireBenchTable(), Scratch);
    benchmark::DoNotOptimize(Ok);
  }
  setAllocsPerCall(State);
  State.counters["frame_bytes"] = static_cast<double>(Bytes.size());
}
BENCHMARK(BM_WireDecodeV3)->Arg(4)->Arg(32)->Arg(256);

// -- Streaming checker under service churn -----------------------------------
//
// The online checker's memory contract: state retention is O(open
// agreement waves), never O(trace). The bench feeds 32 epochs of a
// synthetic service run — 64 disjoint 4x4 outages on a 64x64 grid per
// epoch, ~115k events total — through one StreamingChecker and exports
// its high-water counters; bench_compare gates them with absolute
// ceilings (streaming_state_highwater, streaming_open_waves_hw). If a
// retirement rule breaks and the checker starts hoarding — pending sends
// never drained, decisions carried across seals — the high-water scales
// with the feed and blows the ceiling; the wall time is secondary.

void BM_StreamingCheckerChurn(benchmark::State &State) {
  // Patches spaced two cells apart are each their own faulty domain AND
  // their own cluster (borders never touch), which makes a provably
  // CD-clean trace easy to synthesize: every border node of a patch
  // decides (patch, lowest border id) after the patch crashes, with some
  // in-scope border gossip before it. The seal asserts cleanliness — a
  // vacuous pass would gate nothing.
  const uint32_t Side = 64;
  graph::Graph G = graph::makeGrid(Side, Side);
  struct Cluster {
    graph::Region Patch, Border;
  };
  std::vector<Cluster> Clusters;
  for (uint32_t Y = 1; Y + 4 < Side; Y += 8)
    for (uint32_t X = 1; X + 4 < Side; X += 8) {
      Cluster C;
      C.Patch = graph::gridPatch(Side, X, Y, 4);
      C.Border = G.border(C.Patch);
      Clusters.push_back(std::move(C));
    }
  const size_t Epochs = 32;
  uint64_t Fed = 0;
  trace::StreamingChecker::Metrics Last;
  for (auto _ : State) {
    trace::StreamingChecker SC(G);
    for (size_t E = 0; E < Epochs; ++E) {
      for (const Cluster &C : Clusters)
        for (NodeId N : C.Patch)
          SC.onCrash(N, 100);
      for (const Cluster &C : Clusters) {
        NodeId Hub = *C.Border.begin();
        for (NodeId N : C.Border)
          SC.onSend(150, N, Hub, 32); // In scope: dropped eagerly.
      }
      for (const Cluster &C : Clusters) {
        core::Value V = *C.Border.begin();
        for (NodeId N : C.Border)
          SC.onDecision(N, C.Patch, V, 200);
      }
      trace::CheckResult R = SC.sealEpoch();
      if (!R.Ok) {
        State.SkipWithError("synthetic churn trace is not CD-clean");
        return;
      }
    }
    Last = SC.metrics();
    Fed += Last.CrashesSeen + Last.MessagesSeen + Last.DecisionsSeen;
  }
  State.counters["state_highwater"] =
      static_cast<double>(Last.StateHighWater);
  State.counters["open_waves_hw"] =
      static_cast<double>(Last.OpenWavesHighWater);
  State.SetItemsProcessed(static_cast<int64_t>(Fed));
}
BENCHMARK(BM_StreamingCheckerChurn)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
