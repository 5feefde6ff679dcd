#!/usr/bin/env python3
"""Run the micro benches, write BENCH_micro.json, and flag regressions.

Usage:
  tools/bench_compare.py [--build-dir build] [--out BENCH_micro.json]
                         [--baseline BENCH_micro.json] [--threshold 5]
                         [--update] [--input results.json]

Runs ``<build-dir>/bench_micro --benchmark_format=json`` (or consumes a
pre-recorded google-benchmark JSON file via --input), distills it into the
repo's BENCH_micro.json schema (see bench/README.md):

  {
    "schema": 1,
    "benchmarks": {"<name>": {"ns": <real_time ns per iteration>}, ...},
    "derived": {"crash_burst_allocs_per_crash_<arg>": <allocations>,
                "wire_v3_frame_bytes_<arg>": <bytes>, ...}
  }

When a baseline file exists, every benchmark present in both runs is
compared and the script exits non-zero if any slows down by more than
--threshold percent (derived speedups must not *drop* by more than the
threshold). --update rewrites the baseline with the fresh numbers.

Run bundles: when --input or --baseline names a *directory*, it is read
as a cliffedge run bundle (docs/run-bundles.md) — every artifact listed in
bundle_manifest.json is re-hashed (FNV-1a 64, mirroring
report::fnv1a64) before use, and summary.json is distilled into this
schema as ``campaign:``-prefixed derived metrics. Those are determinism
evidence, not wall-clock speedups, so they gate on ANY drift in either
direction, ignoring --threshold.
"""

import argparse
import json
import math
import os
import subprocess
import sys


def run_bench(build_dir, bench_filter=None):
    exe = os.path.join(build_dir, "bench_micro")
    if not os.path.exists(exe):
        sys.exit(f"error: {exe} not found — build the 'bench_micro' target first")
    cmd = [exe, "--benchmark_format=json"]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    out = subprocess.run(
        cmd,
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(out.stdout)


def fnv1a64(data):
    """FNV-1a 64-bit over bytes — must match report::fnv1a64 exactly."""
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def load_bundle(bundle_dir):
    """Reads a run bundle directory into the BENCH schema.

    Verifies every manifest entry against the artifact bytes on disk (a
    corrupt bundle must never distill into plausible numbers), then maps
    summary.json onto ``campaign:`` derived metrics.
    """
    manifest_path = os.path.join(bundle_dir, "bundle_manifest.json")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as err:
        sys.exit(f"error: {manifest_path}: {err}")
    summary = None
    for artifact in manifest.get("artifacts", []):
        name = artifact.get("name", "")
        if not name or "/" in name or ".." in name:
            sys.exit(f"error: {manifest_path}: invalid artifact name "
                     f"'{name}'")
        path = os.path.join(bundle_dir, name)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as err:
            sys.exit(f"error: {path}: {err}")
        if len(data) != artifact.get("bytes") or \
                f"{fnv1a64(data):016x}" != artifact.get("fnv1a64"):
            sys.exit(f"error: {path}: content does not match its manifest "
                     f"entry (bundle corrupt or hand-edited)")
        if name == "summary.json":
            summary = json.loads(data)
    if summary is None:
        sys.exit(f"error: {manifest_path}: no summary.json listed")

    derived = {}
    for key in ("jobs", "passed", "failed", "errors"):
        derived[f"campaign:{key}"] = summary.get(key, 0)
    for key, value in summary.get("totals", {}).items():
        derived[f"campaign:total_{key}"] = value
    results = summary.get("results", [])
    if results:
        derived["campaign:lat_p99_max"] = max(
            job.get("lat_p99", 0) for job in results)
        derived["campaign:retransmits"] = sum(
            job.get("retransmits", 0) for job in results)
        # last_decision is nullable (null = no decision time exists, which
        # is NOT zero); aggregate only over the jobs that have one and
        # count the null jobs separately, so a null <-> number flip drifts
        # one of the two metrics.
        decided = [job["last_decision"] for job in results
                   if job.get("last_decision") is not None]
        derived["campaign:last_decision_max"] = max(decided, default=0)
        derived["campaign:jobs_without_decision_time"] = \
            len(results) - len(decided)
    return {"schema": 1, "benchmarks": {}, "derived": derived}


def to_ns(entry):
    unit = entry.get("time_unit", "ns")
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
    return entry["real_time"] * scale


# BM_EngineQuakeStorm_Des on this container at the PR-3 baseline commit
# (BENCH_micro.json history). Originally an absolute ctest floor for the
# data-plane overhaul; retired to informational when the host's wall
# clock on the 100k-node working set swung ~40% within a day (see the
# CMakeLists.txt perf-gate comment) — the derived metric is still
# computed so the history stays comparable.
QUAKE_DES_PR3_NS = 224815880.333


def distill(gbench):
    benchmarks = {}
    counters = {}
    for entry in gbench.get("benchmarks", []):
        if entry.get("run_type", "iteration") != "iteration":
            continue
        benchmarks[entry["name"]] = {"ns": round(to_ns(entry), 3)}
        for key in ("allocs_per_msg", "steady_msgs", "state_highwater",
                    "open_waves_hw", "peak_rss_mb", "alloc_mb", "allocs",
                    "frame_bytes", "allocs_per_event", "allocs_per_crash",
                    "allocs_per_call"):
            if key in entry:
                counters[(entry["name"], key)] = entry[key]

    derived = {}

    def ratio(num_name, den_name, out_name):
        num = benchmarks.get(num_name)
        den = benchmarks.get(den_name)
        if num and den and den["ns"] > 0:
            derived[out_name] = round(num["ns"] / den["ns"], 2)

    # Heap allocations per crash of the incremental crash-burst kernel
    # (tracker set-up and max-view copies included), from the operator-new
    # hook: deterministic, so the larger patches carry --require ceilings.
    # A tracker that rescans the crashed set per crash allocates per
    # component and trips them.
    for arg in (8, 16, 32):
        value = counters.get((f"BM_CrashBurst_Incremental/{arg}",
                              "allocs_per_crash"))
        if value is not None:
            derived[f"crash_burst_allocs_per_crash_{arg}"] = round(value, 3)
    for arg in (8, 64, 512):
        ratio(
            f"BM_RegionUnion/{arg}",
            f"BM_RegionUnionInPlace/{arg}",
            f"region_union_alloc_over_inplace_{arg}",
        )
    # End-to-end engines on the 100k-node quake storm. Protocol work is
    # identical code on both sides, so this ratio only reflects the
    # delivery-layer differences.
    ratio(
        "BM_EngineQuakeStorm_Des",
        "BM_EngineQuakeStorm_Sharded",
        "engine_quake_des_over_sharded",
    )
    # Fault-plane gates. BM_ReliableChannelOverhead_Raw runs the exact
    # workload of BM_ScenarioCrashBurst/6 through the `link none`
    # configuration, so any cost leaking into the zero-loss bypass (the
    # tentpole contract: no plane, no per-message work) shows as extra
    # heap allocations or extra frame bytes per run — exact counts from
    # the operator-new hook and the network stats, gated <= 0 by the
    # ctest bench_compare (the plane engaging costs allocations at the
    # least). Their within-run time ratio, reliable_channel_overhead,
    # jitters ~+/-10% on a shared host and is informational only. The
    # armed (`link reliable`) and lossy ratios are the honest price of the
    # channel sublayer's machinery, tracked informationally.
    for counter, out in (("allocs", "reliable_channel_extra_allocs"),
                         ("frame_bytes", "reliable_channel_extra_bytes")):
        raw = counters.get(("BM_ReliableChannelOverhead_Raw", counter))
        base = counters.get(("BM_ScenarioCrashBurst/6", counter))
        if raw is not None and base is not None:
            derived[out] = round(raw - base, 1)
    ratio(
        "BM_ReliableChannelOverhead_Raw",
        "BM_ScenarioCrashBurst/6",
        "reliable_channel_overhead",
    )
    ratio(
        "BM_ReliableChannelOverhead_Armed",
        "BM_ReliableChannelOverhead_Raw",
        "reliable_channel_armed_ratio",
    )
    ratio(
        "BM_ReliableChannelOverhead_Lossy",
        "BM_ReliableChannelOverhead_Raw",
        "reliable_channel_lossy_ratio",
    )
    # Informational: DES quake storm against the pinned PR-3 measurement
    # of this container (see the note on QUAKE_DES_PR3_NS above).
    des = benchmarks.get("BM_EngineQuakeStorm_Des")
    if des and des["ns"] > 0:
        derived["engine_quake_des_speedup_vs_pr3"] = round(
            QUAKE_DES_PR3_NS / des["ns"], 2)
    # The live v3 path in deterministic counts: the frame's bytes and the
    # heap allocations per encode and decode call. The 32-member frame is
    # gated exactly and its allocations at zero; a full-region frame or a
    # per-call allocation trips them, on any host.
    for arg in (4, 32, 256):
        size = counters.get((f"BM_WireEncodeV3/{arg}", "frame_bytes"))
        if size is not None:
            derived[f"wire_v3_frame_bytes_{arg}"] = size
        for bench, out in (("BM_WireEncodeV3", "wire_v3_encode_allocs"),
                           ("BM_WireDecodeV3", "wire_v3_decode_allocs")):
            value = counters.get((f"{bench}/{arg}", "allocs_per_call"))
            if value is not None:
                derived[f"{out}_{arg}"] = float(f"{value:.3g}")
    # Allocations per processed event of one dense job (jittered storm +
    # checkAll) on each engine, from the operator-new hook: deterministic,
    # so both carry --require ceilings.
    dense = counters.get(("BM_DenseStormJob", "allocs_per_event"))
    if dense is not None:
        derived["dense_job_allocs_per_event"] = round(dense, 4)
    dense = counters.get(("BM_DenseStormJobSharded", "allocs_per_event"))
    if dense is not None:
        derived["dense_job_allocs_per_event_sharded"] = round(dense, 4)
    # The same count for one lossy sharded job (lossy_churn shape:
    # sharded merge, net ARQ, streaming checker).
    lossy = counters.get(("BM_LossyChurnJob", "allocs_per_event"))
    if lossy is not None:
        derived["lossy_job_allocs_per_event"] = round(lossy, 4)
    # Heap allocations per event of the sharded calendar once warm, the
    # larger of its two depths: zero unless something allocates per event
    # or per timestamp ever seen. Kept to three significant digits, not
    # rounded to a fixed place: an index growing with every timestamp
    # allocates about once per million events.
    queue = [counters.get((f"BM_EventDeliverySharded/{arg}",
                           "allocs_per_event")) for arg in (1024, 16384)]
    queue = [value for value in queue if value is not None]
    if queue:
        derived["event_queue_allocs_per_event"] = float(
            f"{max(queue):.3g}")
    # Steady-state allocation accounting from the operator-new hook.
    allocs = counters.get(("BM_RoundProcessing_Allocs", "allocs_per_msg"))
    if allocs is not None:
        derived["round_processing_allocs_per_msg"] = round(allocs, 4)
    # The streaming checker's memory contract: retained state is O(open
    # agreement waves), not O(trace). Absolute event counts, not times —
    # deterministic on any host, so they carry --require ceilings.
    for key, out in (("state_highwater", "streaming_state_highwater"),
                     ("open_waves_hw", "streaming_open_waves_hw")):
        value = counters.get(("BM_StreamingCheckerChurn", key))
        if value is not None:
            derived[out] = round(value, 1)
    # The million-node world's memory ceiling: process peak RSS (MB) after
    # the end-to-end DES run, from getrusage. Near-deterministic on one
    # host (allocator layout, not wall clock), so it carries a --require
    # ceiling; its wall-clock twin is informational like every absolute
    # time.
    rss = counters.get(("BM_EngineMillion_Des/iterations:1", "peak_rss_mb"))
    if rss is not None:
        derived["engine_million_peak_rss_mb"] = round(rss, 1)
    million = benchmarks.get("BM_EngineMillion_Des/iterations:1")
    if million and million["ns"] > 0:
        derived["engine_million_des_ms"] = round(million["ns"] / 1e6, 1)
    # The per-job floor at a million nodes: heap MB one idle job (empty
    # plan, then checkAll) requests, per backend, from the operator-new
    # byte sum. Deterministic, so the larger of the two carries a
    # --require ceiling; a dense per-node array creeping back into either
    # engine or the checker trips it.
    idle = {}
    for backend in ("des", "sharded"):
        value = counters.get((f"BM_IdleJob/{backend}", "alloc_mb"))
        if value is not None:
            idle[backend] = value
            derived[f"idle_job_alloc_mb_{backend}"] = round(value, 2)
    if len(idle) == 2:
        derived["idle_job_alloc_mb"] = round(max(idle.values()), 2)
    # The failure wave's heap bytes: eight 3x3 outages on the idle job's
    # world (BM_OutageJob) minus the idle job, sharded over DES. Both
    # engines host nodes on one NodeId-keyed paged store, so the ratio
    # stays near 1; a store striped by shard materializes a page per
    # stripe per outage and doubles it. Deterministic, gated by --require.
    wave = {}
    for backend in ("des", "sharded"):
        value = counters.get((f"BM_OutageJob/{backend}", "alloc_mb"))
        if value is not None and backend in idle:
            wave[backend] = value - idle[backend]
    if len(wave) == 2 and wave["des"] > 0:
        derived["outage_wave_alloc_sharded_over_des"] = round(
            wave["sharded"] / wave["des"], 3)
    # Heap MB one torus:1000x1000 build requests: the final CSR plus any
    # scratch array the builder adds. Deterministic, gated by --require.
    world = counters.get(("BM_WorldBuild", "alloc_mb"))
    if world is not None:
        derived["world_build_alloc_mb"] = round(world, 2)
    return {"schema": 1, "benchmarks": benchmarks, "derived": derived}


# Derived metrics computed against a *pinned absolute measurement* rather
# than a within-run denominator. They move with the host's wall clock, not
# with the code, so compare() never gates on them — they are tracked for
# the history only (the distill() comments say the same).
WALL_CLOCK_DERIVED = {"engine_quake_des_speedup_vs_pr3"}

# Derived metrics where *lower* is better (sizes, times), unlike the
# speedup ratios above: baseline comparison flags a rise past the
# threshold and treats any drop as an improvement. engine_million_des_ms
# is wall-clock on a 1M-node working set, so like the per-benchmark
# absolute times it never gates — the RSS ceiling is the committed bound.
LOWER_IS_BETTER = {"engine_million_peak_rss_mb", "engine_million_des_ms",
                   "idle_job_alloc_mb", "idle_job_alloc_mb_des",
                   "idle_job_alloc_mb_sharded",
                   "outage_wave_alloc_sharded_over_des",
                   "dense_job_allocs_per_event",
                   "dense_job_allocs_per_event_sharded",
                   "lossy_job_allocs_per_event",
                   "event_queue_allocs_per_event", "world_build_alloc_mb",
                   "crash_burst_allocs_per_crash_8",
                   "crash_burst_allocs_per_crash_16",
                   "crash_burst_allocs_per_crash_32"} | {
                       f"wire_v3_{kind}_{arg}" for arg in (4, 32, 256)
                       for kind in ("frame_bytes", "encode_allocs",
                                    "decode_allocs")}


def compare(baseline, fresh, threshold, absolute="gate"):
    """Returns a list of regression strings.

    With absolute="info" the raw per-benchmark ns deltas are printed but
    never gate: absolute wall-clock floors against a *committed* baseline
    trip on host-speed drift (the same binary measures tens of percent
    apart across container hosts), so cross-machine CI runs gate only on
    within-run derived ratios and the --require bounds. Same-machine
    comparisons (the bench_compare custom target) keep absolute="gate".
    """
    regressions = []
    for name, entry in sorted(fresh["benchmarks"].items()):
        base = baseline.get("benchmarks", {}).get(name)
        if not base:
            continue
        old, new = base["ns"], entry["ns"]
        if old <= 0:
            continue
        delta = (new - old) / old * 100.0
        marker = ""
        if delta > threshold:
            if absolute == "gate":
                marker = "  <-- REGRESSION"
                regressions.append(
                    f"{name}: {old:.1f} ns -> {new:.1f} ns (+{delta:.1f}%)")
            else:
                marker = "  <-- slower (informational: absolute time)"
        print(f"  {name}: {old:.1f} ns -> {new:.1f} ns ({delta:+.1f}%){marker}")
    for name, new in sorted(fresh["derived"].items()):
        old = baseline.get("derived", {}).get(name)
        if old is None:
            continue
        if name.startswith("campaign:"):
            # Bundle metrics are determinism evidence: any drift in either
            # direction is a regression, --threshold does not apply.
            marker = ""
            if new != old:
                marker = "  <-- REGRESSION (campaign metrics are exact)"
                regressions.append(f"{name}: {old} -> {new} (exact "
                                   f"campaign metric drifted)")
            print(f"  {name}: {old} -> {new}{marker}")
            continue
        if old <= 0:
            continue
        if name in LOWER_IS_BETTER:
            rise = (new - old) / old * 100.0
            marker = ""
            if rise > threshold:
                if name == "engine_million_des_ms":
                    marker = "  <-- higher (informational: wall clock)"
                else:
                    marker = "  <-- REGRESSION"
                    regressions.append(
                        f"{name}: {old} -> {new} (+{rise:.1f}%)")
            print(f"  {name}: {old} -> {new} ({rise:+.1f}%){marker}")
            continue
        drop = (old - new) / old * 100.0
        marker = ""
        if drop > threshold:
            if name in WALL_CLOCK_DERIVED:
                marker = "  <-- slower (informational: wall-clock pinned)"
            else:
                marker = "  <-- REGRESSION"
                regressions.append(
                    f"{name}: {old:.2f}x -> {new:.2f}x (-{drop:.1f}%)")
        print(f"  {name}: {old:.2f}x -> {new:.2f}x ({-drop:+.1f}%){marker}")
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--out", default="BENCH_micro.json")
    parser.add_argument("--baseline", default="BENCH_micro.json")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="max tolerated slowdown in percent (default 10: "
                             "sub-microsecond benches jitter several percent "
                             "run to run on shared machines)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline with this run")
    parser.add_argument("--input", default=None,
                        help="pre-recorded google-benchmark JSON instead of running")
    parser.add_argument("--filter", default=None, metavar="REGEX",
                        help="--benchmark_filter passed to bench_micro; "
                             "distill() tolerates the partial result (every "
                             "derived metric guards on the benchmarks it "
                             "needs), so a filtered run plus --require gives "
                             "a fast targeted gate (the ctest 'mem_smoke' "
                             "test runs only the memory benchmarks this way)")
    parser.add_argument("--require", action="append", default=[],
                        metavar="NAME>=VALUE",
                        help="absolute bound on a derived metric: a floor "
                             "(NAME>=VALUE), a ceiling "
                             "(round_processing_allocs_per_msg<=0) "
                             "or an exact value (wire_v3_frame_bytes_32==N). "
                             "Repeatable. Unlike --threshold these bounds "
                             "are immune to machine-to-machine noise, which "
                             "makes them the right gate for CI (the ctest "
                             "'bench_compare' test uses them).")
    parser.add_argument("--absolute", choices=("gate", "info"),
                        default="gate",
                        help="whether absolute per-benchmark times gate the "
                             "comparison (default) or are informational. "
                             "'info' is for cross-machine CI: wall-clock "
                             "floors trip on host-speed drift there, so only "
                             "within-run derived ratios and --require bounds "
                             "gate (the ctest 'bench_compare' test uses it)")
    args = parser.parse_args()

    requirements = []
    for spec in args.require:
        for op in (">=", "<=", "=="):
            name, sep, value = spec.partition(op)
            if sep:
                try:
                    bound = float(value)
                except ValueError:
                    sys.exit(f"error: --require bound must be numeric, "
                             f"got '{spec}'")
                requirements.append((name.strip(), op, bound))
                break
        else:
            sys.exit(f"error: --require wants NAME>=VALUE, NAME<=VALUE or "
                     f"NAME==VALUE, got '{spec}'")

    # Load the baseline before anything is written: --out and --baseline may
    # be the same file.
    baseline_path = args.baseline
    baseline = None
    if not args.update and os.path.isdir(baseline_path):
        baseline = load_bundle(baseline_path)
    elif not args.update and os.path.exists(baseline_path) and \
            os.path.getsize(baseline_path) > 0:
        with open(baseline_path) as fh:
            baseline = json.load(fh)

    if args.input and os.path.isdir(args.input):
        fresh = load_bundle(args.input)
    elif args.input:
        with open(args.input) as fh:
            gbench = json.load(fh)
        fresh = distill(gbench)
    else:
        fresh = distill(run_bench(args.build_dir, args.filter))

    with open(args.out, "w") as fh:
        json.dump(fresh, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out} ({len(fresh['benchmarks'])} benchmarks)")

    for name, value in sorted(fresh["derived"].items()):
        # campaign: metrics are counts/ticks and the LOWER_IS_BETTER set
        # carries absolute units (MB, ms) — neither is a speedup ratio.
        plain = name.startswith("campaign:") or name in LOWER_IS_BETTER
        suffix = "" if plain else "x"
        print(f"  {name}: {value}{suffix}")

    floor_failures = []
    for name, op, bound in requirements:
        value = fresh["derived"].get(name)
        if value is None:
            floor_failures.append(f"{name}: not measured (bound {op}{bound})")
        elif op == ">=" and value < bound:
            floor_failures.append(f"{name}: {value} below floor {bound}")
        elif op == "<=" and value > bound:
            floor_failures.append(f"{name}: {value} above ceiling {bound}")
        elif op == "==" and value != bound:
            floor_failures.append(f"{name}: {value} is not exactly {bound}")
    if floor_failures:
        print("\nFLOOR FAILURES:")
        for f in floor_failures:
            print(f"  {f}")
        return 1

    if baseline is None:
        if os.path.abspath(baseline_path) != os.path.abspath(args.out):
            with open(baseline_path, "w") as fh:
                json.dump(fresh, fh, indent=2, sort_keys=True)
                fh.write("\n")
        print(f"baseline {baseline_path} updated")
        return 0
    print(f"comparing against {baseline_path} (threshold {args.threshold}%, "
          f"absolute times {args.absolute}):")
    regressions = compare(baseline, fresh, args.threshold, args.absolute)
    if regressions:
        print("\nREGRESSIONS:")
        for r in regressions:
            print(f"  {r}")
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
