#!/usr/bin/env python3
"""Build and run the cliffedge end-to-end benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/CMakeLists.txt (the
library sources of the checkout plus the benchmark) in Release mode under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; later calls only let the build tool confirm it is up to date.
Build output goes to stderr, so the benchmark's own stdout, whose last
line is one JSON object, passes through unchanged. The exit code is the
benchmark's: 0 only when every op passed its checks.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_DIR = os.path.join(BENCH_DIR, "workloads")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds; returns False on any failure."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", out, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def run(cmd):
    """Runs \\p cmd, relaying its stdout; returns (exit code, last line)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1, ""
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def main():
    # A SIGTERM unwinds through subprocess.run, which kills and reaps the
    # child before the exception leaves it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    workloads = sorted(f[:-4] for f in os.listdir(WORKLOAD_DIR)
                       if f.endswith(".scn"))
    if not args.self_test and args.workload not in workloads:
        ap.error("--workload must be one of: " + ", ".join(workloads))

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3

    if args.self_test:
        code, _ = run([os.path.join(build_dir(), "perfbench_selftest")])
        return code

    out_dir = build_dir()
    code, last = run([os.path.join(out_dir, "perfbench"),
                      "--workload", args.workload,
                      "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace),
                      "--spec-dir", WORKLOAD_DIR,
                      "--out-dir", out_dir])
    try:
        result = json.loads(last)
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if not ok:
        print("perfbench: no result line", file=sys.stderr)
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
