#!/usr/bin/env python3
"""Checks that a single cliffedge-sim run does not depend on --jobs.

Usage:

    python3 tools/jobs_replay_smoke.py --sim build/cliffedge-sim \\
        --jobs 1 --jobs 4 -- --scenario scenarios/large_torus_quake.scn \\
        --backend sharded --check

Runs the simulator once per --jobs value with the arguments after `--`
and requires every run to exit 0 and to print byte-identical stdout
(verdict, counters, decisions). Exits 0 when they all agree, 1 otherwise,
printing the first differing line of each disagreeing run.
"""

import argparse
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sim", required=True)
    ap.add_argument("--jobs", action="append", type=int, required=True)
    ap.add_argument("args", nargs=argparse.REMAINDER)
    opts = ap.parse_args()
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args

    outputs = []
    for jobs in opts.jobs:
        cmd = [opts.sim] + args + ["--jobs", str(jobs)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print("jobs %d: exit %d" % (jobs, proc.returncode))
            return 1
        outputs.append((jobs, proc.stdout))

    ref_jobs, ref = outputs[0]
    ok = True
    for jobs, out in outputs[1:]:
        if out == ref:
            continue
        ok = False
        a, b = ref.splitlines(), out.splitlines()
        line = next((i for i in range(min(len(a), len(b))) if a[i] != b[i]),
                    min(len(a), len(b)))
        print("jobs %d and jobs %d differ at stdout line %d:" %
              (ref_jobs, jobs, line + 1))
        print("  jobs %d: %s" % (ref_jobs, a[line] if line < len(a) else ""))
        print("  jobs %d: %s" % (jobs, b[line] if line < len(b) else ""))
    if ok:
        print("stdout identical at --jobs %s" %
              ", ".join(str(j) for j in opts.jobs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
