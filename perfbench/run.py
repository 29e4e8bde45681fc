#!/usr/bin/env python3
"""Build the lsra benchmark from source and run one workload.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to .bench_build/perfbench
(configured once, then brought up to date on every run); sockets and
request logs of a run go to .bench_run/ and are removed by it. The last
line of stdout is the result JSON; build output goes to stderr.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_run")
WORKLOADS = ("corpus", "table3", "serve-cold", "serve-warm")


def build():
    """Configure on first use, then build; False when either step fails."""
    out = sys.stderr
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=out, stderr=out)
        if r.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                       stdout=out, stderr=out)
    return r.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the output checker's own test and exit")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if a.self_test:
        return subprocess.run(
            [os.path.join(BUILD, "perfbench-checks-test")]).returncode
    os.makedirs(RUN_DIR, exist_ok=True)
    # The socket path is given relative to the checkout root, so a long
    # checkout path cannot overflow sun_path.
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--lsra", os.path.join(BUILD, "lsra"),
           "--run-dir", os.path.relpath(RUN_DIR, ROOT)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=a.seconds + 150)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
