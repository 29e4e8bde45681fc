#!/usr/bin/env python3
"""Steadiness check for the lsra benchmark.

    python3 perfbench/steady.py

Runs perfbench/run.py 10 times per workload of BENCHMARK.json in each of two
sets, every run with its own seed (set s, run i uses seed 1000*s + i + 1).
For each set it prints every end-to-end metric's median and its spread (the
distance between the first and third quartiles, as a share of the median),
then says whether the two sets agree: every spread within the metric's
bound in BENCHMARK.json, the two medians within that bound of each other,
the same share of failed operations in both sets, and the exact counts
(dyn_instrs, dyn_spill_instrs, code_instrs) equal in every run. Exit status
0 when they agree. Run from the root of a checkout; it takes about
80 x (run_seconds + 4) seconds.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2
EXACT = ("dyn_instrs", "dyn_spill_instrs", "code_instrs")


def run_once(spec, workload, seed):
    cmd = ["python3", os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {r.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def host_stamp():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True).stdout.strip() or "unknown"
    return {"nproc": os.cpu_count(), "cpu": model,
            "build_type": "RelWithDebInfo", "git_sha": sha}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    print("host:", json.dumps(host_stamp()))
    ok = True
    for w in (w["name"] for w in spec["workloads"]):
        sets = [[run_once(spec, w, 1000 * s + i + 1) for i in range(RUNS)]
                for s in range(SETS)]
        print(f"\n== {w}")
        shares = set()
        for s, runs in enumerate(sets):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            shares.add(failed / attempted)
            print(f"  set {s + 1}: {attempted} attempted, {failed} failed")
        if len(shares) > 1 or not all(r["correct"] for runs in sets
                                      for r in runs):
            ok = False
            print("  failed-operation shares differ or a run was incorrect")
        print(f"  {'metric':<18}{'median1':>16}{'spread1':>9}"
              f"{'median2':>16}{'spread2':>9}  agree")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [[r["metrics"][name]["value"] for r in runs]
                    for runs in sets]
            meds = [statistics.median(v) for v in vals]
            sprs = [spread(v) for v in vals]
            agree = (all(s <= bound for s in sprs) and meds[0] != 0 and
                     abs(meds[1] - meds[0]) / meds[0] <= bound)
            if name in EXACT:
                agree = agree and len({x for v in vals for x in v}) == 1
            ok = ok and agree
            print(f"  {name:<18}" + "".join(
                f"{meds[s]:>16.6g}{sprs[s]:>9.4f}" for s in range(SETS)) +
                f"  {'yes' if agree else 'NO'} (bound {bound})")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
