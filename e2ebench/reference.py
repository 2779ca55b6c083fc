#!/usr/bin/env python3
"""Regenerates the reference figures in e2ebench/README.md.

Run from the repository root:

    python3 e2ebench/reference.py

For each workload of BENCHMARK.json it makes two sets of timed runs, one
run per seed 1-10 at BENCHMARK.json's run_seconds, and prints per set the
median and quartiles of every end-to-end metric and the quartile spread
as a share of the median (statistics.quantiles, n=4). It also prints how
far the second set's median moved from the first's, in the metric's
worse direction, against the metric's bound. Then it makes one traced
run per workload (seed 1) and prints its per-layer breakdown. Runs are
sequential; the whole job takes about 25 minutes.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
SEEDS = range(1, 11)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        sys.exit("%s seed %d failed with %d" % (workload, seed,
                                                 proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("%s seed %d: correct=%s failed=%d" % (
            workload, seed, result["correct"], result["failed"]))
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]

    for workload in (w["name"] for w in bench["workloads"]):
        medians = []
        print("\n### %s (%d seeds x %d s per set)\n" % (
            workload, len(SEEDS), seconds))
        print("| metric | unit | set | median | Q1 | Q3 | spread |")
        print("|---|---|---|---|---|---|---|")
        for s in range(SETS):
            runs = [run(workload, seed, seconds, 0) for seed in SEEDS]
            set_medians = {}
            for m in bench["end_to_end"]:
                values = [r["metrics"][m["name"]]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                set_medians[m["name"]] = med
                print("| %s | %s | %d | %.6g | %.6g | %.6g | %.3f |" % (
                    m["name"], m["unit"], s + 1, med, q1, q3,
                    (q3 - q1) / med))
            medians.append(set_medians)
            sys.stdout.flush()
        print("\n| metric | bound | set 2 vs set 1 (worse direction) |")
        print("|---|---|---|")
        for m in bench["end_to_end"]:
            a, b = medians[0][m["name"]], medians[1][m["name"]]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            print("| %s | %.2f | %+.3f |" % (m["name"], m["bound"], worse))

    print("\n### Traced breakdown (seed %d)\n" % SEEDS[0])
    for workload in (w["name"] for w in bench["workloads"]):
        result = run(workload, SEEDS[0], seconds, 1)
        print("\n%s:\n" % workload)
        print("| metric | value | unit |")
        print("|---|---|---|")
        for name, m in result["metrics"].items():
            if m["value"] != 0:
                print("| %s | %.6g | %s |" % (name, m["value"], m["unit"]))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
