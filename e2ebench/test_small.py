#!/usr/bin/env python3
"""The benchmark's own test: runs every workload of BENCHMARK.json in the
small-size mode of the same command, timed and traced, and checks that
each run prints exactly the metrics BENCHMARK.json lists, with their
units, every value finite, every end-to-end value above 0, and no
failed operation or output check.

Run from the repository root: python3 e2ebench/test_small.py
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--small"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        return None, "exit %d: %s" % (proc.returncode, proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None, "no output"
    return json.loads(lines[-1]), None


def check(result, specs, positive):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("keys %s" % sorted(result))
    if result.get("correct") is not True:
        errors.append("correct is %r" % result.get("correct"))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted is %r" % result.get("attempted"))
    if result.get("failed") != 0:
        errors.append("failed is %r" % result.get("failed"))
    metrics = result.get("metrics", {})
    wanted = {m["name"]: m["unit"] for m in specs}
    if set(metrics) != set(wanted):
        errors.append("metric names differ: missing %s, extra %s" % (
            sorted(set(wanted) - set(metrics)),
            sorted(set(metrics) - set(wanted))))
    for name, unit in wanted.items():
        m = metrics.get(name)
        if m is None:
            continue
        value = m.get("value")
        if m.get("unit") != unit:
            errors.append("%s unit %r, want %r" % (name, m.get("unit"), unit))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s = %r is not finite" % (name, value))
        elif positive and value <= 0:
            errors.append("%s = %r is not above 0" % (name, value))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, specs, positive in ((0, bench["end_to_end"], True),
                                       (1, bench["per_layer"], False)):
            result, error = run(workload, trace)
            errors = [error] if error else check(result, specs, positive)
            status = "ok" if not errors else "FAIL"
            print("%-22s trace %d: %s" % (workload, trace, status))
            for e in errors:
                print("    " + e)
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
