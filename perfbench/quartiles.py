#!/usr/bin/env python3
"""Runs workloads over several seeds and prints each metric's quartiles.

    python3 perfbench/quartiles.py [--workload <name>|all] [--seeds 1-10]
        [--seconds 25] [--trace 0|1] [--sets 1|2]

For each workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread, which is
(q3 - q1) / median. This is how the reference figures in README.md were
made. With --sets 2 it runs the whole set twice, back to back, and also
prints the change of each median from the first set to the second, in
the metric's worse direction, against the metric's bound from
BENCHMARK.json. It exits non-zero if any run fails or reports incorrect
answers.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_set(workloads, args):
    """Returns {workload: {metric: [values]}}, {metric: unit}, ok."""
    values = {}
    units = {}
    ok = True
    for workload in workloads:
        for seed in args.seeds:
            run = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if run.returncode != 0 or not result.get("correct"):
                sys.stderr.write(run.stderr)
                print("%s seed %d: FAILED (exit %d)"
                      % (workload, seed, run.returncode), flush=True)
                ok = False
                continue
            failed = result["failed"] / result["attempted"]
            values.setdefault(workload, {}).setdefault(
                "failed_share", []).append(failed)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
    return values, units, ok


def summary(vals):
    median = statistics.median(vals)
    if len(vals) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = names if args.workload == "all" else [args.workload]

    sets = []
    ok = True
    for _ in range(args.sets):
        values, units, set_ok = run_set(workloads, args)
        sets.append(values)
        ok = ok and set_ok
    for workload in workloads:
        for name in sets[0].get(workload, {}):
            unit = units.get(name, "share")
            line = "%-15s %-36s" % (workload, name)
            medians = []
            for values in sets:
                vals = values.get(workload, {}).get(name)
                if not vals:
                    continue
                median, q1, q3, spread = summary(vals)
                medians.append(median)
                line += " %14.6g [%.6g-%.6g] spread %.3f" % (
                    median, q1, q3, spread)
            line += " %s (n=%d)" % (unit, len(sets[0][workload][name]))
            if len(medians) == 2 and medians[0]:
                change = (medians[1] - medians[0]) / medians[0]
                metric = bounds.get(name)
                if metric and metric["better"] == "higher":
                    change = -change
                line += " worse-by %+.3f" % change
                if metric:
                    line += " (bound %.2f%s)" % (
                        metric["bound"],
                        ", OVER" if change > metric["bound"] else "")
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
