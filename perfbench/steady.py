#!/usr/bin/env python3
"""Steadiness check: runs one workload N times and reports each metric's spread.

Usage (from the repository root):

    python3 perfbench/steady.py --workload sma_sorted [--runs 10] [--first-seed 1]
                                [--seconds <run_seconds>] [--trace 0]

Each run gets its own seed (first-seed, first-seed+1, ...). For every metric
it prints the median, the first and third quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median. With --trace 0 it compares each
spread with the metric's bound in BENCHMARK.json: above the bound is FAIL,
above a third of it is WARN (the target for a steady benchmark). setup_s is
exempt from the spread check. Exits 1 on any FAIL, any incorrect run or any
failed operation.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write the raw results to this JSON file")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    problems = []
    raw = []
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            problems.append("seed %d: exit %d, no result" % (seed, proc.returncode))
            continue
        result = json.loads(lines[-1])
        raw.append({"seed": seed, "result": result})
        if not result["correct"] or result["failed"] != 0:
            problems.append("seed %d: correct=%s failed=%d/%d" % (
                seed, result["correct"], result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d done" % seed, file=sys.stderr)

    if args.save:
        with open(args.save, "w") as f:
            json.dump(raw, f, indent=1)

    print("%s: %d runs, %d s each" % (args.workload, len(raw), args.seconds))
    print("%-36s %12s %12s %12s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "flag"))
    failed = bool(problems)
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / abs(med) if med else float("inf")
        flag = ""
        bound = bounds.get(name) if args.trace == 0 else None
        if bound is not None and name != "setup_s":
            if spread > bound:
                flag = "FAIL"
                failed = True
            elif spread > bound / 3:
                flag = "WARN"
        print("%-36s %12.5g %12.5g %12.5g %8.4f %6s" %
              (name, med, q1, q3, spread, flag))
    for p in problems:
        print("problem: " + p)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
