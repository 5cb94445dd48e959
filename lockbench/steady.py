#!/usr/bin/env python3
"""Steadiness check for the benchmark described in BENCHMARK.json.

Runs each workload several times back to back, cycling through the given
seeds, and prints for every end-to-end metric its median, quartiles,
largest deviation from the median, and spread: the distance between the
quartiles as a share of the median, as statistics.quantiles(values, n=4)
gives them. A metric is flagged when its spread is wider than its bound,
or when the median of the second half of the runs is worse than the first
half's by more than the bound. setup_s and the churn-1t latency_p99_us.*
readings are the ones that have been unsteady before; they are listed
again at the end.

Run from the root of the repository:

    python3 lockbench/steady.py                      # 6 runs, seeds 1,2
    python3 lockbench/steady.py --workload churn-1t --runs 4 --seconds 5
    python3 lockbench/steady.py --runs 10 --seeds 1,2,3,4,5,6,7,8,9,10

Exits 1 if any metric is flagged or any run fails or reports
"correct": false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WATCHED = ("setup_s", "latency_p99_us.")


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def worse(metric, a, b):
    """How much worse b is than a, as a share of a."""
    if a == 0:
        return 0.0
    change = (b - a) / a
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=6)
    ap.add_argument("--seeds", default="1,2", help="comma-separated, cycled through")
    ap.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--workload", action="append", help="repeatable; default: all")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    flagged, watched, failed_runs = [], [], 0

    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.runs):
            seed = seeds[i % len(seeds)]
            result = run_once(spec, workload, seed, seconds)
            if not result["correct"] or result["failed"]:
                failed_runs += 1
                print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"\n{workload}: {args.runs} runs of {seconds} s, seeds {seeds}")
        print(f"  {'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'maxdev':>8} "
              f"{'spread':>8} {'halves':>8} {'bound':>6}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = values[name]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            maxdev = max(abs(v - med) for v in vals) / med if med else 0.0
            half = len(vals) // 2
            drift = worse(metric, statistics.median(vals[:half]), statistics.median(vals[half:])) \
                if half else 0.0
            mark = ""
            if spread > bound or drift > bound:
                mark = "  FLAG"
                flagged.append(f"{workload} {name}")
            elif spread > bound / 3:
                mark = "  over a third of the bound"
            print(f"  {name:28} {med:14.6g} {q1:14.6g} {q3:14.6g} {maxdev:8.1%} "
                  f"{spread:8.1%} {drift:+8.1%} {bound:6.2f}{mark}")
            if name == "setup_s" or (workload == "churn-1t" and name.startswith(WATCHED[1])):
                watched.append(f"{workload} {name}: spread {spread:.1%}, halves {drift:+.1%}, "
                               f"bound {bound:.2f}")

    print("\nreadings that have been unsteady before:")
    for line in watched:
        print(f"  {line}")
    if flagged:
        print("\nspread or drift wider than the bound: " + ", ".join(flagged))
    if failed_runs:
        print(f"\n{failed_runs} run(s) reported failures")
    sys.exit(1 if flagged or failed_runs else 0)


if __name__ == "__main__":
    main()
