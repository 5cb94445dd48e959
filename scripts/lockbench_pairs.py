#!/usr/bin/env python3
"""Alternating pairs of two lockbench binaries on one or more workloads.

One pair per seed: the parent's binary and the change's binary each run
once on that seed, parent first on odd pairs and the change first on
even ones, so a slow phase of the host falls on both sides alike. Every
run is a plain lockbench run (`--trace 0`) of BENCHMARK.json's
`run_seconds` (30 s); only its final JSON line is read. `--workload`
takes one workload, a comma-separated list or `all`; the workloads run
one after another, each over every seed, and each gets its own summary.

For each end-to-end metric in BENCHMARK.json the summary prints each
side's median and quartiles, the ratio of the medians (change over
parent), and the pairs the change won. Two verdicts follow:

* gain: the change wins at least 9 of 10 pairs and its median beats the
  parent's by more than the parent's interquartile range;
* bound: the change's median is worse than the parent's by more than the
  metric's bound.

The exit status is 1 when, on some workload, a metric is worse than its
bound or the change fails a larger share of its attempted operations.

Build both sides' binaries from one checkout path, one after the other,
each with its own target dir: put the parent commit's files there and
build, then the change's files and build again:

    CARGO_TARGET_DIR=../lb-parent cargo build --release --offline \\
        --manifest-path lockbench/Cargo.toml

A checkout's path enters the crates' symbol hashes and with them the
order the code is laid out in. Built from two different paths, one
change once read about 1.16x on every backend of library-1t, including
backends that run none of the changed code.

Usage:

    python3 scripts/lockbench_pairs.py --parent ../lb-parent/release/lockbench \\
        --change ../lb-change/release/lockbench --workload contended-2t \\
        --seeds 21-30 [--record runs.jsonl]
    python3 scripts/lockbench_pairs.py --parent ... --change ... \\
        --workload library-1t,churn-1t    # or --workload all
    python3 scripts/lockbench_pairs.py --self-test
"""

import argparse
import contextlib
import io
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WORKLOADS = ("library-1t", "contended-2t", "churn-1t")


def load_metrics(path):
    """The end-to-end metrics as (name, better, bound), in file order."""
    spec = json.loads(Path(path).read_text())
    return [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]


def parse_seeds(text):
    """`21-30` or `1,5,9` (or a mix) into a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def parse_workloads(text):
    """One workload, `a,b` or `all` into a list of workloads, in order."""
    if text == "all":
        return list(WORKLOADS)
    workloads = text.split(",")
    for w in workloads:
        if w not in WORKLOADS:
            raise argparse.ArgumentTypeError(
                f"unknown workload {w!r}; expected one of {', '.join(WORKLOADS)} or all"
            )
    if len(set(workloads)) != len(workloads):
        raise argparse.ArgumentTypeError(f"a workload repeats in {text!r}")
    return workloads


def run_once(binary, workload, seed, seconds):
    """One lockbench run; returns its final JSON line as a dict."""
    cmd = [
        binary, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{binary} printed nothing")
    return json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3), interpolated between the sorted readings."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def beats(a, b, better):
    return a > b if better == "higher" else a < b


def summarize(metrics, pairs):
    """One row per metric over `pairs`, a list of (parent, change) runs."""
    rows = []
    for name, better, bound in metrics:
        readings = [
            (p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in pairs
            if name in p["metrics"] and name in c["metrics"]
        ]
        if not readings:
            continue
        parent = [p for p, _ in readings]
        change = [c for _, c in readings]
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        wins = sum(beats(c, p, better) for p, c in readings)
        n = len(readings)
        gain = 10 * wins >= 9 * n and beats(cmed, pmed, better) and abs(cmed - pmed) > pq3 - pq1
        if pmed:
            worse = (pmed - cmed) / pmed if better == "higher" else (cmed - pmed) / pmed
        else:
            worse = 0.0 if cmed == pmed else float("inf")
        rows.append({
            "metric": name,
            "parent": (pq1, pmed, pq3),
            "change": (cq1, cmed, cq3),
            "ratio": cmed / pmed if pmed else float("nan"),
            "wins": wins,
            "n": n,
            "gain": gain,
            "beyond_bound": worse > bound,
        })
    return rows


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def fmt(x):
    return f"{x:.4g}"


def report(workload, seeds, pairs, rows, out=sys.stdout):
    parent_fail = failed_share([p for p, _ in pairs])
    change_fail = failed_share([c for _, c in pairs])
    print(f"{workload}: {len(pairs)} pairs, seeds {','.join(map(str, seeds))}", file=out)
    print(f"failed share: parent {parent_fail:.3g}, change {change_fail:.3g}", file=out)
    print(
        f"{'metric':<24} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34}"
        f" {'ratio':>6} {'wins':>6}  gain  bound",
        file=out,
    )

    def side(q):
        return f"{fmt(q[1])} [{fmt(q[0])}, {fmt(q[2])}]"

    for r in rows:
        print(
            f"{r['metric']:<24} {side(r['parent']):<34} {side(r['change']):<34}"
            f" {r['ratio']:>6.3f} {r['wins']:>3}/{r['n']:<2}  {'yes' if r['gain'] else 'no':<4}"
            f"  {'WORSE' if r['beyond_bound'] else 'ok'}",
            file=out,
        )
    beyond = [r["metric"] for r in rows if r["beyond_bound"]]
    gains = [r["metric"] for r in rows if r["gain"]]
    print(f"gain rule holds for: {', '.join(gains) or 'none'}", file=out)
    print(f"worse than the bound: {', '.join(beyond) or 'none'}", file=out)
    return not beyond and change_fail <= parent_fail


def run_pairs(run, workload, seeds, record=None):
    """One alternating pair per seed; `run(side, workload, seed)` runs one
    side and returns its JSON line. Returns the (parent, change) runs."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            got[side] = run(side, workload, seed)
            if record:
                with open(record, "a") as f:
                    line = {"workload": workload, "pair": i + 1, "seed": seed, "side": side}
                    f.write(json.dumps({**line, "run": got[side]}) + "\n")
        pairs.append((got["parent"], got["change"]))
        thin = "ops_per_s.thin"
        print(
            f"{workload} pair {i + 1}/{len(seeds)} seed {seed}: {thin}"
            f" parent {fmt(got['parent']['metrics'][thin]['value'])}"
            f" change {fmt(got['change']['metrics'][thin]['value'])}",
            file=sys.stderr,
            flush=True,
        )
    return pairs


def run_workloads(run, workloads, seeds, metrics, record=None, out=sys.stdout):
    """Every workload in turn, one summary each as it completes. True when
    no workload breaks a bound."""
    ok = True
    for k, workload in enumerate(workloads):
        pairs = run_pairs(run, workload, seeds, record)
        if k:
            print(file=out)
        ok &= report(workload, seeds, pairs, summarize(metrics, pairs), out=out)
        out.flush()
    return ok


def canned(values):
    """A run's JSON line carrying only the given metric values."""
    return {
        "correct": True,
        "attempted": 1000,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": ""} for k, v in values.items()},
    }


def self_test():
    metrics = [
        ("ops_per_s.thin", "higher", 0.25),
        ("ops_per_s.cjm", "higher", 0.25),
        ("latency_p99_us.thin", "lower", 0.25),
        ("lock_bytes_peak.thin", "lower", 0.1),
    ]
    parent_thin = [4.07, 4.10, 4.15, 4.20, 4.22, 4.22, 4.25, 4.30, 4.33, 4.36]
    change_thin = [4.96, 5.00, 5.05, 5.10, 5.11, 5.12, 5.20, 5.25, 5.30, 5.33]
    pairs = []
    for i in range(10):
        # cjm: a 30% drop, beyond its bound; p99: nine wins of ten.
        p99_change = 0.90 if i == 0 else 0.68
        pairs.append((
            canned({"ops_per_s.thin": parent_thin[i], "ops_per_s.cjm": 6.0,
                    "latency_p99_us.thin": 0.80, "lock_bytes_peak.thin": 1344}),
            canned({"ops_per_s.thin": change_thin[i], "ops_per_s.cjm": 4.2,
                    "latency_p99_us.thin": p99_change, "lock_bytes_peak.thin": 1344}),
        ))
    rows = {r["metric"]: r for r in summarize(metrics, pairs)}

    thin = rows["ops_per_s.thin"]
    assert thin["wins"] == 10 and thin["gain"] and not thin["beyond_bound"], thin
    assert abs(thin["parent"][1] - 4.22) < 1e-9 and abs(thin["change"][1] - 5.115) < 1e-9
    assert abs(thin["ratio"] - 5.115 / 4.22) < 1e-12
    cjm = rows["ops_per_s.cjm"]
    assert cjm["wins"] == 0 and not cjm["gain"] and cjm["beyond_bound"], cjm
    p99 = rows["latency_p99_us.thin"]
    assert p99["wins"] == 9 and p99["gain"] and not p99["beyond_bound"], p99
    same = rows["lock_bytes_peak.thin"]
    assert same["wins"] == 0 and not same["gain"] and not same["beyond_bound"], same

    # Eight wins of ten is not a gain, however large the medians' gap.
    eight = [(canned({"ops_per_s.thin": 1.0}), canned({"ops_per_s.thin": 2.0 if i < 8 else 0.5}))
             for i in range(10)]
    assert not summarize(metrics[:1], eight)[0]["gain"]
    # Ten wins inside the parent's interquartile range are not a gain.
    spread = [(canned({"ops_per_s.thin": float(i)}), canned({"ops_per_s.thin": i + 0.5}))
              for i in range(10)]
    row = summarize(metrics[:1], spread)[0]
    assert row["wins"] == 10 and not row["gain"], row

    assert parse_seeds("21-30") == list(range(21, 31))
    assert parse_seeds("1,5-6") == [1, 5, 6]
    names = [name for name, _, _ in load_metrics(BENCHMARK)]
    assert "ops_per_s.thin" in names and "ok_ops_frac" in names, names

    sink = io.StringIO()
    assert not report("contended-2t", [21], pairs, list(rows.values()), out=sink)
    assert "worse than the bound: ops_per_s.cjm" in sink.getvalue(), sink.getvalue()

    assert parse_workloads("all") == list(WORKLOADS)
    assert parse_workloads("churn-1t,library-1t") == ["churn-1t", "library-1t"]
    for bad in ("library-1t,nope", "churn-1t,churn-1t", ""):
        try:
            parse_workloads(bad)
        except argparse.ArgumentTypeError:
            continue
        raise AssertionError(f"{bad!r} accepted")

    # Two workloads over three seeds: library-1t holds every bound and
    # churn-1t breaks cjm's, so the run fails although the first passes.
    calls = []

    def fake(side, workload, seed):
        calls.append((workload, seed, side))
        cjm = 4.2 if side == "change" and workload == "churn-1t" else 6.0
        return canned({"ops_per_s.thin": 5.0, "ops_per_s.cjm": cjm})

    sink = io.StringIO()
    with contextlib.redirect_stderr(io.StringIO()):
        assert not run_workloads(fake, ["library-1t", "churn-1t"], [1, 2, 3], metrics[:2], out=sink)
    text = sink.getvalue()
    assert text.count(" pairs, seeds 1,2,3") == 2, text
    library, churn = text.split("\n\nchurn-1t: ")
    assert library.startswith("library-1t: 3 pairs") and library.endswith("worse than the bound: none"), text
    assert churn.rstrip().endswith("worse than the bound: ops_per_s.cjm"), text
    # Each workload runs every seed, parent first on odd pairs.
    orders = [("parent", "change"), ("change", "parent"), ("parent", "change")]
    assert calls == [
        (w, seed, side)
        for w in ("library-1t", "churn-1t")
        for seed, order in zip([1, 2, 3], orders)
        for side in order
    ], calls
    with contextlib.redirect_stderr(io.StringIO()):
        assert run_workloads(fake, ["library-1t"], [1, 2], metrics[:2], out=io.StringIO())
    print("lockbench_pairs self-test OK")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", help="lockbench binary built from the parent commit")
    ap.add_argument("--change", help="lockbench binary built from the change")
    ap.add_argument(
        "--workload",
        type=parse_workloads,
        help=f"{', '.join(WORKLOADS)}, a comma-separated list of them, or all",
    )
    ap.add_argument("--seeds", default="21-30", help="one pair per seed: 21-30 or 1,5,9 (default 21-30)")
    ap.add_argument("--record", help="append every run's JSON line to this file")
    ap.add_argument("--self-test", action="store_true", help="check the summary on canned readings")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return 0
    if not (args.parent and args.change and args.workload):
        ap.error("--parent, --change and --workload are required")

    seconds = json.loads(BENCHMARK.read_text())["run_seconds"]
    binaries = {"parent": args.parent, "change": args.change}

    def run(side, workload, seed):
        return run_once(binaries[side], workload, seed, seconds)

    ok = run_workloads(run, args.workload, parse_seeds(args.seeds), load_metrics(BENCHMARK), args.record)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
