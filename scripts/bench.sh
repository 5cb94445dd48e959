#!/usr/bin/env bash
# Benchmark telemetry pipeline (BENCHMARKS.md).
#
# Usage: scripts/bench.sh [run|gate|refresh-baseline|smoke] [extra reproduce args...]
#
#   run               full reproduction at the reference configuration,
#                     writing BENCH_thinlock.json at the repo root
#   gate              run, then diff against scripts/bench_baseline.json
#                     with the default noise tolerances; exits nonzero on
#                     regression (the per-PR perf check)
#   refresh-baseline  run, then adopt the fresh report as the committed
#                     baseline (do this after an intentional perf change,
#                     and commit both JSON files with the change)
#   smoke             tiny-iteration run into out/, id-coverage diff only
#                     (fast; wired into scripts/check.sh — timing is
#                     meaningless at smoke iteration counts)
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-run}"
shift || true

# The reference configuration EXPERIMENTS.md numbers come from.
REF_ARGS=(--iters 100000 --scale 2000)
REPORT=BENCH_thinlock.json
BASELINE=scripts/bench_baseline.json

cargo build --release --offline -p thinlock-bench

case "$MODE" in
run)
    ./target/release/reproduce all "${REF_ARGS[@]}" --json "$REPORT" "$@"
    ;;
gate)
    ./target/release/reproduce all "${REF_ARGS[@]}" --json "$REPORT" "$@"
    ./target/release/benchgate --baseline "$BASELINE" --current "$REPORT"
    ;;
refresh-baseline)
    ./target/release/reproduce all "${REF_ARGS[@]}" --json "$REPORT" "$@"
    cp "$REPORT" "$BASELINE"
    echo "baseline refreshed: $BASELINE (commit it together with $REPORT)"
    ;;
smoke)
    mkdir -p out
    ./target/release/reproduce all --iters 300 --scale 50000 \
        --json out/bench_smoke.json "$@" >out/bench_smoke_output.txt
    ./target/release/benchgate --baseline "$BASELINE" \
        --current out/bench_smoke.json --ids-only
    # The churn section per backend, through the --backend flag itself.
    for backend in thin cjm; do
        ./target/release/reproduce churn --iters 300 --scale 50000 \
            --backend "$backend" >>out/bench_smoke_output.txt
    done
    # The fairness section per backend (each run ends with the adaptive
    # profile -> pin demo on fissile).
    for backend in fissile hapax; do
        ./target/release/reproduce fairness --iters 300 --scale 50000 \
            --backend "$backend" >>out/bench_smoke_output.txt
    done
    echo "backend smoke (churn: thin, cjm; fairness: fissile, hapax)" \
        "appended to out/bench_smoke_output.txt"
    ;;
*)
    echo "usage: scripts/bench.sh [run|gate|refresh-baseline|smoke] [extra reproduce args...]" >&2
    exit 2
    ;;
esac
