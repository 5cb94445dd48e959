#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 build + test cycle.
# Everything runs offline; no network access is required or attempted.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc (no deps, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== tier-1: cargo build --release"
cargo build --release --offline

echo "== tier-1: cargo test -q"
cargo test -q --offline

# --locked: lockbench/Cargo.lock belongs to the benchmark, so a change
# that would rewrite it (a dependency edge added or dropped) fails here
# instead of editing it silently.
echo "== lockbench's own tests (library-1t checksum, traced lock spans per VM request)"
cargo test -q --offline --locked --manifest-path lockbench/Cargo.toml

echo "== core, monitor and baselines crate tests in release (deflation, admission, fat-monitor arrival/release and baseline promote/evict races need optimized timing)"
cargo test -q --release --offline -p thinlock -p thinlock-monitor -p thinlock-baselines

# lockcheck --deny-races and --json are static analysis only, so their
# outputs are deterministic and pinned byte for byte in scripts/lockcheck/
# (--json holds every catalog program's contention sites and plan flags).
# The plan gate replays the programs on real threads: its per-site
# contended counts follow the host's schedule, so only its exit code is
# checked.
echo "== lockcheck: race verdicts must match ground truth"
cargo run -q --release --offline -p thinlock-analysis --bin lockcheck -- \
    --deny-races | diff -u scripts/lockcheck/deny-races.txt -

echo "== lockcheck: the JSON report is unchanged"
cargo run -q --release --offline -p thinlock-analysis --bin lockcheck -- \
    --json | diff -u scripts/lockcheck/json.txt -

echo "== lockcheck: static site plan flags must agree with the dynamic contention profile"
cargo run -q --release --offline -p thinlock-analysis --bin lockcheck -- --deny-disagreement >/dev/null

# lockmc's quick output is deterministic, so it is pinned byte for byte
# in scripts/lockmc/: a change to the protocol's schedule points, their
# order or the events they emit shows up here as a diff. Regenerate a
# file (and review the diff) only when such a change is intended.
echo "== lockmc: bounded interleaving exploration must stay clean (thin, cjm, fissile, hapax)"
for backend in thin cjm fissile hapax; do
    cargo run -q --release --offline -p thinlock-modelcheck --bin lockmc -- \
        verify --quick --backend "$backend" | diff -u "scripts/lockmc/verify-$backend.txt" -
done

echo "== lockmc: every seeded protocol mutation must be caught (thin, cjm, fissile, hapax)"
for backend in thin cjm fissile hapax; do
    cargo run -q --release --offline -p thinlock-modelcheck --bin lockmc -- \
        --mutate --quick --backend "$backend" | diff -u "scripts/lockmc/mutate-$backend.txt" -
done

echo "== lockbench_pairs: summary and verdicts on canned readings"
python3 scripts/lockbench_pairs.py --self-test

echo "== bench smoke: tiny reproduce --json run + id-coverage gate"
bash scripts/bench.sh smoke

echo "== chaos: seeded fault-injection sweep"
bash scripts/chaos.sh

echo "== supervise: crash-matrix slice + degraded run"
bash scripts/supervise.sh

echo "All checks passed."
