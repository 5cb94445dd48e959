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

echo "== lockbench's own tests (library-1t checksum, traced lock spans per VM request)"
cargo test -q --offline --manifest-path lockbench/Cargo.toml

echo "== core and monitor crate tests in release (deflation, admission and fat-monitor arrival/release races need optimized timing)"
cargo test -q --release --offline -p thinlock -p thinlock-monitor

# lockcheck --deny-races is static analysis only, so its output is
# deterministic and pinned byte for byte in scripts/lockcheck/. The plan
# gate replays the programs on real threads: its per-site contended
# counts follow the host's schedule, so only its exit code is checked.
echo "== lockcheck: race verdicts must match ground truth"
cargo run -q --release --offline -p thinlock-analysis --bin lockcheck -- \
    --deny-races | diff -u scripts/lockcheck/deny-races.txt -

echo "== lockcheck: static SyncPlan must agree with the dynamic contention profile"
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

echo "== bench smoke: tiny reproduce --json run + id-coverage gate"
bash scripts/bench.sh smoke

echo "== chaos: seeded fault-injection sweep"
bash scripts/chaos.sh

echo "== supervise: crash-matrix slice + degraded run"
bash scripts/supervise.sh

echo "All checks passed."
