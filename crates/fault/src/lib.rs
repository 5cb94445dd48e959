//! Deterministic fault injection and the seeded chaos harness.
//!
//! This crate is the test-side half of the fault seam declared in
//! `thinlock_runtime::fault`: the protocol crates expose labeled
//! [`InjectionPoint`](thinlock_runtime::fault::InjectionPoint)s through
//! their one instrumentation hook (free when it is the default
//! `NoHooks`), and this crate supplies the injectors that drive them,
//! attached through a `HookSet`.
//!
//! - [`FaultPlan`] — a seeded, per-point probabilistic
//!   [`FaultInjector`](thinlock_runtime::fault::FaultInjector) with
//!   rates, budgets, and fire counters. Same seed, same decisions.
//! - [`chaos`] — randomized multi-threaded schedules
//!   driven through a faulted protocol and cross-checked against a
//!   `std::sync::Mutex` oracle; any divergence is reported with the
//!   seed that replays it.
//! - [`agent`] — the process envelope around one chaos schedule: JSON
//!   heartbeats on stdout, atomic artifact writes, and the
//!   `--abort-at` crash armament (the `chaos-agent` binary).
//! - [`mod@supervise`] — the crash-chaos supervisor: spawns agent
//!   processes, watches heartbeats and deadlines, kills stragglers,
//!   retries with seeded jittered backoff, reports graceful
//!   degradation, and drives the backend × injection-point crash
//!   matrix (the `supervisor` binary, `scripts/supervise.sh`).
//!
//! The crate-level tests (`tests/`) are the robustness suite of
//! DESIGN.md §11: the ≥1000-seed chaos sweep, orphaned-lock recovery,
//! timed/try acquisition end-to-end, spurious-wakeup properties, and
//! exhaustion-error recovery. The `chaos` binary runs the same sweep
//! from the command line (`scripts/chaos.sh`). DESIGN.md §16 documents
//! the supervision protocol and the crash-matrix methodology.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod agent;
pub mod chaos;
pub mod plan;
pub mod supervise;

pub use chaos::{run_schedule, ChaosConfig, ChaosReport, ChaosTotals};
pub use plan::{FaultPlan, POINTS, PPM};
pub use supervise::{
    crash_matrix, supervise, AgentSpec, DegradationReport, MatrixReport, Outcome, SupervisorConfig,
};
