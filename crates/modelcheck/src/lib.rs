//! Exhaustive protocol model checking for the thin-lock reproduction.
//!
//! The paper's correctness argument is informal: the lock word encoding
//! plus the one-way inflation discipline are claimed to preserve mutual
//! exclusion across every interleaving of the fast path, the spin/CAS
//! slow path, and the fat monitor hand-off. This crate checks that
//! claim mechanically against the *real* `thinlock-runtime`
//! implementation — not a model of it — by running small thread
//! programs under a cooperative scheduler that serializes execution at
//! the protocol's schedule points
//! ([`SchedPoint`](thinlock_runtime::schedule::SchedPoint), the seam
//! added next to the fault-injection hooks) and exploring every
//! interleaving with stateless DFS plus Flanagan–Godefroid dynamic
//! partial-order reduction and sleep sets.
//!
//! * [`sched`] — the [`CoopScheduler`]: workers block at each schedule
//!   point; a controller observes quiescent states and grants one step
//!   at a time, so the schedule *is* the interleaving.
//! * [`program`] — the [`McProgram`] op language (lock / unlock /
//!   rogue-unlock / wait / notify-set), worker bodies, enabledness, and
//!   [`run_execution`], one controlled run.
//! * [`invariant`] — the per-quiescent-state invariant suite: mutual
//!   exclusion, lock-word well-formedness and model conformance,
//!   balanced acquire/release, no lost wakeups, and a shape-transition
//!   invariant keyed to the backend — one-way inflation for the thin
//!   protocol, deflation safety for deflation-capable backends
//!   (`lockmc --backend cjm`).
//! * [`mod@explore`] — DFS + DPOR [`explore()`], schedule [`replay`],
//!   and counterexample [`shrink`]ing.
//! * [`mutate`] — seeded protocol bugs ([`MutationKind`]) the checker
//!   must catch, wrapped as a [`MutantProtocol`].
//! * [`suite`] — the `lockmc` verify and mutation suites with their
//!   program catalog, report types and the report printers the `lockmc`
//!   binary and `reproduce lockmc` share.
//!
//! See DESIGN.md §14 for the scheduler seam, the reduction argument,
//! and the mutation-testing contract.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod explore;
pub mod invariant;
pub mod mutate;
pub mod program;
pub mod sched;
pub mod suite;

pub use explore::{
    explore, explore_with, replay, shrink, Decision, ExploreOutcome, ExploreStats, FoundViolation,
    Limits, Mode,
};
pub use invariant::InvariantState;
pub use mutate::{MutantProtocol, MutationKind};
pub use program::{run_bodies, run_execution, McOp, McProgram, Pick, Violation};
pub use sched::{run_worker, CoopScheduler, Label, WorkerExit, WorkerStatus, WorkerView};
pub use suite::{
    mutation_programs, reduction_factor, report_mutations, report_verify, run_mutations,
    run_verify, verify_programs, Counterexample, MutationReport, VerifyReport,
};
