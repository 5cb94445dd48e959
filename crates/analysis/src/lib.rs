//! `lockcheck`: static lock-discipline analysis for the thin-locks VM.
//!
//! Passes layered on the abstract-interpretation verifier of
//! `thinlock_vm::verify`, each exploiting a premise of the paper (locking
//! is shallow, uncontended, and mostly thread-local) to prove facts about
//! a program's `MonitorEnter`/`MonitorExit` behaviour *before* it runs.
//! The verifier's fixpoint is the only dataflow over the bytecode; every
//! pass starts from the facts [`lockstack`] reads off it:
//!
//! * [`lockstack`] — one walk over the verifier's per-pc frames, which
//!   track *which* pool constant or argument each held lock came from at
//!   every program point, turning them into acquire, monitor, cond,
//!   invoke and field-access sites, with instruction-precise diagnostics
//!   for unbalanced or mismatched monitor operations. Its
//!   `summary_fixpoint` is the interprocedural summary loop the
//!   lock-order, guards and contention passes share.
//! * [`lockorder`] — a lock-order graph built from held-while-acquiring
//!   edges across all methods (interprocedurally, through `Invoke`), with
//!   cycle detection that flags potential deadlocks.
//! * [`escape`] — a conservative thread-escape analysis marking sync
//!   operations on provably thread-local objects elidable; its result
//!   feeds `thinlock_vm::transform::elide_local_sync`.
//! * [`nestdepth`] — a static nest-depth bound per pool object; nesting
//!   that can exceed the paper's 255 thin-lock count (Section 2.3.3)
//!   yields *pre-inflation hints* the interpreter applies via
//!   `ThinLocks::pre_inflate`, so overflow inflation never happens in the
//!   middle of a critical section.
//! * [`guards`] — an Eraser/RacerD-style lockset pass: per-field
//!   intersection of the locks provably held across every reachable
//!   access infers `@GuardedBy` facts, and a field written with an empty
//!   lockset while reachable from more than one thread-role is flagged
//!   as a race candidate. Cross-checked at runtime by the dynamic Eraser
//!   sanitizer in `thinlock_obs`.
//! * [`contention`] — interprocedural contention-shape inference: loop
//!   weights times thread roles classify every pool site (thread-local,
//!   uncontended, hot-mutex, wait-heavy, churn), and each site's verdict
//!   carries the plan its shape implies (elision, pre-inflation, FIFO
//!   pinning, a backend hint). The plan is advisory: a caller delivers
//!   a flag through the protocol's `pre_inflate_hint` or
//!   `pin_fifo_hint`. `lockcheck --plan`
//!   cross-checks the static plan against the dynamic
//!   `ContentionProfile` of the same program, site by site.
//!
//! [`report`] assembles the per-method findings of all passes, and
//! [`driver`] runs them over the built-in program library, with the
//! race and plan cross-checks over the concurrent library. The
//! `lockcheck` binary prints the driver's result either as
//! human-readable text or, via `--json`, as a machine-readable document
//! produced by [`json`]; `reproduce lockcheck` prints a summary of the
//! same run.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod contention;
pub mod driver;
pub mod escape;
pub mod guards;
pub mod json;
pub mod lockorder;
pub mod lockstack;
pub mod nestdepth;
pub mod report;

pub use report::{analyze_concurrent, analyze_program, analyze_program_with_roles, AnalysisReport};
