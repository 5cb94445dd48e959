//! Macro-benchmark workload model and lock-trace replay.
//!
//! The paper's macro-benchmarks (Table 1, Figures 3 and 5) are eighteen
//! real Java programs — compilers, parsers, obfuscators, documentation
//! tools — that we cannot run without a full JVM and their (long-gone)
//! inputs. What the locking protocols actually *see* of those programs,
//! however, is fully captured by a handful of distributional facts that
//! Table 1 and Figure 3 report:
//!
//! * how many objects are created, and how many are ever synchronized;
//! * how many synchronization operations occur, and how they concentrate
//!   on few hot objects (median 22.7 syncs per synchronized object, with
//!   extremes like `HashJava`'s 4312);
//! * the nesting-depth mix (≥45%, median 80%, of lock operations hit an
//!   unlocked object; none nest deeper than four).
//!
//! This crate substitutes each benchmark with a *synthetic lock trace*
//! drawn from exactly those distributions ([`table1`] holds the per-
//! benchmark profiles, [`generator`] samples traces, [`characterize`]
//! verifies the samples match), and [`replay`] runs a trace against any
//! [`SyncProtocol`](thinlock_runtime::protocol::SyncProtocol) — which is
//! how the Figure 5 speedups are regenerated. See DESIGN.md §5 for why
//! this substitution preserves the relevant behaviour. Traces are never
//! stored: generation is a pure function of (profile, seed, scale), so
//! a run regenerates exactly the trace an earlier run replayed.
//! [`concurrent`] extends the model to the paper's multithreaded design
//! target: the same distributions split across worker threads with the
//! hottest objects shared. [`vmreplay`] runs the VM's seeded concurrent
//! bytecode programs under barrier-released worker threads with
//! seed-derived schedule perturbation, streaming every lock and field
//! event through a caller-supplied sink — the harness behind the
//! static/dynamic race-detector cross-check.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod characterize;
pub mod concurrent;
pub mod generator;
pub mod replay;
pub mod table1;
pub mod vmreplay;

/// The deterministic, seedable PRNG the generators sample from — an
/// in-repo SplitMix64/xorshift128+ pair (no external `rand` dependency,
/// so the workspace builds offline).
pub use thinlock_runtime::prng;

pub use generator::{LockTrace, TraceConfig, TraceOp};
pub use table1::{BenchmarkProfile, MACRO_BENCHMARKS};
pub use vmreplay::{run_concurrent_program, VmReplayReport};
