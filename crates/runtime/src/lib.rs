//! Substrate for the thin-locks reproduction.
//!
//! This crate provides everything the locking protocols of the paper
//! *assume to exist* in the Java virtual machine they were built into:
//!
//! * [`lockword`] — the 24-bit lock field embedded in every object header,
//!   with the exact bit layout of Figure 1/2 of the paper and the
//!   XOR-based nested-lock predicate of Section 2.3.3.
//! * [`heap`] — a fixed-capacity object heap whose objects carry a
//!   three-word header; the low 8 bits of the header word that hosts the
//!   lock field are "other header data" that locking must never disturb.
//! * [`registry`] — the thread-index table: 15-bit thread indices, the
//!   per-thread execution environment holding the *pre-shifted* index, and
//!   a parker used by the heavyweight monitor layer to block threads.
//! * [`arch`] — architecture profiles modelling the paper's PowerPC
//!   uniprocessor / multiprocessor / POWER kernel-CAS targets (Section 3.5).
//! * [`protocol`] — the [`protocol::SyncProtocol`] trait implemented by the
//!   thin-lock protocol and by both baselines, so benchmarks and the
//!   bytecode VM are generic over the locking implementation.
//! * [`backend`] — the [`backend::SyncBackend`] extension trait: the
//!   introspection probes (owner, lock word, monitor snapshot, monitor
//!   population) that make whole backends interchangeable under the
//!   chaos, model-checking, and benchmark harnesses (BACKENDS.md).
//! * [`hooks`] — the one instrumentation seam: [`hooks::Hooks`] is
//!   consulted before each labeled protocol step and told about each
//!   event after it. [`hooks::NoHooks`] is the zero-sized default that
//!   compiles to nothing; [`hooks::HookSet`] fans out to the three
//!   harness interfaces below.
//! * [`schedule`] — the [`schedule::Schedule`] interface and its labeled
//!   schedule points, at which a cooperative scheduler (the
//!   `thinlock-modelcheck` crate) serializes execution and explores every
//!   interleaving of a small thread program.
//! * [`fault`] — the [`fault::FaultInjector`] interface and its labeled
//!   injection points, at which a deterministic chaos harness (the
//!   `thinlock-fault` crate) forces CAS failures, descheduling, spurious
//!   wakeups, and resource exhaustion.
//! * [`events`] — the [`events::TraceSink`] interface through which
//!   protocols stream individual lock events to an observability backend
//!   (the `thinlock-obs` crate) without depending on one.
//! * [`stats`] — counters for the locking-scenario characterization of
//!   Section 3.2 (Table 1 / Figure 3), kept by a sink that counts the
//!   event stream.
//! * [`backoff`] — the spin/yield backoff used while spinning to inflate.
//!
//! # Example
//!
//! ```
//! use thinlock_runtime::heap::Heap;
//!
//! let heap = Heap::with_capacity(16);
//! let obj = heap.alloc()?;
//! let word = heap.header(obj).lock_word().load_relaxed();
//! assert!(word.is_unlocked());
//! # Ok::<(), thinlock_runtime::SyncError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod arch;
pub mod backend;
pub mod backoff;
pub mod error;
pub mod events;
pub mod fault;
pub mod heap;
pub mod hooks;
pub mod lockword;
pub mod prng;
pub mod protocol;
pub mod registry;
pub mod schedule;
pub mod stats;

pub use backend::{MonitorProbe, SyncBackend};
pub use error::{SyncError, SyncResult};
pub use events::{TraceEventKind, TraceSink};
pub use fault::{FaultAction, FaultInjector, InjectionPoint};
pub use heap::{Heap, ObjRef};
pub use hooks::{HookSet, Hooks, NoHooks, Site};
pub use lockword::{LockWord, MonitorIndex, ThreadIndex};
pub use protocol::{SyncProtocol, WaitOutcome};
pub use registry::{ThreadRegistry, ThreadToken};
pub use schedule::{SchedAction, SchedPoint, Schedule};
