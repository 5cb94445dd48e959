//! Heavyweight ("fat") monitor subsystem.
//!
//! Section 2.1 of the paper assumes "a pre-existing heavy-weight system in
//! place to support the full range of Java synchronization semantics,
//! including queuing of unsatisfied lock requests, and the wait, notify,
//! and notifyAll operations. Such a system will represent a monitor as a
//! multi-word structure which includes space for a thread pointer, a
//! nested lock count, and the necessary queues. We refer to such
//! multi-word lock objects as *fat locks*."
//!
//! This crate is that system, built from scratch on the runtime crate's
//! per-thread [`Parker`](thinlock_runtime::registry::Parker):
//!
//! * [`fatlock::FatLock`] — owner + nested count + FIFO entry queue + wait
//!   set, with Java/Mesa monitor semantics (`notify` moves a waiter to the
//!   entry queue; it runs only once the monitor is released). Owner, count
//!   and a QUEUED bit share one atomic word, so an uncontended acquire or
//!   release is one compare-and-swap and an ownership probe one load; a
//!   mutex guards only the two queues (DESIGN.md §21).
//! * [`table::MonitorTable`] — the one table every backend uses, mapping
//!   23-bit monitor indices to fat locks with wait-free lookups ("the fat
//!   lock pointer is simply obtained by shifting the monitor index to the
//!   right and indexing into the vector", Section 3.3). Each slot is
//!   bound to the object it backs; a slot given back — by a deflating
//!   backend (Compact Java Monitors), or after an installing CAS lost —
//!   returns to a free list ([`pool`]), so a bounded table serves
//!   unbounded churn (BACKENDS.md).
//!
//! Thin locks (the `thinlock` crate) are "implemented as a veneer over the
//! existing heavy-weight locking facilities" — i.e., over this crate. The
//! baselines reuse it too, so all three protocols share identical
//! heavyweight semantics and the benchmarks compare only their fast paths.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod fatlock;
pub mod pool;
pub mod table;

pub use fatlock::FatLock;
pub use table::MonitorTable;
