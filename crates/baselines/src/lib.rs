//! Baseline Java monitor implementations the paper compares against.
//!
//! Section 3 evaluates thin locks against two real systems, both rebuilt
//! here from the paper's descriptions:
//!
//! * [`cache::MonitorCache`] ("**JDK111**") — Sun's JDK 1.1.1 scheme:
//!   monitors live *outside* objects in a global monitor cache that "must
//!   be locked during lookups to prevent race conditions with concurrent
//!   modifiers", with a free list that thrashes once the working set of
//!   monitors exceeds the cache size.
//! * [`hot::HotLocks`] ("**IBM112**") — IBM's JDK 1.1.2 optimization: 32
//!   pre-allocated "hot locks"; fat locks record locking frequency, and a
//!   lock detected to be hot gets a pointer placed directly in the object
//!   header (the displaced header data moves into the hot-lock structure).
//!   Fast when a few locks dominate; collapses when the working set
//!   exceeds 32.
//!
//! IBM112 is built on JDK111 as the paper describes: its cold path is
//! the same monitor cache, whose entries count lock lookups. Both
//! implement [`SyncProtocol`](thinlock_runtime::protocol::SyncProtocol)
//! over the same heap/registry/fat-lock substrate as the thin-lock
//! protocol, so every benchmark compares only the locking discipline.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod cache;
pub mod hot;

pub use cache::MonitorCache;
pub use hot::HotLocks;
