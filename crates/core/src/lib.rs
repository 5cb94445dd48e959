//! Thin locks: featherweight synchronization for Java, in Rust.
//!
//! This crate is the primary contribution of *Bacon, Konuru, Murthy,
//! Serrano — "Thin Locks: Featherweight Synchronization for Java", PLDI
//! 1998*: a monitor implementation whose common cases (locking an unlocked
//! object, nested locking by the owner, and unlocking) execute in a
//! handful of instructions on a 24-bit lock field inside the object
//! header, falling back to heavyweight "fat" monitors only under
//! contention, nested-count overflow, or `wait`/`notify`.
//!
//! The algorithm follows Section 2 of the paper exactly:
//!
//! 1. **Lock (uncontended):** one compare-and-swap installs the current
//!    thread's pre-shifted 15-bit index into the lock field.
//! 2. **Unlock (common case):** a plain load-compare-store; no atomic
//!    read-modify-write, justified by the discipline that only the owning
//!    thread ever writes the lock word of an object it owns.
//! 3. **Nested lock/unlock:** a single XOR + unsigned compare recognizes
//!    "thin, owned by me, count has room", then an ADD of `1 << 8`.
//! 4. **Contention:** the contender spins with backoff until the owner
//!    releases, acquires, then *inflates* the lock to a fat monitor —
//!    permanently, amortized by locality of contention.
//! 5. **`wait`/`notify`/`notifyAll` and count overflow** also inflate.
//!
//! # Quick start
//!
//! ```
//! use thinlock::ThinLocks;
//! use thinlock_runtime::protocol::{SyncProtocol, SyncProtocolExt};
//!
//! // A protocol over a heap of 64 objects.
//! let locks = ThinLocks::with_capacity(64);
//! let registration = locks.registry().register()?;
//! let me = registration.token();
//! let account = locks.heap().alloc()?;
//!
//! // The equivalent of Java's `synchronized (account) { ... }`.
//! locks.synchronized(account, me, || {
//!     // guarded work
//! })?;
//! # Ok::<(), thinlock_runtime::SyncError>(())
//! ```
//!
//! # Fast-path variants (Figure 6)
//!
//! The paper evaluates several engineerings of the same algorithm:
//! inlined and specialized per architecture, a shared out-of-line
//! function, dynamic CPU-type tests, and an unlock that (wastefully) uses
//! compare-and-swap. These are expressed through [`config::FastPathConfig`]
//! so they can be benchmarked side by side without duplicating the
//! protocol; see the `thinlock-bench` crate.
//!
//! # One core, four policies
//!
//! Every backend is the same [`LockCore`] — the word protocol above, owner
//! inflation, timed and non-blocking acquisition, `wait`/`notify`, the
//! orphan sweep, the instrumentation hook and one monitor table — with a
//! [`Policy`](lockcore::Policy) type parameter that adds only a
//! contention and release rule: [`ThinLocks`] (the paper), [`CjmLocks`]
//! (deflation into a bounded table),
//! [`FissileLocks`] (FIFO tickets once spinning fails) and
//! [`HapaxLocks`] (FIFO tickets always).

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod backend;
pub mod cjm;
pub mod config;
#[cfg(test)]
mod conformance;
pub mod fissile;
pub mod hapax;
pub mod lockcore;
pub mod thin;
mod ticket;
pub mod watchdog;

pub use backend::{BackendChoice, BackendSeams};
pub use cjm::CjmLocks;
pub use config::{
    DynamicConfig, FastPathConfig, StaticKernelCas, StaticMp, StaticUp, UnlockStrategy,
};
pub use fissile::FissileLocks;
pub use hapax::HapaxLocks;
pub use lockcore::LockCore;
pub use thin::ThinLocks;
pub use watchdog::{DeadlockReport, Watchdog};
