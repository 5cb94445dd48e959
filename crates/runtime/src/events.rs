//! The lock-event recording interface between protocols and
//! observability.
//!
//! Totals such as the paper's Table 1 and Figure 3 cannot explain
//! *when* or *why* an individual lock inflated, how long a thread spun,
//! or which object is hottest. [`TraceSink`] is the interface that lets
//! a protocol stream individual lock events to an observability backend
//! without this crate depending on one: the `thinlock-obs` crate
//! provides the production implementation (fixed-capacity per-thread
//! event rings), [`LockStats`](crate::stats::LockStats) counts the same
//! stream into the scenario totals, and tests can plug in anything.
//!
//! Recording is strictly optional. Protocols do not hold sinks
//! themselves: any number of them attach through the one
//! instrumentation seam, [`hooks::HookSet`](crate::hooks::HookSet),
//! which hands each event to every sink. A protocol built with the
//! default [`NoHooks`](crate::hooks::NoHooks) records nothing and pays
//! nothing.
//!
//! # Example
//!
//! A sink that counts inflations by cause:
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use thinlock_runtime::events::{TraceEventKind, TraceSink};
//! use thinlock_runtime::heap::ObjRef;
//! use thinlock_runtime::lockword::ThreadIndex;
//!
//! #[derive(Debug, Default)]
//! struct InflationCounter(AtomicU64);
//!
//! impl TraceSink for InflationCounter {
//!     fn record(
//!         &self,
//!         _thread: Option<ThreadIndex>,
//!         _obj: Option<ObjRef>,
//!         kind: TraceEventKind,
//!     ) {
//!         if matches!(kind, TraceEventKind::Inflated { .. }) {
//!             self.0.fetch_add(1, Ordering::Relaxed);
//!         }
//!     }
//! }
//! ```

use crate::heap::ObjRef;
use crate::lockword::ThreadIndex;
use crate::stats::InflationCause;

/// One lock-protocol event, as emitted from the recording points inside a
/// protocol implementation.
///
/// The variants mirror the scenarios of Section 2 of the paper plus the
/// transitions the scenario totals cannot attribute: every inflation
/// carries its [`InflationCause`], contended acquisitions carry the spin
/// rounds they burned, and static-analysis outcomes (sync elision,
/// pre-inflation hints) appear as first-class events so a profile can
/// credit them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceEventKind {
    /// Scenario 1: locked a previously unlocked object on the fast path.
    AcquireUnlocked,
    /// Scenarios 2–3: nested acquisition by the owner at `depth` (1 is
    /// the first lock, so nested events start at 2), thin or fat.
    AcquireNested {
        /// Nesting depth after this acquisition.
        depth: u32,
    },
    /// Acquired an already-inflated lock the caller did not hold (depth
    /// 1); a re-entrant fat acquisition is an
    /// [`AcquireNested`](TraceEventKind::AcquireNested).
    AcquireFat {
        /// True if the acquisition queued behind another owner
        /// (scenario 5); false for the fat fast path.
        contended: bool,
    },
    /// Scenario 4: found the object thin-locked by another thread, spun
    /// `spin_rounds` backoff rounds, then acquired and inflated.
    AcquireContendedThin {
        /// Backoff rounds spent spinning before the acquiring CAS won.
        spin_rounds: u32,
    },
    /// The lock inflated into a fat monitor.
    Inflated {
        /// Why the inflation happened.
        cause: InflationCause,
    },
    /// Store-based release of a thin lock.
    UnlockThin,
    /// Monitor release of a fat lock.
    UnlockFat,
    /// A `wait` was performed on the object's monitor.
    Wait,
    /// A `notify` or `notifyAll` was performed on the object's monitor.
    Notify,
    /// The monitor store installed a fat-lock slot; `index` is its
    /// 23-bit monitor index (a recycled one under a deflating store).
    /// Emitted as soon as the slot is installed, so it also covers
    /// allocations that lose the installing race (see
    /// `LockCore::pre_inflate`).
    MonitorAllocated {
        /// The allocated monitor index.
        index: u32,
    },
    /// A synchronization operation proven thread-local by the escape
    /// analysis was elided before execution; one event per elided
    /// monitor operation.
    ElisionHit,
    /// A static pre-inflation hint was delivered to the protocol.
    PreInflateHint {
        /// True if the hint changed the object's representation (a
        /// successful `Inflated { cause: Hint }` event follows).
        applied: bool,
    },
    /// A deflating release restored the object's lock word from its fat
    /// shape back to the neutral thin shape, releasing the monitor for
    /// reuse. Only protocols with a deflation step (the CJM backend)
    /// emit this; under the thin protocol inflation is one-way and this
    /// event never occurs.
    Deflated {
        /// The monitor index the object's fat word pointed at before
        /// the deflating store (the slot returned to the pool).
        index: u32,
    },
    /// The registry's exit sweep force-released a lock whose owner
    /// deregistered (died) while still holding it; `thread` is the dead
    /// owner and `obj` the reclaimed object.
    OrphanReclaimed {
        /// True if the orphaned lock was inflated (released through its
        /// fat monitor); false if it was thin (lock field cleared).
        fat: bool,
    },
    /// A timed acquisition found the caller on a waits-for cycle and
    /// surfaced [`SyncError::DeadlockDetected`](crate::error::SyncError::DeadlockDetected);
    /// `obj` is the lock the caller was blocked on.
    DeadlockDetected {
        /// Number of threads on the detected cycle.
        threads: u32,
    },
    /// A `try_lock` or `lock_deadline` gave up without acquiring; `obj`
    /// is the lock that stayed contended.
    AcquireTimedOut,
    /// The interpreter read or wrote an object field; `obj` is the
    /// accessed object and `field` its field index. Emitted by the VM
    /// (not the protocol) through the same sink so the dynamic Eraser
    /// sanitizer can pair accesses with the locks held around them.
    FieldAccess {
        /// Field index within the object.
        field: u16,
        /// True for a write (`PutField`/`PutFieldDyn`).
        write: bool,
    },
    /// The dynamic Eraser sanitizer's verdict: `obj`'s `field` reached
    /// Shared-Modified with an empty candidate lockset — a data race.
    /// Emitted at most once per (object, field).
    RaceDetected {
        /// Field index within the object.
        field: u16,
    },
}

impl TraceEventKind {
    /// Stable short name for reports and JSON export.
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::AcquireUnlocked => "acquire-unlocked",
            TraceEventKind::AcquireNested { .. } => "acquire-nested",
            TraceEventKind::AcquireFat { .. } => "acquire-fat",
            TraceEventKind::AcquireContendedThin { .. } => "acquire-contended-thin",
            TraceEventKind::Inflated { .. } => "inflated",
            TraceEventKind::UnlockThin => "unlock-thin",
            TraceEventKind::UnlockFat => "unlock-fat",
            TraceEventKind::Wait => "wait",
            TraceEventKind::Notify => "notify",
            TraceEventKind::MonitorAllocated { .. } => "monitor-allocated",
            TraceEventKind::ElisionHit => "elision-hit",
            TraceEventKind::PreInflateHint { .. } => "pre-inflate-hint",
            TraceEventKind::Deflated { .. } => "deflated",
            TraceEventKind::OrphanReclaimed { .. } => "orphan-reclaimed",
            TraceEventKind::DeadlockDetected { .. } => "deadlock-detected",
            TraceEventKind::AcquireTimedOut => "acquire-timed-out",
            TraceEventKind::FieldAccess { write: false, .. } => "field-read",
            TraceEventKind::FieldAccess { write: true, .. } => "field-write",
            TraceEventKind::RaceDetected { .. } => "race-detected",
        }
    }
}

/// A consumer of lock events.
///
/// Implementations must be cheap and non-blocking: `record` is called
/// from lock/unlock fast paths and from inside inflation, so it must not
/// allocate, take locks, or otherwise stall the caller. The
/// `thinlock-obs` crate's `LockTracer` (fixed-capacity per-thread rings,
/// relaxed stores, wraparound with drop counters) is the reference
/// implementation.
///
/// `thread` is `None` for events that no specific thread performed
/// (e.g. [`TraceEventKind::MonitorAllocated`]);
/// `obj` is `None` when the event is not attributable to one object.
pub trait TraceSink: Send + Sync {
    /// Records one event. Must not block or allocate.
    fn record(&self, thread: Option<ThreadIndex>, obj: Option<ObjRef>, kind: TraceEventKind);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Debug, Default)]
    struct CountingSink {
        events: AtomicU64,
        inflations: AtomicU64,
    }

    impl TraceSink for CountingSink {
        fn record(&self, _t: Option<ThreadIndex>, _o: Option<ObjRef>, kind: TraceEventKind) {
            self.events.fetch_add(1, Ordering::Relaxed);
            if matches!(kind, TraceEventKind::Inflated { .. }) {
                self.inflations.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn sink_is_object_safe_and_callable() {
        let sink = CountingSink::default();
        let dynsink: &dyn TraceSink = &sink;
        dynsink.record(None, None, TraceEventKind::AcquireUnlocked);
        dynsink.record(
            None,
            None,
            TraceEventKind::Inflated {
                cause: InflationCause::Contention,
            },
        );
        assert_eq!(sink.events.load(Ordering::Relaxed), 2);
        assert_eq!(sink.inflations.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(TraceEventKind::AcquireUnlocked.name(), "acquire-unlocked");
        assert_eq!(
            TraceEventKind::Inflated {
                cause: InflationCause::Hint
            }
            .name(),
            "inflated"
        );
        assert_eq!(
            TraceEventKind::PreInflateHint { applied: true }.name(),
            "pre-inflate-hint"
        );
        assert_eq!(
            TraceEventKind::FieldAccess {
                field: 3,
                write: false
            }
            .name(),
            "field-read"
        );
        assert_eq!(
            TraceEventKind::FieldAccess {
                field: 3,
                write: true
            }
            .name(),
            "field-write"
        );
        assert_eq!(
            TraceEventKind::RaceDetected { field: 0 }.name(),
            "race-detected"
        );
    }
}
