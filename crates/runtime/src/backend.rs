//! The pluggable protocol-backend seam: [`SyncBackend`] extends
//! [`SyncProtocol`] with the introspection probes every harness needs.
//!
//! [`SyncProtocol`] is the *semantic* surface — lock, unlock, wait,
//! notify — and is all the VM interpreter or a benchmark body ever
//! calls. The harnesses around them need more: the chaos harness
//! asserts convergence by asking *who owns this object right now*, the
//! model checker compares physical lock words against its ground-truth
//! model, and the churn benchmarks grade backends on their *monitor
//! population*. Those probes used to be concrete `ThinLocks` methods,
//! which hard-wired every harness to one protocol. [`SyncBackend`]
//! lifts them into a trait so the thin protocol and the deflating and
//! FIFO backends are interchangeable everywhere they are consumed (see
//! BACKENDS.md for the catalog and the contract each harness enforces).
//! The paper's baselines implement only [`SyncProtocol`].
//!
//! The split matters for layering: this crate cannot name the monitor
//! crate's `FatLock`, so fat-monitor state is surfaced through the
//! plain-data [`MonitorProbe`] snapshot rather than a borrowed monitor
//! reference.
//!
//! # Example
//!
//! Harness code probes any backend without knowing the protocol:
//!
//! ```
//! use thinlock_runtime::backend::SyncBackend;
//! use thinlock_runtime::ObjRef;
//!
//! fn describe(b: &dyn SyncBackend, obj: ObjRef) -> String {
//!     match b.monitor_probe(obj) {
//!         Some(p) => format!("fat: owner={:?} count={}", p.owner, p.count),
//!         None => format!("thin word {:#010x}", b.probe_word(obj).bits()),
//!     }
//! }
//! # let _ = describe;
//! ```

use crate::heap::ObjRef;
use crate::lockword::{LockWord, ThreadIndex};
use crate::protocol::SyncProtocol;
use crate::registry::ThreadToken;

/// A plain-data snapshot of one object's fat monitor, taken at a
/// quiescent point.
///
/// Probes are advisory outside a quiescent state: between the loads that
/// build the snapshot the monitor may move on. The model checker only
/// consults probes while every worker is blocked at a schedule point,
/// where the snapshot is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MonitorProbe {
    /// The thread that owns the monitor, if any.
    pub owner: Option<ThreadIndex>,
    /// The owner's nesting depth (0 when unowned).
    pub count: u32,
    /// Threads queued to enter the monitor.
    pub entry_queue_len: usize,
    /// Threads parked in a `wait` on the monitor.
    pub wait_set_len: usize,
}

impl MonitorProbe {
    /// True when the monitor is quiescent: no owner, nobody queued to
    /// enter, nobody waiting — the precondition a deflating backend
    /// must establish (while *holding* the monitor, so `owner` is the
    /// deflater itself and `count` is 1 at the decision point) before
    /// restoring the object's word to its neutral shape.
    pub fn is_idle(&self) -> bool {
        self.owner.is_none() && self.entry_queue_len == 0 && self.wait_set_len == 0
    }
}

/// A [`SyncProtocol`] that additionally exposes the introspection and
/// accounting probes the workspace harnesses are written against.
///
/// Implementations: the four core-crate backends (`ThinLocks`,
/// `CjmLocks`, `FissileLocks`, `HapaxLocks` — one `LockCore` each); the
/// `baselines` protocols implement only [`SyncProtocol`]. Probes
/// must be cheap and non-blocking — they are called from convergence
/// loops and from the model checker's per-state invariant sweep.
///
/// # Contract
///
/// * [`probe_word`](SyncBackend::probe_word) returns the object's
///   current physical lock word (acquire load).
/// * [`monitor_probe`](SyncBackend::monitor_probe) returns `Some` iff
///   the object's word currently has the fat shape and the monitor it
///   points at resolves.
/// * The population gauges count *distinct live monitors*, so a
///   deflating backend's [`monitors_live`](SyncBackend::monitors_live)
///   can fall back toward zero while
///   [`monitors_allocated`](SyncBackend::monitors_allocated) only ever
///   grows.
/// * [`deflation_capable`](SyncBackend::deflation_capable) tells the
///   model checker which invariant to arm: one-way inflation for
///   `false`, deflation safety (never deflate an owned or waited-on
///   monitor) for `true`.
pub trait SyncBackend: SyncProtocol {
    /// The object's current lock word (acquire load), for shape and
    /// thin-owner inspection.
    fn probe_word(&self, obj: ObjRef) -> LockWord {
        self.heap().header(obj).lock_word().load_acquire()
    }

    /// Snapshot of the object's fat monitor, or `None` while the word
    /// is not fat (or its monitor index does not resolve).
    ///
    /// The default is for protocols with no fat representation at all
    /// (oracles); real word-based backends must override it.
    fn monitor_probe(&self, obj: ObjRef) -> Option<MonitorProbe> {
        let _ = obj;
        None
    }

    /// The thread currently holding `obj`'s monitor, if any — thin
    /// owner from the word, fat owner from the monitor probe.
    fn owner_of(&self, obj: ObjRef) -> Option<ThreadIndex> {
        let word = self.probe_word(obj);
        if word.is_fat() {
            self.monitor_probe(obj).and_then(|p| p.owner)
        } else {
            word.thin_owner()
        }
    }

    /// True while thread `t` is parked in a `wait` on `obj`'s monitor.
    fn in_wait_set(&self, obj: ObjRef, t: ThreadToken) -> bool {
        let _ = (obj, t);
        false
    }

    /// Whether a spin step by thread `t` on `obj` can make progress —
    /// the enabledness the model checker consults before granting a
    /// `LockSpin` step, so exhaustive exploration never schedules a
    /// spinner that is guaranteed to loop back to the same state.
    ///
    /// The default matches spin-until-released protocols: a spinner can
    /// advance once the word is unlocked (the CAS can win) or fat (the
    /// monitor path takes over). FIFO-admission backends override this
    /// to also require that the spinner's ticket has been granted;
    /// without the override the checker would explore ungranted CAS
    /// attempts that the protocol itself never makes.
    fn spin_enabled(&self, obj: ObjRef, t: ThreadToken) -> bool {
        let _ = t;
        let word = self.probe_word(obj);
        word.is_unlocked() || word.is_fat()
    }

    /// True if this backend can restore a fat word back to the neutral
    /// thin shape. Backends that return `true` emit
    /// [`TraceEventKind::Deflated`](crate::events::TraceEventKind::Deflated)
    /// and pass through
    /// [`SchedPoint::Deflate`](crate::schedule::SchedPoint::Deflate);
    /// backends that return `false` promise one-way inflation and the
    /// model checker holds them to it.
    fn deflation_capable(&self) -> bool {
        false
    }

    /// Total thin-to-fat transitions performed so far.
    fn inflation_count(&self) -> u64 {
        0
    }

    /// Total fat-to-thin transitions performed so far. Always 0 for
    /// backends where [`deflation_capable`](SyncBackend::deflation_capable)
    /// is `false`.
    fn deflation_count(&self) -> u64 {
        0
    }

    /// Monitors currently backing a fat word — the population a
    /// deflating backend exists to bound.
    fn monitors_live(&self) -> usize {
        0
    }

    /// High-water mark of [`monitors_live`](SyncBackend::monitors_live).
    fn monitors_peak(&self) -> usize {
        0
    }

    /// Monitor allocations performed over the backend's lifetime
    /// (recycling a slot does not decrement it; an allocation whose
    /// installing CAS lost is taken back).
    fn monitors_allocated(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{SyncError, SyncResult};
    use crate::heap::Heap;
    use crate::protocol::WaitOutcome;
    use crate::registry::ThreadRegistry;
    use std::time::Duration;

    /// Minimal backend over a bare heap: single global spin-less lock
    /// model, enough to exercise the trait defaults.
    #[derive(Debug)]
    struct BareBackend {
        heap: Heap,
        registry: ThreadRegistry,
    }

    impl SyncProtocol for BareBackend {
        fn lock(&self, _obj: ObjRef, _t: ThreadToken) -> SyncResult<()> {
            Ok(())
        }
        fn unlock(&self, _obj: ObjRef, _t: ThreadToken) -> SyncResult<()> {
            Ok(())
        }
        fn wait(
            &self,
            _obj: ObjRef,
            _t: ThreadToken,
            _timeout: Option<Duration>,
        ) -> SyncResult<WaitOutcome> {
            Err(SyncError::NotOwner)
        }
        fn notify(&self, _obj: ObjRef, _t: ThreadToken) -> SyncResult<()> {
            Ok(())
        }
        fn notify_all(&self, _obj: ObjRef, _t: ThreadToken) -> SyncResult<()> {
            Ok(())
        }
        fn holds_lock(&self, _obj: ObjRef, _t: ThreadToken) -> bool {
            false
        }
        fn heap(&self) -> &Heap {
            &self.heap
        }
        fn registry(&self) -> &ThreadRegistry {
            &self.registry
        }
        fn name(&self) -> &'static str {
            "Bare"
        }
    }

    impl SyncBackend for BareBackend {}

    #[test]
    fn defaults_describe_a_thin_only_backend() {
        let b = BareBackend {
            heap: Heap::with_capacity(2),
            registry: ThreadRegistry::new(),
        };
        let obj = b.heap.alloc().unwrap();
        assert!(b.probe_word(obj).is_unlocked());
        assert!(b.monitor_probe(obj).is_none());
        assert_eq!(b.owner_of(obj), None);
        let r = b.registry.register().unwrap();
        assert!(
            b.spin_enabled(obj, r.token()),
            "spinning on an unlocked word is enabled by default"
        );
        assert!(!b.deflation_capable());
        assert_eq!(b.inflation_count(), 0);
        assert_eq!(b.deflation_count(), 0);
        assert_eq!(b.monitors_live(), 0);
        assert_eq!(b.monitors_peak(), 0);
        assert_eq!(b.monitors_allocated(), 0);
    }

    #[test]
    fn backend_is_object_safe() {
        let b = BareBackend {
            heap: Heap::with_capacity(1),
            registry: ThreadRegistry::new(),
        };
        let obj = b.heap.alloc().unwrap();
        let d: &dyn SyncBackend = &b;
        assert_eq!(d.owner_of(obj), None);
        assert_eq!(d.name(), "Bare");
    }

    #[test]
    fn idle_probe_requires_empty_queues_and_no_owner() {
        let idle = MonitorProbe::default();
        assert!(idle.is_idle());
        let waited = MonitorProbe {
            wait_set_len: 1,
            ..MonitorProbe::default()
        };
        assert!(!waited.is_idle());
        let queued = MonitorProbe {
            entry_queue_len: 2,
            ..MonitorProbe::default()
        };
        assert!(!queued.is_idle());
    }
}
