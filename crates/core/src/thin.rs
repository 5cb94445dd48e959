//! The thin-lock protocol: Section 2.3 of the paper.
//!
//! State machine of one object's lock word (Figures 1 and 2):
//!
//! ```text
//!             CAS                       store
//!  Unlocked ───────► Thin(me, 0)  ◄───────────┐
//!     ▲                 │   ▲                 │
//!     │ store           │add│sub              │
//!     └─────────────────┤   └── Thin(me, n) ──┘
//!                       │
//!   contention / overflow / wait-notify
//!                       ▼
//!                  Fat(monitor)          (permanent)
//! ```
//!
//! The invariants the implementation maintains (and the tests check):
//!
//! * **Owner-only writes:** after the acquiring CAS, the lock word of a
//!   thin-held object is written only by its owner, with plain stores.
//! * **One-way inflation:** a shape bit of 1 is never cleared; a
//!   published monitor is never recycled while the heap lives.
//! * **Header preservation:** the low 8 bits of the header word are never
//!   changed by any lock operation.
//!
//! Everything above is the shared [`LockCore`], monitor table included;
//! the [`Thin`] policy is the core's defaults: a contender spins until
//! the owner releases, acquires, then inflates
//! ([`InflationCause::Contention`](thinlock_runtime::stats::InflationCause))
//! so the next contender queues instead of spinning.

use std::sync::Arc;

use thinlock_runtime::heap::Heap;
use thinlock_runtime::registry::ThreadRegistry;

use crate::config::{DynamicConfig, FastPathConfig};
use crate::lockcore::{LockCore, Policy};

/// The paper's contention rule: spin, acquire, inflate, each object at
/// most once.
#[derive(Debug)]
pub struct Thin;

impl Policy for Thin {
    const NAME: &'static str = "ThinLock";
    const TYPE_NAME: &'static str = "ThinLocks";
}

/// The thin-lock monitor protocol.
///
/// Generic over [`FastPathConfig`] so the Figure 6 variants monomorphize
/// to distinct fast paths; the default is the paper's shipped
/// configuration (runtime architecture test, store unlock).
///
/// # Example
///
/// ```
/// use thinlock::ThinLocks;
/// use thinlock_runtime::protocol::SyncProtocol;
///
/// let locks = ThinLocks::with_capacity(8);
/// let reg = locks.registry().register()?;
/// let obj = locks.heap().alloc()?;
/// locks.lock(obj, reg.token())?;
/// assert!(locks.holds_lock(obj, reg.token()));
/// locks.unlock(obj, reg.token())?;
/// # Ok::<(), thinlock_runtime::SyncError>(())
/// ```
pub type ThinLocks<C = DynamicConfig> = LockCore<Thin, C>;

impl ThinLocks<DynamicConfig> {
    /// Creates a protocol over a fresh heap of `capacity` objects with the
    /// default (shipped) configuration.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::new(
            Arc::new(Heap::with_capacity(capacity)),
            ThreadRegistry::new(),
        )
    }

    /// Creates a protocol with the default configuration over an existing
    /// heap and registry.
    pub fn new(heap: Arc<Heap>, registry: ThreadRegistry) -> Self {
        Self::with_config(heap, registry, DynamicConfig::default())
    }
}

impl<C: FastPathConfig> ThinLocks<C> {
    /// Creates a protocol with an explicit fast-path configuration.
    ///
    /// The monitor table is sized to the heap: each object inflates at
    /// most once, so `heap.capacity()` monitors can never be exceeded.
    pub fn with_config(heap: Arc<Heap>, registry: ThreadRegistry, config: C) -> Self {
        let monitors = heap.capacity();
        LockCore::from_parts(heap, registry, Thin, config, monitors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::thread;
    use std::time::Duration;
    use thinlock_runtime::error::SyncError;
    use thinlock_runtime::events::{TraceEventKind, TraceSink};
    use thinlock_runtime::fault::{FaultAction, FaultInjector, InjectionPoint};
    use thinlock_runtime::heap::ObjRef;
    use thinlock_runtime::hooks::HookSet;
    use thinlock_runtime::lockword::{LockState, ThreadIndex};
    use thinlock_runtime::protocol::{SyncProtocol, WaitOutcome};
    use thinlock_runtime::stats::{InflationCause, LockStats};

    fn fresh(capacity: usize) -> ThinLocks {
        ThinLocks::with_capacity(capacity)
    }

    crate::conformance::rows!(fresh);

    #[derive(Debug, Default)]
    struct Recorder(Mutex<Vec<TraceEventKind>>);

    impl TraceSink for Recorder {
        fn record(&self, _t: Option<ThreadIndex>, _o: Option<ObjRef>, kind: TraceEventKind) {
            self.0.lock().unwrap().push(kind);
        }
    }

    #[test]
    fn nested_locking_counts_locks_minus_one() {
        let p = fresh(4);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        for depth in 1..=5u8 {
            p.lock(obj, t).unwrap();
            assert_eq!(p.lock_word(obj).thin_count(), depth - 1);
        }
        for depth in (1..=5u8).rev() {
            assert_eq!(p.lock_word(obj).thin_count(), depth - 1);
            p.unlock(obj, t).unwrap();
        }
        assert!(p.lock_word(obj).is_unlocked());
        assert_eq!(p.inflated_count(), 0, "nesting alone never inflates");
    }

    #[test]
    fn header_bits_survive_every_transition() {
        let p = fresh(4);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        let hash = p.lock_word(obj).header_bits();
        for _ in 0..257 {
            p.lock(obj, t).unwrap();
            assert_eq!(p.lock_word(obj).header_bits(), hash);
        }
        for _ in 0..257 {
            p.unlock(obj, t).unwrap();
        }
        assert_eq!(p.lock_word(obj).header_bits(), hash);
    }

    #[test]
    fn wait_requires_ownership() {
        let p = fresh(4);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        assert_eq!(p.wait(obj, t, None).unwrap_err(), SyncError::NotLocked);
        assert_eq!(p.notify(obj, t).unwrap_err(), SyncError::NotLocked);
        assert_eq!(p.notify_all(obj, t).unwrap_err(), SyncError::NotLocked);
        // Not-owner on a fat lock.
        let rb = p.registry().register().unwrap();
        p.lock(obj, rb.token()).unwrap();
        p.notify(obj, rb.token()).unwrap(); // inflates via owner
        assert!(p.lock_word(obj).is_fat());
        assert_eq!(p.wait(obj, t, None).unwrap_err(), SyncError::NotOwner);
        p.unlock(obj, rb.token()).unwrap();
    }

    #[test]
    fn timed_wait_times_out() {
        let p = fresh(4);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        p.lock(obj, t).unwrap();
        let out = p.wait(obj, t, Some(Duration::from_millis(25))).unwrap();
        assert_eq!(out, WaitOutcome::TimedOut);
        assert!(p.holds_lock(obj, t));
        p.unlock(obj, t).unwrap();
    }

    #[test]
    fn contention_spins_then_inflates_exactly_once() {
        // Deterministic contention: the owner holds the lock across a
        // barrier so the contender is guaranteed to find it thin-held.
        let p = Arc::new(fresh(4));
        let obj = p.heap().alloc().unwrap();
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let owner = {
            let p = Arc::clone(&p);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let r = p.registry().register().unwrap();
                let t = r.token();
                p.lock(obj, t).unwrap();
                barrier.wait(); // contender may now start spinning
                thread::sleep(Duration::from_millis(30));
                p.unlock(obj, t).unwrap();
            })
        };
        let r = p.registry().register().unwrap();
        let t = r.token();
        barrier.wait();
        assert!(p.lock_word(obj).is_thin_shape());
        p.lock(obj, t).unwrap(); // spins, acquires, inflates
        assert!(p.lock_word(obj).is_fat(), "contention inflated the lock");
        assert!(p.holds_lock(obj, t));
        p.unlock(obj, t).unwrap();
        owner.join().unwrap();
        assert_eq!(p.inflated_count(), 1, "inflated exactly once");
    }

    #[test]
    fn independent_objects_do_not_interfere() {
        let p = fresh(16);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let objs: Vec<_> = (0..16).map(|_| p.heap().alloc().unwrap()).collect();
        for &o in &objs {
            p.lock(o, t).unwrap();
        }
        for &o in &objs {
            assert!(p.holds_lock(o, t));
        }
        for &o in &objs {
            p.unlock(o, t).unwrap();
            assert!(!p.holds_lock(o, t));
        }
    }

    #[test]
    fn stats_classify_scenarios() {
        let stats = Arc::new(LockStats::new());
        let p =
            ThinLocks::with_capacity(4).with_hooks(HookSet::new().sink(Arc::clone(&stats) as _));
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        p.lock(obj, t).unwrap(); // unlocked
        p.lock(obj, t).unwrap(); // nested depth 2
        p.lock(obj, t).unwrap(); // nested depth 3
        p.unlock(obj, t).unwrap();
        p.unlock(obj, t).unwrap();
        p.unlock(obj, t).unwrap();
        let snap = stats.snapshot();
        assert_eq!(snap.scenario_counts[0], 1, "one first lock");
        assert_eq!(snap.scenario_counts[1], 2, "two shallow nested");
        assert_eq!(snap.depth_histogram[0], 1);
        assert_eq!(snap.depth_histogram[1], 1);
        assert_eq!(snap.depth_histogram[2], 1);
        assert_eq!(snap.unlocks_thin, 3);
        assert_eq!(snap.total_inflations(), 0);
    }

    #[test]
    fn variant_configs_behave_identically() {
        use crate::config::{StaticKernelCas, StaticMp, StaticUp};
        fn exercise<C: FastPathConfig>(p: ThinLocks<C>) {
            let r = p.registry().register().unwrap();
            let t = r.token();
            let obj = p.heap().alloc().unwrap();
            for _ in 0..3 {
                p.lock(obj, t).unwrap();
            }
            for _ in 0..3 {
                p.unlock(obj, t).unwrap();
            }
            assert!(p.lock_word(obj).is_unlocked());
        }
        let heap = || Arc::new(Heap::with_capacity(2));
        exercise(ThinLocks::with_config(
            heap(),
            ThreadRegistry::new(),
            StaticUp,
        ));
        exercise(ThinLocks::with_config(
            heap(),
            ThreadRegistry::new(),
            StaticMp,
        ));
        exercise(ThinLocks::with_config(
            heap(),
            ThreadRegistry::new(),
            StaticKernelCas,
        ));
        exercise(ThinLocks::with_config(
            heap(),
            ThreadRegistry::new(),
            DynamicConfig::default().with_cas_unlock(),
        ));
        exercise(ThinLocks::with_config(
            heap(),
            ThreadRegistry::new(),
            DynamicConfig::default().with_outlined_fast_path(),
        ));
    }

    #[test]
    fn fat_lock_reentrancy_after_inflation() {
        let p = fresh(4);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        p.lock(obj, t).unwrap();
        p.notify(obj, t).unwrap(); // forces inflation
        assert!(p.lock_word(obj).is_fat());
        p.lock(obj, t).unwrap(); // nested on fat
        p.lock(obj, t).unwrap();
        p.unlock(obj, t).unwrap();
        p.unlock(obj, t).unwrap();
        assert!(p.holds_lock(obj, t));
        p.unlock(obj, t).unwrap();
        assert!(!p.holds_lock(obj, t));
    }

    #[test]
    fn pre_inflation_hint_avoids_overflow_inflation() {
        let stats = Arc::new(LockStats::new());
        let p =
            ThinLocks::with_capacity(4).with_hooks(HookSet::new().sink(Arc::clone(&stats) as _));
        let obj = p.heap().alloc().unwrap();
        assert!(p.pre_inflate(obj).unwrap());
        assert!(p.lock_word(obj).is_fat());
        assert!(!p.pre_inflate(obj).unwrap(), "second hint is a no-op");
        let r = p.registry().register().unwrap();
        let t = r.token();
        // Nest past the thin-count limit: with the hint applied, no
        // overflow inflation ever fires mid-critical-path.
        for _ in 0..300 {
            p.lock(obj, t).unwrap();
        }
        for _ in 0..300 {
            p.unlock(obj, t).unwrap();
        }
        assert!(!p.holds_lock(obj, t));
        let snap = stats.snapshot();
        assert_eq!(snap.inflations, [0, 0, 0, 1], "only the hint inflation");
        assert_eq!(p.inflated_count(), 1);
    }

    #[test]
    fn pre_inflate_declines_while_thin_held() {
        let p = fresh(4);
        let r = p.registry().register().unwrap();
        let obj = p.heap().alloc().unwrap();
        p.lock(obj, r.token()).unwrap();
        assert!(!p.pre_inflate(obj).unwrap(), "owner-only writes: decline");
        assert!(p.lock_word(obj).is_thin_shape());
        p.unlock(obj, r.token()).unwrap();
        // The protocol-level hint entry point reaches the same code.
        assert!(p.pre_inflate_hint(obj));
        assert!(p.lock_word(obj).is_fat());
    }

    #[test]
    fn lock_state_reporting() {
        let p = fresh(4);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        assert!(matches!(p.lock_word(obj).state(), LockState::Unlocked));
        p.lock(obj, t).unwrap();
        assert!(matches!(p.lock_word(obj).state(), LockState::Thin { .. }));
        p.notify(obj, t).unwrap();
        assert!(matches!(p.lock_word(obj).state(), LockState::Fat { .. }));
        p.unlock(obj, t).unwrap();
    }

    #[test]
    fn trace_sink_sees_protocol_transitions() {
        let recorder = Arc::new(Recorder::default());
        let p =
            ThinLocks::with_capacity(4).with_hooks(HookSet::new().sink(Arc::clone(&recorder) as _));
        assert!(p.trace_sink().is_some());
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();

        p.lock(obj, t).unwrap();
        p.lock(obj, t).unwrap();
        p.unlock(obj, t).unwrap();
        p.notify(obj, t).unwrap(); // still held once: inflates, WaitNotify
        p.unlock(obj, t).unwrap();

        let events = recorder.0.lock().unwrap().clone();
        assert_eq!(
            events,
            vec![
                TraceEventKind::AcquireUnlocked,
                TraceEventKind::AcquireNested { depth: 2 },
                TraceEventKind::UnlockThin,
                // notify() re-acquires nothing: the lock inflates in
                // place, the monitor allocation is traced as its slot is
                // installed, then the notify itself is recorded.
                TraceEventKind::MonitorAllocated { index: 0 },
                TraceEventKind::Inflated {
                    cause: InflationCause::WaitNotify
                },
                TraceEventKind::Notify,
                TraceEventKind::UnlockFat,
            ]
        );
    }

    #[test]
    fn trace_sink_attributes_hint_inflation() {
        let recorder = Arc::new(Recorder::default());
        let p =
            ThinLocks::with_capacity(4).with_hooks(HookSet::new().sink(Arc::clone(&recorder) as _));
        let obj = p.heap().alloc().unwrap();
        assert!(p.pre_inflate_hint(obj));
        assert!(!p.pre_inflate_hint(obj), "already fat: not applied");
        let events = recorder.0.lock().unwrap().clone();
        assert_eq!(
            events,
            vec![
                TraceEventKind::MonitorAllocated { index: 0 },
                TraceEventKind::Inflated {
                    cause: InflationCause::Hint
                },
                TraceEventKind::PreInflateHint { applied: true },
                TraceEventKind::PreInflateHint { applied: false },
            ]
        );
    }

    #[test]
    fn debug_formatting() {
        let p = fresh(1);
        let text = format!("{p:?}");
        assert!(text.contains("ThinLocks"));
        assert!(text.contains("inflated"));
    }

    #[test]
    fn timed_acquisition_emits_timeout_event() {
        let recorder = Arc::new(Recorder::default());
        let p = Arc::new(fresh(4).with_hooks(HookSet::new().sink(Arc::clone(&recorder) as _)));
        let obj = p.heap().alloc().unwrap();
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let owner = {
            let p = Arc::clone(&p);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let r = p.registry().register().unwrap();
                let t = r.token();
                p.lock(obj, t).unwrap();
                barrier.wait();
                barrier.wait();
                p.unlock(obj, t).unwrap();
            })
        };
        let r = p.registry().register().unwrap();
        let t = r.token();
        barrier.wait();
        assert_eq!(p.try_lock(obj, t), Ok(false));
        assert_eq!(
            p.lock_deadline(obj, t, Duration::from_millis(30)),
            Err(SyncError::Timeout)
        );
        barrier.wait();
        owner.join().unwrap();
        let timeouts = recorder
            .0
            .lock()
            .unwrap()
            .iter()
            .filter(|k| matches!(k, TraceEventKind::AcquireTimedOut))
            .count();
        assert_eq!(timeouts, 2, "one per failed try, one per expired deadline");
    }

    #[test]
    fn contention_inflation_degrades_gracefully_when_table_full() {
        // Exhaust the monitor table, then force the contended-acquire
        // path: the acquisition must succeed and stay thin.
        #[derive(Debug)]
        struct ExhaustMonitors;
        impl FaultInjector for ExhaustMonitors {
            fn decide(&self, point: InjectionPoint) -> FaultAction {
                if point == InjectionPoint::MonitorAllocate {
                    FaultAction::Exhaust
                } else {
                    FaultAction::Proceed
                }
            }
        }

        let hooks = HookSet::new().fault_injector(Arc::new(ExhaustMonitors));
        let p = Arc::new(ThinLocks::with_capacity(4).with_hooks(hooks));
        let obj = p.heap().alloc().unwrap();
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let owner = {
            let p = Arc::clone(&p);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let r = p.registry().register().unwrap();
                let t = r.token();
                p.lock(obj, t).unwrap();
                barrier.wait();
                thread::sleep(Duration::from_millis(30));
                p.unlock(obj, t).unwrap();
            })
        };
        let r = p.registry().register().unwrap();
        let t = r.token();
        barrier.wait();
        p.lock(obj, t).unwrap(); // spins; post-contention inflation fails
        assert!(p.holds_lock(obj, t));
        assert!(
            p.lock_word(obj).is_thin_shape(),
            "acquisition survived a full monitor table by staying thin"
        );
        p.unlock(obj, t).unwrap();
        owner.join().unwrap();
        assert_eq!(p.inflated_count(), 0);
    }
}
