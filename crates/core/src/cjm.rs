//! Compact Java Monitors: thin locks with *deflation* into a bounded,
//! recycling monitor table.
//!
//! The paper's protocol inflates one-way: once an object's lock word
//! points at a fat monitor, it points there until the heap dies
//! (Section 2.3.4 — "the lock will stay inflated for the rest of the
//! object's lifetime"). That is the right trade for the paper's
//! workloads, but under *churn* — millions of short-lived objects that
//! each see one burst of contention or a single `wait`/`notify` — the
//! monitor population only ever grows. Compact Java Monitors (Dice &
//! Kogan, arXiv:2102.04188) restore the neutral word when a monitor
//! quiesces, so the pool of monitors tracks the number of *currently
//! contended* objects instead of the number ever contended.
//!
//! Everything but the [`Cjm`] policy is the shared [`LockCore`]: the
//! thin fast path, the contention inflation and the monitor table are
//! the paper's, and the core compiles in revalidation after a fat
//! acquisition for a deflating policy; CJM adds deflation on the sole
//! quiescent release, [`reclaim_idle`](LockCore::reclaim_idle) and a
//! monitor bound.
//!
//! State machine of one object's lock word:
//!
//! ```text
//!             CAS                       store
//!  Unlocked ───────► Thin(me, 0)  ◄───────────┐
//!     ▲                 │   ▲                 │
//!     │ store           │add│sub              │
//!     ├─────────────────┤   └── Thin(me, n) ──┘
//!     │                 │
//!     │   contention / overflow / wait-notify
//!     │                 ▼
//!     └─────────── Fat(monitor)
//!       deflate: sole quiescent owner releases
//! ```
//!
//! The invariants (checked by the tests here and the model checker's
//! deflation-safety mode):
//!
//! * **Owner-only writes**, exactly as in the thin protocol — including
//!   the deflating store, which only the monitor's sole owner performs.
//! * **Deflation safety:** a monitor is deflated only while its owner
//!   holds it exactly once with an empty entry queue and an empty wait
//!   set, snapshotted atomically in one load of the monitor's state word
//!   ([`FatLock::is_sole_quiescent_owner`]). Threads that enqueue
//!   *after* the snapshot revalidate the lock word once they acquire
//!   the monitor and retry if it moved on.
//! * **Bounded population:** a deflated slot returns to the monitor
//!   table's free list, so the live population is bounded by the number
//!   of simultaneously inflated objects, not by the total ever inflated.
//!   The deflating owner counts its slot out of the population *before*
//!   the neutral store, so a contender that re-inflates the object right
//!   after never finds it holding two slots.
//!
//! # The deflate / re-inflate races
//!
//! Deflation opens two races one-way inflation never has, both resolved
//! by *revalidation after acquisition*:
//!
//! 1. **Deflate vs. concurrent acquire.** A contender reads a fat word,
//!    queues on the monitor, and parks; meanwhile the owner deflates
//!    (the contender enqueued after the quiescence snapshot) and the
//!    releasing `unlock` wakes it. On waking it owns a monitor that no
//!    longer backs the object, detects the stale word, releases the
//!    monitor (waking anyone queued behind it), and retries on the
//!    fresh word.
//! 2. **Recycled-slot ABA.** The stale monitor may have been re-bound
//!    to a *different* object by the time the contender acquires it.
//!    The table therefore tracks a per-slot object binding, published
//!    before the fat word and cleared before the slot is freed:
//!    revalidation accepts the acquisition only if the word still
//!    carries this index *and* the slot is still bound to this object.
//!    A transient foreign acquisition is harmless — the mistaken holder
//!    releases immediately and never blocks while holding.

use std::sync::Arc;

use thinlock_monitor::FatLock;
use thinlock_runtime::error::SyncResult;
use thinlock_runtime::events::TraceEventKind;
use thinlock_runtime::fault::InjectionPoint;
use thinlock_runtime::heap::{Heap, ObjRef};
use thinlock_runtime::hooks::{Hooks, Site};
use thinlock_runtime::lockword::MonitorIndex;
use thinlock_runtime::registry::{ThreadRegistry, ThreadToken};
use thinlock_runtime::schedule::SchedPoint;

use crate::config::{DynamicConfig, FastPathConfig};
use crate::lockcore::{LockCore, Policy};

/// The CJM rule: the thin protocol's contention inflation into a bounded
/// monitor table, and deflation on the sole quiescent release.
#[derive(Debug)]
pub struct Cjm;

impl Policy for Cjm {
    const NAME: &'static str = "CJM";
    const TYPE_NAME: &'static str = "CjmLocks";
    const DEFLATES: bool = true;

    /// Deflate iff the releaser is the sole quiescent owner — one atomic
    /// snapshot; see [`FatLock::is_sole_quiescent_owner`] for why the
    /// check cannot be three separate reads.
    fn release_fat<C: FastPathConfig, H: Hooks>(
        core: &LockCore<Self, C, H>,
        obj: ObjRef,
        t: ThreadToken,
        idx: MonitorIndex,
        monitor: &FatLock,
    ) -> Option<SyncResult<()>> {
        monitor
            .is_sole_quiescent_owner(t)
            .then(|| core.deflate_and_release(obj, idx, monitor, t))
    }
}

/// The Compact-Java-Monitors protocol: the thin-lock fast path, plus
/// deflation back to the neutral word when a monitor quiesces, over a
/// bounded recycling monitor table.
///
/// # Example — the deflation lifecycle
///
/// A `wait`-style inflation is undone by the final quiet release, and
/// the monitor slot is recycled:
///
/// ```
/// use thinlock::CjmLocks;
/// use thinlock_runtime::{SyncBackend, SyncProtocol};
///
/// let locks = CjmLocks::with_capacity(8);
/// let reg = locks.registry().register()?;
/// let t = reg.token();
/// let obj = locks.heap().alloc()?;
///
/// locks.lock(obj, t)?;
/// locks.notify(obj, t)?;                  // wait/notify forces inflation
/// assert!(locks.probe_word(obj).is_fat());
/// assert_eq!(locks.monitors_live(), 1);
///
/// locks.unlock(obj, t)?;                  // sole quiescent owner: deflate
/// assert!(locks.probe_word(obj).is_unlocked());
/// assert_eq!(locks.monitors_live(), 0);
/// assert_eq!(locks.deflation_count(), 1);
///
/// // The next churn round reuses the same slot instead of growing.
/// locks.lock(obj, t)?;
/// locks.notify(obj, t)?;
/// locks.unlock(obj, t)?;
/// assert_eq!(locks.monitors_peak(), 1, "population bounded by churn width");
/// assert_eq!(locks.monitors_allocated(), 2, "but allocations keep counting");
/// # Ok::<(), thinlock_runtime::SyncError>(())
/// ```
pub type CjmLocks = LockCore<Cjm>;

impl CjmLocks {
    /// Creates a protocol over a fresh heap of `capacity` objects, with
    /// the monitor bound equal to the heap capacity (every object
    /// simultaneously inflated is the worst case, so inflation can only
    /// fail on exhaustion if something leaks).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::new(
            Arc::new(Heap::with_capacity(capacity)),
            ThreadRegistry::new(),
        )
    }

    /// Creates a protocol over an existing heap and registry, monitor
    /// bound equal to the heap capacity.
    pub fn new(heap: Arc<Heap>, registry: ThreadRegistry) -> Self {
        let bound = heap.capacity();
        Self::with_monitor_bound(heap, registry, bound)
    }

    /// Creates a protocol with an explicit monitor bound — the monitor
    /// table's capacity, the hard ceiling on simultaneously live monitors. A bound below the number
    /// of simultaneously contended objects makes inflation fail with
    /// [`SyncError::MonitorIndexExhausted`](thinlock_runtime::SyncError);
    /// contention inflation tolerates that (contenders keep spinning),
    /// `wait`/`notify` surface it to the caller.
    pub fn with_monitor_bound(heap: Arc<Heap>, registry: ThreadRegistry, bound: usize) -> Self {
        LockCore::from_parts(heap, registry, Cjm, DynamicConfig::default(), bound)
    }
}

impl<C: FastPathConfig, H: Hooks> LockCore<Cjm, C, H> {
    /// The deflating release: the caller holds `monitor` as its sole
    /// quiescent owner. Unbinds the slot, restores the neutral word
    /// *before* releasing the monitor (a contender that acquired first
    /// would pass revalidation against a monitor about to be unbound),
    /// then puts the slot back on the free list.
    fn deflate_and_release(
        &self,
        obj: ObjRef,
        idx: MonitorIndex,
        monitor: &FatLock,
        t: ThreadToken,
    ) -> SyncResult<()> {
        // Deschedule between the quiescence decision and the deflating
        // store — the window in which fresh contenders can still enqueue
        // (they revalidate and retry; the chaos suite leans on this).
        self.yield_point(
            Site::both(SchedPoint::Deflate, InjectionPoint::UnlockStore),
            obj,
        );
        // Count the slot out of the population before the neutral store:
        // a contender may thin-lock the neutral word and re-inflate at
        // once, and must not find this object still holding a slot. We
        // hold the monitor throughout, so revalidation is unaffected.
        self.monitors.unbind(idx);
        let cell = self.cell(obj);
        let current = cell.load_relaxed();
        debug_assert!(current.is_fat(), "only the sole owner deflates");
        cell.store_release(current.with_lock_field_clear());
        self.emit(t, obj, TraceEventKind::Deflated { index: idx.get() });
        // Release wakes the front of the entry queue, if any contender
        // slipped in after the snapshot; it will revalidate and retry.
        let r = monitor.unlock(t, &self.registry);
        debug_assert!(r.is_ok(), "sole owner release cannot fail");
        self.monitors.recycle(idx);
        self.emit(t, obj, TraceEventKind::UnlockFat);
        r
    }

    /// Idle-scan reclaimer: walks the heap and deflates every fat word
    /// whose monitor is free and quiescent, returning the number of
    /// monitors reclaimed. The normal release path already deflates, so
    /// this only finds monitors stranded live by an abnormal path — an
    /// orphan sweep that reclaimed a dead owner, or a notify storm that
    /// drained without a final quiet release. Run it from a maintenance
    /// thread the way a JVM would run its monitor-deflation safepoint
    /// pass.
    pub fn reclaim_idle(&self, t: ThreadToken) -> usize {
        let mut reclaimed = 0;
        for obj in self.heap.iter() {
            let word = self.cell(obj).load_acquire();
            let Some(idx) = word.monitor_index().filter(|_| word.is_fat()) else {
                continue;
            };
            let Some(monitor) = self.monitors.get(idx) else {
                continue;
            };
            // Try to become the owner without blocking; holding the
            // monitor freezes deflation state, then the usual
            // revalidate-and-quiesce check decides.
            if !monitor.try_lock(t) {
                continue;
            }
            if self.stands(obj, word, idx) && monitor.is_sole_quiescent_owner(t) {
                if self.deflate_and_release(obj, idx, monitor, t).is_ok() {
                    reclaimed += 1;
                }
            } else {
                let _ = monitor.unlock(t, &self.registry);
            }
        }
        reclaimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread;
    use std::time::Duration;
    use thinlock_runtime::backend::SyncBackend;
    use thinlock_runtime::error::SyncError;
    use thinlock_runtime::hooks::HookSet;
    use thinlock_runtime::protocol::{SyncProtocol, WaitOutcome};
    use thinlock_runtime::stats::LockStats;

    fn fresh(capacity: usize) -> CjmLocks {
        CjmLocks::with_capacity(capacity)
    }

    crate::conformance::rows!(fresh);

    #[test]
    fn quiet_fat_release_deflates_and_recycles() {
        let p = fresh(4);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        p.lock(obj, t).unwrap();
        p.notify(obj, t).unwrap(); // inflate (WaitNotify)
        assert!(p.lock_word(obj).is_fat());
        assert_eq!(p.monitors_live(), 1);
        p.unlock(obj, t).unwrap(); // deflate
        assert!(p.lock_word(obj).is_unlocked(), "word back to neutral");
        assert_eq!(p.monitors_live(), 0);
        assert_eq!(p.deflation_count(), 1);
        // Deflated object relocks thin.
        p.lock(obj, t).unwrap();
        assert!(p.lock_word(obj).is_thin_shape());
        p.unlock(obj, t).unwrap();
    }

    #[test]
    fn nested_fat_release_does_not_deflate_early() {
        let p = fresh(4);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        p.lock(obj, t).unwrap();
        p.lock(obj, t).unwrap();
        p.notify(obj, t).unwrap(); // inflate at depth 2
        assert!(p.lock_word(obj).is_fat());
        p.unlock(obj, t).unwrap();
        assert!(p.lock_word(obj).is_fat(), "still held once: no deflation");
        assert_eq!(p.deflation_count(), 0);
        p.unlock(obj, t).unwrap();
        assert!(p.lock_word(obj).is_unlocked(), "final release deflates");
        assert_eq!(p.deflation_count(), 1);
    }

    #[test]
    fn waiters_block_deflation_until_the_last_release() {
        let p = Arc::new(fresh(4));
        let obj = p.heap().alloc().unwrap();
        let waiter = {
            let p = Arc::clone(&p);
            thread::spawn(move || {
                let r = p.registry().register().unwrap();
                let t = r.token();
                p.lock(obj, t).unwrap();
                let out = p.wait(obj, t, None).unwrap();
                assert!(p.holds_lock(obj, t));
                p.unlock(obj, t).unwrap();
                out
            })
        };
        while !p.in_wait_set_any(obj) {
            thread::yield_now();
        }
        let r = p.registry().register().unwrap();
        let t = r.token();
        p.lock(obj, t).unwrap();
        p.notify(obj, t).unwrap();
        p.unlock(obj, t).unwrap();
        // The notified waiter was in the entry queue at our release, so
        // our release must NOT have deflated.
        assert_eq!(waiter.join().unwrap(), WaitOutcome::Notified);
        // The waiter's own final release was quiescent: deflated.
        assert!(p.lock_word(obj).is_unlocked());
        assert_eq!(p.monitors_live(), 0);
        assert_eq!(p.deflation_count(), 1);
    }

    impl CjmLocks {
        /// Test helper: anyone in the wait set of obj's monitor?
        fn in_wait_set_any(&self, obj: ObjRef) -> bool {
            self.monitor_for(obj).is_some_and(|m| m.wait_set_len() > 0)
        }
    }

    #[test]
    fn reinflation_ping_pong_bounds_population() {
        // The churn loop: every round inflates (wait-notify cause) and
        // the quiet release deflates. Monitor population must stay at
        // one slot regardless of the number of rounds — the table-based
        // protocols grow their footprint per object.
        const ROUNDS: u64 = 500;
        let p = fresh(8);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let objs: Vec<_> = (0..8).map(|_| p.heap().alloc().unwrap()).collect();
        for round in 0..ROUNDS {
            let obj = objs[(round % 8) as usize];
            p.lock(obj, t).unwrap();
            p.notify(obj, t).unwrap();
            p.unlock(obj, t).unwrap();
        }
        assert_eq!(p.monitors_live(), 0, "all monitors deflated");
        assert_eq!(p.monitors_peak(), 1, "never more than one live");
        assert_eq!(p.inflation_count(), ROUNDS);
        assert_eq!(p.deflation_count(), ROUNDS);
        assert_eq!(p.monitors_allocated(), ROUNDS, "slot recycled each round");
        assert_eq!(p.monitors.len(), 1, "one slot ever materialized");
    }

    #[test]
    fn deflate_vs_concurrent_acquire_race() {
        // Hammer one object from several threads with a wait-notify
        // inflation in every round, so deflating releases constantly
        // race against fresh fat-path acquisitions and the revalidation
        // path runs for real. The counter proves mutual exclusion held.
        let p = Arc::new(fresh(4));
        let obj = p.heap().alloc().unwrap();
        let total = Arc::new(AtomicU64::new(0));
        const THREADS: usize = 4;
        const ITERS: u64 = 400;
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let p = Arc::clone(&p);
            let total = Arc::clone(&total);
            handles.push(thread::spawn(move || {
                let r = p.registry().register().unwrap();
                let t = r.token();
                for _ in 0..ITERS {
                    p.lock(obj, t).unwrap();
                    p.notify(obj, t).unwrap(); // force fat while held
                    let v = total.load(Ordering::Relaxed);
                    std::hint::spin_loop();
                    total.store(v + 1, Ordering::Relaxed);
                    p.unlock(obj, t).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), THREADS as u64 * ITERS);
        let r = p.registry().register().unwrap();
        assert!(!p.holds_lock(obj, r.token()));
        assert!(p.monitors_peak() <= 1, "one object: at most one monitor");
        // Every inflation is eventually undone. One scan can miss a
        // monitor that is momentarily non-quiescent (a loaded host
        // delays the last waiter's bookkeeping), so give the reclaimer
        // a few passes before judging convergence.
        for _ in 0..50 {
            let _ = p.reclaim_idle(r.token());
            if p.monitors_live() == 0 {
                break;
            }
            thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(p.monitors_live(), 0, "population converged to zero");
    }

    #[test]
    fn contention_inflates_then_deflates() {
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
                barrier.wait();
                thread::sleep(Duration::from_millis(30));
                p.unlock(obj, t).unwrap();
            })
        };
        let r = p.registry().register().unwrap();
        let t = r.token();
        barrier.wait();
        p.lock(obj, t).unwrap(); // spins, acquires, inflates
        assert!(p.lock_word(obj).is_fat(), "contention inflated");
        p.unlock(obj, t).unwrap(); // quiet: deflates
        owner.join().unwrap();
        assert!(p.lock_word(obj).is_unlocked(), "deflated after the burst");
        assert_eq!(p.monitors_live(), 0);
    }

    #[test]
    fn try_lock_and_deadline_cross_deflation() {
        let p = fresh(4);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        // try_lock through a fat word.
        p.pre_inflate(obj).unwrap();
        assert!(p.lock_word(obj).is_fat());
        assert!(p.try_lock(obj, t).unwrap());
        p.unlock(obj, t).unwrap(); // quiet release of the hint monitor
        assert!(p.lock_word(obj).is_unlocked(), "hint deflated on release");
        // lock_deadline on the neutral word.
        p.lock_deadline(obj, t, Duration::from_millis(50)).unwrap();
        p.unlock(obj, t).unwrap();
    }

    #[test]
    fn pool_exhaustion_is_tolerated_on_contention_path() {
        // Bound of zero: inflation can never succeed. Contention must
        // still be correct (spin-only), and wait/notify must surface the
        // exhaustion.
        let heap = Arc::new(Heap::with_capacity(4));
        let p = CjmLocks::with_monitor_bound(heap, ThreadRegistry::new(), 0);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        p.lock(obj, t).unwrap();
        assert_eq!(p.notify(obj, t), Err(SyncError::MonitorIndexExhausted));
        p.unlock(obj, t).unwrap();
        assert_eq!(p.pre_inflate(obj), Err(SyncError::MonitorIndexExhausted));
        assert!(!p.pre_inflate_hint(obj));
    }

    #[test]
    fn orphan_sweep_then_idle_scan_reclaims_monitor() {
        let p = Arc::new(fresh(4).with_orphan_recovery());
        let obj = p.heap().alloc().unwrap();
        {
            let p = Arc::clone(&p);
            thread::spawn(move || {
                let r = p.registry().register().unwrap();
                let t = r.token();
                p.lock(obj, t).unwrap();
                p.notify(obj, t).unwrap(); // inflate
                                           // Exit without unlocking: the sweeper reclaims.
            })
            .join()
            .unwrap();
        }
        let r = p.registry().register().unwrap();
        let t = r.token();
        assert!(p.lock_word(obj).is_fat(), "sweep leaves the word fat");
        assert_eq!(p.owner_of(obj), None, "ownership reclaimed");
        assert_eq!(p.monitors_live(), 1, "monitor stranded live");
        assert_eq!(p.reclaim_idle(t), 1, "idle scan deflates it");
        assert!(p.lock_word(obj).is_unlocked());
        assert_eq!(p.monitors_live(), 0);
        // Object fully usable afterwards.
        p.lock(obj, t).unwrap();
        p.unlock(obj, t).unwrap();
    }

    #[test]
    fn population_bound_under_many_objects() {
        // Inflate K objects simultaneously (hold them fat), release
        // them, and confirm peak == K while the final population is 0.
        const K: usize = 8;
        let p = fresh(K);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let objs: Vec<_> = (0..K).map(|_| p.heap().alloc().unwrap()).collect();
        for &obj in &objs {
            p.lock(obj, t).unwrap();
            p.notify(obj, t).unwrap();
        }
        assert_eq!(p.monitors_live(), K);
        for &obj in &objs {
            p.unlock(obj, t).unwrap();
        }
        assert_eq!(p.monitors_live(), 0);
        assert_eq!(p.monitors_peak(), K);
        assert!(p.monitors.len() <= K, "footprint bounded by peak");
    }

    #[test]
    fn stats_and_events_flow_through() {
        let stats = Arc::new(LockStats::new());
        let p = fresh(4).with_hooks(HookSet::new().sink(Arc::clone(&stats) as _));
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        p.lock(obj, t).unwrap();
        p.lock(obj, t).unwrap();
        p.unlock(obj, t).unwrap();
        p.unlock(obj, t).unwrap();
        let snap = stats.snapshot();
        assert_eq!(snap.scenario_counts[0], 1);
        assert_eq!(snap.scenario_counts[1], 1);
        assert_eq!(snap.unlocks_thin, 2);
    }

    #[test]
    fn backend_probes_report_cjm_shape() {
        let p = fresh(4);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        assert!(p.deflation_capable());
        assert!(p.monitor_probe(obj).is_none());
        p.lock(obj, t).unwrap();
        assert_eq!(p.owner_of(obj), Some(t.index()));
        p.notify(obj, t).unwrap();
        let probe = p.monitor_probe(obj).unwrap();
        assert_eq!(probe.owner, Some(t.index()));
        assert_eq!(probe.count, 1);
        assert!(!probe.is_idle());
        p.unlock(obj, t).unwrap();
        assert!(p.monitor_probe(obj).is_none(), "deflated: no fat probe");
        assert_eq!(p.owner_of(obj), None);
    }
}
