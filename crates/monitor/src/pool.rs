//! A bounded, recycling monitor pool for deflating backends.
//!
//! [`MonitorTable`](crate::table::MonitorTable) never recycles: under
//! the paper's one-way inflation a slot, once handed out, backs its
//! object forever, so the table is sized to the heap and indices are
//! permanent. A deflating backend (Compact Java Monitors, Dice & Kogan,
//! arXiv 2102.04188) breaks exactly that assumption — when a monitor
//! quiesces the object's word is restored to the neutral thin shape and
//! the slot goes back on a free list, so a *bounded* pool can serve an
//! unbounded stream of short-lived contended objects.
//!
//! Lookup stays wait-free (slot array indexed by the word's 23-bit
//! monitor index). Recycling only touches a mutex-guarded free list on
//! the inflation/deflation slow paths, never on lock/unlock fast paths.
//!
//! # Recycling and the ABA argument
//!
//! A recycled index may be observed by a thread still holding a stale
//! fat word. The pool therefore records, per slot, the object the slot
//! currently backs ([`MonitorPool::binding`]). A backend acquiring
//! through a fat word must *revalidate after locking the monitor*:
//! re-load the object's word and check it still carries this index
//! **and** the slot is still bound to this object; on mismatch it
//! releases the (foreign) monitor immediately and retries from the
//! word. Because a slot is unbound and freed only *after* its object's
//! word was neutralized, a revalidated match proves the monitor is the
//! object's current monitor. The transient foreign acquisition is
//! harmless: the mistaken holder never blocks while holding it, so it
//! cannot deadlock, and a concurrent inflater adopting the slot simply
//! queues in [`FatLock::lock_n`] until the transient holder releases.

use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use thinlock_runtime::error::SyncError;
use thinlock_runtime::events::TraceEventKind;
use thinlock_runtime::hooks::Hooks;
use thinlock_runtime::lockword::MonitorIndex;

use crate::fatlock::FatLock;
use crate::table::allocation_site;

/// Sentinel in a slot's binding meaning "not backing any object".
const UNBOUND: u32 = u32::MAX;

/// A bounded map from [`MonitorIndex`] to [`FatLock`] whose slots are
/// recycled when their monitor deflates.
///
/// # Example
///
/// ```
/// use thinlock_monitor::MonitorPool;
/// use thinlock_runtime::hooks::NoHooks;
///
/// let pool = MonitorPool::with_capacity(2);
/// let a = pool.acquire(7, &NoHooks)?; // bind a slot to object #7
/// assert_eq!(pool.live(), 1);
/// assert_eq!(pool.binding(a), Some(7));
/// pool.release(a); // deflation returns the slot
/// assert_eq!(pool.live(), 0);
/// let b = pool.acquire(9, &NoHooks)?; // ... and object #9 reuses it
/// assert_eq!(b, a);
/// # Ok::<(), thinlock_runtime::SyncError>(())
/// ```
pub struct MonitorPool {
    slots: Box<[OnceLock<FatLock>]>,
    bindings: Box<[AtomicU32]>,
    free: Mutex<Vec<u32>>,
    next: AtomicU32,
    live: AtomicU32,
    peak: AtomicU32,
    allocated: AtomicU64,
    recycled: AtomicU64,
}

impl MonitorPool {
    /// Creates a pool of at most `capacity` concurrently-live monitors
    /// (clamped to the 23-bit index space). The capacity is the bound a
    /// deflating backend advertises: its monitor population can never
    /// exceed it, no matter how many objects churn through inflation.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.min(MonitorIndex::MAX as usize + 1);
        MonitorPool {
            slots: (0..cap).map(|_| OnceLock::new()).collect(),
            bindings: (0..cap).map(|_| AtomicU32::new(UNBOUND)).collect(),
            free: Mutex::new(Vec::new()),
            next: AtomicU32::new(0),
            live: AtomicU32::new(0),
            peak: AtomicU32::new(0),
            allocated: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
        }
    }

    /// Binds a slot to the object with heap index `obj_index` and
    /// returns its monitor index, recycling a freed slot when one
    /// exists. The returned slot's monitor is *unowned* (fresh) or at
    /// worst transiently held by a stale-word racer (recycled); the
    /// caller adopts it with [`FatLock::lock_n`] before publishing the
    /// fat word. Every acquire, fresh or recycled, tells `hooks` with a
    /// [`TraceEventKind::MonitorAllocated`] event, so the trace shows
    /// each inflation's slot.
    ///
    /// # Errors
    ///
    /// [`SyncError::MonitorIndexExhausted`] when every slot is live (or
    /// `hooks` injects exhaustion, consuming nothing).
    pub fn acquire<H: Hooks + ?Sized>(
        &self,
        obj_index: u32,
        hooks: &H,
    ) -> Result<MonitorIndex, SyncError> {
        allocation_site(hooks)?;
        let slot = match self.free.lock().expect("pool free list poisoned").pop() {
            Some(slot) => {
                self.recycled.fetch_add(1, Ordering::Relaxed);
                slot
            }
            None => {
                let slot = self.next.fetch_add(1, Ordering::Relaxed);
                if (slot as usize) >= self.slots.len() {
                    self.next.fetch_sub(1, Ordering::Relaxed);
                    return Err(SyncError::MonitorIndexExhausted);
                }
                let installed = self.slots[slot as usize].set(FatLock::new()).is_ok();
                assert!(installed, "pool slot allocated twice");
                slot
            }
        };
        self.allocated.fetch_add(1, Ordering::Relaxed);
        // Bind before the caller can publish the fat word: a revalidating
        // reader that sees the new word must also see the binding.
        self.bindings[slot as usize].store(obj_index, Ordering::Release);
        let live = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(live, Ordering::Relaxed);
        hooks.after(None, None, TraceEventKind::MonitorAllocated { index: slot });
        MonitorIndex::new(slot)
    }

    /// Returns a slot to the free list: [`MonitorPool::unbind`] followed
    /// by [`MonitorPool::recycle`].
    pub fn release(&self, index: MonitorIndex) {
        self.unbind(index);
        self.recycle(index);
    }

    /// The first half of a release: unbinds the slot from its object and
    /// counts it out of [`MonitorPool::live`]. Revalidation through the
    /// slot fails from here on, but the slot is not reused until
    /// [`MonitorPool::recycle`]. A deflating owner calls this *before*
    /// neutralizing the object's word, so a contender that re-inflates
    /// the object at once never finds it holding two slots.
    pub fn unbind(&self, index: MonitorIndex) {
        let slot = index.get() as usize;
        debug_assert!(slot < self.slots.len());
        let was = self.bindings[slot].swap(UNBOUND, Ordering::Release);
        debug_assert_ne!(was, UNBOUND, "slot released twice");
        let prev = self.live.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "live monitor count underflow");
    }

    /// The second half of a release: pushes an unbound slot on the free
    /// list.
    ///
    /// The caller must have already neutralized the bound object's word
    /// (so no *new* reader can reach the slot through it) and released
    /// the monitor. Stale-word racers may still lock the monitor
    /// transiently after this; the revalidation contract (module docs)
    /// makes that harmless.
    pub fn recycle(&self, index: MonitorIndex) {
        self.free
            .lock()
            .expect("pool free list poisoned")
            .push(index.get());
    }

    /// Looks up a monitor by index. Wait-free.
    ///
    /// `#[inline]` for the same reason as
    /// [`MonitorTable::get`](crate::table::MonitorTable::get): this sits
    /// on the fat-lock fast path across a crate boundary.
    #[inline]
    pub fn get(&self, index: MonitorIndex) -> Option<&FatLock> {
        self.slots.get(index.get() as usize)?.get()
    }

    /// The heap index of the object this slot currently backs, or
    /// `None` while the slot is free. Acquire load, pairing with the
    /// release store in [`MonitorPool::acquire`] — this is one half of
    /// the revalidation a fat acquirer performs after locking the
    /// monitor.
    #[inline]
    pub fn binding(&self, index: MonitorIndex) -> Option<u32> {
        let bound = self
            .bindings
            .get(index.get() as usize)?
            .load(Ordering::Acquire);
        (bound != UNBOUND).then_some(bound)
    }

    /// Iterates over every currently-bound slot with its index and the
    /// object index it backs, for diagnostics (only the pool's own tests
    /// call it: the orphan sweep and `reclaim_idle` walk the heap).
    /// Bindings can change mid-iteration.
    pub fn iter_bound(&self) -> impl Iterator<Item = (MonitorIndex, u32, &FatLock)> + '_ {
        let len = (self.next.load(Ordering::Relaxed) as usize).min(self.slots.len());
        (0..len as u32).filter_map(move |slot| {
            let bound = self.bindings[slot as usize].load(Ordering::Acquire);
            if bound == UNBOUND {
                return None;
            }
            let lock = self.slots[slot as usize].get()?;
            Some((MonitorIndex::new(slot).ok()?, bound, lock))
        })
    }

    /// Monitors currently bound to an object — the population the pool
    /// exists to bound. Never exceeds [`MonitorPool::capacity`].
    #[inline]
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed) as usize
    }

    /// High-water mark of [`MonitorPool::live`].
    #[inline]
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed) as usize
    }

    /// Total [`MonitorPool::acquire`] calls served (monotone; counts
    /// recycled slots every time they are re-bound).
    #[inline]
    pub fn allocated_total(&self) -> u64 {
        self.allocated.load(Ordering::Relaxed)
    }

    /// The subset of [`MonitorPool::allocated_total`] served from the
    /// free list rather than a fresh slot.
    #[inline]
    pub fn recycled_total(&self) -> u64 {
        self.recycled.load(Ordering::Relaxed)
    }

    /// Distinct slots ever materialized (the pool's memory footprint).
    #[inline]
    pub fn footprint(&self) -> usize {
        (self.next.load(Ordering::Relaxed) as usize).min(self.slots.len())
    }

    /// Total slots available.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

impl fmt::Debug for MonitorPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MonitorPool")
            .field("live", &self.live())
            .field("peak", &self.peak())
            .field("footprint", &self.footprint())
            .field("capacity", &self.capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use thinlock_runtime::events::TraceSink;
    use thinlock_runtime::fault::{FaultAction, FaultInjector, InjectionPoint};
    use thinlock_runtime::hooks::{HookSet, NoHooks};
    use thinlock_runtime::registry::ThreadRegistry;

    #[test]
    fn acquire_binds_and_release_recycles() {
        let pool = MonitorPool::with_capacity(2);
        let a = pool.acquire(10, &NoHooks).unwrap();
        let b = pool.acquire(11, &NoHooks).unwrap();
        assert_ne!(a, b);
        assert_eq!(pool.live(), 2);
        assert_eq!(pool.peak(), 2);
        assert_eq!(pool.binding(a), Some(10));
        assert_eq!(pool.binding(b), Some(11));

        pool.release(a);
        assert_eq!(pool.live(), 1);
        assert_eq!(pool.binding(a), None);

        // The freed slot is reused and re-bound; footprint stays put.
        let c = pool.acquire(12, &NoHooks).unwrap();
        assert_eq!(c, a);
        assert_eq!(pool.binding(c), Some(12));
        assert_eq!(pool.footprint(), 2);
        assert_eq!(pool.allocated_total(), 3);
        assert_eq!(pool.recycled_total(), 1);
    }

    #[test]
    fn exhaustion_only_when_all_slots_live() {
        let pool = MonitorPool::with_capacity(1);
        let a = pool.acquire(0, &NoHooks).unwrap();
        assert_eq!(
            pool.acquire(1, &NoHooks).unwrap_err(),
            SyncError::MonitorIndexExhausted
        );
        pool.release(a);
        assert!(
            pool.acquire(1, &NoHooks).is_ok(),
            "release unblocks the pool"
        );
    }

    #[test]
    fn recycled_monitor_is_adoptable_via_lock_n() {
        let reg = ThreadRegistry::new();
        let r = reg.register().unwrap();
        let t = r.token();

        let pool = MonitorPool::with_capacity(1);
        let a = pool.acquire(3, &NoHooks).unwrap();
        let m = pool.get(a).unwrap();
        m.lock_n(t, 2, &reg, &NoHooks).unwrap();
        assert_eq!(m.count(), 2);
        m.release_all(t, &reg).unwrap();
        pool.release(a);

        // Same slot, new object: the existing FatLock is re-owned.
        let b = pool.acquire(4, &NoHooks).unwrap();
        assert_eq!(b, a);
        let m = pool.get(b).unwrap();
        m.lock_n(t, 1, &reg, &NoHooks).unwrap();
        assert!(m.holds(t));
        m.unlock(t, &reg).unwrap();
    }

    #[test]
    fn injected_exhaustion_consumes_nothing() {
        #[derive(Debug)]
        struct ExhaustAlways;
        impl FaultInjector for ExhaustAlways {
            fn decide(&self, point: InjectionPoint) -> FaultAction {
                if point == InjectionPoint::MonitorAllocate {
                    FaultAction::Exhaust
                } else {
                    FaultAction::Proceed
                }
            }
        }
        let hooks = HookSet::new().fault_injector(Arc::new(ExhaustAlways));
        let pool = MonitorPool::with_capacity(2);
        assert_eq!(
            pool.acquire(0, &hooks).unwrap_err(),
            SyncError::MonitorIndexExhausted
        );
        assert_eq!(pool.live(), 0);
        assert_eq!(pool.allocated_total(), 0);
    }

    #[test]
    fn sink_sees_recycled_acquires_too() {
        use std::sync::Mutex as StdMutex;
        use thinlock_runtime::heap::ObjRef;
        use thinlock_runtime::lockword::ThreadIndex;

        #[derive(Debug, Default)]
        struct Recorder(StdMutex<Vec<u32>>);
        impl TraceSink for Recorder {
            fn record(&self, _t: Option<ThreadIndex>, _o: Option<ObjRef>, kind: TraceEventKind) {
                if let TraceEventKind::MonitorAllocated { index } = kind {
                    self.0.lock().unwrap().push(index);
                }
            }
        }

        let recorder = Arc::new(Recorder::default());
        let hooks = HookSet::new().sink(Arc::clone(&recorder) as Arc<dyn TraceSink>);
        let pool = MonitorPool::with_capacity(1);
        let a = pool.acquire(0, &hooks).unwrap();
        pool.release(a);
        let _ = pool.acquire(1, &hooks).unwrap();
        assert_eq!(*recorder.0.lock().unwrap(), vec![0, 0]);
    }

    #[test]
    fn iter_bound_skips_free_slots() {
        let pool = MonitorPool::with_capacity(3);
        let a = pool.acquire(5, &NoHooks).unwrap();
        let b = pool.acquire(6, &NoHooks).unwrap();
        pool.release(a);
        let bound: Vec<(u32, u32)> = pool.iter_bound().map(|(i, o, _)| (i.get(), o)).collect();
        assert_eq!(bound, vec![(b.get(), 6)]);
    }

    #[test]
    fn debug_output_mentions_live() {
        let pool = MonitorPool::with_capacity(1);
        assert!(format!("{pool:?}").contains("live"));
    }
}
