//! The monitor table: 23-bit indices to fat locks.
//!
//! "We maintain the table which maps inflated monitor indices to fat
//! locks" (Section 2.3). The table must support wait-free lookup — the
//! paper's fat-lock fast path is "shifting the monitor index to the right
//! and indexing into the vector" with no locking, which is what makes thin
//! locks beat the JDK monitor cache even after inflation (Section 3.3).
//!
//! We get the same property with a preallocated slot array: a slot is
//! materialized once, on first use, and stays at its index for the
//! table's lifetime. Every backend uses this one table. Under the paper's
//! one-way inflation a published slot backs its object forever, so a
//! table sized to the heap can never overflow. A deflating backend gives
//! its slot back when the monitor quiesces; the recycling half (free
//! list, per-slot binding, the ABA argument) is in [`crate::pool`].

use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};

use thinlock_runtime::error::SyncError;
use thinlock_runtime::events::TraceEventKind;
use thinlock_runtime::fault::{FaultAction, InjectionPoint};
use thinlock_runtime::heap::ObjRef;
use thinlock_runtime::hooks::{Hooks, Site};
use thinlock_runtime::lockword::MonitorIndex;
use thinlock_runtime::registry::{ThreadRegistry, ThreadToken};

use crate::fatlock::FatLock;

/// Sentinel in a slot's binding meaning "not backing any object".
pub(crate) const UNBOUND: u32 = u32::MAX;

/// Map from [`MonitorIndex`] to [`FatLock`] with wait-free lookups.
///
/// # Example
///
/// ```
/// use thinlock_monitor::MonitorTable;
/// use thinlock_runtime::heap::ObjRef;
/// use thinlock_runtime::hooks::NoHooks;
/// use thinlock_runtime::registry::ThreadRegistry;
///
/// let table = MonitorTable::with_capacity(8);
/// let obj = ObjRef::from_index(3);
/// let idx = table.install(obj, None, &ThreadRegistry::new(), &NoHooks)?;
/// assert!(table.get(idx).is_some());
/// assert_eq!(table.binding(idx), Some(obj));
/// # Ok::<(), thinlock_runtime::SyncError>(())
/// ```
pub struct MonitorTable {
    slots: Box<[OnceLock<FatLock>]>,
    pub(crate) bindings: Box<[AtomicU32]>,
    pub(crate) free: Mutex<Vec<u32>>,
    /// Slots materialized so far.
    next: AtomicU32,
    pub(crate) live: AtomicU32,
    /// The largest `live` seen just before a decrement: `live` only falls
    /// there, so this and the current `live` hold the high-water mark,
    /// and an install (every inflation, on a one-way backend) pays for no
    /// maximum.
    pub(crate) peak: AtomicU32,
    /// Recycled installs less discarded ones: with `next`, the installs
    /// that stuck, counted without a second atomic on a fresh install.
    pub(crate) recycled: AtomicI64,
}

impl MonitorTable {
    /// Creates a table with room for `capacity` monitors (clamped to the
    /// 23-bit index space). For a deflating backend the capacity is the
    /// bound it advertises: its live population never exceeds it, however
    /// many objects churn through inflation.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.min(MonitorIndex::MAX as usize + 1);
        MonitorTable {
            slots: (0..cap).map(|_| OnceLock::new()).collect(),
            bindings: (0..cap).map(|_| AtomicU32::new(UNBOUND)).collect(),
            free: Mutex::new(Vec::new()),
            next: AtomicU32::new(0),
            live: AtomicU32::new(0),
            peak: AtomicU32::new(0),
            recycled: AtomicI64::new(0),
        }
    }

    /// Installs a monitor for `obj`, owned `count` times by the thread of
    /// `owner` or unowned for `None`, and returns its index for the
    /// caller to publish in the object's word.
    ///
    /// Passes the [`InjectionPoint::MonitorAllocate`] site of `hooks`
    /// first, then takes a freed slot or materializes a fresh one, binds
    /// it to `obj` and tells `hooks` with a
    /// [`TraceEventKind::MonitorAllocated`] event. A fresh slot is built
    /// already owned ([`FatLock::new_owned`]). A recycled one may still be
    /// held for a moment by a thread that read a stale fat word, so an
    /// owner adopts it through its queue ([`FatLock::lock_n`], under
    /// `hooks` and `registry`). An install whose word is never published
    /// goes back through [`MonitorTable::discard`].
    ///
    /// # Errors
    ///
    /// [`SyncError::MonitorIndexExhausted`] when every slot is live, or
    /// when `hooks` injects exhaustion, which consumes nothing; the
    /// adoption's error if the owner's token is stale.
    pub fn install<H: Hooks>(
        &self,
        obj: ObjRef,
        owner: Option<(ThreadToken, u32)>,
        registry: &ThreadRegistry,
        hooks: &H,
    ) -> Result<MonitorIndex, SyncError> {
        match hooks.before(Site::fault(InjectionPoint::MonitorAllocate), None) {
            FaultAction::Exhaust => return Err(SyncError::MonitorIndexExhausted),
            FaultAction::Yield => std::thread::yield_now(),
            _ => {}
        }
        // Only a slot given back can be on the free list, so while every
        // materialized slot is live the list's mutex is not taken.
        let recycled = if self.live.load(Ordering::Relaxed) < self.next.load(Ordering::Relaxed) {
            self.free.lock().expect("free list poisoned").pop()
        } else {
            None
        };
        let slot = match recycled {
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
                let lock = owner.map_or_else(FatLock::new, |(t, n)| FatLock::new_owned(t, n));
                let installed = self.slots[slot as usize].set(lock).is_ok();
                assert!(installed, "slot materialized twice");
                slot
            }
        };
        // Bind before the caller can publish the fat word: a revalidating
        // reader that sees the new word must also see the binding.
        let obj_index = u32::try_from(obj.index()).expect("heap index fits in 32 bits");
        self.bindings[slot as usize].store(obj_index, Ordering::Release);
        self.live.fetch_add(1, Ordering::Relaxed);
        hooks.after(None, None, TraceEventKind::MonitorAllocated { index: slot });
        let idx = MonitorIndex::new(slot)?;
        if let (Some(_), Some((t, n))) = (recycled, owner) {
            let monitor = self.get(idx).expect("recycled slot resolves");
            if let Err(e) = monitor.lock_n(t, n, registry, hooks) {
                self.discard(idx);
                return Err(e);
            }
        }
        Ok(idx)
    }

    /// Looks up a monitor by index. Wait-free. A deflating backend may
    /// have freed (or even rebound) the slot since its caller read the
    /// index, which is why such a backend revalidates after acquiring.
    ///
    /// `#[inline]` because this sits on the fat-lock fast path — the
    /// paper's "shifting the monitor index to the right and indexing
    /// into the vector". Without it the call stays outlined across the
    /// crate boundary into `thinlock-core` (the workspace does not use
    /// LTO), costing a call/return on every operation against an
    /// inflated lock.
    #[inline]
    pub fn get(&self, index: MonitorIndex) -> Option<&FatLock> {
        self.slots.get(index.get() as usize)?.get()
    }

    /// Iterates over every bound slot with its index and object, in index
    /// order, for diagnostics (only the table's own tests call it: the
    /// orphan sweep and `reclaim_idle` walk the heap). Slots installed or
    /// given back mid-iteration may or may not appear.
    pub fn iter(&self) -> impl Iterator<Item = (MonitorIndex, ObjRef, &FatLock)> + '_ {
        (0..self.len() as u32).filter_map(move |slot| {
            let idx = MonitorIndex::new(slot).ok()?;
            Some((idx, self.binding(idx)?, self.get(idx)?))
        })
    }

    /// Monitors currently bound to an object — for a deflating backend
    /// the population the capacity bounds.
    #[inline]
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed) as usize
    }

    /// High-water mark of [`MonitorTable::live`].
    #[inline]
    pub fn peak(&self) -> usize {
        (self.peak.load(Ordering::Relaxed) as usize).max(self.live())
    }

    /// Installs whose word was published: every install, fresh or
    /// recycled, less those taken back by [`MonitorTable::discard`].
    #[inline]
    pub fn allocated(&self) -> u64 {
        let fresh = self.len() as i64;
        (fresh + self.recycled.load(Ordering::Relaxed)).max(0) as u64
    }

    /// Slots materialized so far — the table's footprint. A slot given
    /// back still counts.
    #[inline]
    pub fn len(&self) -> usize {
        (self.next.load(Ordering::Relaxed) as usize).min(self.slots.len())
    }

    /// True if no slot has been materialized.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slots available.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

impl fmt::Debug for MonitorTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MonitorTable")
            .field("live", &self.live())
            .field("peak", &self.peak())
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use thinlock_runtime::events::TraceSink;
    use thinlock_runtime::fault::FaultInjector;
    use thinlock_runtime::hooks::{HookSet, NoHooks};

    /// An unowned install for object `obj`.
    fn install<H: Hooks>(
        table: &MonitorTable,
        obj: usize,
        hooks: &H,
    ) -> Result<MonitorIndex, SyncError> {
        table.install(ObjRef::from_index(obj), None, &ThreadRegistry::new(), hooks)
    }

    #[test]
    fn allocate_and_lookup() {
        let table = MonitorTable::with_capacity(4);
        assert!(table.is_empty());
        let a = install(&table, 0, &NoHooks).unwrap();
        let b = install(&table, 1, &NoHooks).unwrap();
        assert_ne!(a, b);
        assert_eq!(table.len(), 2);
        assert!(table.get(a).is_some());
        assert!(table.get(b).is_some());
        let far = MonitorIndex::new(3).unwrap();
        assert!(table.get(far).is_none(), "unallocated slot reads as none");
    }

    #[test]
    fn exhaustion() {
        let table = MonitorTable::with_capacity(2);
        install(&table, 0, &NoHooks).unwrap();
        install(&table, 1, &NoHooks).unwrap();
        assert_eq!(
            install(&table, 2, &NoHooks).unwrap_err(),
            SyncError::MonitorIndexExhausted
        );
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn allocated_monitor_state_is_visible() {
        let reg = ThreadRegistry::new();
        let r = reg.register().unwrap();
        let t = r.token();
        let table = MonitorTable::with_capacity(1);
        let obj = ObjRef::from_index(0);
        let idx = table.install(obj, Some((t, 5)), &reg, &NoHooks).unwrap();
        let lock = table.get(idx).unwrap();
        assert!(lock.holds(t));
        assert_eq!(lock.count(), 5);
    }

    #[test]
    fn capacity_clamped_to_index_space() {
        // Do not actually allocate 2^23 slots of memory in the test; just
        // check the clamp arithmetic via a small wrapper.
        let table = MonitorTable::with_capacity(3);
        assert_eq!(table.capacity(), 3);
    }

    #[test]
    fn concurrent_allocation_unique_indices() {
        let table = std::sync::Arc::new(MonitorTable::with_capacity(400));
        let mut handles = Vec::new();
        for thread in 0..4 {
            let table = std::sync::Arc::clone(&table);
            handles.push(std::thread::spawn(move || {
                (0..100)
                    .map(|i| install(&table, thread * 100 + i, &NoHooks).unwrap().get())
                    .collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u32> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 400);
    }

    #[test]
    fn sink_sees_every_allocation_with_its_index() {
        use std::sync::Mutex;
        use thinlock_runtime::lockword::ThreadIndex;

        #[derive(Debug, Default)]
        struct Recorder(Mutex<Vec<u32>>);
        impl TraceSink for Recorder {
            fn record(&self, _t: Option<ThreadIndex>, _o: Option<ObjRef>, kind: TraceEventKind) {
                if let TraceEventKind::MonitorAllocated { index } = kind {
                    self.0.lock().unwrap().push(index);
                }
            }
        }

        let recorder = Arc::new(Recorder::default());
        let hooks = HookSet::new().sink(Arc::clone(&recorder) as Arc<dyn TraceSink>);
        let table = MonitorTable::with_capacity(3);
        install(&table, 0, &hooks).unwrap();
        install(&table, 1, &hooks).unwrap();
        assert_eq!(*recorder.0.lock().unwrap(), vec![0, 1]);
    }

    #[test]
    fn debug_output_mentions_len() {
        let table = MonitorTable::with_capacity(1);
        assert!(format!("{table:?}").contains("len"));
    }

    #[test]
    fn injected_exhaustion_consumes_no_slot_and_recovers() {
        use std::sync::atomic::AtomicBool;

        #[derive(Debug, Default)]
        struct ExhaustOnce(AtomicBool);
        impl FaultInjector for ExhaustOnce {
            fn decide(&self, point: InjectionPoint) -> FaultAction {
                if point == InjectionPoint::MonitorAllocate && !self.0.swap(true, Ordering::Relaxed)
                {
                    FaultAction::Exhaust
                } else {
                    FaultAction::Proceed
                }
            }
        }

        let hooks = HookSet::new().fault_injector(Arc::new(ExhaustOnce::default()));
        let table = MonitorTable::with_capacity(2);
        assert_eq!(
            install(&table, 0, &hooks).unwrap_err(),
            SyncError::MonitorIndexExhausted
        );
        assert_eq!(table.len(), 0, "injected failure consumed no slot");
        assert!(install(&table, 0, &hooks).is_ok());
        assert!(install(&table, 1, &hooks).is_ok());
        assert_eq!(
            install(&table, 2, &hooks).unwrap_err(),
            SyncError::MonitorIndexExhausted,
            "real exhaustion still reported"
        );
    }

    #[test]
    fn iter_visits_allocated_monitors_in_order() {
        let table = MonitorTable::with_capacity(4);
        let a = install(&table, 0, &NoHooks).unwrap();
        let b = install(&table, 1, &NoHooks).unwrap();
        let indices: Vec<u32> = table.iter().map(|(i, _, _)| i.get()).collect();
        assert_eq!(indices, vec![a.get(), b.get()]);
    }
}
