//! The recycling half of the [`MonitorTable`]: slots given back, the
//! free list, and the per-slot binding that makes recycling safe.
//!
//! Under the paper's one-way inflation a slot, once its word is
//! published, backs its object forever. A deflating backend (Compact
//! Java Monitors, Dice & Kogan, arXiv 2102.04188) breaks exactly that
//! assumption — when a monitor quiesces the object's word is restored to
//! the neutral thin shape and the slot goes back on a free list, so a
//! *bounded* table can serve an unbounded stream of short-lived contended
//! objects. Any backend also gives back an install whose word was never
//! published ([`MonitorTable::discard`]), so a lost installing race
//! consumes nothing.
//!
//! Lookup stays wait-free (slot array indexed by the word's 23-bit
//! monitor index). Recycling only touches a mutex-guarded free list on
//! the inflation/deflation slow paths, never on lock/unlock fast paths.
//!
//! # Recycling and the ABA argument
//!
//! A recycled index may be observed by a thread still holding a stale
//! fat word. The table therefore records, per slot, the object the slot
//! currently backs ([`MonitorTable::binding`]). A backend acquiring
//! through a fat word must *revalidate after locking the monitor*:
//! re-load the object's word and check it still carries this index
//! **and** the slot is still bound to this object; on mismatch it
//! releases the (foreign) monitor immediately and retries from the
//! word. Because a slot is unbound and freed only *after* its object's
//! word was neutralized, a revalidated match proves the monitor is the
//! object's current monitor. The transient foreign acquisition is
//! harmless: the mistaken holder never blocks while holding it, so it
//! cannot deadlock, and a concurrent inflater adopting the slot simply
//! queues in [`FatLock::lock_n`](crate::FatLock::lock_n) until the
//! transient holder releases.
//!
//! # Example
//!
//! ```
//! use thinlock_monitor::MonitorTable;
//! use thinlock_runtime::heap::ObjRef;
//! use thinlock_runtime::hooks::NoHooks;
//! use thinlock_runtime::registry::ThreadRegistry;
//!
//! let (table, reg) = (MonitorTable::with_capacity(2), ThreadRegistry::new());
//! let a = table.install(ObjRef::from_index(7), None, &reg, &NoHooks)?;
//! assert_eq!(table.live(), 1);
//! assert_eq!(table.binding(a), Some(ObjRef::from_index(7)));
//! table.unbind(a); // deflation counts the slot out ...
//! table.recycle(a); // ... and, once the word is neutral, frees it
//! assert_eq!(table.live(), 0);
//! let b = table.install(ObjRef::from_index(9), None, &reg, &NoHooks)?;
//! assert_eq!(b, a, "object #9 reuses the slot");
//! # Ok::<(), thinlock_runtime::SyncError>(())
//! ```

use std::sync::atomic::Ordering;

use thinlock_runtime::heap::ObjRef;
use thinlock_runtime::lockword::MonitorIndex;

use crate::table::{MonitorTable, UNBOUND};

impl MonitorTable {
    /// Gives back an install whose word was never published — its
    /// installing CAS lost, or its owner could not adopt it: unbinds the
    /// slot, takes it out of [`MonitorTable::allocated`] and frees it.
    pub fn discard(&self, index: MonitorIndex) {
        self.unbind(index);
        self.recycled.fetch_sub(1, Ordering::Relaxed);
        self.recycle(index);
    }

    /// The first half of a deflation: unbinds the slot from its object
    /// and counts it out of [`MonitorTable::live`]. Revalidation through
    /// the slot fails from here on, but the slot is not reused until
    /// [`MonitorTable::recycle`]. A deflating owner calls this *before*
    /// neutralizing the object's word, so a contender that re-inflates
    /// the object at once never finds it holding two slots.
    pub fn unbind(&self, index: MonitorIndex) {
        let was = self.bindings[index.get() as usize].swap(UNBOUND, Ordering::Release);
        debug_assert_ne!(was, UNBOUND, "slot unbound twice");
        let prev = self.live.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "live monitor count underflow");
        self.peak.fetch_max(prev, Ordering::Relaxed);
    }

    /// The second half of a deflation: pushes an unbound slot on the
    /// free list.
    ///
    /// The caller must have already neutralized the bound object's word
    /// (so no *new* reader can reach the slot through it) and released
    /// the monitor. Stale-word racers may still lock the monitor
    /// transiently after this; the revalidation contract (module docs)
    /// makes that harmless.
    pub fn recycle(&self, index: MonitorIndex) {
        self.free
            .lock()
            .expect("free list poisoned")
            .push(index.get());
    }

    /// The object this slot currently backs, or `None` while the slot is
    /// free. Acquire load, pairing with the release store in
    /// [`MonitorTable::install`] — this is one half of the revalidation a
    /// deflating backend performs after locking the monitor.
    #[inline]
    pub fn binding(&self, index: MonitorIndex) -> Option<ObjRef> {
        let bound = self
            .bindings
            .get(index.get() as usize)?
            .load(Ordering::Acquire);
        (bound != UNBOUND).then(|| ObjRef::from_index(bound as usize))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use thinlock_runtime::error::SyncError;
    use thinlock_runtime::events::{TraceEventKind, TraceSink};
    use thinlock_runtime::fault::{FaultAction, FaultInjector, InjectionPoint};
    use thinlock_runtime::heap::ObjRef;
    use thinlock_runtime::hooks::{HookSet, Hooks, NoHooks};
    use thinlock_runtime::lockword::MonitorIndex;
    use thinlock_runtime::registry::ThreadRegistry;

    use crate::MonitorTable;

    /// An unowned install for object `obj`.
    fn install<H: Hooks>(
        table: &MonitorTable,
        obj: usize,
        hooks: &H,
    ) -> Result<MonitorIndex, SyncError> {
        table.install(ObjRef::from_index(obj), None, &ThreadRegistry::new(), hooks)
    }

    /// A deflation's two halves back to back.
    fn release(table: &MonitorTable, idx: MonitorIndex) {
        table.unbind(idx);
        table.recycle(idx);
    }

    #[test]
    fn acquire_binds_and_release_recycles() {
        let table = MonitorTable::with_capacity(2);
        let a = install(&table, 10, &NoHooks).unwrap();
        let b = install(&table, 11, &NoHooks).unwrap();
        assert_ne!(a, b);
        assert_eq!(table.live(), 2);
        assert_eq!(table.peak(), 2);
        assert_eq!(table.binding(a), Some(ObjRef::from_index(10)));
        assert_eq!(table.binding(b), Some(ObjRef::from_index(11)));

        release(&table, a);
        assert_eq!(table.live(), 1);
        assert_eq!(table.binding(a), None);

        // The freed slot is reused and re-bound; the footprint stays put.
        let c = install(&table, 12, &NoHooks).unwrap();
        assert_eq!(c, a);
        assert_eq!(table.binding(c), Some(ObjRef::from_index(12)));
        assert_eq!(table.len(), 2);
        assert_eq!(table.allocated(), 3, "a recycled install counts again");
    }

    #[test]
    fn exhaustion_only_when_all_slots_live() {
        let table = MonitorTable::with_capacity(1);
        let a = install(&table, 0, &NoHooks).unwrap();
        assert_eq!(
            install(&table, 1, &NoHooks).unwrap_err(),
            SyncError::MonitorIndexExhausted
        );
        table.discard(a);
        assert_eq!(table.allocated(), 0, "a discarded install is taken back");
        assert!(
            install(&table, 1, &NoHooks).is_ok(),
            "discard unblocks the table"
        );
    }

    #[test]
    fn recycled_monitor_is_adoptable_via_lock_n() {
        let reg = ThreadRegistry::new();
        let r = reg.register().unwrap();
        let t = r.token();

        let table = MonitorTable::with_capacity(1);
        let obj = ObjRef::from_index(3);
        let a = table.install(obj, Some((t, 2)), &reg, &NoHooks).unwrap();
        let m = table.get(a).unwrap();
        assert_eq!(m.count(), 2, "a fresh slot is built owned");
        m.unlock(t, &reg).unwrap();
        m.unlock(t, &reg).unwrap();
        release(&table, a);

        // Same slot, new object: the existing FatLock is re-owned.
        let obj = ObjRef::from_index(4);
        let b = table.install(obj, Some((t, 1)), &reg, &NoHooks).unwrap();
        assert_eq!(b, a);
        let m = table.get(b).unwrap();
        assert!(m.holds(t));
        assert_eq!(m.count(), 1);
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
        let table = MonitorTable::with_capacity(2);
        assert_eq!(
            install(&table, 0, &hooks).unwrap_err(),
            SyncError::MonitorIndexExhausted
        );
        assert_eq!(table.live(), 0);
        assert_eq!(table.allocated(), 0);
    }

    #[test]
    fn sink_sees_recycled_acquires_too() {
        use std::sync::Mutex as StdMutex;
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
        let table = MonitorTable::with_capacity(1);
        let a = install(&table, 0, &hooks).unwrap();
        release(&table, a);
        let _ = install(&table, 1, &hooks).unwrap();
        assert_eq!(*recorder.0.lock().unwrap(), vec![0, 0]);
    }

    #[test]
    fn iter_bound_skips_free_slots() {
        let table = MonitorTable::with_capacity(3);
        let a = install(&table, 5, &NoHooks).unwrap();
        let b = install(&table, 6, &NoHooks).unwrap();
        release(&table, a);
        let bound: Vec<(u32, usize)> = table.iter().map(|(i, o, _)| (i.get(), o.index())).collect();
        assert_eq!(bound, vec![(b.get(), 6)]);
    }

    #[test]
    fn debug_output_mentions_live() {
        let table = MonitorTable::with_capacity(1);
        assert!(format!("{table:?}").contains("live"));
    }
}
