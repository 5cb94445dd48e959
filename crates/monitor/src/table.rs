//! The monitor-index table: 23-bit indices to fat locks.
//!
//! "We maintain the table which maps inflated monitor indices to fat
//! locks" (Section 2.3). The table must support wait-free lookup — the
//! paper's fat-lock fast path is "shifting the monitor index to the right
//! and indexing into the vector" with no locking, which is what makes thin
//! locks beat the JDK monitor cache even after inflation (Section 3.3).
//!
//! We get the same property with a preallocated slot array and an atomic
//! bump allocator: since a lock inflates at most once and never deflates,
//! a table sized to the heap's object capacity can never overflow, and a
//! published index is immutable for the table's lifetime.

use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

use thinlock_runtime::error::SyncError;
use thinlock_runtime::events::TraceEventKind;
use thinlock_runtime::fault::{FaultAction, InjectionPoint};
use thinlock_runtime::hooks::{Hooks, Site};
use thinlock_runtime::lockword::MonitorIndex;

use crate::fatlock::FatLock;

/// The [`InjectionPoint::MonitorAllocate`] site every store allocation
/// passes first. Injected exhaustion fails it before anything is
/// consumed: callers observe exactly what a full store produces, while
/// the store stays usable for the recovery the caller must perform.
#[inline]
pub(crate) fn allocation_site<H: Hooks + ?Sized>(hooks: &H) -> Result<(), SyncError> {
    match hooks.before(Site::fault(InjectionPoint::MonitorAllocate), None) {
        FaultAction::Exhaust => Err(SyncError::MonitorIndexExhausted),
        FaultAction::Yield => {
            std::thread::yield_now();
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Map from [`MonitorIndex`] to [`FatLock`] with wait-free lookups.
///
/// # Example
///
/// ```
/// use thinlock_monitor::{FatLock, MonitorTable};
/// use thinlock_runtime::hooks::NoHooks;
///
/// let table = MonitorTable::with_capacity(8);
/// let idx = table.allocate(FatLock::new(), &NoHooks)?;
/// assert!(table.get(idx).is_some());
/// # Ok::<(), thinlock_runtime::SyncError>(())
/// ```
pub struct MonitorTable {
    slots: Box<[OnceLock<FatLock>]>,
    next: AtomicU32,
}

impl MonitorTable {
    /// Creates a table with room for `capacity` monitors (clamped to the
    /// 23-bit index space).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.min(MonitorIndex::MAX as usize + 1);
        MonitorTable {
            slots: (0..cap).map(|_| OnceLock::new()).collect(),
            next: AtomicU32::new(0),
        }
    }

    /// Registers a fat lock, returning its permanent index, and tells
    /// `hooks` with a [`TraceEventKind::MonitorAllocated`] event.
    /// Recording at the table (rather than at inflation sites) also
    /// covers allocations whose installing CAS loses a race and leaks
    /// the slot.
    ///
    /// # Errors
    ///
    /// [`SyncError::MonitorIndexExhausted`] if the table is full (or
    /// `hooks` injects exhaustion, consuming no slot).
    pub fn allocate<H: Hooks + ?Sized>(
        &self,
        lock: FatLock,
        hooks: &H,
    ) -> Result<MonitorIndex, SyncError> {
        allocation_site(hooks)?;
        let slot = self.next.fetch_add(1, Ordering::Relaxed);
        if (slot as usize) >= self.slots.len() {
            self.next.fetch_sub(1, Ordering::Relaxed);
            return Err(SyncError::MonitorIndexExhausted);
        }
        let installed = self.slots[slot as usize].set(lock).is_ok();
        assert!(installed, "slot allocated twice");
        hooks.after(None, None, TraceEventKind::MonitorAllocated { index: slot });
        // The index is published to other threads through a release store
        // of the inflated lock word; OnceLock::set already synchronizes
        // the lock contents with any subsequent get().
        MonitorIndex::new(slot)
    }

    /// Looks up a monitor by index. Wait-free.
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

    /// Iterates over every allocated monitor with its index, in
    /// allocation order, for diagnostics (only the table's own tests call
    /// it: the orphan sweep walks the heap and the deadlock watchdog the
    /// registry). Monitors allocated after the iterator was created may or
    /// may not appear.
    pub fn iter(&self) -> impl Iterator<Item = (MonitorIndex, &FatLock)> + '_ {
        (0..self.len() as u32).filter_map(move |slot| {
            let lock = self.slots[slot as usize].get()?;
            Some((MonitorIndex::new(slot).ok()?, lock))
        })
    }

    /// Number of monitors allocated so far.
    #[inline]
    pub fn len(&self) -> usize {
        (self.next.load(Ordering::Relaxed) as usize).min(self.slots.len())
    }

    /// True if no monitor has been allocated.
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
    use thinlock_runtime::registry::ThreadRegistry;

    #[test]
    fn allocate_and_lookup() {
        let table = MonitorTable::with_capacity(4);
        assert!(table.is_empty());
        let a = table.allocate(FatLock::new(), &NoHooks).unwrap();
        let b = table.allocate(FatLock::new(), &NoHooks).unwrap();
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
        table.allocate(FatLock::new(), &NoHooks).unwrap();
        table.allocate(FatLock::new(), &NoHooks).unwrap();
        assert_eq!(
            table.allocate(FatLock::new(), &NoHooks).unwrap_err(),
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
        let idx = table.allocate(FatLock::new_owned(t, 5), &NoHooks).unwrap();
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
        for _ in 0..4 {
            let table = std::sync::Arc::clone(&table);
            handles.push(std::thread::spawn(move || {
                (0..100)
                    .map(|_| table.allocate(FatLock::new(), &NoHooks).unwrap().get())
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
        use thinlock_runtime::heap::ObjRef;
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
        table.allocate(FatLock::new(), &hooks).unwrap();
        table.allocate(FatLock::new(), &hooks).unwrap();
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
            table.allocate(FatLock::new(), &hooks).unwrap_err(),
            SyncError::MonitorIndexExhausted
        );
        assert_eq!(table.len(), 0, "injected failure consumed no slot");
        assert!(table.allocate(FatLock::new(), &hooks).is_ok());
        assert!(table.allocate(FatLock::new(), &hooks).is_ok());
        assert_eq!(
            table.allocate(FatLock::new(), &hooks).unwrap_err(),
            SyncError::MonitorIndexExhausted,
            "real exhaustion still reported"
        );
    }

    #[test]
    fn iter_visits_allocated_monitors_in_order() {
        let table = MonitorTable::with_capacity(4);
        let a = table.allocate(FatLock::new(), &NoHooks).unwrap();
        let b = table.allocate(FatLock::new(), &NoHooks).unwrap();
        let indices: Vec<u32> = table.iter().map(|(i, _)| i.get()).collect();
        assert_eq!(indices, vec![a.get(), b.get()]);
    }
}
