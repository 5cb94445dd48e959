//! The IBM JDK 1.1.2 "hot locks" ("IBM112").
//!
//! From Section 3 of the paper: "The IBM112 implementation assumes that
//! most applications will have a small number of heavily used locks. It
//! therefore pre-allocates a small number (32) of *hot locks*. The system
//! begins by using the default fat locks, slightly modified to record
//! locking frequency. When a fat lock is detected to be hot, a pointer to
//! the hot lock is placed in the header of the object. Because a full
//! 32-bit pointer is used, the displaced header information is moved into
//! the hot lock structure. One bit in the header word indicates whether
//! the word is a hot lock pointer or regular header data."
//!
//! The scheme's strength and weakness both reproduce here:
//!
//! * a hot lock's fast path is "following a pointer, comparing a thread
//!   identifier, and incrementing a memory location" — no monitor-cache
//!   lookup, so `NestedSync` is nearly as fast as a thin lock and
//!   contended locking is faster than JDK111;
//! * once more than 32 locks are hot candidates, everything else stays on
//!   the slow monitor-cache path ("the Achilles heel of the hot lock
//!   approach", visible as the MultiSync cliff in Figure 4).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use thinlock_monitor::FatLock;
use thinlock_runtime::backend::{MonitorProbe, SyncBackend};
use thinlock_runtime::error::{SyncError, SyncResult};
use thinlock_runtime::heap::{Heap, ObjRef};
use thinlock_runtime::hooks::NoHooks;
use thinlock_runtime::lockword::{LockWord, ThreadIndex};
use thinlock_runtime::protocol::{SyncProtocol, WaitOutcome};
use thinlock_runtime::registry::{ThreadRegistry, ThreadToken};

/// Number of pre-allocated hot locks, fixed at 32 as in the paper.
pub const HOT_LOCK_COUNT: usize = 32;

/// Lock operations on one object before its monitor is considered "hot"
/// and promoted (the paper does not publish IBM's threshold; any small
/// value reproduces the qualitative behaviour, since promotion is a
/// one-time cost amortized over the object's remaining accesses).
pub const DEFAULT_HOT_THRESHOLD: u32 = 8;

/// Bit 0 of the header word marks it as a hot-lock pointer. The heap
/// guarantees real header words keep bit 0 clear.
const HOT_MARKER_BIT: u32 = 1;

/// Sentinel for "hot slot not bound to any object".
const UNBOUND: u32 = u32::MAX;

#[derive(Debug)]
struct HotSlot {
    lock: FatLock,
    /// The displaced header word of the bound object.
    displaced: AtomicU32,
    /// Object index bound to this slot, or [`UNBOUND`].
    bound: AtomicU32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Binding {
    /// Cold: pool slot in the monitor cache.
    Cold(usize),
    /// Promoted to a hot slot; permanent.
    Hot(usize),
}

#[derive(Debug)]
struct ColdEntry {
    lock: Arc<FatLock>,
    freq: u32,
}

#[derive(Debug)]
struct ColdInner {
    map: HashMap<usize, Binding>,
    pool: Vec<ColdEntry>,
    free: Vec<usize>,
    capacity: usize,
    evictions: u64,
    hot_free: Vec<usize>,
    promotions: u64,
    threshold: u32,
}

/// Resolution of an object to its monitor, remembering which kind it was.
enum Resolved {
    Hot(usize),
    Cold(Arc<FatLock>),
}

/// The IBM 1.1.2 baseline: frequency-promoted hot locks over a monitor
/// cache.
///
/// # Example
///
/// ```
/// use thinlock_baselines::HotLocks;
/// use thinlock_runtime::protocol::SyncProtocol;
///
/// let p = HotLocks::with_capacity(16);
/// let reg = p.registry().register()?;
/// let obj = p.heap().alloc()?;
/// for _ in 0..20 {
///     p.lock(obj, reg.token())?;
///     p.unlock(obj, reg.token())?;
/// }
/// assert!(p.is_hot(obj), "a heavily used lock gets promoted");
/// # Ok::<(), thinlock_runtime::SyncError>(())
/// ```
pub struct HotLocks {
    heap: Arc<Heap>,
    registry: ThreadRegistry,
    cold: Mutex<ColdInner>,
    hot: Box<[HotSlot]>,
}

impl HotLocks {
    /// Creates the baseline over a fresh heap of `heap_capacity` objects.
    pub fn with_capacity(heap_capacity: usize) -> Self {
        Self::new(
            Arc::new(Heap::with_capacity(heap_capacity)),
            ThreadRegistry::new(),
            crate::cache::DEFAULT_CACHE_CAPACITY,
            DEFAULT_HOT_THRESHOLD,
        )
    }

    /// Creates the baseline with explicit cold-cache capacity and hot
    /// promotion threshold.
    pub fn new(
        heap: Arc<Heap>,
        registry: ThreadRegistry,
        cache_capacity: usize,
        threshold: u32,
    ) -> Self {
        let hot: Box<[HotSlot]> = (0..HOT_LOCK_COUNT)
            .map(|_| HotSlot {
                lock: FatLock::new(),
                displaced: AtomicU32::new(0),
                bound: AtomicU32::new(UNBOUND),
            })
            .collect();
        HotLocks {
            heap,
            registry,
            cold: Mutex::new(ColdInner {
                map: HashMap::new(),
                pool: Vec::new(),
                free: Vec::new(),
                capacity: cache_capacity.max(1),
                evictions: 0,
                hot_free: (0..HOT_LOCK_COUNT).rev().collect(),
                promotions: 0,
                threshold: threshold.max(1),
            }),
            hot,
        }
    }

    /// The hot-path test: one load of the header word and a bit test.
    #[inline]
    fn hot_slot_of(&self, obj: ObjRef) -> Option<usize> {
        let word = self.heap.header(obj).lock_word().load_acquire().bits();
        (word & HOT_MARKER_BIT != 0).then_some((word >> 1) as usize)
    }

    /// Cold path: locked cache lookup with frequency accounting and
    /// possible promotion.
    fn resolve_for_lock(&self, obj: ObjRef) -> Resolved {
        let mut inner = self.cold.lock().expect("hot-lock cache poisoned");
        let inner = &mut *inner;
        match inner.map.get(&obj.index()).copied() {
            Some(Binding::Hot(slot)) => Resolved::Hot(slot),
            Some(Binding::Cold(slot)) => {
                inner.pool[slot].freq += 1;
                if inner.pool[slot].freq >= inner.threshold {
                    if let Some(hot) = self.try_promote(inner, obj, slot) {
                        return Resolved::Hot(hot);
                    }
                }
                Resolved::Cold(Arc::clone(&inner.pool[slot].lock))
            }
            None => {
                let slot = Self::take_free_slot(inner);
                inner.pool[slot].freq = 1;
                inner.map.insert(obj.index(), Binding::Cold(slot));
                Resolved::Cold(Arc::clone(&inner.pool[slot].lock))
            }
        }
    }

    /// Resolution for unlock/wait/notify: no frequency bump, no install.
    fn resolve_existing(&self, obj: ObjRef) -> Option<Resolved> {
        if let Some(slot) = self.hot_slot_of(obj) {
            return Some(Resolved::Hot(slot));
        }
        let inner = self.cold.lock().expect("hot-lock cache poisoned");
        match inner.map.get(&obj.index()).copied()? {
            Binding::Hot(slot) => Some(Resolved::Hot(slot)),
            Binding::Cold(slot) => Some(Resolved::Cold(Arc::clone(&inner.pool[slot].lock))),
        }
    }

    /// Promotes `obj`'s cold monitor to a free hot slot if the monitor is
    /// idle right now (so no state needs migrating). Called with the cache
    /// mutex held.
    fn try_promote(&self, inner: &mut ColdInner, obj: ObjRef, cold_slot: usize) -> Option<usize> {
        let entry = &inner.pool[cold_slot];
        // No outstanding handle first: handles are only cloned under the
        // cache mutex we hold, so with none left the monitor's state is
        // frozen. Checked last, an acquirer could take the monitor and
        // drop its handle between the owner read and the count read.
        let idle = Arc::strong_count(&entry.lock) == 1
            && entry.lock.owner().is_none()
            && entry.lock.entry_queue_len() == 0
            && entry.lock.wait_set_len() == 0;
        if !idle {
            return None;
        }
        let hot_slot = inner.hot_free.pop()?;
        // Displace the header: save the original word in the hot lock
        // structure, install the marked pointer.
        let cell = self.heap.header(obj).lock_word();
        let original = cell.load_relaxed().bits();
        debug_assert_eq!(original & HOT_MARKER_BIT, 0);
        self.hot[hot_slot]
            .displaced
            .store(original, Ordering::Relaxed);
        self.hot[hot_slot]
            .bound
            .store(obj.index() as u32, Ordering::Relaxed);
        cell.store_release(LockWord::from_bits(
            ((hot_slot as u32) << 1) | HOT_MARKER_BIT,
        ));
        inner.map.insert(obj.index(), Binding::Hot(hot_slot));
        inner.free.push(cold_slot);
        inner.promotions += 1;
        Some(hot_slot)
    }

    fn take_free_slot(inner: &mut ColdInner) -> usize {
        if let Some(slot) = inner.free.pop() {
            return slot;
        }
        if inner.pool.len() < inner.capacity {
            inner.pool.push(ColdEntry {
                lock: Arc::new(FatLock::new()),
                freq: 0,
            });
            return inner.pool.len() - 1;
        }
        inner.evictions += 1;
        let victim = inner.map.iter().find_map(|(&obj, &binding)| match binding {
            Binding::Cold(slot) => {
                let m = &inner.pool[slot].lock;
                // No outstanding handle first (see `try_promote`).
                let idle = Arc::strong_count(m) == 1
                    && m.owner().is_none()
                    && m.entry_queue_len() == 0
                    && m.wait_set_len() == 0;
                idle.then_some((obj, slot))
            }
            Binding::Hot(_) => None,
        });
        match victim {
            Some((obj, slot)) => {
                inner.map.remove(&obj);
                inner.pool[slot].freq = 0;
                slot
            }
            None => {
                inner.pool.push(ColdEntry {
                    lock: Arc::new(FatLock::new()),
                    freq: 0,
                });
                inner.pool.len() - 1
            }
        }
    }

    /// True if `obj`'s lock has been promoted to a hot slot.
    pub fn is_hot(&self, obj: ObjRef) -> bool {
        self.hot_slot_of(obj).is_some()
    }

    /// Number of promotions performed so far.
    pub fn promotions(&self) -> u64 {
        self.cold
            .lock()
            .expect("hot-lock cache poisoned")
            .promotions
    }

    /// Number of free hot slots remaining.
    pub fn free_hot_slots(&self) -> usize {
        self.cold
            .lock()
            .expect("hot-lock cache poisoned")
            .hot_free
            .len()
    }

    /// Number of cold free-list reclaim scans so far.
    pub fn evictions(&self) -> u64 {
        self.cold.lock().expect("hot-lock cache poisoned").evictions
    }

    /// The displaced header word of a promoted object.
    pub fn displaced_header(&self, obj: ObjRef) -> Option<u32> {
        let slot = self.hot_slot_of(obj)?;
        Some(self.hot[slot].displaced.load(Ordering::Relaxed))
    }
}

impl SyncProtocol for HotLocks {
    fn lock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        // Hot fast path: follow the pointer, let the monitor compare the
        // thread identifier and bump its count.
        if let Some(slot) = self.hot_slot_of(obj) {
            return self.hot[slot].lock.lock(t, &self.registry, &NoHooks);
        }
        match self.resolve_for_lock(obj) {
            Resolved::Hot(slot) => self.hot[slot].lock.lock(t, &self.registry, &NoHooks),
            Resolved::Cold(monitor) => monitor.lock(t, &self.registry, &NoHooks),
        }
    }

    fn unlock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        match self.resolve_existing(obj) {
            Some(Resolved::Hot(slot)) => self.hot[slot].lock.unlock(t, &self.registry),
            Some(Resolved::Cold(monitor)) => monitor.unlock(t, &self.registry),
            None => Err(SyncError::NotLocked),
        }
    }

    fn wait(
        &self,
        obj: ObjRef,
        t: ThreadToken,
        timeout: Option<Duration>,
    ) -> SyncResult<WaitOutcome> {
        match self.resolve_existing(obj) {
            Some(Resolved::Hot(slot)) => {
                self.hot[slot]
                    .lock
                    .wait(t, &self.registry, timeout, &NoHooks)
            }
            Some(Resolved::Cold(monitor)) => monitor.wait(t, &self.registry, timeout, &NoHooks),
            None => Err(SyncError::NotLocked),
        }
    }

    fn notify(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        match self.resolve_existing(obj) {
            Some(Resolved::Hot(slot)) => self.hot[slot].lock.notify(t),
            Some(Resolved::Cold(monitor)) => monitor.notify(t),
            None => Err(SyncError::NotLocked),
        }
    }

    fn notify_all(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        match self.resolve_existing(obj) {
            Some(Resolved::Hot(slot)) => self.hot[slot].lock.notify_all(t),
            Some(Resolved::Cold(monitor)) => monitor.notify_all(t),
            None => Err(SyncError::NotLocked),
        }
    }

    fn holds_lock(&self, obj: ObjRef, t: ThreadToken) -> bool {
        match self.resolve_existing(obj) {
            Some(Resolved::Hot(slot)) => self.hot[slot].lock.holds(t),
            Some(Resolved::Cold(monitor)) => monitor.holds(t),
            None => false,
        }
    }

    fn heap(&self) -> &Heap {
        &self.heap
    }

    fn registry(&self) -> &ThreadRegistry {
        &self.registry
    }

    fn name(&self) -> &'static str {
        "IBM112"
    }
}

impl HotLocks {
    /// Runs `f` against the monitor currently backing `obj`, hot or
    /// cold, if any.
    fn with_monitor<R>(&self, obj: ObjRef, f: impl FnOnce(&FatLock) -> R) -> Option<R> {
        match self.resolve_existing(obj)? {
            Resolved::Hot(slot) => Some(f(&self.hot[slot].lock)),
            Resolved::Cold(monitor) => Some(f(&monitor)),
        }
    }
}

impl SyncBackend for HotLocks {
    // The header word is either real header data or a hot-lock pointer,
    // never thin-lock state — probes must resolve through the monitor,
    // like the JDK111 baseline.
    fn monitor_probe(&self, obj: ObjRef) -> Option<MonitorProbe> {
        let probe = self.with_monitor(obj, FatLock::probe)?;
        (probe.owner.is_some() || probe.wait_set_len > 0).then_some(probe)
    }

    fn owner_of(&self, obj: ObjRef) -> Option<ThreadIndex> {
        self.with_monitor(obj, FatLock::owner).flatten()
    }

    fn in_wait_set(&self, obj: ObjRef, t: ThreadToken) -> bool {
        self.with_monitor(obj, |m| m.is_waiting(t)).unwrap_or(false)
    }

    // Cold-cache eviction recycles monitors; hot promotion is one-way.
    fn deflation_capable(&self) -> bool {
        true
    }

    fn inflation_count(&self) -> u64 {
        self.promotions()
    }

    fn deflation_count(&self) -> u64 {
        self.evictions()
    }

    fn monitors_live(&self) -> usize {
        self.cold.lock().expect("hot-lock cache poisoned").map.len()
    }

    fn monitors_peak(&self) -> usize {
        let cold = self
            .cold
            .lock()
            .expect("hot-lock cache poisoned")
            .pool
            .len();
        cold + (HOT_LOCK_COUNT - self.free_hot_slots())
    }

    fn monitors_allocated(&self) -> u64 {
        self.monitors_peak() as u64
    }
}

impl fmt::Debug for HotLocks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HotLocks")
            .field("heap", &self.heap)
            .field("promotions", &self.promotions())
            .field("free_hot_slots", &self.free_hot_slots())
            .field("evictions", &self.evictions())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn hot_after(p: &HotLocks, obj: ObjRef, t: ThreadToken, ops: u32) {
        for _ in 0..ops {
            p.lock(obj, t).unwrap();
            p.unlock(obj, t).unwrap();
        }
    }

    #[test]
    fn basic_lock_unlock() {
        let p = HotLocks::with_capacity(8);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        p.lock(obj, t).unwrap();
        p.lock(obj, t).unwrap();
        assert!(p.holds_lock(obj, t));
        p.unlock(obj, t).unwrap();
        p.unlock(obj, t).unwrap();
        assert!(!p.holds_lock(obj, t));
        assert_eq!(p.unlock(obj, t), Err(SyncError::NotLocked));
    }

    #[test]
    fn frequent_lock_promotes_and_displaces_header() {
        let p = HotLocks::with_capacity(8);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        let original = p.heap().header(obj).lock_word().load_relaxed().bits();
        assert!(!p.is_hot(obj));
        hot_after(&p, obj, t, DEFAULT_HOT_THRESHOLD + 1);
        assert!(p.is_hot(obj));
        assert_eq!(p.promotions(), 1);
        assert_eq!(
            p.displaced_header(obj),
            Some(original),
            "displaced header preserved in hot-lock structure"
        );
        // Header word now carries the marked pointer.
        let word = p.heap().header(obj).lock_word().load_relaxed().bits();
        assert_eq!(word & 1, 1);
        // And the lock still works, now through the hot path.
        p.lock(obj, t).unwrap();
        assert!(p.holds_lock(obj, t));
        p.unlock(obj, t).unwrap();
    }

    #[test]
    fn rare_locks_stay_cold() {
        let p = HotLocks::with_capacity(8);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        hot_after(&p, obj, t, DEFAULT_HOT_THRESHOLD - 2);
        assert!(!p.is_hot(obj));
        assert_eq!(p.promotions(), 0);
    }

    #[test]
    fn only_32_hot_slots_exist() {
        let p = HotLocks::with_capacity(64);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let objs: Vec<_> = (0..40).map(|_| p.heap().alloc().unwrap()).collect();
        for &o in &objs {
            hot_after(&p, o, t, DEFAULT_HOT_THRESHOLD + 4);
        }
        let hot_count = objs.iter().filter(|&&o| p.is_hot(o)).count();
        assert_eq!(hot_count, HOT_LOCK_COUNT, "exactly 32 promotions");
        assert_eq!(p.free_hot_slots(), 0);
        // The remaining 8 objects keep working through the cold path.
        for &o in &objs {
            p.lock(o, t).unwrap();
            p.unlock(o, t).unwrap();
        }
    }

    #[test]
    fn promotion_is_permanent() {
        let p = HotLocks::with_capacity(8);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        hot_after(&p, obj, t, DEFAULT_HOT_THRESHOLD + 1);
        assert!(p.is_hot(obj));
        // Long idle period: still hot.
        hot_after(&p, obj, t, 100);
        assert!(p.is_hot(obj));
        assert_eq!(p.promotions(), 1);
    }

    #[test]
    fn mutual_exclusion_mixed_hot_and_cold() {
        let p = Arc::new(HotLocks::with_capacity(8));
        let hot_obj = p.heap().alloc().unwrap();
        let cold_obj = p.heap().alloc().unwrap();
        {
            let r = p.registry().register().unwrap();
            hot_after(&p, hot_obj, r.token(), DEFAULT_HOT_THRESHOLD + 1);
            assert!(p.is_hot(hot_obj));
        }
        let counters = Arc::new([
            std::sync::atomic::AtomicU64::new(0),
            std::sync::atomic::AtomicU64::new(0),
        ]);
        let mut handles = Vec::new();
        for _ in 0..3 {
            let p = Arc::clone(&p);
            let counters = Arc::clone(&counters);
            handles.push(thread::spawn(move || {
                let r = p.registry().register().unwrap();
                let t = r.token();
                for i in 0..200u64 {
                    let (obj, c) = if i % 2 == 0 {
                        (hot_obj, &counters[0])
                    } else {
                        (cold_obj, &counters[1])
                    };
                    p.lock(obj, t).unwrap();
                    let v = c.load(Ordering::Relaxed);
                    thread::yield_now();
                    c.store(v + 1, Ordering::Relaxed);
                    p.unlock(obj, t).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counters[0].load(Ordering::Relaxed), 300);
        assert_eq!(counters[1].load(Ordering::Relaxed), 300);
    }

    #[test]
    fn wait_notify_on_hot_lock() {
        let p = Arc::new(HotLocks::with_capacity(8));
        let obj = p.heap().alloc().unwrap();
        {
            let r = p.registry().register().unwrap();
            hot_after(&p, obj, r.token(), DEFAULT_HOT_THRESHOLD + 1);
        }
        assert!(p.is_hot(obj));
        let waiter = {
            let p = Arc::clone(&p);
            thread::spawn(move || {
                let r = p.registry().register().unwrap();
                let t = r.token();
                p.lock(obj, t).unwrap();
                let out = p.wait(obj, t, None).unwrap();
                p.unlock(obj, t).unwrap();
                out
            })
        };
        let r = p.registry().register().unwrap();
        let t = r.token();
        loop {
            p.lock(obj, t).unwrap();
            let slot = p.hot_slot_of(obj).unwrap();
            if p.hot[slot].lock.wait_set_len() > 0 {
                p.notify(obj, t).unwrap();
                p.unlock(obj, t).unwrap();
                break;
            }
            p.unlock(obj, t).unwrap();
            thread::yield_now();
        }
        assert_eq!(waiter.join().unwrap(), WaitOutcome::Notified);
    }

    #[test]
    fn promotion_deferred_while_monitor_busy() {
        let p = Arc::new(HotLocks::with_capacity(8));
        let obj = p.heap().alloc().unwrap();
        let r = p.registry().register().unwrap();
        let t = r.token();
        // Reach the threshold while *holding* the lock: each nested lock
        // bumps the frequency but the monitor is never idle, so promotion
        // must wait.
        p.lock(obj, t).unwrap();
        for _ in 0..(DEFAULT_HOT_THRESHOLD * 2) {
            p.lock(obj, t).unwrap();
            p.unlock(obj, t).unwrap();
        }
        assert!(!p.is_hot(obj), "no promotion while held");
        p.unlock(obj, t).unwrap();
        // Next acquisition finds it idle and promotes.
        p.lock(obj, t).unwrap();
        p.unlock(obj, t).unwrap();
        assert!(p.is_hot(obj));
    }

    #[test]
    fn debug_and_name() {
        let p = HotLocks::with_capacity(2);
        assert_eq!(p.name(), "IBM112");
        assert!(format!("{p:?}").contains("HotLocks"));
        assert_eq!(p.free_hot_slots(), HOT_LOCK_COUNT);
    }
}
