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
//! The "default fat locks" are JDK111's: IBM112's cold path is the
//! [`crate::cache`] monitor cache, whose entries count their locking
//! lookups. The scheme's strength and weakness both reproduce here:
//!
//! * a hot lock's fast path is "following a pointer, comparing a thread
//!   identifier, and incrementing a memory location" — no monitor-cache
//!   lookup, so `NestedSync` is nearly as fast as a thin lock and
//!   contended locking is faster than JDK111;
//! * once more than 32 locks are hot candidates, everything else stays on
//!   the slow monitor-cache path ("the Achilles heel of the hot lock
//!   approach", visible as the MultiSync cliff in Figure 4).

use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use crate::cache::{is_idle, Cache};
use thinlock_monitor::FatLock;
use thinlock_runtime::error::{SyncError, SyncResult};
use thinlock_runtime::heap::{Heap, ObjRef};
use thinlock_runtime::hooks::NoHooks;
use thinlock_runtime::lockword::LockWord;
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

struct HotSlot {
    lock: FatLock,
    /// The displaced header word of the bound object.
    displaced: AtomicU32,
}

/// Everything the one mutex guards: the cold monitor cache and the
/// promotion state.
struct Inner {
    cache: Cache,
    hot_free: Vec<usize>,
    promotions: u64,
    /// Lookups that make a cold monitor hot; at least 2, since a fresh
    /// binding never promotes on its first lock.
    threshold: u32,
}

/// Where an object's monitor lives.
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
    inner: Mutex<Inner>,
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
        let hot = (0..HOT_LOCK_COUNT)
            .map(|_| HotSlot {
                lock: FatLock::new(),
                displaced: AtomicU32::new(0),
            })
            .collect();
        HotLocks {
            heap,
            registry,
            inner: Mutex::new(Inner {
                cache: Cache::new(cache_capacity),
                hot_free: (0..HOT_LOCK_COUNT).rev().collect(),
                promotions: 0,
                threshold: threshold.max(2),
            }),
            hot,
        }
    }

    fn inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("hot-lock cache poisoned")
    }

    /// The hot-path test: one load of the header word and a bit test.
    #[inline]
    fn hot_slot_of(&self, obj: ObjRef) -> Option<usize> {
        let word = self.heap.header(obj).lock_word().load_acquire().bits();
        (word & HOT_MARKER_BIT != 0).then_some((word >> 1) as usize)
    }

    /// Runs `op` on `obj`'s monitor: the hot lock its header points at,
    /// or else its cold monitor under one hold of the cache mutex. Only a
    /// lock binds a cold monitor; anything else on a never-synchronized
    /// object is `NotLocked`.
    fn with_monitor<R>(
        &self,
        obj: ObjRef,
        locking: bool,
        op: impl FnOnce(&FatLock) -> SyncResult<R>,
    ) -> SyncResult<R> {
        // Hot fast path: follow the pointer, let the monitor compare the
        // thread identifier and bump its count.
        let resolved = match self.hot_slot_of(obj) {
            Some(slot) => Resolved::Hot(slot),
            None => self.resolve_cold(obj, locking)?,
        };
        match resolved {
            Resolved::Hot(slot) => op(&self.hot[slot].lock),
            Resolved::Cold(monitor) => op(&monitor),
        }
    }

    /// Cold path: the locked cache lookup, which for a lock also counts
    /// the lookup and promotes the monitor once it is hot and idle (so no
    /// state needs migrating) and a hot slot is free.
    fn resolve_cold(&self, obj: ObjRef, locking: bool) -> SyncResult<Resolved> {
        let mut guard = self.inner();
        let inner = &mut *guard;
        // Promotion happens under this mutex, so this re-read sees any
        // promotion that beat the unlocked one.
        if let Some(slot) = self.hot_slot_of(obj) {
            return Ok(Resolved::Hot(slot));
        }
        if !locking {
            let monitor = inner.cache.get(obj.index());
            return monitor.map(Resolved::Cold).ok_or(SyncError::NotLocked);
        }
        let entry = inner.cache.bind(obj.index());
        entry.lookups = entry.lookups.saturating_add(1);
        let hot = if entry.lookups >= inner.threshold && is_idle(&entry.lock) {
            inner.hot_free.pop()
        } else {
            None
        };
        let Some(slot) = hot else {
            return Ok(Resolved::Cold(Arc::clone(&entry.lock)));
        };
        // Displace the header: save the original word in the hot lock
        // structure, install the marked pointer.
        let cell = self.heap.header(obj).lock_word();
        let original = cell.load_relaxed().bits();
        debug_assert_eq!(original & HOT_MARKER_BIT, 0);
        self.hot[slot].displaced.store(original, Ordering::Relaxed);
        cell.store_release(LockWord::from_bits(((slot as u32) << 1) | HOT_MARKER_BIT));
        inner.cache.unbind(obj.index());
        inner.promotions += 1;
        Ok(Resolved::Hot(slot))
    }

    /// True if `obj`'s lock has been promoted to a hot slot.
    pub fn is_hot(&self, obj: ObjRef) -> bool {
        self.hot_slot_of(obj).is_some()
    }

    /// Number of promotions performed so far.
    pub fn promotions(&self) -> u64 {
        self.inner().promotions
    }

    /// Number of free hot slots remaining.
    pub fn free_hot_slots(&self) -> usize {
        self.inner().hot_free.len()
    }

    /// Number of cold free-list reclaim scans so far.
    pub fn evictions(&self) -> u64 {
        self.inner().cache.evictions
    }

    /// The displaced header word of a promoted object.
    pub fn displaced_header(&self, obj: ObjRef) -> Option<u32> {
        let slot = self.hot_slot_of(obj)?;
        Some(self.hot[slot].displaced.load(Ordering::Relaxed))
    }
}

impl SyncProtocol for HotLocks {
    fn lock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        self.with_monitor(obj, true, |m| m.lock(t, &self.registry, &NoHooks))
    }

    fn unlock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        self.with_monitor(obj, false, |m| m.unlock(t, &self.registry))
    }

    fn wait(
        &self,
        obj: ObjRef,
        t: ThreadToken,
        timeout: Option<Duration>,
    ) -> SyncResult<WaitOutcome> {
        self.with_monitor(obj, false, |m| m.wait(t, &self.registry, timeout, &NoHooks))
    }

    fn notify(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        self.with_monitor(obj, false, |m| m.notify(t))
    }

    fn notify_all(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        self.with_monitor(obj, false, |m| m.notify_all(t))
    }

    fn holds_lock(&self, obj: ObjRef, t: ThreadToken) -> bool {
        self.with_monitor(obj, false, |m| Ok(m.holds(t)))
            .unwrap_or(false)
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
    fn promotion_happens_on_lock_max_of_threshold_and_2() {
        for (threshold, hot_on) in [(1, 2), (2, 2), (3, 3), (DEFAULT_HOT_THRESHOLD, 8)] {
            let p = HotLocks::new(
                Arc::new(Heap::with_capacity(4)),
                ThreadRegistry::new(),
                crate::cache::DEFAULT_CACHE_CAPACITY,
                threshold,
            );
            let r = p.registry().register().unwrap();
            let t = r.token();
            let obj = p.heap().alloc().unwrap();
            for n in 1..=hot_on {
                p.lock(obj, t).unwrap();
                assert_eq!(
                    p.is_hot(obj),
                    n == hot_on,
                    "threshold {threshold}, lock {n}"
                );
                p.unlock(obj, t).unwrap();
            }
            assert_eq!(p.promotions(), 1);
        }
    }

    #[test]
    fn cold_path_evicts_like_the_monitor_cache() {
        // One pass only: the victim is the first idle entry in `HashMap`
        // order, which differs per instance, so a second pass over the
        // same objects would evict differently in the two caches.
        let ibm = HotLocks::new(
            Arc::new(Heap::with_capacity(32)),
            ThreadRegistry::new(),
            8,
            u32::MAX,
        );
        let jdk =
            crate::MonitorCache::new(Arc::new(Heap::with_capacity(32)), ThreadRegistry::new(), 8);
        for p in [&ibm as &dyn SyncProtocol, &jdk] {
            let r = p.registry().register().unwrap();
            let t = r.token();
            for _ in 0..32 {
                let o = p.heap().alloc().unwrap();
                p.lock(o, t).unwrap();
                p.unlock(o, t).unwrap();
            }
        }
        assert_eq!(ibm.evictions(), 24);
        assert_eq!(jdk.evictions(), 24);
        assert_eq!(ibm.promotions(), 0);

        // A held cold monitor is never the victim.
        let p = HotLocks::new(
            Arc::new(Heap::with_capacity(16)),
            ThreadRegistry::new(),
            2,
            u32::MAX,
        );
        let r = p.registry().register().unwrap();
        let t = r.token();
        let held = p.heap().alloc().unwrap();
        p.lock(held, t).unwrap();
        for _ in 0..8 {
            let o = p.heap().alloc().unwrap();
            hot_after(&p, o, t, 1);
        }
        assert_eq!(p.evictions(), 7);
        assert!(p.holds_lock(held, t));
        p.unlock(held, t).unwrap();
    }

    #[test]
    fn debug_and_name() {
        let p = HotLocks::with_capacity(2);
        assert_eq!(p.name(), "IBM112");
        assert!(format!("{p:?}").contains("HotLocks"));
        assert_eq!(p.free_hot_slots(), HOT_LOCK_COUNT);
    }
}
