//! The Sun JDK 1.1.1 monitor cache ("JDK111").
//!
//! From Section 1 of the paper: "The current Sun JDK favors space over
//! time. Monitors are kept outside of the objects to avoid the space cost,
//! and are looked up in a monitor cache. Unfortunately this is not only
//! inefficient, it does not scale because the monitor cache itself must be
//! locked during lookups to prevent race conditions with concurrent
//! modifiers."
//!
//! And from Section 3.3: "the JDK111 implementation also slows down as the
//! number of locked objects increases. This is due to the fact that the
//! monitor cache thrashes its free list when the working set of monitors
//! exceeds the size of the monitor cache."
//!
//! Accordingly, this implementation has:
//!
//! * a global table mapping object → monitor, guarded by one mutex that
//!   **every** lock, unlock, wait, and notify must take to translate the
//!   object to its monitor (the scalability bottleneck);
//! * a bounded pool of monitor structures with a free list; when the pool
//!   is exhausted the cache reclaims a monitor from some idle object by
//!   scanning the table (the thrash: an O(cached) operation that runs on
//!   nearly every lookup once the working set exceeds the pool);
//! * monitors left installed with count zero after unlock — the
//!   Krall-and-Probst-style optimization the paper describes — so
//!   re-locking a recently used object skips allocation until eviction.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use thinlock_monitor::FatLock;
use thinlock_runtime::backend::{MonitorProbe, SyncBackend};
use thinlock_runtime::error::{SyncError, SyncResult};
use thinlock_runtime::heap::{Heap, ObjRef};
use thinlock_runtime::hooks::NoHooks;
use thinlock_runtime::lockword::ThreadIndex;
use thinlock_runtime::protocol::{SyncProtocol, WaitOutcome};
use thinlock_runtime::registry::{ThreadRegistry, ThreadToken};

/// Default number of monitors in the cache pool before the free list
/// starts thrashing. The Sun JDK's monitor cache was similarly a small
/// fixed structure; the exact figure only moves the knee of the MultiSync
/// curve.
pub const DEFAULT_CACHE_CAPACITY: usize = 128;

#[derive(Debug)]
struct PoolEntry {
    lock: Arc<FatLock>,
    /// Object currently bound to this monitor, if any.
    bound_to: Option<usize>,
}

#[derive(Debug)]
struct CacheInner {
    /// object index -> pool slot
    map: HashMap<usize, usize>,
    pool: Vec<PoolEntry>,
    free: Vec<usize>,
    capacity: usize,
    /// Number of reclaim scans performed (diagnostics: the thrash).
    evictions: u64,
}

impl CacheInner {
    /// Finds the monitor for `obj`, installing one if needed.
    fn lookup_or_install(&mut self, obj: usize) -> Arc<FatLock> {
        if let Some(&slot) = self.map.get(&obj) {
            return Arc::clone(&self.pool[slot].lock);
        }
        let slot = self.take_free_slot();
        self.pool[slot].bound_to = Some(obj);
        self.map.insert(obj, slot);
        Arc::clone(&self.pool[slot].lock)
    }

    /// Pops a free slot, reclaiming an idle monitor if the free list is
    /// empty, growing the pool as a last resort (a real VM would GC
    /// monitors; growth keeps us deadlock-free when every monitor is
    /// busy).
    fn take_free_slot(&mut self) -> usize {
        if let Some(slot) = self.free.pop() {
            return slot;
        }
        if self.pool.len() < self.capacity {
            self.pool.push(PoolEntry {
                lock: Arc::new(FatLock::new()),
                bound_to: None,
            });
            return self.pool.len() - 1;
        }
        // Thrash: scan the whole table for a reclaimable monitor. This
        // linear scan is the "free list thrashing" cost of Section 3.3.
        self.evictions += 1;
        let victim = self.map.iter().find_map(|(&obj, &slot)| {
            let m = &self.pool[slot].lock;
            // No outstanding handle first: handles are only cloned under
            // the cache mutex we hold, so with none left the monitor's
            // state is frozen and the three reads below agree.
            let idle = Arc::strong_count(m) == 1
                && m.owner().is_none()
                && m.entry_queue_len() == 0
                && m.wait_set_len() == 0;
            idle.then_some((obj, slot))
        });
        match victim {
            Some((obj, slot)) => {
                self.map.remove(&obj);
                self.pool[slot].bound_to = None;
                slot
            }
            None => {
                // Every monitor busy: grow beyond capacity.
                self.pool.push(PoolEntry {
                    lock: Arc::new(FatLock::new()),
                    bound_to: None,
                });
                self.pool.len() - 1
            }
        }
    }
}

/// The JDK 1.1.1 baseline: an external monitor cache under a global lock.
///
/// # Example
///
/// ```
/// use thinlock_baselines::MonitorCache;
/// use thinlock_runtime::protocol::SyncProtocol;
///
/// let p = MonitorCache::with_capacity(16);
/// let reg = p.registry().register()?;
/// let obj = p.heap().alloc()?;
/// p.lock(obj, reg.token())?;
/// p.unlock(obj, reg.token())?;
/// # Ok::<(), thinlock_runtime::SyncError>(())
/// ```
pub struct MonitorCache {
    heap: Arc<Heap>,
    registry: ThreadRegistry,
    cache: Mutex<CacheInner>,
}

impl MonitorCache {
    /// Creates the baseline over a fresh heap of `heap_capacity` objects
    /// with the default monitor-cache size.
    pub fn with_capacity(heap_capacity: usize) -> Self {
        Self::new(
            Arc::new(Heap::with_capacity(heap_capacity)),
            ThreadRegistry::new(),
            DEFAULT_CACHE_CAPACITY,
        )
    }

    /// Creates the baseline over an existing heap and registry with a
    /// given monitor-cache pool size.
    pub fn new(heap: Arc<Heap>, registry: ThreadRegistry, cache_capacity: usize) -> Self {
        MonitorCache {
            heap,
            registry,
            cache: Mutex::new(CacheInner {
                map: HashMap::new(),
                pool: Vec::new(),
                free: Vec::new(),
                capacity: cache_capacity.max(1),
                evictions: 0,
            }),
        }
    }

    /// The monitor-cache lookup every operation pays: take the global
    /// cache lock, hash the object, follow the indirection.
    fn monitor_for(&self, obj: ObjRef) -> Arc<FatLock> {
        let mut inner = self.cache.lock().expect("monitor cache poisoned");
        inner.lookup_or_install(obj.index())
    }

    /// Like [`monitor_for`](Self::monitor_for) but without installing — for
    /// operations that are errors on never-synchronized objects.
    fn monitor_if_present(&self, obj: ObjRef) -> Option<Arc<FatLock>> {
        let inner = self.cache.lock().expect("monitor cache poisoned");
        inner
            .map
            .get(&obj.index())
            .map(|&slot| Arc::clone(&inner.pool[slot].lock))
    }

    /// Number of free-list reclaim scans so far — the thrash counter.
    pub fn evictions(&self) -> u64 {
        self.cache.lock().expect("monitor cache poisoned").evictions
    }

    /// Number of monitors currently bound to objects.
    pub fn cached_monitors(&self) -> usize {
        self.cache.lock().expect("monitor cache poisoned").map.len()
    }

    /// The configured pool capacity.
    pub fn cache_capacity(&self) -> usize {
        self.cache.lock().expect("monitor cache poisoned").capacity
    }
}

impl SyncProtocol for MonitorCache {
    fn lock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        let monitor = self.monitor_for(obj);
        monitor.lock(t, &self.registry, &NoHooks)
    }

    fn unlock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        // The unlock, too, must translate object -> monitor through the
        // locked cache; this is half of what thin locks eliminate.
        match self.monitor_if_present(obj) {
            Some(monitor) => monitor.unlock(t, &self.registry),
            None => Err(SyncError::NotLocked),
        }
    }

    fn wait(
        &self,
        obj: ObjRef,
        t: ThreadToken,
        timeout: Option<Duration>,
    ) -> SyncResult<WaitOutcome> {
        match self.monitor_if_present(obj) {
            Some(monitor) => monitor.wait(t, &self.registry, timeout, &NoHooks),
            None => Err(SyncError::NotLocked),
        }
    }

    fn notify(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        match self.monitor_if_present(obj) {
            Some(monitor) => monitor.notify(t),
            None => Err(SyncError::NotLocked),
        }
    }

    fn notify_all(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        match self.monitor_if_present(obj) {
            Some(monitor) => monitor.notify_all(t),
            None => Err(SyncError::NotLocked),
        }
    }

    fn holds_lock(&self, obj: ObjRef, t: ThreadToken) -> bool {
        self.monitor_if_present(obj).is_some_and(|m| m.holds(t))
    }

    fn heap(&self) -> &Heap {
        &self.heap
    }

    fn registry(&self) -> &ThreadRegistry {
        &self.registry
    }

    fn name(&self) -> &'static str {
        "JDK111"
    }
}

impl SyncBackend for MonitorCache {
    // The header word carries no lock state in this baseline — every
    // probe goes through the cached monitor, and the default
    // word-decoding `owner_of` would always answer `None`.
    fn monitor_probe(&self, obj: ObjRef) -> Option<MonitorProbe> {
        let probe = self.monitor_if_present(obj)?.probe();
        (probe.owner.is_some() || probe.wait_set_len > 0).then_some(probe)
    }

    fn owner_of(&self, obj: ObjRef) -> Option<ThreadIndex> {
        self.monitor_if_present(obj).and_then(|m| m.owner())
    }

    fn in_wait_set(&self, obj: ObjRef, t: ThreadToken) -> bool {
        self.monitor_if_present(obj)
            .is_some_and(|m| m.is_waiting(t))
    }

    // Eviction recycles monitor structures, which is this baseline's
    // (coarse) analogue of deflation.
    fn deflation_capable(&self) -> bool {
        true
    }

    fn deflation_count(&self) -> u64 {
        self.evictions()
    }

    fn monitors_live(&self) -> usize {
        self.cached_monitors()
    }

    fn monitors_peak(&self) -> usize {
        self.cache
            .lock()
            .expect("monitor cache poisoned")
            .pool
            .len()
    }

    fn monitors_allocated(&self) -> u64 {
        self.cache
            .lock()
            .expect("monitor cache poisoned")
            .pool
            .len() as u64
    }
}

impl fmt::Debug for MonitorCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MonitorCache")
            .field("heap", &self.heap)
            .field("cached", &self.cached_monitors())
            .field("evictions", &self.evictions())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread;

    #[test]
    fn lock_unlock_roundtrip() {
        let p = MonitorCache::with_capacity(8);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        assert!(!p.holds_lock(obj, t));
        p.lock(obj, t).unwrap();
        assert!(p.holds_lock(obj, t));
        p.lock(obj, t).unwrap(); // reentrant
        p.unlock(obj, t).unwrap();
        assert!(p.holds_lock(obj, t));
        p.unlock(obj, t).unwrap();
        assert!(!p.holds_lock(obj, t));
    }

    #[test]
    fn unlock_without_monitor_is_not_locked() {
        let p = MonitorCache::with_capacity(8);
        let r = p.registry().register().unwrap();
        let obj = p.heap().alloc().unwrap();
        assert_eq!(p.unlock(obj, r.token()), Err(SyncError::NotLocked));
        assert_eq!(p.notify(obj, r.token()), Err(SyncError::NotLocked));
    }

    #[test]
    fn monitor_stays_cached_after_unlock() {
        let p = MonitorCache::with_capacity(8);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        p.lock(obj, t).unwrap();
        p.unlock(obj, t).unwrap();
        assert_eq!(p.cached_monitors(), 1, "monitor left installed at count 0");
    }

    #[test]
    fn free_list_thrashes_beyond_capacity() {
        let p = MonitorCache::new(
            Arc::new(Heap::with_capacity(64)),
            ThreadRegistry::new(),
            8, // tiny cache
        );
        let r = p.registry().register().unwrap();
        let t = r.token();
        let objs: Vec<_> = (0..32).map(|_| p.heap().alloc().unwrap()).collect();
        // Two passes over a working set 4x the cache: second pass must
        // re-install and therefore evict each time.
        for _pass in 0..2 {
            for &o in &objs {
                p.lock(o, t).unwrap();
                p.unlock(o, t).unwrap();
            }
        }
        assert!(
            p.evictions() >= 32,
            "working set > cache must thrash (got {} evictions)",
            p.evictions()
        );
        assert!(p.cached_monitors() <= 8);
    }

    #[test]
    fn small_working_set_never_evicts() {
        let p = MonitorCache::new(Arc::new(Heap::with_capacity(8)), ThreadRegistry::new(), 16);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let objs: Vec<_> = (0..4).map(|_| p.heap().alloc().unwrap()).collect();
        for _ in 0..100 {
            for &o in &objs {
                p.lock(o, t).unwrap();
                p.unlock(o, t).unwrap();
            }
        }
        assert_eq!(p.evictions(), 0);
    }

    #[test]
    fn eviction_never_reclaims_busy_monitor() {
        let p = Arc::new(MonitorCache::new(
            Arc::new(Heap::with_capacity(16)),
            ThreadRegistry::new(),
            2,
        ));
        let r = p.registry().register().unwrap();
        let t = r.token();
        let held = p.heap().alloc().unwrap();
        p.lock(held, t).unwrap(); // keeps one monitor busy
        for _ in 0..8 {
            let o = p.heap().alloc().unwrap();
            p.lock(o, t).unwrap();
            p.unlock(o, t).unwrap();
        }
        // The held object's monitor must still be ours.
        assert!(p.holds_lock(held, t));
        p.unlock(held, t).unwrap();
    }

    #[test]
    fn mutual_exclusion_across_threads() {
        let p = Arc::new(MonitorCache::with_capacity(4));
        let obj = p.heap().alloc().unwrap();
        let total = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let p = Arc::clone(&p);
            let total = Arc::clone(&total);
            handles.push(thread::spawn(move || {
                let r = p.registry().register().unwrap();
                let t = r.token();
                for _ in 0..200 {
                    p.lock(obj, t).unwrap();
                    let v = total.load(Ordering::Relaxed);
                    thread::yield_now();
                    total.store(v + 1, Ordering::Relaxed);
                    p.unlock(obj, t).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 800);
    }

    #[test]
    fn wait_notify_through_cache() {
        let p = Arc::new(MonitorCache::with_capacity(4));
        let obj = p.heap().alloc().unwrap();
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
            let had_waiter = p
                .monitor_if_present(obj)
                .is_some_and(|m| m.wait_set_len() > 0);
            if had_waiter {
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
    fn debug_output() {
        let p = MonitorCache::with_capacity(1);
        assert!(format!("{p:?}").contains("MonitorCache"));
        assert_eq!(p.name(), "JDK111");
        assert_eq!(p.cache_capacity(), DEFAULT_CACHE_CAPACITY);
    }
}
