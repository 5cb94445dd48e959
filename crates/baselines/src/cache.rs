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
//!
//! The cache itself is the crate-private `Cache`, which IBM112
//! ([`crate::hot`]) also starts every lock in.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use thinlock_monitor::FatLock;
use thinlock_runtime::error::{SyncError, SyncResult};
use thinlock_runtime::heap::{Heap, ObjRef};
use thinlock_runtime::hooks::NoHooks;
use thinlock_runtime::protocol::{SyncProtocol, WaitOutcome};
use thinlock_runtime::registry::{ThreadRegistry, ThreadToken};

/// Default number of monitors in the cache pool before the free list
/// starts thrashing. The Sun JDK's monitor cache was similarly a small
/// fixed structure; the exact figure only moves the knee of the MultiSync
/// curve.
pub const DEFAULT_CACHE_CAPACITY: usize = 128;

/// One pooled monitor.
pub(crate) struct Entry {
    pub(crate) lock: Arc<FatLock>,
    /// Locking lookups since the monitor was bound to its object: the
    /// locking frequency IBM112 records (JDK111 leaves it at 0).
    pub(crate) lookups: u32,
}

/// The object → monitor cache, always used under its owner's mutex.
pub(crate) struct Cache {
    /// object index -> pool slot
    map: HashMap<usize, usize>,
    pool: Vec<Entry>,
    free: Vec<usize>,
    capacity: usize,
    /// Number of reclaim scans performed (diagnostics: the thrash).
    pub(crate) evictions: u64,
}

impl Cache {
    pub(crate) fn new(capacity: usize) -> Self {
        Cache {
            map: HashMap::new(),
            pool: Vec::new(),
            free: Vec::new(),
            capacity: capacity.max(1),
            evictions: 0,
        }
    }

    /// The monitor bound to `obj`, if any.
    pub(crate) fn get(&self, obj: usize) -> Option<Arc<FatLock>> {
        self.map
            .get(&obj)
            .map(|&slot| Arc::clone(&self.pool[slot].lock))
    }

    /// Finds `obj`'s entry for a lock, binding a free monitor with a
    /// zero lookup count if needed.
    pub(crate) fn bind(&mut self, obj: usize) -> &mut Entry {
        let slot = match self.map.get(&obj) {
            Some(&slot) => slot,
            None => {
                let slot = self.take_free_slot();
                self.pool[slot].lookups = 0;
                self.map.insert(obj, slot);
                slot
            }
        };
        &mut self.pool[slot]
    }

    /// Returns `obj`'s monitor to the free list.
    pub(crate) fn unbind(&mut self, obj: usize) {
        if let Some(slot) = self.map.remove(&obj) {
            self.free.push(slot);
        }
    }

    /// Pops a free slot, reclaiming an idle monitor if the free list is
    /// empty, growing the pool as a last resort (a real VM would GC
    /// monitors; growth keeps us deadlock-free when every monitor is
    /// busy).
    fn take_free_slot(&mut self) -> usize {
        if let Some(slot) = self.free.pop() {
            return slot;
        }
        if self.pool.len() >= self.capacity {
            // Thrash: scan the whole table for a reclaimable monitor. This
            // linear scan is the "free list thrashing" cost of Section 3.3.
            self.evictions += 1;
            let victim = self
                .map
                .iter()
                .find_map(|(&obj, &slot)| is_idle(&self.pool[slot].lock).then_some((obj, slot)));
            if let Some((obj, slot)) = victim {
                self.map.remove(&obj);
                return slot;
            }
        }
        // Below capacity, or every monitor busy: grow.
        self.pool.push(Entry {
            lock: Arc::new(FatLock::new()),
            lookups: 0,
        });
        self.pool.len() - 1
    }
}

/// True when the cache may rebind or promote `m`: no handle to it exists
/// outside the cache, and it has no owner, entrant or waiter. The handle
/// count comes first: handles are only cloned under the cache mutex the
/// caller holds, so with none left the monitor's state is frozen. Read
/// last, an acquirer could take the monitor and drop its handle between
/// the probe and the count.
pub(crate) fn is_idle(m: &Arc<FatLock>) -> bool {
    Arc::strong_count(m) == 1 && m.probe().is_idle()
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
    cache: Mutex<Cache>,
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
            cache: Mutex::new(Cache::new(cache_capacity)),
        }
    }

    fn cache(&self) -> MutexGuard<'_, Cache> {
        self.cache.lock().expect("monitor cache poisoned")
    }

    /// The monitor-cache lookup every operation pays — take the global
    /// cache lock, hash the object, follow the indirection — then `op` on
    /// the monitor with the cache unlocked. Only a lock binds a monitor;
    /// anything else on a never-synchronized object is `NotLocked`.
    fn with_monitor<R>(
        &self,
        obj: ObjRef,
        locking: bool,
        op: impl FnOnce(&FatLock) -> SyncResult<R>,
    ) -> SyncResult<R> {
        let monitor = if locking {
            Arc::clone(&self.cache().bind(obj.index()).lock)
        } else {
            self.cache().get(obj.index()).ok_or(SyncError::NotLocked)?
        };
        op(&monitor)
    }

    /// Number of free-list reclaim scans so far — the thrash counter.
    pub fn evictions(&self) -> u64 {
        self.cache().evictions
    }

    /// Number of monitors currently bound to objects.
    pub fn cached_monitors(&self) -> usize {
        self.cache().map.len()
    }

    /// The configured pool capacity.
    pub fn cache_capacity(&self) -> usize {
        self.cache().capacity
    }
}

impl SyncProtocol for MonitorCache {
    fn lock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        self.with_monitor(obj, true, |m| m.lock(t, &self.registry, &NoHooks))
    }

    fn unlock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        // The unlock, too, must translate object -> monitor through the
        // locked cache; this is half of what thin locks eliminate.
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
        "JDK111"
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
                .with_monitor(obj, false, |m| Ok(m.wait_set_len() > 0))
                .unwrap_or(false);
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
