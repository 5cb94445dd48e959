//! The fat lock: the paper's multi-word heavyweight monitor.
//!
//! A [`FatLock`] holds the owning thread index, a nested lock count, a FIFO
//! *entry queue* of threads blocked trying to acquire, and a *wait set* of
//! threads parked inside `wait`. Semantics are Java's (derived from Mesa):
//!
//! * acquisition is re-entrant per owning thread;
//! * `notify` moves a waiter from the wait set to the entry queue without
//!   waking it immediately — it will run after the monitor is released
//!   (signal-and-continue);
//! * `wait(timeout)` re-acquires the monitor to its previous nesting depth
//!   before returning, even when it returns by timeout or interruption.
//!
//! The owner, the nested count and a QUEUED bit share one `AtomicU64`
//! (DESIGN.md §21), and the monitor applies the paper's owner-only
//! discipline to it: an uncontended acquire is one compare-and-swap from
//! unowned to (me, 1), a re-entrant one an add by the owner, and the last
//! release one compare-and-swap back to unowned. A small
//! `std::sync::Mutex` guards only the entry queue and the wait set — an
//! accurate stand-in for the pthread mutex + kernel support that backed
//! the JDK's fat locks on AIX. QUEUED changes only under that mutex and is
//! set whenever either queue is non-empty, so the release CAS fails exactly
//! when someone may need waking; the owner then releases under the mutex
//! and unparks the front of the entry queue. Blocked threads park on the
//! per-thread [`Parker`](thinlock_runtime::registry::Parker) from the
//! thread registry. Unparks can therefore never be lost (a permit persists
//! until consumed) and stale permits only cost one loop iteration.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use thinlock_runtime::backend::MonitorProbe;
use thinlock_runtime::error::{SyncError, SyncResult};
use thinlock_runtime::fault::{FaultAction, InjectionPoint};
use thinlock_runtime::hooks::{Hooks, Site};
use thinlock_runtime::lockword::ThreadIndex;
use thinlock_runtime::protocol::WaitOutcome;
use thinlock_runtime::registry::{ThreadRecord, ThreadRegistry, ThreadToken};
use thinlock_runtime::schedule::SchedPoint;

/// State word bits 0–15: the owner's thread index, 0 while unowned.
const OWNER_MASK: u64 = 0xFFFF;
/// State word bit 16: the entry queue or the wait set is non-empty.
const QUEUED: u64 = 1 << 16;
/// State word bits 32–63: the nested count, 0 while unowned.
const COUNT_SHIFT: u32 = 32;

/// The state word of `me` holding the monitor `n` times, QUEUED clear.
#[inline]
fn held_by(me: ThreadIndex, n: u32) -> u64 {
    u64::from(me.get()) | u64::from(n) << COUNT_SHIFT
}

#[inline]
fn owner_bits(me: ThreadIndex) -> u64 {
    u64::from(me.get())
}

#[inline]
fn word_owner(word: u64) -> Option<ThreadIndex> {
    ThreadIndex::new((word & OWNER_MASK) as u16).ok()
}

#[inline]
fn word_count(word: u64) -> u32 {
    (word >> COUNT_SHIFT) as u32
}

/// `Ok` if `word` is owned by `me`, else the error an owner-only
/// operation reports.
#[inline]
fn check_owner(word: u64, me: ThreadIndex) -> SyncResult<()> {
    match word & OWNER_MASK {
        0 => Err(SyncError::NotLocked),
        o if o == owner_bits(me) => Ok(()),
        _ => Err(SyncError::NotOwner),
    }
}

/// Shared flag linking a waiting thread to its wait-set entry, so `notify`
/// can mark it delivered after the entry has moved queues.
#[derive(Debug, Default)]
struct WaitFlag {
    notified: AtomicBool,
}

#[derive(Debug)]
struct WaitEntry {
    thread: ThreadIndex,
    flag: Arc<WaitFlag>,
}

/// What the queue mutex guards.
#[derive(Debug, Default)]
struct Queues {
    entry_queue: VecDeque<ThreadIndex>,
    wait_set: VecDeque<WaitEntry>,
}

impl Queues {
    fn enqueue_entry_back(&mut self, t: ThreadIndex) {
        if !self.entry_queue.contains(&t) {
            self.entry_queue.push_back(t);
        }
    }

    fn enqueue_entry_front(&mut self, t: ThreadIndex) {
        if !self.entry_queue.contains(&t) {
            self.entry_queue.push_front(t);
        }
    }

    fn remove_from_entry(&mut self, t: ThreadIndex) {
        self.entry_queue.retain(|&x| x != t);
    }

    /// Next thread to wake when the monitor becomes free.
    fn front_of_entry(&self) -> Option<ThreadIndex> {
        self.entry_queue.front().copied()
    }

    /// What QUEUED must read once the mutex is released.
    fn any_queued(&self) -> bool {
        !self.entry_queue.is_empty() || !self.wait_set.is_empty()
    }
}

/// The heavyweight monitor structure of Section 2.1 / Figure 2(b).
///
/// # Example
///
/// ```
/// use thinlock_monitor::FatLock;
/// use thinlock_runtime::hooks::NoHooks;
/// use thinlock_runtime::registry::ThreadRegistry;
///
/// let registry = ThreadRegistry::new();
/// let me = registry.register()?;
/// let lock = FatLock::new();
/// lock.lock(me.token(), &registry, &NoHooks)?;
/// assert!(lock.holds(me.token()));
/// lock.unlock(me.token(), &registry)?;
/// # Ok::<(), thinlock_runtime::SyncError>(())
/// ```
#[derive(Default)]
pub struct FatLock {
    /// Owner, nested count and QUEUED (see the `OWNER_MASK`, `QUEUED`
    /// and `COUNT_SHIFT` layout). Owner and count are written only by
    /// the owner, or by whoever takes an unowned word; QUEUED only
    /// under `queues`.
    state: AtomicU64,
    queues: Mutex<Queues>,
}

impl fmt::Debug for FatLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let word = self.state.load(Ordering::Acquire);
        f.debug_struct("FatLock")
            .field("owner", &word_owner(word))
            .field("count", &word_count(word))
            .field("queued", &(word & QUEUED != 0))
            .field("queues", &self.queues)
            .finish()
    }
}

impl FatLock {
    /// Creates an unowned fat lock.
    pub fn new() -> Self {
        FatLock::default()
    }

    /// Creates a fat lock already owned `count` times by `owner` — the
    /// inflation constructor. When a thin lock is inflated, its owner and
    /// nested count transfer directly into the new monitor (the fat count
    /// is the number of locks, *not* locks − 1 as in the thin encoding).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero (an unowned monitor must use [`new`]).
    ///
    /// [`new`]: FatLock::new
    pub fn new_owned(owner: ThreadToken, count: u32) -> Self {
        assert!(count > 0, "owned monitor needs a positive count");
        FatLock {
            state: AtomicU64::new(held_by(owner.index(), count)),
            ..FatLock::default()
        }
    }

    /// True if `t` is in the wait set — parked in `wait` and not yet
    /// moved to the entry queue by a `notify`. Model checkers use this
    /// to decide whether a thread blocked at a wait park can make
    /// progress when resumed.
    pub fn is_waiting(&self, t: ThreadToken) -> bool {
        let me = t.index();
        self.lock_queues().wait_set.iter().any(|e| e.thread == me)
    }

    fn lock_queues(&self) -> std::sync::MutexGuard<'_, Queues> {
        // Recover from poisoning rather than propagating it: the queues
        // are updated in small all-or-nothing critical sections, so a
        // thread that panicked while holding the mutex left them
        // consistent; cascading the panic into every other thread touching
        // this monitor would turn one failed test thread into a wedged
        // monitor table.
        self.queues.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Makes QUEUED agree with `queues` before the caller drops the
    /// mutex. QUEUED changes only under the mutex, so a load decides
    /// whether the read-modify-write is needed. Relaxed suffices: the
    /// mutex orders the queue contents, and read-modify-write atomicity
    /// orders the flip against an owner's release CAS.
    fn sync_queued(&self, queues: &Queues) {
        let queued = queues.any_queued();
        if (self.state.load(Ordering::Relaxed) & QUEUED != 0) != queued {
            if queued {
                self.state.fetch_or(QUEUED, Ordering::Relaxed);
            } else {
                self.state.fetch_and(!QUEUED, Ordering::Relaxed);
            }
        }
    }

    /// The word's acquiring step: a CAS from unowned to (`me`, `n`) that
    /// keeps QUEUED, so a barger may take a monitor whose queue is still
    /// waking, or, if `me` already owns it, an add of `n` to the count.
    /// Returns the resulting depth, or `None` while another thread owns
    /// the monitor.
    ///
    /// The CAS is Acquire and pairs with the Release of the release that
    /// left the word unowned. The owner's add is Relaxed: the owner
    /// synchronized when it first acquired, and nobody else writes the
    /// owner or the count while it holds them.
    #[inline]
    fn try_acquire(&self, me: ThreadIndex, n: u32) -> Option<u32> {
        let mut word = self.state.load(Ordering::Relaxed);
        loop {
            match word & OWNER_MASK {
                0 => match self.state.compare_exchange(
                    word,
                    word | held_by(me, n),
                    Ordering::Acquire,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return Some(n),
                    // Lost to a barger, or QUEUED flipped: look again.
                    Err(seen) => word = seen,
                },
                o if o == owner_bits(me) => {
                    let before = self
                        .state
                        .fetch_add(u64::from(n) << COUNT_SHIFT, Ordering::Relaxed);
                    return Some(word_count(before) + n);
                }
                _ => return None,
            }
        }
    }

    /// Drops the hold `held` (the owner's word with QUEUED clear) in one
    /// CAS to unowned; Release pairs with the next acquirer's Acquire.
    /// The CAS fails while QUEUED is set, and the owner then releases
    /// under the mutex and unparks the front of the entry queue.
    #[inline]
    fn release(&self, held: u64, registry: &ThreadRegistry) {
        if self
            .state
            .compare_exchange(held, 0, Ordering::Release, Ordering::Relaxed)
            .is_err()
        {
            self.release_queued(registry);
        }
    }

    #[inline(never)]
    fn release_queued(&self, registry: &ThreadRegistry) {
        let wake = {
            let queues = self.lock_queues();
            // The caller owns the word and QUEUED changes only under the
            // mutex held here, so nobody else can write the word: a plain
            // Release store clears owner and count and keeps QUEUED.
            let word = self.state.load(Ordering::Relaxed);
            self.state.store(word & QUEUED, Ordering::Release);
            queues.front_of_entry()
        };
        wake_thread(wake, registry);
    }

    /// Acquires the monitor once for `t`, re-entrantly; blocks by parking
    /// while another thread owns it. `hooks` is consulted at the
    /// [`InjectionPoint::FatAcquire`] entry and at every park
    /// ([`SchedPoint::FatPark`] / [`InjectionPoint::FatPark`]); both
    /// sites sit outside the queue mutex, so a thread a schedule holds
    /// there never wedges other threads touching this monitor.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError::StaleThreadToken`] if `t` is not registered
    /// with `registry` (the parker lookup fails).
    pub fn lock(
        &self,
        t: ThreadToken,
        registry: &ThreadRegistry,
        hooks: &dyn Hooks,
    ) -> SyncResult<()> {
        self.lock_n(t, 1, registry, hooks)
    }

    /// Acquires the monitor and sets the nested count to `n` in one step;
    /// used by `wait` to restore its saved depth and by lock inflation.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError::StaleThreadToken`] if `t` is not registered.
    pub fn lock_n(
        &self,
        t: ThreadToken,
        n: u32,
        registry: &ThreadRegistry,
        hooks: &dyn Hooks,
    ) -> SyncResult<()> {
        debug_assert!(n > 0);
        let me = t.index();
        // Resolve the parker up front so a stale token fails fast rather
        // than after mutating the queues.
        let record = registry.record(me)?;
        self.acquire(me, n, &record, None, false, registry, hooks)
    }

    /// The non-blocking half of [`lock`](FatLock::lock): acquires if the
    /// monitor is unowned or already owned by `t`, returning the
    /// resulting nested depth, or `None` if another thread owns it (the
    /// caller must fall back to the parking path).
    ///
    /// One CAS on the state word (an add, if `t` already owns it), no
    /// mutex and no registry lookup — this is the fat-lock fast path of
    /// Section 2.3 ("index into the vector"), where the paper's design
    /// only wins over the JDK monitor cache if an inflated acquisition
    /// stays a handful of instructions. Token validation is deferred to
    /// the parking path, exactly as the thin fast path defers it to
    /// inflation. Its caller consults its own hook at
    /// [`InjectionPoint::FatAcquire`] first.
    #[inline]
    pub fn lock_uncontended(&self, t: ThreadToken) -> Option<u32> {
        self.try_acquire(t.index(), 1)
    }

    /// Attempts to acquire the monitor once for `t` without blocking.
    ///
    /// Returns `true` on success (including re-entrant acquisition),
    /// `false` if another thread owns the monitor. Never touches the
    /// entry queue, so a failed attempt leaves no trace.
    pub fn try_lock(&self, t: ThreadToken) -> bool {
        self.try_acquire(t.index(), 1).is_some()
    }

    /// Like [`lock_n`](FatLock::lock_n) but gives up once `deadline`
    /// passes, returning [`SyncError::Timeout`] with the monitor unheld
    /// and the caller removed from the entry queue.
    ///
    /// Acquisition is preferred over punctuality: the deadline is only
    /// checked after a failed attempt, so a monitor that frees up at the
    /// last instant is still taken.
    ///
    /// # Errors
    ///
    /// [`SyncError::Timeout`] past the deadline;
    /// [`SyncError::StaleThreadToken`] if `t` is not registered.
    pub fn lock_n_deadline(
        &self,
        t: ThreadToken,
        n: u32,
        registry: &ThreadRegistry,
        deadline: Instant,
        hooks: &dyn Hooks,
    ) -> SyncResult<()> {
        debug_assert!(n > 0);
        let me = t.index();
        let record = registry.record(me)?;
        self.acquire(me, n, &record, Some(deadline), false, registry, hooks)
    }

    /// The acquire loop behind `lock_n`, `lock_n_deadline` and `wait`'s
    /// re-acquisition: the word CAS, then the entry queue and a park
    /// until the CAS wins. A caller already `queued` in the entry queue
    /// (a waiter moved there by `notify` or its own timeout) skips the
    /// lone CAS, because it must leave the queue under the mutex.
    #[allow(clippy::too_many_arguments)]
    fn acquire(
        &self,
        me: ThreadIndex,
        n: u32,
        record: &ThreadRecord,
        deadline: Option<Instant>,
        queued: bool,
        registry: &ThreadRegistry,
        hooks: &dyn Hooks,
    ) -> SyncResult<()> {
        if hooks.before(Site::fault(InjectionPoint::FatAcquire), None) == FaultAction::Yield {
            std::thread::yield_now();
        }
        if !queued && self.try_acquire(me, n).is_some() {
            return Ok(());
        }
        let mut first_block = true;
        loop {
            {
                let mut queues = self.lock_queues();
                // FIFO on first arrival; a thread that was woken but lost
                // the race to a barger goes back to the front so it cannot
                // starve behind newcomers.
                if first_block {
                    queues.enqueue_entry_back(me);
                    first_block = false;
                } else {
                    queues.enqueue_entry_front(me);
                }
                // Publish QUEUED, then retry the CAS before parking. The
                // owner's release CAS either came first, and the retry
                // finds the word unowned, or fails on QUEUED and sends the
                // owner to `release_queued`, which must wait for this
                // mutex and so wakes the front only after we enqueued.
                self.sync_queued(&queues);
                if self.try_acquire(me, n).is_some() {
                    queues.remove_from_entry(me);
                    self.sync_queued(&queues);
                    return Ok(());
                }
            }
            let timeout = match deadline.map(time_left) {
                None => None,
                Some(Some(left)) => Some(left),
                Some(None) => return self.abandon_entry(me, registry),
            };
            // An injected spurious wakeup drives the woken-but-lost-race
            // requeue-to-front path above.
            park(
                record,
                SchedPoint::FatPark,
                InjectionPoint::FatPark,
                timeout,
                hooks,
            );
        }
    }

    /// Removes a timed-out acquirer from the entry queue. If the monitor
    /// was released and the unlocker's wake went to *us* (we were the
    /// front), that wake must be handed to the new front, or the threads
    /// still queued behind us would sleep forever.
    fn abandon_entry(&self, me: ThreadIndex, registry: &ThreadRegistry) -> SyncResult<()> {
        let wake = {
            let mut queues = self.lock_queues();
            queues.remove_from_entry(me);
            self.sync_queued(&queues);
            // An owner seen here has not released yet; its release finds
            // QUEUED set if anyone is left and wakes the front itself.
            if self.state.load(Ordering::Acquire) & OWNER_MASK == 0 {
                queues.front_of_entry()
            } else {
                None
            }
        };
        wake_thread(wake, registry);
        Err(SyncError::Timeout)
    }

    /// Force-releases everything a dead (deregistered) thread left behind
    /// in this monitor: its entry-queue and wait-set entries are purged,
    /// and if it still owned the monitor the ownership is cleared and the
    /// next queued thread woken. Returns `true` if ownership was
    /// reclaimed.
    ///
    /// Called by the registry exit sweep while `dead`'s index is in limbo
    /// (slot cleared, not yet recyclable), so no live thread can hold it.
    pub fn reclaim_orphan(&self, dead: ThreadIndex, registry: &ThreadRegistry) -> bool {
        let (reclaimed, wake) = {
            let mut queues = self.lock_queues();
            queues.remove_from_entry(dead);
            queues.wait_set.retain(|e| e.thread != dead);
            self.sync_queued(&queues);
            let word = self.state.load(Ordering::Acquire);
            if word & OWNER_MASK == owner_bits(dead) {
                // The dead owner no longer writes the word and we hold the
                // mutex, so the store cannot lose an update; Release pairs
                // with the next acquirer's CAS.
                self.state.store(word & QUEUED, Ordering::Release);
                (true, queues.front_of_entry())
            } else {
                (false, None)
            }
        };
        wake_thread(wake, registry);
        reclaimed
    }

    /// Releases one nesting level of the monitor.
    ///
    /// # Errors
    ///
    /// [`SyncError::NotOwner`] if another thread owns the monitor;
    /// [`SyncError::NotLocked`] if nobody does.
    pub fn unlock(&self, t: ThreadToken, registry: &ThreadRegistry) -> SyncResult<()> {
        let me = t.index();
        // Relaxed: the owner reads back its own writes, and a non-owner
        // only needs some value to report its error from.
        let word = self.state.load(Ordering::Relaxed);
        check_owner(word, me)?;
        if word_count(word) > 1 {
            // A nested release stays owned, so it publishes nothing.
            self.state.fetch_sub(1 << COUNT_SHIFT, Ordering::Relaxed);
        } else {
            self.release(held_by(me, 1), registry);
        }
        Ok(())
    }

    /// Java `Object.wait([timeout])`: atomically releases the monitor
    /// (all levels), sleeps until notified / timed out / interrupted, then
    /// re-acquires the monitor to the saved depth before returning.
    /// `hooks` is consulted at every park ([`SchedPoint::WaitPark`] /
    /// [`InjectionPoint::WaitPark`]) and by the re-acquisition, as in
    /// [`lock`](FatLock::lock).
    ///
    /// # Errors
    ///
    /// * [`SyncError::NotOwner`] / [`SyncError::NotLocked`] if `t` does not
    ///   own the monitor.
    /// * [`SyncError::Interrupted`] if the thread's interrupt flag was set
    ///   while waiting (the flag is consumed; the monitor is re-acquired
    ///   first, as in Java). If a notification had already moved the thread
    ///   to the entry queue, the notification wins and the interrupt flag
    ///   stays pending.
    pub fn wait(
        &self,
        t: ThreadToken,
        registry: &ThreadRegistry,
        timeout: Option<Duration>,
        hooks: &dyn Hooks,
    ) -> SyncResult<WaitOutcome> {
        let me = t.index();
        let record = registry.record(me)?;
        let flag = Arc::new(WaitFlag::default());
        let deadline = timeout.map(|d| Instant::now() + d);

        // Enqueue on the wait set *then* release the monitor, both in one
        // critical section: a notifier must own the monitor, so it cannot
        // run between our two steps. We own the word and hold the mutex,
        // so a plain store releases it; it keeps QUEUED, which the wait
        // set now needs, and its Release pairs with the next acquirer.
        let saved_depth = {
            let mut queues = self.lock_queues();
            let word = self.state.load(Ordering::Relaxed);
            check_owner(word, me)?;
            queues.wait_set.push_back(WaitEntry {
                thread: me,
                flag: Arc::clone(&flag),
            });
            self.state.store(QUEUED, Ordering::Release);
            let wake = queues.front_of_entry();
            drop(queues);
            wake_thread(wake, registry);
            word_count(word)
        };

        // Sleep until one of the three exits fires. Stale permits and
        // spurious wakeups just re-loop.
        let outcome = loop {
            if flag.notified.load(Ordering::Acquire) {
                break WaitOutcome::Notified;
            }
            if record.take_interrupt(false) {
                // The notification takes precedence over the interrupt.
                if !self.leave_wait_set(me, &flag) {
                    break WaitOutcome::Notified;
                }
                record.take_interrupt(true);
                self.acquire(me, saved_depth, &record, None, true, registry, hooks)?;
                return Err(SyncError::Interrupted);
            }
            let timeout = match deadline.map(time_left) {
                None => None,
                Some(Some(left)) => Some(left),
                Some(None) => {
                    if !self.leave_wait_set(me, &flag) {
                        break WaitOutcome::Notified;
                    }
                    self.acquire(me, saved_depth, &record, None, true, registry, hooks)?;
                    return Ok(WaitOutcome::TimedOut);
                }
            };
            // A skipped or spurious park re-runs the notified and
            // interrupt checks, exactly as a real spurious wakeup does.
            park(
                &record,
                SchedPoint::WaitPark,
                InjectionPoint::WaitPark,
                timeout,
                hooks,
            );
        };

        // Notified: our entry is already on the entry queue; re-acquire.
        self.acquire(me, saved_depth, &record, None, true, registry, hooks)?;
        Ok(outcome)
    }

    /// Moves a waiter that stops waiting, by timeout or interrupt, from
    /// the wait set to the entry queue, unless a notify already did and
    /// `flag` says so, in which case it returns `false`. The move is one
    /// critical section, so QUEUED stays set across it: a thread leaving
    /// `wait` must never be in *neither* queue, or a deflating backend's
    /// quiescence check could pass while this thread is about to
    /// re-acquire a monitor that no longer backs its object.
    fn leave_wait_set(&self, me: ThreadIndex, flag: &WaitFlag) -> bool {
        let mut queues = self.lock_queues();
        if flag.notified.load(Ordering::Acquire) {
            return false;
        }
        queues.wait_set.retain(|e| e.thread != me);
        queues.enqueue_entry_back(me);
        true
    }

    /// Java `Object.notify()`: moves one waiter (FIFO) from the wait set
    /// to the entry queue. The waiter runs only after the monitor is
    /// released.
    ///
    /// # Errors
    ///
    /// [`SyncError::NotOwner`] / [`SyncError::NotLocked`] if `t` does not
    /// own the monitor.
    pub fn notify(&self, t: ThreadToken) -> SyncResult<()> {
        self.notify_waiters(t, 1)
    }

    /// Java `Object.notifyAll()`: moves every waiter to the entry queue.
    ///
    /// # Errors
    ///
    /// [`SyncError::NotOwner`] / [`SyncError::NotLocked`] if `t` does not
    /// own the monitor.
    pub fn notify_all(&self, t: ThreadToken) -> SyncResult<()> {
        self.notify_waiters(t, usize::MAX)
    }

    /// Moves up to `max` waiters, FIFO, to the back of the entry queue.
    ///
    /// With QUEUED clear the owner takes no mutex: only an owner adds to
    /// the wait set, and a waiter leaves it for the entry queue in one
    /// critical section that keeps QUEUED set, so a clear bit means
    /// nobody is waiting until this owner waits itself. The load is
    /// Acquire to pair with the Release store of the `wait` that set the
    /// bit, though any waiter that set it also handed the monitor to us
    /// through a release our acquire already synchronized with.
    fn notify_waiters(&self, t: ThreadToken, max: usize) -> SyncResult<()> {
        let me = t.index();
        let word = self.state.load(Ordering::Acquire);
        check_owner(word, me)?;
        if word & QUEUED == 0 {
            return Ok(());
        }
        let mut queues = self.lock_queues();
        for _ in 0..max {
            let Some(entry) = queues.wait_set.pop_front() else {
                break;
            };
            entry.flag.notified.store(true, Ordering::Release);
            queues.enqueue_entry_back(entry.thread);
        }
        Ok(())
    }

    /// The current owner, if any: one Acquire load of the state word.
    #[inline]
    pub fn owner(&self) -> Option<ThreadIndex> {
        word_owner(self.state.load(Ordering::Acquire))
    }

    /// The current nested lock count (0 when unowned). Unlike the thin
    /// encoding this is the number of locks, not locks − 1 (Figure 2).
    #[inline]
    pub fn count(&self) -> u32 {
        word_count(self.state.load(Ordering::Acquire))
    }

    /// True if `t` owns the monitor. `#[inline]` (with [`Self::owner`]
    /// and [`Self::count`]) so ownership checks on the cross-crate fat
    /// path compile down to one load of the state word and a compare.
    #[inline]
    pub fn holds(&self, t: ThreadToken) -> bool {
        self.state.load(Ordering::Acquire) & OWNER_MASK == owner_bits(t.index())
    }

    /// True iff `t` owns the monitor exactly once and both the entry
    /// queue and the wait set are empty — the deflation precondition of a
    /// Compact-Java-Monitors backend (BACKENDS.md).
    ///
    /// One Acquire load: the word must read (`t`, 1) with QUEUED clear,
    /// and QUEUED covers both queues. Three separate
    /// `count`/`entry_queue_len`/`wait_set_len` reads would not do: a
    /// timed-out waiter migrates from the wait set to the entry queue
    /// without owning the monitor, and could slip between two of the
    /// reads, letting a release deflate a monitor that still has a thread
    /// inside it. The migration is one critical section in
    /// [`wait`](FatLock::wait) that keeps QUEUED set, and the wait set can
    /// only *grow* under ownership, so a `true` answer given to the owner
    /// stays deflation-safe until the owner releases: only fresh
    /// entry-queue racers can arrive, and those revalidate the lock word
    /// after acquiring.
    #[inline]
    pub fn is_sole_quiescent_owner(&self, t: ThreadToken) -> bool {
        self.state.load(Ordering::Acquire) == held_by(t.index(), 1)
    }

    /// A snapshot of the monitor: the state word and both queue lengths,
    /// read under a single hold of the queue mutex, so the queue lengths
    /// agree with each other and with QUEUED. Owner and count can still
    /// move under a concurrent CAS; like every [`MonitorProbe`], the
    /// snapshot is exact only at a quiescent point.
    pub fn probe(&self) -> MonitorProbe {
        let queues = self.lock_queues();
        let word = self.state.load(Ordering::Acquire);
        MonitorProbe {
            owner: word_owner(word),
            count: word_count(word),
            entry_queue_len: queues.entry_queue.len(),
            wait_set_len: queues.wait_set.len(),
        }
    }

    /// Number of threads blocked on entry (diagnostics).
    pub fn entry_queue_len(&self) -> usize {
        self.lock_queues().entry_queue.len()
    }

    /// Number of threads in the wait set (diagnostics).
    pub fn wait_set_len(&self) -> usize {
        self.lock_queues().wait_set.len()
    }
}

/// Parks the thread of `record` at `point` until it is unparked, or for
/// at most `timeout`. An untimed park is the site of both `point` and
/// `fault`: a serializing schedule holds the thread there and answers
/// SkipPark when it resumes it, so the park never happens and the
/// caller's re-check is the thread's next step. A timed park carries
/// only `fault`. An injected spurious wakeup skips the park too, which is
/// all a real one shows the caller's loop.
fn park(
    record: &ThreadRecord,
    point: SchedPoint,
    fault: InjectionPoint,
    timeout: Option<Duration>,
    hooks: &dyn Hooks,
) {
    let site = match timeout {
        None => Site::both(point, fault),
        Some(_) => Site::fault(fault),
    };
    match hooks.before(site, None) {
        FaultAction::SpuriousWake => return,
        FaultAction::Yield => std::thread::yield_now(),
        _ => {}
    }
    match timeout {
        None => record.parker().park(),
        Some(left) => {
            record.parker().park_timeout(left);
        }
    }
}

/// The time left until `deadline`, or `None` once it has passed.
fn time_left(deadline: Instant) -> Option<Duration> {
    deadline
        .checked_duration_since(Instant::now())
        .filter(|d| !d.is_zero())
}

/// Unparks `next`, the front of an entry queue. A stale token here means
/// the queued thread already exited; its queue entry is gone with it, so
/// the wake is skipped.
fn wake_thread(next: Option<ThreadIndex>, registry: &ThreadRegistry) {
    if let Some(rec) = next.and_then(|t| registry.record(t).ok()) {
        rec.parker().unpark();
    }
}

impl fmt::Display for FatLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = self.probe();
        match p.owner {
            Some(o) => write!(
                f,
                "fat-lock(owner={o}, count={}, entryq={}, waiters={})",
                p.count, p.entry_queue_len, p.wait_set_len
            ),
            None => write!(
                f,
                "fat-lock(free, entryq={}, waiters={})",
                p.entry_queue_len, p.wait_set_len
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;
    use thinlock_runtime::fault::FaultInjector;
    use thinlock_runtime::heap::ObjRef;
    use thinlock_runtime::hooks::{HookSet, NoHooks};
    use thinlock_runtime::schedule::{SchedAction, Schedule};

    fn setup() -> (Arc<FatLock>, ThreadRegistry) {
        (Arc::new(FatLock::new()), ThreadRegistry::new())
    }

    #[test]
    fn reentrant_lock_unlock() {
        let (lock, reg) = setup();
        let r = reg.register().unwrap();
        let t = r.token();
        lock.lock(t, &reg, &NoHooks).unwrap();
        lock.lock(t, &reg, &NoHooks).unwrap();
        assert_eq!(lock.count(), 2);
        assert!(lock.holds(t));
        lock.unlock(t, &reg).unwrap();
        assert_eq!(lock.count(), 1);
        lock.unlock(t, &reg).unwrap();
        assert_eq!(lock.owner(), None);
        assert_eq!(lock.unlock(t, &reg), Err(SyncError::NotLocked));
        assert_queued_invariant(&lock);
    }

    #[test]
    fn new_owned_transfers_thin_state() {
        let reg = ThreadRegistry::new();
        let r = reg.register().unwrap();
        let t = r.token();
        let lock = FatLock::new_owned(t, 3);
        assert!(lock.holds(t));
        assert_eq!(lock.count(), 3);
        for _ in 0..3 {
            lock.unlock(t, &reg).unwrap();
        }
        assert_eq!(lock.owner(), None);
        assert_queued_invariant(&lock);
    }

    #[test]
    #[should_panic(expected = "positive count")]
    fn new_owned_rejects_zero() {
        let reg = ThreadRegistry::new();
        let r = reg.register().unwrap();
        let _ = FatLock::new_owned(r.token(), 0);
    }

    #[test]
    fn unlock_by_non_owner_rejected() {
        let (lock, reg) = setup();
        let ra = reg.register().unwrap();
        let rb = reg.register().unwrap();
        lock.lock(ra.token(), &reg, &NoHooks).unwrap();
        assert_eq!(lock.unlock(rb.token(), &reg), Err(SyncError::NotOwner));
        assert_eq!(lock.notify(rb.token()), Err(SyncError::NotOwner));
        assert_eq!(lock.notify_all(rb.token()), Err(SyncError::NotOwner));
        lock.unlock(ra.token(), &reg).unwrap();
        assert_queued_invariant(&lock);
    }

    #[test]
    fn wait_requires_ownership() {
        let (lock, reg) = setup();
        let r = reg.register().unwrap();
        assert_eq!(
            lock.wait(r.token(), &reg, None, &NoHooks).unwrap_err(),
            SyncError::NotLocked
        );
        assert_queued_invariant(&lock);
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let (lock, reg) = setup();
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        const THREADS: usize = 4;
        const ITERS: u64 = 200;
        for _ in 0..THREADS {
            let lock = Arc::clone(&lock);
            let reg = reg.clone();
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                let r = reg.register().unwrap();
                let t = r.token();
                for _ in 0..ITERS {
                    lock.lock(t, &reg, &NoHooks).unwrap();
                    // Non-atomic-looking RMW under the lock.
                    let v = counter.load(Ordering::Relaxed);
                    thread::yield_now();
                    counter.store(v + 1, Ordering::Relaxed);
                    lock.unlock(t, &reg).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), THREADS as u64 * ITERS);
        assert_eq!(lock.owner(), None);
        assert_eq!(lock.entry_queue_len(), 0);
        assert_queued_invariant(&lock);
    }

    #[test]
    fn wait_notify_rendezvous() {
        let (lock, reg) = setup();
        let flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let waiter = {
            let lock = Arc::clone(&lock);
            let reg = reg.clone();
            let flag = Arc::clone(&flag);
            thread::spawn(move || {
                let r = reg.register().unwrap();
                let t = r.token();
                lock.lock(t, &reg, &NoHooks).unwrap();
                while !flag.load(Ordering::Relaxed) {
                    let out = lock.wait(t, &reg, None, &NoHooks).unwrap();
                    assert_eq!(out, WaitOutcome::Notified);
                }
                assert!(lock.holds(t), "monitor re-acquired after wait");
                lock.unlock(t, &reg).unwrap();
                true
            })
        };
        // Give the waiter time to park.
        while lock.wait_set_len() == 0 {
            thread::yield_now();
        }
        let r = reg.register().unwrap();
        let t = r.token();
        lock.lock(t, &reg, &NoHooks).unwrap();
        flag.store(true, Ordering::Relaxed);
        lock.notify(t).unwrap();
        assert_eq!(lock.wait_set_len(), 0);
        assert_eq!(lock.entry_queue_len(), 1, "waiter moved to entry queue");
        lock.unlock(t, &reg).unwrap();
        assert!(waiter.join().unwrap());
        assert_queued_invariant(&lock);
    }

    #[test]
    fn notify_all_wakes_every_waiter() {
        let (lock, reg) = setup();
        const WAITERS: usize = 3;
        let mut handles = Vec::new();
        for _ in 0..WAITERS {
            let lock = Arc::clone(&lock);
            let reg = reg.clone();
            handles.push(thread::spawn(move || {
                let r = reg.register().unwrap();
                let t = r.token();
                lock.lock(t, &reg, &NoHooks).unwrap();
                let out = lock.wait(t, &reg, None, &NoHooks).unwrap();
                lock.unlock(t, &reg).unwrap();
                out
            }));
        }
        while lock.wait_set_len() < WAITERS {
            thread::yield_now();
        }
        let r = reg.register().unwrap();
        let t = r.token();
        lock.lock(t, &reg, &NoHooks).unwrap();
        lock.notify_all(t).unwrap();
        lock.unlock(t, &reg).unwrap();
        for h in handles {
            assert_eq!(h.join().unwrap(), WaitOutcome::Notified);
        }
        assert_queued_invariant(&lock);
    }

    #[test]
    fn notify_with_empty_wait_set_is_noop() {
        let (lock, reg) = setup();
        let r = reg.register().unwrap();
        let t = r.token();
        lock.lock(t, &reg, &NoHooks).unwrap();
        lock.notify(t).unwrap();
        lock.notify_all(t).unwrap();
        lock.unlock(t, &reg).unwrap();
        assert_queued_invariant(&lock);
    }

    #[test]
    fn wait_timeout_expires_and_reacquires() {
        let (lock, reg) = setup();
        let r = reg.register().unwrap();
        let t = r.token();
        lock.lock(t, &reg, &NoHooks).unwrap();
        lock.lock(t, &reg, &NoHooks).unwrap(); // depth 2
        let start = Instant::now();
        let out = lock
            .wait(t, &reg, Some(Duration::from_millis(40)), &NoHooks)
            .unwrap();
        assert_eq!(out, WaitOutcome::TimedOut);
        assert!(start.elapsed() >= Duration::from_millis(35));
        assert_eq!(lock.count(), 2, "nesting depth restored");
        assert_eq!(lock.wait_set_len(), 0, "timed-out waiter removed");
        lock.unlock(t, &reg).unwrap();
        lock.unlock(t, &reg).unwrap();
        assert_queued_invariant(&lock);
    }

    #[test]
    fn wait_preserves_deep_nesting() {
        let (lock, reg) = setup();
        let notifier = {
            let lock = Arc::clone(&lock);
            let reg = reg.clone();
            thread::spawn(move || {
                let r = reg.register().unwrap();
                let t = r.token();
                while lock.wait_set_len() == 0 {
                    thread::yield_now();
                }
                lock.lock(t, &reg, &NoHooks).unwrap();
                lock.notify(t).unwrap();
                lock.unlock(t, &reg).unwrap();
            })
        };
        let r = reg.register().unwrap();
        let t = r.token();
        for _ in 0..5 {
            lock.lock(t, &reg, &NoHooks).unwrap();
        }
        assert_eq!(lock.count(), 5);
        lock.wait(t, &reg, None, &NoHooks).unwrap();
        assert_eq!(lock.count(), 5, "wait restored all five levels");
        for _ in 0..5 {
            lock.unlock(t, &reg).unwrap();
        }
        notifier.join().unwrap();
        assert_queued_invariant(&lock);
    }

    #[test]
    fn interrupt_during_wait_surfaces_after_reacquire() {
        let (lock, reg) = setup();
        let waiter = {
            let lock = Arc::clone(&lock);
            let reg = reg.clone();
            thread::spawn(move || {
                let r = reg.register().unwrap();
                let t = r.token();
                lock.lock(t, &reg, &NoHooks).unwrap();
                let err = lock.wait(t, &reg, None, &NoHooks).unwrap_err();
                assert!(lock.holds(t), "monitor held when interrupt surfaces");
                lock.unlock(t, &reg).unwrap();
                (err, t.index())
            })
        };
        while lock.wait_set_len() == 0 {
            thread::yield_now();
        }
        // Find the waiter's index by peeking at the registry: interrupt all
        // registered indices (only the waiter is live besides none here).
        // Simpler: waiter is the only registered thread.
        for raw in 1..=4 {
            if let Ok(idx) = thinlock_runtime::lockword::ThreadIndex::new(raw) {
                let _ = reg.interrupt(idx);
            }
        }
        let (err, _) = waiter.join().unwrap();
        assert_eq!(err, SyncError::Interrupted);
        assert_eq!(lock.wait_set_len(), 0);
        assert_queued_invariant(&lock);
    }

    #[test]
    fn display_shows_state() {
        let (lock, reg) = setup();
        assert!(lock.to_string().contains("free"));
        let r = reg.register().unwrap();
        lock.lock(r.token(), &reg, &NoHooks).unwrap();
        assert!(lock.to_string().contains("owner="));
        assert_queued_invariant(&lock);
    }

    #[test]
    fn try_lock_non_blocking_semantics() {
        let (lock, reg) = setup();
        let ra = reg.register().unwrap();
        let rb = reg.register().unwrap();
        assert!(lock.try_lock(ra.token()));
        assert!(lock.try_lock(ra.token()), "re-entrant try succeeds");
        assert_eq!(lock.count(), 2);
        assert!(!lock.try_lock(rb.token()));
        assert_eq!(lock.entry_queue_len(), 0, "failed try leaves no trace");
        lock.unlock(ra.token(), &reg).unwrap();
        lock.unlock(ra.token(), &reg).unwrap();
        assert!(lock.try_lock(rb.token()));
        lock.unlock(rb.token(), &reg).unwrap();
        assert_queued_invariant(&lock);
    }

    #[test]
    fn lock_deadline_times_out_and_leaves_queue_clean() {
        let (lock, reg) = setup();
        let ra = reg.register().unwrap();
        let rb = reg.register().unwrap();
        lock.lock(ra.token(), &reg, &NoHooks).unwrap();
        let start = Instant::now();
        let err = lock
            .lock_n_deadline(
                rb.token(),
                1,
                &reg,
                Instant::now() + Duration::from_millis(30),
                &NoHooks,
            )
            .unwrap_err();
        assert_eq!(err, SyncError::Timeout);
        assert!(start.elapsed() >= Duration::from_millis(25));
        assert_eq!(lock.entry_queue_len(), 0, "timed-out acquirer dequeued");
        assert!(!lock.holds(rb.token()));
        lock.unlock(ra.token(), &reg).unwrap();
        assert_queued_invariant(&lock);
    }

    #[test]
    fn timed_out_front_hands_wake_to_next_queued_thread() {
        // a owns; b (timed) and c (untimed) queue behind. b times out at
        // the worst moment — the handoff must still reach c.
        let (lock, reg) = setup();
        let ra = reg.register().unwrap();
        lock.lock(ra.token(), &reg, &NoHooks).unwrap();
        let b = {
            let lock = Arc::clone(&lock);
            let reg = reg.clone();
            thread::spawn(move || {
                let r = reg.register().unwrap();
                lock.lock_n_deadline(
                    r.token(),
                    1,
                    &reg,
                    Instant::now() + Duration::from_millis(40),
                    &NoHooks,
                )
            })
        };
        while lock.entry_queue_len() < 1 {
            thread::yield_now();
        }
        let c = {
            let lock = Arc::clone(&lock);
            let reg = reg.clone();
            thread::spawn(move || {
                let r = reg.register().unwrap();
                let t = r.token();
                lock.lock(t, &reg, &NoHooks).unwrap();
                let held = lock.holds(t);
                lock.unlock(t, &reg).unwrap();
                held
            })
        };
        while lock.entry_queue_len() < 2 {
            thread::yield_now();
        }
        assert_eq!(b.join().unwrap(), Err(SyncError::Timeout));
        // Release only after b has timed out, so the wake b received (or
        // would have received) must be forwarded for c to ever run.
        lock.unlock(ra.token(), &reg).unwrap();
        assert!(c.join().unwrap(), "c acquired after b's timeout");
        assert_eq!(lock.owner(), None);
        assert_eq!(lock.entry_queue_len(), 0);
        assert_queued_invariant(&lock);
    }

    #[test]
    fn deadline_acquisition_prefers_lock_over_timeout() {
        let (lock, reg) = setup();
        let r = reg.register().unwrap();
        let t = r.token();
        // Free monitor: acquires immediately even with an expired deadline.
        lock.lock_n_deadline(
            t,
            3,
            &reg,
            Instant::now() - Duration::from_millis(1),
            &NoHooks,
        )
        .unwrap();
        assert_eq!(lock.count(), 3);
        for _ in 0..3 {
            lock.unlock(t, &reg).unwrap();
        }
        assert_eq!(lock.owner(), None);
        assert_queued_invariant(&lock);
    }

    #[test]
    fn reclaim_orphan_releases_dead_owner_and_wakes_next() {
        let (lock, reg) = setup();
        let ra = reg.register().unwrap();
        let ta = ra.token();
        lock.lock(ta, &reg, &NoHooks).unwrap();
        lock.lock(ta, &reg, &NoHooks).unwrap();
        let waiter = {
            let lock = Arc::clone(&lock);
            let reg = reg.clone();
            thread::spawn(move || {
                let r = reg.register().unwrap();
                let t = r.token();
                lock.lock(t, &reg, &NoHooks).unwrap();
                let held = lock.holds(t);
                lock.unlock(t, &reg).unwrap();
                held
            })
        };
        while lock.entry_queue_len() == 0 {
            thread::yield_now();
        }
        // Simulate thread death: release the registration without
        // unlocking (forget the RAII drop order problem — reclaim is
        // driven explicitly here; the registry-driven path is tested at
        // the core layer).
        let dead = ta.index();
        drop(ra);
        assert!(lock.reclaim_orphan(dead, &reg), "ownership reclaimed");
        assert!(waiter.join().unwrap(), "queued thread acquired after sweep");
        assert_eq!(lock.owner(), None);
        assert_queued_invariant(&lock);
    }

    #[test]
    fn reclaim_orphan_purges_queues_of_non_owner() {
        let (lock, reg) = setup();
        let ra = reg.register().unwrap();
        lock.lock(ra.token(), &reg, &NoHooks).unwrap();
        // A dead thread that was only queued, never owning.
        let rb = reg.register().unwrap();
        let dead = rb.token().index();
        {
            let mut queues = lock.lock_queues();
            queues.enqueue_entry_back(dead);
            lock.sync_queued(&queues);
        }
        drop(rb);
        assert!(!lock.reclaim_orphan(dead, &reg), "no ownership to reclaim");
        assert_eq!(lock.entry_queue_len(), 0, "dead entry purged");
        lock.unlock(ra.token(), &reg).unwrap();
        assert_queued_invariant(&lock);
    }

    #[test]
    fn quiescence_snapshot_tracks_owner_count_and_queues() {
        let (lock, reg) = setup();
        let ra = reg.register().unwrap();
        let ta = ra.token();
        assert!(
            !lock.is_sole_quiescent_owner(ta),
            "unowned is not quiescent"
        );
        lock.lock(ta, &reg, &NoHooks).unwrap();
        assert!(lock.is_sole_quiescent_owner(ta));
        lock.lock(ta, &reg, &NoHooks).unwrap();
        assert!(!lock.is_sole_quiescent_owner(ta), "nested count blocks");
        lock.unlock(ta, &reg).unwrap();
        let rb = reg.register().unwrap();
        assert!(!lock.is_sole_quiescent_owner(rb.token()), "non-owner");
        // A queued contender blocks quiescence.
        {
            let mut queues = lock.lock_queues();
            queues.enqueue_entry_back(rb.token().index());
            lock.sync_queued(&queues);
        }
        assert!(!lock.is_sole_quiescent_owner(ta), "entry queue blocks");
        {
            let mut queues = lock.lock_queues();
            queues.remove_from_entry(rb.token().index());
            lock.sync_queued(&queues);
        }
        assert!(lock.is_sole_quiescent_owner(ta));
        lock.unlock(ta, &reg).unwrap();
        assert_queued_invariant(&lock);
    }

    #[test]
    fn timed_out_waiter_is_never_in_neither_queue() {
        // A waiter whose timeout expires must migrate wait set → entry
        // queue atomically; the monitor must never observe it absent from
        // both while it is still logically inside `wait`.
        let (lock, reg) = setup();
        let waiter = {
            let lock = Arc::clone(&lock);
            let reg = reg.clone();
            thread::spawn(move || {
                let r = reg.register().unwrap();
                let t = r.token();
                lock.lock(t, &reg, &NoHooks).unwrap();
                let out = lock
                    .wait(t, &reg, Some(Duration::from_millis(20)), &NoHooks)
                    .unwrap();
                assert!(lock.holds(t), "monitor re-acquired after timeout");
                lock.unlock(t, &reg).unwrap();
                out
            })
        };
        // While holding the monitor ourselves for the whole expiry window,
        // the waiter can time out but must land in the entry queue — it can
        // never re-acquire (we own), and the atomic migration means the
        // quiescence snapshot stays false throughout.
        while lock.wait_set_len() == 0 {
            thread::yield_now();
        }
        let r = reg.register().unwrap();
        let t = r.token();
        lock.lock(t, &reg, &NoHooks).unwrap();
        let deadline = Instant::now() + Duration::from_millis(120);
        while lock.wait_set_len() > 0 && Instant::now() < deadline {
            assert!(
                !lock.is_sole_quiescent_owner(t),
                "waiter visible in a queue at every instant"
            );
            thread::yield_now();
        }
        // Timed out by now: the waiter sits in the entry queue.
        assert!(!lock.is_sole_quiescent_owner(t));
        lock.unlock(t, &reg).unwrap();
        assert_eq!(waiter.join().unwrap(), WaitOutcome::TimedOut);
        assert_queued_invariant(&lock);
    }

    #[test]
    fn poisoned_inner_mutex_recovers() {
        let (lock, reg) = setup();
        let r = reg.register().unwrap();
        let t = r.token();
        lock.lock(t, &reg, &NoHooks).unwrap();
        // Poison the queue mutex by panicking while holding it.
        let lock2 = Arc::clone(&lock);
        let _ = thread::spawn(move || {
            let _guard = lock2.queues.lock().unwrap();
            panic!("poison the monitor");
        })
        .join();
        assert!(lock.queues.is_poisoned(), "mutex really was poisoned");
        // Every entry point still works.
        assert!(lock.holds(t));
        assert_eq!(lock.count(), 1);
        lock.lock(t, &reg, &NoHooks).unwrap();
        lock.notify(t).unwrap();
        lock.unlock(t, &reg).unwrap();
        lock.unlock(t, &reg).unwrap();
        assert_eq!(lock.owner(), None);
        assert_queued_invariant(&lock);
    }

    #[test]
    fn spurious_wake_injection_still_acquires() {
        use std::sync::atomic::AtomicU32;

        /// Spuriously wakes the first `budget` parks at FatPark.
        #[derive(Debug)]
        struct Spurious(AtomicU32);
        impl FaultInjector for Spurious {
            fn decide(&self, point: InjectionPoint) -> FaultAction {
                if point == InjectionPoint::FatPark
                    && self
                        .0
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                        .is_ok()
                {
                    FaultAction::SpuriousWake
                } else {
                    FaultAction::Proceed
                }
            }
        }

        let (lock, reg) = setup();
        let hooks = Arc::new(HookSet::new().fault_injector(Arc::new(Spurious(AtomicU32::new(50)))));
        let ra = reg.register().unwrap();
        lock.lock(ra.token(), &reg, &NoHooks).unwrap();
        let contender = {
            let lock = Arc::clone(&lock);
            let reg = reg.clone();
            thread::spawn(move || {
                let r = reg.register().unwrap();
                let t = r.token();
                lock.lock(t, &reg, &*hooks).unwrap();
                let held = lock.holds(t);
                lock.unlock(t, &reg).unwrap();
                held
            })
        };
        while lock.entry_queue_len() == 0 {
            thread::yield_now();
        }
        lock.unlock(ra.token(), &reg).unwrap();
        assert!(contender.join().unwrap());
        assert_queued_invariant(&lock);
    }

    /// How long a test waits on a channel before calling a wake lost.
    const GUARD: Duration = Duration::from_secs(10);

    /// Holds the first thread to reach `point`: tells the test it
    /// arrived, then waits for the test's go before letting it park.
    struct HoldFirst {
        point: SchedPoint,
        taken: AtomicBool,
        arrived: Mutex<mpsc::Sender<()>>,
        go: Mutex<mpsc::Receiver<()>>,
    }

    impl HoldFirst {
        /// The schedule, the receiver of its arrival and the sender of
        /// its go.
        fn at(point: SchedPoint) -> (Arc<Self>, mpsc::Receiver<()>, mpsc::Sender<()>) {
            let (arrived, arrival) = mpsc::channel();
            let (go_tx, go) = mpsc::channel();
            let hold = HoldFirst {
                point,
                taken: AtomicBool::new(false),
                arrived: Mutex::new(arrived),
                go: Mutex::new(go),
            };
            (Arc::new(hold), arrival, go_tx)
        }
    }

    impl Schedule for HoldFirst {
        fn reached(&self, point: SchedPoint, _: Option<ObjRef>) -> SchedAction {
            if point == self.point && !self.taken.swap(true, Ordering::Relaxed) {
                self.arrived.lock().unwrap().send(()).unwrap();
                let _ = self.go.lock().unwrap().recv_timeout(GUARD);
            }
            SchedAction::Proceed
        }
    }

    fn queued_bit(lock: &FatLock) -> bool {
        lock.state.load(Ordering::Relaxed) & QUEUED != 0
    }

    /// QUEUED is set exactly when a queue is non-empty. Holds whenever
    /// no thread is inside the queue mutex, which the callers ensure.
    fn assert_queued_invariant(lock: &FatLock) {
        let queues = lock.lock_queues();
        assert_eq!(
            queued_bit(lock),
            queues.any_queued(),
            "QUEUED out of step with {queues:?}"
        );
    }

    #[test]
    fn release_wakes_an_arrival_held_at_its_park() {
        let (lock, reg) = setup();
        let (hold, arrival, go) = HoldFirst::at(SchedPoint::FatPark);
        let hooks = HookSet::new().schedule(hold);
        let ra = reg.register().unwrap();
        lock.lock(ra.token(), &reg, &NoHooks).unwrap();
        let (acquired_tx, acquired) = mpsc::channel();
        let contender = {
            let lock = Arc::clone(&lock);
            let reg = reg.clone();
            thread::spawn(move || {
                let r = reg.register().unwrap();
                let t = r.token();
                lock.lock(t, &reg, &hooks).unwrap();
                acquired_tx.send(lock.holds(t)).unwrap();
                lock.unlock(t, &reg).unwrap();
            })
        };
        arrival
            .recv_timeout(GUARD)
            .expect("contender reached FatPark");
        // By its park point the contender has enqueued and published
        // QUEUED, so the owner's release CAS fails over to the queue path.
        assert_eq!(lock.entry_queue_len(), 1);
        assert!(queued_bit(&lock), "QUEUED published before the park");
        lock.unlock(ra.token(), &reg).unwrap();
        go.send(()).unwrap();
        let held = acquired
            .recv_timeout(GUARD)
            .expect("release against a parked arrival lost its wake");
        assert!(held);
        contender.join().unwrap();
        assert_eq!(lock.owner(), None);
        assert_queued_invariant(&lock);
    }

    #[test]
    fn notify_and_release_wake_a_waiter_held_at_its_park() {
        let (lock, reg) = setup();
        let (hold, arrival, go) = HoldFirst::at(SchedPoint::WaitPark);
        let hooks = HookSet::new().schedule(hold);
        let (acquired_tx, acquired) = mpsc::channel();
        let waiter = {
            let lock = Arc::clone(&lock);
            let reg = reg.clone();
            thread::spawn(move || {
                let r = reg.register().unwrap();
                let t = r.token();
                lock.lock(t, &reg, &hooks).unwrap();
                let out = lock.wait(t, &reg, None, &hooks);
                acquired_tx.send((out, lock.holds(t))).unwrap();
                lock.unlock(t, &reg).unwrap();
            })
        };
        arrival
            .recv_timeout(GUARD)
            .expect("waiter reached WaitPark");
        assert_eq!(lock.wait_set_len(), 1);
        assert!(queued_bit(&lock), "a waiter keeps QUEUED set");
        let r = reg.register().unwrap();
        let t = r.token();
        // The released word kept QUEUED; the CAS from unowned keeps it.
        lock.lock(t, &reg, &NoHooks).unwrap();
        lock.notify(t).unwrap();
        assert_eq!(lock.entry_queue_len(), 1, "waiter moved to entry queue");
        lock.unlock(t, &reg).unwrap();
        go.send(()).unwrap();
        let (out, held) = acquired
            .recv_timeout(GUARD)
            .expect("notify and release lost the waiter's wake");
        assert_eq!(out, Ok(WaitOutcome::Notified));
        assert!(held, "monitor re-acquired after wait");
        waiter.join().unwrap();
        assert_eq!(lock.owner(), None);
        assert_queued_invariant(&lock);
    }

    #[test]
    fn release_racing_an_arrival_never_strands_it() {
        // Every round the owner releases as soon as it sees the contender
        // inside the queue mutex, give or take a seeded few spins, so many
        // releases land between the contender's failed CAS and its
        // QUEUED. The contender must acquire in every round.
        const ROUNDS: u32 = 5_000;
        let (lock, reg) = setup();
        let ra = reg.register().unwrap();
        let start = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let (done_tx, done) = mpsc::channel();
        let contender = {
            let lock = Arc::clone(&lock);
            let reg = reg.clone();
            let start = Arc::clone(&start);
            thread::spawn(move || {
                let r = reg.register().unwrap();
                let t = r.token();
                for round in 1..=ROUNDS {
                    while start.load(Ordering::Acquire) < round {
                        std::hint::spin_loop();
                    }
                    lock.lock(t, &reg, &NoHooks).unwrap();
                    lock.unlock(t, &reg).unwrap();
                    done_tx.send(round).unwrap();
                }
            })
        };
        let mut rng = thinlock_runtime::prng::Prng::seed_from_u64(15);
        for round in 1..=ROUNDS {
            lock.lock(ra.token(), &reg, &NoHooks).unwrap();
            start.store(round, Ordering::Release);
            // Bounded: the contender may slip through the mutex unseen.
            for _ in 0..10_000 {
                if lock.queues.try_lock().is_err() {
                    break;
                }
            }
            for _ in 0..rng.range_u32(0, 4) {
                std::hint::spin_loop();
            }
            lock.unlock(ra.token(), &reg).unwrap();
            let finished = done
                .recv_timeout(GUARD)
                .expect("a release racing an arrival stranded it");
            assert_eq!(finished, round);
        }
        contender.join().unwrap();
        assert_eq!(lock.owner(), None);
        assert_queued_invariant(&lock);
    }

    #[test]
    fn notify_without_waiters_reads_only_the_word() {
        let (lock, reg) = setup();
        let r = reg.register().unwrap();
        let t = r.token();
        lock.lock(t, &reg, &NoHooks).unwrap();
        // The test holds the queue mutex throughout: a notify that asked
        // for it would deadlock here.
        let _queues = lock.lock_queues();
        lock.notify(t).unwrap();
        lock.notify_all(t).unwrap();
        assert!(lock.holds(t));
        assert_eq!(lock.count(), 1);
        assert!(lock.is_sole_quiescent_owner(t));
    }

    #[test]
    fn fat_lock_is_80_bytes() {
        // `lock_bytes_peak` counts every live monitor at this size: the
        // state word, the queue mutex and its two queues, and nothing
        // else — instrumentation reaches a monitor only as an argument.
        let size = std::mem::size_of::<FatLock>();
        assert_eq!(size, 80, "FatLock is {size} B");
    }
}
