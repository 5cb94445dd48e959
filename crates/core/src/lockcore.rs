//! The thin-word core every backend shares.
//!
//! The paper's protocol is one lock word with one CAS lock, one store
//! unlock and one XOR nested path (Section 2.3). Compact Java Monitors
//! and Fissile/Hapax locks keep that word bit-identical and change only
//! what happens on contention and release. [`LockCore`] therefore owns
//! everything that does not depend on that choice: the heap, registry
//! and instrumentation hook, the fast and nested paths, owner
//! inflation and hints, `try_lock`/`lock_deadline`, `wait`/`notify`,
//! the waits-for guard and the orphan sweep, and the one
//! [`MonitorTable`] with the gauges counted from it. A [`Policy`] adds
//! only its contention and release rule:
//!
//! | policy | contention | release |
//! |---|---|---|
//! | [`Thin`](crate::thin::Thin) | spin, acquire, inflate; on a fat word spin, then park | store |
//! | [`Cjm`](crate::cjm::Cjm) | spin, acquire, inflate; on a fat word spin, then park | store; deflate when quiescent |
//! | [`Fissile`](crate::fissile::Fissile) | spin, then FIFO tickets; on a fat word spin, then park | retire ticket, store, re-cohere |
//! | [`Hapax`](crate::hapax::Hapax) | FIFO tickets; on a fat word spin, then park | retire ticket, store |
//!
//! The spin on a fat word is the busy phase of the thin path's backoff
//! ([`Backoff::in_busy_phase`]): at most six retries of the monitor's
//! word CAS, none under `YieldOnly`, before the monitor's queue and park.
//!
//! The policy is a type parameter, so every backend monomorphizes to its
//! own lock path with no dynamic dispatch. Policy methods a policy leaves
//! at their defaults are constants the optimizer folds away: thin and CJM
//! never touch a ticket ledger or a mode byte.
//!
//! The instrumentation [`Hooks`] are a type parameter too. The default,
//! [`NoHooks`], is zero-sized and inlines to nothing, so an
//! uninstrumented lock is the paper's CAS and its release the paper's
//! store with no seam branch; [`LockCore::with_hooks`] attaches the
//! dynamic [`HookSet`] the harnesses use (DESIGN.md §22).

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use thinlock_monitor::{FatLock, MonitorTable};
use thinlock_runtime::arch::{ArchProfile, LockWordCell};
use thinlock_runtime::backend::{MonitorProbe, SyncBackend};
use thinlock_runtime::backoff::Backoff;
use thinlock_runtime::error::{SyncError, SyncResult};
use thinlock_runtime::events::{TraceEventKind, TraceSink};
use thinlock_runtime::fault::{FaultAction, InjectionPoint};
use thinlock_runtime::heap::{Heap, ObjRef};
use thinlock_runtime::hooks::{HookSet, Hooks, NoHooks, Site};
use thinlock_runtime::lockword::{LockWord, MonitorIndex, ThreadIndex, MAX_THIN_COUNT};
use thinlock_runtime::protocol::{SyncProtocol, WaitOutcome};
use thinlock_runtime::registry::{ExitSweeper, ThreadRecord, ThreadRegistry, ThreadToken};
use thinlock_runtime::schedule::SchedPoint;
use thinlock_runtime::stats::InflationCause;

use crate::config::{DynamicConfig, FastPathConfig, UnlockStrategy};
use crate::ticket::TicketLedger;

/// The event of a fat acquisition that reached `depth`: re-entry is
/// nesting, as on the thin path, and only a first acquisition is an
/// `AcquireFat`, `contended` if it queued behind another owner.
#[inline]
fn fat_acquired(depth: u32, contended: bool) -> TraceEventKind {
    if depth > 1 {
        TraceEventKind::AcquireNested { depth }
    } else {
        TraceEventKind::AcquireFat { contended }
    }
}

/// A backend's contention and release rule over [`LockCore`]. Every hook
/// has the thin protocol's answer as its default.
pub trait Policy: Send + Sync + Sized + 'static {
    /// The name [`SyncProtocol::name`] reports.
    const NAME: &'static str;

    /// The backend's type name, for `Debug`.
    const TYPE_NAME: &'static str;

    /// Whether a fat word can return to the neutral shape — picks the
    /// model checker's invariant set (one-way inflation or deflation
    /// safety) and compiles in the revalidation of fat acquisitions.
    const DEFLATES: bool = false;

    /// Spin rounds a thin contender tolerates before it calls
    /// [`Policy::fission`]; `None` spins until the word is released.
    const FISSION_BUDGET: Option<u64> = None;

    /// The FIFO ticket ledger of a policy that answers contention with
    /// a queue instead of inflation. Such a policy announces
    /// [`SchedPoint::LockFast`] before every fat acquisition, because it
    /// can reach the monitor without passing the fast path.
    fn tickets(&self) -> Option<&TicketLedger> {
        None
    }

    /// The ledger that blocking acquisitions of `obj` must queue on right
    /// now, if any; the thin fast path is skipped while it is `Some`.
    fn queue(&self, obj: ObjRef) -> Option<&TicketLedger> {
        let _ = obj;
        None
    }

    /// Sends later lockers of `obj` to the queue: the spin budget ran out.
    fn fission(&self, obj: ObjRef) {
        let _ = obj;
    }

    /// A release retired the ticketed hand-off of `obj` and cleared its
    /// word.
    fn retired(&self, obj: ObjRef) {
        let _ = obj;
    }

    /// Pins `obj` into FIFO admission ([`SyncProtocol::pin_fifo_hint`]).
    fn pin(&self, obj: ObjRef) -> bool {
        let _ = obj;
        false
    }

    /// Releases the fat lock `t` holds through monitor `idx` when the
    /// policy does so differently; `None` falls through to the plain
    /// monitor release.
    fn release_fat<C: FastPathConfig, H: Hooks>(
        core: &LockCore<Self, C, H>,
        obj: ObjRef,
        t: ThreadToken,
        idx: MonitorIndex,
        monitor: &FatLock,
    ) -> Option<SyncResult<()>> {
        let _ = (core, obj, t, idx, monitor);
        None
    }
}

/// The thin-lock protocol with a pluggable contention policy.
///
/// Generic over [`FastPathConfig`] so the Figure 6 variants monomorphize
/// to distinct fast paths; the default is the paper's shipped
/// configuration (runtime architecture test, store unlock). The backends
/// are the aliases [`ThinLocks`](crate::ThinLocks),
/// [`CjmLocks`](crate::CjmLocks), [`FissileLocks`](crate::FissileLocks)
/// and [`HapaxLocks`](crate::HapaxLocks). Generic over [`Hooks`] too:
/// the aliases use [`NoHooks`], and [`with_hooks`](LockCore::with_hooks)
/// returns the instrumented instantiation.
pub struct LockCore<P: Policy, C: FastPathConfig = DynamicConfig, H: Hooks = NoHooks> {
    pub(crate) heap: Arc<Heap>,
    pub(crate) registry: ThreadRegistry,
    pub(crate) monitors: Arc<MonitorTable>,
    pub(crate) policy: Arc<P>,
    pub(crate) config: C,
    hooks: H,
}

impl<P: Policy, C: FastPathConfig> LockCore<P, C> {
    /// A backend over `heap` and `registry` whose monitor table holds
    /// `monitors` slots.
    pub(crate) fn from_parts(
        heap: Arc<Heap>,
        registry: ThreadRegistry,
        policy: P,
        config: C,
        monitors: usize,
    ) -> Self {
        LockCore {
            heap,
            registry,
            monitors: Arc::new(MonitorTable::with_capacity(monitors)),
            policy: Arc::new(policy),
            config,
            hooks: NoHooks,
        }
    }

    /// Attaches the instrumentation hook: the protocol consults `hooks`
    /// before every labeled step (each [`Site`] carries its
    /// [`SchedPoint`], its [`InjectionPoint`] or both) and tells it about
    /// every transition after the fact (acquire, unlock, inflation with
    /// its cause, deflation, wait/notify, monitor allocation). The same
    /// hook reaches the monitor layer's park points, the heap's
    /// allocations and the orphan sweep, so one hook covers the whole
    /// stack.
    ///
    /// A serializing schedule — the `thinlock-modelcheck` crate — blocks
    /// the calling thread inside [`Hooks::before`] to own the
    /// interleaving. Timed paths (`try_lock`, `lock_deadline`) carry no
    /// schedule points: the model checker only drives the untimed
    /// operations.
    #[must_use]
    pub fn with_hooks(self, hooks: HookSet) -> LockCore<P, C, Arc<HookSet>> {
        let hooks = Arc::new(hooks);
        self.heap.set_hooks(Arc::clone(&hooks) as Arc<dyn Hooks>);
        LockCore {
            heap: self.heap,
            registry: self.registry,
            monitors: self.monitors,
            policy: self.policy,
            config: self.config,
            hooks,
        }
    }
}

impl<P: Policy, C: FastPathConfig, H: Hooks + Clone + 'static> LockCore<P, C, H> {
    /// Installs the orphaned-lock sweeper on this protocol's registry:
    /// when a [`Registration`](thinlock_runtime::registry::Registration)
    /// drops while its thread still owns thin or fat locks, the sweep
    /// force-releases them (and retires a dead owner's ticketed hand-off)
    /// *before* the 15-bit index becomes reusable, so a recycled index
    /// can never be mistaken for the dead owner (stale-owner ABA).
    ///
    /// Call after [`with_hooks`](LockCore::with_hooks) so the sweeper
    /// inherits the hook. The sweep is a full heap scan — linear in heap
    /// capacity, paid once per thread exit.
    #[must_use]
    pub fn with_orphan_recovery(self) -> Self {
        self.enable_orphan_recovery();
        self
    }

    /// Non-consuming form of [`LockCore::with_orphan_recovery`] for
    /// protocols already behind an `Arc`. Replaces any previously
    /// installed sweeper.
    pub fn enable_orphan_recovery(&self) {
        self.registry.set_exit_sweeper(Arc::new(OrphanSweeper {
            heap: Arc::clone(&self.heap),
            monitors: Arc::clone(&self.monitors),
            policy: Arc::clone(&self.policy),
            hooks: self.hooks.clone(),
            profile: self.config.profile(),
        }));
    }
}

impl<P: Policy, C: FastPathConfig, H: Hooks> LockCore<P, C, H> {
    /// The fast-path configuration.
    pub fn config(&self) -> &C {
        &self.config
    }

    /// The raw lock word of `obj` — diagnostics and tests.
    pub fn lock_word(&self, obj: ObjRef) -> LockWord {
        self.cell(obj).load_relaxed()
    }

    /// The fat monitor currently backing `obj`, if its word is fat — a
    /// diagnostics/model-checking probe pairing with
    /// [`LockCore::lock_word`].
    pub fn monitor_for(&self, obj: ObjRef) -> Option<&FatLock> {
        let word = self.cell(obj).load_acquire();
        if word.is_fat() {
            self.monitor_of(word).map(|(_, m)| m)
        } else {
            None
        }
    }

    #[inline]
    pub(crate) fn cell(&self, obj: ObjRef) -> &LockWordCell {
        self.heap.header(obj).lock_word()
    }

    /// Tells the hook that `t` produced `kind` on `obj`.
    #[inline]
    pub(crate) fn emit(&self, t: ThreadToken, obj: ObjRef, kind: TraceEventKind) {
        self.hooks.after(Some(t.index()), Some(obj), kind);
    }

    /// A site with only a schedule point. Word-level points ignore the
    /// answer: SkipPark only applies at the monitor-layer park points.
    #[inline]
    pub(crate) fn reach(&self, point: SchedPoint, obj: ObjRef) {
        let _ = self.hooks.before(Site::sched(point), Some(obj));
    }

    /// A site whose only fault is descheduling the caller.
    #[inline]
    pub(crate) fn yield_point(&self, site: Site, obj: ObjRef) {
        if self.hooks.before(site, Some(obj)) == FaultAction::Yield {
            std::thread::yield_now();
        }
    }

    /// A site guarding a CAS: `false` if the CAS must fail.
    #[inline]
    fn cas_allowed(&self, site: Site, obj: ObjRef) -> bool {
        match self.hooks.before(site, Some(obj)) {
            FaultAction::FailCas => false,
            FaultAction::Yield => {
                std::thread::yield_now();
                true
            }
            _ => true,
        }
    }

    /// Installs a monitor for `obj` under the core's hook
    /// ([`MonitorTable::install`]).
    fn install(&self, obj: ObjRef, owner: Option<(ThreadToken, u32)>) -> SyncResult<MonitorIndex> {
        self.monitors
            .install(obj, owner, &self.registry, &self.hooks)
    }

    /// Resolves the fat lock of an inflated word. A deflating policy may
    /// have freed the slot already; callers revalidate after acquiring.
    fn monitor_of(&self, word: LockWord) -> Option<(MonitorIndex, &FatLock)> {
        let idx = word.monitor_index()?;
        Some((idx, self.monitors.get(idx)?))
    }

    /// Whether a fresh (depth-1) acquisition of monitor `idx`, reached
    /// through `word`, still stands for `obj`: the word still carries the
    /// index *and* the slot is still bound to `obj`. Evaluated while
    /// holding the monitor, so a `true` answer cannot be invalidated
    /// concurrently — deflation requires sole ownership. Only deflation
    /// can leave a fat word's index stale, so under a one-way policy this
    /// is the constant `true`.
    #[inline]
    pub(crate) fn stands(&self, obj: ObjRef, word: LockWord, idx: MonitorIndex) -> bool {
        !P::DEFLATES
            || (self.cell(obj).load_acquire() == word && self.monitors.binding(idx) == Some(obj))
    }

    /// Owner-only inflation: the calling thread holds the thin lock with
    /// `locks` acquisitions and replaces it with a fat monitor owned the
    /// same number of times. The release store publishes the monitor's
    /// contents along with the new word.
    fn inflate_owned(
        &self,
        obj: ObjRef,
        t: ThreadToken,
        locks: u32,
        cause: InflationCause,
    ) -> SyncResult<&FatLock> {
        // Deschedule between deciding to inflate and publishing the fat
        // word — the window in which other threads still spin.
        self.yield_point(
            Site::both(SchedPoint::Inflate, InjectionPoint::Inflate),
            obj,
        );
        let idx = self.install(obj, Some((t, locks)))?;
        let cell = self.cell(obj);
        let current = cell.load_relaxed();
        debug_assert_eq!(
            current.thin_owner().map(ThreadIndex::get),
            Some(t.index().get())
        );
        cell.store_release(current.inflated(idx));
        self.emit(t, obj, TraceEventKind::Inflated { cause });
        Ok(self.monitors.get(idx).expect("installed monitor resolves"))
    }

    /// The 257th acquisition: the caller holds the thin lock at the
    /// maximum count, so the count moves into a fat monitor.
    fn inflate_overflow(&self, obj: ObjRef, t: ThreadToken, word: LockWord) -> SyncResult<()> {
        debug_assert_eq!(u32::from(word.thin_count()), MAX_THIN_COUNT);
        let locks = u32::from(word.thin_count()) + 2; // held + this one
        self.emit(t, obj, TraceEventKind::AcquireNested { depth: locks });
        self.inflate_owned(obj, t, locks, InflationCause::CountOverflow)?;
        Ok(())
    }

    /// The complete lock algorithm. `#[inline]` so that with a static
    /// config the fast path compiles to the paper's handful of
    /// instructions at each call site.
    #[inline]
    fn lock_impl(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        let cell = self.cell(obj);

        // Scenario 1 — locking an unlocked object. Build the old value by
        // masking the loaded word, OR in the pre-shifted thread index, CAS.
        // The CAS is issued only where it can win: a fat word, or one this
        // thread already holds thin, fails without the locked instruction
        // (DESIGN.md §23). Skipped while the policy routes lockers to its
        // queue.
        let fast = self.policy.queue(obj).is_none();
        if fast {
            let old = cell.load_relaxed().with_lock_field_clear();
            let site = Site::both(SchedPoint::LockFast, InjectionPoint::LockFastCas);
            if self.cas_allowed(site, obj)
                && cell
                    .try_acquire(old, t.shifted(), self.config.profile())
                    .is_ok()
            {
                self.emit(t, obj, TraceEventKind::AcquireUnlocked);
                return Ok(());
            }
        }

        // Scenario 2 — nested locking by this thread: XOR + compare, then
        // an ADD of 1<<8 written with a plain store.
        let word = cell.load_relaxed();
        if word.can_nest(t.shifted()) {
            self.reach(SchedPoint::LockNest, obj);
            cell.store_relaxed(word.with_count_incremented());
            let depth = u32::from(word.thin_count()) + 2;
            self.emit(t, obj, TraceEventKind::AcquireNested { depth });
            return Ok(());
        }

        self.lock_slow(obj, t, word, fast)
    }

    /// Slow path: inflated locks, count overflow, and contention.
    /// `announced` says whether this acquisition already passed the fast
    /// path's [`SchedPoint::LockFast`].
    #[inline(never)]
    fn lock_slow(
        &self,
        obj: ObjRef,
        t: ThreadToken,
        mut word: LockWord,
        announced: bool,
    ) -> SyncResult<()> {
        let cell = self.cell(obj);
        // Jittered per-thread backoff (runtime::backoff): spinners that
        // collided in lockstep draw distinct pulse sequences, seeded by
        // the thread index so seeded replays stay deterministic.
        let mut backoff = Backoff::jittered(self.config.spin_policy(), u64::from(t.index().get()));
        let mut spun = false;
        // Advisory waits-for edge for the deadlock watchdog; published on
        // the first blocking step, cleared when the guard drops.
        let mut waiting = BlockedOnGuard(None);
        loop {
            if word.is_fat() {
                if self.lock_fat(obj, t, word, &mut waiting)? {
                    return Ok(());
                }
                word = cell.load_acquire();
                continue;
            }

            if word.is_thin_owned_by(t.shifted()) {
                return self.inflate_overflow(obj, t, word);
            }

            if let Some(tickets) = self.policy.queue(obj) {
                return self.queue_lock(obj, t, tickets, waiting, announced);
            }

            if word.is_unlocked() {
                if self.slow_cas(obj, t, word) {
                    if spun {
                        let rounds = u32::try_from(backoff.rounds()).unwrap_or(u32::MAX);
                        self.emit(
                            t,
                            obj,
                            TraceEventKind::AcquireContendedThin {
                                spin_rounds: rounds,
                            },
                        );
                        if self.policy.tickets().is_none() {
                            // Acquire then inflate so the next contender
                            // queues instead of spinning (Section 2.3.4).
                            // Post-contention inflation is an optimization,
                            // not a correctness requirement: the thin lock is
                            // already held, so a full monitor store keeps it
                            // thin and lets the next contender spin instead
                            // of failing an acquisition that has in fact
                            // succeeded.
                            match self.inflate_owned(obj, t, 1, InflationCause::Contention) {
                                Ok(_) | Err(SyncError::MonitorIndexExhausted) => {}
                                Err(e) => return Err(e),
                            }
                        }
                    } else {
                        self.emit(t, obj, TraceEventKind::AcquireUnlocked);
                    }
                    return Ok(());
                }
                word = cell.load_acquire();
                continue;
            }

            // Thin-locked by another thread: spin until released, or until
            // the policy's budget runs out and it queues instead.
            spun = true;
            waiting.publish(&self.registry, t, obj);
            if P::FISSION_BUDGET.is_some_and(|budget| backoff.rounds() >= budget) {
                self.policy.fission(obj);
                word = cell.load_acquire();
                continue;
            }
            self.yield_point(
                Site::both(SchedPoint::LockSpin, InjectionPoint::LockSpin),
                obj,
            );
            backoff.snooze();
            word = cell.load_acquire();
        }
    }

    /// Fat path: queue on the monitor `word` points at. Unowned or
    /// re-entrant acquisitions complete in one atomic operation on the
    /// monitor's state word, with no mutex and no registry traffic; a
    /// contended one spins a bounded while first, and only an acquisition
    /// that must park publishes a waits-for edge (it is the only one that
    /// can deadlock). Returns `false` if the acquisition does not stand
    /// for `obj` (revalidation under a deflating policy failed); the
    /// caller retries from a fresh word.
    #[inline]
    pub(crate) fn lock_fat(
        &self,
        obj: ObjRef,
        t: ThreadToken,
        word: LockWord,
        waiting: &mut BlockedOnGuard,
    ) -> SyncResult<bool> {
        if self.policy.tickets().is_some() {
            // The monitor's own park point carries no object; a scheduler
            // resolves it to the caller's most recent announcement, which a
            // queueing policy may not have made on this path yet.
            self.reach(SchedPoint::LockFast, obj);
        }
        let Some((idx, monitor)) = self.monitor_of(word) else {
            return Ok(false);
        };
        self.yield_point(Site::fault(InjectionPoint::FatAcquire), obj);
        let (depth, contended) = match monitor.lock_uncontended(t) {
            Some(depth) => (depth, false),
            None => (self.lock_fat_contended(obj, t, monitor, waiting)?, true),
        };
        // A re-entrant acquisition (depth > 1) needs no check: we already
        // held the monitor, so the word cannot have moved on.
        if depth == 1 && !self.stands(obj, word, idx) {
            let r = monitor.unlock(t, &self.registry);
            debug_assert!(r.is_ok());
            // Advisory spin point so a serializing scheduler regains
            // control on every retry.
            self.reach(SchedPoint::LockSpin, obj);
            return Ok(false);
        }
        self.emit(t, obj, fat_acquired(depth, contended));
        Ok(true)
    }

    /// A fat acquisition that found another owner: retries the monitor's
    /// word CAS through the busy phase of the thin path's backoff, so a
    /// brief hold is taken without a park and a wake, and only then
    /// queues and parks (DESIGN.md §28). Returns the depth reached.
    fn lock_fat_contended(
        &self,
        obj: ObjRef,
        t: ThreadToken,
        monitor: &FatLock,
        waiting: &mut BlockedOnGuard,
    ) -> SyncResult<u32> {
        let mut backoff = Backoff::jittered(self.config.spin_policy(), u64::from(t.index().get()));
        while backoff.in_busy_phase() {
            backoff.snooze();
            if let Some(depth) = monitor.lock_uncontended(t) {
                return Ok(depth);
            }
        }
        waiting.publish(&self.registry, t, obj);
        monitor.lock(t, &self.registry, &self.hooks)?;
        Ok(monitor.count())
    }

    /// A thin acquisition won after `rounds` spin rounds.
    pub(crate) fn record_thin_acquire(&self, obj: ObjRef, t: ThreadToken, rounds: u64) {
        let kind = if rounds == 0 {
            TraceEventKind::AcquireUnlocked
        } else {
            TraceEventKind::AcquireContendedThin {
                spin_rounds: u32::try_from(rounds).unwrap_or(u32::MAX),
            }
        };
        self.emit(t, obj, kind);
    }

    /// The slow-path CAS that takes an unlocked `word`.
    pub(crate) fn slow_cas(&self, obj: ObjRef, t: ThreadToken, word: LockWord) -> bool {
        let new = LockWord::from_bits(word.bits() | t.shifted());
        self.cas_allowed(
            Site::both(SchedPoint::LockSlowCas, InjectionPoint::LockSlowCas),
            obj,
        ) && self
            .cell(obj)
            .try_cas(word, new, self.config.profile())
            .is_ok()
    }

    /// The complete unlock algorithm.
    #[inline]
    fn unlock_impl(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        let profile = self.config.profile();
        let cell = self.cell(obj);
        let word = cell.load_relaxed();

        // Common case: thin, owned by us, locked exactly once. Restore the
        // header-only word with a plain store (or CAS under UnlkC&S).
        if word.is_locked_once_by(t.shifted()) {
            // A ticketed holder admits the next ticket while it still
            // holds the word, so only the holder writes the ledger.
            let retired = self.policy.tickets().is_some_and(|l| l.retire_held(obj));
            // Deschedule between deciding to release and the store:
            // owner-only writes make this window harmless, which is
            // exactly what the chaos suite checks.
            self.yield_point(
                Site::both(SchedPoint::UnlockThin, InjectionPoint::UnlockStore),
                obj,
            );
            let restored = word.with_lock_field_clear();
            match self.config.unlock_strategy() {
                UnlockStrategy::Store => cell.store_unlock(restored, profile),
                UnlockStrategy::CompareAndSwap => {
                    let r = cell.try_cas_release(word, restored, profile);
                    debug_assert!(r.is_ok(), "owner-only discipline violated");
                }
            }
            // Re-cohesion waits for the clear, so a fast-path locker it
            // lets back in finds the word free.
            if retired {
                self.policy.retired(obj);
            }
            self.emit(t, obj, TraceEventKind::UnlockThin);
            return Ok(());
        }

        // Nested unlock: decrement with a plain store.
        if word.is_thin_owned_by(t.shifted()) {
            debug_assert!(word.thin_count() > 0);
            self.reach(SchedPoint::UnlockNest, obj);
            cell.store_relaxed(word.with_count_decremented());
            self.emit(t, obj, TraceEventKind::UnlockThin);
            return Ok(());
        }

        self.unlock_slow(obj, t, word)
    }

    #[inline(never)]
    fn unlock_slow(&self, obj: ObjRef, t: ThreadToken, word: LockWord) -> SyncResult<()> {
        if word.is_fat() {
            let Some((idx, monitor)) = self.monitor_of(word) else {
                // A fat word always resolves while its owner holds it;
                // reaching here means the caller does not own the lock.
                return Err(SyncError::NotOwner);
            };
            if let Some(r) = P::release_fat(self, obj, t, idx, monitor) {
                return r;
            }
            self.reach(SchedPoint::FatUnlock, obj);
            let r = monitor.unlock(t, &self.registry);
            if r.is_ok() {
                self.emit(t, obj, TraceEventKind::UnlockFat);
            }
            return r;
        }
        if word.is_unlocked() {
            Err(SyncError::NotLocked)
        } else {
            Err(SyncError::NotOwner)
        }
    }

    /// Inflates `obj`'s lock ahead of time, before any thread holds it —
    /// the receiving end of a `lockcheck` pre-inflation hint.
    ///
    /// The paper inflates on the 257th nested acquisition, in the middle
    /// of a critical section and while holding no queue to hand off to.
    /// When static analysis proves a nest-depth bound above
    /// [`MAX_THIN_COUNT`], installing an (unowned) fat monitor up front
    /// moves that cost to program start-up: every later acquisition takes
    /// the fat path directly and the overflow transition never happens.
    /// Under a deflating policy the first quiet release undoes the hint
    /// again, which is exactly that policy's contract.
    ///
    /// Best-effort: returns `Ok(true)` if this call inflated the object,
    /// `Ok(false)` if the object was already inflated, currently thin-held
    /// (the owner must inflate; we cannot), or the installing CAS lost a
    /// race. A lost race gives its slot back
    /// ([`MonitorTable::discard`]): it is neither live nor counted as an
    /// inflation.
    ///
    /// # Errors
    ///
    /// [`SyncError::MonitorIndexExhausted`] if the monitor store is full.
    pub fn pre_inflate(&self, obj: ObjRef) -> SyncResult<bool> {
        let cell = self.cell(obj);
        let word = cell.load_relaxed();
        if !word.is_unlocked() {
            // Already fat, or thin-held by some thread (owner-only writes
            // forbid us from touching the word).
            return Ok(false);
        }
        let idx = self.install(obj, None)?;
        if cell
            .try_cas(word, word.inflated(idx), self.config.profile())
            .is_ok()
        {
            let cause = InflationCause::Hint;
            self.hooks
                .after(None, Some(obj), TraceEventKind::Inflated { cause });
            Ok(true)
        } else {
            self.monitors.discard(idx);
            Ok(false)
        }
    }

    /// Ensures `obj`'s lock is fat, inflating if the caller holds it thin.
    /// While the caller owns the resolved monitor the word cannot deflate.
    ///
    /// # Errors
    ///
    /// [`SyncError::NotOwner`]/[`SyncError::NotLocked`] if the caller does
    /// not own the monitor (required for `wait`/`notify`).
    fn require_fat(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<&FatLock> {
        let word = self.cell(obj).load_acquire();
        if word.is_fat() {
            let Some((_, monitor)) = self.monitor_of(word) else {
                return Err(SyncError::NotLocked);
            };
            if !monitor.holds(t) {
                return Err(if monitor.owner().is_some() {
                    SyncError::NotOwner
                } else {
                    SyncError::NotLocked
                });
            }
            return Ok(monitor);
        }
        if word.is_thin_owned_by(t.shifted()) {
            let locks = u32::from(word.thin_count()) + 1;
            return self.inflate_owned(obj, t, locks, InflationCause::WaitNotify);
        }
        if word.is_unlocked() {
            Err(SyncError::NotLocked)
        } else {
            Err(SyncError::NotOwner)
        }
    }

    /// One acquisition attempt with no blocking and no spinning. Returns
    /// `Ok(true)` on success (including nesting), `Ok(false)` if the lock
    /// is held by another thread. It holds no ticket: it may barge past a
    /// queue, and its release finds no hand-off to retire. The loop only
    /// absorbs words that moved on under a deflating policy.
    fn try_lock_impl(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<bool> {
        let profile = self.config.profile();
        let cell = self.cell(obj);

        let old = cell.load_relaxed().with_lock_field_clear();
        if self.cas_allowed(Site::fault(InjectionPoint::LockFastCas), obj)
            && cell.try_acquire(old, t.shifted(), profile).is_ok()
        {
            self.emit(t, obj, TraceEventKind::AcquireUnlocked);
            return Ok(true);
        }

        loop {
            let word = cell.load_relaxed();
            if word.can_nest(t.shifted()) {
                cell.store_relaxed(word.with_count_incremented());
                let depth = u32::from(word.thin_count()) + 2;
                self.emit(t, obj, TraceEventKind::AcquireNested { depth });
                return Ok(true);
            }

            if word.is_fat() {
                let Some((idx, monitor)) = self.monitor_of(word) else {
                    continue;
                };
                if !monitor.try_lock(t) {
                    return Ok(false);
                }
                let depth = monitor.count();
                if depth == 1 && !self.stands(obj, word, idx) {
                    let r = monitor.unlock(t, &self.registry);
                    debug_assert!(r.is_ok());
                    continue;
                }
                // A try never queues.
                self.emit(t, obj, fat_acquired(depth, false));
                return Ok(true);
            }

            if word.is_thin_owned_by(t.shifted()) {
                // Owner-only inflation cannot fail spuriously, so this
                // still counts as non-blocking.
                self.inflate_overflow(obj, t, word)?;
                return Ok(true);
            }

            if word.is_unlocked() {
                // The fast CAS raced with a concurrent unlock (or was
                // fault-injected away); a direct retry keeps `try_lock`
                // accurate on an object that is in fact free. Under a
                // deflating policy the word may have just deflated, so it
                // is classified again.
                let new = LockWord::from_bits(word.bits() | t.shifted());
                if cell.try_cas(word, new, profile).is_ok() {
                    self.emit(t, obj, TraceEventKind::AcquireUnlocked);
                    return Ok(true);
                }
                if P::DEFLATES {
                    continue;
                }
            }
            return Ok(false);
        }
    }

    /// Deadline-bounded acquisition: spins with capped backoff on a thin
    /// contended lock, parks with a timeout on a fat one, and never takes
    /// a ticket.
    ///
    /// Unlike the untimed path, giving up on a thin lock never inflates —
    /// a timed-out acquisition must leave no trace.
    fn lock_deadline_impl(&self, obj: ObjRef, t: ThreadToken, timeout: Duration) -> SyncResult<()> {
        if self.try_lock_impl(obj, t)? {
            return Ok(());
        }
        let now = Instant::now();
        let deadline = now
            .checked_add(timeout)
            .unwrap_or_else(|| now + Duration::from_secs(86_400 * 365));
        let mut waiting = BlockedOnGuard(None);
        waiting.publish(&self.registry, t, obj);
        let mut backoff = Backoff::jittered(self.config.spin_policy(), u64::from(t.index().get()));
        loop {
            let word = self.cell(obj).load_acquire();
            if word.is_fat() {
                let Some((idx, monitor)) = self.monitor_of(word) else {
                    continue;
                };
                let contended = monitor.owner().is_some();
                match monitor.lock_n_deadline(t, 1, &self.registry, deadline, &self.hooks) {
                    Ok(()) => {
                        let depth = monitor.count();
                        if depth == 1 && !self.stands(obj, word, idx) {
                            let r = monitor.unlock(t, &self.registry);
                            debug_assert!(r.is_ok());
                            if Instant::now() >= deadline {
                                return self.deadline_expired(obj, t);
                            }
                            continue;
                        }
                        self.emit(t, obj, fat_acquired(depth, contended));
                        return Ok(());
                    }
                    Err(SyncError::Timeout) => return self.deadline_expired(obj, t),
                    Err(e) => return Err(e),
                }
            }
            if self.try_lock_impl(obj, t)? {
                return Ok(());
            }
            // Acquisition is preferred over punctuality: the deadline is
            // only checked after a failed attempt.
            if Instant::now() >= deadline {
                return self.deadline_expired(obj, t);
            }
            self.yield_point(Site::fault(InjectionPoint::LockSpin), obj);
            backoff.snooze();
        }
    }

    /// A timed acquisition gave up: distinguish "slow owner" from "no
    /// owner will ever come" by walking the waits-for graph from here.
    fn deadline_expired(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        self.emit(t, obj, TraceEventKind::AcquireTimedOut);
        if let Some(report) = crate::watchdog::confirm_cycle(self, t.index(), obj) {
            let threads = u32::try_from(report.threads.len()).unwrap_or(u32::MAX);
            self.emit(t, obj, TraceEventKind::DeadlockDetected { threads });
            return Err(SyncError::DeadlockDetected);
        }
        Err(SyncError::Timeout)
    }
}

/// RAII publication of a thread's waits-for edge ([`ThreadRecord`]
/// `blocked_on`): set on the first blocking step, cleared on drop so every
/// exit path — acquisition, timeout, error — retracts the edge.
pub(crate) struct BlockedOnGuard(Option<Arc<ThreadRecord>>);

impl BlockedOnGuard {
    #[inline]
    pub(crate) fn publish(&mut self, registry: &ThreadRegistry, t: ThreadToken, obj: ObjRef) {
        if self.0.is_none() {
            if let Ok(record) = registry.record(t.index()) {
                record.set_blocked_on(Some(obj));
                self.0 = Some(record);
            }
        }
    }
}

impl Drop for BlockedOnGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(record) = &self.0 {
            record.set_blocked_on(None);
        }
    }
}

/// The registry exit sweep: force-releases every lock a dead thread left
/// behind, while its index is still in limbo (slot cleared, not yet
/// recyclable) so no live thread can be mistaken for the dead owner. A
/// queueing policy also retires the dead owner's ticketed hand-off, so
/// the threads queued behind it keep draining. A reclaimed fat monitor
/// stays installed (unowned) for the next release to handle.
struct OrphanSweeper<P, H> {
    heap: Arc<Heap>,
    monitors: Arc<MonitorTable>,
    policy: Arc<P>,
    hooks: H,
    profile: ArchProfile,
}

impl<P: Policy, H: Hooks + 'static> ExitSweeper for OrphanSweeper<P, H> {
    fn sweep_thread(&self, dead: ThreadIndex, registry: &ThreadRegistry) {
        let site = Site::fault(InjectionPoint::RegistryRelease);
        if self.hooks.before(site, None) == FaultAction::Yield {
            std::thread::yield_now();
        }
        let tickets = self.policy.tickets();
        if let Some(tickets) = tickets {
            tickets.clear_wait_index(dead);
        }
        for obj in self.heap.iter() {
            let cell = self.heap.header(obj).lock_word();
            let word = cell.load_acquire();
            let fat = word.is_fat();
            let reclaimed = if fat {
                word.monitor_index()
                    .and_then(|idx| self.monitors.get(idx))
                    .is_some_and(|monitor| monitor.reclaim_orphan(dead, registry))
            } else if word.thin_owner() == Some(dead) {
                // Release for the dead holder, as its unlock would: retire
                // its hand-off while the word still names it, then clear.
                // The owner is gone, owner-only writes mean nothing else
                // mutates a thin-held word, and the registry sweeps an
                // index once, so the CAS cannot lose.
                let retired = tickets.is_some_and(|l| l.retire_held(obj));
                let cleared = cell
                    .try_cas(word, word.with_lock_field_clear(), self.profile)
                    .is_ok();
                if retired {
                    self.policy.retired(obj);
                }
                cleared
            } else {
                false
            };
            if reclaimed {
                self.hooks.after(
                    Some(dead),
                    Some(obj),
                    TraceEventKind::OrphanReclaimed { fat },
                );
            }
        }
    }
}

/// Outlined trampolines for the Figure 6 "FnCall" variant.
mod outlined {
    use super::*;

    #[inline(never)]
    pub(super) fn lock<P: Policy, C: FastPathConfig, H: Hooks>(
        this: &LockCore<P, C, H>,
        obj: ObjRef,
        t: ThreadToken,
    ) -> SyncResult<()> {
        this.lock_impl(obj, t)
    }

    #[inline(never)]
    pub(super) fn unlock<P: Policy, C: FastPathConfig, H: Hooks>(
        this: &LockCore<P, C, H>,
        obj: ObjRef,
        t: ThreadToken,
    ) -> SyncResult<()> {
        this.unlock_impl(obj, t)
    }
}

impl<P: Policy, C: FastPathConfig, H: Hooks> SyncProtocol for LockCore<P, C, H> {
    #[inline]
    fn lock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        if self.config.outlined() {
            outlined::lock(self, obj, t)
        } else {
            self.lock_impl(obj, t)
        }
    }

    #[inline]
    fn unlock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        if self.config.outlined() {
            outlined::unlock(self, obj, t)
        } else {
            self.unlock_impl(obj, t)
        }
    }

    fn try_lock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<bool> {
        let acquired = self.try_lock_impl(obj, t)?;
        if !acquired {
            self.emit(t, obj, TraceEventKind::AcquireTimedOut);
        }
        Ok(acquired)
    }

    fn lock_deadline(&self, obj: ObjRef, t: ThreadToken, timeout: Duration) -> SyncResult<()> {
        self.lock_deadline_impl(obj, t, timeout)
    }

    fn wait(
        &self,
        obj: ObjRef,
        t: ThreadToken,
        timeout: Option<Duration>,
    ) -> SyncResult<WaitOutcome> {
        let monitor = self.require_fat(obj, t)?;
        self.emit(t, obj, TraceEventKind::Wait);
        // While we sit in the wait set (and later the entry queue) the
        // monitor can never look quiescent, so a deflating policy keeps
        // the word fat until we have re-acquired and released it.
        monitor.wait(t, &self.registry, timeout, &self.hooks)
    }

    fn notify(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        let monitor = self.require_fat(obj, t)?;
        self.emit(t, obj, TraceEventKind::Notify);
        self.reach(SchedPoint::Notify, obj);
        monitor.notify(t)
    }

    fn notify_all(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        let monitor = self.require_fat(obj, t)?;
        self.emit(t, obj, TraceEventKind::Notify);
        self.reach(SchedPoint::Notify, obj);
        monitor.notify_all(t)
    }

    fn holds_lock(&self, obj: ObjRef, t: ThreadToken) -> bool {
        let word = self.cell(obj).load_acquire();
        if word.is_fat() {
            self.monitor_of(word).is_some_and(|(_, m)| m.holds(t))
        } else {
            word.is_thin_owned_by(t.shifted())
        }
    }

    fn pre_inflate_hint(&self, obj: ObjRef) -> bool {
        let applied = self.pre_inflate(obj).unwrap_or(false);
        self.hooks
            .after(None, Some(obj), TraceEventKind::PreInflateHint { applied });
        applied
    }

    fn pin_fifo_hint(&self, obj: ObjRef) -> bool {
        self.policy.pin(obj)
    }

    fn trace_sink(&self) -> Option<&dyn TraceSink> {
        self.hooks.trace_sink()
    }

    fn heap(&self) -> &Heap {
        &self.heap
    }

    fn registry(&self) -> &ThreadRegistry {
        &self.registry
    }

    fn name(&self) -> &'static str {
        P::NAME
    }
}

impl<P: Policy, C: FastPathConfig, H: Hooks> SyncBackend for LockCore<P, C, H> {
    fn monitor_probe(&self, obj: ObjRef) -> Option<MonitorProbe> {
        self.monitor_for(obj).map(FatLock::probe)
    }

    fn in_wait_set(&self, obj: ObjRef, t: ThreadToken) -> bool {
        self.monitor_for(obj).is_some_and(|m| m.is_waiting(t))
    }

    fn spin_enabled(&self, obj: ObjRef, t: ThreadToken) -> bool {
        let word = self.probe_word(obj);
        let queued = self
            .policy
            .tickets()
            .and_then(|l| Some((l, l.waiting_ticket(t, obj)?)));
        match queued {
            // Queued: progress needs the fat shape (divert) or an
            // admitted ticket with the word free.
            Some((tickets, ticket)) => {
                word.is_fat() || (word.is_unlocked() && tickets.is_admitted(obj, ticket))
            }
            // A budgeted spinner burns budget toward fission with every
            // granted spin, so the step always makes (bounded) progress.
            None => P::FISSION_BUDGET.is_some() || word.is_unlocked() || word.is_fat(),
        }
    }

    fn deflation_capable(&self) -> bool {
        P::DEFLATES
    }

    /// Every published install is one inflation.
    fn inflation_count(&self) -> u64 {
        self.monitors.allocated()
    }

    /// A published install is either still live or was deflated. Exact
    /// whenever no inflation or deflation is in flight; 0 under a one-way
    /// policy.
    fn deflation_count(&self) -> u64 {
        let live = self.monitors.live() as u64;
        if P::DEFLATES {
            self.monitors.allocated().saturating_sub(live)
        } else {
            0
        }
    }

    fn monitors_live(&self) -> usize {
        self.monitors.live()
    }

    fn monitors_peak(&self) -> usize {
        self.monitors.peak()
    }
}

impl<P: Policy, C: FastPathConfig, H: Hooks> fmt::Debug for LockCore<P, C, H> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct(P::TYPE_NAME)
            .field("heap", &self.heap)
            .field("inflated", &self.inflation_count())
            .field("deflated", &self.deflation_count())
            .field("config", &self.config)
            .finish()
    }
}
