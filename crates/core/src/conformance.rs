//! One conformance table for the four backends. Each test body here is
//! written once against [`LockCore`] and [`rows!`] stamps it into every
//! backend's `tests` module with that backend's constructor, so each
//! shared behaviour has one definition and one row per backend. Tests of
//! one policy's own mechanism stay with that policy.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::Duration;

use thinlock_runtime::backend::SyncBackend;
use thinlock_runtime::error::SyncError;
use thinlock_runtime::events::{TraceEventKind, TraceSink};
use thinlock_runtime::fault::{FaultAction, FaultInjector, InjectionPoint};
use thinlock_runtime::heap::ObjRef;
use thinlock_runtime::hooks::HookSet;
use thinlock_runtime::lockword::ThreadIndex;
use thinlock_runtime::protocol::{SyncProtocol, WaitOutcome};
use thinlock_runtime::stats::{LockStats, StatsSnapshot};

use crate::lockcore::{LockCore, Policy};

/// Builds a backend over a fresh heap of the given capacity.
pub(crate) type Fresh<P> = fn(usize) -> LockCore<P>;

/// Stamps every conformance test into the calling module as a `#[test]`
/// over the backend built by `$fresh`.
macro_rules! rows {
    ($fresh:expr) => {
        $crate::conformance::rows!(@each $fresh;
            lock_unlock_restores_word_exactly,
            unlock_errors_mirror_java,
            count_overflow_inflates_at_257th_lock,
            mutual_exclusion_many_threads_one_object,
            wait_notify_inflates_and_works,
            try_lock_thin_nested_and_contended,
            try_lock_on_fat_lock,
            try_lock_count_overflow_inflates_at_257th,
            lock_deadline_times_out_thin_without_inflating,
            lock_deadline_times_out_on_fat_lock,
            deadline_prefers_acquisition_over_punctuality,
            orphaned_thin_lock_is_reclaimed_on_registration_drop,
            orphaned_fat_lock_is_reclaimed_and_queue_woken,
            injected_cas_failure_routes_through_slow_path,
            monitor_allocation_is_traced_and_injected_exhaustion_consumes_no_slot,
            lost_pre_inflate_cas_gives_its_slot_back,
            counting_sink_pins_the_scenario_totals,
            failed_wait_and_notify_are_not_counted,
            pin_fifo_hint_pins_only_on_fifo_backends,
        );
    };
    (@each $fresh:expr; $($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                $crate::conformance::$name($fresh);
            }
        )*
    };
}
pub(crate) use rows;

/// A thread that takes `obj`, lets the caller run between two barrier
/// waits, then releases — the deterministic contention the timed tests
/// need.
fn hold_between_barriers<P: Policy>(
    p: &Arc<LockCore<P>>,
    obj: thinlock_runtime::heap::ObjRef,
    barrier: &Arc<Barrier>,
) -> thread::JoinHandle<()> {
    let (p, barrier) = (Arc::clone(p), Arc::clone(barrier));
    thread::spawn(move || {
        let r = p.registry().register().unwrap();
        let t = r.token();
        p.lock(obj, t).unwrap();
        barrier.wait(); // the caller starts its attempt
        barrier.wait(); // the caller is done
        p.unlock(obj, t).unwrap();
    })
}

pub(crate) fn lock_unlock_restores_word_exactly<P: Policy>(fresh: Fresh<P>) {
    let p = fresh(4);
    let r = p.registry().register().unwrap();
    let t = r.token();
    let obj = p.heap().alloc().unwrap();
    let before = p.lock_word(obj);
    p.lock(obj, t).unwrap();
    let held = p.lock_word(obj);
    assert_eq!(held.thin_owner().map(|o| o.get()), Some(t.index().get()));
    assert_eq!(held.thin_count(), 0);
    assert_eq!(held.header_bits(), before.header_bits());
    p.unlock(obj, t).unwrap();
    assert_eq!(p.lock_word(obj), before, "word restored bit-for-bit");
    assert_eq!(p.inflation_count(), 0);
}

pub(crate) fn unlock_errors_mirror_java<P: Policy>(fresh: Fresh<P>) {
    let p = fresh(4);
    let ra = p.registry().register().unwrap();
    let rb = p.registry().register().unwrap();
    let obj = p.heap().alloc().unwrap();
    assert_eq!(p.unlock(obj, ra.token()), Err(SyncError::NotLocked));
    p.lock(obj, ra.token()).unwrap();
    assert_eq!(p.unlock(obj, rb.token()), Err(SyncError::NotOwner));
    // Same through the fat shape.
    p.notify(obj, ra.token()).unwrap();
    assert_eq!(p.unlock(obj, rb.token()), Err(SyncError::NotOwner));
    p.unlock(obj, ra.token()).unwrap();
    assert_eq!(p.unlock(obj, ra.token()), Err(SyncError::NotLocked));
}

pub(crate) fn count_overflow_inflates_at_257th_lock<P: Policy>(fresh: Fresh<P>) {
    let p = fresh(4);
    let r = p.registry().register().unwrap();
    let t = r.token();
    let obj = p.heap().alloc().unwrap();
    for _ in 0..256 {
        p.lock(obj, t).unwrap();
    }
    assert!(p.lock_word(obj).is_thin_shape(), "256 locks still thin");
    assert_eq!(u32::from(p.lock_word(obj).thin_count()), 255);
    p.lock(obj, t).unwrap(); // the paper's "excessive" 257th
    assert!(p.lock_word(obj).is_fat());
    assert_eq!(p.inflation_count(), 1);
    // All 257 unlocks must succeed through the fat path.
    for _ in 0..257 {
        p.unlock(obj, t).unwrap();
    }
    assert!(!p.holds_lock(obj, t));
    // One-way inflation keeps the monitor; a deflating policy's full
    // unwind restores the neutral word.
    let deflates = p.deflation_capable();
    assert_eq!(p.lock_word(obj).is_fat(), !deflates);
    assert_eq!(p.deflation_count(), u64::from(deflates));
    assert_eq!(p.monitors_live(), usize::from(!deflates));
    // And the lock remains usable.
    p.lock(obj, t).unwrap();
    p.unlock(obj, t).unwrap();
}

pub(crate) fn mutual_exclusion_many_threads_one_object<P: Policy>(fresh: Fresh<P>) {
    let p = Arc::new(fresh(4));
    let obj = p.heap().alloc().unwrap();
    let total = Arc::new(AtomicU64::new(0));
    const THREADS: usize = 4;
    const ITERS: u64 = 300;
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let (p, total) = (Arc::clone(&p), Arc::clone(&total));
            thread::spawn(move || {
                let r = p.registry().register().unwrap();
                let t = r.token();
                for _ in 0..ITERS {
                    p.lock(obj, t).unwrap();
                    let v = total.load(Ordering::Relaxed);
                    std::hint::spin_loop();
                    total.store(v + 1, Ordering::Relaxed);
                    p.unlock(obj, t).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(total.load(Ordering::Relaxed), THREADS as u64 * ITERS);
    // Whether inflation occurred depends on the schedule, but the lock
    // must end fully released either way.
    let r = p.registry().register().unwrap();
    assert!(!p.holds_lock(obj, r.token()));
    assert!(p.monitors_peak() <= 1, "one object: at most one monitor");
}

pub(crate) fn wait_notify_inflates_and_works<P: Policy>(fresh: Fresh<P>) {
    let p = Arc::new(fresh(4));
    let obj = p.heap().alloc().unwrap();
    let waiter = {
        let p = Arc::clone(&p);
        thread::spawn(move || {
            let r = p.registry().register().unwrap();
            let t = r.token();
            p.lock(obj, t).unwrap();
            assert!(p.lock_word(obj).is_thin_shape());
            let out = p.wait(obj, t, None).unwrap(); // inflates
            assert!(p.holds_lock(obj, t));
            p.unlock(obj, t).unwrap();
            out
        })
    };
    // Wait for the inflation caused by wait().
    while !p.lock_word(obj).is_fat() {
        thread::yield_now();
    }
    let r = p.registry().register().unwrap();
    let t = r.token();
    p.lock(obj, t).unwrap();
    p.notify(obj, t).unwrap();
    p.unlock(obj, t).unwrap();
    assert_eq!(waiter.join().unwrap(), WaitOutcome::Notified);
    assert_eq!(p.inflation_count(), 1);
}

pub(crate) fn try_lock_thin_nested_and_contended<P: Policy>(fresh: Fresh<P>) {
    let p = fresh(4);
    let ra = p.registry().register().unwrap();
    let rb = p.registry().register().unwrap();
    let obj = p.heap().alloc().unwrap();
    assert_eq!(p.try_lock(obj, ra.token()), Ok(true), "uncontended");
    assert_eq!(p.try_lock(obj, ra.token()), Ok(true), "nested");
    assert_eq!(p.try_lock(obj, rb.token()), Ok(false), "held by other");
    assert!(p.lock_word(obj).is_thin_shape(), "try_lock never inflates");
    p.unlock(obj, ra.token()).unwrap();
    p.unlock(obj, ra.token()).unwrap();
    assert_eq!(p.try_lock(obj, rb.token()), Ok(true));
    p.unlock(obj, rb.token()).unwrap();
}

pub(crate) fn try_lock_on_fat_lock<P: Policy>(fresh: Fresh<P>) {
    let p = fresh(4);
    let ra = p.registry().register().unwrap();
    let rb = p.registry().register().unwrap();
    let obj = p.heap().alloc().unwrap();
    assert!(p.pre_inflate(obj).unwrap());
    assert_eq!(p.try_lock(obj, ra.token()), Ok(true));
    assert_eq!(p.try_lock(obj, ra.token()), Ok(true), "fat re-entrant");
    assert_eq!(p.try_lock(obj, rb.token()), Ok(false));
    p.unlock(obj, ra.token()).unwrap();
    p.unlock(obj, ra.token()).unwrap();
    assert_eq!(p.try_lock(obj, rb.token()), Ok(true));
    p.unlock(obj, rb.token()).unwrap();
}

/// `try_lock` at the maximum thin count: its fast CAS finds the word held
/// by the caller and leaves it to the owner-only overflow inflation.
pub(crate) fn try_lock_count_overflow_inflates_at_257th<P: Policy>(fresh: Fresh<P>) {
    let p = fresh(4);
    let r = p.registry().register().unwrap();
    let t = r.token();
    let obj = p.heap().alloc().unwrap();
    for _ in 0..256 {
        assert_eq!(p.try_lock(obj, t), Ok(true));
    }
    assert_eq!(u32::from(p.lock_word(obj).thin_count()), 255);
    assert_eq!(p.try_lock(obj, t), Ok(true), "the 257th");
    assert!(p.lock_word(obj).is_fat());
    assert_eq!(p.inflation_count(), 1);
    for _ in 0..257 {
        p.unlock(obj, t).unwrap();
    }
    assert!(!p.holds_lock(obj, t));
}

pub(crate) fn lock_deadline_times_out_thin_without_inflating<P: Policy>(fresh: Fresh<P>) {
    let p = Arc::new(fresh(4));
    let obj = p.heap().alloc().unwrap();
    let barrier = Arc::new(Barrier::new(2));
    let owner = hold_between_barriers(&p, obj, &barrier);
    let r = p.registry().register().unwrap();
    let t = r.token();
    barrier.wait();
    let err = p.lock_deadline(obj, t, Duration::from_millis(40));
    assert_eq!(err, Err(SyncError::Timeout));
    assert!(
        p.lock_word(obj).is_thin_shape(),
        "a timed-out acquisition leaves no trace"
    );
    barrier.wait();
    owner.join().unwrap();
    // And afterwards the object is acquirable within any deadline.
    p.lock_deadline(obj, t, Duration::from_secs(5)).unwrap();
    p.unlock(obj, t).unwrap();
}

pub(crate) fn lock_deadline_times_out_on_fat_lock<P: Policy>(fresh: Fresh<P>) {
    let p = Arc::new(fresh(4));
    let obj = p.heap().alloc().unwrap();
    assert!(p.pre_inflate(obj).unwrap());
    let barrier = Arc::new(Barrier::new(2));
    let owner = hold_between_barriers(&p, obj, &barrier);
    let r = p.registry().register().unwrap();
    let t = r.token();
    barrier.wait();
    assert_eq!(
        p.lock_deadline(obj, t, Duration::from_millis(40)),
        Err(SyncError::Timeout)
    );
    assert!(!p.holds_lock(obj, t));
    barrier.wait();
    owner.join().unwrap();
    p.lock_deadline(obj, t, Duration::from_secs(5)).unwrap();
    p.unlock(obj, t).unwrap();
}

pub(crate) fn deadline_prefers_acquisition_over_punctuality<P: Policy>(fresh: Fresh<P>) {
    let p = fresh(4);
    let r = p.registry().register().unwrap();
    let t = r.token();
    let obj = p.heap().alloc().unwrap();
    // A zero timeout on a free lock still acquires.
    p.lock_deadline(obj, t, Duration::ZERO).unwrap();
    assert!(p.holds_lock(obj, t));
    p.unlock(obj, t).unwrap();
}

pub(crate) fn orphaned_thin_lock_is_reclaimed_on_registration_drop<P: Policy>(fresh: Fresh<P>) {
    let p = fresh(4);
    p.enable_orphan_recovery();
    let obj = p.heap().alloc().unwrap();
    let r = p.registry().register().unwrap();
    let t = r.token();
    p.lock(obj, t).unwrap();
    p.lock(obj, t).unwrap(); // nested: count survives until the sweep
    assert!(p.lock_word(obj).is_thin_shape());
    drop(r); // thread "dies" while owning the thin lock
    assert!(
        p.lock_word(obj).is_unlocked(),
        "sweep cleared the orphaned thin lock"
    );
    // A fresh registration — which recycles the dead index — can acquire
    // the previously-orphaned object (under a queueing policy only if the
    // sweep also retired the dead owner's ticket).
    let r2 = p.registry().register().unwrap();
    assert_eq!(r2.token().index().get(), t.index().get(), "index reused");
    p.lock(obj, r2.token()).unwrap();
    assert!(p.holds_lock(obj, r2.token()));
    p.unlock(obj, r2.token()).unwrap();
}

pub(crate) fn orphaned_fat_lock_is_reclaimed_and_queue_woken<P: Policy>(fresh: Fresh<P>) {
    let p = Arc::new(fresh(4).with_orphan_recovery());
    let obj = p.heap().alloc().unwrap();
    let r = p.registry().register().unwrap();
    let t = r.token();
    p.lock(obj, t).unwrap();
    p.notify(obj, t).unwrap(); // inflates
    assert!(p.lock_word(obj).is_fat());
    let barrier = Arc::new(Barrier::new(2));
    let contender = {
        let (p, barrier) = (Arc::clone(&p), Arc::clone(&barrier));
        thread::spawn(move || {
            let r = p.registry().register().unwrap();
            let t = r.token();
            barrier.wait();
            p.lock(obj, t).unwrap(); // blocks until the sweep releases
            p.unlock(obj, t).unwrap();
        })
    };
    barrier.wait();
    thread::sleep(Duration::from_millis(30)); // let the contender park
    drop(r); // owner dies; sweep reclaims and wakes the queue
    contender.join().unwrap();
    let r2 = p.registry().register().unwrap();
    assert!(!p.holds_lock(obj, r2.token()));
}

pub(crate) fn injected_cas_failure_routes_through_slow_path<P: Policy>(fresh: Fresh<P>) {
    #[derive(Debug, Default)]
    struct FailFastCas(AtomicUsize);
    impl FaultInjector for FailFastCas {
        fn decide(&self, point: InjectionPoint) -> FaultAction {
            self.0.fetch_add(1, Ordering::Relaxed);
            if point == InjectionPoint::LockFastCas {
                FaultAction::FailCas
            } else {
                FaultAction::Proceed
            }
        }
    }

    let injector = Arc::new(FailFastCas::default());
    let p = fresh(4).with_hooks(HookSet::new().fault_injector(Arc::clone(&injector) as _));
    let r = p.registry().register().unwrap();
    let t = r.token();
    let obj = p.heap().alloc().unwrap();
    p.lock(obj, t).unwrap(); // fast CAS suppressed, slow path wins
    assert!(p.holds_lock(obj, t));
    p.unlock(obj, t).unwrap();
    assert!(p.lock_word(obj).is_unlocked());
    assert!(
        injector.0.load(Ordering::Relaxed) >= 1,
        "injector consulted"
    );
}

pub(crate) fn monitor_allocation_is_traced_and_injected_exhaustion_consumes_no_slot<P: Policy>(
    fresh: Fresh<P>,
) {
    #[derive(Debug, Default)]
    struct ExhaustOnce(AtomicBool);
    impl FaultInjector for ExhaustOnce {
        fn decide(&self, point: InjectionPoint) -> FaultAction {
            if point == InjectionPoint::MonitorAllocate && !self.0.swap(true, Ordering::Relaxed) {
                FaultAction::Exhaust
            } else {
                FaultAction::Proceed
            }
        }
    }

    #[derive(Debug, Default)]
    struct Allocations(Mutex<Vec<u32>>);
    impl TraceSink for Allocations {
        fn record(&self, _t: Option<ThreadIndex>, _o: Option<ObjRef>, kind: TraceEventKind) {
            if let TraceEventKind::MonitorAllocated { index } = kind {
                self.0.lock().unwrap().push(index);
            }
        }
    }

    // Two objects and a store sized to them: a slot lost to the injected
    // exhaustion would leave a one-way store unable to inflate both.
    let allocations = Arc::new(Allocations::default());
    let hooks = HookSet::new()
        .fault_injector(Arc::new(ExhaustOnce::default()))
        .sink(Arc::clone(&allocations) as _);
    let p = fresh(2).with_hooks(hooks);
    let r = p.registry().register().unwrap();
    let t = r.token();
    let (a, b) = (p.heap().alloc().unwrap(), p.heap().alloc().unwrap());
    p.lock(a, t).unwrap();
    assert_eq!(p.notify(a, t), Err(SyncError::MonitorIndexExhausted));
    assert!(
        p.lock_word(a).is_thin_shape(),
        "exhaustion left the word thin"
    );
    assert_eq!(
        p.inflation_count(),
        0,
        "injected exhaustion consumed no slot"
    );
    p.notify(a, t).unwrap(); // the store recovered
    p.unlock(a, t).unwrap();
    p.lock(b, t).unwrap();
    p.notify(b, t).unwrap();
    p.unlock(b, t).unwrap();
    // Each event carries the installed index: a one-way store hands out
    // a fresh slot per object, a deflating one recycles the first.
    let second = if p.deflation_capable() { 0 } else { 1 };
    assert_eq!(*allocations.0.lock().unwrap(), [0, second]);
    assert_eq!(p.inflation_count(), 2);
}

/// A thread thin-locks the object between `pre_inflate`'s install and its
/// CAS: the installed slot goes back to the table, so nothing is live or
/// counted and the next inflation reuses it. Every live monitor backs a
/// fat word at each step.
pub(crate) fn lost_pre_inflate_cas_gives_its_slot_back<P: Policy>(fresh: Fresh<P>) {
    /// Holds the first allocation at `MonitorAllocate` while the racer
    /// takes the lock: the racer waits on the barrier, locks, waits again.
    #[derive(Debug)]
    struct RaceAtInstall(AtomicBool, Barrier);
    impl FaultInjector for RaceAtInstall {
        fn decide(&self, point: InjectionPoint) -> FaultAction {
            if point == InjectionPoint::MonitorAllocate && !self.0.swap(true, Ordering::Relaxed) {
                self.1.wait();
                self.1.wait();
            }
            FaultAction::Proceed
        }
    }

    let race = Arc::new(RaceAtInstall(AtomicBool::new(false), Barrier::new(2)));
    let p = Arc::new(fresh(4).with_hooks(HookSet::new().fault_injector(Arc::clone(&race) as _)));
    let obj = p.heap().alloc().unwrap();
    let population_matches_fat_words = || {
        let fat = p.heap().iter().filter(|&o| p.lock_word(o).is_fat()).count();
        assert_eq!(
            p.monitors_live(),
            fat,
            "every live monitor backs a fat word"
        );
    };
    let done = Arc::new(Barrier::new(2));
    let racer = {
        let (p, race, done) = (Arc::clone(&p), Arc::clone(&race), Arc::clone(&done));
        thread::spawn(move || {
            let r = p.registry().register().unwrap();
            race.1.wait();
            p.lock(obj, r.token()).unwrap();
            race.1.wait();
            done.wait(); // the caller has checked the lost race
            p.unlock(obj, r.token()).unwrap();
        })
    };
    assert_eq!(p.pre_inflate(obj), Ok(false), "the installing CAS lost");
    assert!(p.lock_word(obj).is_thin_shape());
    assert_eq!(p.inflation_count(), 0, "a lost install is no inflation");
    assert_eq!(p.monitors_live(), 0, "the slot went back");
    population_matches_fat_words();
    done.wait();
    racer.join().unwrap();
    population_matches_fat_words();

    let r = p.registry().register().unwrap();
    let t = r.token();
    p.lock(obj, t).unwrap();
    p.notify(obj, t).unwrap(); // inflates
    assert_eq!(
        p.lock_word(obj).monitor_index().map(|i| i.get()),
        Some(0),
        "the next inflation reuses index 0"
    );
    assert_eq!(p.inflation_count(), 1);
    population_matches_fat_words();
    p.unlock(obj, t).unwrap();
    population_matches_fat_words();
}

pub(crate) fn counting_sink_pins_the_scenario_totals<P: Policy>(fresh: Fresh<P>) {
    let stats = Arc::new(LockStats::new());
    let p = fresh(4).with_hooks(HookSet::new().sink(Arc::clone(&stats) as _));
    let r = p.registry().register().unwrap();
    let t = r.token();
    let [a, b, c, d] = [(); 4].map(|()| p.heap().alloc().unwrap());
    // A first lock and two nested ones.
    for _ in 0..3 {
        p.lock(a, t).unwrap();
    }
    for _ in 0..3 {
        p.unlock(a, t).unwrap();
    }
    // The 257th lock overflows the count and inflates.
    for _ in 0..257 {
        p.lock(b, t).unwrap();
    }
    for _ in 0..257 {
        p.unlock(b, t).unwrap();
    }
    // A timed wait inflates, then a notify.
    p.lock(c, t).unwrap();
    let waited = p.wait(c, t, Some(Duration::from_millis(1))).unwrap();
    assert_eq!(waited, WaitOutcome::TimedOut);
    p.notify(c, t).unwrap();
    p.unlock(c, t).unwrap();
    // A pre-inflation hint.
    assert!(p.pre_inflate_hint(d));
    assert_eq!(
        stats.snapshot(),
        StatsSnapshot {
            scenario_counts: [3, 5, 253, 0, 0, 0],
            depth_histogram: [3, 2, 2, 1, 1, 1, 1, 250],
            inflations: [0, 1, 1, 1],
            unlocks_thin: 3,
            unlocks_fat: 258,
            spin_rounds: 0,
            waits: 1,
            notifies: 1,
        }
    );
}

pub(crate) fn failed_wait_and_notify_are_not_counted<P: Policy>(fresh: Fresh<P>) {
    let stats = Arc::new(LockStats::new());
    let p = fresh(4).with_hooks(HookSet::new().sink(Arc::clone(&stats) as _));
    let r = p.registry().register().unwrap();
    let t = r.token();
    let obj = p.heap().alloc().unwrap();
    assert_eq!(p.wait(obj, t, None), Err(SyncError::NotLocked));
    assert_eq!(p.notify(obj, t), Err(SyncError::NotLocked));
    assert_eq!(p.notify_all(obj, t), Err(SyncError::NotLocked));
    let snap = stats.snapshot();
    assert_eq!((snap.waits, snap.notifies), (0, 0));
}

/// `pin_fifo_hint` is the one pin entry point. Fissile and hapax honor
/// it: a pinned object is still in FIFO admission after its queue drains
/// (fissile keeps the pin until `release_fifo`, see
/// `fissile::tests::pinning_survives_queue_drain`; hapax admits every
/// object in FIFO order). Thin and cjm refuse it, and a pinned object's
/// lock word and lock/unlock events are those of an unpinned one.
pub(crate) fn pin_fifo_hint_pins_only_on_fifo_backends<P: Policy>(fresh: Fresh<P>) {
    // One lock/unlock pair on a fresh object, pinned first or not: the
    // hint's answer, the held word, whether the object is in FIFO
    // admission after the release retired its only ticket, and the
    // events the pair emitted.
    let pair = |pin: bool| {
        let stats = Arc::new(LockStats::new());
        let p = fresh(4).with_hooks(HookSet::new().sink(Arc::clone(&stats) as _));
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        let neutral = p.lock_word(obj);
        let pinned = pin && p.pin_fifo_hint(obj);
        assert_eq!(p.lock_word(obj), neutral, "a pin leaves the word alone");
        p.lock(obj, t).unwrap();
        let held = p.lock_word(obj);
        p.unlock(obj, t).unwrap();
        assert_eq!(p.lock_word(obj), neutral);
        let fifo = p.policy.queue(obj).is_some();
        (pinned, held, fifo, stats.snapshot())
    };
    let fifo_backend = matches!(P::NAME, "Fissile" | "Hapax");
    let (pinned, held, fifo, events) = pair(true);
    assert_eq!(pinned, fifo_backend, "pin_fifo_hint on {}", P::NAME);
    assert_eq!(fifo, fifo_backend, "FIFO admission after the drain");
    if !fifo_backend {
        let (_, plain_held, _, plain_events) = pair(false);
        assert_eq!(held, plain_held);
        assert_eq!(events, plain_events);
    }
}
