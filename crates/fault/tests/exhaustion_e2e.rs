//! End-to-end exhaustion behavior (satellite: exhaustion errors leave
//! the runtime usable).
//!
//! Each resource-exhaustion error — [`SyncError::ThreadIndexExhausted`],
//! [`SyncError::MonitorIndexExhausted`], [`SyncError::HeapFull`] — is
//! driven both for real (filling the actual resource) and through the
//! fault injector (reporting exhaustion *without* consuming anything),
//! and in every case the runtime must keep serving the resources it
//! still has and recover fully once pressure lifts.

use std::sync::Arc;
use std::time::Duration;

use thinlock::{CjmLocks, ThinLocks};
use thinlock_fault::{FaultPlan, PPM};
use thinlock_runtime::backend::SyncBackend;
use thinlock_runtime::error::SyncError;
use thinlock_runtime::fault::{FaultAction, InjectionPoint};
use thinlock_runtime::heap::Heap;
use thinlock_runtime::hooks::HookSet;
use thinlock_runtime::protocol::SyncProtocol;
use thinlock_runtime::registry::ThreadRegistry;

/// Thread indices: a full registry rejects the next registration, keeps
/// serving the registered thread, and recovers when an index frees up.
#[test]
fn thread_index_exhaustion_recovers_after_release() {
    let heap = Arc::new(Heap::with_capacity(2));
    let locks = ThinLocks::new(Arc::clone(&heap), ThreadRegistry::with_max_threads(1));
    let obj = heap.alloc().unwrap();

    let first = locks.registry().register().unwrap();
    assert_eq!(
        locks.registry().register().err(),
        Some(SyncError::ThreadIndexExhausted)
    );

    // The registered thread is unimpaired by the failed registration.
    locks.lock(obj, first.token()).unwrap();
    locks.unlock(obj, first.token()).unwrap();

    drop(first);
    let second = locks.registry().register().unwrap();
    locks.lock(obj, second.token()).unwrap();
    locks.unlock(obj, second.token()).unwrap();
}

/// Heap: a genuinely full heap rejects allocation but existing objects
/// keep locking normally.
#[test]
fn real_heap_exhaustion_keeps_existing_objects_usable() {
    let locks = ThinLocks::with_capacity(2);
    let a = locks.heap().alloc().unwrap();
    let b = locks.heap().alloc().unwrap();
    assert_eq!(locks.heap().alloc().err(), Some(SyncError::HeapFull));

    let reg = locks.registry().register().unwrap();
    let t = reg.token();
    for obj in [a, b] {
        locks.lock(obj, t).unwrap();
        locks.unlock(obj, t).unwrap();
    }
}

/// Heap, injected: a budgeted `Exhaust` reports `HeapFull` without
/// consuming a slot, so the very next allocation succeeds — and the
/// capacity check proves nothing leaked.
#[test]
fn injected_heap_exhaustion_consumes_nothing() {
    let plan = Arc::new(
        FaultPlan::new(21)
            .with_rule(InjectionPoint::HeapAlloc, FaultAction::Exhaust, PPM)
            .with_budget(InjectionPoint::HeapAlloc, 1),
    );
    let locks = ThinLocks::with_capacity(2).with_hooks(HookSet::new().fault_injector(plan.clone()));

    assert_eq!(locks.heap().alloc().err(), Some(SyncError::HeapFull));
    assert_eq!(
        locks.heap().allocated(),
        0,
        "injected failure consumed nothing"
    );
    let obj = locks
        .heap()
        .alloc()
        .expect("budget spent: allocation recovers");
    let again = locks.heap().alloc().expect("full capacity still available");
    assert_eq!(plan.fires(InjectionPoint::HeapAlloc), 1);

    let reg = locks.registry().register().unwrap();
    for o in [obj, again] {
        locks.lock(o, reg.token()).unwrap();
        locks.unlock(o, reg.token()).unwrap();
    }
}

/// Monitors, injected: inflation reports `MonitorIndexExhausted`, the
/// object stays a working *thin* lock, and once pressure lifts the same
/// object inflates fine.
#[test]
fn monitor_exhaustion_leaves_thin_locking_intact() {
    let plan = Arc::new(
        FaultPlan::new(33)
            .with_rule(InjectionPoint::MonitorAllocate, FaultAction::Exhaust, PPM)
            .with_budget(InjectionPoint::MonitorAllocate, 1),
    );
    let locks = ThinLocks::with_capacity(2).with_hooks(HookSet::new().fault_injector(plan.clone()));
    let obj = locks.heap().alloc().unwrap();

    assert_eq!(
        locks.pre_inflate(obj).err(),
        Some(SyncError::MonitorIndexExhausted)
    );
    assert_eq!(
        locks.inflation_count(),
        0,
        "failed inflation left no monitor"
    );

    // Thin locking is untouched by the failed inflation.
    let reg = locks.registry().register().unwrap();
    let t = reg.token();
    locks.lock(obj, t).unwrap();
    locks.unlock(obj, t).unwrap();

    // Budget spent: the same object now inflates and locks fat.
    assert_eq!(locks.pre_inflate(obj), Ok(true));
    assert_eq!(locks.inflation_count(), 1);
    locks.lock(obj, t).unwrap();
    locks.unlock(obj, t).unwrap();
    assert_eq!(plan.fires(InjectionPoint::MonitorAllocate), 1);
}

/// All three exhaustion paths in one protocol instance, back to back:
/// errors are reported, nothing corrupts, and after recovery the
/// instance does real multi-threaded work.
#[test]
fn runtime_survives_serial_exhaustion_of_every_resource() {
    let plan = Arc::new(
        FaultPlan::new(55)
            .with_rule(InjectionPoint::HeapAlloc, FaultAction::Exhaust, PPM)
            .with_budget(InjectionPoint::HeapAlloc, 1)
            .with_rule(InjectionPoint::MonitorAllocate, FaultAction::Exhaust, PPM)
            .with_budget(InjectionPoint::MonitorAllocate, 1),
    );
    let heap = Arc::new(Heap::with_capacity(4));
    let locks = Arc::new(
        ThinLocks::new(Arc::clone(&heap), ThreadRegistry::with_max_threads(2))
            .with_hooks(HookSet::new().fault_injector(plan)),
    );

    // Exhaust, in turn: heap (injected), monitors (injected), threads (real).
    assert_eq!(locks.heap().alloc().err(), Some(SyncError::HeapFull));
    let obj = locks.heap().alloc().unwrap();
    assert_eq!(
        locks.pre_inflate(obj).err(),
        Some(SyncError::MonitorIndexExhausted)
    );
    let r1 = locks.registry().register().unwrap();
    let r2 = locks.registry().register().unwrap();
    assert_eq!(
        locks.registry().register().err(),
        Some(SyncError::ThreadIndexExhausted)
    );
    drop(r2);

    // Recovery: two threads contend on the once-refused object hard
    // enough to inflate it for real.
    let t1 = r1.token();
    let worker_locks = Arc::clone(&locks);
    let worker = std::thread::spawn(move || {
        let reg = worker_locks.registry().register().unwrap();
        let t = reg.token();
        for _ in 0..200 {
            worker_locks.lock(obj, t).unwrap();
            worker_locks.unlock(obj, t).unwrap();
        }
    });
    for _ in 0..200 {
        locks.lock(obj, t1).unwrap();
        locks.unlock(obj, t1).unwrap();
    }
    worker.join().unwrap();
    assert_eq!(locks.owner_of(obj), None);
}

/// CJM's recycling pool, genuinely full (bound 1, slot held by another
/// object): the acquire path that must inflate surfaces
/// [`SyncError::MonitorIndexExhausted`] instead of blocking or
/// panicking, thin locking keeps working throughout, and deflating the
/// slot's current tenant restores full service.
#[test]
fn cjm_tiny_pool_exhaustion_errors_then_recycles() {
    let heap = Arc::new(Heap::with_capacity(4));
    let locks = CjmLocks::with_monitor_bound(Arc::clone(&heap), ThreadRegistry::new(), 1);
    let reg = locks.registry().register().unwrap();
    let t = reg.token();
    let a = heap.alloc().unwrap();
    let b = heap.alloc().unwrap();

    // Occupy the single slot: `a` inflates via wait and stays inflated
    // while locked.
    locks.lock(a, t).unwrap();
    assert_eq!(
        locks.wait(a, t, Some(Duration::from_millis(1))),
        Ok(thinlock_runtime::protocol::WaitOutcome::TimedOut)
    );
    assert!(locks.lock_word(a).is_fat());

    // Pool full: `b` cannot inflate — the error is surfaced, not a hang.
    locks.lock(b, t).unwrap();
    assert_eq!(
        locks.wait(b, t, Some(Duration::from_millis(1))),
        Err(SyncError::MonitorIndexExhausted)
    );
    assert_eq!(locks.notify(b, t), Err(SyncError::MonitorIndexExhausted));
    assert_eq!(
        locks.pre_inflate(heap.alloc().unwrap()),
        Err(SyncError::MonitorIndexExhausted)
    );

    // Thin locking on `b` is unimpaired by the refused inflations.
    assert!(locks.lock_word(b).is_thin_shape());
    locks.unlock(b, t).unwrap();
    for _ in 0..10 {
        locks.lock(b, t).unwrap();
        locks.unlock(b, t).unwrap();
    }

    // Quiet release of `a` deflates and recycles the slot; `b` can now
    // inflate for real.
    locks.unlock(a, t).unwrap();
    assert!(locks.lock_word(a).is_unlocked(), "quiet release deflated");
    assert!(locks.deflation_count() >= 1);
    locks.lock(b, t).unwrap();
    assert_eq!(
        locks.wait(b, t, Some(Duration::from_millis(1))),
        Ok(thinlock_runtime::protocol::WaitOutcome::TimedOut)
    );
    locks.unlock(b, t).unwrap();
}

/// Contended acquisition under a full pool must *not* fail: contention
/// inflation tolerates `MonitorIndexExhausted` (contenders keep
/// spinning on the thin word), so the lock still changes hands and
/// mutual exclusion holds with zero pool slots available.
#[test]
fn cjm_contention_survives_with_zero_pool_slots() {
    let heap = Arc::new(Heap::with_capacity(2));
    let locks = Arc::new(CjmLocks::with_monitor_bound(
        Arc::clone(&heap),
        ThreadRegistry::new(),
        0,
    ));
    let obj = heap.alloc().unwrap();
    let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let mut handles = Vec::new();
    for _ in 0..3 {
        let locks = Arc::clone(&locks);
        let counter = Arc::clone(&counter);
        handles.push(std::thread::spawn(move || {
            let reg = locks.registry().register().unwrap();
            let t = reg.token();
            for _ in 0..200 {
                locks.lock(obj, t).unwrap();
                let v = counter.load(std::sync::atomic::Ordering::Relaxed);
                std::hint::spin_loop();
                counter.store(v + 1, std::sync::atomic::Ordering::Relaxed);
                locks.unlock(obj, t).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 600);
    assert_eq!(locks.inflation_count(), 0, "nothing to inflate with");
    let reg = locks.registry().register().unwrap();
    assert!(!locks.holds_lock(obj, reg.token()));
}
