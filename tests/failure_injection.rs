//! Failure injection across crates: panics inside critical sections,
//! resource exhaustion mid-workload, interrupts during waits — every
//! protocol must degrade predictably, never by corrupting lock state.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use thinlock_bench::ProtocolKind;
use thinlock_runtime::error::SyncError;
use thinlock_runtime::protocol::{SyncProtocol, SyncProtocolExt};

#[test]
fn panic_inside_guard_releases_monitor_everywhere() {
    for kind in ProtocolKind::ALL_BACKENDS {
        let p = kind.build(4, 0);
        let reg = p.registry().register().unwrap();
        let t = reg.token();
        let obj = p.heap().alloc().unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = p.enter(obj, t).unwrap();
            panic!("injected failure inside critical section");
        }));
        assert!(result.is_err());
        assert!(!p.holds_lock(obj, t), "{kind}: lock leaked through panic");
        // The monitor is still fully usable afterwards.
        p.lock(obj, t).unwrap();
        p.unlock(obj, t).unwrap();
    }
}

#[test]
fn panic_in_one_thread_does_not_wedge_others() {
    for kind in ProtocolKind::ALL_BACKENDS {
        let p: Arc<dyn SyncProtocol> = Arc::from(kind.build(4, 0));
        let obj = p.heap().alloc().unwrap();
        let progressed = Arc::new(AtomicU64::new(0));

        // Thread A panics while holding the guard (which releases it on
        // unwind); thread B must still make progress afterwards.
        let a = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || {
                let reg = p.registry().register().unwrap();
                let t = reg.token();
                let _guard = p.enter(obj, t).unwrap();
                panic!("injected");
            })
        };
        assert!(a.join().is_err());

        let b = {
            let p = Arc::clone(&p);
            let progressed = Arc::clone(&progressed);
            std::thread::spawn(move || {
                let reg = p.registry().register().unwrap();
                let t = reg.token();
                for _ in 0..100 {
                    p.lock(obj, t).unwrap();
                    progressed.fetch_add(1, Ordering::Relaxed);
                    p.unlock(obj, t).unwrap();
                }
            })
        };
        b.join().unwrap();
        assert_eq!(progressed.load(Ordering::Relaxed), 100, "{kind}");
    }
}

#[test]
fn heap_exhaustion_is_a_clean_error() {
    for kind in ProtocolKind::ALL_BACKENDS {
        let p = kind.build(2, 0);
        let _a = p.heap().alloc().unwrap();
        let _b = p.heap().alloc().unwrap();
        assert_eq!(p.heap().alloc(), Err(SyncError::HeapFull), "{kind}");
        // Existing objects still lock fine.
        let reg = p.registry().register().unwrap();
        p.lock(_a, reg.token()).unwrap();
        p.unlock(_a, reg.token()).unwrap();
    }
}

#[test]
fn registry_exhaustion_is_a_clean_error() {
    use thinlock::ThinLocks;
    use thinlock_runtime::heap::Heap;
    use thinlock_runtime::registry::ThreadRegistry;
    let locks = ThinLocks::new(
        Arc::new(Heap::with_capacity(2)),
        ThreadRegistry::with_max_threads(2),
    );
    let r1 = locks.registry().register().unwrap();
    let _r2 = locks.registry().register().unwrap();
    assert!(matches!(
        locks.registry().register(),
        Err(SyncError::ThreadIndexExhausted)
    ));
    // Releasing one registration frees its index.
    drop(r1);
    let r3 = locks.registry().register().unwrap();
    let obj = locks.heap().alloc().unwrap();
    locks.lock(obj, r3.token()).unwrap();
    locks.unlock(obj, r3.token()).unwrap();
}

#[test]
fn interrupt_during_wait_surfaces_under_parking_backends() {
    for kind in [
        ProtocolKind::ThinLock,
        ProtocolKind::Cjm,
        ProtocolKind::Fissile,
        ProtocolKind::Hapax,
    ] {
        let p: Arc<dyn SyncProtocol> = Arc::from(kind.build(4, 0));
        let obj = p.heap().alloc().unwrap();
        let waiter_index = Arc::new(AtomicU64::new(0));
        let waiter = {
            let p = Arc::clone(&p);
            let waiter_index = Arc::clone(&waiter_index);
            std::thread::spawn(move || {
                let reg = p.registry().register().unwrap();
                let t = reg.token();
                waiter_index.store(u64::from(t.index().get()), Ordering::Release);
                p.lock(obj, t).unwrap();
                let r = p.wait(obj, t, None);
                assert!(
                    p.holds_lock(obj, t),
                    "{}: reacquired before surfacing",
                    p.name()
                );
                p.unlock(obj, t).unwrap();
                r
            })
        };
        // Wait until the waiter is registered and (very likely) waiting.
        while waiter_index.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(30));
        let idx = thinlock_runtime::lockword::ThreadIndex::new(
            waiter_index.load(Ordering::Acquire) as u16,
        )
        .unwrap();
        p.registry().interrupt(idx).unwrap();
        let out = waiter.join().unwrap();
        assert_eq!(out.unwrap_err(), SyncError::Interrupted, "{kind}");
    }
}

#[test]
fn monitor_exhaustion_reported_not_corrupting() {
    // A thin-lock protocol over a 1-object heap has a 1-slot monitor
    // table; inflating the only object consumes it, and the protocol
    // keeps working through the fat path afterwards.
    use thinlock::ThinLocks;
    let locks = ThinLocks::with_capacity(1);
    let reg = locks.registry().register().unwrap();
    let t = reg.token();
    let obj = locks.heap().alloc().unwrap();
    locks.lock(obj, t).unwrap();
    locks.notify(obj, t).unwrap(); // inflates, table now full
    locks.unlock(obj, t).unwrap();
    assert_eq!(locks.inflated_count(), 1);
    for _ in 0..10 {
        locks.lock(obj, t).unwrap();
        locks.unlock(obj, t).unwrap();
    }
}

#[test]
fn zero_timeout_wait_returns_promptly() {
    for kind in ProtocolKind::ALL_BACKENDS {
        let p = kind.build(2, 0);
        let reg = p.registry().register().unwrap();
        let t = reg.token();
        let obj = p.heap().alloc().unwrap();
        p.lock(obj, t).unwrap();
        let start = std::time::Instant::now();
        let out = p.wait(obj, t, Some(Duration::ZERO)).unwrap();
        assert_eq!(
            out,
            thinlock_runtime::protocol::WaitOutcome::TimedOut,
            "{kind}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "{kind}: prompt return"
        );
        assert!(p.holds_lock(obj, t));
        p.unlock(obj, t).unwrap();
    }
}
