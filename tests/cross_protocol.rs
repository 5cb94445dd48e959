//! Cross-crate integration: the three locking protocols are observationally
//! equivalent — same results, same errors, same monitor semantics — and
//! differ only in cost.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use thinlock_bench::ProtocolKind; // semantics tests cover every implemented backend (paper's three, CJM, fissile, hapax)
use thinlock_runtime::error::SyncError;
use thinlock_runtime::protocol::{SyncProtocol, SyncProtocolExt, WaitOutcome};

#[test]
fn single_threaded_semantics_are_identical() {
    for kind in ProtocolKind::ALL_BACKENDS {
        let p = kind.build(8, 0);
        let reg = p.registry().register().unwrap();
        let t = reg.token();
        let a = p.heap().alloc().unwrap();
        let b = p.heap().alloc().unwrap();

        // Fresh objects are unowned.
        assert!(!p.holds_lock(a, t), "{kind}");
        // Unlock of never-locked object fails.
        assert_eq!(p.unlock(a, t), Err(SyncError::NotLocked), "{kind}");
        // Re-entrancy to depth 5 on two independent objects.
        for _ in 0..5 {
            p.lock(a, t).unwrap();
            p.lock(b, t).unwrap();
        }
        assert!(p.holds_lock(a, t) && p.holds_lock(b, t), "{kind}");
        for _ in 0..5 {
            p.unlock(a, t).unwrap();
            p.unlock(b, t).unwrap();
        }
        assert!(!p.holds_lock(a, t) && !p.holds_lock(b, t), "{kind}");
        // One extra unlock fails again.
        assert_eq!(p.unlock(b, t), Err(SyncError::NotLocked), "{kind}");
    }
}

#[test]
fn ownership_violations_rejected_everywhere() {
    for kind in ProtocolKind::ALL_BACKENDS {
        let p = kind.build(4, 0);
        let ra = p.registry().register().unwrap();
        let rb = p.registry().register().unwrap();
        let obj = p.heap().alloc().unwrap();
        p.lock(obj, ra.token()).unwrap();
        assert_eq!(
            p.unlock(obj, rb.token()),
            Err(SyncError::NotOwner),
            "{kind}"
        );
        assert!(
            matches!(
                p.wait(obj, rb.token(), None),
                Err(SyncError::NotOwner) | Err(SyncError::NotLocked)
            ),
            "{kind}"
        );
        p.unlock(obj, ra.token()).unwrap();
    }
}

#[test]
fn guarded_counter_is_exact_under_every_protocol() {
    const THREADS: usize = 4;
    const ITERS: u64 = 400;
    for kind in ProtocolKind::ALL_BACKENDS {
        let p: Arc<dyn SyncProtocol> = Arc::from(kind.build(4, 0));
        let obj = p.heap().alloc().unwrap();
        let counter = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let p = Arc::clone(&p);
                let counter = Arc::clone(&counter);
                scope.spawn(move || {
                    let reg = p.registry().register().unwrap();
                    let t = reg.token();
                    for _ in 0..ITERS {
                        p.lock(obj, t).unwrap();
                        // Deliberately racy-looking RMW, serialized by the lock.
                        let v = counter.load(Ordering::Relaxed);
                        std::hint::spin_loop();
                        counter.store(v + 1, Ordering::Relaxed);
                        p.unlock(obj, t).unwrap();
                    }
                });
            }
        });
        assert_eq!(
            counter.load(Ordering::Relaxed),
            THREADS as u64 * ITERS,
            "{kind}: lost update"
        );
    }
}

#[test]
fn wait_notify_rendezvous_under_every_protocol() {
    for kind in ProtocolKind::ALL_BACKENDS {
        let p: Arc<dyn SyncProtocol> = Arc::from(kind.build(4, 0));
        let obj = p.heap().alloc().unwrap();
        let ready = Arc::new(AtomicU64::new(0));

        std::thread::scope(|scope| {
            let waiter = {
                let p = Arc::clone(&p);
                let ready = Arc::clone(&ready);
                scope.spawn(move || {
                    let reg = p.registry().register().unwrap();
                    let t = reg.token();
                    p.lock(obj, t).unwrap();
                    ready.store(1, Ordering::Release);
                    let out = p.wait(obj, t, None).unwrap();
                    assert!(p.holds_lock(obj, t));
                    p.unlock(obj, t).unwrap();
                    out
                })
            };
            // Wait until the waiter holds the monitor, then keep notifying
            // until it wakes (a notify before the wait parks is absorbed by
            // Mesa semantics: the entry moved to the entry queue).
            while ready.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
            }
            let reg = p.registry().register().unwrap();
            let t = reg.token();
            loop {
                p.lock(obj, t).unwrap();
                p.notify(obj, t).unwrap();
                p.unlock(obj, t).unwrap();
                if waiter.is_finished() {
                    break;
                }
                std::thread::yield_now();
            }
            assert_eq!(waiter.join().unwrap(), WaitOutcome::Notified, "{kind}");
        });
    }
}

#[test]
fn timed_wait_times_out_under_every_protocol() {
    for kind in ProtocolKind::ALL_BACKENDS {
        let p = kind.build(4, 0);
        let reg = p.registry().register().unwrap();
        let t = reg.token();
        let obj = p.heap().alloc().unwrap();
        p.lock(obj, t).unwrap();
        let out = p.wait(obj, t, Some(Duration::from_millis(20))).unwrap();
        assert_eq!(out, WaitOutcome::TimedOut, "{kind}");
        assert!(p.holds_lock(obj, t), "{kind}: monitor re-acquired");
        p.unlock(obj, t).unwrap();
    }
}

#[test]
fn notify_all_wakes_all_under_every_protocol() {
    const WAITERS: usize = 3;
    for kind in ProtocolKind::ALL_BACKENDS {
        let p: Arc<dyn SyncProtocol> = Arc::from(kind.build(4, 0));
        let obj = p.heap().alloc().unwrap();
        let entered = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..WAITERS {
                let p = Arc::clone(&p);
                let entered = Arc::clone(&entered);
                handles.push(scope.spawn(move || {
                    let reg = p.registry().register().unwrap();
                    let t = reg.token();
                    p.lock(obj, t).unwrap();
                    entered.fetch_add(1, Ordering::Release);
                    let out = p.wait(obj, t, Some(Duration::from_secs(30))).unwrap();
                    p.unlock(obj, t).unwrap();
                    out
                }));
            }
            while entered.load(Ordering::Acquire) < WAITERS as u64 {
                std::thread::yield_now();
            }
            // Give the last waiter a moment to actually park.
            std::thread::sleep(Duration::from_millis(30));
            let reg = p.registry().register().unwrap();
            let t = reg.token();
            p.lock(obj, t).unwrap();
            p.notify_all(obj, t).unwrap();
            p.unlock(obj, t).unwrap();
            for h in handles {
                assert_eq!(h.join().unwrap(), WaitOutcome::Notified, "{kind}");
            }
        });
    }
}

#[test]
fn guard_api_works_for_dynamic_protocols() {
    for kind in ProtocolKind::ALL_BACKENDS {
        let p = kind.build(4, 0);
        let reg = p.registry().register().unwrap();
        let t = reg.token();
        let obj = p.heap().alloc().unwrap();
        let sum = p.synchronized(obj, t, || 1 + 1).unwrap();
        assert_eq!(sum, 2);
        assert!(!p.holds_lock(obj, t), "{kind}");
    }
}
