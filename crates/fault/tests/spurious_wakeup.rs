//! Property tests for timed waiting under injected spurious wakeups
//! (satellite: `Parker::park_timeout` discipline).
//!
//! A spurious wakeup is modeled as the parker returning without a
//! permit ([`FaultAction::SpuriousWake`] skips the park). The
//! properties: a timed `wait` still honors its deadline — it returns
//! `TimedOut` no earlier than the timeout, at any injection rate — and
//! the waiter re-acquires the monitor at *exactly* its entry nesting
//! depth, never one level off.

use std::sync::Arc;
use std::time::{Duration, Instant};

use thinlock::thin::Thin;
use thinlock::{DynamicConfig, LockCore, ThinLocks};
use thinlock_fault::{FaultPlan, PPM};
use thinlock_runtime::backend::SyncBackend;
use thinlock_runtime::error::SyncError;
use thinlock_runtime::fault::{FaultAction, InjectionPoint};
use thinlock_runtime::hooks::HookSet;
use thinlock_runtime::protocol::{SyncProtocol, WaitOutcome};
use thinlock_runtime::registry::Parker;

/// The raw primitive honors its timeout with no permit outstanding.
#[test]
fn park_timeout_expires_without_permit() {
    let parker = Parker::new();
    let timeout = Duration::from_millis(25);
    let start = Instant::now();
    assert!(!parker.park_timeout(timeout), "no permit: must time out");
    assert!(
        start.elapsed() >= timeout,
        "woke early: {:?}",
        start.elapsed()
    );
}

/// With a permit already available, the park returns true immediately.
#[test]
fn park_timeout_consumes_existing_permit() {
    let parker = Parker::new();
    parker.unpark();
    let start = Instant::now();
    assert!(parker.park_timeout(Duration::from_secs(5)));
    assert!(start.elapsed() < Duration::from_secs(1));
}

/// The thin protocol with a fault plan attached.
type Faulted = LockCore<Thin, DynamicConfig, Arc<HookSet>>;

fn faulted_locks(rate_ppm: u32, seed: u64) -> (Faulted, Arc<FaultPlan>) {
    let plan = Arc::new(FaultPlan::new(seed).with_rule(
        InjectionPoint::WaitPark,
        FaultAction::SpuriousWake,
        rate_ppm,
    ));
    let locks = ThinLocks::with_capacity(2).with_hooks(HookSet::new().fault_injector(plan.clone()));
    (locks, plan)
}

/// The property, swept over injection rates × nesting depths: a timed
/// wait with no notifier in sight returns `TimedOut`, not before its
/// deadline, and restores the exact nesting depth.
#[test]
fn timed_wait_respects_deadline_and_depth_under_spurious_wakeups() {
    for (rate, seed) in [(0, 1u64), (3 * PPM / 10, 2), (PPM, 3)] {
        for depth in 1..=4usize {
            let (locks, plan) = faulted_locks(rate, seed ^ (depth as u64) << 32);
            let obj = locks.heap().alloc().unwrap();
            let reg = locks.registry().register().unwrap();
            let t = reg.token();

            for _ in 0..depth {
                locks.lock(obj, t).unwrap();
            }
            let timeout = Duration::from_millis(30);
            let start = Instant::now();
            let outcome = locks.wait(obj, t, Some(timeout)).unwrap();
            let elapsed = start.elapsed();
            assert_eq!(
                outcome,
                WaitOutcome::TimedOut,
                "rate {rate}: nobody notifies, so the wait must time out"
            );
            assert!(
                elapsed >= timeout,
                "rate {rate}, depth {depth}: woke {elapsed:?} before the {timeout:?} deadline"
            );

            // Exact depth restoration: `depth` unlocks succeed, one
            // more is rejected.
            assert!(locks.holds_lock(obj, t));
            for level in 0..depth {
                locks
                    .unlock(obj, t)
                    .unwrap_or_else(|e| panic!("unlock {level} of {depth} failed: {e}"));
            }
            let extra = locks.unlock(obj, t);
            assert!(
                matches!(extra, Err(SyncError::NotOwner | SyncError::NotLocked)),
                "rate {rate}, depth {depth}: wait over-restored the nesting depth ({extra:?})"
            );

            if rate == PPM {
                assert!(
                    plan.fires(InjectionPoint::WaitPark) > 0,
                    "full-rate plan must actually have injected wakeups"
                );
            }
        }
    }
}

/// Even with every park skipped (rate 1.0), a notification still gets
/// through: spurious wakeups degrade the wait into polling, never into
/// a lost wakeup or a phantom notification.
#[test]
fn notification_is_delivered_through_full_spurious_interference() {
    let (locks, _plan) = faulted_locks(PPM, 77);
    let locks = Arc::new(locks);
    let obj = locks.heap().alloc().unwrap();

    let waiter_locks = Arc::clone(&locks);
    let waiter = std::thread::spawn(move || {
        let reg = waiter_locks.registry().register().unwrap();
        let t = reg.token();
        waiter_locks.lock(obj, t).unwrap();
        let outcome = waiter_locks
            .wait(obj, t, Some(Duration::from_secs(10)))
            .unwrap();
        waiter_locks.unlock(obj, t).unwrap();
        outcome
    });

    // Wait until the waiter has released the monitor into its wait.
    while locks.owner_of(obj).is_some() || locks.inflation_count() == 0 {
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(10));

    let reg = locks.registry().register().unwrap();
    let t = reg.token();
    locks.lock(obj, t).unwrap();
    locks.notify(obj, t).unwrap();
    locks.unlock(obj, t).unwrap();

    assert_eq!(waiter.join().unwrap(), WaitOutcome::Notified);
}
