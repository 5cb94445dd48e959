//! Differential stress tests: our fat monitor under randomized
//! multi-threaded schedules, checked against two independent oracles —
//! a pure single-threaded replay of the same PRNG streams (the
//! critical-section count is a pure function of the seeds, independent
//! of interleaving) and a `std::sync::Mutex`-guarded counter executing
//! the identical schedule.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use thinlock_monitor::FatLock;
use thinlock_runtime::hooks::NoHooks;
use thinlock_runtime::prng::Prng;
use thinlock_runtime::registry::ThreadRegistry;

/// The monitor's QUEUED bit is set exactly when a queue is non-empty,
/// checked once every worker has finished. From outside the crate the
/// bit shows through the one-load quiescence check of a single hold:
/// that check must pass exactly when the probe finds both queues empty.
fn assert_queued_invariant(lock: &FatLock, registry: &ThreadRegistry) {
    let me = registry.register().unwrap();
    let t = me.token();
    lock.lock(t, registry, &NoHooks).unwrap();
    let probe = lock.probe();
    let queues_empty = probe.entry_queue_len == 0 && probe.wait_set_len == 0;
    assert_eq!(
        lock.is_sole_quiescent_owner(t),
        queues_empty,
        "QUEUED out of step with the queues: {probe:?}"
    );
    lock.unlock(t, registry).unwrap();
}

/// Shared scenario: several threads perform a random mix of plain
/// critical sections and condition-variable handoffs; the same schedule
/// (same seeds) is executed against the oracles and results compared.
struct Totals {
    increments: AtomicU64,
    handoffs: AtomicU64,
}

fn run_ours(threads: usize, per_thread: u32, seed: u64) -> (u64, u64) {
    let lock = Arc::new(FatLock::new());
    let registry = ThreadRegistry::new();
    let totals = Arc::new(Totals {
        increments: AtomicU64::new(0),
        handoffs: AtomicU64::new(0),
    });
    let pending = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        for who in 0..threads {
            let lock = Arc::clone(&lock);
            let registry = registry.clone();
            let totals = Arc::clone(&totals);
            let pending = Arc::clone(&pending);
            scope.spawn(move || {
                let reg = registry.register().unwrap();
                let t = reg.token();
                let mut rng = Prng::seed_from_u64(seed ^ who as u64);
                for _ in 0..per_thread {
                    match rng.range_u32(0, 10) {
                        // Plain critical section, sometimes nested.
                        0..=6 => {
                            let depth = rng.range_u32(1, 4);
                            for _ in 0..depth {
                                lock.lock(t, &registry, &NoHooks).unwrap();
                            }
                            totals.increments.fetch_add(1, Ordering::Relaxed);
                            for _ in 0..depth {
                                lock.unlock(t, &registry).unwrap();
                            }
                        }
                        // Producer: post a token and notify.
                        7..=8 => {
                            lock.lock(t, &registry, &NoHooks).unwrap();
                            pending.fetch_add(1, Ordering::Relaxed);
                            lock.notify(t).unwrap();
                            lock.unlock(t, &registry).unwrap();
                        }
                        // Consumer: timed wait for a token.
                        _ => {
                            lock.lock(t, &registry, &NoHooks).unwrap();
                            let mut got = false;
                            for _ in 0..3 {
                                if pending.load(Ordering::Relaxed) > 0 {
                                    pending.fetch_sub(1, Ordering::Relaxed);
                                    got = true;
                                    break;
                                }
                                let _ = lock
                                    .wait(t, &registry, Some(Duration::from_millis(1)), &NoHooks)
                                    .unwrap();
                            }
                            if got {
                                totals.handoffs.fetch_add(1, Ordering::Relaxed);
                            }
                            lock.unlock(t, &registry).unwrap();
                        }
                    }
                }
            });
        }
    });
    assert_eq!(lock.owner(), None, "monitor fully released at end");
    assert_eq!(lock.entry_queue_len(), 0);
    assert_queued_invariant(&lock, &registry);
    (
        totals.increments.load(Ordering::Relaxed),
        totals.handoffs.load(Ordering::Relaxed),
    )
}

/// Pure replay oracle: the number of plain critical sections is a pure
/// function of the RNG streams, independent of interleaving, so it can
/// be computed without running any threads at all.
fn replay_oracle(threads: usize, per_thread: u32, seed: u64) -> u64 {
    let mut count = 0u64;
    for who in 0..threads {
        let mut rng = Prng::seed_from_u64(seed ^ who as u64);
        for _ in 0..per_thread {
            // Producer and consumer branches draw nothing further from
            // the RNG in the real run either.
            if let 0..=6 = rng.range_u32(0, 10) {
                let _depth = rng.range_u32(1, 4);
                count += 1;
            }
        }
    }
    count
}

/// Concurrent reference oracle: the identical schedule against a plain
/// `std::sync::Mutex` counter (no reentrancy, so nesting collapses to a
/// single hold), checking that real threads draw the same streams.
fn run_mutex_oracle(threads: usize, per_thread: u32, seed: u64) -> u64 {
    let count = Arc::new(Mutex::new(0u64));
    std::thread::scope(|scope| {
        for who in 0..threads {
            let count = Arc::clone(&count);
            scope.spawn(move || {
                let mut rng = Prng::seed_from_u64(seed ^ who as u64);
                for _ in 0..per_thread {
                    if let 0..=6 = rng.range_u32(0, 10) {
                        let _depth = rng.range_u32(1, 4);
                        *count.lock().unwrap() += 1;
                    }
                }
            });
        }
    });
    let n = *count.lock().unwrap();
    n
}

#[test]
fn randomized_stress_matches_oracle_counts() {
    for seed in [1u64, 99, 12345] {
        let (increments, handoffs) = run_ours(4, 150, seed);
        let replay = replay_oracle(4, 150, seed);
        let mutex = run_mutex_oracle(4, 150, seed);
        assert_eq!(
            increments, replay,
            "seed {seed}: critical-section count must match the pure replay"
        );
        assert_eq!(
            mutex, replay,
            "seed {seed}: mutex oracle must agree with the pure replay"
        );
        // Handoffs are schedule-dependent but bounded by producer posts.
        assert!(handoffs <= 4 * 150);
    }
}

#[test]
fn heavy_reentrancy_stress() {
    let lock = Arc::new(FatLock::new());
    let registry = ThreadRegistry::new();
    std::thread::scope(|scope| {
        for who in 0..3usize {
            let lock = Arc::clone(&lock);
            let registry = registry.clone();
            scope.spawn(move || {
                let reg = registry.register().unwrap();
                let t = reg.token();
                let mut rng = Prng::seed_from_u64(who as u64);
                for _ in 0..300 {
                    let depth = rng.range_u32(1, 17);
                    for _ in 0..depth {
                        lock.lock(t, &registry, &NoHooks).unwrap();
                    }
                    assert_eq!(lock.count(), depth);
                    assert!(lock.holds(t));
                    for _ in 0..depth {
                        lock.unlock(t, &registry).unwrap();
                    }
                }
            });
        }
    });
    assert_eq!(lock.owner(), None);
    assert_queued_invariant(&lock, &registry);
}
