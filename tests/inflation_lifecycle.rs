//! Integration tests of the thin-lock state machine across crates: the
//! one-way thin → fat transition under each of its three triggers, header
//! preservation, and the behaviour of every fast-path variant.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use thinlock::config::{DynamicConfig, FastPathConfig, StaticKernelCas, StaticMp, StaticUp};
use thinlock::thin::Thin;
use thinlock::{LockCore, ThinLocks};
use thinlock_runtime::arch::ArchProfile;
use thinlock_runtime::heap::Heap;
use thinlock_runtime::hooks::{HookSet, Hooks};
use thinlock_runtime::protocol::SyncProtocol;
use thinlock_runtime::registry::ThreadRegistry;
use thinlock_runtime::stats::LockStats;

fn thin_with<C: FastPathConfig>(config: C) -> ThinLocks<C> {
    ThinLocks::with_config(
        Arc::new(Heap::with_capacity(8)),
        ThreadRegistry::new(),
        config,
    )
}

/// Exercises all three inflation triggers under one configuration.
fn exercise_inflation_triggers<C: FastPathConfig, H: Hooks + 'static>(
    locks: Arc<LockCore<Thin, C, H>>,
) {
    // Trigger 1: count overflow at the 257th acquisition.
    {
        let reg = locks.registry().register().unwrap();
        let t = reg.token();
        let obj = locks.heap().alloc().unwrap();
        let hash = locks.lock_word(obj).header_bits();
        for _ in 0..257 {
            locks.lock(obj, t).unwrap();
        }
        assert!(locks.lock_word(obj).is_fat(), "overflow inflates");
        for _ in 0..257 {
            locks.unlock(obj, t).unwrap();
        }
        assert!(locks.lock_word(obj).is_fat(), "inflation is permanent");
        assert_eq!(locks.lock_word(obj).header_bits(), hash, "header kept");
    }

    // Trigger 2: wait/notify on a thin-held lock.
    {
        let reg = locks.registry().register().unwrap();
        let t = reg.token();
        let obj = locks.heap().alloc().unwrap();
        locks.lock(obj, t).unwrap();
        assert!(locks.lock_word(obj).is_thin_shape());
        let out = locks.wait(obj, t, Some(Duration::from_millis(5))).unwrap();
        assert_eq!(out, thinlock_runtime::protocol::WaitOutcome::TimedOut);
        assert!(locks.lock_word(obj).is_fat(), "wait inflates");
        locks.unlock(obj, t).unwrap();
    }

    // Trigger 3: contention.
    {
        let obj = locks.heap().alloc().unwrap();
        let barrier = Arc::new(Barrier::new(2));
        let holder = {
            let locks = Arc::clone(&locks);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let reg = locks.registry().register().unwrap();
                let t = reg.token();
                locks.lock(obj, t).unwrap();
                barrier.wait();
                std::thread::sleep(Duration::from_millis(20));
                locks.unlock(obj, t).unwrap();
            })
        };
        let reg = locks.registry().register().unwrap();
        let t = reg.token();
        barrier.wait();
        locks.lock(obj, t).unwrap();
        assert!(locks.lock_word(obj).is_fat(), "contention inflates");
        locks.unlock(obj, t).unwrap();
        holder.join().unwrap();
    }
}

#[test]
fn inflation_triggers_default_config() {
    exercise_inflation_triggers(Arc::new(ThinLocks::with_capacity(8)));
}

#[test]
fn inflation_triggers_static_up() {
    exercise_inflation_triggers(Arc::new(thin_with(StaticUp)));
}

#[test]
fn inflation_triggers_static_mp() {
    exercise_inflation_triggers(Arc::new(thin_with(StaticMp)));
}

#[test]
fn inflation_triggers_kernel_cas() {
    exercise_inflation_triggers(Arc::new(thin_with(StaticKernelCas)));
}

#[test]
fn inflation_triggers_cas_unlock_variant() {
    exercise_inflation_triggers(Arc::new(thin_with(
        DynamicConfig::new(ArchProfile::PowerPcMp).with_cas_unlock(),
    )));
}

#[test]
fn inflation_triggers_outlined_variant() {
    exercise_inflation_triggers(Arc::new(thin_with(
        DynamicConfig::new(ArchProfile::PowerPcUp).with_outlined_fast_path(),
    )));
}

#[test]
fn stats_record_each_inflation_cause() {
    let stats = Arc::new(LockStats::new());
    let hooks = HookSet::new().sink(Arc::clone(&stats) as _);
    let locks = Arc::new(ThinLocks::with_capacity(8).with_hooks(hooks));
    exercise_inflation_triggers(Arc::clone(&locks));
    let snap = stats.snapshot();
    assert_eq!(snap.inflations[0], 1, "one contention inflation");
    assert_eq!(snap.inflations[1], 1, "one overflow inflation");
    assert_eq!(snap.inflations[2], 1, "one wait inflation");
    assert_eq!(locks.inflated_count(), 3);
}

#[test]
fn object_capacity_bounds_monitor_table() {
    // The monitor table is sized to the heap: inflate every object and the
    // table is exactly full — no overflow is possible by construction.
    let locks = ThinLocks::with_capacity(5);
    let reg = locks.registry().register().unwrap();
    let t = reg.token();
    for _ in 0..5 {
        let obj = locks.heap().alloc().unwrap();
        locks.lock(obj, t).unwrap();
        locks.notify(obj, t).unwrap(); // force inflation
        locks.unlock(obj, t).unwrap();
    }
    assert_eq!(locks.inflated_count(), 5);
}

#[test]
fn many_objects_inflate_independently_under_contention() {
    let locks = Arc::new(ThinLocks::with_capacity(16));
    let objs: Vec<_> = (0..8).map(|_| locks.heap().alloc().unwrap()).collect();
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let locks = Arc::clone(&locks);
            let objs = objs.clone();
            scope.spawn(move || {
                let reg = locks.registry().register().unwrap();
                let t = reg.token();
                for round in 0..200 {
                    let obj = objs[round % objs.len()];
                    locks.lock(obj, t).unwrap();
                    locks.unlock(obj, t).unwrap();
                }
            });
        }
    });
    // However the schedule went, every object must end unlocked and the
    // monitor count bounded by the object count.
    let reg = locks.registry().register().unwrap();
    for &obj in &objs {
        assert!(!locks.holds_lock(obj, reg.token()));
    }
    assert!(locks.inflated_count() <= objs.len());
}
