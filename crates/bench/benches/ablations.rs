//! Design-choice ablation benches for DESIGN.md §8: one-way inflation vs
//! deflation, and contention-wait policies. Plain `harness = false`
//! main; bench_output.txt is what EXPERIMENTS.md uses.

use std::sync::Arc;
use thinlock::config::DynamicConfig;
use thinlock::{CjmLocks, ThinLocks};
use thinlock_bench::{median_time, DEFAULT_REPS};
use thinlock_runtime::backoff::SpinPolicy;
use thinlock_runtime::heap::Heap;
use thinlock_runtime::protocol::SyncProtocol;
use thinlock_runtime::registry::ThreadRegistry;

const OPS: u32 = 1_000;

fn report(group: &str, name: &str, median: std::time::Duration) {
    println!(
        "{group:<20} {name:<24} {:>9.1} ns/op",
        median.as_nanos() as f64 / f64::from(OPS)
    );
}

/// Private-phase throughput after one contended (wait-inflated) episode:
/// the permanently-fat base protocol vs the deflating variant.
fn deflation_ablation() {
    let thin = ThinLocks::with_capacity(2);
    let obj = thin.heap().alloc().unwrap();
    {
        let reg = thin.registry().register().unwrap();
        let t = reg.token();
        thin.lock(obj, t).unwrap();
        let _ = thin.wait(obj, t, Some(std::time::Duration::from_millis(1)));
        thin.unlock(obj, t).unwrap();
    }
    assert!(thin.lock_word(obj).is_fat());
    let reg = thin.registry().register().unwrap();
    let t = reg.token();
    let median = median_time(DEFAULT_REPS, || {
        for _ in 0..OPS {
            thin.lock(obj, t).unwrap();
            thin.unlock(obj, t).unwrap();
        }
    });
    report("ablation_deflation", "ThinLock (stays fat)", median);

    let cjm = CjmLocks::with_capacity(2);
    let obj2 = cjm.heap().alloc().unwrap();
    {
        let reg = cjm.registry().register().unwrap();
        let t = reg.token();
        cjm.lock(obj2, t).unwrap();
        let _ = cjm.wait(obj2, t, Some(std::time::Duration::from_millis(1)));
        cjm.unlock(obj2, t).unwrap();
    }
    assert!(cjm.lock_word(obj2).is_unlocked());
    let reg2 = cjm.registry().register().unwrap();
    let t2 = reg2.token();
    let median = median_time(DEFAULT_REPS, || {
        for _ in 0..OPS {
            cjm.lock(obj2, t2).unwrap();
            cjm.unlock(obj2, t2).unwrap();
        }
    });
    report("ablation_deflation", "CJM (deflated)", median);
}

/// Uncontended fast-path cost per spin policy (the policy only matters
/// under contention, so these must be near-identical — a sanity
/// ablation).
fn spin_policy_ablation() {
    for (name, policy) in [
        ("spin-then-yield", SpinPolicy::SpinThenYield),
        ("yield-only", SpinPolicy::YieldOnly),
        ("spin-hard", SpinPolicy::SpinHard),
    ] {
        let protocol = ThinLocks::with_config(
            Arc::new(Heap::with_capacity(2)),
            ThreadRegistry::new(),
            DynamicConfig::default().with_spin_policy(policy),
        );
        let obj = protocol.heap().alloc().unwrap();
        let reg = protocol.registry().register().unwrap();
        let t = reg.token();
        let median = median_time(DEFAULT_REPS, || {
            for _ in 0..OPS {
                protocol.lock(obj, t).unwrap();
                protocol.unlock(obj, t).unwrap();
            }
        });
        report("ablation_spin_policy", name, median);
    }
}

fn main() {
    deflation_ablation();
    spin_policy_ablation();
}
