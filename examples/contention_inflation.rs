//! Watching a lock inflate under contention, with live statistics.
//!
//! Run with `cargo run --release --example contention_inflation`.
//!
//! Section 2.3.4 of the paper: when thread B finds an object thin-locked
//! by thread A, it spins until A releases, acquires, and *inflates* the
//! lock — permanently, on the assumption of locality of contention ("if
//! there is contention for an object once, there is likely to be
//! contention for it again"). This example stages exactly that scenario
//! and prints the scenario counters from the instrumentation layer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use thinlock::ThinLocks;
use thinlock_runtime::backend::SyncBackend;
use thinlock_runtime::hooks::HookSet;
use thinlock_runtime::protocol::SyncProtocol;
use thinlock_runtime::stats::LockStats;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let stats = Arc::new(LockStats::new());
    let hooks = HookSet::new().sink(Arc::clone(&stats) as _);
    let locks = Arc::new(ThinLocks::with_capacity(4).with_hooks(hooks));
    let shared = locks.heap().alloc()?;
    let counter = Arc::new(AtomicU64::new(0));

    println!("before: {}", locks.lock_word(shared));

    // Phase 1: single-threaded use — the lock stays thin.
    {
        let reg = locks.registry().register()?;
        for _ in 0..1_000 {
            locks.lock(shared, reg.token())?;
            counter.fetch_add(1, Ordering::Relaxed);
            locks.unlock(shared, reg.token())?;
        }
    }
    println!(
        "after 1000 uncontended syncs: {} (monitors: {})",
        locks.lock_word(shared),
        locks.inflation_count()
    );

    // Phase 2: forced contention — thread A holds the lock while B
    // arrives, so B must spin and then inflate.
    let barrier = Arc::new(Barrier::new(2));
    let holder = {
        let locks = Arc::clone(&locks);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            let reg = locks.registry().register().expect("registry");
            locks.lock(shared, reg.token()).expect("lock");
            barrier.wait(); // signal: B may start contending
            std::thread::sleep(Duration::from_millis(50));
            locks.unlock(shared, reg.token()).expect("unlock");
        })
    };
    {
        let reg = locks.registry().register()?;
        barrier.wait();
        locks.lock(shared, reg.token())?; // spins, acquires, inflates
        locks.unlock(shared, reg.token())?;
    }
    holder.join().expect("holder thread");
    println!(
        "after contention: {} (monitors: {})",
        locks.lock_word(shared),
        locks.inflation_count()
    );

    // Phase 3: heavy mixed traffic on the now-fat lock.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let locks = Arc::clone(&locks);
            let counter = Arc::clone(&counter);
            scope.spawn(move || {
                let reg = locks.registry().register().expect("registry");
                for _ in 0..2_000 {
                    locks.lock(shared, reg.token()).expect("lock");
                    counter.fetch_add(1, Ordering::Relaxed);
                    locks.unlock(shared, reg.token()).expect("unlock");
                }
            });
        }
    });

    println!(
        "counter = {} (expected {})",
        counter.load(Ordering::Relaxed),
        1_000 + 4 * 2_000
    );
    assert_eq!(counter.load(Ordering::Relaxed), 1_000 + 4 * 2_000);
    assert_eq!(locks.inflation_count(), 1, "one inflation, ever");

    println!("\nscenario statistics (Section 2's frequency ranking):");
    print!("{}", stats.snapshot());
    println!();
    Ok(())
}
