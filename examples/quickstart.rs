//! Quickstart: the thin-lock lifecycle on one object.
//!
//! Run with `cargo run --release --example quickstart`.
//!
//! Walks one object through the states of Figures 1 and 2 of the paper —
//! unlocked, thin-locked, nested, and (after a `notify`) permanently
//! inflated — printing the lock word at each step.

use thinlock::ThinLocks;
use thinlock_runtime::backend::SyncBackend;
use thinlock_runtime::protocol::{SyncProtocol, SyncProtocolExt};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A protocol instance owns a heap of objects and a thread registry.
    let locks = ThinLocks::with_capacity(16);

    // Every thread that synchronizes must register to get its 15-bit
    // thread index (the paper's thread-index table).
    let registration = locks.registry().register()?;
    let me = registration.token();

    let account = locks.heap().alloc()?;
    println!("fresh object:      {}", locks.lock_word(account));

    // Locking an unlocked object: one compare-and-swap.
    locks.lock(account, me)?;
    println!("after lock:        {}", locks.lock_word(account));

    // Nested locking: XOR test + add, no atomics.
    locks.lock(account, me)?;
    locks.lock(account, me)?;
    println!("nested twice more: {}", locks.lock_word(account));

    locks.unlock(account, me)?;
    locks.unlock(account, me)?;
    locks.unlock(account, me)?;
    println!("fully unlocked:    {}", locks.lock_word(account));

    // The RAII guard API — Java's `synchronized` block.
    locks.synchronized(account, me, || {
        println!("inside synchronized block");
    })?;

    // wait/notify force inflation (the monitor needs queues); inflation
    // is permanent, as in the paper.
    let guard = locks.enter(account, me)?;
    guard.notify()?;
    drop(guard);
    println!("after notify:      {}", locks.lock_word(account));
    println!("monitors created:  {}", locks.inflation_count());

    Ok(())
}
