//! End-to-end orphaned-lock recovery: a registration dropped while its
//! thread owns locks must leave the runtime fully usable, and — the
//! ABA-critical property — a *reused* thread index must be able to
//! acquire an object its previous holder orphaned.

use std::sync::Arc;

use thinlock::ThinLocks;
use thinlock_fault::FaultPlan;
use thinlock_runtime::error::SyncError;
use thinlock_runtime::fault::{FaultAction, InjectionPoint};
use thinlock_runtime::heap::Heap;
use thinlock_runtime::hooks::HookSet;
use thinlock_runtime::protocol::SyncProtocol;
use thinlock_runtime::registry::ThreadRegistry;

/// The acceptance scenario: with a single-index registry, the next
/// registration is guaranteed to reuse the dead thread's index, and it
/// must find the orphaned object unlocked — proving the sweep ran
/// *before* the index went back into circulation (otherwise the reused
/// index would appear to already own the orphan: thin-lock ABA).
#[test]
fn reused_thread_index_can_acquire_previously_orphaned_object() {
    let heap = Arc::new(Heap::with_capacity(4));
    let registry = ThreadRegistry::with_max_threads(1);
    let locks = ThinLocks::new(Arc::clone(&heap), registry).with_orphan_recovery();
    let obj = heap.alloc().unwrap();

    let reg = locks.registry().register().unwrap();
    let old = reg.token();
    locks.lock(obj, old).unwrap();
    locks.lock(obj, old).unwrap(); // nested: count > 1 must also be swept
    assert_eq!(locks.owner_of(obj), Some(old.index()));
    drop(reg); // dies owning the lock

    assert_eq!(locks.owner_of(obj), None, "sweep cleared the orphan");

    let reg = locks.registry().register().unwrap();
    let new = reg.token();
    assert_eq!(
        new.index(),
        old.index(),
        "single-index registry must recycle the dead index"
    );
    locks.lock(obj, new).unwrap();
    assert!(locks.holds_lock(obj, new));
    locks.unlock(obj, new).unwrap();
    assert_eq!(locks.owner_of(obj), None);
}

/// Orphan recovery across inflation: a thread dies owning a fat lock,
/// and a blocked waiter (a different thread) gets the monitor.
#[test]
fn blocked_waiter_survives_owner_death_on_fat_lock() {
    let locks = Arc::new(ThinLocks::with_capacity(2).with_orphan_recovery());
    let obj = locks.heap().alloc().unwrap();
    locks.pre_inflate(obj).unwrap();

    let reg_owner = locks.registry().register().unwrap();
    let owner = reg_owner.token();
    locks.lock(obj, owner).unwrap();

    let waiter_locks = Arc::clone(&locks);
    let waiter = std::thread::spawn(move || {
        let reg = waiter_locks.registry().register().unwrap();
        let t = reg.token();
        waiter_locks.lock(obj, t).unwrap();
        let got = waiter_locks.holds_lock(obj, t);
        waiter_locks.unlock(obj, t).unwrap();
        got
    });

    // Give the waiter time to enqueue, then die owning the monitor.
    std::thread::sleep(std::time::Duration::from_millis(20));
    drop(reg_owner);

    assert!(waiter.join().unwrap(), "waiter acquired after owner death");
    assert_eq!(locks.owner_of(obj), None);
}

/// The sweep honors the `RegistryRelease` injection point (widening the
/// death-to-recycle window) and still recovers.
#[test]
fn sweep_recovers_under_release_injection() {
    let plan = Arc::new(FaultPlan::new(11).with_rule(
        InjectionPoint::RegistryRelease,
        FaultAction::Yield,
        thinlock_fault::PPM,
    ));
    let locks = ThinLocks::with_capacity(2)
        .with_hooks(HookSet::new().fault_injector(plan.clone()))
        .with_orphan_recovery();
    let obj = locks.heap().alloc().unwrap();

    let reg = locks.registry().register().unwrap();
    locks.lock(obj, reg.token()).unwrap();
    drop(reg);

    assert_eq!(locks.owner_of(obj), None);
    assert!(plan.fires(InjectionPoint::RegistryRelease) > 0);

    let reg = locks.registry().register().unwrap();
    assert!(locks.try_lock(obj, reg.token()).unwrap());
    locks.unlock(obj, reg.token()).unwrap();
}

/// Without orphan recovery, the hazard the sweep exists to prevent is
/// directly observable: the index recycles with the lock word still
/// carrying it, so a brand-new thread is mistaken for the dead owner
/// (thin-lock ABA) and "inherits" a lock it never took.
#[test]
fn without_recovery_a_recycled_index_inherits_the_orphan() {
    let locks = ThinLocks::with_capacity(2);
    let obj = locks.heap().alloc().unwrap();

    let reg = locks.registry().register().unwrap();
    let dead = reg.token();
    locks.lock(obj, dead).unwrap();
    drop(reg);

    // Orphan persists: the word still names the dead thread.
    assert_eq!(locks.owner_of(obj), Some(dead.index()));

    let reg = locks.registry().register().unwrap();
    let recycled = reg.token();
    assert_eq!(
        recycled.index(),
        dead.index(),
        "LIFO pool recycles the index"
    );
    assert!(
        locks.holds_lock(obj, recycled),
        "ABA: the fresh thread is mistaken for the dead owner"
    );

    // A thread under a *different* index sees the object as stuck.
    let other = locks.registry().register().unwrap();
    assert_eq!(locks.try_lock(obj, other.token()), Ok(false));
    assert_eq!(locks.unlock(obj, other.token()), Err(SyncError::NotOwner));
}
