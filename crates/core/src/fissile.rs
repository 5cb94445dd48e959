//! Fissile locks: a thin test-and-set fast path that *fissions* into a
//! FIFO ticket queue under contention and re-coheres when the queue
//! drains (after Dice & Kogan, "Fissile Locks", arXiv:2003.05025).
//!
//! The thin protocol answers contention by spinning and then inflating
//! — permanently, and with no fairness guarantee while thin: whichever
//! spinner's CAS lands first wins, so one thread can barge indefinitely.
//! Fissile locks keep the paper's lock word and fast path bit-identical
//! to [`ThinLocks`](crate::thin::ThinLocks) but move the contention
//! response out of the word entirely, into a per-object mode byte plus
//! the crate-internal `ticket` side table:
//!
//! ```text
//!                 spin budget exhausted (CAS)
//!   COHERED ────────────────────────────────────► FISSIONED
//!      ▲                                              │
//!      │        queue drained (last ticket            │ lockers draw
//!      │        retired, none outstanding)            │ FIFO tickets
//!      └──────────────────────────────────────────────┘
//!
//!   PINNED: FISSIONED forced by a pin (`SyncProtocol::pin_fifo_hint`);
//!   never re-coheres until [`release_fifo`](LockCore::release_fifo).
//! ```
//!
//! * **Cohered** — the fast path is the paper's single CAS and the
//!   common-case unlock is the paper's plain store. Unlike thin, a
//!   spinner that finally wins the word does *not* inflate: contention
//!   is answered by fission, so inflation is reserved for
//!   `wait`/`notify`, count overflow, and pre-inflation hints.
//! * **Fissioned** — blocking acquisitions draw a ticket and are
//!   admitted in FIFO order; mutual exclusion itself is still the word
//!   CAS, so `try_lock` and deadline-bounded acquisitions can barge
//!   (they hold no ticket and never stall the queue: only a ticketed
//!   holder retires a hand-off, before it clears the word — see the
//!   `ticket` module).
//! * **Re-cohesion** — the release that retires the last outstanding
//!   ticket flips the mode back to cohered once it has cleared the
//!   word, restoring the featherweight fast path once contention has
//!   drained.
//!
//! Because every queueing structure lives outside the lock word, the
//! word obeys the same invariants as the thin backend (header
//! preservation, owner-only writes, one-way inflation) and the model
//! checker's word-conformance sweep applies unchanged. The [`Fissile`]
//! policy is only the mode byte and the spin budget over the shared
//! [`LockCore`]; the admission loop, the ticketed release and the
//! ticket-aware orphan sweep are shared with [`hapax`](crate::hapax).
//!
//! # Fission lifecycle
//!
//! ```
//! use thinlock::FissileLocks;
//! use thinlock_runtime::backend::SyncBackend;
//! use thinlock_runtime::protocol::SyncProtocol;
//!
//! let locks = FissileLocks::with_capacity(8);
//! let reg = locks.registry().register()?;
//! let me = reg.token();
//! let obj = locks.heap().alloc()?;
//!
//! assert!(!locks.is_fissioned(obj));
//! assert!(locks.fission(obj));      // what exhausting the spin budget does
//! locks.lock(obj, me)?;             // draws ticket 0, admitted at once
//! assert!(locks.is_fissioned(obj));
//! locks.unlock(obj, me)?;           // retires the last ticket...
//! assert!(!locks.is_fissioned(obj)); // ...so the lock re-coheres
//! assert_eq!(locks.inflation_count(), 0, "fission is not inflation");
//! # Ok::<(), thinlock_runtime::SyncError>(())
//! ```

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use thinlock_runtime::heap::{Heap, ObjRef};
use thinlock_runtime::hooks::Hooks;
use thinlock_runtime::registry::ThreadRegistry;

use crate::config::{DynamicConfig, FastPathConfig};
use crate::lockcore::{LockCore, Policy};
use crate::ticket::TicketLedger;

/// Spin rounds a cohered contender tolerates before fissioning the
/// lock. Small by design: Dice & Kogan size the TS phase to cover only
/// short critical sections, handing longer contention to the queue.
const FISSION_SPIN_BUDGET: u64 = 6;

/// Mode byte: featherweight fast path, no queue.
const COHERED: u8 = 0;
/// Mode byte: blocking lockers draw FIFO tickets.
const FISSIONED: u8 = 1;
/// Mode byte: fissioned by a pin; exempt from re-cohesion.
const PINNED: u8 = 2;

/// The fissile rule: spin against a small budget, then fission the
/// object into FIFO ticket admission until its queue drains.
#[derive(Debug)]
pub struct Fissile {
    tickets: TicketLedger,
    modes: Box<[AtomicU8]>,
}

impl Fissile {
    #[inline]
    fn mode(&self, obj: ObjRef) -> u8 {
        self.modes[obj.index()].load(Ordering::Acquire)
    }

    /// `from` → `to`; loses benignly to a concurrent transition or a pin.
    #[inline]
    fn shift(&self, obj: ObjRef, from: u8, to: u8) -> bool {
        self.modes[obj.index()]
            .compare_exchange(from, to, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

impl Policy for Fissile {
    const NAME: &'static str = "Fissile";
    const TYPE_NAME: &'static str = "FissileLocks";
    const FISSION_BUDGET: Option<u64> = Some(FISSION_SPIN_BUDGET);

    #[inline]
    fn tickets(&self) -> Option<&TicketLedger> {
        Some(&self.tickets)
    }

    #[inline]
    fn queue(&self, obj: ObjRef) -> Option<&TicketLedger> {
        (self.mode(obj) != COHERED).then_some(&self.tickets)
    }

    #[inline]
    fn fission(&self, obj: ObjRef) {
        // A lost CAS means someone else just fissioned (or pinned) it.
        self.shift(obj, COHERED, FISSIONED);
    }

    /// The release that retires the last outstanding ticket re-coheres
    /// the lock; a pinned object stays fissioned.
    #[inline]
    fn retired(&self, obj: ObjRef) {
        if self.tickets.outstanding(obj) == 0 {
            self.shift(obj, FISSIONED, COHERED);
        }
    }

    #[inline]
    fn pin(&self, obj: ObjRef) -> bool {
        self.modes[obj.index()].store(PINNED, Ordering::Release);
        true
    }
}

/// The fissile-lock protocol: thin fast path, FIFO queue under
/// contention, re-cohesion when the queue drains. See the module docs
/// for the mode machine.
pub type FissileLocks = LockCore<Fissile>;

impl FissileLocks {
    /// Creates a protocol over a fresh heap of `capacity` objects.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::new(
            Arc::new(Heap::with_capacity(capacity)),
            ThreadRegistry::new(),
        )
    }

    /// Creates a protocol over an existing heap and registry. The
    /// monitor table, ticket ledger and mode bytes are sized to the heap.
    pub fn new(heap: Arc<Heap>, registry: ThreadRegistry) -> Self {
        let objects = heap.capacity();
        let policy = Fissile {
            tickets: TicketLedger::new(objects, registry.max_threads()),
            modes: (0..objects).map(|_| AtomicU8::new(COHERED)).collect(),
        };
        LockCore::from_parts(heap, registry, policy, DynamicConfig::default(), objects)
    }
}

impl<C: FastPathConfig, H: Hooks> LockCore<Fissile, C, H> {
    /// True while `obj` is in a fissioned mode (including pinned) —
    /// blocking acquisitions are drawing FIFO tickets.
    pub fn is_fissioned(&self, obj: ObjRef) -> bool {
        self.policy.mode(obj) != COHERED
    }

    /// Fissions `obj` by hand — exactly what a contender does when its
    /// spin budget runs out. Returns `false` if the object was already
    /// fissioned (or pinned). Unlike inflation this is reversible: the
    /// release that drains the queue re-coheres the lock.
    pub fn fission(&self, obj: ObjRef) -> bool {
        self.policy.shift(obj, COHERED, FISSIONED)
    }

    /// Releases a pin, restoring the cohered fast path. Outstanding
    /// tickets keep draining: each ticketed holder still retires its
    /// hand-off on release. New lockers go back to the thin fast path.
    pub fn release_fifo(&self, obj: ObjRef) {
        self.policy.modes[obj.index()].store(COHERED, Ordering::Release);
    }

    /// True while `obj` is pinned.
    pub fn pinned(&self, obj: ObjRef) -> bool {
        self.policy.mode(obj) == PINNED
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;
    use thinlock_runtime::backend::SyncBackend;
    use thinlock_runtime::protocol::SyncProtocol;

    fn fresh(capacity: usize) -> FissileLocks {
        FissileLocks::with_capacity(capacity)
    }

    crate::conformance::rows!(fresh);

    #[test]
    fn forced_fission_recoheres_when_queue_drains() {
        let p = fresh(4);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        assert!(p.fission(obj));
        assert!(!p.fission(obj), "second fission is a no-op");
        p.lock(obj, t).unwrap();
        assert!(p.is_fissioned(obj));
        assert!(p.holds_lock(obj, t));
        p.unlock(obj, t).unwrap();
        assert!(!p.is_fissioned(obj), "drained queue re-coheres");
        assert!(p.lock_word(obj).is_unlocked());
        assert_eq!(p.inflation_count(), 0);
        // And the cohered fast path works again.
        p.lock(obj, t).unwrap();
        p.unlock(obj, t).unwrap();
    }

    #[test]
    fn pinning_survives_queue_drain() {
        let p = fresh(4);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        p.pin_fifo_hint(obj);
        assert!(p.pinned(obj));
        p.lock(obj, t).unwrap();
        p.unlock(obj, t).unwrap();
        assert!(p.pinned(obj), "drain does not unpin");
        p.release_fifo(obj);
        assert!(!p.is_fissioned(obj));
    }

    #[test]
    fn contention_fissions_instead_of_inflating() {
        let p = Arc::new(fresh(4));
        let obj = p.heap().alloc().unwrap();
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let owner = {
            let p = Arc::clone(&p);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let r = p.registry().register().unwrap();
                let t = r.token();
                p.lock(obj, t).unwrap();
                barrier.wait();
                thread::sleep(Duration::from_millis(30));
                p.unlock(obj, t).unwrap();
            })
        };
        let r = p.registry().register().unwrap();
        let t = r.token();
        barrier.wait();
        p.lock(obj, t).unwrap(); // exhausts the budget, fissions, queues
        assert!(p.holds_lock(obj, t));
        assert_eq!(p.inflation_count(), 0, "contention must not inflate");
        p.unlock(obj, t).unwrap();
        owner.join().unwrap();
        assert!(!p.is_fissioned(obj), "queue drained, lock re-cohered");
    }

    #[test]
    fn nesting_works_in_both_modes() {
        let p = fresh(4);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        for mode in 0..2 {
            if mode == 1 {
                p.fission(obj);
            }
            for depth in 1..=5u8 {
                p.lock(obj, t).unwrap();
                assert_eq!(p.lock_word(obj).thin_count(), depth - 1);
            }
            for _ in 0..5 {
                p.unlock(obj, t).unwrap();
            }
            assert!(p.lock_word(obj).is_unlocked());
        }
        assert_eq!(p.inflation_count(), 0);
    }

    #[test]
    fn inflation_diverts_a_fissioned_queue() {
        // Fission first, then inflate via a hint: queued acquisitions
        // must divert to the fat monitor instead of stalling on
        // stranded tickets.
        let p = fresh(4);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        p.fission(obj);
        assert!(p.pre_inflate(obj).unwrap());
        p.lock(obj, t).unwrap();
        assert!(p.holds_lock(obj, t));
        p.unlock(obj, t).unwrap();
        assert!(p.lock_word(obj).is_fat(), "inflation is permanent");
    }

    #[test]
    fn orphan_sweep_retires_dead_ticketed_owner() {
        let p = Arc::new(fresh(4).with_orphan_recovery());
        let obj = p.heap().alloc().unwrap();
        p.fission(obj);
        {
            let r = p.registry().register().unwrap();
            p.lock(obj, r.token()).unwrap(); // ticketed acquisition
            assert!(p.is_fissioned(obj));
            // Dies owning the lock: the sweeper must clear the word AND
            // retire the hand-off so the queue is not wedged.
        }
        assert!(p.lock_word(obj).is_unlocked(), "sweeper cleared the word");
        assert!(!p.is_fissioned(obj), "sweeper re-cohered the drained queue");
        // A pinned object keeps its pin through the same repair.
        p.pin_fifo_hint(obj);
        {
            let r = p.registry().register().unwrap();
            p.lock(obj, r.token()).unwrap();
        }
        assert!(p.lock_word(obj).is_unlocked());
        assert!(p.pinned(obj), "sweep retires the ticket but keeps the pin");
        let r = p.registry().register().unwrap();
        let t = r.token();
        p.lock(obj, t).unwrap();
        p.unlock(obj, t).unwrap();
    }

    #[test]
    fn try_lock_barges_while_fissioned() {
        let p = fresh(4);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        p.fission(obj);
        assert!(p.try_lock(obj, t).unwrap(), "barger ignores the queue");
        assert!(p.holds_lock(obj, t));
        p.unlock(obj, t).unwrap();
        assert!(p.lock_word(obj).is_unlocked());
    }
}
