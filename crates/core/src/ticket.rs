//! FIFO admission tickets shared by the [`fissile`](crate::fissile) and
//! [`hapax`](crate::hapax) policies: the ledger, and the one admission
//! loop both queue through. The ticketed release (snapshot, clear,
//! retire) and the ticket-aware orphan sweep live in the
//! [`lockcore`](crate::lockcore) paths they extend.
//!
//! Both protocols keep the object's lock word bit-identical to the thin
//! protocol and move their queueing state entirely into this side
//! table, so every word-shape invariant (header preservation, one-way
//! inflation, word conformance in the model checker) holds unchanged.
//! Per object the ledger is a classic ticket lock split in two:
//!
//! * `next` — the arrival counter; one `fetch_add` per blocking
//!   acquisition ("constant-time arrival").
//! * `serving` — the grant counter; a ticket is *admitted* once
//!   `serving` has caught up with it (wrapping compare, so the u32
//!   counters can run forever).
//! * `admitted` — the ticket of the ticketed thread currently holding
//!   the word, stored as `ticket + 1` in 64 bits so the value `0`
//!   unambiguously means "no ticketed owner" even after `u32` ticket
//!   wraparound.
//!
//! The `admitted` cell carries the hand-off obligation across the
//! release: a releaser (the owner itself, a barging `try_lock` winner
//! that slipped in between the owner's word-clear and its bookkeeping,
//! or the orphan sweeper acting for a dead owner) snapshots `admitted`
//! *before* clearing the word and then retires the snapshot with a
//! compare-exchange. The compare-exchange makes the serving bump
//! exactly-once no matter how many releasers race — the invariant the
//! chaos kill-runs lean on.
//!
//! Admission enabledness also has to be visible to the model checker,
//! which must not grant a spin step to a thread whose ticket has not
//! come up. Each blocked thread therefore publishes `(object, ticket)`
//! in a per-thread slot while it waits; the core's `spin_enabled` reads
//! it back.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use thinlock_runtime::backoff::Backoff;
use thinlock_runtime::error::SyncResult;
use thinlock_runtime::fault::InjectionPoint;
use thinlock_runtime::heap::ObjRef;
use thinlock_runtime::hooks::{Hooks, Site};
use thinlock_runtime::registry::ThreadToken;
use thinlock_runtime::schedule::SchedPoint;

use crate::config::FastPathConfig;
use crate::lockcore::{BlockedOnGuard, LockCore, Policy};

/// One object's ticket counters. See the module docs for the roles.
#[derive(Debug, Default)]
struct TicketState {
    /// Arrival counter: the next ticket to hand out.
    next: AtomicU32,
    /// Grant counter: tickets strictly below it (wrapping) are retired;
    /// the ticket equal to it is the one currently admitted.
    serving: AtomicU32,
    /// `ticket + 1` of the ticketed thread holding the word, 0 if none.
    admitted: AtomicU64,
}

/// One thread's wait publication, on a cache line of its own. Every
/// queued acquisition writes its thread's slot twice; two threads whose
/// slots shared a line would miss on each other's writes, and whether
/// they did depended on where the allocator placed the array.
#[derive(Debug, Default)]
#[repr(align(64))]
struct WaitSlot(AtomicU64);

/// The side table: per-object ticket counters plus per-thread
/// wait-publication slots, sized once at backend construction.
#[derive(Debug)]
pub struct TicketLedger {
    objects: Box<[TicketState]>,
    /// Indexed by `ThreadIndex::get()`; packs `(obj.index()+1) << 32 |
    /// ticket` while that thread blocks on an un-admitted ticket, 0
    /// otherwise.
    slots: Box<[WaitSlot]>,
}

// The lock paths that call these monomorphize in the backend's user
// crate, so each method is `#[inline]`: otherwise every ticket step is an
// out-of-line call there.
impl TicketLedger {
    /// A ledger for `objects` heap slots and thread indices up to
    /// `max_threads` (inclusive — index 0 is never issued but keeps the
    /// slot addressing direct).
    pub(crate) fn new(objects: usize, max_threads: u16) -> Self {
        TicketLedger {
            objects: (0..objects).map(|_| TicketState::default()).collect(),
            slots: (0..usize::from(max_threads) + 1)
                .map(|_| WaitSlot::default())
                .collect(),
        }
    }

    #[inline]
    fn state(&self, obj: ObjRef) -> &TicketState {
        &self.objects[obj.index()]
    }

    /// Draws the next arrival ticket for `obj` — one wrapping
    /// `fetch_add`, the constant-time arrival step.
    #[inline]
    pub(crate) fn take_ticket(&self, obj: ObjRef) -> u32 {
        self.state(obj).next.fetch_add(1, Ordering::AcqRel)
    }

    /// True once `serving` has reached `ticket` (wrapping compare):
    /// the ticket holder may now contend for the word.
    #[inline]
    pub(crate) fn is_admitted(&self, obj: ObjRef, ticket: u32) -> bool {
        let serving = self.state(obj).serving.load(Ordering::Acquire);
        serving.wrapping_sub(ticket) as i32 >= 0
    }

    /// Records that the admitted `ticket` won the word, arming the
    /// hand-off obligation its release will retire.
    #[inline]
    pub(crate) fn record_admitted(&self, obj: ObjRef, ticket: u32) {
        self.state(obj)
            .admitted
            .store(u64::from(ticket) + 1, Ordering::Release);
    }

    /// Snapshot of the pending hand-off obligation — call *before*
    /// clearing the lock word, so the value is either 0 or the
    /// obligation this release must retire (never a future owner's).
    #[inline]
    pub(crate) fn admitted_snapshot(&self, obj: ObjRef) -> u64 {
        self.state(obj).admitted.load(Ordering::Acquire)
    }

    /// Retires a nonzero [`admitted_snapshot`](Self::admitted_snapshot)
    /// and bumps `serving`, admitting the next ticket. Returns `true`
    /// if this call won the retirement; racing releasers (owner vs.
    /// barger vs. orphan sweeper) agree via the compare-exchange that
    /// exactly one of them bumps.
    #[inline]
    pub(crate) fn retire_admitted(&self, obj: ObjRef, snapshot: u64) -> bool {
        if snapshot == 0 {
            return false;
        }
        let state = self.state(obj);
        if state
            .admitted
            .compare_exchange(snapshot, 0, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            state.serving.fetch_add(1, Ordering::AcqRel);
            true
        } else {
            false
        }
    }

    /// Tickets issued but not yet retired. 0 means the queue has fully
    /// drained — the fissile re-cohesion precondition.
    #[inline]
    pub(crate) fn outstanding(&self, obj: ObjRef) -> u32 {
        let state = self.state(obj);
        let next = state.next.load(Ordering::Acquire);
        let serving = state.serving.load(Ordering::Acquire);
        next.wrapping_sub(serving)
    }

    /// Publishes "thread `t` is blocked on `ticket` for `obj`" for the
    /// model checker's enabledness probe.
    #[inline]
    pub(crate) fn publish_wait(&self, t: ThreadToken, obj: ObjRef, ticket: u32) {
        if let Some(slot) = self.slots.get(usize::from(t.index().get())) {
            let packed = ((obj.index() as u64 + 1) << 32) | u64::from(ticket);
            slot.0.store(packed, Ordering::Release);
        }
    }

    /// Clears the thread's wait publication (on word win, fat
    /// diversion, or error exit).
    #[inline]
    pub(crate) fn clear_wait(&self, t: ThreadToken) {
        if let Some(slot) = self.slots.get(usize::from(t.index().get())) {
            slot.0.store(0, Ordering::Release);
        }
    }

    /// Clears a slot by raw thread index — the orphan sweeper's form,
    /// run while the dead thread's index is in limbo so a recycled
    /// index never inherits a stale publication.
    #[inline]
    pub(crate) fn clear_wait_index(&self, index: thinlock_runtime::lockword::ThreadIndex) {
        if let Some(slot) = self.slots.get(usize::from(index.get())) {
            slot.0.store(0, Ordering::Release);
        }
    }

    /// The ticket thread `t` has published for `obj`, if any.
    #[inline]
    pub(crate) fn waiting_ticket(&self, t: ThreadToken, obj: ObjRef) -> Option<u32> {
        let slot = self.slots.get(usize::from(t.index().get()))?;
        let packed = slot.0.load(Ordering::Acquire);
        if packed >> 32 == obj.index() as u64 + 1 {
            Some(packed as u32)
        } else {
            None
        }
    }
}

impl<P: Policy, C: FastPathConfig, H: Hooks> LockCore<P, C, H> {
    /// Queued acquisition: constant-time arrival (one ticket draw),
    /// admission in ticket order, then the word CAS. Mutual exclusion is
    /// still the word, so a barger (`try_lock`, `lock_deadline`) can take
    /// it between admissions; the admitted thread simply re-checks.
    /// Inflation permanently diverts the whole queue to the fat monitor —
    /// stranded tickets are harmless because every iteration checks for
    /// the fat shape first. `announced` says whether this acquisition
    /// already passed [`SchedPoint::LockFast`].
    pub(crate) fn queue_lock(
        &self,
        obj: ObjRef,
        t: ThreadToken,
        tickets: &TicketLedger,
        mut waiting: BlockedOnGuard,
        announced: bool,
    ) -> SyncResult<()> {
        let cell = self.cell(obj);
        let word = cell.load_acquire();
        if word.is_fat() && self.lock_fat(obj, t, word, &mut waiting)? {
            return Ok(());
        }
        // Every queued acquisition announces itself once before it draws
        // a ticket, so the model checker owns the arrival order: here,
        // unless it already did so at the fast path (a fissile contender
        // that spent its spin budget).
        if !announced {
            self.reach(SchedPoint::LockFast, obj);
        }
        let ticket = tickets.take_ticket(obj);
        tickets.publish_wait(t, obj, ticket);
        let mut backoff =
            Backoff::jittered(self.config().spin_policy(), u64::from(t.index().get()));
        loop {
            let word = cell.load_acquire();
            if word.is_fat() {
                tickets.clear_wait(t);
                if self.lock_fat(obj, t, word, &mut waiting)? {
                    return Ok(());
                }
                continue;
            }
            if tickets.is_admitted(obj, ticket) && word.is_unlocked() {
                if self.slow_cas(obj, t, word) {
                    tickets.clear_wait(t);
                    tickets.record_admitted(obj, ticket);
                    self.record_thin_acquire(obj, t, backoff.rounds());
                    return Ok(());
                }
                // Lost the word to a barger; re-check from the top.
                continue;
            }
            waiting.publish(&self.registry, t, obj);
            self.yield_point(
                Site::both(SchedPoint::LockSpin, InjectionPoint::LockSpin),
                obj,
            );
            backoff.snooze();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinlock_runtime::registry::ThreadRegistry;

    fn obj(i: usize) -> ObjRef {
        ObjRef::from_index(i)
    }

    #[test]
    fn tickets_admit_in_fifo_order() {
        let ledger = TicketLedger::new(2, 8);
        let a = ledger.take_ticket(obj(0));
        let b = ledger.take_ticket(obj(0));
        assert_eq!((a, b), (0, 1));
        assert!(ledger.is_admitted(obj(0), a));
        assert!(!ledger.is_admitted(obj(0), b));
        ledger.record_admitted(obj(0), a);
        let snap = ledger.admitted_snapshot(obj(0));
        assert!(ledger.retire_admitted(obj(0), snap));
        assert!(ledger.is_admitted(obj(0), b));
        assert_eq!(ledger.outstanding(obj(0)), 1);
    }

    #[test]
    fn retirement_is_exactly_once_across_racing_releasers() {
        let ledger = TicketLedger::new(1, 8);
        let t = ledger.take_ticket(obj(0));
        ledger.record_admitted(obj(0), t);
        let snap = ledger.admitted_snapshot(obj(0));
        // Owner and a barger both snapshotted the same obligation; only
        // one retirement may bump `serving`.
        assert!(ledger.retire_admitted(obj(0), snap));
        assert!(!ledger.retire_admitted(obj(0), snap));
        assert!(!ledger.retire_admitted(obj(0), 0));
        assert_eq!(ledger.outstanding(obj(0)), 0);
    }

    #[test]
    fn admission_survives_u32_wraparound() {
        let ledger = TicketLedger::new(1, 8);
        let state = ledger.state(obj(0));
        state.next.store(u32::MAX, Ordering::Relaxed);
        state.serving.store(u32::MAX, Ordering::Relaxed);
        let t = ledger.take_ticket(obj(0));
        assert_eq!(t, u32::MAX);
        assert!(ledger.is_admitted(obj(0), t));
        ledger.record_admitted(obj(0), t);
        assert!(ledger.retire_admitted(obj(0), ledger.admitted_snapshot(obj(0))));
        let wrapped = ledger.take_ticket(obj(0));
        assert_eq!(wrapped, 0, "arrival counter wrapped");
        assert!(ledger.is_admitted(obj(0), wrapped));
        assert_eq!(ledger.outstanding(obj(0)), 1);
    }

    #[test]
    fn wait_slots_round_trip_per_thread_and_object() {
        let ledger = TicketLedger::new(4, 8);
        let registry = ThreadRegistry::new();
        let ra = registry.register().unwrap();
        let rb = registry.register().unwrap();
        ledger.publish_wait(ra.token(), obj(2), 7);
        assert_eq!(ledger.waiting_ticket(ra.token(), obj(2)), Some(7));
        assert_eq!(ledger.waiting_ticket(ra.token(), obj(1)), None);
        assert_eq!(ledger.waiting_ticket(rb.token(), obj(2)), None);
        ledger.publish_wait(rb.token(), obj(0), 0);
        assert_eq!(ledger.waiting_ticket(rb.token(), obj(0)), Some(0));
        ledger.clear_wait(ra.token());
        assert_eq!(ledger.waiting_ticket(ra.token(), obj(2)), None);
    }
}
