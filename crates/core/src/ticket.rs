//! FIFO admission tickets shared by the [`fissile`](crate::fissile) and
//! [`hapax`](crate::hapax) policies: the ledger, and the one admission
//! loop both queue through. The ticketed release (retire, then clear)
//! and the ticket-aware orphan sweep live in the
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
//! Only the word's holder writes `admitted` and `serving`, so neither
//! needs a read-modify-write. A ticketed thread records `admitted` just
//! after its word CAS, and its release retires the hand-off — `admitted`
//! back to 0, then `serving` to `ticket + 1` — *before* it clears the
//! word. While it holds the word `serving` equals its ticket, so the
//! store advances `serving` by one, wrapping, as a `fetch_add` would. A
//! thread that dies holding the word cannot release it; the registry's
//! exit sweep does so for it, and runs once per dead index, before the
//! index can be issued again, so a dead holder's hand-off is retired
//! exactly once too. Every later holder therefore finds
//! `admitted == 0`: a barger (`try_lock`, `lock_deadline`, a cohered
//! fissile fast path) holds no ticket and its release retires nothing.
//!
//! `serving` and `admitted` keep their own Release/Acquire orderings. A
//! ticketed successor reads its admission from `serving` with Acquire,
//! which orders its own `admitted` store after the predecessor's clear
//! of it. That a barger reads `admitted == 0` rests on the word instead:
//! the release clear of the word and the acquiring CAS, which every
//! ticketed backend's default profile (PowerPC MP) provides.
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
    /// hand-off its release will retire.
    #[inline]
    pub(crate) fn record_admitted(&self, obj: ObjRef, ticket: u32) {
        self.state(obj)
            .admitted
            .store(u64::from(ticket) + 1, Ordering::Release);
    }

    /// Retires the hand-off of the ticketed thread holding `obj`'s word,
    /// admitting the next ticket. Call only while the word still names
    /// that holder: from its release, or from the exit sweep for a dead
    /// one. Returns `false`, and writes nothing, when the holder holds
    /// no ticket.
    #[inline]
    pub(crate) fn retire_held(&self, obj: ObjRef) -> bool {
        let state = self.state(obj);
        let admitted = state.admitted.load(Ordering::Acquire);
        if admitted == 0 {
            return false;
        }
        state.admitted.store(0, Ordering::Release);
        // `admitted` is `ticket + 1`; truncated, it is the wrapping
        // successor of the ticket `serving` holds.
        state.serving.store(admitted as u32, Ordering::Release);
        true
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
    use std::sync::{mpsc, Arc, Mutex};
    use std::thread;
    use std::time::Duration;
    use thinlock_runtime::fault::{FaultAction, FaultInjector};
    use thinlock_runtime::heap::Heap;
    use thinlock_runtime::hooks::HookSet;
    use thinlock_runtime::lockword::LockWord;
    use thinlock_runtime::protocol::SyncProtocol;
    use thinlock_runtime::registry::ThreadRegistry;

    use crate::{FissileLocks, HapaxLocks};

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
        assert!(ledger.retire_held(obj(0)));
        assert!(ledger.is_admitted(obj(0), b));
        assert_eq!(ledger.outstanding(obj(0)), 1);
    }

    #[test]
    fn only_the_word_holder_retires_and_only_once() {
        let ledger = TicketLedger::new(1, 8);
        // A barger holds no ticket: its release finds nothing to retire.
        assert!(!ledger.retire_held(obj(0)));
        assert_eq!(ledger.outstanding(obj(0)), 0);
        let t = ledger.take_ticket(obj(0));
        let next = ledger.take_ticket(obj(0));
        ledger.record_admitted(obj(0), t);
        assert!(
            ledger.retire_held(obj(0)),
            "the holder admits the next ticket"
        );
        assert!(ledger.is_admitted(obj(0), next));
        assert_eq!(ledger.outstanding(obj(0)), 1);
        // The hand-off is retired: a second call, or a barger that takes
        // the word after the clear, admits no one else.
        assert!(!ledger.retire_held(obj(0)));
        assert!(!ledger.is_admitted(obj(0), next.wrapping_add(1)));
        assert_eq!(ledger.outstanding(obj(0)), 1);
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
        assert!(ledger.retire_held(obj(0)));
        let wrapped = ledger.take_ticket(obj(0));
        assert_eq!(wrapped, 0, "arrival counter wrapped");
        assert!(ledger.is_admitted(obj(0), wrapped));
        assert_eq!(ledger.outstanding(obj(0)), 1);
    }

    /// Sends `obj` to the ticket queue: a no-op on hapax, a fission on
    /// fissile.
    type Queue<P> = fn(&LockCore<P>, ObjRef);

    fn fissioned(p: &FissileLocks, obj: ObjRef) {
        assert!(p.fission(obj));
    }

    /// Records, at each release's yield point between retirement and the
    /// word clear, the word, whether ticket 1 is admitted, and the
    /// tickets outstanding.
    struct AtUnlockStore<P> {
        policy: Arc<P>,
        heap: Arc<Heap>,
        obj: ObjRef,
        seen: Mutex<Vec<(LockWord, bool, u32)>>,
    }

    impl<P: Policy> FaultInjector for AtUnlockStore<P> {
        fn decide(&self, point: InjectionPoint) -> FaultAction {
            if point == InjectionPoint::UnlockStore {
                let tickets = self.policy.tickets().unwrap();
                let word = self.heap.header(self.obj).lock_word().load_acquire();
                self.seen.lock().unwrap().push((
                    word,
                    tickets.is_admitted(self.obj, 1),
                    tickets.outstanding(self.obj),
                ));
            }
            FaultAction::Proceed
        }
    }

    /// The holder (ticket 0) admits the queued waiter (ticket 1) before
    /// it clears the word.
    fn release_admits_the_next_ticket_before_it_clears_the_word<P: Policy>(
        p: LockCore<P>,
        queue: Queue<P>,
    ) {
        let obj = p.heap().alloc().unwrap();
        queue(&p, obj);
        let probe = Arc::new(AtUnlockStore {
            policy: Arc::clone(&p.policy),
            heap: Arc::clone(&p.heap),
            obj,
            seen: Mutex::default(),
        });
        let p = Arc::new(p.with_hooks(HookSet::new().fault_injector(Arc::clone(&probe) as _)));
        let tickets = p.policy.tickets().unwrap();
        let r = p.registry().register().unwrap();
        let holder = r.token();
        p.lock(obj, holder).unwrap();
        let waiter = {
            let p = Arc::clone(&p);
            thread::spawn(move || {
                let r = p.registry().register().unwrap();
                p.lock(obj, r.token()).unwrap();
                p.unlock(obj, r.token()).unwrap();
            })
        };
        while tickets.outstanding(obj) < 2 {
            thread::yield_now();
        }
        p.unlock(obj, holder).unwrap();
        waiter.join().unwrap();
        let (word, admitted, outstanding) = probe.seen.lock().unwrap()[0];
        assert_eq!(
            word.thin_owner().map(|o| o.get()),
            Some(holder.index().get()),
            "the word still names the holder"
        );
        assert!(admitted, "the waiter is admitted before the clear");
        assert_eq!(outstanding, 1, "only the waiter's ticket is outstanding");
        assert_eq!(tickets.outstanding(obj), 0, "queue drained");
    }

    #[test]
    fn hapax_release_admits_the_next_ticket_before_it_clears_the_word() {
        release_admits_the_next_ticket_before_it_clears_the_word(
            HapaxLocks::with_capacity(4),
            |_, _| {},
        );
    }

    #[test]
    fn fissile_release_admits_the_next_ticket_before_it_clears_the_word() {
        release_admits_the_next_ticket_before_it_clears_the_word(
            FissileLocks::with_capacity(4),
            fissioned,
        );
    }

    /// A ticketed holder's registration drops while a second thread
    /// waits on the next ticket: the exit sweep retires the dead
    /// holder's ticket and clears the word, so the waiter gets in.
    fn dead_holder_hands_off_to_a_queued_waiter<P: Policy>(p: LockCore<P>, queue: Queue<P>) {
        let obj = p.heap().alloc().unwrap();
        queue(&p, obj);
        let p = Arc::new(p.with_orphan_recovery());
        let tickets = p.policy.tickets().unwrap();
        let r = p.registry().register().unwrap();
        p.lock(obj, r.token()).unwrap();
        let (acquired, got) = mpsc::channel();
        let waiter = {
            let p = Arc::clone(&p);
            thread::spawn(move || {
                let r = p.registry().register().unwrap();
                p.lock(obj, r.token()).unwrap();
                acquired.send(()).unwrap();
                p.unlock(obj, r.token()).unwrap();
            })
        };
        while tickets.outstanding(obj) < 2 {
            thread::yield_now();
        }
        drop(r); // the holder "dies" with the waiter queued behind it
        assert!(
            got.recv_timeout(Duration::from_secs(5)).is_ok(),
            "the queued waiter acquires after the sweep"
        );
        waiter.join().unwrap();
        assert_eq!(tickets.outstanding(obj), 0, "queue drained");
        assert!(p.lock_word(obj).is_unlocked());
    }

    #[test]
    fn hapax_dead_holder_hands_off_to_a_queued_waiter() {
        dead_holder_hands_off_to_a_queued_waiter(HapaxLocks::with_capacity(4), |_, _| {});
    }

    #[test]
    fn fissile_dead_holder_hands_off_to_a_queued_waiter() {
        dead_holder_hands_off_to_a_queued_waiter(FissileLocks::with_capacity(4), fissioned);
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
