//! Hapax locks: constant-time arrival, constant-time unlock, FIFO
//! admission (after "Hapax: Value-Based Mutual Exclusion",
//! arXiv:2511.14608).
//!
//! The thin protocol's contended path is a spin race: arrival costs
//! nothing but admission is decided by whichever CAS happens to land,
//! so under sustained contention one thread can starve the rest. Hapax
//! inverts the trade-off. Every blocking acquisition performs exactly
//! one `fetch_add` on arrival — drawing a ticket from the
//! crate-internal `ticket` side table — and threads are *admitted* to
//! contend for the word strictly in ticket order:
//!
//! ```text
//!   arrive:  ticket ← next.fetch_add(1)            (constant time)
//!   admit:   spin until serving ≥ ticket (wrapping) and word unlocked
//!   take:    CAS the word, admitted ← ticket + 1
//!   unlock:  admitted ← 0, serving ← ticket + 1, clear the word
//!                                                   (constant time)
//! ```
//!
//! Mutual exclusion itself is still the lock word — the ticket table
//! only *sequences* contenders — so the word stays bit-identical to the
//! thin backend's (header preservation, owner-only writes, one-way
//! inflation) and nesting, `wait`/`notify` inflation, count overflow,
//! and the fat-monitor path are unchanged. Only the word's holder
//! writes `admitted` and `serving`, so with the default store release
//! the unlock is three plain stores and no read-modify-write, where the
//! paper's is one store. `try_lock` and deadline-bounded acquisitions
//! hold no ticket and may barge; a barger finds no hand-off to retire,
//! and the admitted thread simply takes the word after it. Inflation
//! permanently diverts the queue to the fat monitor (every admission
//! iteration checks the fat shape first), so stranded tickets are
//! harmless. The [`Hapax`] policy is only "always queue" over the
//! shared [`LockCore`]; the admission loop, the ticketed release and
//! the ticket-aware orphan sweep are shared with
//! [`fissile`](crate::fissile), and no mode byte is read.
//!
//! The cost profile is the honest inverse of thin's: an uncontended
//! lock/unlock pays two read-modify-writes (the ticket `fetch_add` and
//! the word CAS) where thin pays one, plus three plain stores to the
//! ledger, and in exchange the contended path is first-come-first-served
//! with bounded hand-off — the fairness/tail benchmarks in
//! `thinlock-bench` measure exactly this trade.
//!
//! # FIFO hand-off
//!
//! ```
//! use std::sync::Arc;
//! use thinlock::HapaxLocks;
//! use thinlock_runtime::protocol::SyncProtocol;
//!
//! let locks = Arc::new(HapaxLocks::with_capacity(4));
//! let obj = locks.heap().alloc()?;
//! let reg = locks.registry().register()?;
//! let me = reg.token();
//!
//! locks.lock(obj, me)?;               // ticket 0: admitted at once
//! assert_eq!(locks.queue_depth(obj), 1);
//! let waiter = {
//!     let locks = Arc::clone(&locks);
//!     std::thread::spawn(move || {
//!         let reg = locks.registry().register().unwrap();
//!         let t = reg.token();
//!         locks.lock(obj, t).unwrap(); // ticket 1: queues behind us
//!         locks.unlock(obj, t).unwrap();
//!     })
//! };
//! while locks.queue_depth(obj) < 2 {  // the waiter has arrived...
//!     std::thread::yield_now();
//! }
//! locks.unlock(obj, me)?;             // ...and the release hands off
//! waiter.join().unwrap();
//! assert_eq!(locks.queue_depth(obj), 0, "queue drained");
//! # Ok::<(), thinlock_runtime::SyncError>(())
//! ```

use std::sync::Arc;

use thinlock_runtime::heap::{Heap, ObjRef};
use thinlock_runtime::hooks::Hooks;
use thinlock_runtime::registry::ThreadRegistry;

use crate::config::{DynamicConfig, FastPathConfig};
use crate::lockcore::{LockCore, Policy};
use crate::ticket::TicketLedger;

/// The hapax rule: every blocking acquisition draws a ticket and is
/// admitted in FIFO order.
#[derive(Debug)]
pub struct Hapax {
    tickets: TicketLedger,
}

impl Policy for Hapax {
    const NAME: &'static str = "Hapax";
    const TYPE_NAME: &'static str = "HapaxLocks";

    #[inline]
    fn tickets(&self) -> Option<&TicketLedger> {
        Some(&self.tickets)
    }

    #[inline]
    fn queue(&self, _obj: ObjRef) -> Option<&TicketLedger> {
        Some(&self.tickets)
    }

    /// Hapax admission is a ticket lock: every acquirer of every object
    /// already queues in FIFO order, so the pin is trivially honored.
    #[inline]
    fn pin(&self, _obj: ObjRef) -> bool {
        true
    }
}

/// The hapax-lock protocol: ticketed FIFO admission over the thin lock
/// word. See the module docs for the arrival/admit/unlock cycle.
pub type HapaxLocks = LockCore<Hapax>;

impl HapaxLocks {
    /// Creates a protocol over a fresh heap of `capacity` objects.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::new(
            Arc::new(Heap::with_capacity(capacity)),
            ThreadRegistry::new(),
        )
    }

    /// Creates a protocol over an existing heap and registry. The
    /// monitor table and ticket ledger are sized to the heap.
    pub fn new(heap: Arc<Heap>, registry: ThreadRegistry) -> Self {
        let objects = heap.capacity();
        let policy = Hapax {
            tickets: TicketLedger::new(objects, registry.max_threads()),
        };
        LockCore::from_parts(heap, registry, policy, DynamicConfig::default(), objects)
    }
}

impl<C: FastPathConfig, H: Hooks> LockCore<Hapax, C, H> {
    /// Tickets drawn for `obj` that have not yet been retired: the
    /// holder (if it arrived through `lock`) plus every queued thread.
    /// Advisory — the queue moves on concurrently.
    pub fn queue_depth(&self, obj: ObjRef) -> u32 {
        self.policy.tickets.outstanding(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::thread;
    use thinlock_runtime::backend::SyncBackend;
    use thinlock_runtime::protocol::SyncProtocol;

    fn fresh(capacity: usize) -> HapaxLocks {
        HapaxLocks::with_capacity(capacity)
    }

    crate::conformance::rows!(fresh);

    #[test]
    fn nesting_counts_without_new_tickets() {
        let p = fresh(4);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        for depth in 1..=5u8 {
            p.lock(obj, t).unwrap();
            assert_eq!(p.lock_word(obj).thin_count(), depth - 1);
        }
        assert_eq!(p.queue_depth(obj), 1, "one ticket for five acquisitions");
        for _ in 0..5 {
            p.unlock(obj, t).unwrap();
        }
        assert!(p.lock_word(obj).is_unlocked());
        assert_eq!(p.queue_depth(obj), 0);
    }

    #[test]
    fn admission_is_fifo_in_arrival_order() {
        let p = Arc::new(fresh(4));
        let obj = p.heap().alloc().unwrap();
        let holder = p.registry().register().unwrap();
        p.lock(obj, holder.token()).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        const WAITERS: u32 = 3;
        for k in 0..WAITERS {
            // Spawn strictly one at a time: waiter k has drawn its
            // ticket (queue_depth advanced) before k+1 starts, so
            // arrival order is deterministic.
            let p2 = Arc::clone(&p);
            let order = Arc::clone(&order);
            handles.push(thread::spawn(move || {
                let r = p2.registry().register().unwrap();
                let t = r.token();
                p2.lock(obj, t).unwrap();
                order.lock().unwrap().push(k);
                p2.unlock(obj, t).unwrap();
            }));
            while p.queue_depth(obj) < k + 2 {
                thread::yield_now();
            }
        }
        p.unlock(obj, holder.token()).unwrap();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2], "FIFO admission");
        assert_eq!(p.queue_depth(obj), 0);
        assert_eq!(p.inflation_count(), 0, "contention never inflates");
    }

    #[test]
    fn orphan_sweep_retires_dead_ticketed_owner() {
        let p = Arc::new(fresh(4).with_orphan_recovery());
        let obj = p.heap().alloc().unwrap();
        {
            // Dies owning a ticketed acquisition: the sweeper must clear
            // the word AND retire the hand-off so later tickets are
            // still admitted.
            let r = p.registry().register().unwrap();
            p.lock(obj, r.token()).unwrap();
        }
        assert!(p.lock_word(obj).is_unlocked(), "sweeper cleared the word");
        assert_eq!(p.queue_depth(obj), 0, "sweeper retired the ticket");
        let r = p.registry().register().unwrap();
        let t = r.token();
        p.lock(obj, t).unwrap();
        p.unlock(obj, t).unwrap();
    }

    #[test]
    fn try_lock_barges_without_a_ticket() {
        let p = fresh(4);
        let r = p.registry().register().unwrap();
        let t = r.token();
        let obj = p.heap().alloc().unwrap();
        assert!(p.try_lock(obj, t).unwrap());
        assert_eq!(p.queue_depth(obj), 0, "bargers draw no ticket");
        p.unlock(obj, t).unwrap();
        assert!(p.lock_word(obj).is_unlocked());
    }
}
