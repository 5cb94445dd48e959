//! The pluggable invariant suite checked at every quiescent state.
//!
//! Each check compares the physical lock words (and fat monitors)
//! against the ground-truth model the worker bodies maintain
//! ([`DriverState`]): a worker's model depth for an object counts its
//! completed `lock`s minus completed `unlock`s, and is exempt from
//! physical-state checks while the worker is inside a `wait` (it
//! logically holds the lock but has physically released it — exactly
//! Java's wait semantics).
//!
//! Checks are *forward-only*: every schedule point sits before its
//! step's effect, and the model updates only after an op returns, so at
//! a quiescent state the model never runs ahead of the physical words
//! in a correct protocol. Any divergence is a protocol bug (or a seeded
//! mutation — the mutation suite demands these checks catch every one).
//!
//! The suite is backend-parameterized through [`SyncBackend`]: the
//! physical state is read through [`SyncBackend::probe_word`] and
//! [`SyncBackend::monitor_probe`], and the shape-transition invariant
//! adapts to [`SyncBackend::deflation_capable`]:
//!
//! * **one-way-inflation** (thin backend): the shape bit never goes
//!   fat → thin, period.
//! * **deflation-safety** (CJM): a fat → thin transition is
//!   legal only from a quiescent monitor. The previous quiescent state's
//!   probe must have shown nest count ≤ 1 and an empty wait set —
//!   schedule points are dense enough that a correct protocol can never
//!   jump from a deeper or waited-on monitor to a neutral word within
//!   one granted step. (A non-empty *entry* queue is allowed: a
//!   contender that enqueued after the deflater's quiescence snapshot
//!   revalidates and retries, which is the deflate-vs-acquire race the
//!   protocol is designed to lose gracefully.)

use thinlock_runtime::backend::{MonitorProbe, SyncBackend};
use thinlock_runtime::heap::ObjRef;
use thinlock_runtime::registry::ThreadToken;

use crate::program::{DriverState, Violation};

/// Per-execution sticky state for the invariant suite: each object's
/// header byte at birth (locking must never disturb it), whether the
/// object has ever been observed fat, and — for deflation-capable
/// backends — the monitor probe from the most recent quiescent state in
/// which the object was fat, which decides whether an observed
/// deflation was safe.
#[derive(Debug)]
pub struct InvariantState {
    birth_header: Vec<u8>,
    fat_seen: Vec<bool>,
    last_fat_probe: Vec<Option<MonitorProbe>>,
}

impl InvariantState {
    /// Captures the birth state of the program objects.
    pub fn new(backend: &dyn SyncBackend, objs: &[ObjRef]) -> Self {
        InvariantState {
            birth_header: objs
                .iter()
                .map(|&o| backend.probe_word(o).header_bits())
                .collect(),
            fat_seen: vec![false; objs.len()],
            last_fat_probe: vec![None; objs.len()],
        }
    }

    /// Checks every state invariant against the current quiescent
    /// state, returning the first violation.
    pub fn check_state(
        &mut self,
        backend: &dyn SyncBackend,
        objs: &[ObjRef],
        tokens: &[ThreadToken],
        driver: &DriverState,
    ) -> Option<Violation> {
        let (depth, waiting_on) = driver.model();
        for (oi, &obj) in objs.iter().enumerate() {
            let word = backend.probe_word(obj);
            let probe = backend.monitor_probe(obj);

            // Lock-word well-formedness: the low header byte survives
            // every protocol step, a fat word's monitor index resolves,
            // and an ownerless thin word cannot carry a nest count.
            if word.header_bits() != self.birth_header[oi] {
                return Some((
                    "well-formed-word",
                    format!(
                        "obj{oi}: header byte stomped ({:#04x} -> {:#04x})",
                        self.birth_header[oi],
                        word.header_bits()
                    ),
                ));
            }
            if word.is_fat() && probe.is_none() {
                return Some((
                    "well-formed-word",
                    format!("obj{oi}: fat word's monitor index resolves to no monitor"),
                ));
            }
            if word.is_thin_shape() && word.thin_owner().is_none() && word.thin_count() != 0 {
                return Some((
                    "well-formed-word",
                    format!(
                        "obj{oi}: thin word with no owner carries nest count {}",
                        word.thin_count()
                    ),
                ));
            }

            // Shape-transition invariant, keyed by backend capability.
            if self.fat_seen[oi] && !word.is_fat() {
                if !backend.deflation_capable() {
                    return Some((
                        "one-way-inflation",
                        format!(
                            "obj{oi}: deflated after inflation (word {:#010x})",
                            word.bits()
                        ),
                    ));
                }
                let last = self.last_fat_probe[oi]
                    .take()
                    .expect("fat_seen implies a recorded probe");
                if last.count > 1 || last.wait_set_len > 0 {
                    return Some((
                        "deflation-safety",
                        format!(
                            "obj{oi}: deflated from a non-quiescent monitor \
                             (last fat probe: count {}, wait set {})",
                            last.count, last.wait_set_len
                        ),
                    ));
                }
                self.fat_seen[oi] = false;
            }
            if word.is_fat() {
                self.fat_seen[oi] = true;
                self.last_fat_probe[oi] = probe;
            }

            // Mutual exclusion over the model: workers whose completed
            // ops say they hold the lock (and are not parked in a wait).
            let holders: Vec<usize> = (0..depth.len())
                .filter(|&w| depth[w][oi] > 0 && waiting_on[w] != Some(oi))
                .collect();
            if holders.len() > 1 {
                return Some((
                    "mutual-exclusion",
                    format!("obj{oi}: workers {holders:?} hold the lock simultaneously"),
                ));
            }

            // Word conformance: a model holder must be visible in the
            // physical state with the same owner and nesting depth.
            if let [w] = holders[..] {
                let d = depth[w][oi];
                let me = tokens[w].index();
                let conforms = if word.is_fat() {
                    backend
                        .monitor_probe(obj)
                        .map(|m| m.owner == Some(me) && m.count == d)
                        .unwrap_or(false)
                } else {
                    word.thin_owner() == Some(me) && u32::from(word.thin_count()) + 1 == d
                };
                if !conforms {
                    return Some((
                        "word-conformance",
                        format!(
                            "obj{oi}: model says worker {w} holds at depth {d}, word is {:#010x}",
                            word.bits()
                        ),
                    ));
                }
            }
        }
        None
    }

    /// End-of-execution checks once every worker completed: all locks
    /// released physically and in the model.
    pub fn check_end(
        &mut self,
        backend: &dyn SyncBackend,
        objs: &[ObjRef],
        tokens: &[ThreadToken],
        driver: &DriverState,
    ) -> Option<Violation> {
        if let Some(v) = self.check_state(backend, objs, tokens, driver) {
            return Some(v);
        }
        let (depth, _) = driver.model();
        for (oi, &obj) in objs.iter().enumerate() {
            let word = backend.probe_word(obj);
            let released = if word.is_fat() {
                backend
                    .monitor_probe(obj)
                    .map(|m| m.owner.is_none() && m.wait_set_len == 0)
                    .unwrap_or(false)
            } else {
                word.is_unlocked()
            };
            if !released {
                return Some((
                    "unreleased-at-exit",
                    format!(
                        "obj{oi}: still held after all workers finished (word {:#010x})",
                        word.bits()
                    ),
                ));
            }
            for (w, d) in depth.iter().enumerate() {
                if d[oi] != 0 {
                    return Some((
                        "unreleased-at-exit",
                        format!("obj{oi}: worker {w} model depth {} at exit", d[oi]),
                    ));
                }
            }
        }
        None
    }
}
