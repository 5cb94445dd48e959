//! Static nest-depth bounds and pre-inflation hints.
//!
//! The thin-lock word stores the recursive lock count in 8 bits (count
//! field = holds − 1, so up to [`THIN_NEST_CAPACITY`] simultaneous holds
//! stay thin); one more acquisition forces an inflation *in the middle
//! of a critical section* — the paper's count-overflow path. This pass
//! computes, per pool object, an upper bound on how deeply any single
//! thread can nest that lock, interprocedurally: per-method bounds in
//! the method's own symbol namespace, substituted into callers at
//! `Invoke` sites and iterated to a saturating fixpoint. Recursion while
//! holding a lock never stabilizes and is reported as
//! [`Bound::Unbounded`].
//!
//! Any object whose bound exceeds the thin capacity yields a
//! *pre-inflation hint*: the interpreter inflates it once, up front
//! (`ThinLocks::pre_inflate`), trading one cheap early inflation for a
//! guaranteed-absent expensive mid-critical-section one.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use thinlock_runtime::lockword::MAX_THIN_COUNT;

use crate::lockstack::{held_multiplicity, MethodLockFacts, Sym};

/// Maximum simultaneous holds of one lock that stay thin: the 8-bit
/// count field stores `holds - 1`, so capacity is `MAX_THIN_COUNT + 1`.
pub const THIN_NEST_CAPACITY: u32 = MAX_THIN_COUNT + 1;

/// Saturation ceiling for finite bounds; anything that climbs past this
/// (or fails to stabilize) is reported as unbounded.
const CAP: u32 = 4096;

/// Static upper bound on nesting depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Bound {
    /// At most this many simultaneous holds by one thread.
    Finite(u32),
    /// No static bound (recursion while holding, or saturated).
    Unbounded,
}

impl Default for Bound {
    fn default() -> Self {
        Bound::Finite(0)
    }
}

impl Bound {
    /// Whether this bound can overflow the thin-lock count field.
    pub fn exceeds_thin_capacity(self) -> bool {
        match self {
            Bound::Finite(n) => n > THIN_NEST_CAPACITY,
            Bound::Unbounded => true,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Finite(n) => write!(f, "{n}"),
            Bound::Unbounded => f.write_str("unbounded"),
        }
    }
}

/// The nest-depth analysis result.
#[derive(Debug, Clone, Default)]
pub struct NestDepthReport {
    /// Per-pool-object bound, for every object some method can lock.
    pub bounds: BTreeMap<u32, Bound>,
    /// Pool indices whose bound exceeds [`THIN_NEST_CAPACITY`]: these
    /// should be pre-inflated before the program runs.
    pub hints: Vec<u32>,
    /// Maximum depth contributed by statically unresolvable lock
    /// operands — a coverage caveat, not attributed to any pool index.
    pub dynamic_depth: Bound,
}

/// Value lattice for the fixpoint: 0..=CAP, then Unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Depth {
    Finite(u32),
    Unbounded,
}

impl Depth {
    fn add(self, n: u32) -> Depth {
        match self {
            Depth::Finite(v) if v.saturating_add(n) <= CAP => Depth::Finite(v + n),
            _ => Depth::Unbounded,
        }
    }
    fn max(self, other: Depth) -> Depth {
        match (self, other) {
            (Depth::Finite(a), Depth::Finite(b)) => Depth::Finite(a.max(b)),
            _ => Depth::Unbounded,
        }
    }
    fn to_bound(self) -> Bound {
        match self {
            Depth::Finite(n) => Bound::Finite(n),
            Depth::Unbounded => Bound::Unbounded,
        }
    }
}

/// Computes per-pool nest-depth bounds from lock-stack facts.
///
/// `D(m, s)` is the maximum number of simultaneous holds of symbol `s`
/// (in `m`'s namespace) during any execution of `m`. Peaks occur at
/// acquisition sites (`mult(held ∪ {sym})`) and across calls
/// (`mult(held) + Σ D(callee, s')` over callee symbols grounding to
/// `s`). The fixpoint is monotone over a finite lattice; if it has not
/// stabilized after a sweep budget that covers any acyclic call graph,
/// the still-rising entries are recursive and become unbounded.
pub fn analyze(facts: &[MethodLockFacts]) -> NestDepthReport {
    let mut depths: BTreeMap<(u16, Sym), Depth> = BTreeMap::new();
    let sweep_budget = facts.len() * 2 + 8;
    let mut stabilized = true;
    for sweep in 0..=sweep_budget {
        let mut changed = false;
        for f in facts {
            // Candidate depths per symbol for this method, this sweep.
            let mut cand: BTreeMap<Sym, Depth> = BTreeMap::new();
            for a in &f.acquires {
                let mut held = a.held.clone();
                held.push(a.sym);
                for (sym, mult) in held_multiplicity(&held) {
                    let d = cand.entry(sym).or_insert(Depth::Finite(0));
                    *d = d.max(Depth::Finite(mult));
                }
            }
            for call in &f.invokes {
                let base = held_multiplicity(&call.held);
                // Sum callee contributions per caller-namespace symbol:
                // distinct callee symbols grounding to the same caller
                // symbol could be held simultaneously.
                let mut callee_sum: BTreeMap<Sym, Depth> = BTreeMap::new();
                for (&(mid, csym), &d) in &depths {
                    if mid != call.callee {
                        continue;
                    }
                    let ground = csym.substitute(&call.args);
                    let entry = callee_sum.entry(ground).or_insert(Depth::Finite(0));
                    *entry = match (*entry, d) {
                        (Depth::Finite(a), Depth::Finite(b)) => Depth::Finite(a + b).add(0),
                        _ => Depth::Unbounded,
                    };
                }
                let syms: BTreeSet<Sym> = base
                    .keys()
                    .copied()
                    .chain(callee_sum.keys().copied())
                    .collect();
                for sym in syms {
                    let b = base.get(&sym).copied().unwrap_or(0);
                    let extra = callee_sum.get(&sym).copied().unwrap_or(Depth::Finite(0));
                    let d = cand.entry(sym).or_insert(Depth::Finite(0));
                    *d = d.max(extra.add(b));
                }
            }
            for (sym, d) in cand {
                let key = (f.method_id, sym);
                let old = depths.get(&key).copied().unwrap_or(Depth::Finite(0));
                let new = old.max(d);
                if new != old {
                    depths.insert(key, new);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
        if sweep == sweep_budget {
            stabilized = false;
        }
    }
    if !stabilized {
        // Still rising after a budget that covers any call DAG: the
        // remaining growth comes from recursion while holding.
        // Re-sweep once and mark everything that would still change.
        let snapshot = depths.clone();
        for f in facts {
            for call in &f.invokes {
                let held_any = !call.held.is_empty();
                for &(mid, csym) in snapshot.keys() {
                    if mid == call.callee && held_any {
                        let ground = csym.substitute(&call.args);
                        depths.insert((f.method_id, ground), Depth::Unbounded);
                        for &h in &call.held {
                            depths.insert((f.method_id, h), Depth::Unbounded);
                        }
                    }
                }
            }
        }
    }

    // Program-wide bound per pool object: the worst over all methods
    // (any method is a potential entry point).
    let mut bounds: BTreeMap<u32, Bound> = BTreeMap::new();
    let mut dynamic = Depth::Finite(0);
    for (&(_, sym), &d) in &depths {
        match sym {
            Sym::Pool(i) => {
                let b = bounds.entry(i).or_insert(Bound::Finite(0));
                *b = (*b).max(d.to_bound());
            }
            Sym::Arg(_) | Sym::Unknown => {
                // Argument symbols of non-entry methods are grounded at
                // call sites; what remains here is either an entry
                // method's argument or a dynamic load — track the worst
                // as a caveat.
                dynamic = dynamic.max(d);
            }
        }
    }

    let hints: Vec<u32> = bounds
        .iter()
        .filter(|(_, b)| b.exceeds_thin_capacity())
        .map(|(&i, _)| i)
        .collect();

    NestDepthReport {
        bounds,
        hints,
        dynamic_depth: dynamic.to_bound(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstack;
    use thinlock_vm::programs::{self, MicroBench};

    #[test]
    fn thin_capacity_matches_lock_word() {
        assert_eq!(THIN_NEST_CAPACITY, 256);
    }

    #[test]
    fn flat_sync_bound_is_one() {
        let p = MicroBench::Sync.program();
        let facts = lockstack::analyze_program(&p);
        let r = analyze(&facts);
        assert_eq!(r.bounds.get(&0), Some(&Bound::Finite(1)));
        assert!(r.hints.is_empty());
    }

    #[test]
    fn nested_sync_counts_re_entry() {
        let p = MicroBench::NestedSync.program();
        let facts = lockstack::analyze_program(&p);
        let r = analyze(&facts);
        let b = r.bounds.get(&0).copied().unwrap();
        assert!(matches!(b, Bound::Finite(n) if n >= 2), "{b}");
        assert!(r.hints.is_empty());
    }

    #[test]
    fn recursion_while_holding_is_unbounded_and_hinted() {
        let p = programs::deep_nest();
        let facts = lockstack::analyze_program(&p);
        let r = analyze(&facts);
        assert_eq!(r.bounds.get(&0), Some(&Bound::Unbounded));
        assert_eq!(r.hints, vec![0]);
    }

    #[test]
    fn synchronized_callee_grounds_through_call() {
        // main locks pool[0] and calls a synchronized method with
        // receiver pool[0]: depth 2 on pool[0].
        use thinlock_vm::program::{Method, MethodFlags, Program};
        use thinlock_vm::Op;
        let mut p = Program::new(1);
        p.add_method(Method::new(
            "main",
            0,
            0,
            MethodFlags::default(),
            vec![
                Op::AConst(0),
                Op::MonitorEnter,
                Op::AConst(0),
                Op::Invoke(1),
                Op::AConst(0),
                Op::MonitorExit,
                Op::Return,
            ],
        ));
        p.add_method(Method::new(
            "locked",
            1,
            1,
            MethodFlags {
                synchronized: true,
                returns_value: false,
            },
            vec![Op::Return],
        ));
        let facts = lockstack::analyze_program(&p);
        let r = analyze(&facts);
        assert_eq!(r.bounds.get(&0), Some(&Bound::Finite(2)));
    }
}
