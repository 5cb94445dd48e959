//! Guarded-by inference and lockset race detection (the `guards` pass).
//!
//! An Eraser/RacerD-style lockset dataflow over the symbolic facts of
//! [`crate::lockstack`]: every field access carries the set of locks
//! provably held around it, access sets are propagated
//! interprocedurally through `Invoke` (callee facts substituted into
//! the caller's namespace, with the call-site held-set unioned in), and
//! the per-field *candidate lockset* is the intersection of the
//! grounded locksets of every access reachable from a concurrent entry
//! point:
//!
//! * a non-empty intersection is an inferred `@GuardedBy(lock)` fact —
//!   the discipline the program actually follows;
//! * an empty intersection on a field that is written and reachable
//!   from more than one thread-role is a *race candidate*.
//!
//! The static verdict is deliberately comparable with the dynamic
//! Eraser sanitizer in `thinlock-obs`: both compute the same
//! lockset-intersection invariant, one over all paths before running,
//! one over the observed event stream. DESIGN.md §13 states the
//! agreement contract; the `race_detection` integration tests enforce
//! it over the seeded concurrent program library.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use thinlock_vm::program::Program;
use thinlock_vm::programs::ConcurrentProgram;

use crate::escape::EscapeContext;
use crate::lockstack::{FieldId, MethodLockFacts, Sym};

/// One concurrent entry point: `threads` worker threads each run the
/// entry method, the way the benchmark harness runs `main` on every
/// worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryRole {
    /// Human-readable role name ("worker", "reader", ...).
    pub name: String,
    /// Method id of the role's entry point.
    pub method: u16,
    /// How many threads run this role concurrently.
    pub threads: u32,
}

/// An inferred `@GuardedBy` fact: every reachable access of
/// `pool[pool].field` holds all of `locks`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardedByFact {
    /// Pool index of the object owning the field.
    pub pool: u32,
    /// Field index within the object.
    pub field: u16,
    /// Pool indices of the locks held around *every* access, sorted.
    pub locks: Vec<u32>,
    /// Distinct read sites (across all roles, post-substitution).
    pub reads: usize,
    /// Distinct write sites.
    pub writes: usize,
}

impl fmt::Display for GuardedByFact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let locks: Vec<String> = self.locks.iter().map(|l| format!("pool[{l}]")).collect();
        write!(
            f,
            "pool[{}].f{} guarded by {{{}}} ({} read site(s), {} write site(s))",
            self.pool,
            self.field,
            locks.join(", "),
            self.reads,
            self.writes
        )
    }
}

/// A field whose candidate lockset went empty while being written and
/// reachable from more than one thread-role.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceCandidate {
    /// Pool index of the object owning the field.
    pub pool: u32,
    /// Field index within the object.
    pub field: u16,
    /// Total worker threads across all roles accessing the field.
    pub threads: u32,
    /// Distinct read sites.
    pub reads: usize,
    /// Distinct write sites.
    pub writes: usize,
}

impl fmt::Display for RaceCandidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pool[{}].f{}: empty lockset across {} thread(s) \
             ({} read site(s), {} write site(s))",
            self.pool, self.field, self.threads, self.reads, self.writes
        )
    }
}

/// Result of the guards pass over one program.
#[derive(Debug, Clone, Default)]
pub struct GuardsReport {
    /// The entry roles the analysis ran under, for display.
    pub roles: Vec<EntryRole>,
    /// Inferred `@GuardedBy` facts, sorted by (pool, field).
    pub facts: Vec<GuardedByFact>,
    /// Fields flagged as race candidates, sorted by (pool, field).
    pub races: Vec<RaceCandidate>,
    /// Reachable accesses whose object or field could not be grounded
    /// statically — excluded from the per-field intersection, a
    /// coverage caveat like `LockOrderReport::unresolved_edges`.
    pub unresolved_accesses: usize,
}

impl GuardsReport {
    /// True when no field is a race candidate.
    pub fn is_race_free(&self) -> bool {
        self.races.is_empty()
    }
}

/// One reachable field access in some method's namespace.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Access {
    obj: Sym,
    field: FieldId,
    write: bool,
    /// Locks held at the access (a set: multiplicity is irrelevant to
    /// mutual exclusion).
    locks: BTreeSet<Sym>,
}

/// Computes, per method, every field access reachable from it (its own
/// plus its callees', substituted), via the same monotone summary
/// fixpoint as the lock-order pass.
fn summarize(facts: &[MethodLockFacts]) -> BTreeMap<u16, BTreeSet<Access>> {
    let mut summaries: BTreeMap<u16, BTreeSet<Access>> = facts
        .iter()
        .map(|f| (f.method_id, BTreeSet::new()))
        .collect();
    loop {
        let mut changed = false;
        for f in facts {
            let mut s = summaries[&f.method_id].clone();
            for a in &f.field_accesses {
                s.insert(Access {
                    obj: a.obj,
                    field: a.field,
                    write: a.is_write,
                    locks: a.held.iter().copied().collect(),
                });
            }
            for call in &f.invokes {
                let Some(callee) = summaries.get(&call.callee) else {
                    continue;
                };
                for a in callee.clone() {
                    let mut locks: BTreeSet<Sym> =
                        a.locks.iter().map(|&l| l.substitute(&call.args)).collect();
                    locks.extend(call.held.iter().copied());
                    s.insert(Access {
                        obj: a.obj.substitute(&call.args),
                        field: a.field,
                        write: a.write,
                        locks,
                    });
                }
            }
            if s != summaries[&f.method_id] {
                summaries.insert(f.method_id, s);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    summaries
}

/// Per-(pool, field) aggregation across roles.
#[derive(Debug, Clone)]
struct FieldState {
    /// Candidate lockset: `None` = still the full universe (no access
    /// folded yet), `Some(set)` = intersection so far, grounded locks
    /// only.
    candidate: Option<BTreeSet<u32>>,
    reads: usize,
    writes: usize,
    threads: u32,
    roles_seen: BTreeSet<usize>,
}

/// Runs the guards pass: lockset intersection per field across every
/// access reachable from the given concurrent entry roles.
pub fn analyze(
    facts: &[MethodLockFacts],
    roles: &[EntryRole],
    ctx: &EscapeContext,
) -> GuardsReport {
    let summaries = summarize(facts);
    let mut fields: BTreeMap<(u32, u16), FieldState> = BTreeMap::new();
    let mut unresolved = 0usize;

    for (role_idx, role) in roles.iter().enumerate() {
        let Some(summary) = summaries.get(&role.method) else {
            continue;
        };
        for a in summary {
            // Ground the access: entry-method arguments are harness
            // integers (the iteration count), so any symbol that is
            // still an `Arg` or `Unknown` at the root is unresolvable.
            let (Sym::Pool(pool), FieldId::Const(field)) = (a.obj, a.field) else {
                unresolved += 1;
                continue;
            };
            let grounded: BTreeSet<u32> = a
                .locks
                .iter()
                .filter_map(|l| match l {
                    Sym::Pool(i) => Some(*i),
                    Sym::Arg(_) | Sym::Unknown => None,
                })
                .collect();
            let state = fields.entry((pool, field)).or_insert(FieldState {
                candidate: None,
                reads: 0,
                writes: 0,
                threads: 0,
                roles_seen: BTreeSet::new(),
            });
            if a.write {
                state.writes += 1;
            } else {
                state.reads += 1;
            }
            if state.roles_seen.insert(role_idx) {
                state.threads += role.threads.max(1);
            }
            state.candidate = Some(match state.candidate.take() {
                None => grounded,
                Some(c) => c.intersection(&grounded).copied().collect(),
            });
        }
    }

    let mut report = GuardsReport {
        roles: roles.to_vec(),
        facts: Vec::new(),
        races: Vec::new(),
        unresolved_accesses: unresolved,
    };
    for ((pool, field), state) in &fields {
        let candidate = state.candidate.clone().unwrap_or_default();
        if !candidate.is_empty() {
            report.facts.push(GuardedByFact {
                pool: *pool,
                field: *field,
                locks: candidate.into_iter().collect(),
                reads: state.reads,
                writes: state.writes,
            });
        } else if state.writes > 0 && state.threads > 1 && ctx.pool_is_shared(*pool) {
            report.races.push(RaceCandidate {
                pool: *pool,
                field: *field,
                threads: state.threads,
                reads: state.reads,
                writes: state.writes,
            });
        }
    }
    report
}

/// The default single-role view used by [`crate::analyze_program`]: the
/// harness runs `main` (or method 0) on `ctx.thread_count` threads.
pub fn default_roles(program: &Program, ctx: &EscapeContext) -> Vec<EntryRole> {
    let method = program.method_id("main").unwrap_or(0);
    vec![EntryRole {
        name: "main".to_string(),
        method,
        threads: ctx.thread_count,
    }]
}

/// The entry roles a concurrent-library program's harness contract
/// names, one per [`ThreadRole`](thinlock_vm::programs::ThreadRole); a
/// role whose method is missing falls back to method 0.
pub fn entry_roles(entry: &ConcurrentProgram) -> Vec<EntryRole> {
    entry
        .roles
        .iter()
        .map(|r| EntryRole {
            name: r.method.to_string(),
            method: entry.program.method_id(r.method).unwrap_or(0),
            threads: r.threads,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstack;
    use thinlock_vm::program::{Method, MethodFlags, Program};
    use thinlock_vm::Op;

    fn guarded_increment(locked: bool) -> Vec<Op> {
        let mut code = Vec::new();
        if locked {
            code.extend([Op::AConst(0), Op::MonitorEnter]);
        }
        code.extend([
            Op::AConst(0),
            Op::AConst(0),
            Op::GetField(0),
            Op::IConst(1),
            Op::IAdd,
            Op::PutField(0),
        ]);
        if locked {
            code.extend([Op::AConst(0), Op::MonitorExit]);
        }
        code.push(Op::Return);
        code
    }

    fn one_method_program(code: Vec<Op>) -> Program {
        let mut p = Program::new(1);
        p.add_method(Method::new("main", 0, 0, MethodFlags::default(), code));
        p
    }

    fn run(program: &Program, threads: u32) -> GuardsReport {
        let facts = lockstack::analyze_program(program);
        let ctx = EscapeContext::threads(threads);
        analyze(&facts, &default_roles(program, &ctx), &ctx)
    }

    #[test]
    fn guarded_field_yields_fact_not_race() {
        let p = one_method_program(guarded_increment(true));
        let r = run(&p, 4);
        assert!(r.is_race_free(), "{:?}", r.races);
        assert_eq!(r.facts.len(), 1);
        assert_eq!(r.facts[0].locks, vec![0]);
        assert_eq!((r.facts[0].pool, r.facts[0].field), (0, 0));
        assert_eq!((r.facts[0].reads, r.facts[0].writes), (1, 1));
    }

    #[test]
    fn unguarded_shared_write_is_a_race_candidate() {
        let p = one_method_program(guarded_increment(false));
        let r = run(&p, 2);
        assert!(!r.is_race_free());
        assert_eq!((r.races[0].pool, r.races[0].field), (0, 0));
        assert_eq!(r.races[0].threads, 2);
    }

    #[test]
    fn single_thread_or_unshared_pool_never_races() {
        let p = one_method_program(guarded_increment(false));
        assert!(run(&p, 1).is_race_free(), "one thread cannot race");
        let facts = lockstack::analyze_program(&p);
        // Two threads, but the pool object is not shared by the harness.
        let ctx = EscapeContext::with_shared(2, std::iter::empty());
        let r = analyze(&facts, &default_roles(&p, &ctx), &ctx);
        assert!(r.is_race_free(), "unshared object cannot race");
    }

    #[test]
    fn callee_accesses_inherit_call_site_locks() {
        // main: synchronized(pool[0]) { bump(pool[0]) }; bump writes
        // arg0.f0 with no lock of its own — guarded via the caller.
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
            "bump",
            1,
            1,
            MethodFlags::default(),
            vec![
                Op::ALoad(0),
                Op::ALoad(0),
                Op::GetField(0),
                Op::IConst(1),
                Op::IAdd,
                Op::PutField(0),
                Op::Return,
            ],
        ));
        let r = run(&p, 4);
        assert!(r.is_race_free(), "{:?}", r.races);
        assert_eq!(r.facts.len(), 1);
        assert_eq!(r.facts[0].locks, vec![0]);
    }

    #[test]
    fn partial_guard_across_roles_is_flagged() {
        // Role A writes under the lock, role B writes bare: the
        // intersection is empty even though one role is disciplined.
        let mut p = Program::new(1);
        p.add_method(Method::new(
            "locked",
            0,
            0,
            MethodFlags::default(),
            guarded_increment(true),
        ));
        p.add_method(Method::new(
            "bare",
            0,
            0,
            MethodFlags::default(),
            guarded_increment(false),
        ));
        let facts = lockstack::analyze_program(&p);
        let ctx = EscapeContext::threads(3);
        let roles = vec![
            EntryRole {
                name: "locked".into(),
                method: 0,
                threads: 1,
            },
            EntryRole {
                name: "bare".into(),
                method: 1,
                threads: 2,
            },
        ];
        let r = analyze(&facts, &roles, &ctx);
        assert!(!r.is_race_free());
        assert_eq!(r.races[0].threads, 3);
        assert!(r.facts.is_empty());
    }

    #[test]
    fn unresolvable_access_is_counted_not_guessed() {
        // Field read through a dynamic pool load: the object symbol is
        // Unknown at the root, so the access is a coverage caveat.
        let code = vec![
            Op::IConst(0),
            Op::ALoadPool,
            Op::GetField(0),
            Op::Pop,
            Op::Return,
        ];
        let p = one_method_program(code);
        let r = run(&p, 2);
        assert_eq!(r.unresolved_accesses, 1);
        assert!(r.facts.is_empty() && r.races.is_empty());
    }
}
