//! Symbolic lock-stack facts, read off the verifier's fixpoint.
//!
//! `thinlock_vm::verify` is the one abstract interpreter of the bytecode:
//! its per-pc entry frames already carry a *stack of symbolic lock
//! identities* — at every program point not just how many monitors are
//! held but which pool constant or incoming argument each one came from
//! — and it records the structural lock-discipline findings (orphan
//! `monitorexit`, monitors held at return, imbalance at a join) at their
//! pc. This pass walks those frames once and turns them into the
//! substrate of all downstream passes: lock-order edges need to know
//! *what* is held while acquiring, escape analysis needs to know what
//! each `monitorenter` names, and nest-depth bounds need the multiplicity
//! of each identity in the held set. It adds two findings of its own
//! that the verifier does not reject: non-LIFO release, and
//! `wait`/`notify` on an object whose monitor is provably not held.
//!
//! Besides monitor operations, the pass records every field access
//! (`GetField`/`PutField` and the dynamic forms) with its symbolic
//! object, resolved [`FieldId`], and the held-set around it. The
//! verifier tracks integer constants through the operand stack, so
//! `GetFieldDyn`/`PutFieldDyn` with a provably constant index resolve to
//! the same precision as the indexed forms; only a genuinely dynamic
//! index degrades to [`FieldId::Unknown`].

use std::collections::BTreeMap;
use std::fmt;

use thinlock_vm::bytecode::Op;
use thinlock_vm::program::{Method, Program};
use thinlock_vm::verify::{dataflow, AbsVal, VerifyError, VerifyOptions};

pub use thinlock_vm::verify::{LockDiag, Sym};

/// Iterates one summary per method to a fixpoint. `step` builds a
/// method's summary from its own facts and, for each call site whose
/// callee has facts, the callee's current summary, which the step
/// substitutes into the caller's namespace with [`Sym::substitute`].
/// Sweeps repeat until no summary changes, so each step must be monotone
/// in its callees' summaries over a finite lattice.
pub(crate) fn summary_fixpoint<S: Default + PartialEq>(
    facts: &[MethodLockFacts],
    mut step: impl FnMut(&MethodLockFacts, Vec<(&InvokeSite, &S)>) -> S,
) -> BTreeMap<u16, S> {
    let mut summaries: BTreeMap<u16, S> =
        facts.iter().map(|f| (f.method_id, S::default())).collect();
    loop {
        let mut changed = false;
        for f in facts {
            let calls = (f.invokes.iter())
                .filter_map(|call| Some((call, summaries.get(&call.callee)?)))
                .collect();
            let s = step(f, calls);
            if s != summaries[&f.method_id] {
                summaries.insert(f.method_id, s);
                changed = true;
            }
        }
        if !changed {
            return summaries;
        }
    }
}

/// Statically resolved identity of an accessed field.
///
/// `GetField(i)`/`PutField(i)` always resolve; the dynamic forms resolve
/// exactly when the index operand is a provable integer constant, which
/// gives `GetFieldDyn`/`PutFieldDyn` the same precision as the indexed
/// forms whenever the index is statically known.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FieldId {
    /// A statically known field index.
    Const(u16),
    /// A dynamic index the dataflow could not resolve to a constant.
    Unknown,
}

impl FieldId {
    /// The field a dynamic field op's index operand names.
    fn of_index(v: AbsVal) -> FieldId {
        match v {
            AbsVal::Const(k) => u16::try_from(k).map_or(FieldId::Unknown, FieldId::Const),
            _ => FieldId::Unknown,
        }
    }
}

impl fmt::Display for FieldId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FieldId::Const(i) => write!(f, "f{i}"),
            FieldId::Unknown => f.write_str("f?"),
        }
    }
}

/// A `monitorenter` site with the symbolic held-set at acquisition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcquireSite {
    /// Program counter of the `monitorenter` (0 for the synthetic
    /// receiver acquisition of a synchronized method).
    pub pc: usize,
    /// What is being acquired.
    pub sym: Sym,
    /// Symbols already held when this acquisition happens, innermost
    /// last; includes the synchronized receiver where applicable.
    pub held: Vec<Sym>,
}

/// A `monitorenter` or `monitorexit` site with its resolved operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorSite {
    /// Program counter of the instruction.
    pub pc: usize,
    /// `true` for `monitorenter`, `false` for `monitorexit`.
    pub is_enter: bool,
    /// Symbolic identity of the locked object.
    pub sym: Sym,
}

/// A `wait`/`notify` site with its resolved operand and held-set.
///
/// These are the substrate of the contention pass's `WaitHeavy` shape:
/// an object that is statically waited/notified on is predicted to park
/// threads on its monitor, so pre-inflation is profitable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CondSite {
    /// Program counter of the instruction.
    pub pc: usize,
    /// `true` for `wait`, `false` for `notify`.
    pub is_wait: bool,
    /// Symbolic identity of the monitor being waited/notified on.
    pub sym: Sym,
    /// Symbols held at the site, innermost last; includes the
    /// synchronized receiver where applicable.
    pub held: Vec<Sym>,
}

/// A field access (`GetField`/`PutField` or their dynamic forms) with
/// the symbolic object, resolved field, and the locks held around it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldAccessSite {
    /// Program counter of the access.
    pub pc: usize,
    /// Symbolic identity of the accessed object.
    pub obj: Sym,
    /// The accessed field, if statically resolvable.
    pub field: FieldId,
    /// True for `PutField`/`PutFieldDyn`.
    pub is_write: bool,
    /// Symbols held at the access, innermost last; includes the
    /// synchronized receiver where applicable.
    pub held: Vec<Sym>,
}

/// An `Invoke` site with symbolic arguments and the held-set around it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvokeSite {
    /// Program counter of the `invoke`.
    pub pc: usize,
    /// Method id of the callee.
    pub callee: u16,
    /// Symbolic identity of each argument (receiver first); `Unknown`
    /// for non-reference arguments.
    pub args: Vec<Sym>,
    /// Symbols held across the call, innermost last.
    pub held: Vec<Sym>,
}

/// Everything the lock-stack pass learned about one method.
#[derive(Debug, Clone)]
pub struct MethodLockFacts {
    /// Method id within the program.
    pub method_id: u16,
    /// Method name.
    pub name: String,
    /// Whether the method is declared synchronized.
    pub synchronized: bool,
    /// Instruction-precise lock-discipline findings (empty = clean).
    pub diagnostics: Vec<LockDiag>,
    /// All acquisition sites, including the synthetic receiver
    /// acquisition of a synchronized method (reported at pc 0).
    pub acquires: Vec<AcquireSite>,
    /// Every `monitorenter`/`monitorexit` in the body with its operand.
    pub monitor_ops: Vec<MonitorSite>,
    /// Every `wait`/`notify` in the body with its operand and held-set.
    pub cond_ops: Vec<CondSite>,
    /// Every `Invoke` with symbolic arguments and held-set.
    pub invokes: Vec<InvokeSite>,
    /// Every field access with its symbolic object, resolved field, and
    /// held-set — the substrate of the guards (lockset) pass.
    pub field_accesses: Vec<FieldAccessSite>,
    /// Maximum symbolic lock-stack depth (body locks only; add one for
    /// a synchronized method's receiver).
    pub max_lock_stack: usize,
}

/// Reads one method's lock facts off the verifier's fixpoint.
///
/// # Errors
///
/// The verifier's error when the method fails a type or stack check;
/// such a method has no lock facts. Lock-discipline violations are not
/// errors here: they land in [`MethodLockFacts::diagnostics`].
pub fn analyze_method(
    program: &Program,
    method_id: u16,
    method: &Method,
) -> Result<MethodLockFacts, VerifyError> {
    let flow = dataflow(program, method, VerifyOptions::default())?;
    let synchronized = method.flags().synchronized;
    let base_held: &[Sym] = if synchronized { &[Sym::Arg(0)] } else { &[] };
    let mut facts = MethodLockFacts {
        method_id,
        name: method.name().to_string(),
        synchronized,
        diagnostics: flow.findings,
        acquires: Vec::new(),
        monitor_ops: Vec::new(),
        cond_ops: Vec::new(),
        invokes: Vec::new(),
        field_accesses: Vec::new(),
        max_lock_stack: flow.summary.max_monitors,
    };
    if synchronized {
        // The interpreter acquires the receiver before the body runs.
        facts.acquires.push(AcquireSite {
            pc: 0,
            sym: Sym::Arg(0),
            held: Vec::new(),
        });
    }

    // One deterministic pass over the fixpoint frames emits every site
    // exactly once per reachable pc. The verifier checked that each
    // instruction finds the operands it pops.
    for (pc, frame) in flow.frames.iter().enumerate() {
        let Some(frame) = frame else { continue };
        let op = method.code()[pc];
        let held = || [base_held, &frame.locks[..]].concat();
        // The operand `back` slots below the stack top.
        let operand = |back: usize| frame.stack[frame.stack.len() - back];
        let top = frame.stack.last().map_or(Sym::Unknown, |v| v.sym());
        match op {
            Op::MonitorEnter => {
                facts.monitor_ops.push(MonitorSite {
                    pc,
                    is_enter: true,
                    sym: top,
                });
                facts.acquires.push(AcquireSite {
                    pc,
                    sym: top,
                    held: held(),
                });
            }
            Op::MonitorExit => {
                facts.monitor_ops.push(MonitorSite {
                    pc,
                    is_enter: false,
                    sym: top,
                });
                // An exit with nothing held is the verifier's finding.
                if let Some(&inner) = frame.locks.last() {
                    if inner != top && inner != Sym::Unknown && top != Sym::Unknown {
                        facts.diagnostics.push(LockDiag {
                            pc,
                            message: format!(
                                "non-LIFO monitorexit: releases {top} while the \
                                 innermost held lock is {inner}"
                            ),
                        });
                    }
                }
            }
            Op::Wait | Op::Notify => {
                let held = held();
                if top != Sym::Unknown && !held.iter().any(|&h| h == top || h == Sym::Unknown) {
                    facts.diagnostics.push(LockDiag {
                        pc,
                        message: format!("{} on {top} without holding its monitor", op.mnemonic()),
                    });
                }
                facts.cond_ops.push(CondSite {
                    pc,
                    is_wait: matches!(op, Op::Wait),
                    sym: top,
                    held,
                });
            }
            Op::GetField(_) | Op::PutField(_) | Op::GetFieldDyn | Op::PutFieldDyn => {
                let (obj, field, is_write) = match op {
                    Op::GetField(i) => (operand(1), FieldId::Const(i), false),
                    Op::PutField(i) => (operand(2), FieldId::Const(i), true),
                    Op::GetFieldDyn => (operand(2), FieldId::of_index(operand(1)), false),
                    _ => (operand(3), FieldId::of_index(operand(2)), true),
                };
                facts.field_accesses.push(FieldAccessSite {
                    pc,
                    obj: obj.sym(),
                    field,
                    is_write,
                    held: held(),
                });
            }
            Op::Invoke(id) => {
                let callee = program
                    .method(id)
                    .expect("the verifier resolved the callee");
                let argc = usize::from(callee.arg_count());
                facts.invokes.push(InvokeSite {
                    pc,
                    callee: id,
                    args: frame.stack[frame.stack.len() - argc..]
                        .iter()
                        .map(|v| v.sym())
                        .collect(),
                    held: held(),
                });
            }
            _ => {}
        }
    }
    facts.diagnostics.sort();
    Ok(facts)
}

/// Runs the lock-stack pass over every method of a program; a method the
/// verifier rejects for a type or stack error is left out.
pub fn analyze_program(program: &Program) -> Vec<MethodLockFacts> {
    (0u16..)
        .zip(program.methods())
        .filter_map(|(id, m)| analyze_method(program, id, m).ok())
        .collect()
}

/// Counts the multiplicity of each symbol in a held-set.
pub fn held_multiplicity(held: &[Sym]) -> BTreeMap<Sym, u32> {
    let mut m = BTreeMap::new();
    for &s in held {
        *m.entry(s).or_insert(0) += 1;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinlock_vm::program::MethodFlags;
    use thinlock_vm::programs::MicroBench;

    fn one_method(pool: u32, flags: MethodFlags, args: u8, locals: u8, code: Vec<Op>) -> Program {
        let mut p = Program::new(pool);
        p.add_method(Method::new("m", args, locals, flags, code));
        p
    }

    #[test]
    fn tracks_pool_identity_through_enter_exit() {
        let p = MicroBench::Sync.program();
        let facts = analyze_program(&p);
        let main = &facts[0];
        assert!(main.diagnostics.is_empty(), "{:?}", main.diagnostics);
        let enters: Vec<_> = main.monitor_ops.iter().filter(|m| m.is_enter).collect();
        assert!(!enters.is_empty());
        assert!(enters.iter().all(|m| m.sym == Sym::Pool(0)));
        assert_eq!(main.max_lock_stack, 1);
    }

    #[test]
    fn nested_holds_reported_in_order() {
        let p = MicroBench::MixedSync.program();
        let facts = analyze_program(&p);
        let main = &facts[0];
        assert!(main.diagnostics.is_empty(), "{:?}", main.diagnostics);
        assert_eq!(main.max_lock_stack, 3);
        // The innermost acquire holds the two outer locks.
        let deepest = main
            .acquires
            .iter()
            .max_by_key(|a| a.held.len())
            .expect("has acquires");
        assert_eq!(deepest.held.len(), 2);
    }

    #[test]
    fn orphan_exit_is_diagnosed_not_fatal() {
        let p = one_method(
            1,
            MethodFlags::default(),
            0,
            0,
            vec![Op::AConst(0), Op::MonitorExit, Op::Return],
        );
        let facts = analyze_program(&p);
        let d = &facts[0].diagnostics;
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].pc, 1);
        assert!(
            d[0].message.contains("without matching monitorenter"),
            "{}",
            d[0]
        );
    }

    #[test]
    fn non_lifo_release_is_diagnosed() {
        let code = vec![
            Op::AConst(0),
            Op::MonitorEnter,
            Op::AConst(1),
            Op::MonitorEnter,
            Op::AConst(0),
            Op::MonitorExit, // releases pool[0] while pool[1] is innermost
            Op::AConst(1),
            Op::MonitorExit,
            Op::Return,
        ];
        let p = one_method(2, MethodFlags::default(), 0, 0, code);
        let facts = analyze_program(&p);
        let d = &facts[0].diagnostics;
        assert!(
            d.iter()
                .any(|d| d.pc == 5 && d.message.contains("non-LIFO")),
            "{d:?}"
        );
    }

    #[test]
    fn return_while_holding_is_diagnosed() {
        let code = vec![Op::AConst(0), Op::MonitorEnter, Op::Return];
        let p = one_method(1, MethodFlags::default(), 0, 0, code);
        let facts = analyze_program(&p);
        let d = &facts[0].diagnostics;
        assert!(
            d.iter()
                .any(|d| d.pc == 2 && d.message.contains("while holding")),
            "{d:?}"
        );
    }

    #[test]
    fn synchronized_method_gets_synthetic_receiver_acquire() {
        let p = MicroBench::CallSync.program();
        let facts = analyze_program(&p);
        let bump = facts
            .iter()
            .find(|f| f.synchronized)
            .expect("CallSync has a synchronized callee");
        assert_eq!(bump.acquires[0].sym, Sym::Arg(0));
        assert!(bump.acquires[0].held.is_empty());
    }

    #[test]
    fn invoke_records_symbolic_receiver() {
        let p = MicroBench::CallSync.program();
        let facts = analyze_program(&p);
        let main = &facts[0];
        let call = main.invokes.first().expect("main invokes bump");
        assert_eq!(call.args.first().copied(), Some(Sym::Pool(0)));
    }

    #[test]
    fn dynamic_pool_load_is_unknown() {
        let code = vec![
            Op::IConst(1),
            Op::ALoadPool,
            Op::MonitorEnter,
            Op::IConst(1),
            Op::ALoadPool,
            Op::MonitorExit,
            Op::Return,
        ];
        let p = one_method(4, MethodFlags::default(), 0, 0, code);
        let facts = analyze_program(&p);
        assert!(
            facts[0].diagnostics.is_empty(),
            "{:?}",
            facts[0].diagnostics
        );
        assert!(facts[0].monitor_ops.iter().all(|m| m.sym == Sym::Unknown));
    }

    #[test]
    fn exception_path_release_is_tracked_symbolically() {
        use thinlock_vm::program::Handler;
        let code = vec![
            Op::AConst(0),    // 0
            Op::MonitorEnter, // 1
            Op::AConst(0),    // 2: protected
            Op::Throw,        // 3: protected
            Op::AStore(0),    // 4: handler target
            Op::AConst(0),    // 5
            Op::MonitorExit,  // 6
            Op::Return,       // 7
        ];
        let mut p = Program::new(1);
        p.add_method(
            Method::new("m", 0, 1, MethodFlags::default(), code).with_handler(Handler {
                start: 2,
                end: 4,
                target: 4,
            }),
        );
        let facts = analyze_program(&p);
        assert!(
            facts[0].diagnostics.is_empty(),
            "{:?}",
            facts[0].diagnostics
        );
        // The handler-path exit releases the same identity it acquired.
        let exit = facts[0]
            .monitor_ops
            .iter()
            .find(|m| !m.is_enter)
            .expect("has an exit");
        assert_eq!(exit.sym, Sym::Pool(0));
    }

    #[test]
    fn exception_path_leak_is_diagnosed_at_the_return() {
        use thinlock_vm::program::Handler;
        let code = vec![
            Op::AConst(0),    // 0
            Op::MonitorEnter, // 1
            Op::AConst(0),    // 2: protected
            Op::Throw,        // 3: protected
            Op::AStore(0),    // 4: handler target, lock still held
            Op::Return,       // 5
        ];
        let mut p = Program::new(1);
        p.add_method(
            Method::new("m", 0, 1, MethodFlags::default(), code).with_handler(Handler {
                start: 2,
                end: 4,
                target: 4,
            }),
        );
        let facts = analyze_program(&p);
        assert!(
            facts[0].diagnostics.iter().any(|d| d.pc == 5
                && d.message.contains("while holding")
                && d.message.contains("pool[0]")),
            "{:?}",
            facts[0].diagnostics
        );
    }

    #[test]
    fn imbalanced_loop_diagnosed_and_terminates() {
        // Acquires once per iteration without releasing: the join at the
        // loop head can never balance. One diagnostic, no hang.
        let code = vec![
            Op::AConst(0),    // 0
            Op::MonitorEnter, // 1
            Op::ILoad(0),     // 2
            Op::IfEq(0),      // 3: loop back with one more lock held
            Op::AConst(0),    // 4
            Op::MonitorExit,  // 5
            Op::Return,       // 6
        ];
        let p = one_method(1, MethodFlags::default(), 1, 1, code);
        let facts = analyze_program(&p);
        assert!(
            facts[0]
                .diagnostics
                .iter()
                .any(|d| d.message.contains("lock-stack depth mismatch")),
            "{:?}",
            facts[0].diagnostics
        );
    }

    #[test]
    fn indexed_field_accesses_record_object_field_and_held_set() {
        // synchronized(pool[0]) { pool[0].f2 = pool[0].f2 + 1 }
        let code = vec![
            Op::AConst(0),    // 0
            Op::MonitorEnter, // 1
            Op::AConst(0),    // 2: receiver for the put
            Op::AConst(0),    // 3
            Op::GetField(2),  // 4
            Op::IConst(1),    // 5
            Op::IAdd,         // 6
            Op::PutField(2),  // 7
            Op::AConst(0),    // 8
            Op::MonitorExit,  // 9
            Op::Return,       // 10
        ];
        let p = one_method(1, MethodFlags::default(), 0, 0, code);
        let facts = analyze_program(&p);
        let accesses = &facts[0].field_accesses;
        assert_eq!(accesses.len(), 2, "{accesses:?}");
        let get = &accesses[0];
        assert_eq!(
            (get.pc, get.obj, get.field, get.is_write),
            (4, Sym::Pool(0), FieldId::Const(2), false)
        );
        assert_eq!(get.held, vec![Sym::Pool(0)]);
        let put = &accesses[1];
        assert_eq!(
            (put.pc, put.obj, put.field, put.is_write),
            (7, Sym::Pool(0), FieldId::Const(2), true)
        );
        assert_eq!(put.held, vec![Sym::Pool(0)]);
    }

    #[test]
    fn dynamic_field_ops_with_constant_index_resolve_exactly() {
        // pool[0].f[3] = pool[0].f[3] + 1 via the dynamic forms, index
        // pushed as IConst — must match the indexed forms' precision.
        let code = vec![
            Op::AConst(0),   // 0: receiver for the put
            Op::IConst(3),   // 1: put index
            Op::AConst(0),   // 2
            Op::IConst(3),   // 3: get index
            Op::GetFieldDyn, // 4
            Op::IConst(1),   // 5
            Op::IAdd,        // 6
            Op::PutFieldDyn, // 7
            Op::Return,      // 8
        ];
        let p = one_method(1, MethodFlags::default(), 0, 0, code);
        let facts = analyze_program(&p);
        assert!(
            facts[0].diagnostics.is_empty(),
            "{:?}",
            facts[0].diagnostics
        );
        let accesses = &facts[0].field_accesses;
        assert_eq!(accesses.len(), 2, "{accesses:?}");
        assert_eq!(
            (accesses[0].obj, accesses[0].field, accesses[0].is_write),
            (Sym::Pool(0), FieldId::Const(3), false)
        );
        assert_eq!(
            (accesses[1].obj, accesses[1].field, accesses[1].is_write),
            (Sym::Pool(0), FieldId::Const(3), true)
        );
    }

    #[test]
    fn dynamic_field_ops_with_computed_index_degrade_to_unknown() {
        // Index comes from a local (joined to Int): the object identity
        // survives but the field index does not.
        let code = vec![
            Op::AConst(0),   // 0
            Op::ILoad(0),    // 1: dynamic index
            Op::GetFieldDyn, // 2
            Op::Pop,         // 3
            Op::Return,      // 4
        ];
        let p = one_method(1, MethodFlags::default(), 1, 1, code);
        let facts = analyze_program(&p);
        let accesses = &facts[0].field_accesses;
        assert_eq!(accesses.len(), 1);
        assert_eq!(accesses[0].obj, Sym::Pool(0));
        assert_eq!(accesses[0].field, FieldId::Unknown);
    }

    #[test]
    fn synchronized_method_field_access_includes_receiver_in_held_set() {
        // The CallSync bump method accesses arg0.f0 under the synthetic
        // receiver lock.
        let p = MicroBench::CallSync.program();
        let facts = analyze_program(&p);
        let bump = facts.iter().find(|f| f.synchronized).expect("bump");
        assert_eq!(bump.field_accesses.len(), 2);
        for a in &bump.field_accesses {
            assert_eq!(a.obj, Sym::Arg(0));
            assert_eq!(a.field, FieldId::Const(0));
            assert_eq!(a.held, vec![Sym::Arg(0)], "receiver lock is held");
        }
    }

    #[test]
    fn constant_joins_collapse_to_int_not_top() {
        // Two paths push different constants; the join is Int, so a
        // following dynamic access degrades gracefully to FieldId::Unknown
        // (not a malformed-stack diagnostic).
        let code = vec![
            Op::ILoad(0),  // 0
            Op::IfEq(4),   // 1
            Op::IConst(1), // 2
            Op::Goto(5),   // 3
            Op::IConst(2), // 4
            Op::AConst(0), // 5: join point: [Int]
            Op::Pop,       // 6
            Op::Pop,       // 7
            Op::Return,    // 8
        ];
        let p = one_method(1, MethodFlags::default(), 1, 1, code);
        let facts = analyze_program(&p);
        assert!(
            facts[0].diagnostics.is_empty(),
            "{:?}",
            facts[0].diagnostics
        );
    }

    #[test]
    fn held_multiplicity_counts() {
        let held = [Sym::Pool(0), Sym::Pool(1), Sym::Pool(0)];
        let m = held_multiplicity(&held);
        assert_eq!(m[&Sym::Pool(0)], 2);
        assert_eq!(m[&Sym::Pool(1)], 1);
    }
}
