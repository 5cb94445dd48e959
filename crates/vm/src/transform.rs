//! Bytecode transformations.
//!
//! Three transformations, all with the property that a transformed
//! program is executable by the unmodified interpreter (checked
//! differentially by this module's tests):
//!
//! * [`strip_synchronization`] — removes every locking operation from a
//!   program: `monitorenter`/`monitorexit` become stack-neutral `pop`s
//!   and `ACC_SYNCHRONIZED` flags are cleared. This is exactly how the
//!   paper produced its Figure 6 "NOP" datapoint ("these measurements
//!   were obtained by removing all instructions related to
//!   synchronization"); running a stripped program on a real protocol
//!   must compute the same values as the original program, since the
//!   benchmarks are single-threaded.
//! * [`elide_local_sync`] — the *selective* version: removes only the
//!   monitor operations an [`ElisionPlan`] names, leaving every other
//!   lock in place. The plan comes from `thinlock-analysis`'s escape
//!   pass, which proves the named operations are on objects no second
//!   thread can ever observe.
//! * [`peephole`] — a conservative cleanup pass (constant folding of
//!   `iconst; iconst; iadd/isub/imul`, `push; pop` elimination,
//!   `nop` removal) that preserves semantics; branch targets are
//!   re-mapped across deletions. A stand-in for the bytecode
//!   optimizations a JIT-less JVM performs at load time.

use std::collections::BTreeSet;

use crate::bytecode::Op;
use crate::program::{Handler, Method, Program};

/// Removes all synchronization from a program (Figure 6's "NOP" case).
///
/// `monitorenter`/`monitorexit` are replaced by `pop` (they consume one
/// operand, so the stack shape is preserved — the bytecode-dispatch cost
/// remains, the locking cost disappears) and every method's
/// `synchronized` flag is cleared.
pub fn strip_synchronization(program: &Program) -> Program {
    let mut out = Program::new(program.pool_size());
    for m in program.methods() {
        let code: Vec<Op> = m
            .code()
            .iter()
            .map(|&op| match op {
                // Wait/notify require monitor ownership, so once the
                // enters are gone they must go too (a stripped program
                // would otherwise raise IllegalMonitorState at run time).
                Op::MonitorEnter | Op::MonitorExit | Op::Wait | Op::Notify => Op::Pop,
                other => other,
            })
            .collect();
        let mut flags = m.flags();
        flags.synchronized = false;
        let mut method = Method::new(m.name(), m.arg_count(), m.max_locals(), flags, code);
        for &h in m.handlers() {
            method = method.with_handler(h);
        }
        out.add_method(method);
    }
    out
}

/// Which sync operations a static analysis proved removable.
///
/// Plain data rather than an analysis type so the transform stays
/// independent of the `thinlock-analysis` crate (which depends on this
/// one).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ElisionPlan {
    /// `(method_id, pc)` of `monitorenter`/`monitorexit` instructions to
    /// replace with stack-neutral `pop`s.
    pub ops: Vec<(u16, usize)>,
    /// Method ids whose `synchronized` flag may be cleared.
    pub desync_methods: Vec<u16>,
}

/// Statistics of one [`elide_local_sync`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ElisionStats {
    /// Monitor operations replaced with `pop`.
    pub ops_elided: usize,
    /// `synchronized` flags cleared.
    pub methods_desynchronized: usize,
    /// Plan entries that did not name a monitor op (or named a method /
    /// pc out of range) and were ignored.
    pub entries_ignored: usize,
}

/// Removes exactly the sync operations named by `plan`.
///
/// Unlike [`strip_synchronization`], locks not covered by the plan are
/// preserved, so the transformed program is safe to run concurrently as
/// long as the plan only names operations on thread-local objects.
/// Plan entries that do not point at a `monitorenter`/`monitorexit` are
/// counted in [`ElisionStats::entries_ignored`] rather than applied,
/// so a stale plan can never corrupt unrelated instructions.
pub fn elide_local_sync(program: &Program, plan: &ElisionPlan) -> (Program, ElisionStats) {
    let mut stats = ElisionStats::default();
    let mut elide: BTreeSet<(u16, usize)> = BTreeSet::new();
    for &(mid, pc) in &plan.ops {
        let is_monitor_op = program
            .method(mid)
            .and_then(|m| m.code().get(pc))
            .is_some_and(|op| matches!(op, Op::MonitorEnter | Op::MonitorExit));
        if is_monitor_op {
            elide.insert((mid, pc));
        } else {
            stats.entries_ignored += 1;
        }
    }
    let desync: BTreeSet<u16> = plan.desync_methods.iter().copied().collect();

    let mut out = Program::new(program.pool_size());
    for (mid, m) in program.methods().iter().enumerate() {
        let mid = mid as u16;
        let code: Vec<Op> = m
            .code()
            .iter()
            .enumerate()
            .map(|(pc, &op)| {
                if elide.contains(&(mid, pc)) {
                    stats.ops_elided += 1;
                    Op::Pop
                } else {
                    op
                }
            })
            .collect();
        let mut flags = m.flags();
        if flags.synchronized && desync.contains(&mid) {
            flags.synchronized = false;
            stats.methods_desynchronized += 1;
        }
        let mut method = Method::new(m.name(), m.arg_count(), m.max_locals(), flags, code);
        for &h in m.handlers() {
            method = method.with_handler(h);
        }
        out.add_method(method);
    }
    (out, stats)
}

/// Statistics of one [`peephole`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeepholeStats {
    /// `iconst a; iconst b; <arith>` folded into one `iconst`.
    pub constants_folded: usize,
    /// `iconst/aconst; pop` pairs removed.
    pub push_pop_removed: usize,
    /// Standalone `nop`s removed.
    pub nops_removed: usize,
}

impl PeepholeStats {
    /// Total instructions eliminated.
    pub fn total_removed(&self) -> usize {
        // Folding replaces three ops with one (two removed); the others
        // remove what they say.
        self.constants_folded * 2 + self.push_pop_removed * 2 + self.nops_removed
    }
}

/// Applies conservative peephole optimizations to every method.
///
/// Windows that overlap a branch target, a handler boundary, or a handler
/// target are left untouched so control-flow joins keep their meaning.
pub fn peephole(program: &Program) -> (Program, PeepholeStats) {
    let mut out = Program::new(program.pool_size());
    let mut stats = PeepholeStats::default();
    for m in program.methods() {
        out.add_method(peephole_method(m, &mut stats));
    }
    (out, stats)
}

fn peephole_method(m: &Method, stats: &mut PeepholeStats) -> Method {
    // Positions that must not be merged into a preceding window because
    // control can enter there.
    let mut entry_points: BTreeSet<usize> = BTreeSet::new();
    for op in m.code() {
        if let Some(t) = op.branch_target() {
            entry_points.insert(t);
        }
    }
    for h in m.handlers() {
        entry_points.insert(h.start);
        entry_points.insert(h.end);
        entry_points.insert(h.target);
    }

    let code = m.code();
    // First pass: rewrite into an op list where removed slots become
    // `None`; folded windows write their result at the *last* slot so
    // later branch targets stay correct relative to surviving ops.
    let mut slots: Vec<Option<Op>> = code.iter().copied().map(Some).collect();
    let crosses = |a: usize, b: usize| (a + 1..=b).any(|p| entry_points.contains(&p));

    let mut i = 0;
    while i < code.len() {
        // iconst a; iconst b; arith  ->  iconst (a op b)
        if i + 2 < code.len() && !crosses(i, i + 2) {
            if let (Some(Op::IConst(a)), Some(Op::IConst(b)), Some(arith)) =
                (slots[i], slots[i + 1], slots[i + 2])
            {
                let folded = match arith {
                    Op::IAdd => Some(a.wrapping_add(b)),
                    Op::ISub => Some(a.wrapping_sub(b)),
                    Op::IMul => Some(a.wrapping_mul(b)),
                    _ => None,
                };
                if let Some(v) = folded {
                    slots[i] = None;
                    slots[i + 1] = None;
                    slots[i + 2] = Some(Op::IConst(v));
                    stats.constants_folded += 1;
                    i += 3;
                    continue;
                }
            }
        }
        // iconst/aconst ; pop  ->  (nothing)
        if i + 1 < code.len() && !crosses(i, i + 1) {
            if let (Some(Op::IConst(_) | Op::AConst(_)), Some(Op::Pop)) = (slots[i], slots[i + 1]) {
                slots[i] = None;
                slots[i + 1] = None;
                stats.push_pop_removed += 1;
                i += 2;
                continue;
            }
        }
        // Standalone nop, unless it is an entry point placeholder.
        if slots[i] == Some(Op::Nop) && !entry_points.contains(&(i + 1)) {
            slots[i] = None;
            stats.nops_removed += 1;
        }
        i += 1;
    }

    // Second pass: compact and remap targets. `new_index[pc]` is the
    // index the op at old `pc` lands on; a removed op maps to the next
    // surviving op (branch targets can point at removed slots).
    let mut new_index = vec![0usize; code.len() + 1];
    let mut next = 0usize;
    for (pc, slot) in slots.iter().enumerate() {
        new_index[pc] = next;
        if slot.is_some() {
            next += 1;
        }
    }
    new_index[code.len()] = next;

    let remap = |t: usize| new_index[t];
    let new_code: Vec<Op> = slots
        .iter()
        .flatten()
        .map(|&op| match op {
            Op::Goto(t) => Op::Goto(remap(t)),
            Op::IfICmpLt(t) => Op::IfICmpLt(remap(t)),
            Op::IfICmpGe(t) => Op::IfICmpGe(remap(t)),
            Op::IfEq(t) => Op::IfEq(remap(t)),
            other => other,
        })
        .collect();

    let mut method = Method::new(
        m.name(),
        m.arg_count(),
        m.max_locals(),
        m.flags(),
        if new_code.is_empty() {
            vec![Op::Return]
        } else {
            new_code
        },
    );
    for &h in m.handlers() {
        method = method.with_handler(Handler {
            start: remap(h.start),
            end: remap(h.end).max(remap(h.start) + 1),
            target: remap(h.target),
        });
    }
    method
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Vm;
    use crate::program::MethodFlags;
    use crate::programs::MicroBench;
    use crate::value::Value;
    use crate::verify::{verify_program, VerifyOptions};
    use thinlock::ThinLocks;
    use thinlock_runtime::backend::SyncBackend;
    use thinlock_runtime::heap::ObjRef;
    use thinlock_runtime::protocol::SyncProtocol;

    fn run_program(program: &Program, pool_size: u32, arg: i32) -> i32 {
        let heap = std::sync::Arc::new(thinlock_runtime::heap::Heap::with_capacity_and_fields(
            pool_size as usize + 1,
            1,
        ));
        let locks = ThinLocks::new(heap, thinlock_runtime::registry::ThreadRegistry::new());
        let pool: Vec<ObjRef> = (0..pool_size)
            .map(|_| locks.heap().alloc().unwrap())
            .collect();
        let reg = locks.registry().register().unwrap();
        let vm = Vm::new(&locks, program, pool).unwrap();
        vm.run("main", reg.token(), &[Value::Int(arg)])
            .unwrap()
            .and_then(Value::as_int)
            .unwrap()
    }

    #[test]
    fn stripping_preserves_results_on_every_microbench() {
        for bench in [
            MicroBench::Sync,
            MicroBench::NestedSync,
            MicroBench::MultiSync(8),
            MicroBench::CallSync,
            MicroBench::NestedCallSync,
            MicroBench::MixedSync,
        ] {
            let original = bench.program();
            let stripped = strip_synchronization(&original);
            stripped.validate().unwrap();
            verify_program(&stripped, VerifyOptions::default()).unwrap();
            let n = 37;
            assert_eq!(
                run_program(&original, bench.pool_size(), n),
                run_program(&stripped, bench.pool_size(), n),
                "{bench}"
            );
            // And no method remains synchronized.
            assert!(stripped.methods().iter().all(|m| !m.flags().synchronized));
            assert!(!stripped
                .methods()
                .iter()
                .any(|m| m.code().contains(&Op::MonitorEnter)));
        }
    }

    #[test]
    fn stripped_program_never_locks() {
        let bench = MicroBench::Sync;
        let stripped = strip_synchronization(&bench.program());
        let locks = ThinLocks::with_capacity(2);
        let pool = vec![locks.heap().alloc().unwrap()];
        let reg = locks.registry().register().unwrap();
        let vm = Vm::new(&locks, &stripped, pool.clone()).unwrap();
        vm.run("main", reg.token(), &[Value::Int(100)]).unwrap();
        assert!(locks.lock_word(pool[0]).is_unlocked());
        assert_eq!(locks.inflation_count(), 0);
    }

    #[test]
    fn elide_applies_only_named_ops() {
        // MixedSync's main nests three enter/exit pairs; elide one pair
        // and verify the program still computes the same answer while
        // still actually locking (the other two pairs remain).
        let bench = MicroBench::MixedSync;
        let original = bench.program();
        let main = original.method(0).unwrap();
        let monitor_pcs: Vec<usize> = main
            .code()
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op, Op::MonitorEnter | Op::MonitorExit))
            .map(|(pc, _)| pc)
            .collect();
        assert_eq!(monitor_pcs.len(), 6);
        let plan = ElisionPlan {
            ops: vec![(0, monitor_pcs[0]), (0, monitor_pcs[5])],
            desync_methods: vec![],
        };
        let (elided, stats) = elide_local_sync(&original, &plan);
        assert_eq!(stats.ops_elided, 2);
        assert_eq!(stats.entries_ignored, 0);
        elided.validate().unwrap();
        let remaining = elided
            .method(0)
            .unwrap()
            .code()
            .iter()
            .filter(|op| matches!(op, Op::MonitorEnter | Op::MonitorExit))
            .count();
        assert_eq!(remaining, 4);
        assert_eq!(
            run_program(&original, bench.pool_size(), 29),
            run_program(&elided, bench.pool_size(), 29),
        );
    }

    #[test]
    fn elide_ignores_stale_plan_entries() {
        let p = MicroBench::Sync.program();
        let plan = ElisionPlan {
            ops: vec![(0, 0), (7, 3), (0, 9999)],
            desync_methods: vec![],
        };
        let (out, stats) = elide_local_sync(&p, &plan);
        // pc 0 of Sync's main is not a monitor op, and the others are out
        // of range: nothing may change.
        assert_eq!(stats.ops_elided, 0);
        assert_eq!(stats.entries_ignored, 3);
        assert_eq!(out.method(0).unwrap().code(), p.method(0).unwrap().code());
    }

    #[test]
    fn elide_clears_synchronized_flag_on_request() {
        let p = MicroBench::CallSync.program();
        let plan = ElisionPlan {
            ops: vec![],
            desync_methods: vec![1],
        };
        let (out, stats) = elide_local_sync(&p, &plan);
        assert_eq!(stats.methods_desynchronized, 1);
        assert!(!out.method(1).unwrap().flags().synchronized);
        assert_eq!(run_program(&p, 1, 41), run_program(&out, 1, 41),);
    }

    #[test]
    fn peephole_folds_constants() {
        let mut p = Program::new(0);
        p.add_method(Method::new(
            "main",
            1,
            1,
            MethodFlags {
                synchronized: false,
                returns_value: true,
            },
            vec![
                Op::IConst(20),
                Op::IConst(22),
                Op::IAdd,
                Op::Nop,
                Op::IReturn,
            ],
        ));
        let (opt, stats) = peephole(&p);
        opt.validate().unwrap();
        assert_eq!(stats.constants_folded, 1);
        assert_eq!(stats.nops_removed, 1);
        assert_eq!(stats.total_removed(), 3);
        assert_eq!(
            opt.method(0).unwrap().code(),
            &[Op::IConst(42), Op::IReturn]
        );
        assert_eq!(run_program(&opt, 0, 0), 42);
    }

    #[test]
    fn peephole_removes_push_pop() {
        let mut p = Program::new(1);
        p.add_method(Method::new(
            "main",
            1,
            1,
            MethodFlags {
                synchronized: false,
                returns_value: true,
            },
            vec![Op::AConst(0), Op::Pop, Op::IConst(7), Op::IReturn],
        ));
        let (opt, stats) = peephole(&p);
        assert_eq!(stats.push_pop_removed, 1);
        assert_eq!(opt.method(0).unwrap().code(), &[Op::IConst(7), Op::IReturn]);
        assert_eq!(run_program(&opt, 1, 0), 7);
    }

    #[test]
    fn peephole_respects_branch_targets() {
        // The iconst at pc 3 is a branch target: the window (2,3,4) must
        // not fold across it.
        let mut p = Program::new(0);
        p.add_method(Method::new(
            "main",
            1,
            1,
            MethodFlags {
                synchronized: false,
                returns_value: true,
            },
            vec![
                Op::ILoad(0),   // 0
                Op::IfEq(3),    // 1: arg==0 -> jump into the middle
                Op::IConst(10), // 2
                Op::IConst(20), // 3: branch target
                Op::IAdd,       // 4  (only valid on the fall-through path)
                Op::IReturn,    // 5
            ],
        ));
        let (opt, stats) = peephole(&p);
        opt.validate().unwrap();
        assert_eq!(stats.constants_folded, 0, "fold across a join is illegal");
        // Fall-through path unchanged semantically.
        assert_eq!(run_program(&opt, 0, 1), 30);
    }

    #[test]
    fn peephole_preserves_microbench_semantics() {
        for bench in [
            MicroBench::Sync,
            MicroBench::MultiSync(4),
            MicroBench::CallSync,
        ] {
            let original = bench.program();
            let (opt, _) = peephole(&original);
            opt.validate().unwrap();
            assert_eq!(
                run_program(&original, bench.pool_size(), 53),
                run_program(&opt, bench.pool_size(), 53),
                "{bench}"
            );
        }
    }

    #[test]
    fn peephole_remaps_handler_tables() {
        let mut p = Program::new(1);
        p.add_method(
            Method::new(
                "main",
                1,
                2,
                MethodFlags {
                    synchronized: false,
                    returns_value: true,
                },
                vec![
                    Op::Nop,       // 0: removable
                    Op::AConst(0), // 1
                    Op::Throw,     // 2
                    Op::AStore(1), // 3: handler target
                    Op::IConst(5), // 4
                    Op::IReturn,   // 5
                ],
            )
            .with_handler(Handler {
                start: 1,
                end: 3,
                target: 3,
            }),
        );
        let (opt, _) = peephole(&p);
        opt.validate().unwrap();
        assert_eq!(run_program(&opt, 1, 0), 5, "exception still caught");
    }
}
