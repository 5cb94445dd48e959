//! The micro-benchmark programs of Table 2 (plus Figure 6's `MixedSync`).
//!
//! Each benchmark "runs a tight loop for a specified number of iterations;
//! inside the loop an integer variable is incremented. The benchmarks
//! differ in what occurs between the outer loop and the inner variable
//! update" (Section 3.3). The generators here write the corresponding
//! programs in the assembly of [`crate::asm`]:
//!
//! | program          | loop body                                          |
//! |------------------|----------------------------------------------------|
//! | `NoSync`         | nothing — pure interpretation cost                 |
//! | `Sync`           | `synchronized(o) { count++ }` on an unlocked `o`   |
//! | `NestedSync`     | same, but `o` is already locked outside the loop   |
//! | `MultiSync n`    | synchronizes each of `n` objects every iteration   |
//! | `Call`           | calls a non-synchronized method                    |
//! | `CallSync`       | calls a synchronized method (initial lock)         |
//! | `NestedCallSync` | calls a synchronized method while holding the lock |
//! | `Threads n`      | the `Sync` body run concurrently by `n` threads    |
//! | `MixedSync`      | three nested locks of one object per iteration     |
//!
//! Every `main` takes the iteration count as argument 0 and returns it, so
//! harnesses can verify a run did what it claims.
//!
//! Beyond Table 2, [`concurrent_library`] provides seeded concurrent
//! programs with ground-truth race labels: statically race-free
//! counters (every shared-field access under a consistent lock) and
//! deliberately racy variants, used to validate the `lockcheck` guards
//! pass against the dynamic Eraser sanitizer.

use std::fmt;

use crate::asm::assemble;
use crate::program::Program;

/// Identifier of a Table 2 micro-benchmark (plus `MixedSync`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MicroBench {
    /// No locking — the reference benchmark.
    NoSync,
    /// Initial lock with a `synchronized()` statement.
    Sync,
    /// Nested lock with a `synchronized()` statement.
    NestedSync,
    /// Like `Sync`, but synchronizes `n` objects every iteration.
    MultiSync(u32),
    /// Calls a non-synchronized method — reference benchmark.
    Call,
    /// Calls a synchronized method to obtain an initial lock.
    CallSync,
    /// Calls a synchronized method to obtain a nested lock.
    NestedCallSync,
    /// Initial locking performed concurrently by `n` competing threads;
    /// the program is the `Sync` program, run on `n` threads by the
    /// harness.
    Threads(u32),
    /// Figure 6's cross of `Sync` and `NestedSync`: three nested locks of
    /// the same object on every iteration.
    MixedSync,
}

impl MicroBench {
    /// The benchmarks of Table 2 in presentation order, with the sweep
    /// parameters used in Figure 4.
    pub fn table2() -> Vec<MicroBench> {
        vec![
            MicroBench::NoSync,
            MicroBench::Sync,
            MicroBench::NestedSync,
            MicroBench::MultiSync(64),
            MicroBench::Call,
            MicroBench::CallSync,
            MicroBench::NestedCallSync,
            MicroBench::Threads(4),
        ]
    }

    /// Number of pooled objects the benchmark's program needs.
    pub fn pool_size(self) -> u32 {
        match self {
            MicroBench::NoSync => 0,
            MicroBench::MultiSync(n) => n.max(1),
            _ => 1,
        }
    }

    /// Builds the benchmark's bytecode program. The entry point is always
    /// a method named `main` taking the iteration count.
    pub fn program(self) -> Program {
        let main = match self {
            MicroBench::NoSync => looped_method("main", ""),
            MicroBench::Sync | MicroBench::Threads(_) => {
                looped_method("main", &locked("aconst 0", BUMP))
            }
            MicroBench::NestedSync => {
                counted_loop("main", 3, true, COUNTER, &locked("aconst 0", BUMP))
            }
            MicroBench::MultiSync(n) => {
                let body: String = (0..n.max(1))
                    .map(|k| locked(&format!("aconst {k}"), BUMP))
                    .collect();
                looped_method("main", &body)
            }
            MicroBench::Call => call_methods(false, false),
            MicroBench::CallSync => call_methods(true, false),
            MicroBench::NestedCallSync => call_methods(true, true),
            MicroBench::MixedSync => {
                let inner = locked("aconst 0", &locked("aconst 0", BUMP));
                looped_method("main", &locked("aconst 0", &inner))
            }
        };
        asm(&format!("pool {}\n{main}", self.pool_size()))
    }

    /// Expected return value of `main(iters)` — the iteration count.
    pub fn expected(self, iters: i32) -> i32 {
        iters
    }

    /// For the threaded benchmark, the thread count; 1 otherwise.
    pub fn thread_count(self) -> u32 {
        match self {
            MicroBench::Threads(n) => n.max(1),
            _ => 1,
        }
    }
}

impl fmt::Display for MicroBench {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MicroBench::NoSync => f.write_str("NoSync"),
            MicroBench::Sync => f.write_str("Sync"),
            MicroBench::NestedSync => f.write_str("NestedSync"),
            MicroBench::MultiSync(n) => write!(f, "MultiSync {n}"),
            MicroBench::Call => f.write_str("Call"),
            MicroBench::CallSync => f.write_str("CallSync"),
            MicroBench::NestedCallSync => f.write_str("NestedCallSync"),
            MicroBench::Threads(n) => write!(f, "Threads {n}"),
            MicroBench::MixedSync => f.write_str("MixedSync"),
        }
    }
}

/// Assembles a catalog program. The sources are this module's own, so
/// a failure is a bug here.
fn asm(source: &str) -> Program {
    assemble(source).unwrap_or_else(|e| panic!("catalog program: {e}\n{source}"))
}

/// The Table 2 loop body's `counter++` (local 2).
const BUMP: &str = "  iinc 2 1\n";

/// `counter = 0`, the Table 2 loops' setup.
const COUNTER: &str = "  iconst 0\n  istore 2\n";

/// `synchronized(obj) { body }`, where `obj` is the instruction that
/// pushes the lock object.
fn locked(obj: &str, body: &str) -> String {
    format!("  {obj}\n  monitorenter\n{body}  {obj}\n  monitorexit\n")
}

/// `obj.f(field)++` with no lock, where `obj` is the instruction that
/// pushes the object.
fn field_inc(obj: &str, field: u16) -> String {
    format!("  {obj}\n  {obj}\n  getfield {field}\n  iconst 1\n  iadd\n  putfield {field}\n")
}

/// `name(iters)` with `locals` local slots: runs `body` `iters` times and
/// returns `iters`. Local 0 is `iters` and local 1 the induction variable
/// `i`; `setup` runs once after `i = 0`, and with `hold` the whole loop
/// runs inside `synchronized(pool[0])` (the nested benchmarks' shape).
fn counted_loop(name: &str, locals: u8, hold: bool, setup: &str, body: &str) -> String {
    let mut code = format!(
        "  iconst 0
  istore 1
{setup}loop:
  iload 1
  iload 0
  if_icmpge end
{body}  iinc 1 1
  goto loop
end:
"
    );
    if hold {
        code = locked("aconst 0", &code);
    }
    format!("method {name} args=1 locals={locals} returns {{\n{code}  iload 1\n  ireturn\n}}\n")
}

/// `name(iters)`: the Table 2 loop with `body` between the bounds check
/// and the induction increment. Locals: 0 = iters, 1 = i, 2 = counter.
fn looped_method(name: &str, body: &str) -> String {
    counted_loop(name, 3, false, COUNTER, body)
}

/// The `Call`/`CallSync`/`NestedCallSync` methods: the loop body invokes
/// `bump(pool[0])` (method 1), which increments the object's field 0.
/// `sync` makes `bump` synchronized; `hold` wraps the whole loop in
/// `synchronized(pool[0])` so every call-site lock is nested.
fn call_methods(sync: bool, hold: bool) -> String {
    let main = counted_loop("main", 2, hold, "", "  aconst 0\n  invoke 1\n");
    let sync = if sync { " sync" } else { "" };
    let bump = field_inc("aload 0", 0);
    format!("{main}method bump args=1 locals=1{sync} {{\n{bump}  return\n}}\n")
}

/// A classic lock-order inversion: `left` acquires `pool[0]` then
/// `pool[1]`, `right` acquires them in the opposite order. Two threads
/// interleaving `left` and `right` can deadlock; `lockcheck`'s
/// lock-order pass must flag the `0 <-> 1` cycle. Single-threaded
/// execution is safe, so the program still runs under the dynamic
/// oracle: `main(iters)` calls both once and returns `iters`.
pub fn deadlock_pair() -> Program {
    let left = locked("aconst 0", &locked("aconst 1", ""));
    let right = locked("aconst 1", &locked("aconst 0", ""));
    asm(&format!(
        "\
pool 2
method main args=1 locals=1 returns {{
  invoke 1
  invoke 2
  iload 0
  ireturn
}}
method left args=0 locals=0 {{
{left}  return
}}
method right args=0 locals=0 {{
{right}  return
}}
"
    ))
}

/// `main(n)` recurses `n` levels deep, re-locking `pool[0]` at every
/// level — nest depth equals the argument, so no static finite bound
/// exists. With `n > 256` the thin-lock count field overflows and forces
/// inflation mid-critical-section; `lockcheck`'s nest-depth pass must
/// report `pool[0]` as unbounded and emit a pre-inflation hint.
pub fn deep_nest() -> Program {
    let recurse = locked("aconst 0", "  iload 0\n  iconst 1\n  isub\n  invoke 1\n");
    asm(&format!(
        "\
pool 1
method main args=1 locals=1 returns {{
  iload 0
  invoke 1
  iload 0
  ireturn
}}
; rec(n): n == 0 returns; otherwise rec(n - 1) while holding pool[0]
method rec args=1 locals=1 {{
  iload 0
  ifeq done
{recurse}done:
  return
}}
"
    ))
}

/// A `monitorexit` with no matching `monitorenter` on any path — the
/// unbalanced-lock seed `lockcheck` must diagnose at pc 1. Its types are
/// fine, so that orphan exit is the verifier's one objection.
pub fn unbalanced_exit() -> Program {
    asm("\
pool 1
method main args=1 locals=1 returns {
  aconst 0
  monitorexit
  iload 0
  ireturn
}
")
}

/// Balanced lock counts but scrambled identity: acquires `pool[0]` then
/// `pool[1]` and releases them outermost-first. The verifier's depth
/// counter cannot see this; the symbolic lock-stack pass must flag the
/// non-LIFO release at pc 5.
pub fn non_lifo_pair() -> Program {
    asm("\
pool 2
method main args=1 locals=1 returns {
  aconst 0
  monitorenter
  aconst 1
  monitorenter
  aconst 0
  monitorexit    ; releases the outer lock first
  aconst 1
  monitorexit
  iload 0
  ireturn
}
")
}

/// One worker kind of a [`ConcurrentProgram`]: `threads` threads each
/// run the named entry method concurrently over the shared pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadRole {
    /// Entry method name (each role method takes the iteration count).
    pub method: &'static str,
    /// Number of threads running this role.
    pub threads: u32,
}

/// A seeded concurrent program with its harness contract: which methods
/// run on how many threads, and whether the program contains a data
/// race by construction. The race detectors (static `lockcheck` guards
/// pass and the dynamic Eraser sanitizer) are tested against exactly
/// these ground-truth labels.
///
/// Every racy program has at least two threads whose accesses to the
/// racy field hold *no* lock, so a lockset (Eraser) sanitizer reports
/// it under any thread schedule — the verdict is schedule-independent,
/// not a lucky interleaving.
#[derive(Debug)]
pub struct ConcurrentProgram {
    /// Stable program name, used in reports and bench output.
    pub name: &'static str,
    /// The bytecode.
    pub program: Program,
    /// The worker roles the harness runs.
    pub roles: Vec<ThreadRole>,
    /// Fields per heap object the program touches.
    pub fields: u16,
    /// True when the program contains a seeded data race.
    pub racy: bool,
    /// The `(pool, field)` pairs expected to race (empty when clean).
    pub racy_fields: Vec<(u32, u16)>,
    /// Ground-truth contention shape per pool site, as
    /// `(pool, shape-name)` with the stable lowercase names of the
    /// `lockcheck` contention pass (`"thread-local"`, `"uncontended"`,
    /// `"hot-mutex"`, `"wait-heavy"`, `"churn"`). Labels are plain
    /// strings so this crate stays independent of `thinlock-analysis`;
    /// the static pass is tested against exactly these labels, the same
    /// way the race detectors are tested against `racy_fields`.
    pub expected_shapes: Vec<(u32, &'static str)>,
}

impl ConcurrentProgram {
    /// Total worker threads across all roles.
    pub fn total_threads(&self) -> u32 {
        self.roles.iter().map(|r| r.threads).sum()
    }
}

/// `synchronized(pool[lock]) { pool[obj].f(field)++ }`.
fn guarded_inc(lock: u32, obj: u32, field: u16) -> String {
    locked(
        &format!("aconst {lock}"),
        &field_inc(&format!("aconst {obj}"), field),
    )
}

/// `pool[0].f(0)++` through `getfielddyn`/`putfielddyn` with a constant
/// index operand — exercises the dynamic field forms' constant-index
/// precision in the static passes.
const DYN_INC: &str = "  aconst 0
  iconst 0
  aconst 0
  iconst 0
  getfielddyn
  iconst 1
  iadd
  putfielddyn
";

/// One library entry, its arguments in [`ConcurrentProgram`]'s field
/// order: each role `(method, threads, body)` adds a [`looped_method`]
/// running `body` to a program over `pool` objects, in role order.
fn entry(
    name: &'static str,
    pool: u32,
    roles: &[(&'static str, u32, String)],
    fields: u16,
    racy_fields: &[(u32, u16)],
    expected_shapes: &[(u32, &'static str)],
) -> ConcurrentProgram {
    let methods: String = roles
        .iter()
        .map(|(method, _, body)| looped_method(method, body))
        .collect();
    ConcurrentProgram {
        name,
        program: asm(&format!("pool {pool}\n{methods}")),
        roles: roles
            .iter()
            .map(|&(method, threads, _)| ThreadRole { method, threads })
            .collect(),
        fields,
        racy: !racy_fields.is_empty(),
        racy_fields: racy_fields.to_vec(),
        expected_shapes: expected_shapes.to_vec(),
    }
}

/// The seeded concurrent program library: seven statically race-free
/// programs and three with a data race by construction. Ground truth
/// for both race detectors.
pub fn concurrent_library() -> Vec<ConcurrentProgram> {
    let guarded = || guarded_inc(0, 0, 0);
    let bare = || field_inc("aconst 0", 0);
    let hot = [(0, "hot-mutex")];
    let racy = [(0, 0)];
    let mut library = vec![
        // Clean: every access of pool[0].f0 holds pool[0].
        entry(
            "guarded-counter",
            1,
            &[("main", 2, guarded())],
            1,
            &[],
            &hot,
        ),
        // Clean: same discipline through the dynamic field forms.
        entry(
            "guarded-dyn-counter",
            1,
            &[("main", 2, locked("aconst 0", DYN_INC))],
            1,
            &[],
            &hot,
        ),
        // Clean: one writer, two readers, all under pool[0].
        entry(
            "read-mostly",
            1,
            &[
                ("writer", 1, guarded()),
                (
                    "reader",
                    2,
                    locked("aconst 0", "  aconst 0\n  getfield 0\n  pop\n"),
                ),
            ],
            1,
            &[],
            &hot,
        ),
        // Clean: pool[1] guards pool[0].f0, pool[0] guards pool[0].f1 —
        // the guard need not be the object it protects.
        entry(
            "two-locks-two-fields",
            2,
            &[("main", 2, guarded_inc(1, 0, 0) + &guarded_inc(0, 0, 1))],
            2,
            &[],
            &[(0, "hot-mutex"), (1, "hot-mutex")],
        ),
        // Racy: two threads increment pool[0].f0 with no lock at all.
        entry(
            "racy-counter",
            1,
            &[("main", 2, bare())],
            1,
            &racy,
            &[(0, "uncontended")],
        ),
        // Racy: the same unguarded increment through the dynamic forms.
        entry(
            "racy-dyn-counter",
            1,
            &[("main", 2, DYN_INC.to_string())],
            1,
            &racy,
            &[(0, "uncontended")],
        ),
        // Racy: one disciplined writer plus two bare writers — the
        // per-field lockset intersection is empty even though one role
        // locks.
        entry(
            "racy-partial-guard",
            1,
            &[("locked", 1, guarded()), ("bare", 2, bare())],
            1,
            &racy,
            &[(0, "uncontended")],
        ),
        // Clean, hot: four threads hammer one guarded counter — the
        // canonical hot single-object mutex (the fairness workload's
        // shape). Statically distinguishable from `guarded-counter` only
        // by its thread count.
        entry("hot-object", 1, &[("main", 4, guarded())], 1, &[], &hot),
    ];

    // Clean, churning: each iteration locks a *rotating* pool object
    // (`pool[i % 4]`, through `aloadpool` with a loop-varying index)
    // and bumps a field on the locked object itself. No single site is
    // hot, but the monitor population cycles — the deflation story.
    // Race-free: every access of pool[p].f0 holds pool[p]'s own lock.
    library.push(ConcurrentProgram {
        name: "churn-locks",
        program: churn_program(4),
        roles: vec![ThreadRole {
            method: "main",
            threads: 2,
        }],
        fields: 1,
        racy: false,
        racy_fields: Vec::new(),
        expected_shapes: (0..4).map(|p| (p, "churn")).collect(),
    });

    // Clean, wait-heavy: one producer bumps pool[0].f0 and notifies;
    // two consumers wait on pool[0] and read the field, all under
    // pool[0]'s monitor. Parking is part of the protocol, so the site
    // should be fat before the first waiter arrives.
    let produce = field_inc("aconst 0", 0) + "  aconst 0\n  notify\n";
    let consume = "  aconst 0\n  wait\n  aconst 0\n  getfield 0\n  pop\n";
    library.push(entry(
        "wait-pipeline",
        1,
        &[
            ("producer", 1, locked("aconst 0", &produce)),
            ("consumer", 2, locked("aconst 0", consume)),
        ],
        1,
        &[],
        &[(0, "wait-heavy")],
    ));
    library
}

/// `main(iters)`: lock `pool[i % locks]` each iteration and bump a
/// field on the locked object. Every lock identity is dynamic
/// (`aloadpool` with a loop-varying index), so the lock *population*
/// churns while no single site gets hot. Locals: 0 = iters, 1 = i,
/// 3 = the iteration's lock object.
fn churn_program(locks: u32) -> Program {
    let body = format!(
        "  iload 1\n  iconst {locks}\n  irem\n  aloadpool\n  astore 3\n{}",
        locked("aload 3", &field_inc("aload 3", 0))
    );
    let main = counted_loop("main", 4, false, "", &body);
    asm(&format!("pool {locks}\n{main}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Vm;
    use crate::value::Value;
    use std::sync::Arc;
    use thinlock::ThinLocks;
    use thinlock_runtime::backend::SyncBackend;
    use thinlock_runtime::heap::{Heap, ObjRef};
    use thinlock_runtime::protocol::SyncProtocol;
    use thinlock_runtime::registry::ThreadRegistry;

    fn run_bench(bench: MicroBench, iters: i32) -> (i32, ThinLocks, Vec<ObjRef>) {
        let pool_size = bench.pool_size() as usize;
        let heap = Arc::new(Heap::with_capacity_and_fields(pool_size + 1, 1));
        let locks = ThinLocks::new(heap, ThreadRegistry::new());
        let pool: Vec<ObjRef> = (0..pool_size)
            .map(|_| locks.heap().alloc().unwrap())
            .collect();
        let program = bench.program();
        program
            .validate()
            .expect("generated program is well-formed");
        let reg = locks.registry().register().unwrap();
        let out = {
            let vm = Vm::new(&locks, &program, pool.clone()).unwrap();
            vm.run("main", reg.token(), &[Value::Int(iters)])
                .unwrap()
                .and_then(Value::as_int)
                .unwrap()
        };
        (out, locks, pool)
    }

    #[test]
    fn every_generated_program_validates() {
        let all = [
            MicroBench::NoSync,
            MicroBench::Sync,
            MicroBench::NestedSync,
            MicroBench::MultiSync(1),
            MicroBench::MultiSync(64),
            MicroBench::MultiSync(1024),
            MicroBench::Call,
            MicroBench::CallSync,
            MicroBench::NestedCallSync,
            MicroBench::Threads(8),
            MicroBench::MixedSync,
        ];
        for b in all {
            b.program()
                .validate()
                .unwrap_or_else(|e| panic!("{b}: {e}"));
        }
    }

    #[test]
    fn no_sync_counts_iterations() {
        let (out, locks, _) = run_bench(MicroBench::NoSync, 500);
        assert_eq!(out, 500);
        assert_eq!(locks.inflation_count(), 0);
    }

    #[test]
    fn sync_locks_and_releases_each_iteration() {
        let (out, locks, pool) = run_bench(MicroBench::Sync, 200);
        assert_eq!(out, 200);
        assert!(locks.lock_word(pool[0]).is_unlocked());
        assert_eq!(locks.inflation_count(), 0, "single thread: stays thin");
    }

    #[test]
    fn nested_sync_nests_within_outer_lock() {
        let (out, locks, pool) = run_bench(MicroBench::NestedSync, 200);
        assert_eq!(out, 200);
        assert!(locks.lock_word(pool[0]).is_unlocked());
        assert_eq!(
            locks.inflation_count(),
            0,
            "nesting depth 2 never overflows the count"
        );
    }

    #[test]
    fn multi_sync_touches_every_object() {
        let n = 16;
        let (out, locks, pool) = run_bench(MicroBench::MultiSync(n), 50);
        assert_eq!(out, 50);
        assert_eq!(pool.len(), n as usize);
        for o in pool {
            assert!(locks.lock_word(o).is_unlocked());
        }
    }

    #[test]
    fn call_benchmarks_update_the_field() {
        for bench in [
            MicroBench::Call,
            MicroBench::CallSync,
            MicroBench::NestedCallSync,
        ] {
            let (out, locks, pool) = run_bench(bench, 100);
            assert_eq!(out, 100, "{bench}");
            let field = locks
                .heap()
                .field(pool[0], 0)
                .load(std::sync::atomic::Ordering::Relaxed);
            assert_eq!(field, 100, "{bench}: bump ran once per iteration");
            assert!(locks.lock_word(pool[0]).is_unlocked(), "{bench}");
        }
    }

    #[test]
    fn mixed_sync_three_nested_locks() {
        let (out, locks, pool) = run_bench(MicroBench::MixedSync, 100);
        assert_eq!(out, 100);
        assert!(locks.lock_word(pool[0]).is_unlocked());
        assert_eq!(locks.inflation_count(), 0, "depth 3 stays thin");
    }

    #[test]
    fn threads_program_is_shared_safely() {
        let bench = MicroBench::Threads(4);
        let heap = Arc::new(Heap::with_capacity(2));
        let locks = Arc::new(ThinLocks::new(heap, ThreadRegistry::new()));
        let pool = vec![locks.heap().alloc().unwrap()];
        let program = Arc::new(bench.program());
        let mut handles = Vec::new();
        for _ in 0..bench.thread_count() {
            let locks = Arc::clone(&locks);
            let program = Arc::clone(&program);
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                let reg = locks.registry().register().unwrap();
                let vm = Vm::new(&*locks, &program, pool).unwrap();
                vm.run("main", reg.token(), &[Value::Int(200)])
                    .unwrap()
                    .and_then(Value::as_int)
                    .unwrap()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 200);
        }
        // The shared object's lock must be fully released at the end.
        let reg = locks.registry().register().unwrap();
        assert!(!locks.holds_lock(pool[0], reg.token()));
    }

    #[test]
    fn concurrent_library_programs_validate_and_run() {
        let library = concurrent_library();
        assert_eq!(library.len(), 10);
        for entry in &library {
            entry
                .program
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            assert!(entry.total_threads() >= 2, "{}", entry.name);
            assert_eq!(entry.racy, !entry.racy_fields.is_empty(), "{}", entry.name);
            // Each role method runs single-threaded to completion.
            let pool_size = entry.program.pool_size() as usize;
            let heap = Arc::new(Heap::with_capacity_and_fields(
                pool_size + 1,
                usize::from(entry.fields),
            ));
            let locks = ThinLocks::new(heap, ThreadRegistry::new());
            let pool: Vec<ObjRef> = (0..pool_size)
                .map(|_| locks.heap().alloc().unwrap())
                .collect();
            let reg = locks.registry().register().unwrap();
            for role in &entry.roles {
                let vm = Vm::new(&locks, &entry.program, pool.clone()).unwrap();
                let out = vm
                    .run(role.method, reg.token(), &[Value::Int(25)])
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", entry.name, role.method))
                    .and_then(Value::as_int)
                    .unwrap();
                assert_eq!(out, 25, "{}/{}", entry.name, role.method);
            }
            for o in &pool {
                // `wait` inflates under the one-way thin backend, so
                // check ownership, not the thin word shape.
                assert!(locks.owner_of(*o).is_none(), "{}", entry.name);
            }
        }
    }

    #[test]
    fn concurrent_library_counters_add_up_under_contention() {
        // The guarded counter is exact under real concurrency: 2 threads
        // x 100 guarded increments must land on 200.
        let entry = concurrent_library()
            .into_iter()
            .find(|e| e.name == "guarded-counter")
            .unwrap();
        let heap = Arc::new(Heap::with_capacity_and_fields(2, 1));
        let locks = Arc::new(ThinLocks::new(heap, ThreadRegistry::new()));
        let pool = vec![locks.heap().alloc().unwrap()];
        let program = Arc::new(entry.program);
        let mut handles = Vec::new();
        for _ in 0..2 {
            let locks = Arc::clone(&locks);
            let program = Arc::clone(&program);
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                let reg = locks.registry().register().unwrap();
                let vm = Vm::new(&*locks, &program, pool).unwrap();
                vm.run("main", reg.token(), &[Value::Int(100)]).unwrap()
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let field = locks
            .heap()
            .field(pool[0], 0)
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(field, 200);
    }

    #[test]
    fn table2_listing_and_names() {
        let names: Vec<String> = MicroBench::table2().iter().map(|b| b.to_string()).collect();
        assert_eq!(
            names,
            vec![
                "NoSync",
                "Sync",
                "NestedSync",
                "MultiSync 64",
                "Call",
                "CallSync",
                "NestedCallSync",
                "Threads 4"
            ]
        );
        assert_eq!(MicroBench::Threads(4).thread_count(), 4);
        assert_eq!(MicroBench::Sync.thread_count(), 1);
        assert_eq!(MicroBench::Sync.expected(7), 7);
    }
}
