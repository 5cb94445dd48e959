//! Dynamic oracle for the static analyses.
//!
//! Two end-to-end claims, each checked against a real `ThinLocks` run:
//!
//! 1. **Elision soundness** — every monitor operation the escape pass
//!    marks elidable is on an object the runtime never observes
//!    contended: a recording protocol wrapper logs which threads lock
//!    which objects, and no elided op's object may ever be locked by a
//!    second thread.
//! 2. **Pre-inflation effectiveness** — applying the nest-depth pass's
//!    hints through `Vm::apply_pre_inflation_hints` eliminates
//!    count-overflow inflation entirely (replaced by one up-front
//!    hint inflation).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use thinlock::ThinLocks;
use thinlock_analysis::analyze_program;
use thinlock_analysis::escape::EscapeContext;
use thinlock_analysis::lockstack::Sym;
use thinlock_runtime::heap::{Heap, ObjRef};
use thinlock_runtime::hooks::HookSet;
use thinlock_runtime::protocol::{SyncProtocol, WaitOutcome};
use thinlock_runtime::registry::{ThreadRegistry, ThreadToken};
use thinlock_runtime::stats::LockStats;
use thinlock_runtime::SyncResult;
use thinlock_vm::programs::{self, MicroBench};
use thinlock_vm::transform::elide_local_sync;
use thinlock_vm::value::Value;
use thinlock_vm::Vm;

/// Wraps a protocol and records, per object, every thread that locks it.
struct Recorder<'a> {
    inner: &'a ThinLocks,
    lockers: Mutex<BTreeMap<ObjRef, BTreeSet<u32>>>,
    lock_calls: AtomicUsize,
}

impl<'a> Recorder<'a> {
    fn new(inner: &'a ThinLocks) -> Self {
        Recorder {
            inner,
            lockers: Mutex::new(BTreeMap::new()),
            lock_calls: AtomicUsize::new(0),
        }
    }

    fn distinct_lockers(&self, obj: ObjRef) -> usize {
        self.lockers
            .lock()
            .unwrap()
            .get(&obj)
            .map_or(0, BTreeSet::len)
    }
}

impl SyncProtocol for Recorder<'_> {
    fn lock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        self.lock_calls.fetch_add(1, Ordering::Relaxed);
        self.lockers
            .lock()
            .unwrap()
            .entry(obj)
            .or_default()
            .insert(t.shifted());
        self.inner.lock(obj, t)
    }
    fn unlock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        self.inner.unlock(obj, t)
    }
    fn wait(
        &self,
        obj: ObjRef,
        t: ThreadToken,
        timeout: Option<Duration>,
    ) -> SyncResult<WaitOutcome> {
        self.inner.wait(obj, t, timeout)
    }
    fn notify(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        self.inner.notify(obj, t)
    }
    fn notify_all(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        self.inner.notify_all(obj, t)
    }
    fn holds_lock(&self, obj: ObjRef, t: ThreadToken) -> bool {
        self.inner.holds_lock(obj, t)
    }
    fn heap(&self) -> &Heap {
        self.inner.heap()
    }
    fn registry(&self) -> &ThreadRegistry {
        self.inner.registry()
    }
    fn name(&self) -> &'static str {
        "Recorder"
    }
}

fn locks_with_pool(pool_size: u32) -> (ThinLocks, Vec<ObjRef>) {
    locks_with_pool_fields(pool_size, 16)
}

fn locks_with_pool_fields(pool_size: u32, fields: usize) -> (ThinLocks, Vec<ObjRef>) {
    let heap = Arc::new(Heap::with_capacity_and_fields(
        pool_size as usize + 1,
        fields,
    ));
    let locks = ThinLocks::new(heap, ThreadRegistry::new());
    let pool: Vec<ObjRef> = (0..pool_size)
        .map(|_| locks.heap().alloc().unwrap())
        .collect();
    (locks, pool)
}

/// Runs `main(iters)` on `threads` threads sharing one pool, like the
/// benchmark harness, through the recorder.
fn run_recorded(
    program: &thinlock_vm::program::Program,
    pool_size: u32,
    fields: usize,
    threads: u32,
    iters: i32,
) {
    let (locks, pool) = locks_with_pool_fields(pool_size, fields);
    let recorder = Recorder::new(&locks);
    let vm = Vm::new(&recorder, program, pool.clone()).unwrap();
    // All threads register before any runs, so a finished thread's
    // registry index is never recycled into a colliding token.
    let barrier = std::sync::Barrier::new(threads as usize);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let reg = recorder.registry().register().unwrap();
                barrier.wait();
                vm.run("main", reg.token(), &[Value::Int(iters)]).unwrap();
            });
        }
    });
    // Every object any elided op may name must never have been locked by
    // a second thread. `local_pool` covers exactly those objects: a
    // `Pool(k)` op names pool[k] ∈ local_pool, and `Arg`/`Unknown` ops
    // are only elided when every pool object is local.
    let ctx = EscapeContext::threads(threads);
    let report = analyze_program(program, &ctx);
    for &(mid, pc) in &report.escape.elidable_ops {
        let facts = report
            .methods
            .iter()
            .find(|m| m.method_id == mid)
            .expect("facts for elided method");
        let site = facts
            .monitor_ops
            .iter()
            .find(|m| m.pc == pc)
            .expect("elided pc is a monitor op");
        let candidates: Vec<ObjRef> = match site.sym {
            Sym::Pool(k) => vec![pool[k as usize]],
            Sym::Arg(_) | Sym::Unknown => pool.clone(),
        };
        for obj in candidates {
            assert!(
                recorder.distinct_lockers(obj) <= 1,
                "elided op ({mid}, {pc}) on {obj:?} was locked by {} threads",
                recorder.distinct_lockers(obj),
            );
        }
    }
}

#[test]
fn elided_ops_are_never_contended_single_threaded() {
    for bench in [
        MicroBench::Sync,
        MicroBench::NestedSync,
        MicroBench::MultiSync(8),
        MicroBench::CallSync,
        MicroBench::NestedCallSync,
        MicroBench::MixedSync,
    ] {
        run_recorded(&bench.program(), bench.pool_size(), 16, 1, 50);
    }
    // JavaLex builds a vector of `iters` elements into pool[0]'s fields.
    let lib = thinlock_vm::library::javalex_like();
    run_recorded(&lib, lib.pool_size(), 48, 1, 40);
}

#[test]
fn threaded_context_elides_nothing_and_oracle_confirms_contention() {
    // With 4 threads sharing the pool, escape marks nothing elidable —
    // and the oracle shows why: the pool object really is locked by
    // multiple threads.
    let bench = MicroBench::Threads(4);
    let program = bench.program();
    let ctx = EscapeContext::threads(4);
    let report = analyze_program(&program, &ctx);
    assert!(report.escape.elidable_ops.is_empty());

    let (locks, pool) = locks_with_pool(bench.pool_size());
    let recorder = Recorder::new(&locks);
    let vm = Vm::new(&recorder, &program, pool.clone()).unwrap();
    let barrier = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let reg = recorder.registry().register().unwrap();
                barrier.wait();
                vm.run("main", reg.token(), &[Value::Int(200)]).unwrap();
            });
        }
    });
    assert!(recorder.distinct_lockers(pool[0]) > 1);
}

#[test]
fn elided_program_computes_same_result_with_zero_lock_traffic() {
    for bench in [
        MicroBench::Sync,
        MicroBench::MultiSync(4),
        MicroBench::CallSync,
        MicroBench::MixedSync,
    ] {
        let program = bench.program();
        let report = analyze_program(&program, &EscapeContext::single_threaded());
        let (elided, stats) = elide_local_sync(&program, &report.escape.elision_plan());
        // CallSync's locking is all through the synchronized flag; the
        // loop benchmarks lock with explicit monitor ops.
        assert!(
            stats.ops_elided + stats.methods_desynchronized > 0,
            "{bench}"
        );
        assert_eq!(stats.entries_ignored, 0, "{bench}");

        let iters = 64;
        let (locks, pool) = locks_with_pool(bench.pool_size());
        let reg = locks.registry().register().unwrap();
        let original = Vm::new(&locks, &program, pool.clone()).unwrap();
        let want = original
            .run("main", reg.token(), &[Value::Int(iters)])
            .unwrap();

        let (locks2, pool2) = locks_with_pool(bench.pool_size());
        let recorder = Recorder::new(&locks2);
        let reg2 = recorder.registry().register().unwrap();
        let vm = Vm::new(&recorder, &elided, pool2.clone()).unwrap();
        let got = vm.run("main", reg2.token(), &[Value::Int(iters)]).unwrap();

        assert_eq!(want, got, "{bench}");
        assert_eq!(
            recorder.lock_calls.load(Ordering::Relaxed),
            0,
            "{bench}: fully elided program must never reach the protocol"
        );
        for &obj in &pool2 {
            assert!(locks2.lock_word(obj).is_unlocked(), "{bench}");
        }
        assert_eq!(locks2.inflated_count(), 0, "{bench}");
    }
}

#[test]
fn pre_inflation_hints_eliminate_overflow_inflation() {
    // 300 recursive interpreter frames need more stack than the default
    // test thread provides in debug builds.
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(pre_inflation_hints_eliminate_overflow_inflation_impl)
        .unwrap()
        .join()
        .unwrap();
}

fn pre_inflation_hints_eliminate_overflow_inflation_impl() {
    let program = programs::deep_nest();
    let report = analyze_program(&program, &EscapeContext::single_threaded());
    assert_eq!(report.nest.hints, vec![0]);

    let depth = 300; // > 256 simultaneous holds: thin count overflows

    // Without hints: one count-overflow inflation mid-critical-section.
    let (locks, pool, stats) = {
        let heap = Arc::new(Heap::with_capacity_and_fields(2, 1));
        let stats = Arc::new(LockStats::new());
        let hooks = HookSet::new().sink(Arc::clone(&stats) as _);
        let locks = ThinLocks::new(heap, ThreadRegistry::new()).with_hooks(hooks);
        let pool = vec![locks.heap().alloc().unwrap()];
        (locks, pool, stats)
    };
    let reg = locks.registry().register().unwrap();
    let vm = Vm::new(&locks, &program, pool).unwrap();
    vm.run("main", reg.token(), &[Value::Int(depth)]).unwrap();
    let cold = stats.snapshot();
    assert_eq!(
        cold.inflations[1], 1,
        "count overflow without hints: {cold:?}"
    );
    assert_eq!(cold.inflations[3], 0);

    // With hints: the overflow never happens; one up-front hint inflation.
    let (locks, pool, stats) = {
        let heap = Arc::new(Heap::with_capacity_and_fields(2, 1));
        let stats = Arc::new(LockStats::new());
        let hooks = HookSet::new().sink(Arc::clone(&stats) as _);
        let locks = ThinLocks::new(heap, ThreadRegistry::new()).with_hooks(hooks);
        let pool = vec![locks.heap().alloc().unwrap()];
        (locks, pool, stats)
    };
    let reg = locks.registry().register().unwrap();
    let vm = Vm::new(&locks, &program, pool).unwrap();
    let applied = vm.apply_pre_inflation_hints(&report.nest.hints);
    assert_eq!(applied, 1);
    vm.run("main", reg.token(), &[Value::Int(depth)]).unwrap();
    let warm = stats.snapshot();
    assert_eq!(
        warm.inflations[1], 0,
        "hints must prevent overflow: {warm:?}"
    );
    assert_eq!(warm.inflations[3], 1);
    assert_eq!(locks.inflated_count(), 1);
}

#[test]
fn deadlock_pair_runs_clean_single_threaded_but_is_flagged() {
    // The seeded deadlock program is a *potential* deadlock: one thread
    // executes it fine (so the oracle can run it), yet the static cycle
    // stands as a warning for any two-thread interleaving.
    let program = programs::deadlock_pair();
    let report = analyze_program(&program, &EscapeContext::threads(2));
    assert_eq!(report.lock_order.cycles, vec![vec![0, 1]]);

    let (locks, pool) = locks_with_pool(2);
    let reg = locks.registry().register().unwrap();
    let vm = Vm::new(&locks, &program, pool).unwrap();
    let out = vm.run("main", reg.token(), &[Value::Int(7)]).unwrap();
    assert_eq!(out.and_then(Value::as_int), Some(7));
}
