//! Static-vs-dynamic race-detection cross-check (DESIGN.md §13, §14).
//!
//! Every program in the concurrent library carries a ground-truth race
//! label. The static guards pass must reproduce that label from the
//! bytecode alone, and the dynamic Eraser sanitizer must reproduce it
//! from concurrent replays. For the 2-thread programs the replays are
//! no longer sampled: the `lockmc` cooperative scheduler explores
//! *every* interleaving of their protocol steps (DPOR-reduced), and the
//! sanitizer verdict is asserted on each one — the seeded-schedule
//! sampling survives only for the 3-thread programs, whose state space
//! the seeds still cover more cheaply than exhaustion would. The two
//! detectors are independent implementations of the lockset idea, so
//! their agreement on the whole library is the strongest in-repo
//! evidence either one is right.

use std::sync::Arc;

use thinlock::ThinLocks;
use thinlock_analysis::escape::EscapeContext;
use thinlock_analysis::guards::EntryRole;
use thinlock_analysis::{analyze_program, analyze_program_with_roles};
use thinlock_modelcheck::{explore_with, run_bodies, CoopScheduler, Limits, Mode};
use thinlock_obs::EraserSanitizer;
use thinlock_runtime::events::TraceSink;
use thinlock_runtime::heap::{Heap, ObjRef};
use thinlock_runtime::hooks::HookSet;
use thinlock_runtime::prng::Prng;
use thinlock_runtime::protocol::SyncProtocol;
use thinlock_runtime::registry::ThreadRegistry;
use thinlock_trace::vmreplay::run_concurrent_program;
use thinlock_vm::programs::{concurrent_library, ConcurrentProgram, MicroBench};
use thinlock_vm::{Value, Vm};

const SEEDS: usize = 64;
const ITERS: u32 = 64;
/// Loop iterations per worker under exhaustive exploration — enough to
/// include a re-acquire of every lock (so lockset refinement reaches a
/// fixpoint) while keeping the full interleaving space enumerable.
const EXPLORE_ITERS: i32 = 2;

fn roles_of(entry: &ConcurrentProgram) -> Vec<EntryRole> {
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

/// Runs one seeded replay of `entry` under a fresh sanitizer and returns
/// the racy `(object, field)` pairs it reported.
fn sanitize_one(entry: &ConcurrentProgram, seed: u64) -> Vec<(usize, u16)> {
    let sanitizer = Arc::new(EraserSanitizer::new(
        entry.program.pool_size() as usize + 1,
        usize::from(entry.fields.max(1)),
    ));
    let sink: Arc<dyn TraceSink> = Arc::clone(&sanitizer) as Arc<dyn TraceSink>;
    run_concurrent_program(entry, ITERS, seed, Some(sink))
        .unwrap_or_else(|e| panic!("{}: replay failed: {e}", entry.name));
    sanitizer.racy_fields()
}

/// Checks one completed interleaving's sanitizer verdict against the
/// ground-truth label.
fn assert_verdict(entry: &ConcurrentProgram, racy: &[(usize, u16)]) {
    assert_eq!(
        !racy.is_empty(),
        entry.racy,
        "{}: sanitizer verdict {racy:?} disagrees with ground truth on an \
         exhaustively explored interleaving",
        entry.name
    );
    for &(pool, field) in &entry.racy_fields {
        assert!(
            racy.contains(&(pool as usize, field)),
            "{}: missed race on pool[{pool}].f{field} (got {racy:?})",
            entry.name
        );
    }
    for &(obj, field) in racy {
        assert!(
            entry.racy_fields.contains(&(obj as u32, field)),
            "{}: spurious report on obj {obj} field {field}",
            entry.name
        );
    }
}

/// Explores every interleaving of a 2-thread program's protocol steps
/// under the `lockmc` scheduler, asserting the sanitizer verdict on
/// each completed execution. Returns (executions, verdicts checked).
fn explore_exhaustively(entry: &ConcurrentProgram) -> (u64, u64) {
    let sched = Arc::new(CoopScheduler::new());
    let limits = Limits {
        max_executions: 500_000,
        max_steps: 10_000,
    };
    let mut checked = 0u64;
    let out = explore_with(Mode::Dpor, &limits, |pick| {
        // Fresh environment per execution: heap, locks, sanitizer.
        let pool_size = entry.program.pool_size() as usize;
        let fields = usize::from(entry.fields.max(1));
        let heap = Arc::new(Heap::with_capacity_and_fields(pool_size + 1, fields));
        let sanitizer = Arc::new(EraserSanitizer::new(pool_size + 1, fields));
        let locks = Arc::new(
            ThinLocks::new(heap, ThreadRegistry::new()).with_hooks(
                HookSet::new()
                    .schedule(Arc::clone(&sched) as _)
                    .sink(Arc::clone(&sanitizer) as _),
            ),
        );
        let pool: Vec<ObjRef> = (0..pool_size)
            .map(|_| locks.heap().alloc().expect("pool fits"))
            .collect();
        let mut regs = Vec::new();
        let mut tokens = Vec::new();
        let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        for role in &entry.roles {
            for _ in 0..role.threads {
                let reg = locks.registry().register().expect("worker registers");
                tokens.push(reg.token());
                let token = reg.token();
                regs.push(reg);
                let locks = Arc::clone(&locks);
                let pool = pool.clone();
                let program = &entry.program;
                let method = role.method;
                let name = entry.name;
                bodies.push(Box::new(move || {
                    let vm =
                        Vm::new(&*locks, program, pool).unwrap_or_else(|e| panic!("{name}: {e}"));
                    vm.run(method, token, &[Value::Int(EXPLORE_ITERS)])
                        .unwrap_or_else(|e| panic!("{name}/{method}: {e}"));
                }));
            }
        }
        let rec = run_bodies(&locks, &sched, &tokens, bodies, limits.max_steps, pick);
        if !rec.aborted && !rec.truncated && rec.violation.is_none() {
            checked += 1;
            assert_verdict(entry, &sanitizer.racy_fields());
        }
        rec
    });
    assert!(
        out.stats.complete,
        "{}: interleaving space not exhausted within {} executions",
        entry.name, limits.max_executions
    );
    assert!(
        out.violation.is_none(),
        "{}: deadlock under exploration: {:?}",
        entry.name,
        out.violation
    );
    assert!(
        checked > 0,
        "{}: no completed execution checked",
        entry.name
    );
    (out.stats.executions, checked)
}

/// The static guards pass reproduces every ground-truth label, and the
/// expected racy fields are all among its candidates.
#[test]
fn static_verdicts_match_ground_truth() {
    for entry in concurrent_library() {
        let ctx = EscapeContext::threads(entry.total_threads());
        let report = analyze_program_with_roles(&entry.program, &ctx, &roles_of(&entry));
        assert_eq!(
            !report.guards.is_race_free(),
            entry.racy,
            "{}: static verdict disagrees with ground truth",
            entry.name
        );
        for &(pool, field) in &entry.racy_fields {
            assert!(
                report
                    .guards
                    .races
                    .iter()
                    .any(|r| (r.pool, r.field) == (pool, field)),
                "{}: expected race on pool[{pool}].f{field} not among candidates",
                entry.name
            );
        }
        if !entry.racy {
            // A clean program proves its discipline either as explicit
            // @GuardedBy facts or — when every lock identity is dynamic
            // (churn-locks) — as unresolved accesses the pass honestly
            // excluded rather than guessed about.
            assert!(
                !report.guards.facts.is_empty() || report.guards.unresolved_accesses > 0,
                "{}: clean concurrent program must yield @GuardedBy facts",
                entry.name
            );
        }
    }
}

/// The 2-thread library programs are checked on *every* interleaving of
/// their protocol steps, not a schedule sample: the model checker's
/// DPOR exploration enumerates the full space and the sanitizer verdict
/// must match ground truth on each completed execution.
#[test]
fn two_thread_programs_verified_on_every_interleaving() {
    let mut covered = 0;
    for entry in concurrent_library()
        .into_iter()
        .filter(|e| e.total_threads() == 2)
    {
        let (executions, checked) = explore_exhaustively(&entry);
        assert!(
            executions >= 1 && checked >= 1,
            "{}: nothing explored",
            entry.name
        );
        covered += 1;
    }
    assert!(
        covered >= 4,
        "library no longer has its 2-thread programs ({covered})"
    );
}

/// The sanitizer never reports on a statically race-free program with
/// more than two threads, on any seed. (2-thread programs are covered
/// exhaustively above.)
#[test]
fn sanitizer_is_silent_on_clean_larger_programs_across_seeds() {
    let mut rng = Prng::seed_from_u64(0x5ace_0001);
    for entry in concurrent_library()
        .into_iter()
        .filter(|e| !e.racy && e.total_threads() > 2)
    {
        for _ in 0..SEEDS {
            let racy = sanitize_one(&entry, rng.next_u64());
            assert!(
                racy.is_empty(),
                "{}: sanitizer false positive on {racy:?}",
                entry.name
            );
        }
    }
}

/// The sanitizer reports every racy program with more than two threads
/// on every seed, and names exactly the expected fields. (2-thread
/// programs are covered exhaustively above.)
#[test]
fn sanitizer_flags_racy_larger_programs_on_every_seed() {
    let mut rng = Prng::seed_from_u64(0x5ace_0002);
    for entry in concurrent_library()
        .into_iter()
        .filter(|e| e.racy && e.total_threads() > 2)
    {
        for _ in 0..SEEDS {
            let racy = sanitize_one(&entry, rng.next_u64());
            // Pool objects are allocated into the heap in pool order, so
            // a pool index doubles as the sanitizer's object index.
            for &(pool, field) in &entry.racy_fields {
                assert!(
                    racy.contains(&(pool as usize, field)),
                    "{}: missed race on pool[{pool}].f{field} (got {racy:?})",
                    entry.name
                );
            }
            for &(obj, field) in &racy {
                assert!(
                    entry.racy_fields.contains(&(obj as u32, field)),
                    "{}: spurious report on obj {obj} field {field}",
                    entry.name
                );
            }
        }
    }
}

/// The headline contract: on every program and every seed, the dynamic
/// verdict equals the static verdict equals the ground-truth label.
#[test]
fn static_and_dynamic_detectors_agree_on_every_seed() {
    let mut rng = Prng::seed_from_u64(0x5ace_0003);
    for entry in concurrent_library() {
        let ctx = EscapeContext::threads(entry.total_threads());
        let report = analyze_program_with_roles(&entry.program, &ctx, &roles_of(&entry));
        let static_racy = !report.guards.is_race_free();
        for _ in 0..8 {
            let dynamic_racy = !sanitize_one(&entry, rng.next_u64()).is_empty();
            assert_eq!(
                static_racy, dynamic_racy,
                "{}: static and dynamic verdicts disagree",
                entry.name
            );
            assert_eq!(dynamic_racy, entry.racy, "{}: wrong verdict", entry.name);
        }
    }
}

/// Default-role analysis (no explicit contract) still finds the races
/// in single-role programs: `analyze_program` seeds `main` with the
/// context's thread count.
#[test]
fn default_roles_cover_single_entry_programs() {
    for entry in concurrent_library() {
        if entry.roles.len() != 1 || entry.roles[0].method != "main" {
            continue;
        }
        let ctx = EscapeContext::threads(entry.total_threads());
        let report = analyze_program(&entry.program, &ctx);
        assert_eq!(
            !report.guards.is_race_free(),
            entry.racy,
            "{}: default-role verdict disagrees",
            entry.name
        );
    }
}

/// The sequential micro-benchmark library is race-free under the guards
/// pass: locked counters stay locked, and single-threaded contexts can
/// never race.
#[test]
fn sequential_library_has_no_race_candidates() {
    for bench in MicroBench::table2()
        .into_iter()
        .chain([MicroBench::MixedSync])
    {
        let ctx = EscapeContext::threads(bench.thread_count());
        let report = analyze_program(&bench.program(), &ctx);
        assert!(
            report.guards.races.is_empty(),
            "{bench}: unexpected race candidates {:?}",
            report.guards.races
        );
    }
}
