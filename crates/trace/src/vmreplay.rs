//! Seeded concurrent replay of VM programs — the dynamic side of the
//! race-detection cross-check.
//!
//! [`run_concurrent_program`] executes one [`ConcurrentProgram`] the
//! way its harness contract specifies: every
//! [`ThreadRole`](thinlock_vm::programs::ThreadRole) spawns its
//! thread count, all workers release from one barrier, and each thread
//! splits its iteration budget into seed-derived chunks with yields in
//! between, so different seeds explore different interleavings while
//! any single seed replays deterministically *in its schedule
//! perturbation* (the OS still schedules, but the perturbation points
//! are fixed by the seed).
//!
//! The caller supplies the [`TraceSink`] — typically the
//! `EraserSanitizer` of `thinlock-obs` — and this module stays agnostic
//! about what the sink computes; it only guarantees that every lock
//! event and every field access of the run streams through it.

use std::sync::{Arc, Barrier};

use thinlock::ThinLocks;
use thinlock_runtime::events::TraceSink;
use thinlock_runtime::heap::{Heap, ObjRef};
use thinlock_runtime::hooks::HookSet;
use thinlock_runtime::prng::Prng;
use thinlock_runtime::protocol::SyncProtocol;
use thinlock_runtime::registry::ThreadRegistry;
use thinlock_vm::programs::ConcurrentProgram;
use thinlock_vm::{Value, Vm};

/// Outcome of one seeded concurrent replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmReplayReport {
    /// The replay seed.
    pub seed: u64,
    /// Threads that ran (across all roles).
    pub threads: u32,
    /// Total loop iterations completed across all threads.
    pub iterations: u64,
    /// Final value of every `(pool index, field)` the program's objects
    /// expose, in pool-then-field order — lets tests assert that
    /// lock-guarded counters are exact.
    pub final_fields: Vec<i32>,
}

impl VmReplayReport {
    /// Final value of `pool[pool].field`.
    pub fn field(&self, pool: usize, field: usize, fields_per_object: usize) -> Option<i32> {
        self.final_fields
            .get(pool * fields_per_object + field)
            .copied()
    }
}

/// Runs `entry` with `iters` loop iterations per worker thread, seeding
/// all schedule perturbation from `seed`. Every lock and field event is
/// streamed through `sink` when one is given.
///
/// # Errors
///
/// Returns a description if the program fails validation, a worker hits
/// a VM error, or a role's entry method is missing.
pub fn run_concurrent_program(
    entry: &ConcurrentProgram,
    iters: u32,
    seed: u64,
    sink: Option<Arc<dyn TraceSink>>,
) -> Result<VmReplayReport, String> {
    let pool_size = entry.program.pool_size() as usize;
    let fields = usize::from(entry.fields.max(1));
    let heap = Arc::new(Heap::with_capacity_and_fields(pool_size + 1, fields));
    let hooks = sink.into_iter().fold(HookSet::new(), HookSet::sink);
    let locks = Arc::new(ThinLocks::new(heap, ThreadRegistry::new()).with_hooks(hooks));
    let pool: Vec<ObjRef> = (0..pool_size)
        .map(|_| locks.heap().alloc())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{}: heap alloc failed: {e:?}", entry.name))?;

    for role in &entry.roles {
        if entry.program.method_id(role.method).is_none() {
            return Err(format!("{}: no method named {}", entry.name, role.method));
        }
    }

    let total_threads = entry.total_threads().max(1);
    let barrier = Arc::new(Barrier::new(total_threads as usize));
    let mut iterations = 0u64;
    std::thread::scope(|scope| -> Result<(), String> {
        let mut handles = Vec::new();
        let mut worker = 0u64;
        for role in &entry.roles {
            for _ in 0..role.threads {
                let locks = Arc::clone(&locks);
                let barrier = Arc::clone(&barrier);
                let pool = pool.clone();
                let program = &entry.program;
                let method = role.method;
                let name = entry.name;
                // Distinct per-worker stream from one replay seed.
                let mut rng =
                    Prng::seed_from_u64(seed ^ (worker.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
                worker += 1;
                handles.push(scope.spawn(move || -> Result<u64, String> {
                    let reg = locks
                        .registry()
                        .register()
                        .map_err(|e| format!("{name}: register failed: {e:?}"))?;
                    let vm = Vm::new(&*locks, program, pool).map_err(|e| format!("{name}: {e}"))?;
                    barrier.wait();
                    let mut done = 0u64;
                    let mut remaining = iters;
                    while remaining > 0 {
                        // Seed-derived chunking: run a slice of the loop,
                        // then yield so other schedules can interleave.
                        let chunk = rng.range_u32(1, remaining / 4 + 2).min(remaining);
                        let out = vm
                            .run(method, reg.token(), &[Value::Int(chunk as i32)])
                            .map_err(|e| format!("{name}/{method}: {e}"))?
                            .and_then(Value::as_int)
                            .ok_or_else(|| format!("{name}/{method}: no return value"))?;
                        if out != chunk as i32 {
                            return Err(format!(
                                "{name}/{method}: ran {out} of {chunk} iterations"
                            ));
                        }
                        done += u64::from(chunk);
                        remaining -= chunk;
                        if rng.gen_bool(0.5) {
                            std::thread::yield_now();
                        }
                    }
                    Ok(done)
                }));
            }
        }
        for h in handles {
            iterations += h.join().map_err(|_| "worker panicked".to_string())??;
        }
        Ok(())
    })?;

    let mut final_fields = Vec::with_capacity(pool_size * fields);
    for obj in &pool {
        for f in 0..fields {
            final_fields.push(
                locks
                    .heap()
                    .field(*obj, f)
                    .load(std::sync::atomic::Ordering::SeqCst),
            );
        }
    }
    Ok(VmReplayReport {
        seed,
        threads: total_threads,
        iterations,
        final_fields,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinlock_vm::programs::concurrent_library;

    #[test]
    fn guarded_counter_is_exact_for_any_seed() {
        let entry = concurrent_library()
            .into_iter()
            .find(|e| e.name == "guarded-counter")
            .unwrap();
        for seed in [1u64, 0xDEAD_BEEF, 42] {
            let report = run_concurrent_program(&entry, 200, seed, None).unwrap();
            assert_eq!(report.threads, 2);
            assert_eq!(report.iterations, 400);
            assert_eq!(
                report.field(0, 0, 1),
                Some(400),
                "guarded increments are exact"
            );
        }
    }

    #[test]
    fn multi_role_program_runs_every_role() {
        let entry = concurrent_library()
            .into_iter()
            .find(|e| e.name == "read-mostly")
            .unwrap();
        let report = run_concurrent_program(&entry, 100, 7, None).unwrap();
        assert_eq!(report.threads, 3, "1 writer + 2 readers");
        assert_eq!(report.iterations, 300);
        assert_eq!(report.field(0, 0, 1), Some(100), "only the writer writes");
    }

    #[test]
    fn racy_counter_completes_even_though_it_races() {
        // The data race is on an int counter; the run itself must still
        // terminate and report its iteration count faithfully.
        let entry = concurrent_library()
            .into_iter()
            .find(|e| e.name == "racy-counter")
            .unwrap();
        let report = run_concurrent_program(&entry, 150, 3, None).unwrap();
        assert_eq!(report.iterations, 300);
        let v = report.field(0, 0, 1).unwrap();
        assert!(v > 0 && v <= 300, "lost updates allowed, invented ones not");
    }

    #[test]
    fn unknown_role_method_is_an_error() {
        let mut entry = concurrent_library().into_iter().next().unwrap();
        entry.roles[0].method = "nonexistent";
        assert!(run_concurrent_program(&entry, 10, 0, None).is_err());
    }
}
