//! Multithreaded trace replay — the paper's "server" scenario.
//!
//! The macro-benchmarks of Figure 5 are single-threaded, which is the
//! paper's point (the tax without concurrency). Its *design target*,
//! however, is "a Java server or a client that is running windowing or
//! network code that is likely to involve multiple threads of control".
//! This module produces that workload: the same Table 1 distributions,
//! split across `threads` workers, with the hottest objects *shared* so a
//! controlled fraction of operations contend, and the rest private per
//! thread so the thin fast path still carries most of the load — the
//! "locality of contention" regime the protocols were designed for.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use thinlock_runtime::error::SyncResult;
use thinlock_runtime::heap::ObjRef;
use thinlock_runtime::prng::Prng;
use thinlock_runtime::protocol::SyncProtocol;

use crate::generator::TraceConfig;
use crate::replay::spin_work;
use crate::table1::BenchmarkProfile;

/// One event of a per-thread sequence. Objects are indices into a shared,
/// pre-allocated arena (no `Alloc` events: allocation is not the variable
/// under test here and pre-allocation keeps threads symmetric).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadOp {
    /// Acquire the monitor of an arena object.
    Lock(u32),
    /// Release the monitor of an arena object.
    Unlock(u32),
    /// Perform non-locking application work.
    Work(u32),
}

/// Configuration of a concurrent trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcurrentConfig {
    /// Worker thread count.
    pub threads: u32,
    /// Fraction of synchronized objects shared by *all* threads (the
    /// hottest ones, per the locality-of-contention assumption); the rest
    /// are partitioned privately.
    pub shared_fraction: f64,
    /// Base scaling/distribution parameters.
    pub base: TraceConfig,
}

impl Default for ConcurrentConfig {
    fn default() -> Self {
        ConcurrentConfig {
            threads: 4,
            shared_fraction: 0.05,
            base: TraceConfig::default(),
        }
    }
}

/// A generated concurrent workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConcurrentTrace {
    name: String,
    total_objects: u32,
    shared_objects: u32,
    per_thread: Vec<Vec<ThreadOp>>,
    lock_ops: u64,
}

impl ConcurrentTrace {
    /// The profile this trace was generated from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Arena size a replay must pre-allocate.
    pub fn total_objects(&self) -> u32 {
        self.total_objects
    }

    /// Number of objects visible to every thread.
    pub fn shared_objects(&self) -> u32 {
        self.shared_objects
    }

    /// Per-thread event sequences.
    pub fn per_thread(&self) -> &[Vec<ThreadOp>] {
        &self.per_thread
    }

    /// Total lock operations across all threads.
    pub fn lock_ops(&self) -> u64 {
        self.lock_ops
    }

    /// Checks that every thread's sequence is balanced and LIFO (so a
    /// replay can never deadlock on lock ordering: each thread holds at
    /// most a properly nested chain on one object at a time).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for (tid, ops) in self.per_thread.iter().enumerate() {
            let mut stack: Vec<u32> = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    ThreadOp::Lock(o) => {
                        if o >= self.total_objects {
                            return Err(format!("thread {tid} op {i}: object {o} out of range"));
                        }
                        if let Some(&top) = stack.last() {
                            if top != o {
                                return Err(format!(
                                    "thread {tid} op {i}: holds {top}, locking {o} (lock-order hazard)"
                                ));
                            }
                        }
                        stack.push(o);
                    }
                    ThreadOp::Unlock(o) => match stack.pop() {
                        Some(top) if top == o => {}
                        _ => return Err(format!("thread {tid} op {i}: unbalanced unlock of {o}")),
                    },
                    ThreadOp::Work(_) => {}
                }
            }
            if !stack.is_empty() {
                return Err(format!("thread {tid}: locks still held at end"));
            }
        }
        Ok(())
    }
}

impl fmt::Display for ConcurrentTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "concurrent trace {}: {} threads, {} objects ({} shared), {} lock ops",
            self.name,
            self.per_thread.len(),
            self.total_objects,
            self.shared_objects,
            self.lock_ops
        )
    }
}

/// Generates a concurrent workload from a Table 1 profile. Deterministic
/// in `(profile, config)`.
pub fn generate_concurrent(
    profile: &BenchmarkProfile,
    config: &ConcurrentConfig,
) -> ConcurrentTrace {
    let threads = config.threads.max(1);
    let scale = config.base.scale.max(1);
    let sync_objects = ((profile.synchronized_objects / scale).max(u64::from(threads)) as u32)
        .min(config.base.max_objects.max(threads));
    let target_lock_ops = (profile.sync_operations / scale)
        .max(u64::from(sync_objects))
        .min(config.base.max_lock_ops.max(1));
    let per_thread_ops = (target_lock_ops / u64::from(threads)).max(1);

    let shared =
        ((f64::from(sync_objects) * config.shared_fraction).ceil() as u32).clamp(1, sync_objects);
    // Objects 0..shared are shared; the rest are dealt round-robin.
    let mut private: Vec<Vec<u32>> = vec![Vec::new(); threads as usize];
    for o in shared..sync_objects {
        private[(o % threads) as usize].push(o);
    }

    let mut per_thread = Vec::with_capacity(threads as usize);
    let mut lock_ops = 0u64;
    for tid in 0..threads {
        let mut rng = Prng::seed_from_u64(
            config.base.seed ^ (u64::from(tid) << 32) ^ profile.name.len() as u64,
        );
        let mine = &private[tid as usize];
        let mut ops = Vec::new();
        let mut emitted = 0u64;
        while emitted < per_thread_ops {
            // Hot shared object with the shared fraction's probability,
            // otherwise a private object (if this thread has any).
            let obj = if mine.is_empty() || rng.gen_bool(config.shared_fraction.clamp(0.01, 1.0)) {
                rng.range_u32(0, shared)
            } else {
                mine[rng.range_usize(0, mine.len())]
            };
            let depth = sample_depth(&profile.depth_fractions, &mut rng)
                .min(u32::try_from(per_thread_ops - emitted).unwrap_or(u32::MAX))
                .max(1);
            for _ in 0..depth {
                ops.push(ThreadOp::Lock(obj));
            }
            if config.base.work_per_sync > 0 {
                ops.push(ThreadOp::Work(
                    config.base.work_per_sync.saturating_mul(depth),
                ));
            }
            for _ in 0..depth {
                ops.push(ThreadOp::Unlock(obj));
            }
            emitted += u64::from(depth);
        }
        lock_ops += emitted;
        per_thread.push(ops);
    }

    ConcurrentTrace {
        name: profile.name.to_string(),
        total_objects: sync_objects,
        shared_objects: shared,
        per_thread,
        lock_ops,
    }
}

/// Burst-depth sampling identical to the single-threaded generator.
fn sample_depth(fractions: &[f64; 4], rng: &mut Prng) -> u32 {
    let f1 = fractions[0].max(f64::MIN_POSITIVE);
    let x: f64 = rng.next_f64();
    let mut d = 1;
    for k in 2..=4 {
        if x < fractions[k - 1] / f1 {
            d = k as u32;
        } else {
            break;
        }
    }
    d
}

/// Result of a concurrent replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConcurrentOutcome {
    /// Wall-clock time from first thread start to last thread exit.
    pub elapsed: Duration,
    /// Total lock operations performed.
    pub lock_ops: u64,
    /// True if the per-object guarded counters matched the per-object
    /// lock counts — i.e., no mutual-exclusion violation was observed.
    pub exclusion_verified: bool,
}

/// Replays a concurrent trace: pre-allocates the arena, spawns one OS
/// thread per sequence, and verifies mutual exclusion via a guarded
/// read-modify-write per lock operation.
///
/// # Errors
///
/// Propagates protocol errors (heap exhaustion, registry exhaustion).
///
/// # Panics
///
/// Panics if a worker thread panics (a protocol bug).
pub fn replay_concurrent<P: SyncProtocol + ?Sized>(
    protocol: &P,
    trace: &ConcurrentTrace,
) -> SyncResult<ConcurrentOutcome> {
    let heap = protocol.heap();
    let arena: Vec<ObjRef> = (0..trace.total_objects())
        .map(|_| heap.alloc())
        .collect::<SyncResult<_>>()?;
    // One guarded (deliberately non-atomic-looking) counter per object.
    let counters: Vec<AtomicU64> = (0..trace.total_objects())
        .map(|_| AtomicU64::new(0))
        .collect();
    let expected: Vec<u64> = {
        let mut v = vec![0u64; trace.total_objects() as usize];
        for ops in trace.per_thread() {
            for op in ops {
                if let ThreadOp::Lock(o) = *op {
                    v[o as usize] += 1;
                }
            }
        }
        v
    };

    let start = Instant::now();
    std::thread::scope(|scope| {
        for ops in trace.per_thread() {
            let arena = &arena;
            let counters = &counters;
            scope.spawn(move || {
                let registration = protocol
                    .registry()
                    .register()
                    .expect("registry sized for worker count");
                let token = registration.token();
                for op in ops {
                    match *op {
                        ThreadOp::Lock(o) => {
                            protocol.lock(arena[o as usize], token).expect("lock");
                            // Racy-looking RMW, serialized by the monitor:
                            // a mutual-exclusion failure loses updates.
                            let c = &counters[o as usize];
                            let v = c.load(Ordering::Relaxed);
                            std::hint::spin_loop();
                            c.store(v + 1, Ordering::Relaxed);
                        }
                        ThreadOp::Unlock(o) => {
                            protocol.unlock(arena[o as usize], token).expect("unlock");
                        }
                        ThreadOp::Work(units) => spin_work(units),
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed();

    let exclusion_verified = counters
        .iter()
        .zip(&expected)
        .all(|(c, &e)| c.load(Ordering::Relaxed) == e);
    Ok(ConcurrentOutcome {
        elapsed,
        lock_ops: trace.lock_ops(),
        exclusion_verified,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::quick_config;
    use crate::table1::{BenchmarkProfile, MACRO_BENCHMARKS};
    use thinlock::{CjmLocks, ThinLocks};
    use thinlock_baselines::MonitorCache;

    fn small_config(threads: u32) -> ConcurrentConfig {
        ConcurrentConfig {
            threads,
            shared_fraction: 0.2,
            base: TraceConfig {
                max_lock_ops: 2_000,
                max_objects: 200,
                work_per_sync: 5,
                ..quick_config()
            },
        }
    }

    #[test]
    fn generated_concurrent_traces_validate() {
        for p in MACRO_BENCHMARKS.iter().take(6) {
            let t = generate_concurrent(p, &small_config(4));
            t.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert_eq!(t.per_thread().len(), 4);
            assert!(t.shared_objects() >= 1);
            assert!(t.lock_ops() > 0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = BenchmarkProfile::by_name("javac").unwrap();
        let a = generate_concurrent(p, &small_config(3));
        let b = generate_concurrent(p, &small_config(3));
        assert_eq!(a, b);
    }

    #[test]
    fn replay_verifies_exclusion_under_thin_locks() {
        let p = BenchmarkProfile::by_name("jacorb").unwrap();
        let trace = generate_concurrent(p, &small_config(4));
        let locks = ThinLocks::with_capacity(trace.total_objects() as usize);
        let out = replay_concurrent(&locks, &trace).unwrap();
        assert!(out.exclusion_verified, "no lost updates");
        assert_eq!(out.lock_ops, trace.lock_ops());
    }

    #[test]
    fn replay_verifies_exclusion_under_monitor_cache_and_cjm() {
        let p = BenchmarkProfile::by_name("javalex").unwrap();
        let trace = generate_concurrent(p, &small_config(3));
        let jdk = MonitorCache::with_capacity(trace.total_objects() as usize);
        assert!(replay_concurrent(&jdk, &trace).unwrap().exclusion_verified);
        let cjm = CjmLocks::with_capacity(trace.total_objects() as usize);
        assert!(replay_concurrent(&cjm, &trace).unwrap().exclusion_verified);
    }

    #[test]
    fn single_thread_config_degenerates_gracefully() {
        let p = BenchmarkProfile::by_name("javacup").unwrap();
        let trace = generate_concurrent(p, &small_config(1));
        assert_eq!(trace.per_thread().len(), 1);
        trace.validate().unwrap();
        let locks = ThinLocks::with_capacity(trace.total_objects() as usize);
        let out = replay_concurrent(&locks, &trace).unwrap();
        assert!(out.exclusion_verified);
        // Single-threaded: thin locks never inflate.
        assert_eq!(locks.inflated_count(), 0);
    }

    #[test]
    fn display_mentions_shape() {
        let p = BenchmarkProfile::by_name("javac").unwrap();
        let t = generate_concurrent(p, &small_config(2));
        let s = t.to_string();
        assert!(s.contains("2 threads"));
        assert!(s.contains("shared"));
    }
}
