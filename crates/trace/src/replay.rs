//! Replaying a lock trace against a locking protocol.
//!
//! This is the engine behind the Figure 5 reproduction: the same trace,
//! replayed over `ThinLocks`, `MonitorCache`, and `HotLocks`, isolates the
//! cost of the locking discipline, exactly as the paper's single-threaded
//! macro-benchmarks isolate the "performance tax that Java levies on
//! single-threaded applications".

use std::fmt;
use std::time::{Duration, Instant};

use thinlock_runtime::error::SyncResult;
use thinlock_runtime::heap::ObjRef;
use thinlock_runtime::protocol::SyncProtocol;
use thinlock_runtime::registry::ThreadToken;

use crate::generator::{LockTrace, TraceOp};

/// Result of replaying a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Objects allocated during the replay.
    pub allocs: u64,
    /// Lock operations performed.
    pub lock_ops: u64,
    /// Unlock operations performed.
    pub unlock_ops: u64,
    /// Synthetic application-work units executed.
    pub work_units: u64,
    /// Wall-clock time of the replay loop.
    pub elapsed: Duration,
}

/// Executes `units` of synthetic application work: an arithmetic chain
/// the optimizer cannot remove, each unit costing on the order of a
/// nanosecond. This is the non-locking computation of the paper's
/// macro-benchmarks; see
/// [`TraceOp::Work`] for why it matters to Figure 5.
#[inline]
pub fn spin_work(units: u32) {
    let mut x = units;
    for _ in 0..units {
        x = std::hint::black_box(x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223));
    }
    std::hint::black_box(x);
}

impl ReplayOutcome {
    /// Nanoseconds per lock/unlock pair — the headline unit of Figure 5.
    pub fn ns_per_sync(&self) -> f64 {
        if self.lock_ops == 0 {
            return 0.0;
        }
        self.elapsed.as_nanos() as f64 / self.lock_ops as f64
    }
}

impl fmt::Display for ReplayOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} allocs, {} syncs in {:?} ({:.0} ns/sync)",
            self.allocs,
            self.lock_ops,
            self.elapsed,
            self.ns_per_sync()
        )
    }
}

/// Replays `trace` on the calling thread against `protocol`.
///
/// The protocol's heap must have room for
/// [`required_heap_capacity`](LockTrace::required_heap_capacity) more
/// objects.
///
/// # Errors
///
/// Propagates any protocol error ([`SyncResult`]); on a well-formed trace
/// (see [`LockTrace::validate`]) and a correct protocol this cannot occur.
///
/// # Example
///
/// ```
/// use thinlock::ThinLocks;
/// use thinlock_runtime::protocol::SyncProtocol;
/// use thinlock_trace::{generator, replay, table1::BenchmarkProfile};
///
/// let profile = BenchmarkProfile::by_name("javacup").unwrap();
/// let trace = generator::generate(profile, &generator::quick_config());
/// let locks = ThinLocks::with_capacity(trace.required_heap_capacity());
/// let reg = locks.registry().register()?;
/// let outcome = replay::replay(&locks, &trace, reg.token())?;
/// assert_eq!(outcome.lock_ops, trace.lock_ops());
/// # Ok::<(), thinlock_runtime::SyncError>(())
/// ```
pub fn replay<P: SyncProtocol + ?Sized>(
    protocol: &P,
    trace: &LockTrace,
    token: ThreadToken,
) -> SyncResult<ReplayOutcome> {
    let mut objects: Vec<ObjRef> = Vec::with_capacity(trace.required_heap_capacity());
    let mut outcome = ReplayOutcome {
        allocs: 0,
        lock_ops: 0,
        unlock_ops: 0,
        work_units: 0,
        elapsed: Duration::ZERO,
    };
    let heap = protocol.heap();
    let start = Instant::now();
    for op in trace.ops() {
        match *op {
            TraceOp::Alloc => {
                objects.push(heap.alloc()?);
                outcome.allocs += 1;
            }
            TraceOp::Lock(o) => {
                protocol.lock(objects[o as usize], token)?;
                outcome.lock_ops += 1;
            }
            TraceOp::Unlock(o) => {
                protocol.unlock(objects[o as usize], token)?;
                outcome.unlock_ops += 1;
            }
            TraceOp::Work(units) => {
                spin_work(units);
                outcome.work_units += u64::from(units);
            }
        }
    }
    outcome.elapsed = start.elapsed();
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, quick_config};
    use crate::table1::{BenchmarkProfile, MACRO_BENCHMARKS};
    use std::sync::Arc;
    use thinlock::ThinLocks;
    use thinlock_baselines::{HotLocks, MonitorCache};
    use thinlock_runtime::backend::SyncBackend;
    use thinlock_runtime::heap::Heap;
    use thinlock_runtime::registry::ThreadRegistry;

    #[test]
    fn replay_executes_every_operation() {
        let p = BenchmarkProfile::by_name("javac").unwrap();
        let trace = generate(p, &quick_config());
        let locks = ThinLocks::with_capacity(trace.required_heap_capacity());
        let reg = locks.registry().register().unwrap();
        let out = replay(&locks, &trace, reg.token()).unwrap();
        assert_eq!(out.lock_ops, trace.lock_ops());
        assert_eq!(out.unlock_ops, trace.lock_ops());
        assert_eq!(out.allocs, u64::from(trace.total_objects()));
        // Single-threaded: nothing should have inflated.
        assert_eq!(locks.inflation_count(), 0);
    }

    #[test]
    fn all_protocols_replay_all_benchmarks_identically() {
        let cfg = crate::generator::TraceConfig {
            scale: 50_000,
            max_lock_ops: 3_000,
            max_objects: 1_500,
            ..quick_config()
        };
        for p in MACRO_BENCHMARKS.iter().take(6) {
            let trace = generate(p, &cfg);
            let cap = trace.required_heap_capacity();

            let thin = ThinLocks::with_capacity(cap);
            let rt = thin.registry().register().unwrap();
            let a = replay(&thin, &trace, rt.token()).unwrap();

            let jdk = MonitorCache::with_capacity(cap);
            let rj = jdk.registry().register().unwrap();
            let b = replay(&jdk, &trace, rj.token()).unwrap();

            let ibm = HotLocks::with_capacity(cap);
            let ri = ibm.registry().register().unwrap();
            let c = replay(&ibm, &trace, ri.token()).unwrap();

            assert_eq!(a.lock_ops, b.lock_ops);
            assert_eq!(b.lock_ops, c.lock_ops);
            assert_eq!(a.allocs, c.allocs, "{}", p.name);
        }
    }

    #[test]
    fn ns_per_sync_is_positive_after_real_work() {
        let p = BenchmarkProfile::by_name("javalex").unwrap();
        let trace = generate(p, &quick_config());
        let locks = ThinLocks::with_capacity(trace.required_heap_capacity());
        let reg = locks.registry().register().unwrap();
        let out = replay(&locks, &trace, reg.token()).unwrap();
        assert!(out.ns_per_sync() > 0.0);
        assert!(out.to_string().contains("ns/sync"));
    }

    #[test]
    fn replay_leaves_every_lock_released() {
        let p = BenchmarkProfile::by_name("mocha").unwrap();
        let trace = generate(p, &quick_config());
        let heap = Arc::new(Heap::with_capacity(trace.required_heap_capacity()));
        let locks = ThinLocks::new(Arc::clone(&heap), ThreadRegistry::new());
        let reg = locks.registry().register().unwrap();
        replay(&locks, &trace, reg.token()).unwrap();
        for obj in heap.iter() {
            assert!(
                heap.header(obj).lock_word().load_relaxed().is_unlocked(),
                "{obj} still locked"
            );
        }
    }

    #[test]
    fn zero_outcome_display() {
        let out = ReplayOutcome {
            allocs: 0,
            lock_ops: 0,
            unlock_ops: 0,
            work_units: 0,
            elapsed: Duration::ZERO,
        };
        assert_eq!(out.ns_per_sync(), 0.0);
    }
}
