//! The seeded chaos harness: randomized schedules cross-checked
//! against a `std::sync::Mutex` oracle.
//!
//! [`run_schedule`] builds the protocol selected by
//! [`ChaosConfig::backend`] (any [`BackendChoice`]) with a
//! [`FaultPlan`] attached, drives it with several threads executing a
//! seed-derived mix of operations (plain/nested acquisition,
//! `try_lock`, `lock_deadline`, timed `wait`), and checks mutual
//! exclusion externally: every object is shadowed by a std `Mutex`
//! whose guard is taken with `try_lock` *immediately after* each
//! protocol acquisition and dropped *immediately before* the matching
//! protocol release. If the protocol ever admits two owners, the
//! oracle `try_lock` fails and the run reports a divergence carrying
//! its seed — which replays the identical decision sequence, because
//! every random choice (per-thread op streams and the fault plan's
//! draws) derives from [`ChaosConfig::seed`].
//!
//! Optionally ([`ChaosConfig::kill_thread`]) one thread dies
//! mid-schedule while owning a lock, exercising the orphan sweep: the
//! run only converges if reclamation returns the object to circulation.
//!
//! Every backend gets one extra convergence check: the monitor
//! population must respect its bound — the peak never exceeds the
//! object count (one bound monitor per object), and at the end the live
//! monitors are exactly the objects' fat words. Under CJM this is the
//! chaos-side witness for the bounded-table claim: thousands of faulted
//! inflate/deflate cycles may not leak a single slot.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use thinlock::{BackendChoice, BackendSeams};
use thinlock_runtime::backend::SyncBackend;
use thinlock_runtime::error::SyncError;
use thinlock_runtime::fault::InjectionPoint;
use thinlock_runtime::heap::ObjRef;
use thinlock_runtime::hooks::HookSet;
use thinlock_runtime::prng::{SplitMix64, Xorshift128Plus};

use crate::plan::{FaultPlan, POINTS};

/// Parameters of one chaos schedule.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Master seed; determines every random choice in the run.
    pub seed: u64,
    /// Worker threads to spawn.
    pub threads: usize,
    /// Objects (and oracle mutexes) the workers contend over.
    pub objects: usize,
    /// Operations each worker executes.
    pub ops_per_thread: usize,
    /// Firing probability handed to [`FaultPlan::chaos`], in parts per
    /// million.
    pub fault_rate_ppm: u32,
    /// When set, worker 0 dies halfway through its schedule while
    /// owning a lock, leaving an orphan for the registry sweep.
    pub kill_thread: bool,
    /// Protocol under test.
    pub backend: BackendChoice,
    /// When set, the plan additionally arms this point with
    /// [`FaultAction::Abort`](thinlock_runtime::fault::FaultAction::Abort):
    /// the first consultation kills the whole process with
    /// `std::process::abort()`. Only meaningful inside a sacrificial
    /// agent process (the crash-chaos supervisor's matrix); never set it
    /// in an in-process harness.
    pub abort_at: Option<InjectionPoint>,
}

impl ChaosConfig {
    /// A small, quick configuration for sweeping many seeds on the
    /// paper's thin-lock protocol.
    pub fn quick(seed: u64) -> Self {
        ChaosConfig::quick_on(seed, BackendChoice::Thin)
    }

    /// [`ChaosConfig::quick`] with the backend chosen explicitly.
    pub fn quick_on(seed: u64, backend: BackendChoice) -> Self {
        ChaosConfig {
            seed,
            threads: 3,
            objects: 4,
            ops_per_thread: 28,
            fault_rate_ppm: 200_000,
            kill_thread: seed.is_multiple_of(4),
            backend,
            abort_at: None,
        }
    }
}

/// What a converged chaos schedule did.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosReport {
    /// Operations completed across all workers.
    pub ops: u64,
    /// Protocol acquisitions that succeeded (and passed the oracle).
    pub acquisitions: u64,
    /// `try_lock` attempts that correctly reported contention.
    pub try_contended: u64,
    /// `lock_deadline` attempts that timed out.
    pub timeouts: u64,
    /// Timed waits performed.
    pub waits: u64,
    /// Timed waits a bounded deflating backend refused with
    /// [`SyncError::MonitorIndexExhausted`] — the monitor table was
    /// transiently full (deflation frees a slot only *after* the neutral
    /// store), the caller still held the thin lock, and the run degraded
    /// gracefully instead of diverging.
    pub waits_refused: u64,
    /// Whether a worker died owning a lock (and the orphan was swept).
    pub orphaned: bool,
    /// Inflations the backend performed over the run.
    pub inflations: u64,
    /// Deflations the backend performed over the run (0 on the thin
    /// backend, whose inflation is one-way).
    pub deflations: u64,
    /// Peak simultaneous monitor population over the run.
    pub monitors_peak: usize,
    /// Monitors still live when the run converged.
    pub monitors_live: usize,
    /// Per-point fault-injection fire counts, indexed like
    /// [`InjectionPoint::ALL`].
    pub fires: [u64; POINTS],
}

impl ChaosReport {
    /// Total faults injected during the run.
    pub fn total_fires(&self) -> u64 {
        self.fires.iter().sum()
    }

    fn absorb(&mut self, other: &ChaosReport) {
        self.ops += other.ops;
        self.acquisitions += other.acquisitions;
        self.try_contended += other.try_contended;
        self.timeouts += other.timeouts;
        self.waits += other.waits;
        self.waits_refused += other.waits_refused;
        self.orphaned |= other.orphaned;
        self.inflations += other.inflations;
        self.deflations += other.deflations;
        self.monitors_peak = self.monitors_peak.max(other.monitors_peak);
        self.monitors_live = self.monitors_live.max(other.monitors_live);
    }
}

/// Accumulates reports (and a fire-count union) across many seeds so a
/// suite can assert that the whole sweep exercised every injection
/// point even when single runs do not.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosTotals {
    /// Schedules that converged.
    pub runs: u64,
    /// Union of all per-run reports.
    pub report: ChaosReport,
}

impl ChaosTotals {
    /// Folds one converged run into the totals.
    pub fn absorb(&mut self, run: &ChaosReport) {
        self.runs += 1;
        self.report.absorb(run);
        for (sum, f) in self.report.fires.iter_mut().zip(run.fires.iter()) {
            *sum += f;
        }
    }

    /// Points that never fired across the sweep (empty = full catalog
    /// coverage).
    pub fn unfired_points(&self) -> Vec<InjectionPoint> {
        InjectionPoint::ALL
            .into_iter()
            .filter(|p| self.report.fires[p.index()] == 0)
            .collect()
    }
}

/// The oracle mutex carries a counter bumped under each acquisition,
/// giving a second, cumulative consistency check.
type Oracle = Vec<Mutex<u64>>;

struct Shared {
    locks: Arc<dyn SyncBackend + Send + Sync>,
    oracle: Oracle,
    diverged: AtomicBool,
}

/// Runs one seeded schedule. `Ok` carries the converged report; `Err`
/// is a human-readable divergence diagnosis naming the seed.
///
/// # Errors
///
/// Any oracle disagreement (two simultaneous owners, a lock left held
/// at the end, a lost counter increment, a monitor-population bound
/// violation) or unexpected protocol error.
pub fn run_schedule(cfg: ChaosConfig) -> Result<ChaosReport, String> {
    assert!(cfg.threads >= 1 && cfg.objects >= 1 && cfg.ops_per_thread >= 1);
    let mut plan = FaultPlan::chaos(cfg.seed, cfg.fault_rate_ppm);
    if let Some(point) = cfg.abort_at {
        plan = plan.with_abort_at(point);
    }
    let plan = Arc::new(plan);
    let locks = cfg.backend.build_with(
        cfg.objects,
        BackendSeams {
            hooks: Some(HookSet::new().fault_injector(plan.clone())),
            orphan_recovery: true,
        },
    );
    let objs: Vec<ObjRef> = (0..cfg.objects)
        .map(|_| locks.heap().alloc().expect("chaos heap sized for objects"))
        .collect();
    let oracle: Oracle = (0..cfg.objects).map(|_| Mutex::new(0)).collect();
    let shared = Arc::new(Shared {
        locks,
        oracle,
        diverged: AtomicBool::new(false),
    });

    // Derive per-worker seeds through SplitMix so neighbouring master
    // seeds do not produce correlated worker streams.
    let mut mix = SplitMix64::new(cfg.seed);
    let worker_seeds: Vec<u64> = (0..cfg.threads).map(|_| mix.next_u64()).collect();

    let mut handles = Vec::with_capacity(cfg.threads);
    for (worker, wseed) in worker_seeds.into_iter().enumerate() {
        let shared = Arc::clone(&shared);
        let objs = objs.clone();
        let kill = cfg.kill_thread && worker == 0;
        let ops = cfg.ops_per_thread;
        handles.push(
            std::thread::Builder::new()
                .name(format!("chaos-{worker}"))
                .spawn(move || worker_body(&shared, &objs, wseed, ops, kill))
                .expect("spawn chaos worker"),
        );
    }

    let mut report = ChaosReport::default();
    let mut failure = None;
    for handle in handles {
        match handle.join() {
            Ok(Ok(local)) => report.absorb(&local),
            Ok(Err(msg)) => failure = Some(msg),
            Err(_) => failure = Some("worker panicked".to_string()),
        }
    }
    if let Some(msg) = failure {
        return Err(format!("seed {}: {msg}", cfg.seed));
    }

    // Convergence: every lock free (orphans swept), every oracle mutex
    // re-acquirable, and the counters account for every acquisition.
    let mut counted = 0;
    for (i, obj) in objs.iter().enumerate() {
        if let Some(owner) = shared.locks.owner_of(*obj) {
            return Err(format!(
                "seed {}: object {i} still owned by thread {owner} after all workers exited",
                cfg.seed
            ));
        }
        match shared.oracle[i].try_lock() {
            Ok(guard) => counted += *guard,
            Err(_) => {
                return Err(format!(
                    "seed {}: oracle mutex {i} still held after all workers exited",
                    cfg.seed
                ));
            }
        }
    }
    if counted != report.acquisitions {
        return Err(format!(
            "seed {}: oracle counted {counted} critical sections but workers report {}",
            cfg.seed, report.acquisitions
        ));
    }

    // Monitor-population bound: at most one monitor can be bound per
    // object, so the peak population may never exceed the object count,
    // and at convergence every live monitor backs exactly one fat word.
    // A violation here means a slot leaked through a faulted
    // inflate/deflate cycle or a lost installing race.
    report.inflations = shared.locks.inflation_count();
    report.deflations = shared.locks.deflation_count();
    report.monitors_peak = shared.locks.monitors_peak();
    report.monitors_live = shared.locks.monitors_live();
    let fat = objs
        .iter()
        .filter(|&&obj| shared.locks.probe_word(obj).is_fat())
        .count();
    if report.monitors_peak > cfg.objects || report.monitors_live != fat {
        return Err(format!(
            "seed {}: monitor population broke its bound on `{}`: peak {} live {} over {} objects, {} fat",
            cfg.seed, cfg.backend, report.monitors_peak, report.monitors_live, cfg.objects, fat
        ));
    }
    report.fires = plan.fire_counts();
    Ok(report)
}

/// Claims the oracle for one critical section: the guard MUST be free
/// the instant the protocol granted us the lock, and the caller holds
/// it until just before the matching protocol release, so any second
/// owner the protocol wrongly admits fails its own claim here.
fn claim_oracle<'a>(
    shared: &'a Shared,
    idx: usize,
    report: &mut ChaosReport,
) -> Result<std::sync::MutexGuard<'a, u64>, String> {
    match shared.oracle[idx].try_lock() {
        Ok(mut guard) => {
            *guard += 1;
            report.acquisitions += 1;
            Ok(guard)
        }
        Err(_) => {
            shared.diverged.store(true, Ordering::Relaxed);
            Err(format!(
                "mutual-exclusion divergence: protocol granted object {idx} while the oracle mutex was held"
            ))
        }
    }
}

/// A short randomized stay inside the critical section, widening the
/// window in which a second wrongful owner would collide with the
/// still-held oracle guard.
fn linger(rng: &mut Xorshift128Plus) {
    for _ in 0..rng.next_below(220) {
        std::hint::spin_loop();
    }
}

fn worker_body(
    shared: &Shared,
    objs: &[ObjRef],
    wseed: u64,
    ops: usize,
    kill: bool,
) -> Result<ChaosReport, String> {
    let mut rng = Xorshift128Plus::seed_from_u64(wseed);
    let reg = shared
        .locks
        .registry()
        .register()
        .map_err(|e| format!("worker registration failed: {e}"))?;
    let t = reg.token();
    let mut report = ChaosReport::default();

    for op in 0..ops {
        if shared.diverged.load(Ordering::Relaxed) {
            break;
        }
        if kill && op == ops / 2 {
            // Die owning a lock: acquire, verify via the oracle, put
            // the oracle guard back, then drop the registration with
            // the protocol lock still held. The exit sweep must
            // reclaim it or the final convergence check fails.
            let idx = rng.range_usize(0, objs.len());
            shared
                .locks
                .lock(objs[idx], t)
                .map_err(|e| format!("kill-path lock failed: {e}"))?;
            report.ops += 1;
            let guard = claim_oracle(shared, idx, &mut report)?;
            drop(guard);
            report.orphaned = true;
            drop(reg);
            return Ok(report);
        }
        let idx = rng.range_usize(0, objs.len());
        let obj = objs[idx];
        match rng.range_u32(0, 100) {
            // Plain blocking acquisition. Workers hold at most one lock
            // at a time, so blocking on any object cannot deadlock.
            0..=39 => {
                shared
                    .locks
                    .lock(obj, t)
                    .map_err(|e| format!("lock: {e}"))?;
                let guard = claim_oracle(shared, idx, &mut report)?;
                linger(&mut rng);
                drop(guard);
                shared
                    .locks
                    .unlock(obj, t)
                    .map_err(|e| format!("unlock: {e}"))?;
            }
            // Nested acquisition (exercises the count field and, past
            // its ceiling, count-overflow inflation).
            40..=54 => {
                let depth = rng.range_usize(2, 4);
                for _ in 0..depth {
                    shared
                        .locks
                        .lock(obj, t)
                        .map_err(|e| format!("nest lock: {e}"))?;
                }
                let guard = claim_oracle(shared, idx, &mut report)?;
                linger(&mut rng);
                drop(guard);
                for _ in 0..depth {
                    shared
                        .locks
                        .unlock(obj, t)
                        .map_err(|e| format!("nest unlock: {e}"))?;
                }
            }
            // Non-blocking attempt; contention is a legal answer.
            55..=69 => {
                if shared
                    .locks
                    .try_lock(obj, t)
                    .map_err(|e| format!("try_lock: {e}"))?
                {
                    let guard = claim_oracle(shared, idx, &mut report)?;
                    drop(guard);
                    shared
                        .locks
                        .unlock(obj, t)
                        .map_err(|e| format!("unlock after try: {e}"))?;
                } else {
                    report.try_contended += 1;
                }
            }
            // Bounded acquisition; timeout is a legal answer.
            70..=84 => {
                let timeout = Duration::from_micros(rng.next_below(1500));
                match shared.locks.lock_deadline(obj, t, timeout) {
                    Ok(()) => {
                        let guard = claim_oracle(shared, idx, &mut report)?;
                        linger(&mut rng);
                        drop(guard);
                        shared
                            .locks
                            .unlock(obj, t)
                            .map_err(|e| format!("unlock after deadline: {e}"))?;
                    }
                    Err(SyncError::Timeout) => report.timeouts += 1,
                    Err(e) => return Err(format!("lock_deadline: {e}")),
                }
            }
            // Timed wait: the monitor is released for the duration, so
            // the oracle guard is dropped before the wait and re-claimed
            // after it (the re-acquisition is a fresh protocol grant).
            _ => {
                shared
                    .locks
                    .lock(obj, t)
                    .map_err(|e| format!("wait lock: {e}"))?;
                let guard = claim_oracle(shared, idx, &mut report)?;
                linger(&mut rng);
                drop(guard);
                let wait_timeout = Duration::from_micros(rng.range_u32(50, 600).into());
                match shared.locks.wait(obj, t, Some(wait_timeout)) {
                    Ok(_) => report.waits += 1,
                    // A bounded deflating backend can transiently refuse
                    // the inflation `wait` needs (deflation frees the
                    // table slot only after the neutral store). The thin
                    // lock is still held, so this is graceful
                    // degradation, not divergence — like `Timeout` from
                    // `lock_deadline`.
                    Err(SyncError::MonitorIndexExhausted) => report.waits_refused += 1,
                    Err(e) => return Err(format!("wait: {e}")),
                }
                let guard = claim_oracle(shared, idx, &mut report)?;
                linger(&mut rng);
                drop(guard);
                shared
                    .locks
                    .unlock(obj, t)
                    .map_err(|e| format!("unlock after wait: {e}"))?;
            }
        }
        report.ops += 1;
    }
    Ok(report)
}
