//! Benchmark harness regenerating every table and figure of the paper.
//!
//! | artifact | function here | `reproduce` section |
//! |----------|---------------|---------------------|
//! | Table 1  | [`macro_rows`] | `table1` |
//! | Table 2  | [`thinlock_vm::programs::MicroBench::table2`] | `table2` |
//! | Figure 3 | [`figure3_rows`] | `fig3` |
//! | Figure 4 | [`run_micro`], [`run_micro_threads`] | `fig4` |
//! | Figure 5 | [`macro_speedups`] | `fig5` |
//! | Figure 6 | [`run_variant`] | `fig6` |
//!
//! [`report::run_sections`] is the one driver of every artifact: the
//! `reproduce` binary prints and records its sections.
//!
//! Absolute times are host-dependent; what the harness (and the
//! assertions in `tests/`) check is the paper's *shape*: who wins, by
//! roughly what factor, and where the crossovers fall.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod benchjson;
pub mod gate;
pub mod report;

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use thinlock::config::{DynamicConfig, FastPathConfig, StaticMp, StaticUp};
use thinlock::fissile::Fissile;
use thinlock::{BackendChoice, CjmLocks, FissileLocks, LockCore, ThinLocks};
use thinlock_baselines::{HotLocks, MonitorCache};
use thinlock_runtime::arch::ArchProfile;
use thinlock_runtime::backend::SyncBackend;
use thinlock_runtime::error::SyncResult;
use thinlock_runtime::heap::{Heap, ObjRef};
use thinlock_runtime::hooks::{HookSet, Hooks};
use thinlock_runtime::protocol::{SyncProtocol, WaitOutcome};
use thinlock_runtime::registry::{ThreadRegistry, ThreadToken};
use thinlock_trace::characterize::{characterize, TraceCharacterization};
use thinlock_trace::generator::{generate, LockTrace, TraceConfig};
use thinlock_trace::replay::replay;
use thinlock_trace::table1::{BenchmarkProfile, MACRO_BENCHMARKS};
use thinlock_vm::programs::MicroBench;
use thinlock_vm::{Value, Vm};

/// The three locking implementations of Section 3, plus the workspace's
/// other thin-word backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// The paper's contribution (this workspace's `thinlock` crate).
    ThinLock,
    /// Sun JDK 1.1.1 monitor cache.
    Jdk111,
    /// IBM JDK 1.1.2 hot locks.
    Ibm112,
    /// Compact Java Monitors (`thinlock::cjm`): deflation into a bounded
    /// monitor table whose freed slots are recycled; see BACKENDS.md.
    Cjm,
    /// Fissile locks (`thinlock::fissile`): thin fast path that fissions
    /// into FIFO ticket admission under contention and re-coheres when
    /// the queue drains; see BACKENDS.md.
    Fissile,
    /// Hapax locks (`thinlock::hapax`): every blocking acquisition takes
    /// a FIFO ticket — constant-time arrival, strict admission order;
    /// see BACKENDS.md.
    Hapax,
}

impl ProtocolKind {
    /// The paper's three protocols, in its presentation order.
    pub const ALL: [ProtocolKind; 3] = [
        ProtocolKind::ThinLock,
        ProtocolKind::Jdk111,
        ProtocolKind::Ibm112,
    ];

    /// Every protocol the workspace implements — the paper's three, the
    /// deflating CJM backend, and the contention-adaptive backends. The
    /// observational-equivalence matrix (`tests/cross_protocol.rs`) and
    /// the concurrent macro replay run over this set.
    pub const ALL_BACKENDS: [ProtocolKind; 6] = [
        ProtocolKind::ThinLock,
        ProtocolKind::Jdk111,
        ProtocolKind::Ibm112,
        ProtocolKind::Cjm,
        ProtocolKind::Fissile,
        ProtocolKind::Hapax,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::ThinLock => "ThinLock",
            ProtocolKind::Jdk111 => "JDK111",
            ProtocolKind::Ibm112 => "IBM112",
            ProtocolKind::Cjm => "CJM",
            ProtocolKind::Fissile => "Fissile",
            ProtocolKind::Hapax => "Hapax",
        }
    }

    /// Builds a fresh protocol instance over its own heap.
    pub fn build(self, heap_capacity: usize, fields: usize) -> Box<dyn SyncProtocol> {
        let heap = Arc::new(Heap::with_capacity_and_fields(heap_capacity, fields));
        let registry = ThreadRegistry::new();
        match self {
            ProtocolKind::ThinLock => Box::new(ThinLocks::new(heap, registry)),
            ProtocolKind::Jdk111 => Box::new(MonitorCache::new(
                heap,
                registry,
                thinlock_baselines::cache::DEFAULT_CACHE_CAPACITY,
            )),
            ProtocolKind::Ibm112 => Box::new(HotLocks::new(
                heap,
                registry,
                thinlock_baselines::cache::DEFAULT_CACHE_CAPACITY,
                thinlock_baselines::hot::DEFAULT_HOT_THRESHOLD,
            )),
            ProtocolKind::Cjm => Box::new(CjmLocks::new(heap, registry)),
            ProtocolKind::Fissile => Box::new(FissileLocks::new(heap, registry)),
            ProtocolKind::Hapax => Box::new(thinlock::HapaxLocks::new(heap, registry)),
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One timed micro-benchmark cell of Figure 4 / Figure 6.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MicroResult {
    /// Implementation measured ("ThinLock", "JDK111", "IBM112", or a
    /// Figure 6 variant name).
    pub implementation: String,
    /// Benchmark name ("Sync", "MultiSync 64", …).
    pub benchmark: String,
    /// Loop iterations executed.
    pub iters: i32,
    /// Fastest wall-clock time over the repetitions (see [`min_time`]).
    pub elapsed: Duration,
}

impl MicroResult {
    /// Nanoseconds per loop iteration.
    pub fn ns_per_iter(&self) -> f64 {
        if self.iters == 0 {
            return 0.0;
        }
        self.elapsed.as_nanos() as f64 / self.iters as f64
    }
}

impl fmt::Display for MicroResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<22} {:<16} {:>9.1} ns/iter",
            self.benchmark,
            self.implementation,
            self.ns_per_iter()
        )
    }
}

/// Repetitions used by [`min_time`] / [`median_time`]: enough to shed
/// scheduler noise on a shared host without exploding runtime.
pub const DEFAULT_REPS: usize = 5;

/// Runs `f` `reps` times and returns every repetition's duration, in
/// execution order. [`min_time`] and [`median_time`] summarize this; the
/// benchmark telemetry pipeline ([`benchjson`]) keeps the raw samples
/// for its MAD/bootstrap statistics.
pub fn sample_times(reps: usize, mut f: impl FnMut()) -> Vec<Duration> {
    assert!(reps > 0);
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect()
}

/// Runs `f` `reps` times and returns the median duration.
pub fn median_time(reps: usize, f: impl FnMut()) -> Duration {
    let mut times = sample_times(reps, f);
    times.sort_unstable();
    times[times.len() / 2]
}

/// Runs `f` `reps` times and returns the fastest duration.
///
/// This is the point estimate the benchmark pipeline gates on: on a
/// shared host, CPU-steal windows inflate individual repetitions by
/// integer factors, so the median of a small sample can double between
/// otherwise identical runs. The minimum is reproducible as long as at
/// least one repetition lands in a clean window, and for a deterministic
/// workload it is the best estimate of the true cost (interference only
/// ever adds time). The full sample still reaches the telemetry layer,
/// which records median/MAD/CI alongside.
pub fn min_time(reps: usize, f: impl FnMut()) -> Duration {
    sample_times(reps, f)
        .into_iter()
        .min()
        .expect("reps > 0 is asserted by sample_times")
}

/// Runs one Table 2 micro-benchmark (single-threaded) under a protocol,
/// returning the fastest time of [`DEFAULT_REPS`] runs.
///
/// # Panics
///
/// Panics if the program misbehaves (wrong return value) — a benchmark
/// that does not compute what it claims must not report a time.
pub fn run_micro(kind: ProtocolKind, bench: MicroBench, iters: i32) -> MicroResult {
    run_micro_sampled(kind, bench, iters).0
}

/// [`run_micro`] plus the raw per-repetition samples (ns per iteration,
/// execution order) the telemetry pipeline summarizes.
///
/// Each repetition runs against a freshly built protocol instance. The
/// baseline protocols (monitor cache, hot locks) are sensitive to where
/// their tables land in memory — one unlucky layout can double a cell
/// for the lifetime of the instance — so a single shared instance makes
/// the whole run bimodal. Rebuilding per repetition samples independent
/// layouts and lets the min pick the representative one, the same
/// reasoning as `run_macro`'s fresh heap per replay.
pub fn run_micro_sampled(
    kind: ProtocolKind,
    bench: MicroBench,
    iters: i32,
) -> (MicroResult, Vec<f64>) {
    let times: Vec<Duration> = (0..DEFAULT_REPS)
        .map(|_| {
            let protocol = kind.build(bench.pool_size() as usize + 1, 1);
            time_micro_rep(&*protocol, bench, iters)
        })
        .collect();
    assemble_micro(kind.name(), bench, iters, times)
}

/// Times one repetition of `bench` on a fresh VM over `protocol`: pool
/// allocation, VM construction and thread registration stay outside the
/// timed window; the benchmark's return value is asserted afterwards.
fn time_micro_rep<P: SyncProtocol + ?Sized>(
    protocol: &P,
    bench: MicroBench,
    iters: i32,
) -> Duration {
    let program = bench.program();
    let pool: Vec<ObjRef> = (0..bench.pool_size())
        .map(|_| protocol.heap().alloc().expect("heap sized for the pool"))
        .collect();
    let vm = Vm::new(protocol, &program, pool).expect("generated program is valid");
    let registration = protocol.registry().register().expect("registry has room");
    let start = Instant::now();
    let out = vm
        .run("main", registration.token(), &[Value::Int(iters)])
        .expect("benchmark must execute cleanly")
        .and_then(Value::as_int)
        .expect("main returns the iteration count");
    let elapsed = start.elapsed();
    assert_eq!(out, bench.expected(iters));
    elapsed
}

/// Folds raw repetition times into a [`MicroResult`] (fastest time, see
/// [`min_time`]) plus the ns-per-iteration samples in execution order.
fn assemble_micro(
    implementation: &str,
    bench: MicroBench,
    iters: i32,
    times: Vec<Duration>,
) -> (MicroResult, Vec<f64>) {
    let samples_ns: Vec<f64> = times
        .iter()
        .map(|t| {
            if iters == 0 {
                0.0
            } else {
                t.as_nanos() as f64 / iters as f64
            }
        })
        .collect();
    let elapsed = times.into_iter().min().expect("at least one repetition");
    (
        MicroResult {
            implementation: implementation.to_string(),
            benchmark: bench.to_string(),
            iters,
            elapsed,
        },
        samples_ns,
    )
}

/// The `Threads n` benchmark: `n` OS threads all running the `Sync` loop
/// on the *same* object, min-of-3 repetitions with a freshly built
/// protocol each (as in [`run_micro_sampled`]). `make` builds the
/// protocol, which needs room for one object with one field. Returns
/// total wall-clock for all threads.
pub fn run_micro_threads<P: SyncProtocol + ?Sized>(
    implementation: &str,
    make: impl Fn() -> Box<P>,
    threads: u32,
    iters: i32,
) -> MicroResult {
    let bench = MicroBench::Threads(threads);
    let program = bench.program();
    let elapsed = (0..3)
        .map(|_| {
            let protocol = make();
            let pool: Vec<ObjRef> = vec![protocol.heap().alloc().expect("heap has room")];
            let start = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..threads.max(1) {
                    let protocol = &*protocol;
                    let program = &program;
                    let pool = pool.clone();
                    scope.spawn(move || {
                        let registration =
                            protocol.registry().register().expect("registry has room");
                        let vm = Vm::new(protocol, program, pool).expect("program is valid");
                        let out = vm
                            .run("main", registration.token(), &[Value::Int(iters)])
                            .expect("benchmark must execute cleanly")
                            .and_then(Value::as_int)
                            .expect("main returns the iteration count");
                        assert_eq!(out, iters);
                    });
                }
            });
            start.elapsed()
        })
        .min()
        .expect("three repetitions");
    MicroResult {
        implementation: implementation.to_string(),
        benchmark: bench.to_string(),
        iters: iters.saturating_mul(threads.max(1) as i32),
        elapsed,
    }
}

/// The fast-path engineering variants of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// All synchronization removed — "the speed of light" within the
    /// interpreter (only the extra bytecodes remain).
    Nop,
    /// Inlined, architecture-specialized fast path (uniprocessor).
    Inline,
    /// Fast path forced through a shared out-of-line function.
    FnCall,
    /// Multiprocessor barriers (`isync`/`sync` analogues) included.
    MpSync,
    /// The shipped configuration: dynamic architecture test per operation.
    ThinLockDynamic,
    /// Unlock performed with compare-and-swap instead of a store.
    UnlkCas,
    /// Compare-and-swap through the simulated POWER kernel trap.
    KernelCas,
}

impl Variant {
    /// All variants in Figure 6's presentation order.
    pub const ALL: [Variant; 7] = [
        Variant::Nop,
        Variant::Inline,
        Variant::FnCall,
        Variant::MpSync,
        Variant::ThinLockDynamic,
        Variant::UnlkCas,
        Variant::KernelCas,
    ];

    /// Figure 6 label.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Nop => "NOP",
            Variant::Inline => "Inline",
            Variant::FnCall => "FnCall",
            Variant::MpSync => "MP Sync",
            Variant::ThinLockDynamic => "ThinLock",
            Variant::UnlkCas => "UnlkC&S",
            Variant::KernelCas => "KernelCAS",
        }
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs one Figure 6 cell: `bench` under the given thin-lock variant.
pub fn run_variant(variant: Variant, bench: MicroBench, iters: i32) -> MicroResult {
    run_variant_sampled(variant, bench, iters).0
}

/// [`run_variant`] plus the raw per-repetition samples (ns per
/// iteration, execution order). As in [`run_micro_sampled`], each
/// repetition gets a freshly built protocol instance.
pub fn run_variant_sampled(
    variant: Variant,
    bench: MicroBench,
    iters: i32,
) -> (MicroResult, Vec<f64>) {
    let cap = bench.pool_size() as usize + 1;
    fn thin<C: FastPathConfig>(cap: usize, config: C) -> ThinLocks<C> {
        ThinLocks::with_config(
            Arc::new(Heap::with_capacity_and_fields(cap, 1)),
            ThreadRegistry::new(),
            config,
        )
    }
    fn sampled<P: SyncProtocol>(
        variant: Variant,
        bench: MicroBench,
        iters: i32,
        make: impl Fn() -> P,
    ) -> (MicroResult, Vec<f64>) {
        let times: Vec<Duration> = (0..DEFAULT_REPS)
            .map(|_| time_micro_rep(&make(), bench, iters))
            .collect();
        assemble_micro(variant.name(), bench, iters, times)
    }
    match variant {
        Variant::Nop => sampled(variant, bench, iters, || NullProtocol::new(cap)),
        Variant::Inline => sampled(variant, bench, iters, || thin(cap, StaticUp)),
        Variant::FnCall => sampled(variant, bench, iters, || {
            thin(
                cap,
                DynamicConfig::new(ArchProfile::PowerPcUp).with_outlined_fast_path(),
            )
        }),
        Variant::MpSync => sampled(variant, bench, iters, || thin(cap, StaticMp)),
        Variant::ThinLockDynamic => sampled(variant, bench, iters, || {
            thin(cap, DynamicConfig::new(ArchProfile::PowerPcMp))
        }),
        Variant::UnlkCas => sampled(variant, bench, iters, || {
            thin(
                cap,
                DynamicConfig::new(ArchProfile::PowerPcMp).with_cas_unlock(),
            )
        }),
        Variant::KernelCas => sampled(variant, bench, iters, || {
            thin(cap, DynamicConfig::new(ArchProfile::PowerKernelCas))
        }),
    }
}

/// One Figure 5 row: replay times per protocol and speedups over JDK111.
#[derive(Debug, Clone, PartialEq)]
pub struct MacroRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Thin-lock replay time.
    pub thin: Duration,
    /// Monitor-cache replay time.
    pub jdk111: Duration,
    /// Hot-locks replay time.
    pub ibm112: Duration,
    /// Lock operations replayed.
    pub lock_ops: u64,
}

impl MacroRow {
    /// Speedup of thin locks over JDK111 (>1 means thin wins).
    pub fn speedup_thin(&self) -> f64 {
        self.jdk111.as_secs_f64() / self.thin.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Speedup of IBM112 over JDK111.
    pub fn speedup_ibm112(&self) -> f64 {
        self.jdk111.as_secs_f64() / self.ibm112.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

impl fmt::Display for MacroRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<12} {:>8} syncs  thin {:>8.2?}  jdk {:>8.2?}  ibm {:>8.2?}  speedup(thin) {:>5.2}  speedup(ibm) {:>5.2}",
            self.name,
            self.lock_ops,
            self.thin,
            self.jdk111,
            self.ibm112,
            self.speedup_thin(),
            self.speedup_ibm112()
        )
    }
}

/// Replays one macro-benchmark trace under one protocol: min-of-3, with
/// a fresh heap per repetition because the trace allocates.
///
/// # Errors
///
/// Propagates protocol errors (none occur on valid traces).
pub fn run_macro(kind: ProtocolKind, trace: &LockTrace) -> SyncResult<Duration> {
    let mut best = Duration::MAX;
    for _ in 0..3 {
        let protocol = kind.build(trace.required_heap_capacity(), 0);
        let registration = protocol.registry().register()?;
        best = best.min(replay(&*protocol, trace, registration.token())?.elapsed);
    }
    Ok(best)
}

/// Regenerates Figure 5: every macro-benchmark replayed under all three
/// protocols.
///
/// # Errors
///
/// Propagates protocol errors (none occur on valid traces).
pub fn macro_speedups(config: &TraceConfig) -> SyncResult<Vec<MacroRow>> {
    MACRO_BENCHMARKS
        .iter()
        .map(|profile| {
            let trace = generate(profile, config);
            Ok(MacroRow {
                name: profile.name,
                thin: run_macro(ProtocolKind::ThinLock, &trace)?,
                jdk111: run_macro(ProtocolKind::Jdk111, &trace)?,
                ibm112: run_macro(ProtocolKind::Ibm112, &trace)?,
                lock_ops: trace.lock_ops(),
            })
        })
        .collect()
}

/// Regenerates Table 1: characterization of every generated trace.
pub fn macro_rows(config: &TraceConfig) -> Vec<(&'static BenchmarkProfile, TraceCharacterization)> {
    MACRO_BENCHMARKS
        .iter()
        .map(|p| (p, characterize(&generate(p, config))))
        .collect()
}

/// Regenerates Figure 3: per-benchmark nesting-depth fractions
/// (depth 1..=4) of the generated traces.
pub fn figure3_rows(config: &TraceConfig) -> Vec<(&'static str, [f64; 4])> {
    macro_rows(config)
        .into_iter()
        .map(|(p, c)| {
            (
                p.name,
                [
                    c.depth_fraction(1),
                    c.depth_fraction(2),
                    c.depth_fraction(3),
                    c.depth_fraction(4),
                ],
            )
        })
        .collect()
}

/// Result of the phased (contend-then-private) ablation comparing one-way
/// inflation against deflation. See [`phased_ablation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhasedAblation {
    /// Time the base protocol (permanently inflated after phase 1) took
    /// for the private phase.
    pub thin_private: Duration,
    /// Time the deflating CJM protocol took for the private phase.
    pub cjm_private: Duration,
    /// Inflations performed by the deflating protocol.
    pub cjm_inflations: u64,
    /// Deflations performed by the deflating protocol.
    pub cjm_deflations: u64,
}

impl PhasedAblation {
    /// How much faster the deflating backend runs the private phase
    /// (thin over CJM).
    pub fn private_phase_speedup(&self) -> f64 {
        self.thin_private.as_secs_f64() / self.cjm_private.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// The ablation of the paper's one-way-inflation rule: a lock sees one
/// burst of `wait`-induced inflation (phase 1), then `private_iters` of
/// single-threaded lock/unlock (phase 2).
///
/// Under the paper's design the lock stays fat and phase 2 pays the
/// monitor cost forever; under CJM the quiet release deflates it and
/// phase 2 runs at thin-lock speed. The return value quantifies the gap —
/// and `cjm_inflations` shows the price (re-inflation on each
/// contended episode) that made the paper choose permanence for
/// simplicity.
pub fn phased_ablation(private_iters: u32) -> PhasedAblation {
    fn contend_once<P: SyncProtocol>(p: &P) {
        let reg = p.registry().register().expect("registry");
        let t = reg.token();
        let obj = ObjRef::from_index(0);
        p.lock(obj, t).expect("lock");
        let _ = p.wait(obj, t, Some(Duration::from_millis(1)));
        p.unlock(obj, t).expect("unlock");
    }
    fn private_phase<P: SyncProtocol>(p: &P, iters: u32) -> Duration {
        let reg = p.registry().register().expect("registry");
        let t = reg.token();
        let obj = ObjRef::from_index(0);
        min_time(DEFAULT_REPS, || {
            for _ in 0..iters {
                p.lock(obj, t).expect("lock");
                p.unlock(obj, t).expect("unlock");
            }
        })
    }

    let thin = ThinLocks::with_capacity(2);
    thin.heap().alloc().expect("alloc");
    contend_once(&thin);
    assert!(thin.lock_word(ObjRef::from_index(0)).is_fat());
    let thin_private = private_phase(&thin, private_iters);

    let cjm = CjmLocks::with_capacity(2);
    cjm.heap().alloc().expect("alloc");
    contend_once(&cjm);
    assert!(cjm.lock_word(ObjRef::from_index(0)).is_unlocked());
    let cjm_private = private_phase(&cjm, private_iters);

    PhasedAblation {
        thin_private,
        cjm_private,
        cjm_inflations: cjm.inflation_count(),
        cjm_deflations: cjm.deflation_count(),
    }
}

/// Objects the churn workload rotates over (also the monitor-population
/// ceiling a backend may not exceed during it).
pub const CHURN_OBJECTS: usize = 8;

/// Burst/private rounds the churn workload executes per repetition.
pub const CHURN_ROUNDS: u32 = 64;

/// Result of one monitor-churn run. See [`run_churn`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnRun {
    /// Backend measured.
    pub backend: BackendChoice,
    /// Objects the rounds rotated over.
    pub objects: usize,
    /// Burst/private rounds executed per repetition.
    pub rounds: u32,
    /// Fastest private-phase cost, in ns per lock/unlock pair.
    pub ns_per_op: f64,
    /// Per-repetition ns-per-op samples, execution order.
    pub samples: Vec<f64>,
    /// Inflations one repetition performs (deterministic per backend).
    pub inflations: u64,
    /// Deflations one repetition performs (0 under one-way inflation).
    pub deflations: u64,
    /// Monitors still live when a repetition ends.
    pub monitors_live: usize,
    /// Peak simultaneous monitor population during a repetition.
    pub monitors_peak: usize,
}

/// The monitor-churn workload: the access pattern where permanent
/// inflation loses.
///
/// Each round picks the next object in a rotating set of `objects`,
/// forces one wait-induced inflation burst on it (lock, timed `wait`,
/// unlock — the paper's own inflation trigger), then runs
/// `private_iters` single-threaded lock/unlock pairs on the same object
/// with only the private phases timed. Under one-way inflation every
/// object stays fat after its first burst, so all later private phases
/// pay the monitor price and the monitor population climbs to the full
/// object count. A deflating backend returns each object to its thin
/// word when the burst quiesces: private phases run at thin-lock speed
/// and at most one monitor is ever live.
///
/// Each repetition runs on a freshly built backend (the
/// [`run_micro_sampled`] discipline), so the population counters are
/// per-repetition and deterministic — `reproduce` gates them exactly.
pub fn run_churn(
    choice: BackendChoice,
    objects: usize,
    rounds: u32,
    private_iters: u32,
) -> ChurnRun {
    assert!(objects >= 1 && rounds >= 1 && private_iters >= 1);
    let mut counters = (0u64, 0u64, 0usize, 0usize);
    let samples: Vec<f64> = (0..DEFAULT_REPS)
        .map(|_| {
            let locks = choice.build(objects);
            let objs: Vec<ObjRef> = (0..objects)
                .map(|_| locks.heap().alloc().expect("heap sized for churn set"))
                .collect();
            let reg = locks.registry().register().expect("registry has room");
            let t = reg.token();
            let mut busy = Duration::ZERO;
            for round in 0..rounds {
                let obj = objs[round as usize % objects];
                locks.lock(obj, t).expect("burst lock");
                locks
                    .wait(obj, t, Some(Duration::from_micros(1)))
                    .expect("timed wait");
                locks.unlock(obj, t).expect("burst unlock");
                let start = Instant::now();
                for _ in 0..private_iters {
                    locks.lock(obj, t).expect("private lock");
                    locks.unlock(obj, t).expect("private unlock");
                }
                busy += start.elapsed();
            }
            counters = (
                locks.inflation_count(),
                locks.deflation_count(),
                locks.monitors_live(),
                locks.monitors_peak(),
            );
            busy.as_nanos() as f64 / (u64::from(rounds) * u64::from(private_iters)) as f64
        })
        .collect();
    let ns_per_op = samples.iter().copied().fold(f64::INFINITY, f64::min);
    ChurnRun {
        backend: choice,
        objects,
        rounds,
        ns_per_op,
        samples,
        inflations: counters.0,
        deflations: counters.1,
        monitors_live: counters.2,
        monitors_peak: counters.3,
    }
}

/// Threads the fairness workload contends with — the "≥ 8 threads"
/// regime where FIFO admission visibly beats unfair spinning.
pub const FAIRNESS_THREADS: usize = 8;

/// Acquisitions the fairness workload hands out per repetition.
pub const FAIRNESS_ACQUISITIONS: u64 = 1_600;

/// Jain's fairness index over per-thread acquisition counts:
/// `(Σx)² / (n · Σx²)`. Ranges from `1/n` (one thread took everything)
/// to `1.0` (perfectly even split); an all-zero slice is defined as
/// `1.0` (nobody was treated worse than anybody else).
///
/// ```
/// use thinlock_bench::jain_index;
///
/// assert_eq!(jain_index(&[100, 100, 100, 100]), 1.0);
/// assert_eq!(jain_index(&[400, 0, 0, 0]), 0.25);   // 1/n: total capture
/// assert!(jain_index(&[300, 50, 25, 25]) < 0.6);
/// ```
///
/// # Panics
///
/// Panics on an empty slice.
pub fn jain_index(counts: &[u64]) -> f64 {
    assert!(!counts.is_empty(), "jain_index needs at least one count");
    let n = counts.len() as f64;
    let sum: f64 = counts.iter().map(|&c| c as f64).sum();
    let sum_sq: f64 = counts.iter().map(|&c| (c as f64) * (c as f64)).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n * sum_sq)
}

/// Nearest-rank percentile of an ascending-sorted sample slice.
/// `p` is in percent (`50.0` is the median).
///
/// ```
/// use thinlock_bench::percentile;
///
/// let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
/// assert_eq!(percentile(&sorted, 50.0), 50.0);
/// assert_eq!(percentile(&sorted, 95.0), 95.0);
/// assert_eq!(percentile(&sorted, 99.0), 99.0);
/// assert_eq!(percentile(&sorted, 100.0), 100.0);
/// ```
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile needs at least one sample");
    assert!(p > 0.0 && p <= 100.0, "percentile wants 0 < p <= 100");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Result of one fairness run. See [`run_fairness`].
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessRun {
    /// Backend measured.
    pub backend: BackendChoice,
    /// Contending threads.
    pub threads: usize,
    /// Acquisitions handed out per repetition.
    pub acquisitions: u64,
    /// Median per-repetition Jain index — the headline fairness number.
    pub jain: f64,
    /// Per-repetition Jain indices, ascending.
    pub jain_samples: Vec<f64>,
    /// Per-thread acquisition counts of the median-Jain repetition.
    pub per_thread: Vec<u64>,
    /// Median lock-acquisition (hand-off) latency in ns, pooled over
    /// every repetition.
    pub handoff_p50: f64,
    /// 95th-percentile hand-off latency in ns.
    pub handoff_p95: f64,
    /// 99th-percentile hand-off latency in ns — the tail a starved
    /// thread actually experiences.
    pub handoff_p99: f64,
}

/// The fairness workload: `threads` contenders race over one shared
/// object for a fixed pool of `acquisitions`, claimed one per critical
/// section from a counter that only the lock holder touches. The
/// holder yields once inside the critical section — a stand-in for
/// real guarded work, and on a single-CPU host the only thing that
/// lets contenders arrive at all (without it the first scheduled
/// thread drains the whole pool inside one timeslice, under *every*
/// backend).
///
/// The shared pool is what makes admission order *visible*: under a
/// barging acquirer (thin's releaser immediately re-CASes the word it
/// just released and almost always wins) one thread drains most of the
/// pool while the others starve, so its per-thread counts are skewed
/// and the Jain index sinks toward `1/threads`. Under FIFO ticket
/// admission (hapax always, fissile once contention fissions the word)
/// every contender gets served in arrival order and the counts come
/// out nearly even. Per-acquisition `lock()` wall times are pooled
/// across repetitions into hand-off latency percentiles — FIFO trades
/// a longer median hand-off for a bounded tail.
///
/// Each repetition runs on a freshly built backend (the [`run_churn`]
/// discipline); the headline Jain index is the median repetition's.
pub fn run_fairness(choice: BackendChoice, threads: usize, acquisitions: u64) -> FairnessRun {
    assert!(threads >= 1 && acquisitions >= 1);
    let mut reps: Vec<(f64, Vec<u64>)> = Vec::with_capacity(DEFAULT_REPS);
    let mut latencies: Vec<f64> = Vec::new();
    for _ in 0..DEFAULT_REPS {
        let locks = choice.build(2);
        let obj = locks.heap().alloc().expect("heap has room");
        let (counts, lat) = fairness_rep(&locks, obj, threads, acquisitions);
        latencies.extend(lat);
        reps.push((jain_index(&counts), counts));
    }
    reps.sort_by(|a, b| a.0.total_cmp(&b.0));
    let jain_samples: Vec<f64> = reps.iter().map(|r| r.0).collect();
    let (jain, per_thread) = reps.swap_remove(reps.len() / 2);
    latencies.sort_by(f64::total_cmp);
    FairnessRun {
        backend: choice,
        threads,
        acquisitions,
        jain,
        jain_samples,
        per_thread,
        handoff_p50: percentile(&latencies, 50.0),
        handoff_p95: percentile(&latencies, 95.0),
        handoff_p99: percentile(&latencies, 99.0),
    }
}

/// One repetition of the fairness workload on a caller-supplied backend
/// instance and object: returns the per-thread acquisition counts and
/// every per-acquisition `lock()` wall time in ns, in no particular
/// order across threads. [`run_fairness`] wraps this in fresh-instance
/// repetitions; the adaptive pipeline calls it directly — once to
/// record a contention profile on a traced [`FissileLocks`] instance,
/// and again after [`apply_plan`] to re-measure the pinned object.
pub fn fairness_rep(
    locks: &Arc<dyn SyncBackend + Send + Sync>,
    obj: ObjRef,
    threads: usize,
    acquisitions: u64,
) -> (Vec<u64>, Vec<f64>) {
    use std::sync::atomic::{AtomicU64, Ordering};

    assert!(threads >= 1 && acquisitions >= 1);
    // Only ever read or written while holding `obj`'s lock; the atomic
    // type is for cross-thread visibility, not contention.
    let remaining = AtomicU64::new(acquisitions);
    let barrier = std::sync::Barrier::new(threads);
    let mut counts = vec![0u64; threads];
    let mut latencies = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let remaining = &remaining;
                let barrier = &barrier;
                scope.spawn(move || {
                    let reg = locks.registry().register().expect("registry has room");
                    let t = reg.token();
                    let mut mine = 0u64;
                    let mut lat = Vec::new();
                    barrier.wait();
                    loop {
                        let start = Instant::now();
                        locks.lock(obj, t).expect("fairness lock");
                        lat.push(start.elapsed().as_nanos() as f64);
                        let left = remaining.load(Ordering::Relaxed);
                        if left == 0 {
                            locks.unlock(obj, t).expect("fairness unlock");
                            break;
                        }
                        remaining.store(left - 1, Ordering::Relaxed);
                        mine += 1;
                        std::thread::yield_now();
                        locks.unlock(obj, t).expect("fairness unlock");
                    }
                    (mine, lat)
                })
            })
            .collect();
        for (slot, handle) in counts.iter_mut().zip(handles) {
            let (mine, lat) = handle.join().expect("fairness worker");
            *slot = mine;
            latencies.extend(lat);
        }
    });
    (counts, latencies)
}

/// A per-object strategy plan for the fissile backend: which objects a
/// contention profile says should rest in FIFO mode. See
/// [`plan_from_profile`] and [`apply_plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptivePlan {
    /// Objects to pin into FIFO admission.
    pub pin: Vec<ObjRef>,
    /// Contended-acquisition threshold the plan was derived with.
    pub threshold: u64,
}

/// Derives an [`AdaptivePlan`] from an observed contention profile: an
/// object is pinned when the profile attributes it at least `threshold`
/// contended acquisitions (spun-on thin acquisitions plus contended fat
/// acquisitions), by the analysis crate's
/// [`dynamic_pins`](thinlock_analysis::contention::dynamic_pins), the
/// same rule `lockcheck --plan` checks the static plan against. This is
/// the profile → policy half the core crate deliberately leaves to its
/// consumers (it sits below `thinlock-obs` in the dependency order); the
/// mechanism half is
/// [`FissileLocks::pin_fifo`](thinlock::LockCore::pin_fifo).
///
/// # Panics
///
/// If `threshold` is zero (it would pin every object ever touched).
pub fn plan_from_profile(
    profile: &thinlock_obs::ContentionProfile,
    threshold: u64,
) -> AdaptivePlan {
    AdaptivePlan {
        pin: thinlock_analysis::contention::dynamic_pins(profile, threshold),
        threshold,
    }
}

/// Applies an [`AdaptivePlan`]: pins every object the plan names and
/// releases any existing pin the plan dropped, so re-planning from a
/// fresh profile converges instead of accumulating stale pins.
///
/// ```
/// use thinlock::FissileLocks;
/// use thinlock_bench::{apply_plan, AdaptivePlan};
/// use thinlock_runtime::protocol::SyncProtocol;
///
/// let locks = FissileLocks::with_capacity(4);
/// let hot = locks.heap().alloc()?;
/// apply_plan(&locks, &AdaptivePlan { pin: vec![hot], threshold: 1 });
/// assert!(locks.pinned(hot));
/// // A later profile disagrees: the stale pin is released.
/// apply_plan(&locks, &AdaptivePlan { pin: vec![], threshold: 1 });
/// assert!(!locks.pinned(hot));
/// # Ok::<(), thinlock_runtime::SyncError>(())
/// ```
pub fn apply_plan<H: Hooks>(locks: &LockCore<Fissile, DynamicConfig, H>, plan: &AdaptivePlan) {
    for index in 0..locks.heap().capacity() {
        let obj = ObjRef::from_index(index);
        if locks.pinned(obj) && !plan.pin.contains(&obj) {
            locks.release_fifo(obj);
        }
    }
    for &obj in &plan.pin {
        locks.pin_fifo(obj);
    }
}

/// One row of the nest-count-width ablation: for each candidate width,
/// the worst-case fraction of lock operations (over all Table 1 traces)
/// that would overflow and force an inflation.
pub fn count_width_ablation(config: &TraceConfig) -> Vec<(u32, f64)> {
    let rows = macro_rows(config);
    (1..=8)
        .map(|bits| {
            let worst = rows
                .iter()
                .map(|(_, c)| c.overflow_fraction(bits))
                .fold(0.0f64, f64::max);
            (bits, worst)
        })
        .collect()
}

/// Times the contended `Threads 2` workload under each spin policy —
/// the ablation of the paper's open "standard back-off techniques" choice.
pub fn spin_policy_ablation(iters: i32) -> Vec<(&'static str, Duration)> {
    use thinlock_runtime::backoff::SpinPolicy;
    let policies = [
        ("spin-then-yield", SpinPolicy::SpinThenYield),
        ("yield-only", SpinPolicy::YieldOnly),
        ("spin-hard", SpinPolicy::SpinHard),
    ];
    policies
        .iter()
        .map(|&(name, policy)| {
            let make = || {
                Box::new(ThinLocks::with_config(
                    Arc::new(Heap::with_capacity_and_fields(2, 1)),
                    ThreadRegistry::new(),
                    DynamicConfig::default().with_spin_policy(policy),
                ))
            };
            (name, run_micro_threads(name, make, 2, iters).elapsed)
        })
        .collect()
}

/// One row of the concurrent macro replay: per-protocol wall time for a
/// multithreaded Table 1 workload. See
/// [`thinlock_trace::concurrent`].
pub fn concurrent_macro(
    profile: &BenchmarkProfile,
    config: &thinlock_trace::concurrent::ConcurrentConfig,
) -> SyncResult<Vec<(&'static str, Duration, bool)>> {
    let trace = thinlock_trace::concurrent::generate_concurrent(profile, config);
    ProtocolKind::ALL_BACKENDS
        .iter()
        .map(|&kind| {
            // Min-of-3 fresh-heap replays, like `run_macro`: a single
            // concurrent replay is one scheduler roll of the dice, far
            // too jittery to gate. Exclusion must hold on every replay,
            // not just the fastest.
            let mut best: Option<Duration> = None;
            let mut verified = true;
            for _ in 0..3 {
                let protocol = kind.build(trace.total_objects() as usize, 0);
                let out = thinlock_trace::concurrent::replay_concurrent(&*protocol, &trace)?;
                verified &= out.exclusion_verified;
                best = Some(best.map_or(out.elapsed, |b| b.min(out.elapsed)));
            }
            Ok((kind.name(), best.expect("three replays"), verified))
        })
        .collect()
}

/// Runs the profiling corpus: a deterministic workload that exercises
/// every locking scenario and every
/// [`InflationCause`](thinlock_runtime::stats::InflationCause) while a
/// `LockTracer` records the event stream.
///
/// The corpus phases:
///
/// 1. a hot uncontended lock/unlock loop (scenario 1 dominates, as in
///    the paper's Table 1 median),
/// 2. shallow nesting (depths 2–3),
/// 3. deep nesting past the 8-bit count — a `CountOverflow` inflation,
/// 4. two-thread contention on a thin-held lock — a `Contention`
///    inflation after spinning,
/// 5. wait/notify — a `WaitNotify` inflation,
/// 6. a static pre-inflation hint — a `Hint` inflation,
/// 7. the escape analysis running over the `Sync` micro-benchmark,
///    with each provably-elidable operation recorded as an
///    `ElisionHit` through the generic
///    [`SyncProtocol::trace_sink`] seam.
///
/// # Panics
///
/// Panics if any corpus phase fails to drive the protocol into the
/// intended state (these are the same guarantees the unit tests assert).
pub fn run_profile_corpus(config: thinlock_obs::TracerConfig) -> thinlock_obs::ContentionProfile {
    use thinlock_obs::{ContentionProfile, LockTracer};
    use thinlock_runtime::events::TraceEventKind;

    let tracer = Arc::new(LockTracer::new(config));
    let protocol =
        ThinLocks::with_capacity(8).with_hooks(HookSet::new().sink(Arc::clone(&tracer) as _));

    let reg = protocol.registry().register().expect("registry has room");
    let t = reg.token();

    // Phase 1: hot uncontended loop (scenario 1).
    let hot = protocol.heap().alloc().expect("heap has room");
    for _ in 0..1_000 {
        protocol.lock(hot, t).expect("lock");
        protocol.unlock(hot, t).expect("unlock");
    }

    // Phase 2: shallow nesting.
    let nested = protocol.heap().alloc().expect("heap has room");
    for _ in 0..3 {
        protocol.lock(nested, t).expect("lock");
    }
    for _ in 0..3 {
        protocol.unlock(nested, t).expect("unlock");
    }

    // Phase 3: nest past the 8-bit count — CountOverflow inflation.
    let deep = protocol.heap().alloc().expect("heap has room");
    for _ in 0..257 {
        protocol.lock(deep, t).expect("lock");
    }
    for _ in 0..257 {
        protocol.unlock(deep, t).expect("unlock");
    }
    assert!(protocol.lock_word(deep).is_fat(), "overflow inflated");

    // Phase 4: contention — the owner holds across a barrier so the
    // contender is guaranteed to spin on a thin-held lock and inflate.
    let contended = protocol.heap().alloc().expect("heap has room");
    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let reg = protocol.registry().register().expect("registry");
            let t = reg.token();
            protocol.lock(contended, t).expect("lock");
            barrier.wait();
            std::thread::sleep(Duration::from_millis(10));
            protocol.unlock(contended, t).expect("unlock");
        });
        barrier.wait();
        protocol.lock(contended, t).expect("contended lock");
        protocol.unlock(contended, t).expect("unlock");
    });
    assert!(
        protocol.lock_word(contended).is_fat(),
        "contention inflated"
    );

    // Phase 5: wait/notify — inflates with WaitNotify.
    let shared = protocol.heap().alloc().expect("heap has room");
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let reg = protocol.registry().register().expect("registry");
            let t = reg.token();
            protocol.lock(shared, t).expect("lock");
            let out = protocol.wait(shared, t, None).expect("wait");
            assert_eq!(out, WaitOutcome::Notified);
            protocol.unlock(shared, t).expect("unlock");
        });
        while !protocol.lock_word(shared).is_fat() {
            std::thread::yield_now();
        }
        protocol.lock(shared, t).expect("lock");
        protocol.notify(shared, t).expect("notify");
        protocol.unlock(shared, t).expect("unlock");
    });

    // Phase 6: static pre-inflation hint.
    let hinted = protocol.heap().alloc().expect("heap has room");
    assert!(protocol.pre_inflate_hint(hinted), "hint applies");

    // Phase 7: the escape analysis proves the single-threaded Sync
    // micro-benchmark's operations elidable; credit each one as an
    // ElisionHit through the protocol-generic trace seam.
    let program = MicroBench::Sync.program();
    let ctx = thinlock_analysis::escape::EscapeContext::single_threaded();
    let report = thinlock_analysis::analyze_program(&program, &ctx);
    if let Some(sink) = protocol.trace_sink() {
        for _ in &report.escape.elidable_ops {
            sink.record(None, None, TraceEventKind::ElisionHit);
        }
    }

    ContentionProfile::build(&tracer.snapshot())
}

/// A protocol whose lock operations do nothing — Figure 6's "NOP" case,
/// measuring pure bytecode overhead of the synchronization instructions.
#[derive(Debug)]
pub struct NullProtocol {
    heap: Arc<Heap>,
    registry: ThreadRegistry,
}

impl NullProtocol {
    /// Creates a no-op protocol over a fresh heap.
    pub fn new(heap_capacity: usize) -> Self {
        NullProtocol {
            heap: Arc::new(Heap::with_capacity_and_fields(heap_capacity, 1)),
            registry: ThreadRegistry::new(),
        }
    }
}

impl SyncProtocol for NullProtocol {
    fn lock(&self, _obj: ObjRef, _t: ThreadToken) -> SyncResult<()> {
        Ok(())
    }
    fn unlock(&self, _obj: ObjRef, _t: ThreadToken) -> SyncResult<()> {
        Ok(())
    }
    fn wait(
        &self,
        _obj: ObjRef,
        _t: ThreadToken,
        _timeout: Option<Duration>,
    ) -> SyncResult<WaitOutcome> {
        Ok(WaitOutcome::TimedOut)
    }
    fn notify(&self, _obj: ObjRef, _t: ThreadToken) -> SyncResult<()> {
        Ok(())
    }
    fn notify_all(&self, _obj: ObjRef, _t: ThreadToken) -> SyncResult<()> {
        Ok(())
    }
    fn holds_lock(&self, _obj: ObjRef, _t: ThreadToken) -> bool {
        false
    }
    fn heap(&self) -> &Heap {
        &self.heap
    }
    fn registry(&self) -> &ThreadRegistry {
        &self.registry
    }
    fn name(&self) -> &'static str {
        "NOP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace_config() -> TraceConfig {
        TraceConfig {
            scale: 100_000,
            seed: 7,
            max_objects: 500,
            max_lock_ops: 1_000,
            skew: 0.8,
            work_per_sync: 10,
            work_per_alloc: 20,
        }
    }

    #[test]
    fn protocol_kinds_build_and_name() {
        for kind in ProtocolKind::ALL {
            let p = kind.build(4, 1);
            assert_eq!(p.name(), kind.name());
            assert_eq!(p.heap().capacity(), 4);
        }
    }

    #[test]
    fn micro_benchmarks_run_under_every_protocol() {
        for kind in ProtocolKind::ALL {
            for bench in [MicroBench::NoSync, MicroBench::Sync, MicroBench::NestedSync] {
                let r = run_micro(kind, bench, 50);
                assert_eq!(r.iters, 50);
                assert!(r.ns_per_iter() > 0.0, "{kind} {bench}");
            }
        }
    }

    #[test]
    fn threads_benchmark_runs() {
        let kind = ProtocolKind::ThinLock;
        let r = run_micro_threads(kind.name(), || kind.build(2, 1), 2, 100);
        assert_eq!(r.iters, 200);
        assert!(r.elapsed > Duration::ZERO);
    }

    #[test]
    fn all_variants_run() {
        for v in Variant::ALL {
            let r = run_variant(v, MicroBench::Sync, 50);
            assert_eq!(r.implementation, v.name());
        }
    }

    #[test]
    fn macro_row_speedups() {
        let row = MacroRow {
            name: "x",
            thin: Duration::from_millis(10),
            jdk111: Duration::from_millis(20),
            ibm112: Duration::from_millis(25),
            lock_ops: 1,
        };
        assert!((row.speedup_thin() - 2.0).abs() < 1e-9);
        assert!((row.speedup_ibm112() - 0.8).abs() < 1e-9);
        assert!(row.to_string().contains("speedup"));
    }

    #[test]
    fn macro_harness_runs_one_benchmark() {
        let trace = generate(
            BenchmarkProfile::by_name("javacup").unwrap(),
            &tiny_trace_config(),
        );
        for kind in ProtocolKind::ALL {
            let t = run_macro(kind, &trace).unwrap();
            assert!(t > Duration::ZERO);
        }
    }

    #[test]
    fn table1_and_fig3_rows_cover_all_benchmarks() {
        let cfg = tiny_trace_config();
        let rows = macro_rows(&cfg);
        assert_eq!(rows.len(), 18);
        let f3 = figure3_rows(&cfg);
        assert_eq!(f3.len(), 18);
        for (name, fr) in f3 {
            let sum: f64 = fr.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{name}: fractions sum to 1");
        }
    }

    #[test]
    fn null_protocol_is_a_noop() {
        let p = NullProtocol::new(2);
        let reg = p.registry().register().unwrap();
        let obj = p.heap().alloc().unwrap();
        p.lock(obj, reg.token()).unwrap();
        assert!(!p.holds_lock(obj, reg.token()));
        p.unlock(obj, reg.token()).unwrap();
        assert_eq!(p.name(), "NOP");
    }

    #[test]
    fn phased_ablation_shows_deflation_benefit() {
        let r = phased_ablation(2_000);
        assert_eq!(r.cjm_deflations, 1);
        assert_eq!(r.cjm_inflations, 1);
        assert!(
            r.private_phase_speedup() > 1.0,
            "deflated private phase must be faster: {r:?}"
        );
    }

    #[test]
    fn churn_population_separates_thin_from_cjm() {
        let thin = run_churn(BackendChoice::Thin, 4, 12, 50);
        assert_eq!(
            thin.monitors_live, 4,
            "one-way inflation keeps every monitor"
        );
        assert_eq!(thin.monitors_peak, 4);
        assert_eq!(
            thin.inflations, 4,
            "each object inflates once, then stays fat"
        );
        assert_eq!(thin.deflations, 0);

        let cjm = run_churn(BackendChoice::Cjm, 4, 12, 50);
        assert_eq!(cjm.monitors_live, 0, "every burst deflates back to neutral");
        assert_eq!(
            cjm.monitors_peak, 1,
            "sequential bursts never stack monitors"
        );
        assert_eq!(cjm.inflations, 12, "every round re-inflates");
        assert_eq!(cjm.deflations, 12);
        assert!(cjm.ns_per_op > 0.0 && thin.ns_per_op > 0.0);
    }

    #[test]
    fn count_width_ablation_confirms_paper_claim() {
        let rows = count_width_ablation(&tiny_trace_config());
        let at = |bits: u32| rows.iter().find(|&&(b, _)| b == bits).unwrap().1;
        assert!(at(1) > 0.0, "1 bit overflows somewhere");
        assert_eq!(at(2), 0.0, "2 bits never overflow (nesting <= 4)");
        assert_eq!(at(8), 0.0);
    }

    #[test]
    fn spin_policies_all_complete() {
        for (name, t) in spin_policy_ablation(200) {
            assert!(t > Duration::ZERO, "{name}");
        }
    }

    #[test]
    fn concurrent_macro_verifies_exclusion() {
        let profile = BenchmarkProfile::by_name("javac").unwrap();
        let cfg = thinlock_trace::concurrent::ConcurrentConfig {
            threads: 2,
            shared_fraction: 0.3,
            base: tiny_trace_config(),
        };
        for (name, elapsed, ok) in concurrent_macro(profile, &cfg).unwrap() {
            assert!(ok, "{name}: exclusion violated");
            assert!(elapsed > Duration::ZERO);
        }
    }

    #[test]
    fn jain_index_on_synthetic_counts() {
        assert_eq!(jain_index(&[1, 1, 1, 1]), 1.0);
        assert_eq!(jain_index(&[4, 0, 0, 0]), 0.25);
        assert_eq!(jain_index(&[0, 0]), 1.0, "all-zero is defined as even");
        let skewed = jain_index(&[100, 10, 10, 10]);
        assert!(skewed > 0.25 && skewed < 1.0, "{skewed}");
        // Scale invariance: only the shape of the split matters.
        assert!((jain_index(&[3, 1]) - jain_index(&[300, 100])).abs() < 1e-12);
    }

    #[test]
    fn percentile_nearest_rank() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&sorted, 25.0), 10.0);
        assert_eq!(percentile(&sorted, 50.0), 20.0);
        assert_eq!(percentile(&sorted, 51.0), 30.0);
        assert_eq!(percentile(&sorted, 99.0), 40.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn fairness_run_conserves_the_acquisition_pool() {
        for choice in [BackendChoice::Hapax, BackendChoice::Fissile] {
            let r = run_fairness(choice, 4, 64);
            assert_eq!(r.per_thread.iter().sum::<u64>(), 64, "{choice:?}");
            assert_eq!(r.per_thread.len(), 4);
            assert_eq!(r.jain_samples.len(), DEFAULT_REPS);
            assert!(r.jain > 0.0 && r.jain <= 1.0, "{choice:?}: {}", r.jain);
            assert!(r.handoff_p50 <= r.handoff_p95 && r.handoff_p95 <= r.handoff_p99);
        }
    }

    #[test]
    fn plan_pins_only_contended_objects() {
        use thinlock_obs::{ContentionProfile, LockTracer, TracerConfig};

        let tracer = Arc::new(LockTracer::new(TracerConfig {
            max_threads: 8,
            ring_capacity: 4096,
        }));
        let locks = FissileLocks::with_capacity(4)
            .with_hooks(HookSet::new().sink(Arc::clone(&tracer) as _));
        let hot = locks.heap().alloc().unwrap();
        let cold = locks.heap().alloc().unwrap();

        // Contend on `hot` (owner holds across a barrier, so the second
        // thread's acquisition is recorded as contended); leave `cold`
        // uncontended.
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let reg = locks.registry().register().unwrap();
                let t = reg.token();
                locks.lock(hot, t).unwrap();
                barrier.wait();
                std::thread::sleep(Duration::from_millis(5));
                locks.unlock(hot, t).unwrap();
            });
            let reg = locks.registry().register().unwrap();
            let t = reg.token();
            barrier.wait();
            locks.lock(hot, t).unwrap();
            locks.unlock(hot, t).unwrap();
            locks.lock(cold, t).unwrap();
            locks.unlock(cold, t).unwrap();
        });

        let profile = ContentionProfile::build(&tracer.snapshot());
        let plan = plan_from_profile(&profile, 1);
        assert!(plan.pin.contains(&hot), "contended object pinned: {plan:?}");
        assert!(
            !plan.pin.contains(&cold),
            "uncontended object left reactive"
        );

        apply_plan(&locks, &plan);
        assert!(locks.pinned(hot) && !locks.pinned(cold));
        // Re-planning with an empty plan releases the stale pin.
        apply_plan(
            &locks,
            &AdaptivePlan {
                pin: Vec::new(),
                threshold: 1,
            },
        );
        assert!(!locks.pinned(hot));
    }

    #[test]
    fn plan_threshold_boundary_is_inclusive() {
        use thinlock_obs::{ContentionProfile, LockTracer, TracerConfig};
        use thinlock_runtime::events::{TraceEventKind, TraceSink};

        let tracer = LockTracer::new(TracerConfig {
            max_threads: 2,
            ring_capacity: 4096,
        });
        let at = ObjRef::from_index(0);
        let under = ObjRef::from_index(1);
        // `at` lands exactly on the threshold, split across both
        // contended kinds to pin down the sum in the formula; `under`
        // stops one short.
        for _ in 0..7 {
            tracer.record(
                None,
                Some(at),
                TraceEventKind::AcquireContendedThin { spin_rounds: 1 },
            );
        }
        tracer.record(
            None,
            Some(at),
            TraceEventKind::AcquireFat { contended: true },
        );
        for _ in 0..7 {
            tracer.record(
                None,
                Some(under),
                TraceEventKind::AcquireContendedThin { spin_rounds: 1 },
            );
        }
        let profile = ContentionProfile::build(&tracer.snapshot());

        let plan = plan_from_profile(&profile, 8);
        assert_eq!(
            plan.pin,
            vec![at],
            "count == threshold pins; count == threshold - 1 does not"
        );
        // One notch up neither object qualifies.
        assert!(plan_from_profile(&profile, 9).pin.is_empty());
        // Uncontended fat acquisitions must not count toward the sum.
        tracer.record(
            None,
            Some(under),
            TraceEventKind::AcquireFat { contended: false },
        );
        let profile = ContentionProfile::build(&tracer.snapshot());
        assert_eq!(plan_from_profile(&profile, 8).pin, vec![at]);
    }

    #[test]
    fn plan_from_empty_profile_pins_nothing() {
        use thinlock_obs::{ContentionProfile, LockTracer, TracerConfig};

        let tracer = LockTracer::new(TracerConfig {
            max_threads: 2,
            ring_capacity: 64,
        });
        let profile = ContentionProfile::build(&tracer.snapshot());
        assert!(profile.objects.is_empty());
        assert!(plan_from_profile(&profile, 1).pin.is_empty());
    }

    #[test]
    fn single_thread_workload_never_pins() {
        use thinlock_obs::{ContentionProfile, LockTracer, TracerConfig};

        let tracer = Arc::new(LockTracer::new(TracerConfig {
            max_threads: 2,
            ring_capacity: 4096,
        }));
        let locks = FissileLocks::with_capacity(2)
            .with_hooks(HookSet::new().sink(Arc::clone(&tracer) as _));
        let obj = locks.heap().alloc().unwrap();
        let reg = locks.registry().register().unwrap();
        let t = reg.token();
        for _ in 0..300 {
            locks.lock(obj, t).unwrap();
            locks.unlock(obj, t).unwrap();
        }
        let profile = ContentionProfile::build(&tracer.snapshot());
        // A single thread can never observe contention, so even the
        // loosest threshold must leave everything reactive.
        assert!(
            plan_from_profile(&profile, 1).pin.is_empty(),
            "single-thread workload produced a pin: {profile:?}"
        );
    }

    #[test]
    fn plan_formula_matches_static_dynamic_pins() {
        use thinlock_analysis::contention::dynamic_pins;
        use thinlock_obs::{ContentionProfile, LockTracer, TracerConfig};
        use thinlock_runtime::events::{TraceEventKind, TraceSink};

        let tracer = LockTracer::new(TracerConfig {
            max_threads: 2,
            ring_capacity: 4096,
        });
        for index in 0..4usize {
            let obj = ObjRef::from_index(index);
            for _ in 0..(index * 5) {
                tracer.record(
                    None,
                    Some(obj),
                    TraceEventKind::AcquireContendedThin { spin_rounds: 1 },
                );
            }
            tracer.record(
                None,
                Some(obj),
                TraceEventKind::AcquireFat { contended: true },
            );
        }
        let profile = ContentionProfile::build(&tracer.snapshot());
        // The analysis crate's agreement gate checks the static plan
        // against this pin set; if the bench pipeline pinned anything
        // else, the static↔dynamic cross-check would silently diverge
        // from what the pipeline actually applies.
        for threshold in [1, 2, 6, 11, 64] {
            assert_eq!(
                plan_from_profile(&profile, threshold).pin,
                dynamic_pins(&profile, threshold),
                "threshold {threshold}"
            );
        }
    }

    #[test]
    fn static_plan_reproduces_pinned_fairness() {
        // Statically infer the SyncPlan for the hot-object program — no
        // dynamic profiling anywhere in this test.
        let entry = thinlock_vm::programs::concurrent_library()
            .into_iter()
            .find(|e| e.name == "hot-object")
            .expect("hot-object is in the concurrent library");
        let report = thinlock_analysis::analyze_concurrent(&entry);
        let plan = &report.contention.plan;
        assert!(
            plan.entry(0).is_some_and(|e| e.pin_fifo),
            "static pass pins the hot site: {plan:?}"
        );

        // Apply the static plan to a fresh fissile backend and measure
        // fairness on the pinned object.
        let threads = entry.total_threads() as usize;
        let adaptive = Arc::new(FissileLocks::with_capacity(
            entry.program.pool_size() as usize + 1,
        ));
        let pool: Vec<ObjRef> = (0..entry.program.pool_size())
            .map(|_| adaptive.heap().alloc().unwrap())
            .collect();
        for pin in plan.pin_pools() {
            adaptive.pin_fifo(pool[pin as usize]);
        }
        assert!(adaptive.pinned(pool[0]));

        let dyn_locks: Arc<dyn SyncBackend + Send + Sync> =
            Arc::clone(&adaptive) as Arc<dyn SyncBackend + Send + Sync>;
        // Best-of-3: the claim is about the FIFO mechanism the static
        // plan selected, not one scheduler roll.
        let jain = (0..3)
            .map(|_| {
                let (counts, _) = fairness_rep(&dyn_locks, pool[0], threads, 2_000);
                jain_index(&counts)
            })
            .fold(0.0, f64::max);
        assert!(
            jain >= 0.9,
            "statically pinned hot object should split evenly (Jain ≈ 1.0), got {jain:.3}"
        );
    }

    #[test]
    fn adaptive_backends_build_through_protocol_kind() {
        for kind in [ProtocolKind::Fissile, ProtocolKind::Hapax] {
            let p = kind.build(4, 0);
            assert_eq!(p.name(), kind.name());
            let reg = p.registry().register().unwrap();
            let obj = p.heap().alloc().unwrap();
            p.lock(obj, reg.token()).unwrap();
            p.unlock(obj, reg.token()).unwrap();
        }
    }

    #[test]
    fn reentrant_fat_acquisition_is_not_contention() {
        use thinlock::BackendSeams;
        use thinlock_obs::{ContentionProfile, LockTracer, TracerConfig};

        for choice in BackendChoice::ALL {
            let tracer = Arc::new(LockTracer::new(TracerConfig {
                max_threads: 2,
                ring_capacity: 256,
            }));
            let seams = BackendSeams {
                hooks: Some(HookSet::new().sink(Arc::clone(&tracer) as _)),
                ..BackendSeams::default()
            };
            let locks = choice.build_with(2, seams);
            let obj = locks.heap().alloc().unwrap();
            let reg = locks.registry().register().unwrap();
            let t = reg.token();
            // One thread: inflate with a timed wait, then re-enter the fat
            // lock by `lock` and by `try_lock`.
            locks.lock(obj, t).unwrap();
            let waited = locks.wait(obj, t, Some(Duration::from_millis(1)));
            assert_eq!(waited, Ok(WaitOutcome::TimedOut), "{choice}");
            locks.lock(obj, t).unwrap();
            assert_eq!(locks.try_lock(obj, t), Ok(true), "{choice}");
            for _ in 0..3 {
                locks.unlock(obj, t).unwrap();
            }
            let profile = ContentionProfile::build(&tracer.snapshot());
            let contended: u64 = profile
                .objects
                .iter()
                .map(|o| o.acquire_fat_contended)
                .sum();
            assert_eq!(contended, 0, "{choice}: nesting counted as queueing");
            assert!(
                plan_from_profile(&profile, 1).pin.is_empty(),
                "{choice}: one thread's nesting pinned its object"
            );
        }
    }

    #[test]
    fn profile_corpus_attributes_every_inflation() {
        let profile = run_profile_corpus(thinlock_obs::TracerConfig {
            max_threads: 16,
            ring_capacity: 4096,
        });
        // One inflation of every cause.
        assert_eq!(profile.inflations_by_cause(), [1, 1, 1, 1]);
        assert_eq!(profile.inflations.len(), 4);
        // Every traced inflation names its object.
        assert!(profile.inflations.iter().all(|i| i.obj.is_some()));
        // The corpus exercises elision hits and monitor allocations too.
        assert!(profile.elision_hits > 0);
        assert!(profile.monitors_allocated >= 4);
        assert_eq!(profile.dropped, 0, "rings sized for the corpus");
        // The hot object dominates the ranking.
        assert_eq!(profile.objects[0].acquire_unlocked, 1_000);
    }

    #[test]
    fn median_time_is_monotone_reasonable() {
        let d = median_time(3, || std::thread::sleep(Duration::from_millis(2)));
        assert!(d >= Duration::from_millis(1));
    }
}
