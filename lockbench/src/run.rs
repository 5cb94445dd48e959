//! What one run is given and what it measures, and the part every
//! workload shares: the set-up repetitions and the round-robin slice
//! schedule, behind `measure`.

use std::time::{Duration, Instant};

use thinlock_runtime::registry::Registration;
use thinlock_runtime::{ObjRef, ThreadToken};

use crate::backends::{self, Backend, Tally};
use crate::hist::Histogram;
use crate::spans::{self, SpanRecorder, ThreadLog};

/// Length of one slice. Backends take turns in slices this short, so a
/// slow phase of the host hits all four alike; a library-1t slice still
/// holds about 3000 requests, enough for a steady per-slice p99.
pub const SLICE: Duration = Duration::from_millis(100);

/// Complete set-ups per run; `setup_s` is taken over their times (see
/// [`Measured::setup_s`]). The first one's objects run the timed slices.
/// The others run between rounds of slices, spread evenly over the run,
/// so that they sample the host across the whole run.
pub const SETUP_REPS: usize = 25;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One thread running the javalex-shaped `main(8)` on the VM.
    Library,
    /// Two threads locking 16 shared objects.
    Contended,
    /// One thread inflating 65,536 objects through `notify`.
    Churn,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Library, Workload::Contended, Workload::Churn];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Library => "library-1t",
            Workload::Contended => "contended-2t",
            Workload::Churn => "churn-1t",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every choice the workload makes.
    pub seed: u64,
    /// Measured time: the timed slices and the set-ups spread among them.
    pub duration: Duration,
    /// Record spans in slices interleaved with untraced ones.
    pub trace: bool,
}

/// Set-up time of one repetition, split by part.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// From the workload's start to its first timed request, s.
    pub total_s: f64,
    /// Building each backend over its heap and allocating its objects,
    /// plus registering threads, ms.
    pub build_ms: [f64; 4],
    /// Each backend's fixed-count warm-up, ms.
    pub warmup_ms: [f64; 4],
    /// Assembling and verifying the VM program, ms.
    pub program_ms: f64,
    /// The round of slices that ran closest to this set-up: round 0 for
    /// the first one, which runs before the slices, and the round just
    /// finished for the others.
    pub round: usize,
}

/// One slice's readings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceStat {
    /// Successful acquisitions per second of the slice's wall time.
    pub ops_per_s: f64,
    /// The 99th percentile of the slice's request times, ns.
    pub p99_ns: f64,
}

/// One kind of slice's totals: a backend, traced or not.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// Acquisitions that succeeded.
    pub acquisitions: u64,
    /// Wall time of the slices, ns.
    pub wall_ns: u64,
    /// Request times.
    pub hist: Histogram,
    /// Each slice's readings.
    pub slices: Vec<SliceStat>,
}

impl Phase {
    /// Successful acquisitions per second of wall time.
    pub fn ops_per_s(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.acquisitions as f64 * 1e9 / self.wall_ns as f64
        }
    }

    /// The lower quartile over slices of their successful acquisitions per
    /// second: the rate three slices in four reach. The host switches
    /// between a slow and a fast phase, in which slices run up to 50%
    /// faster, and the share of fast slices changes from run to run. A
    /// median lands on either phase; the lower quartile stays on the slow
    /// one while fast slices are fewer than three in four.
    pub fn slice_ops_per_s(&self) -> f64 {
        let mut rates: Vec<f64> = self.slices.iter().map(|s| s.ops_per_s).collect();
        quantile(&mut rates, 0.25)
    }

    /// The upper quartile over slices of their 99th-percentile request
    /// time, ns: the p99 three slices in four stay under, taken on the
    /// slow phase for the same reason.
    pub fn slice_p99_ns(&self) -> f64 {
        let mut p99s: Vec<f64> = self.slices.iter().map(|s| s.p99_ns).collect();
        quantile(&mut p99s, 0.75)
    }

    /// Adds one slice: its successful acquisitions, wall time and request
    /// times, which move into the phase's histogram.
    fn add_slice(&mut self, acquisitions: u64, wall_ns: u64, times: &mut Histogram) {
        self.acquisitions += acquisitions;
        self.wall_ns += wall_ns;
        self.slices.push(SliceStat {
            ops_per_s: acquisitions as f64 * 1e9 / wall_ns.max(1) as f64,
            p99_ns: times.quantile(0.99),
        });
        self.hist.merge(times);
        times.clear();
    }
}

/// Backend counters over the timed slices, and the population peak.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// `inflation_count` gained in the timed slices.
    pub inflations: u64,
    /// `deflation_count` gained in the timed slices.
    pub deflations: u64,
    /// `monitors_peak` at the end of the run.
    pub monitors_peak: usize,
    /// `inflation_count` at the end of the run.
    pub inflations_total: u64,
}

/// What the traced slices add.
#[derive(Debug, Default)]
pub struct Traced {
    /// Per-backend totals of the traced slices.
    pub phases: [Phase; 4],
    /// Every recording thread's log.
    pub logs: Vec<ThreadLog>,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Measured {
    /// The run's parameters.
    pub config: Config,
    /// Operations over the whole run, warm-ups included.
    pub tally: Tally,
    /// Internal checks that are not operations, such as traced lock spans
    /// matching counted acquisitions; every entry is a failed check.
    pub broken: Vec<String>,
    /// Objects each backend's workload locks.
    pub objects: usize,
    /// Whether requests run on the VM.
    pub has_vm: bool,
    /// One entry per set-up repetition, in the order they ran.
    pub setups: Vec<SetupTimes>,
    /// Per-backend totals of the untraced slices.
    pub untraced: [Phase; 4],
    /// The reference slices, in a workload that has them.
    pub reference: Option<Reference>,
    /// Per-backend counters.
    pub counters: [Counters; 4],
    /// The traced slices, in a traced run.
    pub traced: Option<Traced>,
}

impl Measured {
    /// True when every operation succeeded and every check held.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.broken.is_empty() && self.tally.attempted > 0
    }

    /// How fast the host ran round `round`, from its reference slice: the
    /// slice's rate over the reference's rate on the reference host. The
    /// last round stands in for set-ups that ran after the slices; 1
    /// without reference slices.
    fn speed(&self, round: usize) -> f64 {
        let Some(r) = &self.reference else {
            return 1.0;
        };
        let slices = &r.phase.slices;
        match slices.get(round.min(slices.len().saturating_sub(1))) {
            Some(slice) if slice.ops_per_s > 0.0 => slice.ops_per_s / r.nominal,
            _ => 1.0,
        }
    }

    /// Backend `b`'s throughput, `ops_per_s`. Without reference slices it
    /// is the lower quartile over the backend's untraced slices of their
    /// rates. With them, each slice's rate is divided by the host's speed
    /// in its round, read from the reference slice of the same round at
    /// most half a second away, and the median is taken. That takes out
    /// how fast the host ran each round.
    pub fn ops_per_s(&self, b: usize) -> f64 {
        let phase = &self.untraced[b];
        if self.reference.is_none() {
            return phase.slice_ops_per_s();
        }
        let mut rates: Vec<f64> = (phase.slices.iter().enumerate())
            .map(|(round, slice)| slice.ops_per_s / self.speed(round))
            .collect();
        median(&mut rates)
    }

    /// Backend `b`'s `latency_p99_us`. Without reference slices it is the
    /// upper quartile over the backend's untraced slices of their 99th
    /// percentile request time. With them, each slice's p99 is multiplied
    /// by the host's speed in its round and the median is taken.
    pub fn p99_us(&self, b: usize) -> f64 {
        let phase = &self.untraced[b];
        if self.reference.is_none() {
            return phase.slice_p99_ns() / 1e3;
        }
        let mut p99s: Vec<f64> = (phase.slices.iter().enumerate())
            .map(|(round, slice)| slice.p99_ns * self.speed(round))
            .collect();
        median(&mut p99s) / 1e3
    }

    /// `setup_s`. Without reference slices it is the upper quartile of the
    /// set-ups' times: a set-up lasts a fraction of a second and catches
    /// the host in one phase, and the upper quartile stays on the slow one
    /// while fast set-ups are fewer than three in four. With them, each
    /// set-up's time is multiplied by the host's speed in its round and
    /// the median is taken.
    pub fn setup_s(&self) -> f64 {
        let mut times: Vec<f64> = (self.setups.iter())
            .map(|s| s.total_s * self.speed(s.round))
            .collect();
        if self.reference.is_none() {
            return quantile(&mut times, 0.75);
        }
        median(&mut times)
    }
}

/// The reference slices of a run: the workload's requests on a lock of
/// the benchmark's own, which no change to the repository's crates moves.
/// The host's speed moves whole runs by tens of percent, and moves the
/// reference with the backends.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The reference slices, one per round.
    pub phase: Phase,
    /// Their median rate on the reference host, acquisitions per second.
    pub nominal: f64,
}

/// One complete set-up: the four backends and what a workload built over
/// them.
pub(crate) struct Set<T> {
    /// The backends, in [`backends::NAMES`] order.
    pub backends: Vec<Backend>,
    /// Per backend, the objects the workload locks.
    pub objects: Vec<Vec<ObjRef>>,
    /// Per backend, one registration per calling thread.
    pub regs: Vec<Vec<Registration>>,
    /// The workload's own part, such as the VM program.
    pub extra: T,
}

impl<T> Set<T> {
    /// Calling thread `tid`'s token on backend `b`.
    pub fn token(&self, b: usize, tid: usize) -> ThreadToken {
        self.regs[b][tid].token()
    }
}

/// A workload, as [`measure`] runs it: what a set-up builds, how it warms
/// up, and what its timed slices run.
pub(crate) trait Bench {
    /// What a set-up builds besides the backends, objects and
    /// registrations.
    type Extra;
    /// Objects in each backend's heap.
    const HEAP_OBJECTS: usize;
    /// Instance fields per object.
    const FIELDS: usize;
    /// The workload locks every `STRIDE`-th object of the heap.
    const STRIDE: usize = 1;
    /// Calling threads, each registered with every backend.
    const THREADS: usize = 1;
    /// Whether requests run on the VM.
    const HAS_VM: bool = false;
    /// Set when the rounds add a reference kind of slice, which runs the
    /// workload's requests on a lock of the benchmark's own: the rate, in
    /// acquisitions per second, the reference slices reach on the
    /// reference host. Throughput is then scaled by it over the rate they
    /// reached in the same round (see [`Measured::ops_per_s`]).
    const REFERENCE_OPS_PER_S: Option<f64> = None;

    /// Builds the workload's own part of a set-up; timed as
    /// `setup.program_ms`.
    fn extra(&self) -> Self::Extra;

    /// Warms backend `b` of `set` up with a fixed count of requests, the
    /// `rep`-th set-up's, counting their operations in `tally`.
    fn warm_up(&self, set: &Set<Self::Extra>, b: usize, rep: usize, tally: &mut Tally);

    /// Counts in `tally` what `set` shows wrong after its last use, such
    /// as lost guarded updates; nothing by default.
    fn check(&self, _set: &Set<Self::Extra>, _tally: &mut Tally) {}

    /// Runs the timed slices on `set` through [`Slices::run`]. Traced kinds
    /// call through `recorders`, one per backend in a traced run. Returns
    /// the span logs of any threads it started.
    fn timed(
        &self,
        set: &Set<Self::Extra>,
        recorders: &[SpanRecorder],
        slices: &mut Slices<'_>,
    ) -> Vec<ThreadLog>;
}

/// Builds, times and warms up one complete set-up.
fn setup<B: Bench>(bench: &B, rep: usize, tally: &mut Tally) -> (Set<B::Extra>, SetupTimes) {
    let start = Instant::now();
    let mut times = SetupTimes::default();
    let mut backends = Vec::with_capacity(4);
    let mut objects = Vec::with_capacity(4);
    let mut regs = Vec::with_capacity(4);
    for (b, build_ms) in times.build_ms.iter_mut().enumerate() {
        let begin = Instant::now();
        let backend = backends::build(b, B::HEAP_OBJECTS, B::FIELDS);
        let all: Vec<ObjRef> = (0..B::HEAP_OBJECTS)
            .map(|_| backend.heap().alloc().expect("the heap holds every object"))
            .collect();
        objects.push(all.into_iter().step_by(B::STRIDE).collect());
        regs.push(
            (0..B::THREADS)
                .map(|_| {
                    backend
                        .registry()
                        .register()
                        .expect("a fresh registry has room")
                })
                .collect(),
        );
        backends.push(backend);
        *build_ms = ms(begin.elapsed());
    }
    let begin = Instant::now();
    let extra = bench.extra();
    times.program_ms = ms(begin.elapsed());
    let set = Set {
        backends,
        objects,
        regs,
        extra,
    };
    for (b, warmup_ms) in times.warmup_ms.iter_mut().enumerate() {
        let begin = Instant::now();
        bench.warm_up(&set, b, rep, tally);
        *warmup_ms = ms(begin.elapsed());
    }
    times.total_s = start.elapsed().as_secs_f64();
    (set, times)
}

/// A set-up that runs only to be timed: built, warmed up, checked and
/// dropped.
fn spare_setup<B: Bench>(bench: &B, rep: usize, tally: &mut Tally) -> SetupTimes {
    let (set, times) = setup(bench, rep, tally);
    bench.check(&set, tally);
    times
}

/// The timed part of a run: rounds of slices, one per kind, until the
/// run's time is up, with a hook between rounds.
pub(crate) struct Slices<'a> {
    duration: Duration,
    /// Per kind: backends `0..4` untraced, then in a traced run `4..8`
    /// through their recorders, then the reference kind if the workload
    /// has one.
    phases: Vec<Phase>,
    /// The reference kind, if any.
    reference: Option<usize>,
    /// Operations of the reference slices, which are not the backends'.
    reference_tally: Tally,
    /// Per backend, an object and token the recorder calibrates on.
    calibrate_on: Vec<(ObjRef, ThreadToken)>,
    recorders: &'a [SpanRecorder],
    tally: Tally,
    between_rounds: &'a mut dyn FnMut(Duration),
}

impl Slices<'_> {
    /// Kinds of slice: four, or eight in a traced run, plus the reference
    /// kind if the workload has one.
    pub fn kinds(&self) -> usize {
        self.phases.len()
    }

    /// The reference kind, if the workload has one: its slices run the
    /// workload's requests on a lock of the benchmark's own.
    pub fn reference_kind(&self) -> Option<usize> {
        self.reference
    }

    /// Runs whole rounds of slices, one of each kind, until the run's
    /// time has passed; each round starts one kind later than the one
    /// before. `slice(kind, deadline, times, tally)` runs requests of that
    /// kind until `deadline`, records their times in `times` and counts
    /// their operations in `tally`; the operations that succeeded are the
    /// slice's acquisitions. A traced slice starts by calibrating its
    /// recorder, untimed, so the cost of an empty span is measured in the
    /// same phase of the host as the spans it is subtracted from. The
    /// reference kind's operations are counted apart from the backends'.
    pub fn run(&mut self, mut slice: impl FnMut(usize, Instant, &mut Histogram, &mut Tally)) {
        let kinds = self.kinds();
        let mut times = Histogram::default();
        let start = Instant::now();
        let mut round = 0;
        while start.elapsed() < self.duration {
            for i in 0..kinds {
                let kind = (round + i) % kinds;
                let reference = self.reference == Some(kind);
                if kind >= 4 && !reference {
                    let (obj, me) = self.calibrate_on[kind % 4];
                    self.recorders[kind % 4].calibrate(obj, me);
                }
                let tally = if reference {
                    &mut self.reference_tally
                } else {
                    &mut self.tally
                };
                let succeeded = tally.succeeded();
                let begin = Instant::now();
                slice(kind, begin + SLICE, &mut times, tally);
                let wall = ns(begin.elapsed());
                let acquisitions = tally.succeeded() - succeeded;
                self.phases[kind].add_slice(acquisitions, wall, &mut times);
            }
            round += 1;
            (self.between_rounds)(start.elapsed());
        }
    }
}

/// Runs one workload: [`SETUP_REPS`] complete set-ups, the first of which
/// runs the timed slices while the others are spread between their
/// rounds, then the checks. Backend counters are read around the timed
/// slices.
pub(crate) fn measure<B: Bench>(bench: &B, config: Config) -> Measured {
    let mut tally = Tally::default();
    let (set, first) = setup(bench, 0, &mut tally);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    setups.push(first);
    let recorders = spans::recorders(&set.backends, config.trace);
    let before: Vec<(u64, u64)> = set
        .backends
        .iter()
        .map(|b| (b.inflation_count(), b.deflation_count()))
        .collect();

    let backend_kinds = if config.trace { 8 } else { 4 };
    let reference_kind = B::REFERENCE_OPS_PER_S.map(|_| backend_kinds);
    let kinds = backend_kinds + usize::from(reference_kind.is_some());
    let mut spare_tally = Tally::default();
    let mut rounds = 0;
    let (phases, timed_tally, reference_tally, logs) = {
        let mut between_rounds = |elapsed: Duration| {
            rounds += 1;
            let due = config
                .duration
                .mul_f64(setups.len() as f64 / SETUP_REPS as f64);
            if setups.len() < SETUP_REPS && elapsed >= due {
                let mut times = spare_setup(bench, setups.len(), &mut spare_tally);
                times.round = rounds - 1;
                setups.push(times);
            }
        };
        let mut slices = Slices {
            duration: config.duration,
            phases: vec![Phase::default(); kinds],
            calibrate_on: (0..4)
                .map(|b| (set.objects[b][0], set.token(b, 0)))
                .collect(),
            recorders: &recorders,
            reference: reference_kind,
            reference_tally: Tally::default(),
            tally: Tally::default(),
            between_rounds: &mut between_rounds,
        };
        let mut logs = bench.timed(&set, &recorders, &mut slices);
        if config.trace {
            logs.push(spans::take_thread_log());
        }
        (slices.phases, slices.tally, slices.reference_tally, logs)
    };
    let counters = std::array::from_fn(|b| {
        let backend = &set.backends[b];
        Counters {
            inflations: backend.inflation_count() - before[b].0,
            deflations: backend.deflation_count() - before[b].1,
            monitors_peak: backend.monitors_peak(),
            inflations_total: backend.inflation_count(),
        }
    });
    tally.merge(timed_tally);
    bench.check(&set, &mut tally);
    // Short runs end before every spread set-up was due.
    while setups.len() < SETUP_REPS {
        let mut times = spare_setup(bench, setups.len(), &mut spare_tally);
        times.round = rounds.saturating_sub(1);
        setups.push(times);
    }
    tally.merge(spare_tally);

    let mut broken = Vec::new();
    if reference_tally.failed > 0 {
        broken.push(format!(
            "reference slices: {} of {} operations failed",
            reference_tally.failed, reference_tally.attempted
        ));
    }
    let traced = config.trace.then(|| {
        for (b, name) in backends::NAMES.iter().enumerate() {
            let locks: u64 = logs.iter().map(|l| l.sums[b].locks()).sum();
            let acquisitions = phases[4 + b].acquisitions;
            if locks != acquisitions {
                broken.push(format!(
                    "{name}: {locks} lock spans for {acquisitions} acquisitions"
                ));
            }
        }
        Traced {
            phases: std::array::from_fn(|b| phases[4 + b].clone()),
            logs,
        }
    });
    Measured {
        config,
        tally,
        broken,
        objects: set.objects[0].len(),
        has_vm: B::HAS_VM,
        setups,
        untraced: std::array::from_fn(|b| phases[b].clone()),
        reference: B::REFERENCE_OPS_PER_S.map(|nominal| Reference {
            phase: phases[backend_kinds].clone(),
            nominal,
        }),
        counters,
        traced,
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nanoseconds in `d`.
pub fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// The `q` quantile of `values`, interpolated between the two nearest
/// ranks; 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = q * (values.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (rank - lo as f64)
}

/// Median of `values`, 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}
