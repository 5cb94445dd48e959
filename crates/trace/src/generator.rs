//! Synthetic lock-trace generation from a Table 1 profile.
//!
//! A trace is a single-threaded sequence of allocation and balanced
//! lock/unlock operations whose distributional properties match the
//! profile it was generated from:
//!
//! * the ratio of sync operations to synchronized objects;
//! * the ratio of synchronized objects to all allocated objects;
//! * the Figure 3 nesting-depth mix, via *bursts*: each synchronized
//!   region is `lock^d … unlock^d` with `P(d ≥ k) = f_k / f_1`, which
//!   makes the fraction of lock operations at depth `k` exactly `f_k`;
//! * a Zipf-like concentration of operations on hot objects, reproducing
//!   the paper's observation that a few objects (e.g. one `Vector` inside
//!   `javalex`) absorb most synchronization.

use std::fmt;

use thinlock_runtime::prng::Prng;

use crate::table1::BenchmarkProfile;

/// One event of a lock trace. Object ids index the trace's allocation
/// order: id `k` refers to the `k`-th `Alloc` in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceOp {
    /// Allocate the next object.
    Alloc,
    /// Acquire the monitor of an object.
    Lock(u32),
    /// Release the monitor of an object.
    Unlock(u32),
    /// Perform this many units of non-locking application work.
    ///
    /// The paper's macro-benchmarks measure *whole-program* time, in which
    /// locking is only a fraction; replaying bare lock/unlock sequences
    /// would overstate every speedup by 5-10x. Work operations restore the
    /// surrounding computation: a fixed amount per synchronization (the
    /// body of the synchronized region) plus an amount per allocation
    /// (construction and eventual collection), so each benchmark's
    /// lock-time fraction follows its Table 1 sync density.
    Work(u32),
}

/// Scaling knobs for trace generation.
///
/// Paper workloads perform up to ~20 million synchronizations; replaying
/// that per benchmark per protocol would dominate benchmark time, so the
/// default scales counts down by 1000 while preserving every ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Divide the profile's absolute counts by this factor.
    pub scale: u64,
    /// RNG seed: same profile + same config = bit-identical trace.
    pub seed: u64,
    /// Hard cap on allocated objects after scaling.
    pub max_objects: u32,
    /// Hard cap on lock operations after scaling.
    pub max_lock_ops: u64,
    /// Zipf skew exponent for object popularity (0 = uniform).
    pub skew: f64,
    /// Units of synthetic application work per lock operation (the body of
    /// the synchronized region and the code around it).
    pub work_per_sync: u32,
    /// Units of synthetic application work per allocation (object
    /// construction and amortized collection).
    pub work_per_alloc: u32,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            scale: 1000,
            seed: 0x7e57_ab1e,
            max_objects: 100_000,
            max_lock_ops: 2_000_000,
            skew: 0.8,
            work_per_sync: DEFAULT_WORK_PER_SYNC,
            work_per_alloc: DEFAULT_WORK_PER_ALLOC,
        }
    }
}

/// Default work units accompanying each lock operation. One unit is one
/// iteration of [`crate::replay::spin_work`]'s arithmetic loop (on the
/// order of a nanosecond); the default is calibrated once, globally, so
/// that locking is a realistic minority of replay time — per-benchmark
/// differences then emerge from Table 1's own sync densities, not from
/// tuning. See EXPERIMENTS.md (Figure 5).
pub const DEFAULT_WORK_PER_SYNC: u32 = 100;

/// Default work units accompanying each allocation. See
/// [`DEFAULT_WORK_PER_SYNC`].
pub const DEFAULT_WORK_PER_ALLOC: u32 = 800;

/// A generated single-threaded lock trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockTrace {
    name: String,
    ops: Vec<TraceOp>,
    total_objects: u32,
    sync_objects: u32,
    lock_ops: u64,
}

impl LockTrace {
    /// The profile name this trace was generated from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The event sequence.
    pub fn ops(&self) -> &[TraceOp] {
        &self.ops
    }

    /// Objects allocated by the trace (sync + non-sync).
    pub fn total_objects(&self) -> u32 {
        self.total_objects
    }

    /// Objects that are ever locked.
    pub fn sync_objects(&self) -> u32 {
        self.sync_objects
    }

    /// Total lock operations (equals unlock operations).
    pub fn lock_ops(&self) -> u64 {
        self.lock_ops
    }

    /// Heap capacity a replay needs.
    pub fn required_heap_capacity(&self) -> usize {
        self.total_objects as usize
    }

    /// Checks well-formedness: every `Lock`/`Unlock` references an already
    /// allocated object, lock/unlock are balanced per object and properly
    /// nested (LIFO), and the trace ends with all monitors released.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut allocated: u32 = 0;
        let mut depth: Vec<u32> = Vec::new();
        let mut hold_stack: Vec<u32> = Vec::new();
        for (i, op) in self.ops.iter().enumerate() {
            match *op {
                TraceOp::Alloc => {
                    allocated += 1;
                    depth.push(0);
                }
                TraceOp::Work(_) => {}
                TraceOp::Lock(o) => {
                    if o >= allocated {
                        return Err(format!("op {i}: lock of unallocated object {o}"));
                    }
                    depth[o as usize] += 1;
                    hold_stack.push(o);
                }
                TraceOp::Unlock(o) => {
                    if o >= allocated {
                        return Err(format!("op {i}: unlock of unallocated object {o}"));
                    }
                    match hold_stack.pop() {
                        Some(top) if top == o => {}
                        _ => return Err(format!("op {i}: unlock of {o} is not LIFO")),
                    }
                    if depth[o as usize] == 0 {
                        return Err(format!("op {i}: unlock of unlocked object {o}"));
                    }
                    depth[o as usize] -= 1;
                }
            }
        }
        if allocated != self.total_objects {
            return Err(format!(
                "alloc count {allocated} != declared {}",
                self.total_objects
            ));
        }
        if let Some(o) = depth.iter().position(|&d| d > 0) {
            return Err(format!("object {o} still locked at end of trace"));
        }
        Ok(())
    }
}

impl fmt::Display for LockTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace {}: {} objects ({} synced), {} lock ops, {} events",
            self.name,
            self.total_objects,
            self.sync_objects,
            self.lock_ops,
            self.ops.len()
        )
    }
}

/// Cumulative Zipf-like weights over `n` items with exponent `skew`.
fn zipf_cumulative(n: u32, skew: f64) -> Vec<f64> {
    let mut cum = Vec::with_capacity(n as usize);
    let mut total = 0.0;
    for i in 0..n {
        total += 1.0 / ((i + 1) as f64).powf(skew);
        cum.push(total);
    }
    cum
}

/// Samples an index from a cumulative weight vector.
fn sample_cumulative(cum: &[f64], rng: &mut Prng) -> usize {
    let total = *cum.last().expect("non-empty weights");
    let x = rng.range_f64(total);
    cum.partition_point(|&c| c <= x).min(cum.len() - 1)
}

/// Samples a burst depth `d ∈ 1..=4` with `P(d ≥ k) = f_k / f_1`.
pub(crate) fn sample_depth(fractions: &[f64; 4], rng: &mut Prng) -> u32 {
    let f1 = fractions[0].max(f64::MIN_POSITIVE);
    let x: f64 = rng.next_f64();
    // d >= k  iff  x < f_k / f_1; find the deepest k satisfied.
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

/// Generates a synthetic lock trace matching `profile` at the scale given
/// by `config`. Deterministic in `(profile, config)`.
///
/// # Example
///
/// ```
/// use thinlock_trace::{generator, table1::BenchmarkProfile};
///
/// let profile = BenchmarkProfile::by_name("javac").unwrap();
/// let trace = generator::generate(profile, &generator::quick_config());
/// assert!(trace.validate().is_ok());
/// assert!(trace.lock_ops() > 0);
/// ```
pub fn generate(profile: &BenchmarkProfile, config: &TraceConfig) -> LockTrace {
    let mut rng = Prng::seed_from_u64(config.seed ^ hash_name(profile.name));

    let scale = config.scale.max(1);
    let sync_objects =
        ((profile.synchronized_objects / scale).max(1) as u32).min(config.max_objects.max(1));
    let total_objects = ((profile.objects_created / scale).max(u64::from(sync_objects)) as u32)
        .min(config.max_objects.max(sync_objects));
    let target_lock_ops = (profile.sync_operations / scale)
        .max(u64::from(sync_objects))
        .min(config.max_lock_ops.max(1));

    // Spread synchronized objects evenly through allocation order so that
    // allocation and synchronization interleave as in a real run.
    let stride = (total_objects / sync_objects).max(1);
    let sync_ids: Vec<u32> = (0..sync_objects)
        .map(|j| (j * stride).min(total_objects - 1))
        .collect();

    let cum = zipf_cumulative(sync_objects, config.skew);

    let mut ops = Vec::new();
    let mut allocated: u32 = 0;
    let mut lock_ops: u64 = 0;
    let ensure_allocated = |ops: &mut Vec<TraceOp>, allocated: &mut u32, id: u32| {
        while *allocated <= id {
            ops.push(TraceOp::Alloc);
            if config.work_per_alloc > 0 {
                ops.push(TraceOp::Work(config.work_per_alloc));
            }
            *allocated += 1;
        }
    };

    // Touch every synchronized object at least once, in order, so the
    // synchronized-object count is exact.
    for &id in &sync_ids {
        ensure_allocated(&mut ops, &mut allocated, id);
        ops.push(TraceOp::Lock(id));
        if config.work_per_sync > 0 {
            ops.push(TraceOp::Work(config.work_per_sync));
        }
        ops.push(TraceOp::Unlock(id));
        lock_ops += 1;
    }

    // Remaining bursts follow the popularity and depth distributions.
    while lock_ops < target_lock_ops {
        let j = sample_cumulative(&cum, &mut rng);
        let id = sync_ids[j];
        ensure_allocated(&mut ops, &mut allocated, id);
        let d = sample_depth(&profile.depth_fractions, &mut rng)
            .min(u32::try_from(target_lock_ops - lock_ops).unwrap_or(u32::MAX));
        let d = d.max(1);
        for _ in 0..d {
            ops.push(TraceOp::Lock(id));
        }
        if config.work_per_sync > 0 {
            ops.push(TraceOp::Work(config.work_per_sync.saturating_mul(d)));
        }
        for _ in 0..d {
            ops.push(TraceOp::Unlock(id));
        }
        lock_ops += u64::from(d);
    }

    // Allocate the remaining (never-synchronized) objects.
    while allocated < total_objects {
        ops.push(TraceOp::Alloc);
        if config.work_per_alloc > 0 {
            ops.push(TraceOp::Work(config.work_per_alloc));
        }
        allocated += 1;
    }

    LockTrace {
        name: profile.name.to_string(),
        ops,
        total_objects,
        sync_objects,
        lock_ops,
    }
}

/// A small configuration for tests and doc examples: fast to generate and
/// replay while still exercising every distribution.
pub fn quick_config() -> TraceConfig {
    TraceConfig {
        scale: 10_000,
        seed: 42,
        max_objects: 5_000,
        max_lock_ops: 20_000,
        skew: 0.8,
        work_per_sync: 20,
        work_per_alloc: 50,
    }
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a, stable across runs (unlike `DefaultHasher`).
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table1::MACRO_BENCHMARKS;

    #[test]
    fn every_profile_generates_valid_trace() {
        for p in &MACRO_BENCHMARKS {
            let trace = generate(p, &quick_config());
            trace
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert!(trace.lock_ops() > 0);
            assert!(trace.sync_objects() >= 1);
            assert!(trace.total_objects() >= trace.sync_objects());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = &MACRO_BENCHMARKS[0];
        let a = generate(p, &quick_config());
        let b = generate(p, &quick_config());
        assert_eq!(a, b);
        let mut other = quick_config();
        other.seed = 43;
        let c = generate(p, &other);
        assert_ne!(a, c, "different seed, different trace");
    }

    #[test]
    fn scaling_preserves_syncs_per_object_ratio() {
        let p = crate::table1::BenchmarkProfile::by_name("javac").unwrap();
        let cfg = TraceConfig {
            scale: 100,
            ..quick_config()
        };
        let trace = generate(p, &cfg);
        let got = trace.lock_ops() as f64 / f64::from(trace.sync_objects());
        let want = p.syncs_per_object();
        assert!(
            (got - want).abs() / want < 0.25,
            "ratio {got:.1} should approximate table value {want:.1}"
        );
    }

    #[test]
    fn depth_distribution_is_respected() {
        let p = crate::table1::BenchmarkProfile::by_name("mocha").unwrap(); // deepest mix
        let cfg = TraceConfig {
            scale: 1,
            max_lock_ops: 50_000,
            max_objects: 2_000,
            ..quick_config()
        };
        let trace = generate(p, &cfg);
        // Count lock ops by depth.
        let mut depth = vec![0u32; trace.total_objects() as usize];
        let mut hist = [0u64; 4];
        for op in trace.ops() {
            match *op {
                TraceOp::Lock(o) => {
                    depth[o as usize] += 1;
                    let d = depth[o as usize].min(4) as usize;
                    hist[d - 1] += 1;
                }
                TraceOp::Unlock(o) => depth[o as usize] -= 1,
                TraceOp::Alloc | TraceOp::Work(_) => {}
            }
        }
        let total: u64 = hist.iter().sum();
        for (k, (&h, &want)) in hist.iter().zip(&p.depth_fractions).enumerate() {
            let got = h as f64 / total as f64;
            assert!(
                (got - want).abs() < 0.05,
                "depth {} fraction {got:.3} vs target {want:.3}",
                k + 1
            );
        }
    }

    #[test]
    fn hot_objects_dominate_with_skew() {
        let p = crate::table1::BenchmarkProfile::by_name("jacorb").unwrap();
        let cfg = TraceConfig {
            skew: 1.0,
            ..quick_config()
        };
        let trace = generate(p, &cfg);
        let mut counts = std::collections::HashMap::new();
        for op in trace.ops() {
            if let TraceOp::Lock(o) = op {
                *counts.entry(*o).or_insert(0u64) += 1;
            }
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile = freqs.len().div_ceil(10);
        let head: u64 = freqs[..top_decile].iter().sum();
        let total: u64 = freqs.iter().sum();
        assert!(
            head as f64 / total as f64 > 0.3,
            "hottest 10% of objects should take >30% of lock ops"
        );
    }

    #[test]
    fn display_mentions_counts() {
        let p = &MACRO_BENCHMARKS[0];
        let t = generate(p, &quick_config());
        let s = t.to_string();
        assert!(s.contains("trans"));
        assert!(s.contains("lock ops"));
    }

    #[test]
    fn validate_rejects_corrupt_traces() {
        let p = &MACRO_BENCHMARKS[0];
        let good = generate(p, &quick_config());

        let mut missing_alloc = good.clone();
        missing_alloc.ops.insert(0, TraceOp::Lock(9999));
        assert!(missing_alloc.validate().is_err());

        let mut unbalanced = good.clone();
        unbalanced.ops.push(TraceOp::Lock(0));
        assert!(unbalanced.validate().is_err());

        let mut non_lifo = good;
        non_lifo.ops.push(TraceOp::Unlock(0));
        assert!(non_lifo.validate().is_err());
    }
}
