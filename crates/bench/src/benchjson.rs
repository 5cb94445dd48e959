//! Machine-readable benchmark telemetry: the `BENCH_thinlock.json` schema.
//!
//! Every figure and table the `reproduce` binary regenerates is also
//! recorded as a [`BenchRecord`] — a stable string id, the headline
//! value, and (for timed benchmarks) a [`Summary`] with median, MAD and
//! a bootstrap confidence interval computed with the in-repo PRNG.
//! A [`BenchReport`] bundles the records with host metadata, the git
//! revision, and the run configuration, and serializes through the
//! dependency-free JSON writer in `thinlock-obs` (read back by
//! `thinlock_obs::parse`). The `benchgate` binary diffs two reports and
//! fails on regressions; BENCHMARKS.md documents the schema and the
//! gating rules in prose.
//!
//! Ids are hierarchical and stable across runs — `fig4/Sync/ThinLock`,
//! `fig5/javac/speedup_thin`, `ablations/phased/thin_private_ns` — so a
//! committed baseline from one revision can be compared field-by-field
//! against a fresh run from another.

use std::fmt;
use std::time::{SystemTime, UNIX_EPOCH};

use thinlock_obs::parse::{self, JsonValue};
use thinlock_obs::JsonWriter;
use thinlock_runtime::prng::Prng;

/// Version stamped into every report; `benchgate` refuses to compare
/// reports with different versions.
pub const SCHEMA_VERSION: u64 = 1;

/// Bootstrap resamples used for the confidence interval.
pub const BOOTSTRAP_RESAMPLES: usize = 400;

/// How `benchgate` treats a record's value when diffing two reports.
///
/// The class picks the noise tolerance (documented in BENCHMARKS.md);
/// the [`Direction`] picks which side of the tolerance is a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateClass {
    /// Nanosecond-scale micro-benchmark (Figure 4 / Figure 6 cells):
    /// noisy on a shared host, gated with the widest relative tolerance.
    Micro,
    /// Macro replay / multi-threaded wall time (Figure 5, Threads sweep,
    /// ablation phases): microsecond-to-millisecond scale.
    Macro,
    /// A dimensionless ratio derived from two measurements (speedups).
    Ratio,
    /// Deterministic output of a seeded computation (trace
    /// characterization, analyzer counts): must match the baseline
    /// exactly, any difference is a behaviour change, not noise.
    Exact,
}

impl GateClass {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            GateClass::Micro => "micro",
            GateClass::Macro => "macro",
            GateClass::Ratio => "ratio",
            GateClass::Exact => "exact",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        match name {
            "micro" => Some(GateClass::Micro),
            "macro" => Some(GateClass::Macro),
            "ratio" => Some(GateClass::Ratio),
            "exact" => Some(GateClass::Exact),
            _ => None,
        }
    }
}

impl fmt::Display for GateClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which way "better" points for a record's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Times: an increase beyond tolerance is a regression.
    LowerIsBetter,
    /// Speedups: a decrease beyond tolerance is a regression.
    HigherIsBetter,
    /// Recorded for trend visibility but never gated (e.g. the §3.4
    /// measured/predicted ratio, whose ideal is 1.0 from either side).
    Informational,
}

impl Direction {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Direction::LowerIsBetter => "lower",
            Direction::HigherIsBetter => "higher",
            Direction::Informational => "info",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        match name {
            "lower" => Some(Direction::LowerIsBetter),
            "higher" => Some(Direction::HigherIsBetter),
            "info" => Some(Direction::Informational),
            _ => None,
        }
    }
}

/// Robust statistics over one benchmark's repetition samples.
///
/// # Example
///
/// ```
/// use thinlock_bench::benchjson::summarize;
///
/// let s = summarize(&[30.0, 31.0, 33.0, 32.0, 90.0], 42);
/// assert_eq!(s.median, 32.0);           // the outlier does not move it
/// assert_eq!(s.mad, 1.0);               // median |x - 32|
/// assert!(s.ci_lo <= s.median && s.median <= s.ci_hi);
/// assert_eq!(s.samples, 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// Median absolute deviation — a robust spread estimate.
    pub mad: f64,
    /// Lower bound of the 95% bootstrap confidence interval of the median.
    pub ci_lo: f64,
    /// Upper bound of the 95% bootstrap confidence interval of the median.
    pub ci_hi: f64,
    /// Number of samples summarized.
    pub samples: u64,
}

fn median_of(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Computes [`Summary`] statistics: median, MAD, and a 95% bootstrap
/// confidence interval of the median ([`BOOTSTRAP_RESAMPLES`] resamples
/// drawn with the in-repo xorshift128+ PRNG seeded with `seed`, so the
/// interval is deterministic for a given sample set and seed).
///
/// # Panics
///
/// Panics on an empty sample slice.
pub fn summarize(samples: &[f64], seed: u64) -> Summary {
    assert!(!samples.is_empty(), "summarize needs at least one sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = median_of(&sorted);
    let mut dev: Vec<f64> = sorted.iter().map(|x| (x - median).abs()).collect();
    dev.sort_by(f64::total_cmp);
    let mad = median_of(&dev);

    let mut rng = Prng::seed_from_u64(seed);
    let mut medians = Vec::with_capacity(BOOTSTRAP_RESAMPLES);
    let mut resample = vec![0.0; sorted.len()];
    for _ in 0..BOOTSTRAP_RESAMPLES {
        for slot in resample.iter_mut() {
            *slot = sorted[rng.range_usize(0, sorted.len())];
        }
        resample.sort_by(f64::total_cmp);
        medians.push(median_of(&resample));
    }
    medians.sort_by(f64::total_cmp);
    let lo_idx = (BOOTSTRAP_RESAMPLES as f64 * 0.025) as usize;
    let hi_idx = ((BOOTSTRAP_RESAMPLES as f64 * 0.975) as usize).min(BOOTSTRAP_RESAMPLES - 1);
    Summary {
        median,
        mad,
        ci_lo: medians[lo_idx],
        ci_hi: medians[hi_idx],
        samples: samples.len() as u64,
    }
}

/// Stable FNV-1a hash of a benchmark id — the per-record bootstrap seed,
/// so adding or reordering records never changes another record's CI.
pub fn id_seed(id: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One benchmark measurement in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Stable hierarchical id, e.g. `fig4/Sync/ThinLock`.
    pub id: String,
    /// Top-level grouping (`fig4`, `fig5`, `table1`, `ablations`, …).
    pub group: String,
    /// Protocol or variant measured, when one applies.
    pub protocol: Option<String>,
    /// Unit of `value` (`ns_per_iter`, `ns`, `ratio`, `fraction`, `count`).
    pub unit: String,
    /// Noise-tolerance class used by `benchgate`.
    pub class: GateClass,
    /// Which way "better" points.
    pub direction: Direction,
    /// The headline value (for timed records, the fastest sample — the
    /// estimate the gate compares; see [`BenchRecord::timed`]).
    pub value: f64,
    /// Repetition statistics, when the record came from repeated timing.
    pub summary: Option<Summary>,
}

impl BenchRecord {
    /// A record with no repetition statistics (ratios, counts,
    /// deterministic fractions).
    pub fn scalar(
        id: impl Into<String>,
        group: impl Into<String>,
        protocol: Option<&str>,
        unit: &str,
        class: GateClass,
        direction: Direction,
        value: f64,
    ) -> Self {
        BenchRecord {
            id: id.into(),
            group: group.into(),
            protocol: protocol.map(str::to_string),
            unit: unit.to_string(),
            class,
            direction,
            value,
            summary: None,
        }
    }

    /// A timed record: the value is the *fastest* sample and a
    /// [`Summary`] of the full distribution is attached (bootstrap
    /// seeded from the id, see [`id_seed`]).
    ///
    /// The minimum, not the median, is what `benchgate` compares: on a
    /// shared host, interference windows inflate individual repetitions
    /// by integer factors, which moves the median of a small sample
    /// between otherwise identical runs. Interference only ever adds
    /// time, so for a deterministic workload the fastest repetition is
    /// both the most reproducible statistic and the best estimate of
    /// the true cost. The median/MAD/CI stay available in `summary` for
    /// judging how noisy the run was.
    pub fn timed(
        id: impl Into<String>,
        group: impl Into<String>,
        protocol: Option<&str>,
        unit: &str,
        class: GateClass,
        samples_ns: &[f64],
    ) -> Self {
        let id = id.into();
        let summary = summarize(samples_ns, id_seed(&id));
        let fastest = samples_ns.iter().copied().fold(f64::INFINITY, f64::min);
        BenchRecord {
            id,
            group: group.into(),
            protocol: protocol.map(str::to_string),
            unit: unit.to_string(),
            class,
            direction: Direction::LowerIsBetter,
            value: fastest,
            summary: Some(summary),
        }
    }
}

/// Host metadata stamped into each report so numbers are never compared
/// across machines by accident. The gate names a mismatch (`HOST
/// MISMATCH`) but only enforces config equality, since CI hosts rotate
/// hardware ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostInfo {
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Available parallelism (1 on the reference container).
    pub cpus: u64,
}

impl HostInfo {
    /// Detects the current host.
    pub fn detect() -> Self {
        HostInfo {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
        }
    }
}

/// The complete machine-readable result of one `reproduce --json` run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Wall-clock creation time, milliseconds since the Unix epoch.
    pub created_unix_ms: u64,
    /// `HEAD` commit hash, if the repo metadata was readable.
    pub git_rev: Option<String>,
    /// Host the run executed on.
    pub host: HostInfo,
    /// Micro-benchmark loop iterations the run used.
    pub iters: i64,
    /// Trace scale divisor the run used.
    pub scale: u64,
    /// Every benchmark measured, in emission order.
    pub benchmarks: Vec<BenchRecord>,
}

impl BenchReport {
    /// An empty report for the current host/revision with the given run
    /// configuration.
    pub fn new(iters: i64, scale: u64) -> Self {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            created_unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            git_rev: read_git_head(),
            host: HostInfo::detect(),
            iters,
            scale,
            benchmarks: Vec::new(),
        }
    }

    /// Appends a record.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate id — ids are the join key for `benchgate`,
    /// so two records with the same id would make the diff ambiguous.
    pub fn push(&mut self, record: BenchRecord) {
        assert!(
            self.find(&record.id).is_none(),
            "duplicate benchmark id `{}`",
            record.id
        );
        self.benchmarks.push(record);
    }

    /// Looks up a record by id.
    pub fn find(&self, id: &str) -> Option<&BenchRecord> {
        self.benchmarks.iter().find(|r| r.id == id)
    }

    /// All ids, in emission order.
    pub fn ids(&self) -> Vec<&str> {
        self.benchmarks.iter().map(|r| r.id.as_str()).collect()
    }

    /// Serializes the report as compact JSON.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("schema_version", self.schema_version);
        w.field_u64("created_unix_ms", self.created_unix_ms);
        match &self.git_rev {
            Some(rev) => w.field_str("git_rev", rev),
            None => w.field_null("git_rev"),
        }
        w.begin_named_object("host");
        w.field_str("os", &self.host.os);
        w.field_str("arch", &self.host.arch);
        w.field_u64("cpus", self.host.cpus);
        w.end_object();
        w.begin_named_object("config");
        w.field_f64("iters", self.iters as f64);
        w.field_u64("scale", self.scale);
        w.end_object();
        w.begin_named_array("benchmarks");
        for r in &self.benchmarks {
            w.begin_object();
            w.field_str("id", &r.id);
            w.field_str("group", &r.group);
            match &r.protocol {
                Some(p) => w.field_str("protocol", p),
                None => w.field_null("protocol"),
            }
            w.field_str("unit", &r.unit);
            w.field_str("class", r.class.name());
            w.field_str("direction", r.direction.name());
            w.field_f64("value", r.value);
            match &r.summary {
                Some(s) => {
                    w.begin_named_object("summary");
                    w.field_f64("median", s.median);
                    w.field_f64("mad", s.mad);
                    w.field_f64("ci_lo", s.ci_lo);
                    w.field_f64("ci_hi", s.ci_hi);
                    w.field_u64("samples", s.samples);
                    w.end_object();
                }
                None => w.field_null("summary"),
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Parses a report back from JSON.
    ///
    /// # Errors
    ///
    /// [`SchemaError`] if the document is not valid JSON, is missing a
    /// required field, or declares an unknown schema version.
    pub fn from_json(text: &str) -> Result<Self, SchemaError> {
        let doc = parse::parse(text).map_err(|e| SchemaError(e.to_string()))?;
        let field = |name: &str| {
            doc.get(name)
                .ok_or_else(|| SchemaError(format!("missing field `{name}`")))
        };
        let schema_version = field("schema_version")?
            .as_u64()
            .ok_or_else(|| SchemaError("schema_version must be an integer".into()))?;
        if schema_version != SCHEMA_VERSION {
            return Err(SchemaError(format!(
                "unsupported schema_version {schema_version} (this build reads {SCHEMA_VERSION})"
            )));
        }
        let host = field("host")?;
        let config = field("config")?;
        let num = |v: &JsonValue, what: &str| {
            v.as_f64()
                .ok_or_else(|| SchemaError(format!("{what} must be a number")))
        };
        let benchmarks = field("benchmarks")?
            .as_array()
            .ok_or_else(|| SchemaError("benchmarks must be an array".into()))?
            .iter()
            .map(Self::record_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchReport {
            schema_version,
            created_unix_ms: field("created_unix_ms")?
                .as_u64()
                .ok_or_else(|| SchemaError("created_unix_ms must be an integer".into()))?,
            git_rev: field("git_rev")?.as_str().map(str::to_string),
            host: HostInfo {
                os: host
                    .get("os")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                arch: host
                    .get("arch")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                cpus: host.get("cpus").and_then(JsonValue::as_u64).unwrap_or(1),
            },
            iters: num(
                config
                    .get("iters")
                    .ok_or_else(|| SchemaError("missing config.iters".into()))?,
                "config.iters",
            )? as i64,
            scale: config
                .get("scale")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| SchemaError("missing config.scale".into()))?,
            benchmarks,
        })
    }

    fn record_from_json(r: &JsonValue) -> Result<BenchRecord, SchemaError> {
        let s = |name: &str| {
            r.get(name)
                .and_then(JsonValue::as_str)
                .ok_or_else(|| SchemaError(format!("record missing string `{name}`")))
        };
        let id = s("id")?.to_string();
        let summary = match r.get("summary") {
            None | Some(JsonValue::Null) => None,
            Some(sv) => {
                let f = |name: &str| {
                    sv.get(name)
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| SchemaError(format!("summary missing `{name}` in `{id}`")))
                };
                Some(Summary {
                    median: f("median")?,
                    mad: f("mad")?,
                    ci_lo: f("ci_lo")?,
                    ci_hi: f("ci_hi")?,
                    samples: sv
                        .get("samples")
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| SchemaError(format!("summary missing samples in `{id}`")))?,
                })
            }
        };
        Ok(BenchRecord {
            group: s("group")?.to_string(),
            protocol: r
                .get("protocol")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
            unit: s("unit")?.to_string(),
            class: GateClass::from_name(s("class")?)
                .ok_or_else(|| SchemaError(format!("unknown class in `{id}`")))?,
            direction: Direction::from_name(s("direction")?)
                .ok_or_else(|| SchemaError(format!("unknown direction in `{id}`")))?,
            value: r
                .get("value")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| SchemaError(format!("record `{id}` missing numeric value")))?,
            summary,
            id,
        })
    }
}

/// A report failed schema validation (bad JSON, missing field, wrong
/// version).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError(pub String);

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bench schema error: {}", self.0)
    }
}

impl std::error::Error for SchemaError {}

/// Best-effort `HEAD` commit hash read straight from `.git` (no
/// subprocess: the workspace runs fully offline and sandboxed). Walks up
/// from the current directory to find the repo root; resolves one level
/// of `ref:` indirection including packed refs.
fn read_git_head() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
            let head = head.trim();
            if let Some(refname) = head.strip_prefix("ref: ") {
                if let Ok(hash) = std::fs::read_to_string(git.join(refname)) {
                    return Some(hash.trim().to_string());
                }
                // Fall back to packed-refs.
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                return packed.lines().find_map(|line| {
                    line.strip_suffix(refname)
                        .map(|hash| hash.trim().to_string())
                });
            }
            return Some(head.to_string());
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_basics() {
        let s = summarize(&[1.0], 7);
        assert_eq!(s.median, 1.0);
        assert_eq!(s.mad, 0.0);
        assert_eq!((s.ci_lo, s.ci_hi), (1.0, 1.0));
        assert_eq!(s.samples, 1);

        let s = summarize(&[4.0, 2.0, 8.0, 6.0], 7);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.mad, 2.0);
        assert!(s.ci_lo >= 2.0 && s.ci_hi <= 8.0);
    }

    #[test]
    fn bootstrap_is_deterministic_per_seed() {
        let samples = [30.0, 31.0, 29.5, 33.0, 30.5];
        let a = summarize(&samples, 1);
        let b = summarize(&samples, 1);
        assert_eq!(a, b);
        let c = summarize(&samples, 2);
        // Different seed, same data: median and MAD identical, CI may move.
        assert_eq!(a.median, c.median);
        assert_eq!(a.mad, c.mad);
    }

    #[test]
    fn ci_brackets_median_and_narrows_with_agreement() {
        let tight = summarize(&[10.0, 10.0, 10.0, 10.0, 10.0], 3);
        assert_eq!((tight.ci_lo, tight.ci_hi), (10.0, 10.0));
        let wide = summarize(&[5.0, 8.0, 10.0, 14.0, 30.0], 3);
        assert!(wide.ci_lo <= wide.median && wide.median <= wide.ci_hi);
        assert!(wide.ci_hi - wide.ci_lo > 0.0);
    }

    #[test]
    fn id_seed_is_stable_and_distinguishes() {
        assert_eq!(id_seed("fig4/Sync/ThinLock"), id_seed("fig4/Sync/ThinLock"));
        assert_ne!(id_seed("fig4/Sync/ThinLock"), id_seed("fig4/Sync/JDK111"));
    }

    #[test]
    fn push_rejects_duplicate_ids() {
        let mut report = BenchReport::new(100, 1000);
        report.push(BenchRecord::scalar(
            "a/b",
            "a",
            None,
            "count",
            GateClass::Exact,
            Direction::Informational,
            1.0,
        ));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            report.push(BenchRecord::scalar(
                "a/b",
                "a",
                None,
                "count",
                GateClass::Exact,
                Direction::Informational,
                2.0,
            ));
        }));
        assert!(result.is_err(), "duplicate id must panic");
    }

    #[test]
    fn git_rev_resolves_in_this_repo() {
        // The workspace is a git repo; HEAD must resolve to a hex hash.
        let report = BenchReport::new(1, 1);
        if let Some(rev) = &report.git_rev {
            assert!(rev.len() >= 7, "rev too short: {rev}");
            assert!(rev.chars().all(|c| c.is_ascii_hexdigit()));
        }
    }
}
