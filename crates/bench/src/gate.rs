//! Regression gating: diff a fresh [`BenchReport`] against a committed
//! baseline and decide pass/fail.
//!
//! The comparison joins the two reports on benchmark id. Each record's
//! [`GateClass`] selects a relative noise tolerance (timed classes) or
//! exact equality (deterministic trace-derived values), and its
//! [`Direction`] decides which side of the tolerance is a regression.
//! Ids present in the baseline but absent from the current run fail the
//! gate — a benchmark silently disappearing is exactly the rot the
//! pipeline exists to catch. New ids in the current run are reported but
//! do not fail (they become gated once the baseline is refreshed).
//!
//! The `benchgate` binary is a thin CLI over [`compare`]; BENCHMARKS.md
//! documents the tolerances and the reasoning behind them.

use std::fmt;

use crate::benchjson::{BenchReport, Direction, GateClass};

/// Relative noise tolerances per [`GateClass`], as fractions of the
/// baseline value.
///
/// The defaults are sized empirically from back-to-back no-change runs
/// on the reference container (one shared vCPU; see BENCHMARKS.md): the
/// host's load varies in phases of tens of seconds, so even min-of-5
/// fresh-instance micro cells were observed to move up to ~±55% between
/// identical runs; contended macro rows (threaded sweeps, spin-policy
/// and concurrent-replay ablations) are schedule-dependent on a single
/// CPU and moved up to ~±62%; ratios move less (the division cancels
/// host-wide effects). Each default sits above its observed worst case
/// while staying below the 2× threshold of the structural regressions
/// the gate exists to catch. [`GateClass::Exact`] records ignore
/// tolerances entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Relative tolerance for [`GateClass::Micro`] records.
    pub micro: f64,
    /// Relative tolerance for [`GateClass::Macro`] records.
    pub macro_rel: f64,
    /// Relative tolerance for [`GateClass::Ratio`] records.
    pub ratio: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            micro: 0.65,
            macro_rel: 0.75,
            ratio: 0.40,
        }
    }
}

impl Tolerances {
    /// The tolerance applied to a record of the given class (`None` for
    /// exact records, which tolerate no drift at all).
    pub fn for_class(&self, class: GateClass) -> Option<f64> {
        match class {
            GateClass::Micro => Some(self.micro),
            GateClass::Macro => Some(self.macro_rel),
            GateClass::Ratio => Some(self.ratio),
            GateClass::Exact => None,
        }
    }
}

/// The gate's judgement of one benchmark id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Delta within tolerance (or an informational timed record, never
    /// gated; exact records are gated whatever their direction).
    Within,
    /// Moved beyond tolerance in the good direction.
    Improved,
    /// Moved beyond tolerance in the bad direction — fails the gate.
    Regressed,
    /// In the baseline but not the current run — fails the gate.
    Missing,
    /// In the current run but not the baseline — reported, not failed.
    New,
}

impl Verdict {
    /// Short label for the delta table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Within => "ok",
            Verdict::Improved => "IMPROVED",
            Verdict::Regressed => "REGRESSED",
            Verdict::Missing => "MISSING",
            Verdict::New => "new",
        }
    }
}

/// One row of the delta table.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRow {
    /// Benchmark id.
    pub id: String,
    /// Gate class of the baseline record (current's class for new ids).
    pub class: GateClass,
    /// Baseline value, if the id exists in the baseline.
    pub baseline: Option<f64>,
    /// Current value, if the id exists in the current run.
    pub current: Option<f64>,
    /// Relative delta `(current - baseline) / |baseline|`, when both
    /// sides exist and the baseline is nonzero.
    pub rel_delta: Option<f64>,
    /// The judgement.
    pub verdict: Verdict,
}

/// Result of comparing two reports.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// One row per benchmark id seen in either report, baseline order
    /// first.
    pub rows: Vec<DeltaRow>,
    /// Set when the two reports were produced with different run
    /// configurations (iters/scale) — timing comparison would be
    /// meaningless, so this alone fails a full gate.
    pub config_mismatch: Option<String>,
    /// Set when the two reports ran on different hosts (os, arch or
    /// cpus). Named in the rendering so a failing timed row can be read
    /// against it, but never fails the gate by itself.
    pub host_mismatch: Option<String>,
    /// True when values were ignored and only id coverage was checked.
    pub ids_only: bool,
}

impl GateOutcome {
    /// Overall pass/fail: no regressions, no missing ids, and (for full
    /// comparisons) matching run configuration.
    pub fn pass(&self) -> bool {
        (self.ids_only || self.config_mismatch.is_none())
            && !self
                .rows
                .iter()
                .any(|r| matches!(r.verdict, Verdict::Regressed | Verdict::Missing))
    }

    /// Number of rows with the given verdict.
    pub fn count(&self, verdict: Verdict) -> usize {
        self.rows.iter().filter(|r| r.verdict == verdict).count()
    }

    /// Renders the human-readable delta table: every failing row, every
    /// improvement, and a one-line summary (within-tolerance rows are
    /// counted, not listed).
    pub fn render(&self) -> String {
        let mut out = String::new();
        use fmt::Write;
        if let Some(msg) = &self.config_mismatch {
            let _ = writeln!(out, "CONFIG MISMATCH: {msg}");
        }
        if let Some(msg) = &self.host_mismatch {
            let _ = writeln!(out, "HOST MISMATCH: {msg}");
        }
        let interesting: Vec<&DeltaRow> = self
            .rows
            .iter()
            .filter(|r| r.verdict != Verdict::Within)
            .collect();
        if !interesting.is_empty() {
            let _ = writeln!(
                out,
                "{:<44} {:<6} {:>12} {:>12} {:>8}  verdict",
                "benchmark", "class", "baseline", "current", "delta"
            );
            for r in interesting {
                let fmt_val = |v: Option<f64>| match v {
                    Some(v) => format!("{v:.3}"),
                    None => "-".to_string(),
                };
                let delta = match r.rel_delta {
                    Some(d) => format!("{:+.1}%", d * 100.0),
                    None => "-".to_string(),
                };
                let _ = writeln!(
                    out,
                    "{:<44} {:<6} {:>12} {:>12} {:>8}  {}",
                    r.id,
                    r.class.name(),
                    fmt_val(r.baseline),
                    fmt_val(r.current),
                    delta,
                    r.verdict.label()
                );
            }
        }
        let _ = writeln!(
            out,
            "{} within tolerance, {} improved, {} regressed, {} missing, {} new -> {}",
            self.count(Verdict::Within),
            self.count(Verdict::Improved),
            self.count(Verdict::Regressed),
            self.count(Verdict::Missing),
            self.count(Verdict::New),
            if self.pass() { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// Compares a current report against a baseline.
///
/// With `ids_only` set, values are ignored and only id coverage is
/// checked — the mode the fast smoke tier in `scripts/check.sh` uses,
/// where iteration counts are too small for timing to mean anything.
///
/// # Example
///
/// ```
/// use thinlock_bench::benchjson::{BenchRecord, BenchReport, Direction, GateClass};
/// use thinlock_bench::gate::{compare, Tolerances, Verdict};
///
/// let mut baseline = BenchReport::new(1000, 100);
/// baseline.push(BenchRecord::scalar(
///     "fig4/Sync/ThinLock", "fig4", Some("ThinLock"), "ns_per_iter",
///     GateClass::Micro, Direction::LowerIsBetter, 33.0,
/// ));
/// let mut current = baseline.clone();
/// current.benchmarks[0].value = 66.0; // a 2x regression
/// let outcome = compare(&baseline, &current, &Tolerances::default(), false);
/// assert!(!outcome.pass());
/// assert_eq!(outcome.rows[0].verdict, Verdict::Regressed);
/// ```
pub fn compare(
    baseline: &BenchReport,
    current: &BenchReport,
    tolerances: &Tolerances,
    ids_only: bool,
) -> GateOutcome {
    let config_mismatch = if baseline.iters != current.iters || baseline.scale != current.scale {
        Some(format!(
            "baseline ran with iters={} scale={}, current with iters={} scale={}",
            baseline.iters, baseline.scale, current.iters, current.scale
        ))
    } else {
        None
    };
    let host = |r: &BenchReport| format!("{}/{} cpus={}", r.host.os, r.host.arch, r.host.cpus);
    let host_mismatch = (baseline.host != current.host).then(|| {
        format!(
            "baseline ran on {}, current on {}",
            host(baseline),
            host(current)
        )
    });

    let mut rows = Vec::new();
    for base in &baseline.benchmarks {
        let row = match current.find(&base.id) {
            None => DeltaRow {
                id: base.id.clone(),
                class: base.class,
                baseline: Some(base.value),
                current: None,
                rel_delta: None,
                verdict: Verdict::Missing,
            },
            Some(cur) => {
                let rel_delta = if base.value.abs() > f64::EPSILON {
                    Some((cur.value - base.value) / base.value.abs())
                } else {
                    None
                };
                let verdict = if ids_only {
                    Verdict::Within
                } else {
                    judge(
                        base.class,
                        base.direction,
                        base.value,
                        cur.value,
                        tolerances,
                    )
                };
                DeltaRow {
                    id: base.id.clone(),
                    class: base.class,
                    baseline: Some(base.value),
                    current: Some(cur.value),
                    rel_delta,
                    verdict,
                }
            }
        };
        rows.push(row);
    }
    for cur in &current.benchmarks {
        if baseline.find(&cur.id).is_none() {
            rows.push(DeltaRow {
                id: cur.id.clone(),
                class: cur.class,
                baseline: None,
                current: Some(cur.value),
                rel_delta: None,
                verdict: Verdict::New,
            });
        }
    }
    GateOutcome {
        rows,
        config_mismatch,
        host_mismatch,
        ids_only,
    }
}

fn judge(
    class: GateClass,
    direction: Direction,
    base: f64,
    cur: f64,
    tolerances: &Tolerances,
) -> Verdict {
    // Exact records: any difference is a behaviour change. Direction does
    // not soften this — an informational or "better" deterministic count
    // still means the workload changed under the gate's feet.
    let Some(tol) = tolerances.for_class(class) else {
        return if base == cur {
            Verdict::Within
        } else {
            Verdict::Regressed
        };
    };
    if direction == Direction::Informational {
        return Verdict::Within;
    }
    if base.abs() <= f64::EPSILON {
        // Zero baseline: relative drift is undefined; only an
        // exactly-zero current value stays within.
        return if cur == base {
            Verdict::Within
        } else if direction == Direction::HigherIsBetter && cur > base {
            Verdict::Improved
        } else {
            Verdict::Regressed
        };
    }
    let rel = (cur - base) / base.abs();
    let (worse, better) = match direction {
        Direction::LowerIsBetter => (rel > tol, rel < -tol),
        Direction::HigherIsBetter => (rel < -tol, rel > tol),
        Direction::Informational => unreachable!("handled above"),
    };
    if worse {
        Verdict::Regressed
    } else if better {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchjson::BenchRecord;

    fn record(id: &str, class: GateClass, direction: Direction, value: f64) -> BenchRecord {
        BenchRecord::scalar(id, "t", None, "ns", class, direction, value)
    }

    fn report(records: Vec<BenchRecord>) -> BenchReport {
        let mut r = BenchReport::new(1000, 100);
        for rec in records {
            r.push(rec);
        }
        r
    }

    #[test]
    fn within_tolerance_passes() {
        let base = report(vec![record(
            "a",
            GateClass::Micro,
            Direction::LowerIsBetter,
            100.0,
        )]);
        let cur = report(vec![record(
            "a",
            GateClass::Micro,
            Direction::LowerIsBetter,
            120.0,
        )]);
        let out = compare(&base, &cur, &Tolerances::default(), false);
        assert!(out.pass());
        assert_eq!(out.rows[0].verdict, Verdict::Within);
    }

    #[test]
    fn two_x_regression_fails() {
        let base = report(vec![record(
            "a",
            GateClass::Micro,
            Direction::LowerIsBetter,
            100.0,
        )]);
        let cur = report(vec![record(
            "a",
            GateClass::Micro,
            Direction::LowerIsBetter,
            200.0,
        )]);
        let out = compare(&base, &cur, &Tolerances::default(), false);
        assert!(!out.pass());
        assert_eq!(out.rows[0].verdict, Verdict::Regressed);
    }

    #[test]
    fn big_speedup_reports_improved() {
        let base = report(vec![record(
            "a",
            GateClass::Macro,
            Direction::LowerIsBetter,
            100.0,
        )]);
        let cur = report(vec![record(
            "a",
            GateClass::Macro,
            Direction::LowerIsBetter,
            20.0,
        )]);
        let out = compare(&base, &cur, &Tolerances::default(), false);
        assert!(out.pass());
        assert_eq!(out.rows[0].verdict, Verdict::Improved);
    }

    #[test]
    fn higher_is_better_flips_direction() {
        let base = report(vec![record(
            "s",
            GateClass::Ratio,
            Direction::HigherIsBetter,
            1.2,
        )]);
        let cur = report(vec![record(
            "s",
            GateClass::Ratio,
            Direction::HigherIsBetter,
            0.5,
        )]);
        let out = compare(&base, &cur, &Tolerances::default(), false);
        assert!(!out.pass());
        assert_eq!(out.rows[0].verdict, Verdict::Regressed);
    }

    #[test]
    fn exact_records_tolerate_nothing() {
        let base = report(vec![record(
            "count",
            GateClass::Exact,
            Direction::LowerIsBetter,
            22.7,
        )]);
        let same = compare(&base, &base.clone(), &Tolerances::default(), false);
        assert!(same.pass());
        let cur = report(vec![record(
            "count",
            GateClass::Exact,
            Direction::LowerIsBetter,
            22.700001,
        )]);
        let out = compare(&base, &cur, &Tolerances::default(), false);
        assert!(!out.pass());
    }

    #[test]
    fn exact_informational_records_are_still_exact() {
        let base = report(vec![record(
            "lockcheck/programs",
            GateClass::Exact,
            Direction::Informational,
            14.0,
        )]);
        assert!(compare(&base, &base.clone(), &Tolerances::default(), false).pass());
        let cur = report(vec![record(
            "lockcheck/programs",
            GateClass::Exact,
            Direction::Informational,
            13.0,
        )]);
        let out = compare(&base, &cur, &Tolerances::default(), false);
        assert!(!out.pass());
        assert_eq!(out.rows[0].verdict, Verdict::Regressed);
        // Coverage-only comparisons still ignore values.
        assert!(compare(&base, &cur, &Tolerances::default(), true).pass());
    }

    #[test]
    fn informational_never_gates() {
        let base = report(vec![record(
            "i",
            GateClass::Ratio,
            Direction::Informational,
            1.0,
        )]);
        let cur = report(vec![record(
            "i",
            GateClass::Ratio,
            Direction::Informational,
            9.0,
        )]);
        let out = compare(&base, &cur, &Tolerances::default(), false);
        assert!(out.pass());
        assert_eq!(out.rows[0].verdict, Verdict::Within);
    }

    #[test]
    fn missing_id_fails_new_id_does_not() {
        let base = report(vec![
            record("a", GateClass::Micro, Direction::LowerIsBetter, 1.0),
            record("b", GateClass::Micro, Direction::LowerIsBetter, 1.0),
        ]);
        let cur = report(vec![
            record("a", GateClass::Micro, Direction::LowerIsBetter, 1.0),
            record("c", GateClass::Micro, Direction::LowerIsBetter, 1.0),
        ]);
        let out = compare(&base, &cur, &Tolerances::default(), false);
        assert!(!out.pass());
        assert_eq!(out.count(Verdict::Missing), 1);
        assert_eq!(out.count(Verdict::New), 1);

        let cur_superset = report(vec![
            record("a", GateClass::Micro, Direction::LowerIsBetter, 1.0),
            record("b", GateClass::Micro, Direction::LowerIsBetter, 1.0),
            record("c", GateClass::Micro, Direction::LowerIsBetter, 1.0),
        ]);
        assert!(compare(&base, &cur_superset, &Tolerances::default(), false).pass());
    }

    #[test]
    fn config_mismatch_fails_full_but_not_ids_only() {
        let base = report(vec![record(
            "a",
            GateClass::Micro,
            Direction::LowerIsBetter,
            1.0,
        )]);
        let mut cur = base.clone();
        cur.iters = 5;
        let full = compare(&base, &cur, &Tolerances::default(), false);
        assert!(!full.pass());
        assert!(full.config_mismatch.is_some());
        let ids = compare(&base, &cur, &Tolerances::default(), true);
        assert!(ids.pass(), "ids-only ignores config and values");
    }

    #[test]
    fn ids_only_ignores_huge_regressions() {
        let base = report(vec![record(
            "a",
            GateClass::Micro,
            Direction::LowerIsBetter,
            10.0,
        )]);
        let cur = report(vec![record(
            "a",
            GateClass::Micro,
            Direction::LowerIsBetter,
            1_000.0,
        )]);
        assert!(compare(&base, &cur, &Tolerances::default(), true).pass());
    }

    #[test]
    fn render_mentions_failures_and_summary() {
        let base = report(vec![
            record("a", GateClass::Micro, Direction::LowerIsBetter, 100.0),
            record("gone", GateClass::Micro, Direction::LowerIsBetter, 1.0),
        ]);
        let cur = report(vec![record(
            "a",
            GateClass::Micro,
            Direction::LowerIsBetter,
            300.0,
        )]);
        let out = compare(&base, &cur, &Tolerances::default(), false);
        let text = out.render();
        assert!(text.contains("REGRESSED"));
        assert!(text.contains("MISSING"));
        assert!(text.contains("FAIL"));
    }

    #[test]
    fn host_mismatch_is_named_but_does_not_fail() {
        let base = report(vec![record(
            "a",
            GateClass::Micro,
            Direction::LowerIsBetter,
            100.0,
        )]);
        let same = compare(&base, &base, &Tolerances::default(), false);
        assert!(same.pass());
        assert!(!same.render().contains("HOST MISMATCH"));

        let mut cur = base.clone();
        cur.host.cpus = base.host.cpus + 1;
        let out = compare(&base, &cur, &Tolerances::default(), false);
        assert!(out.pass(), "a host difference alone passes");
        let text = out.render();
        assert!(text.contains("HOST MISMATCH"), "{text}");
        assert!(
            text.contains(&format!("cpus={}", base.host.cpus + 1)),
            "{text}"
        );
    }
}
