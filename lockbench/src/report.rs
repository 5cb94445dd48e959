//! Turns one run's measurements into the named metrics of
//! `BENCHMARK.json` and the result line the benchmark prints last.

use std::fmt::Write as _;

use crate::backends::{lock_bytes, NAMES};
use crate::run::{median, Measured};
use crate::spans::{Class, Sums};

/// One named reading.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reading.
    pub value: f64,
}

fn push(out: &mut Vec<Metric>, name: String, unit: &'static str, value: f64) {
    out.push(Metric { name, unit, value });
}

fn per_backend(
    out: &mut Vec<Metric>,
    name: &str,
    unit: &'static str,
    value: impl Fn(usize) -> f64,
) {
    for (b, backend) in NAMES.iter().enumerate() {
        push(out, format!("{name}.{backend}"), unit, value(b));
    }
}

/// The end-to-end metrics, from the untraced slices.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let mut out = Vec::new();
    per_backend(&mut out, "ops_per_s", "1/s", |b| m.ops_per_s(b));
    per_backend(&mut out, "latency_p99_us", "us", |b| m.p99_us(b));
    per_backend(&mut out, "lock_bytes_peak", "B", |b| {
        lock_bytes(m.objects, m.counters[b].monitors_peak) as f64
    });
    push(&mut out, "setup_s".into(), "s", m.setup_s());
    push(
        &mut out,
        "ok_ops_frac".into(),
        "fraction",
        m.tally.ok_frac(),
    );
    out
}

/// Jain's fairness index of `xs`: 1 when all are equal, 1/n when one
/// thread made every acquisition; 0 when there are none.
pub fn jain(xs: &[u64]) -> f64 {
    let sum: f64 = xs.iter().map(|&x| x as f64).sum();
    let squares: f64 = xs.iter().map(|&x| (x as f64).powi(2)).sum();
    if squares == 0.0 {
        0.0
    } else {
        sum * sum / (xs.len() as f64 * squares)
    }
}

/// The per-layer metrics, from the traced slices; every metric reads 0
/// in a run without them.
pub fn per_layer(m: &Measured) -> Vec<Metric> {
    let empty = Default::default();
    let traced = m.traced.as_ref().unwrap_or(&empty);
    let mut sums = [Sums::default(); 4];
    for log in &traced.logs {
        for (all, theirs) in sums.iter_mut().zip(&log.sums) {
            all.merge(theirs);
        }
    }
    let mut all = Sums::default();
    sums.iter().for_each(|s| all.merge(s));
    // A span's duration includes the part of an empty span that falls
    // inside it, calibrated in the same slices.
    let net = |b: usize, class: Class| {
        let acc = sums[b].of(class);
        if acc.n == 0 {
            0.0
        } else {
            acc.mean() - sums[b].inside_ns()
        }
    };
    let frac = |b: usize, class: Class| {
        let locks = sums[b].locks();
        if locks == 0 {
            0.0
        } else {
            sums[b].of(class).n as f64 / locks as f64
        }
    };
    let acquisitions = |b: usize| m.untraced[b].acquisitions + traced.phases[b].acquisitions;
    let per_kop = |events: u64, b: usize| {
        let n = acquisitions(b);
        if n == 0 {
            0.0
        } else {
            events as f64 * 1e3 / n as f64
        }
    };

    let mut out = Vec::new();
    per_backend(&mut out, "vm.self_ns_per_call", "ns", |b| {
        let s = &sums[b];
        if !m.has_vm || s.child_locks == 0 {
            return 0.0;
        }
        // Each child span also costs its caller the part of an empty span
        // outside its own interval.
        let request = s.of(Class::Request);
        let outside = s.span_ns() - s.inside_ns();
        let self_ns = request.ns as f64
            - request.n as f64 * s.inside_ns()
            - s.children.ns as f64
            - s.children.n as f64 * outside;
        self_ns / s.child_locks as f64
    });
    per_backend(&mut out, "core.first_frac", "fraction", |b| {
        frac(b, Class::First)
    });
    per_backend(&mut out, "core.first_lock_ns", "ns", |b| {
        net(b, Class::First)
    });
    per_backend(&mut out, "core.nested_frac", "fraction", |b| {
        frac(b, Class::Nested)
    });
    per_backend(&mut out, "core.nested_lock_ns", "ns", |b| {
        net(b, Class::Nested)
    });
    per_backend(&mut out, "core.thin_unlock_ns", "ns", |b| {
        net(b, Class::ThinUnlock)
    });
    per_backend(&mut out, "core.contended_frac", "fraction", |b| {
        frac(b, Class::Contended)
    });
    per_backend(&mut out, "core.contended_lock_ns", "ns", |b| {
        net(b, Class::Contended)
    });
    per_backend(&mut out, "core.jain", "index", |b| {
        let per_thread: Vec<u64> = traced
            .logs
            .iter()
            .map(|log| log.sums[b].locks())
            .filter(|&n| n > 0)
            .collect();
        jain(&per_thread)
    });
    per_backend(&mut out, "monitor.fat_frac", "fraction", |b| {
        frac(b, Class::Fat)
    });
    per_backend(&mut out, "monitor.fat_lock_ns", "ns", |b| {
        net(b, Class::Fat)
    });
    per_backend(&mut out, "monitor.inflate_ns", "ns", |b| {
        net(b, Class::Notify)
    });
    per_backend(&mut out, "monitor.exit_ns", "ns", |b| net(b, Class::Exit));
    per_backend(&mut out, "monitor.inflations_per_kop", "1/kop", |b| {
        per_kop(m.counters[b].inflations, b)
    });
    per_backend(&mut out, "monitor.deflations_per_kop", "1/kop", |b| {
        per_kop(m.counters[b].deflations, b)
    });
    per_backend(&mut out, "setup.build_ms", "ms", |b| {
        median(&mut m.setups.iter().map(|s| s.build_ms[b]).collect::<Vec<_>>())
    });
    per_backend(&mut out, "setup.warmup_ms", "ms", |b| {
        median(&mut m.setups.iter().map(|s| s.warmup_ms[b]).collect::<Vec<_>>())
    });
    let mut program: Vec<f64> = m.setups.iter().map(|s| s.program_ms).collect();
    push(
        &mut out,
        "setup.program_ms".into(),
        "ms",
        median(&mut program),
    );
    push(&mut out, "trace.span_ns".into(), "ns", all.span_ns());
    per_backend(&mut out, "trace.overhead_frac", "fraction", |b| {
        let untraced = m.untraced[b].slice_ops_per_s();
        if untraced == 0.0 {
            0.0
        } else {
            1.0 - traced.phases[b].slice_ops_per_s() / untraced
        }
    });
    out
}

/// The metrics a run reports: the end-to-end ones untraced, the
/// per-layer ones traced.
pub fn metrics(m: &Measured) -> Vec<Metric> {
    if m.config.trace {
        per_layer(m)
    } else {
        end_to_end(m)
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit, as one JSON object.
pub fn json_line(m: &Measured, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        m.correct(),
        m.tally.attempted,
        m.tally.failed
    );
    for (i, metric) in metrics.iter().enumerate() {
        let value = if metric.value.is_finite() {
            metric.value
        } else {
            0.0
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        );
    }
    line.push_str("}}");
    line
}

/// Human-readable lines printed before the result line: per backend the
/// throughput, the request-time median and p99 with the sample count,
/// and the backend counters.
pub fn summary(m: &Measured) -> Vec<String> {
    let mut lines = vec![format!(
        "{} seed {} {:?}{}: attempted {} failed {}",
        m.config.workload.name(),
        m.config.seed,
        m.config.duration,
        if m.config.trace { " traced" } else { "" },
        m.tally.attempted,
        m.tally.failed
    )];
    for (b, name) in NAMES.iter().enumerate() {
        let phase = &m.untraced[b];
        let c = m.counters[b];
        lines.push(format!(
            "  {name:8} {:>10.0} ops/s, request p99 {:.3} us (metrics)  slices: lower quartile {:.0} ops/s  overall: {:.0} ops/s, request p50 {:.3} us, p99 {:.3} us, n={}  monitors_peak {}  inflations {} deflations {} (timed)",
            m.ops_per_s(b),
            m.p99_us(b),
            phase.slice_ops_per_s(),
            phase.ops_per_s(),
            phase.hist.quantile(0.5) / 1e3,
            phase.hist.quantile(0.99) / 1e3,
            phase.hist.count(),
            c.monitors_peak,
            c.inflations,
            c.deflations,
        ));
    }
    if let Some(r) = &m.reference {
        let mut rates: Vec<f64> = r.phase.slices.iter().map(|s| s.ops_per_s).collect();
        lines.push(format!(
            "  reference {:.0} ops/s (median of {} slices; {:.0} on the reference host)",
            median(&mut rates),
            rates.len(),
            r.nominal
        ));
    }
    let setups: Vec<String> = m
        .setups
        .iter()
        .map(|s| format!("{:.4}", s.total_s))
        .collect();
    lines.push(format!("  setup_s per repetition: {}", setups.join(" ")));
    if let Some(t) = &m.traced {
        let mut all = Sums::default();
        t.logs
            .iter()
            .flat_map(|l| &l.sums)
            .for_each(|s| all.merge(s));
        let spans: usize = t.logs.iter().map(|l| l.spans.len()).sum();
        let dropped: u64 = t.logs.iter().map(|l| l.dropped).sum();
        lines.push(format!(
            "  empty span: {:.1} ns, {:.1} ns of it inside the span; {spans} spans kept, {dropped} past the cap",
            all.span_ns(),
            all.inside_ns()
        ));
    }
    for problem in &m.broken {
        lines.push(format!("  BROKEN: {problem}"));
    }
    lines
}
