//! Diffs a fresh benchmark report against the committed baseline and
//! exits nonzero on regression.
//!
//! ```text
//! benchgate [--baseline PATH] [--current PATH] [--ids-only]
//!           [--micro-tol F] [--macro-tol F] [--ratio-tol F]
//! ```
//!
//! Defaults compare `out/BENCH_thinlock.json` (a fresh `reproduce --json`
//! run) against `BENCH_thinlock.json` (the committed baseline). `--ids-only`
//! checks benchmark coverage but ignores values — the mode the fast
//! smoke tier uses, where iteration counts are too small for timing to
//! mean anything. Tolerances and the pass/fail rules are documented in
//! BENCHMARKS.md.

use std::process::ExitCode;

use thinlock_bench::benchjson::BenchReport;
use thinlock_bench::gate::{compare, Tolerances};

struct Options {
    baseline: String,
    current: String,
    ids_only: bool,
    tolerances: Tolerances,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        baseline: "BENCH_thinlock.json".to_string(),
        current: "out/BENCH_thinlock.json".to_string(),
        ids_only: false,
        tolerances: Tolerances::default(),
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or(format!("{flag} needs a value"))
    };
    let parse_tol = |v: String, flag: &str| {
        v.parse::<f64>()
            .map_err(|_| format!("{flag} needs a number"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => opts.baseline = value(&mut args, "--baseline")?,
            "--current" => opts.current = value(&mut args, "--current")?,
            "--ids-only" => opts.ids_only = true,
            "--micro-tol" => {
                opts.tolerances.micro = parse_tol(value(&mut args, "--micro-tol")?, "--micro-tol")?
            }
            "--macro-tol" => {
                opts.tolerances.macro_rel =
                    parse_tol(value(&mut args, "--macro-tol")?, "--macro-tol")?
            }
            "--ratio-tol" => {
                opts.tolerances.ratio = parse_tol(value(&mut args, "--ratio-tol")?, "--ratio-tol")?
            }
            "--help" | "-h" => {
                return Err(
                    "usage: benchgate [--baseline PATH] [--current PATH] [--ids-only] \
                            [--micro-tol F] [--macro-tol F] [--ratio-tol F]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(opts)
}

fn load(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    BenchReport::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let (baseline, current) = match (load(&opts.baseline), load(&opts.current)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("{err}");
            }
            return ExitCode::FAILURE;
        }
    };
    println!(
        "benchgate: {} ({} benchmarks, rev {}) vs {} ({} benchmarks, rev {}){}",
        opts.baseline,
        baseline.benchmarks.len(),
        baseline.git_rev.as_deref().unwrap_or("?"),
        opts.current,
        current.benchmarks.len(),
        current.git_rev.as_deref().unwrap_or("?"),
        if opts.ids_only { " [ids only]" } else { "" }
    );
    let outcome = compare(&baseline, &current, &opts.tolerances, opts.ids_only);
    print!("{}", outcome.render());
    if outcome.pass() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
