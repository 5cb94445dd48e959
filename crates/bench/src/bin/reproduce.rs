//! Regenerates every table and figure of the thin-locks paper.
//!
//! ```text
//! reproduce [all|table1|table2|fig3|fig4|fig5|fig6|ablations|churn|fairness|predict|lockcheck|lockmc|profile]
//!           [--iters N] [--scale N] [--quick] [--json PATH] [--profile-json PATH]
//!           [--backend <thin|cjm|fissile|hapax>]
//! ```
//!
//! `--backend` narrows the `churn` and `fairness` sections to one
//! protocol; without it churn runs the thin/cjm head-to-head and
//! fairness the thin/fissile/hapax head-to-head the committed baseline
//! records (so a `--backend` run's JSON is a subset of the baseline's
//! id set — use it for spot measurements, not for gating).
//!
//! Output is plain text, one section per artifact, in the same row/series
//! structure the paper reports. Absolute numbers are host-dependent; the
//! expected *shape* for each artifact is stated in EXPERIMENTS.md.
//!
//! `--json PATH` additionally writes the machine-readable benchmark
//! report (the `BENCH_thinlock.json` schema documented in BENCHMARKS.md)
//! that `benchgate` diffs against the committed baseline. The `profile`
//! section runs the observability corpus (DESIGN.md §10) and prints the
//! per-object contention profile; `--profile-json PATH` also exports
//! that profile as JSON.

use std::process::ExitCode;

use thinlock_bench::report;

struct Options {
    sections: Vec<String>,
    iters: i32,
    scale: u64,
    json: Option<String>,
    profile_json: Option<String>,
    backend: Option<thinlock::BackendChoice>,
}

fn parse_args() -> Result<Options, String> {
    let mut sections = Vec::new();
    let mut iters: i32 = 200_000;
    let mut scale: u64 = 1_000;
    let mut json = None;
    let mut profile_json = None;
    let mut backend = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "all" => sections.push(arg),
            s if report::SECTIONS.contains(&s) => sections.push(arg),
            "--iters" => {
                iters = args
                    .next()
                    .ok_or("--iters needs a value")?
                    .parse()
                    .map_err(|_| "--iters needs an integer".to_string())?;
            }
            "--scale" => {
                scale = args
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|_| "--scale needs an integer".to_string())?;
            }
            "--quick" => {
                iters = 20_000;
                scale = 20_000;
            }
            "--json" => {
                json = Some(args.next().ok_or("--json needs a path")?);
            }
            "--profile-json" => {
                profile_json = Some(args.next().ok_or("--profile-json needs a path")?);
            }
            "--backend" => {
                let name = args.next().ok_or("--backend needs a value")?;
                backend = Some(
                    thinlock::BackendChoice::from_name(&name)
                        .ok_or_else(|| format!("--backend: unknown backend `{name}`"))?,
                );
            }
            "--help" | "-h" => {
                return Err(
                    "usage: reproduce [all|table1|table2|fig3|fig4|fig5|fig6|ablations|churn\
                            |fairness|predict|lockcheck|lockmc|profile] [--iters N] [--scale N] \
                            [--quick] [--json PATH] [--profile-json PATH] \
                            [--backend <thin|cjm|fissile|hapax>]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    if sections.is_empty() {
        sections.push("all".to_string());
    }
    Ok(Options {
        sections,
        iters,
        scale,
        json,
        profile_json,
        backend,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let bench_report = match report::run_sections(
        &opts.sections,
        opts.iters,
        opts.scale,
        opts.profile_json.as_deref(),
        opts.backend,
    ) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &opts.json {
        if let Err(e) = std::fs::write(path, bench_report.to_json()) {
            eprintln!("writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "\nbench report: {} benchmark(s) written to {path}",
            bench_report.benchmarks.len()
        );
    }
    ExitCode::SUCCESS
}
