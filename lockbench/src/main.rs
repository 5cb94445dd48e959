//! `lockbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a summary, then one JSON line with `correct`, `attempted`,
//! `failed` and the metrics: the end-to-end ones with `--trace 0`, the
//! per-layer ones with `--trace 1`. A traced run also writes its spans to
//! `out/spans-<workload>-<seed>.tsv` under this package's directory.

use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use lockbench::report;
use lockbench::run::{Config, Workload};
use lockbench::spans;

const USAGE: &str =
    "usage: lockbench --workload <library-1t|contended-2t|churn-1t> --seed <n> --seconds <1-600> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed,
        duration: Duration::from_secs(seconds),
        trace,
    })
}

fn write_span_file(config: &Config, m: &lockbench::run::Measured) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "spans-{}-{}.tsv",
        config.workload.name(),
        config.seed
    ));
    let mut out = BufWriter::new(File::create(&path)?);
    let logs = m.traced.iter().flat_map(|t| &t.logs);
    spans::write_spans(&mut out, logs.flat_map(|log| &log.spans))?;
    out.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("lockbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let m = lockbench::run(config);
    for line in report::summary(&m) {
        println!("{line}");
    }
    if config.trace {
        match write_span_file(&config, &m) {
            Ok(path) => println!("  spans written to {}", path.display()),
            Err(e) => {
                eprintln!("lockbench: cannot write the span file: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", report::json_line(&m, &report::metrics(&m)));
    ExitCode::SUCCESS
}
