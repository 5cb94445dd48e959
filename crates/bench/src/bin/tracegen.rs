//! Generates, saves, checks, and replays serialized lock traces.
//!
//! ```text
//! tracegen <benchmark|all> [--scale N] [--seed N] [--out DIR]   generate .trace files
//! tracegen --check FILE                                         validate + characterize
//! tracegen --replay FILE                                        replay under all protocols
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use thinlock_bench::ProtocolKind;
use thinlock_trace::characterize::characterize;
use thinlock_trace::generator::{generate, TraceConfig};
use thinlock_trace::io::{trace_from_str, trace_to_string};
use thinlock_trace::replay::replay;
use thinlock_trace::table1::{BenchmarkProfile, MACRO_BENCHMARKS};

fn usage() -> String {
    "usage: tracegen <benchmark|all> [--scale N] [--seed N] [--out DIR]\n       tracegen --check FILE\n       tracegen --replay FILE"
        .to_string()
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return Err(usage());
    }

    if args[0] == "--check" || args[0] == "--replay" {
        let path = args.get(1).ok_or_else(usage)?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let trace = trace_from_str(&text).map_err(|e| format!("{path}: {e}"))?;
        println!("{trace}");
        println!("  {}", characterize(&trace));
        if args[0] == "--replay" {
            for kind in ProtocolKind::ALL_BACKENDS {
                let protocol = kind.build(trace.required_heap_capacity(), 0);
                let reg = protocol.registry().register().map_err(|e| e.to_string())?;
                let out = replay(&*protocol, &trace, reg.token()).map_err(|e| e.to_string())?;
                println!("  {:<9} {out}", kind.name());
            }
        }
        return Ok(());
    }

    let mut which = args[0].clone();
    let mut config = TraceConfig::default();
    let mut out_dir = PathBuf::from(".");
    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                config.scale = it
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|_| "--scale needs an integer".to_string())?;
            }
            "--seed" => {
                config.seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?;
            }
            "--out" => {
                out_dir = PathBuf::from(it.next().ok_or("--out needs a directory")?);
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if which == "all" {
        which.clear();
    }

    let selected: Vec<&BenchmarkProfile> = MACRO_BENCHMARKS
        .iter()
        .filter(|p| which.is_empty() || p.name == which)
        .collect();
    if selected.is_empty() {
        return Err(format!(
            "unknown benchmark `{which}`; see Table 1 for names"
        ));
    }
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    for profile in selected {
        let trace = generate(profile, &config);
        let path = out_dir.join(format!("{}.trace", profile.name));
        std::fs::write(&path, trace_to_string(&trace)).map_err(|e| e.to_string())?;
        println!("wrote {} ({})", path.display(), trace);
    }
    Ok(())
}
