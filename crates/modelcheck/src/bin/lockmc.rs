//! `lockmc` — exhaustive model checking of the sync-protocol backends.
//!
//! ```text
//! lockmc verify            full exploration: naive DFS baseline + DPOR
//!                          per catalog program; fails on any violation,
//!                          incomplete exploration, or an aggregate
//!                          DPOR reduction factor of 2x or less
//! lockmc verify --quick    DPOR only, bounded budget (CI smoke)
//! lockmc --mutate          hunt every seeded protocol mutation; fails
//!                          if any survives; prints each minimal
//!                          counterexample timeline
//! ```
//!
//! Both commands take `--backend <thin|cjm|fissile|hapax>` (default
//! `thin`). The invariant suite adapts: the thin backend is held to
//! one-way inflation, the deflating CJM backend to deflation safety (a
//! fat → thin transition is legal only from a quiescent monitor), and
//! the ticket-queue backends (fissile, hapax) additionally walk their
//! FIFO arrival orders — the schedule point
//! precedes the ticket draw, so the checker owns admission order.
//!
//! Exit status: 0 on success, 1 on a failed contract, 2 on bad usage.

use std::process::ExitCode;

use thinlock::BackendChoice;
use thinlock_modelcheck::{report_mutations, report_verify, Limits};

const USAGE: &str =
    "usage: lockmc <verify [--quick] | --mutate [--quick]> [--backend <thin|cjm|fissile|hapax>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut command: Option<&str> = None;
    let mut backend = BackendChoice::Thin;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "verify" if command.is_none() => command = Some("verify"),
            "--mutate" if command.is_none() => command = Some("mutate"),
            "--backend" => {
                let Some(name) = iter.next() else {
                    eprintln!("lockmc: --backend needs a value\n{USAGE}");
                    return ExitCode::from(2);
                };
                match BackendChoice::from_name(name) {
                    Some(choice) => backend = choice,
                    None => {
                        eprintln!("lockmc: unknown backend `{name}`\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            other => {
                eprintln!("lockmc: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let limits = if quick {
        Limits::quick()
    } else {
        Limits::exhaustive()
    };
    let passed = match command {
        Some("verify") => report_verify(&limits, !quick, backend),
        Some("mutate") => report_mutations(&limits, backend),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
