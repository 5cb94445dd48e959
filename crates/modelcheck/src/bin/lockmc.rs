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
use thinlock_modelcheck::{
    reduction_factor, run_mutations, run_verify, Limits, MutationReport, VerifyReport,
};

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
    match command {
        Some("verify") => verify(&limits, !quick, backend),
        Some("mutate") => mutate(&limits, backend),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn verify(limits: &Limits, with_naive: bool, backend: BackendChoice) -> ExitCode {
    println!(
        "lockmc verify: exploring {} catalog programs on backend `{backend}` ({})",
        thinlock_modelcheck::verify_programs().len(),
        if with_naive {
            "naive DFS + DPOR"
        } else {
            "DPOR only, quick budget"
        }
    );
    let reports = run_verify(limits, with_naive, backend);
    let mut failed = false;
    for r in &reports {
        print_verify_report(r);
        if r.violation.is_some() || !r.dpor.complete {
            failed = true;
        }
        if let Some(n) = &r.naive {
            if !n.complete {
                failed = true;
            }
        }
    }
    if let Some(factor) = reduction_factor(&reports) {
        let naive: u64 = reports
            .iter()
            .filter_map(|r| r.naive.map(|n| n.executions))
            .sum();
        let dpor: u64 = reports.iter().map(|r| r.dpor.executions).sum();
        println!(
            "aggregate: naive {naive} executions, dpor {dpor} executions, reduction {factor:.1}x"
        );
        if factor <= 2.0 {
            eprintln!("lockmc: FAIL — DPOR reduction factor {factor:.1}x is not > 2x");
            failed = true;
        }
    }
    if failed {
        eprintln!("lockmc: verify FAILED");
        return ExitCode::FAILURE;
    }
    println!("lockmc: verify OK — no `{backend}` interleaving violates the invariant suite");
    ExitCode::SUCCESS
}

fn print_verify_report(r: &VerifyReport) {
    match &r.naive {
        Some(n) => println!(
            "  {:<22} naive: {:>6} execs {:>7} steps | dpor: {:>5} execs {:>6} steps \
             ({} sleep-blocked, depth {}){}",
            r.name,
            n.executions,
            n.transitions,
            r.dpor.executions,
            r.dpor.transitions,
            r.dpor.sleep_blocked,
            r.dpor.max_depth,
            if n.complete && r.dpor.complete {
                ""
            } else {
                " INCOMPLETE"
            }
        ),
        None => println!(
            "  {:<22} dpor: {:>5} execs {:>6} steps ({} sleep-blocked, depth {}){}",
            r.name,
            r.dpor.executions,
            r.dpor.transitions,
            r.dpor.sleep_blocked,
            r.dpor.max_depth,
            if r.dpor.complete { "" } else { " INCOMPLETE" }
        ),
    }
    if let Some(cx) = &r.violation {
        eprintln!(
            "  {}: VIOLATION of `{}`: {}\n  minimal schedule ({} decisions, {} switches):\n{}",
            r.name,
            cx.invariant,
            cx.detail,
            cx.schedule.len(),
            cx.switches,
            indent(&cx.timeline)
        );
    }
}

fn mutate(limits: &Limits, backend: BackendChoice) -> ExitCode {
    println!("lockmc --mutate: hunting seeded protocol bugs on backend `{backend}` with DPOR");
    let reports = run_mutations(limits, backend);
    let mut failed = false;
    for r in &reports {
        print_mutation_report(r, &mut failed);
    }
    if failed {
        eprintln!("lockmc: mutation suite FAILED — a seeded bug survived");
        return ExitCode::FAILURE;
    }
    println!(
        "lockmc: mutation suite OK — all {} seeded bugs caught with minimal counterexamples",
        reports.len()
    );
    ExitCode::SUCCESS
}

fn print_mutation_report(r: &MutationReport, failed: &mut bool) {
    match &r.caught {
        Some(cx) => {
            println!(
                "  {:<20} CAUGHT by `{}` under {} after {} execs — minimal schedule: \
                 {} decisions, {} context switches",
                r.kind.name(),
                cx.invariant,
                r.program,
                r.stats.executions,
                cx.schedule.len(),
                cx.switches,
            );
            println!("{}", indent(&cx.timeline));
        }
        None => {
            eprintln!(
                "  {:<20} SURVIVED {} executions under {} — checker failure",
                r.kind.name(),
                r.stats.executions,
                r.program
            );
            *failed = true;
        }
    }
}

fn indent(text: &str) -> String {
    text.lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}
