//! The verification and mutation suites behind `lockmc`.
//!
//! The verify suite explores a fixed catalog of small programs that
//! jointly cover every protocol path the checker instruments: the thin
//! recursive path, thin contention (spin + slow CAS), fat contention
//! (pre-inflated entry queue), wait/notify (inflation on wait), rogue
//! release rejection, and a two-object crossing whose independent ops
//! are where DPOR earns its reduction factor. Each program runs under
//! naive exhaustive DFS and under DPOR; both must complete with zero
//! violations and identical verdicts, and the aggregate
//! naive-to-DPOR execution ratio is the reported reduction factor.
//!
//! The mutation suite re-runs selected programs against each seeded
//! [`MutationKind`]; the checker must find a violation, which is then
//! shrunk to a minimal schedule and replayed through the
//! `thinlock-obs` trace machinery into a deterministic timeline.

use std::sync::Arc;

use thinlock::BackendChoice;
use thinlock_obs::CounterexampleLog;

use crate::explore::{
    context_switches, explore, replay, shrink, Decision, ExploreStats, Limits, Mode,
};
use crate::mutate::MutationKind;
use crate::program::{McOp, McProgram};
use crate::sched::CoopScheduler;

/// The verify-suite program catalog.
pub fn verify_programs() -> Vec<McProgram> {
    let mut contended_fat = McProgram::new(
        "contended-fat-3",
        1,
        vec![vec![McOp::Lock(0), McOp::Unlock(0)]; 3],
    );
    contended_fat.pre_inflate = vec![0];
    vec![
        // 2 threads x 2 recursive lock/unlock pairs on 1 object: the
        // thin fast, nest, and contention paths.
        McProgram::new(
            "thin-nest-2x2",
            1,
            vec![
                vec![
                    McOp::Lock(0),
                    McOp::Lock(0),
                    McOp::Unlock(0),
                    McOp::Unlock(0),
                ];
                2
            ],
        ),
        // 3 threads contending on 1 thin object: spin and slow-CAS
        // interleavings.
        McProgram::new(
            "contended-thin-3",
            1,
            vec![vec![McOp::Lock(0), McOp::Unlock(0)]; 3],
        ),
        // Same contention against a pre-inflated object: fat entry
        // queue, barging, FIFO hand-off.
        contended_fat,
        // Wait/notify pair: inflation on wait, wait-set hand-off, and
        // the no-lost-wakeup invariant.
        McProgram::new(
            "wait-notify",
            1,
            vec![
                vec![McOp::Lock(0), McOp::Wait(0), McOp::Unlock(0)],
                vec![McOp::Lock(0), McOp::NotifySet(0), McOp::Unlock(0)],
            ],
        ),
        // Two objects crossed in opposite order: plenty of independent
        // steps for DPOR to commute (and no deadlock — the locks do
        // not nest).
        McProgram::new(
            "two-object-crossing",
            2,
            vec![
                vec![
                    McOp::Lock(0),
                    McOp::Unlock(0),
                    McOp::Lock(1),
                    McOp::Unlock(1),
                ],
                vec![
                    McOp::Lock(1),
                    McOp::Unlock(1),
                    McOp::Lock(0),
                    McOp::Unlock(0),
                ],
            ],
        ),
        // A non-owner tries to release: every interleaving must reject
        // it.
        McProgram::new(
            "rogue-unlock",
            1,
            vec![
                vec![McOp::Lock(0), McOp::Unlock(0)],
                vec![McOp::RogueUnlock(0)],
            ],
        ),
    ]
}

/// One verify-suite program's outcome.
#[derive(Debug)]
pub struct VerifyReport {
    /// Program name.
    pub name: &'static str,
    /// Naive exhaustive-DFS counters (absent in `--quick` mode).
    pub naive: Option<ExploreStats>,
    /// DPOR counters.
    pub dpor: ExploreStats,
    /// Violation found, if any (a verify failure), with its shrunk
    /// schedule rendered.
    pub violation: Option<Counterexample>,
}

/// A minimal violating schedule plus its deterministic replay timeline.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Invariant that failed.
    pub invariant: &'static str,
    /// Detail line from the invariant check.
    pub detail: String,
    /// Minimal decision schedule reproducing the violation.
    pub schedule: Vec<Decision>,
    /// Context switches in the minimal schedule.
    pub switches: usize,
    /// The obs-rendered event timeline of the replay.
    pub timeline: String,
}

/// Shrinks a violating schedule and renders its replay timeline.
pub fn build_counterexample(
    program: &McProgram,
    sched: &Arc<CoopScheduler>,
    invariant: &'static str,
    detail: String,
    schedule: Vec<Decision>,
    limits: &Limits,
) -> Counterexample {
    let minimal = shrink(program, sched, invariant, schedule, limits.max_steps);
    let timeline = render_replay(program, sched, &minimal, limits.max_steps);
    Counterexample {
        invariant,
        detail,
        switches: context_switches(&minimal),
        schedule: minimal,
        timeline,
    }
}

/// Replays a schedule with a [`CounterexampleLog`] attached and renders
/// the decision list plus the recorded event timeline.
pub fn render_replay(
    program: &McProgram,
    sched: &Arc<CoopScheduler>,
    schedule: &[Decision],
    max_steps: usize,
) -> String {
    let log = Arc::new(CounterexampleLog::new());
    let rec = replay(program, sched, schedule, Some(log.clone()), max_steps);
    let mut out = String::new();
    out.push_str("schedule:\n");
    for (i, d) in rec.steps.iter().enumerate() {
        let obj = d
            .label
            .1
            .map(|o| format!(" heap#{}", o.index()))
            .unwrap_or_default();
        out.push_str(&format!(
            "  step {i:<3} worker {} at {}{obj}\n",
            d.worker, d.label.0
        ));
    }
    match &rec.violation {
        Some((inv, detail)) => out.push_str(&format!("violation: {inv}: {detail}\n")),
        None => out.push_str("violation: none (schedule no longer reproduces)\n"),
    }
    out.push_str("events:\n");
    out.push_str(&log.render());
    out
}

/// Runs the verify suite against `backend`. With `with_naive`, each
/// program also runs under exhaustive DFS for the reduction-factor
/// baseline. The invariant suite adapts to the backend: the thin
/// backend is checked for one-way inflation, deflation-capable backends
/// for deflation safety.
pub fn run_verify(limits: &Limits, with_naive: bool, backend: BackendChoice) -> Vec<VerifyReport> {
    let sched = Arc::new(CoopScheduler::new());
    verify_programs()
        .into_iter()
        .map(|program| program.with_backend(backend))
        .map(|program| {
            let naive = with_naive.then(|| explore(&program, &sched, Mode::Naive, limits));
            let dpor = explore(&program, &sched, Mode::Dpor, limits);
            let violation = naive
                .as_ref()
                .and_then(|n| n.violation.clone())
                .or_else(|| dpor.violation.clone())
                .map(|v| {
                    build_counterexample(
                        &program,
                        &sched,
                        v.invariant,
                        v.detail,
                        v.schedule,
                        limits,
                    )
                });
            VerifyReport {
                name: program.name,
                naive: naive.map(|n| n.stats),
                dpor: dpor.stats,
                violation,
            }
        })
        .collect()
}

/// Aggregate naive-to-DPOR execution ratio across a verify run.
/// Returns `None` unless naive baselines were collected.
pub fn reduction_factor(reports: &[VerifyReport]) -> Option<f64> {
    let naive: u64 = reports
        .iter()
        .map(|r| r.naive.map(|n| n.executions))
        .sum::<Option<u64>>()?;
    let dpor: u64 = reports.iter().map(|r| r.dpor.executions).sum();
    (dpor > 0).then(|| naive as f64 / dpor as f64)
}

/// One mutation's outcome.
#[derive(Debug)]
pub struct MutationReport {
    /// The seeded bug.
    pub kind: MutationKind,
    /// Program it ran under.
    pub program: &'static str,
    /// DPOR counters for the hunt.
    pub stats: ExploreStats,
    /// The violation that caught it — `None` means the mutation
    /// SURVIVED, which is a checker failure.
    pub caught: Option<Counterexample>,
}

/// The program each mutation is hunted under: the smallest catalog
/// program whose ops exercise the mutated path.
pub fn mutation_programs() -> Vec<(MutationKind, McProgram)> {
    MutationKind::ALL
        .iter()
        .map(|&kind| {
            let mut program = match kind {
                // Needs a non-owner release racing an owner's critical
                // section.
                MutationKind::BlindRelease => McProgram::new(
                    "rogue-unlock",
                    1,
                    vec![
                        vec![McOp::Lock(0), McOp::Unlock(0)],
                        vec![McOp::RogueUnlock(0)],
                    ],
                ),
                // Needs re-entrant locking.
                MutationKind::SkipNestCount | MutationKind::StompHeader => McProgram::new(
                    "thin-nest-2x2",
                    1,
                    vec![
                        vec![
                            McOp::Lock(0),
                            McOp::Lock(0),
                            McOp::Unlock(0),
                            McOp::Unlock(0),
                        ];
                        2
                    ],
                ),
                // Need an inflated lock and a waiter, respectively.
                MutationKind::DeflateOnRelease | MutationKind::LostNotify => McProgram::new(
                    "wait-notify",
                    1,
                    vec![
                        vec![McOp::Lock(0), McOp::Wait(0), McOp::Unlock(0)],
                        vec![McOp::Lock(0), McOp::NotifySet(0), McOp::Unlock(0)],
                    ],
                ),
            };
            program.mutation = Some(kind);
            (kind, program)
        })
        .collect()
}

/// Hunts every seeded mutation with DPOR exploration under `backend`;
/// each must be caught and its counterexample shrunk.
pub fn run_mutations(limits: &Limits, backend: BackendChoice) -> Vec<MutationReport> {
    let sched = Arc::new(CoopScheduler::new());
    mutation_programs()
        .into_iter()
        .map(|(kind, program)| (kind, program.with_backend(backend)))
        .map(|(kind, program)| {
            let out = explore(&program, &sched, Mode::Dpor, limits);
            let caught = out.violation.map(|v| {
                build_counterexample(&program, &sched, v.invariant, v.detail, v.schedule, limits)
            });
            MutationReport {
                kind,
                program: program.name,
                stats: out.stats,
                caught,
            }
        })
        .collect()
}

/// Runs the verify suite against `backend` and prints `lockmc verify`'s
/// report: one line per program, the aggregate reduction when naive
/// baselines ran, and the verdict line; a violation's minimal schedule
/// and every failure go to stderr. Returns true when the suite passed:
/// no violation, every exploration complete, and an aggregate DPOR
/// reduction above 2x.
pub fn report_verify(limits: &Limits, with_naive: bool, backend: BackendChoice) -> bool {
    println!(
        "lockmc verify: exploring {} catalog programs on backend `{backend}` ({})",
        verify_programs().len(),
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
        failed |= r.violation.is_some() || !r.dpor.complete || r.naive.is_some_and(|n| !n.complete);
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
        return false;
    }
    println!("lockmc: verify OK — no `{backend}` interleaving violates the invariant suite");
    true
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

/// Hunts every seeded mutation on `backend` and prints `lockmc
/// --mutate`'s report: each catch with its minimal schedule and replay
/// timeline, each survivor on stderr. Returns true when every mutation
/// was caught.
pub fn report_mutations(limits: &Limits, backend: BackendChoice) -> bool {
    println!("lockmc --mutate: hunting seeded protocol bugs on backend `{backend}` with DPOR");
    let reports = run_mutations(limits, backend);
    let mut failed = false;
    for r in &reports {
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
                failed = true;
            }
        }
    }
    if failed {
        eprintln!("lockmc: mutation suite FAILED — a seeded bug survived");
        return false;
    }
    println!(
        "lockmc: mutation suite OK — all {} seeded bugs caught with minimal counterexamples",
        reports.len()
    );
    true
}

fn indent(text: &str) -> String {
    text.lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique() {
        let mut names: Vec<&str> = verify_programs().iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), verify_programs().len());
    }

    #[test]
    fn every_mutation_has_a_program() {
        let programs = mutation_programs();
        assert_eq!(programs.len(), MutationKind::ALL.len());
        for (kind, program) in &programs {
            assert_eq!(program.mutation, Some(*kind));
        }
    }
}
