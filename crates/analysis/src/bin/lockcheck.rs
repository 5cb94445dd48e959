//! `lockcheck` — runs the static lock-discipline passes over the
//! built-in program library and prints per-method findings. The passes
//! are [`thinlock_analysis::driver`]'s, which `reproduce lockcheck`
//! runs too; this binary parses flags, prints and gates.
//!
//! Flags:
//!
//! * `--races` — additionally runs the guards (lockset) pass over the
//!   seeded concurrent program library with each program's real
//!   thread-role contract, printing inferred `@GuardedBy` facts and
//!   race candidates next to the ground-truth label.
//! * `--deny-races` — implies `--races`; exits non-zero if any race
//!   verdict disagrees with ground truth (a clean program flagged, a
//!   racy program missed) or a sequential-library program has race
//!   candidates. CI wires this into `scripts/check.sh`.
//! * `--plan` — additionally runs the contention-shape pass over the
//!   concurrent library, executes each program under the lock tracer,
//!   and cross-checks each site's static plan flags against the dynamic
//!   `ContentionProfile` per allocation site: every site must agree, or
//!   diverge only toward the conservative side (static protection on a
//!   site the run left cold). Static shapes are also checked against
//!   each program's labeled `expected_shapes` ground truth.
//! * `--deny-disagreement` — implies `--plan`; exits non-zero on any
//!   non-conservative static↔dynamic disagreement, expected-shape
//!   mismatch, or dynamic run failure. CI wires this into
//!   `scripts/check.sh`.
//! * `--json` — emits a single machine-readable JSON document instead
//!   of the text report: the full `AnalysisReport` tree per program
//!   (see `thinlock_analysis::json`), the races cross-check when
//!   `--races` is also set, the plan agreement table when `--plan` is
//!   also set, and the summary totals. Exit-code behaviour (including
//!   `--deny-races` and `--deny-disagreement`) is unchanged.

use std::process::ExitCode;

use thinlock_analysis::contention::Agreement;
use thinlock_analysis::driver::{self, Lockcheck, PLAN_ITERS, PLAN_SEED};
use thinlock_analysis::json::write_report;
use thinlock_obs::JsonWriter;

fn print_text(check: &Lockcheck) {
    let totals = &check.totals;
    println!("lockcheck: static lock-discipline analysis\n");
    for run in &check.programs {
        let verdict = if run.report.is_clean() {
            "clean"
        } else {
            "FINDINGS"
        };
        println!("== {} ({} thread(s)) — {verdict}", run.name, run.threads);
        print!("{}", run.report);
        println!();
    }
    if let Some(races) = &check.races {
        println!("== races: guards pass over the concurrent program library");
        for run in races {
            let label = if run.entry.racy { "racy" } else { "clean" };
            let verdict = match (!run.report.guards.is_race_free(), run.agrees) {
                (true, true) => "RACE (expected)",
                (false, true) => "race-free",
                (true, false) => "FALSE POSITIVE",
                (false, false) => "MISSED RACE",
            };
            println!(
                "  {} [{label}, {} thread(s)] — {verdict}",
                run.entry.name,
                run.entry.total_threads()
            );
            for fact in &run.report.guards.facts {
                println!("    @GuardedBy {fact}");
            }
            for race in &run.report.guards.races {
                println!("    RACE {race}");
            }
            for &(pool, field) in &run.missing {
                println!("    MISSING expected race on pool[{pool}].f{field}");
            }
        }
        println!();
    }
    if let Some(plans) = &check.plans {
        println!("== plan: static site plan flags vs dynamic contention profile");
        for run in plans {
            println!(
                "  {} [{} thread(s), iters={PLAN_ITERS}, seed={PLAN_SEED:#x}]",
                run.entry.name,
                run.entry.total_threads()
            );
            if let Some(err) = &run.run_error {
                println!("    RUN ERROR: {err}");
            }
            for row in &run.sites {
                let verdict = match row.agreement {
                    Agreement::Agree => "agree",
                    Agreement::Conservative => "conservative (allowed)",
                    Agreement::Disagree => "DISAGREE",
                };
                let flags: Vec<&str> = [
                    (row.site.elide, "elide"),
                    (row.site.pre_inflate, "pre-inflate"),
                    (row.site.pin_fifo, "pin-fifo"),
                ]
                .into_iter()
                .filter_map(|(set, flag)| set.then_some(flag))
                .collect();
                let flags = if flags.is_empty() {
                    "-".to_string()
                } else {
                    flags.join(",")
                };
                println!(
                    "    pool[{}] static={} hint={} flags={} dynamic: contended={} waits={} — {verdict}",
                    row.site.pool,
                    row.site.shape,
                    row.site.backend_hint.as_str(),
                    flags,
                    row.contended,
                    row.waits,
                );
                if let Some(expected) = row.expected {
                    if expected != row.site.shape.as_str() {
                        println!("      SHAPE MISMATCH: labeled ground truth is {expected}");
                    }
                }
            }
        }
        println!();
    }
    println!(
        "summary: {} program(s), {} method(s); {} diagnostic(s), \
         {} deadlock cycle(s), {} elidable sync op(s), {} pre-inflation hint(s)",
        totals.programs,
        totals.methods,
        totals.diagnostics,
        totals.cycles,
        totals.elidable,
        totals.hints,
    );
    if check.races.is_some() {
        println!(
            "races: {} @GuardedBy fact(s), {} race candidate(s), {} mismatch(es) vs ground truth",
            totals.guarded_facts, totals.race_candidates, totals.race_mismatches,
        );
    }
    if check.plans.is_some() {
        println!(
            "plan: {} site(s), {} conservative divergence(s), {} disagreement(s), \
             {} shape mismatch(es), {} run error(s)",
            totals.plan_sites,
            totals.plan_conservative,
            totals.plan_disagreements,
            totals.plan_shape_mismatches,
            totals.plan_run_errors,
        );
    }
}

fn print_json(check: &Lockcheck) {
    let totals = &check.totals;
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("tool", "lockcheck");
    w.begin_named_array("programs");
    for run in &check.programs {
        write_report(&mut w, &run.name, run.threads, &run.report);
    }
    w.end_array();
    if let Some(races) = &check.races {
        w.begin_named_array("races");
        for run in races {
            w.begin_object();
            w.field_str("program", run.entry.name);
            w.field_u64("threads", u64::from(run.entry.total_threads()));
            w.field_bool("expected_racy", run.entry.racy);
            w.field_bool("found_racy", !run.report.guards.is_race_free());
            w.field_bool("agrees", run.agrees);
            w.begin_named_array("facts");
            for fact in &run.report.guards.facts {
                w.elem_str(&fact.to_string());
            }
            w.end_array();
            w.begin_named_array("race_candidates");
            for race in &run.report.guards.races {
                w.elem_str(&race.to_string());
            }
            w.end_array();
            w.begin_named_array("missing_expected");
            for &(pool, field) in &run.missing {
                w.begin_object();
                w.field_u64("pool", u64::from(pool));
                w.field_u64("field", u64::from(field));
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
    }
    if let Some(plans) = &check.plans {
        w.begin_named_array("plan");
        for run in plans {
            w.begin_object();
            w.field_str("program", run.entry.name);
            w.field_u64("threads", u64::from(run.entry.total_threads()));
            w.field_u64("iters", u64::from(PLAN_ITERS));
            w.field_u64("seed", PLAN_SEED);
            if let Some(err) = &run.run_error {
                w.field_str("run_error", err);
            }
            w.begin_named_array("sites");
            for row in &run.sites {
                w.begin_object();
                w.field_u64("pool", u64::from(row.site.pool));
                w.field_str("static_shape", row.site.shape.as_str());
                w.field_bool("elide", row.site.elide);
                w.field_bool("pre_inflate", row.site.pre_inflate);
                w.field_bool("pin_fifo", row.site.pin_fifo);
                w.field_str("backend_hint", row.site.backend_hint.as_str());
                if let Some(expected) = row.expected {
                    w.field_str("expected_shape", expected);
                }
                w.field_u64("dynamic_contended", row.contended);
                w.field_u64("dynamic_waits", row.waits);
                w.field_str("agreement", row.agreement.as_str());
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
    }
    w.begin_named_object("summary");
    w.field_u64("programs", totals.programs as u64);
    w.field_u64("methods", totals.methods as u64);
    w.field_u64("diagnostics", totals.diagnostics as u64);
    w.field_u64("deadlock_cycles", totals.cycles as u64);
    w.field_u64("elidable_sync_ops", totals.elidable as u64);
    w.field_u64("pre_inflation_hints", totals.hints as u64);
    w.field_u64("guarded_facts", totals.guarded_facts as u64);
    w.field_u64("race_candidates", totals.race_candidates as u64);
    w.field_u64("race_mismatches", totals.race_mismatches as u64);
    w.field_u64("plan_sites", totals.plan_sites as u64);
    w.field_u64("plan_conservative", totals.plan_conservative as u64);
    w.field_u64("plan_disagreements", totals.plan_disagreements as u64);
    w.field_u64("plan_shape_mismatches", totals.plan_shape_mismatches as u64);
    w.field_u64("plan_run_errors", totals.plan_run_errors as u64);
    w.end_object();
    w.end_object();
    println!("{}", w.finish());
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let deny_races = args.iter().any(|a| a == "--deny-races");
    let races = deny_races || args.iter().any(|a| a == "--races");
    let deny_disagreement = args.iter().any(|a| a == "--deny-disagreement");
    let plan = deny_disagreement || args.iter().any(|a| a == "--plan");
    let json = args.iter().any(|a| a == "--json");
    const KNOWN: [&str; 5] = [
        "--races",
        "--deny-races",
        "--plan",
        "--deny-disagreement",
        "--json",
    ];
    if let Some(unknown) = args.iter().find(|a| !KNOWN.contains(&a.as_str())) {
        eprintln!(
            "lockcheck: unknown flag {unknown} (expected {})",
            KNOWN.join(", ")
        );
        return ExitCode::from(2);
    }

    let check = driver::run(races, plan);
    if json {
        print_json(&check);
    } else {
        print_text(&check);
    }
    let totals = &check.totals;

    if deny_races && totals.race_mismatches > 0 {
        eprintln!(
            "lockcheck: --deny-races: {} race verdict(s) disagree with ground truth",
            totals.race_mismatches
        );
        return ExitCode::FAILURE;
    }
    if deny_disagreement && totals.plan_failures() > 0 {
        eprintln!(
            "lockcheck: --deny-disagreement: {} disagreement(s), {} shape mismatch(es), \
             {} run error(s) between static plan and dynamic profile",
            totals.plan_disagreements, totals.plan_shape_mismatches, totals.plan_run_errors,
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
