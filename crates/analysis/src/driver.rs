//! The `lockcheck` driver: the analysis catalog, the race pass and the
//! plan pass, shared by the `lockcheck` binary and `reproduce lockcheck`.
//!
//! [`run`] analyzes the sequential catalog and, on request, the
//! concurrent program library twice over: the race pass compares the
//! guards pass with each program's ground-truth race label, and the
//! plan pass replays each program under the lock tracer and checks each
//! site's static plan flags against the dynamic `ContentionProfile`.
//! Printing is the caller's: the binary renders text or JSON, the
//! reproduction harness a summary. [`sanitize`] is the dynamic Eraser
//! replay that cross-checks the race pass.

use std::sync::Arc;

use thinlock_obs::{ContentionProfile, EraserSanitizer, LockTracer, TracerConfig};
use thinlock_trace::vmreplay::run_concurrent_program;
use thinlock_vm::library;
use thinlock_vm::program::Program;
use thinlock_vm::programs::{self, ConcurrentProgram, MicroBench};

use crate::contention::{classify_agreement, contended_acquisitions, Agreement, SiteShape};
use crate::escape::EscapeContext;
use crate::report::{analyze_concurrent, analyze_program, AnalysisReport};

/// Iterations per role thread for the plan pass's dynamic runs: enough
/// to make hot sites visibly contended without slowing CI.
pub const PLAN_ITERS: u32 = 300;
/// Fixed schedule-perturbation seed so agreement verdicts are stable.
pub const PLAN_SEED: u64 = 0x51ee_d10c;

/// Summary counts over every pass that ran.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Totals {
    /// Catalog programs analyzed.
    pub programs: usize,
    /// Methods across the catalog.
    pub methods: usize,
    /// Lock-discipline diagnostics plus base-verifier errors.
    pub diagnostics: usize,
    /// Lock-order cycles (potential deadlocks).
    pub cycles: usize,
    /// Sync operations the escape pass proves elidable.
    pub elidable: usize,
    /// Pre-inflation hints from the nest-depth pass.
    pub hints: usize,
    /// `@GuardedBy` facts the race pass inferred.
    pub guarded_facts: usize,
    /// Race candidates, catalog and concurrent library together.
    pub race_candidates: usize,
    /// Race verdicts that disagree with ground truth, plus expected
    /// racy fields missed and any race candidate in the sequential
    /// catalog.
    pub race_mismatches: usize,
    /// Allocation sites the plan pass cross-checked.
    pub plan_sites: usize,
    /// Sites where the static plan protects a dynamically cold site.
    pub plan_conservative: usize,
    /// Sites where the dynamic run demanded protection the plan lacks.
    pub plan_disagreements: usize,
    /// Static shapes that differ from the labeled ground truth.
    pub plan_shape_mismatches: usize,
    /// Dynamic runs that failed to produce a profile.
    pub plan_run_errors: usize,
}

impl Totals {
    /// What `--deny-disagreement` fails on: disagreements, shape
    /// mismatches and failed dynamic runs.
    pub fn plan_failures(&self) -> usize {
        self.plan_disagreements + self.plan_shape_mismatches + self.plan_run_errors
    }
}

/// One analyzed program from the sequential catalog.
#[derive(Debug)]
pub struct ProgramRun {
    /// Catalog name.
    pub name: String,
    /// Threads the escape context assumed.
    pub threads: u32,
    /// Findings of every pass.
    pub report: AnalysisReport,
}

/// One concurrent-library program cross-checked against ground truth.
#[derive(Debug)]
pub struct RaceRun {
    /// The program and its labels.
    pub entry: ConcurrentProgram,
    /// Findings under the program's own thread roles.
    pub report: AnalysisReport,
    /// Whether the static race verdict matches the ground-truth label.
    pub agrees: bool,
    /// Expected racy fields absent from the candidate list.
    pub missing: Vec<(u32, u16)>,
}

/// One allocation site cross-checked static plan vs dynamic profile.
#[derive(Debug)]
pub struct PlanSite {
    /// The site's static shape and plan flags.
    pub site: SiteShape,
    /// Ground-truth label from `ConcurrentProgram::expected_shapes`,
    /// when the program carries one for this pool index.
    pub expected: Option<&'static str>,
    /// Dynamic [`contended_acquisitions`] on the site.
    pub contended: u64,
    /// Dynamic `wait` operations observed on the site.
    pub waits: u64,
    /// The static-vs-dynamic verdict.
    pub agreement: Agreement,
}

/// One concurrent-library program run under the plan agreement gate.
#[derive(Debug)]
pub struct PlanRun {
    /// The program and its labels.
    pub entry: ConcurrentProgram,
    /// One verdict per classified site.
    pub sites: Vec<PlanSite>,
    /// Why the dynamic run produced no profile, if it failed.
    pub run_error: Option<String>,
}

/// One `lockcheck` run: the catalog always, the race and plan passes
/// when asked for.
#[derive(Debug)]
pub struct Lockcheck {
    /// The sequential catalog's findings.
    pub programs: Vec<ProgramRun>,
    /// The race pass, when requested.
    pub races: Option<Vec<RaceRun>>,
    /// The plan pass, when requested.
    pub plans: Option<Vec<PlanRun>>,
    /// Counts over everything above.
    pub totals: Totals,
}

/// Runs the catalog and, when asked, the race and plan passes.
pub fn run(races: bool, plans: bool) -> Lockcheck {
    let mut totals = Totals::default();
    let programs = analyze_catalog(&mut totals);
    let races = races.then(|| analyze_races(&mut totals));
    let plans = plans.then(|| analyze_plans(&mut totals));
    Lockcheck {
        programs,
        races,
        plans,
        totals,
    }
}

/// Replays `entry` once under a fresh Eraser sanitizer and returns the
/// racy `(object, field)` pairs it reported. Pool objects are allocated
/// in pool order, so an object index is its pool index.
///
/// # Errors
///
/// The replay's error when the program cannot run.
pub fn sanitize(
    entry: &ConcurrentProgram,
    iters: u32,
    seed: u64,
) -> Result<Vec<(usize, u16)>, String> {
    let sanitizer = Arc::new(EraserSanitizer::new(
        entry.program.pool_size() as usize + 1,
        usize::from(entry.fields.max(1)),
    ));
    run_concurrent_program(entry, iters, seed, Some(Arc::clone(&sanitizer) as _))?;
    Ok(sanitizer.racy_fields())
}

/// The sequential analysis catalog: every micro-benchmark, the scanner
/// macro-benchmark, and the seeded defect programs.
fn catalog() -> Vec<(String, EscapeContext, Program)> {
    let single = EscapeContext::single_threaded;
    let mut entries: Vec<(String, EscapeContext, Program)> = MicroBench::table2()
        .into_iter()
        .chain([MicroBench::MixedSync])
        .map(|bench| {
            let ctx = EscapeContext::threads(bench.thread_count());
            (bench.to_string(), ctx, bench.program())
        })
        .collect();
    entries.push(("JavaLex-like".into(), single(), library::javalex_like()));
    // Seeded defect programs: these must produce findings.
    for (name, ctx, program) in [
        (
            "deadlock_pair",
            EscapeContext::threads(2),
            programs::deadlock_pair(),
        ),
        ("deep_nest", single(), programs::deep_nest()),
        ("unbalanced_exit", single(), programs::unbalanced_exit()),
        ("non_lifo_pair", single(), programs::non_lifo_pair()),
    ] {
        entries.push((format!("seeded: {name}"), ctx, program));
    }
    entries
}

fn analyze_catalog(totals: &mut Totals) -> Vec<ProgramRun> {
    catalog()
        .into_iter()
        .map(|(name, ctx, program)| {
            let report = analyze_program(&program, &ctx);
            totals.programs += 1;
            totals.methods += report.methods.len();
            totals.diagnostics += report.diagnostic_count() + report.verify_errors.len();
            totals.cycles += report.lock_order.cycles.len();
            totals.elidable += report.escape.elidable_ops.len();
            totals.hints += report.nest.hints.len();
            // Sequential-library programs must never have lockset race
            // candidates; any hit is a detector regression.
            totals.race_mismatches += report.guards.races.len();
            totals.race_candidates += report.guards.races.len();
            ProgramRun {
                name,
                threads: ctx.thread_count,
                report,
            }
        })
        .collect()
}

/// The race pass: the guards pass over the concurrent library, each
/// program analyzed under its own thread-role contract and compared with
/// its ground-truth race label.
fn analyze_races(totals: &mut Totals) -> Vec<RaceRun> {
    programs::concurrent_library()
        .into_iter()
        .map(|entry| {
            let report = analyze_concurrent(&entry);
            let agrees = report.guards.is_race_free() != entry.racy;
            // The expected racy fields must all be among the candidates.
            let missing: Vec<(u32, u16)> = entry
                .racy_fields
                .iter()
                .copied()
                .filter(|&(pool, field)| {
                    !report
                        .guards
                        .races
                        .iter()
                        .any(|r| (r.pool, r.field) == (pool, field))
                })
                .collect();
            totals.guarded_facts += report.guards.facts.len();
            totals.race_candidates += report.guards.races.len();
            totals.race_mismatches += usize::from(!agrees) + missing.len();
            RaceRun {
                entry,
                report,
                agrees,
                missing,
            }
        })
        .collect()
}

/// The plan pass: static plan inference per concurrent program, a
/// traced dynamic run of the same program, and a per-site agreement
/// verdict between the two.
fn analyze_plans(totals: &mut Totals) -> Vec<PlanRun> {
    programs::concurrent_library()
        .into_iter()
        .map(|entry| {
            let report = analyze_concurrent(&entry);
            let tracer = Arc::new(LockTracer::new(TracerConfig::default()));
            let run_error =
                run_concurrent_program(&entry, PLAN_ITERS, PLAN_SEED, Some(tracer.clone() as _))
                    .err();
            let profile = ContentionProfile::build(&tracer.snapshot());

            let sites: Vec<PlanSite> = report
                .contention
                .sites
                .into_iter()
                .map(|site| {
                    // The replay pool is allocated in order, so a profile
                    // object's heap index is its pool index.
                    let (contended, waits) = profile
                        .objects
                        .iter()
                        .find(|o| o.obj.index() == site.pool as usize)
                        .map(|o| (contended_acquisitions(o), o.waits))
                        .unwrap_or((0, 0));
                    let agreement = classify_agreement(&site, contended, waits);
                    let expected = entry
                        .expected_shapes
                        .iter()
                        .find(|&&(pool, _)| pool == site.pool)
                        .map(|&(_, label)| label);
                    totals.plan_sites += 1;
                    match agreement {
                        Agreement::Agree => {}
                        Agreement::Conservative => totals.plan_conservative += 1,
                        Agreement::Disagree => totals.plan_disagreements += 1,
                    }
                    if expected.is_some_and(|label| label != site.shape.as_str()) {
                        totals.plan_shape_mismatches += 1;
                    }
                    PlanSite {
                        site,
                        expected,
                        contended,
                        waits,
                        agreement,
                    }
                })
                .collect();
            totals.plan_run_errors += usize::from(run_error.is_some());
            PlanRun {
                entry,
                sites,
                run_error,
            }
        })
        .collect()
}
