//! End-to-end tests of the benchmark telemetry pipeline: schema
//! round-trip, `benchgate` verdicts on synthetic baseline/current pairs,
//! and smoke runs of the report collector at tiny iteration counts
//! checking them against the committed baseline `BENCH_thinlock.json`:
//! an `all` run emits exactly its ids in its order, and the
//! scale-independent exact records equal its values.

use thinlock_bench::benchjson::{
    summarize, BenchRecord, BenchReport, Direction, GateClass, Summary,
};
use thinlock_bench::gate::{compare, Tolerances, Verdict};
use thinlock_bench::report;

fn sample_report() -> BenchReport {
    let mut r = BenchReport::new(1_000, 500);
    r.push(BenchRecord::timed(
        "fig4/Sync/ThinLock",
        "fig4",
        Some("ThinLock"),
        "ns_per_iter",
        GateClass::Micro,
        &[33.1, 32.9, 34.0, 33.3, 40.2],
    ));
    r.push(BenchRecord::scalar(
        "fig4/Sync/speedup_vs_JDK111",
        "fig4",
        Some("ThinLock"),
        "ratio",
        GateClass::Ratio,
        Direction::HigherIsBetter,
        3.7,
    ));
    r.push(BenchRecord::scalar(
        "table1/javac/syncs_per_object",
        "table1",
        None,
        "ratio",
        GateClass::Exact,
        Direction::Informational,
        22.653846153846153,
    ));
    r
}

#[test]
fn schema_round_trips_exactly() {
    let report = sample_report();
    let json = report.to_json();
    let parsed = BenchReport::from_json(&json).expect("own output parses");
    assert_eq!(parsed, report, "serialize -> parse must be identity");
    // And the re-serialization is byte-identical (floats are written
    // shortest-roundtrip, parsed correctly-rounded).
    assert_eq!(parsed.to_json(), json);
}

#[test]
fn from_json_rejects_garbage_and_wrong_versions() {
    assert!(BenchReport::from_json("not json").is_err());
    assert!(BenchReport::from_json("{}").is_err());
    let bumped =
        sample_report()
            .to_json()
            .replacen("\"schema_version\":1", "\"schema_version\":999", 1);
    let err = BenchReport::from_json(&bumped).unwrap_err();
    assert!(err.to_string().contains("schema_version"));
}

#[test]
fn summary_statistics_are_recorded() {
    let report = sample_report();
    let rec = report.find("fig4/Sync/ThinLock").expect("timed record");
    let s: Summary = rec.summary.expect("timed records carry a summary");
    // The gated value is the fastest sample (noise-robust on a shared
    // host); the summary keeps the distribution.
    assert_eq!(rec.value, 32.9);
    assert_eq!(s.median, 33.3);
    assert_eq!(s.samples, 5);
    assert!(s.ci_lo <= s.median && s.median <= s.ci_hi);
    // Deterministic: summarizing the same samples with the id-derived
    // seed reproduces the stored summary bit-for-bit.
    let again = summarize(
        &[33.1, 32.9, 34.0, 33.3, 40.2],
        thinlock_bench::benchjson::id_seed("fig4/Sync/ThinLock"),
    );
    assert_eq!(again, s);
}

#[test]
fn gate_passes_within_noise_and_fails_on_2x_regression() {
    let baseline = sample_report();

    // Within noise: +10% on a micro cell, tiny ratio wobble.
    let mut within = baseline.clone();
    within.benchmarks[0].value *= 1.10;
    within.benchmarks[1].value *= 0.95;
    let outcome = compare(&baseline, &within, &Tolerances::default(), false);
    assert!(outcome.pass(), "{}", outcome.render());

    // The acceptance case: a synthetic 2x regression on the Sync fast
    // path must fail the gate.
    let mut regressed = baseline.clone();
    regressed.benchmarks[0].value *= 2.0;
    let outcome = compare(&baseline, &regressed, &Tolerances::default(), false);
    assert!(!outcome.pass(), "2x regression must fail");
    let row = outcome
        .rows
        .iter()
        .find(|r| r.id == "fig4/Sync/ThinLock")
        .unwrap();
    assert_eq!(row.verdict, Verdict::Regressed);
    assert!(outcome.render().contains("REGRESSED"));

    // An improvement beyond tolerance passes and is labelled as such.
    let mut improved = baseline.clone();
    improved.benchmarks[0].value *= 0.25;
    let outcome = compare(&baseline, &improved, &Tolerances::default(), false);
    assert!(outcome.pass());
    assert_eq!(outcome.count(Verdict::Improved), 1);
}

#[test]
fn gate_round_trips_through_json() {
    // The real pipeline always goes through files; make sure verdicts
    // survive serialization of both sides.
    let baseline = sample_report();
    let mut regressed = baseline.clone();
    regressed.benchmarks[0].value *= 2.0;
    let b = BenchReport::from_json(&baseline.to_json()).unwrap();
    let c = BenchReport::from_json(&regressed.to_json()).unwrap();
    assert!(!compare(&b, &c, &Tolerances::default(), false).pass());
    let b2 = BenchReport::from_json(&baseline.to_json()).unwrap();
    assert!(compare(&b, &b2, &Tolerances::default(), false).pass());
}

/// The committed baseline report `BENCH_thinlock.json`.
fn baseline() -> BenchReport {
    BenchReport::from_json(include_str!("../BENCH_thinlock.json"))
        .expect("committed baseline parses")
}

/// The smoke test the check.sh fast tier relies on: a full `all` run at
/// tiny iteration counts must emit exactly the committed baseline's ids,
/// in the baseline's order, each with the baseline's class, direction
/// and unit. This is the slowest test in the suite (it replays every
/// trace three times per protocol), but it is what proves `reproduce
/// --json` and the committed baseline can never drift apart silently.
#[test]
fn tiny_all_run_emits_every_expected_id() {
    let baseline = baseline();
    let report = report::run_sections(&["all".to_string()], 300, 50_000, None, None)
        .expect("tiny reproduction run succeeds");
    let got: Vec<&str> = report.benchmarks.iter().map(|r| r.id.as_str()).collect();
    let want: Vec<&str> = baseline.benchmarks.iter().map(|r| r.id.as_str()).collect();
    if got != want {
        let missing: Vec<&&str> = want.iter().filter(|id| !got.contains(id)).collect();
        let extra: Vec<&&str> = got.iter().filter(|id| !want.contains(id)).collect();
        let first = got.iter().zip(&want).position(|(g, w)| g != w);
        panic!(
            "id drift from the baseline — missing: {missing:?}, unexpected: {extra:?}, \
             first differing position: {first:?} ({} emitted, {} in the baseline)",
            got.len(),
            want.len()
        );
    }
    for (cur, base) in report.benchmarks.iter().zip(&baseline.benchmarks) {
        assert_eq!(
            (cur.class, cur.direction, cur.unit.as_str()),
            (base.class, base.direction, base.unit.as_str()),
            "{}",
            cur.id
        );
    }
    // The report must also survive its own serialization.
    let parsed = BenchReport::from_json(&report.to_json()).unwrap();
    assert_eq!(parsed, report);
}

/// The `exact` records that do not depend on `--iters` or `--scale`: run
/// at the smoke settings, they must equal the committed baseline's
/// reference-config values, so tier-1 compares gated values and not
/// only ids. (`ablations/count_width/bits=1` depends on the trace
/// scale, so it is left to the full gate.)
#[test]
fn scale_independent_exact_records_match_the_baseline() {
    let baseline = baseline();
    let sections = ["ablations", "churn", "lockcheck", "profile"].map(String::from);
    let report = report::run_sections(&sections, 300, 50_000, None, None)
        .expect("smoke-setting run succeeds");
    let ids = [
        "lockcheck/programs",
        "lockcheck/diagnostics",
        "lockcheck/deadlock_cycles",
        "lockcheck/elidable_ops",
        "lockcheck/pre_inflation_hints",
        "profile/inflations/contention",
        "profile/inflations/overflow",
        "profile/inflations/wait",
        "profile/inflations/hint",
        "churn/thin/monitors_live",
        "churn/thin/inflations",
        "churn/cjm/monitors_live",
        "churn/cjm/inflations",
        "churn/cjm/monitors_peak",
        "churn/cjm/deflations",
        "ablations/phased/cjm_inflations",
        "ablations/phased/cjm_deflations",
    ];
    for id in ids {
        let want = baseline
            .find(id)
            .unwrap_or_else(|| panic!("{id} in baseline"));
        let got = report.find(id).unwrap_or_else(|| panic!("{id} emitted"));
        assert_eq!(want.class, GateClass::Exact, "{id}");
        assert_eq!(got.value, want.value, "{id}");
    }
}
