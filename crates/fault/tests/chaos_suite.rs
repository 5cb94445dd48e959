//! The seeded chaos sweep: ≥1000 randomized schedules through the
//! faulted protocol, every one cross-checked against the std-Mutex
//! oracle, with full injection-point catalog coverage asserted over
//! the sweep.

use thinlock::BackendChoice;
use thinlock_fault::{run_schedule, ChaosConfig, ChaosTotals};
use thinlock_runtime::fault::InjectionPoint;

/// The acceptance sweep: 1024 seeds, zero divergence, all 11 points.
#[test]
fn thousand_seed_sweep_converges_with_full_point_coverage() {
    let mut totals = ChaosTotals::default();
    let mut orphan_runs = 0u64;
    for seed in 0..1024u64 {
        let cfg = ChaosConfig::quick(seed);
        if cfg.kill_thread {
            orphan_runs += 1;
        }
        match run_schedule(cfg) {
            Ok(report) => totals.absorb(&report),
            Err(msg) => panic!("oracle divergence: {msg}"),
        }
    }
    assert_eq!(totals.runs, 1024);
    assert_eq!(orphan_runs, 256, "every 4th seed kills a thread mid-run");
    assert!(
        totals.report.orphaned,
        "kill runs exercised the orphan sweep"
    );
    assert!(
        totals.report.acquisitions > 10_000,
        "sweep did real work: {} acquisitions",
        totals.report.acquisitions
    );
    let unfired = totals.unfired_points();
    assert!(
        unfired.is_empty(),
        "injection points never exercised across 1024 seeds: {unfired:?}"
    );
    assert!(
        totals.report.total_fires() > 1000,
        "fault rate injected a real fault volume: {}",
        totals.report.total_fires()
    );
}

/// Replay: the same seed re-derives the same per-worker operation
/// streams, so the replay executes the identical op count. (Interleaving
/// — and therefore which ops contend or time out — still belongs to the
/// OS scheduler; the seed pins the *decisions*, not the clock.)
#[test]
fn same_seed_replays_same_operation_streams() {
    for seed in [3, 17, 92, 100] {
        let cfg = ChaosConfig::quick(seed);
        let a = run_schedule(cfg).expect("first run converges");
        let b = run_schedule(cfg).expect("replay converges");
        assert_eq!(a.ops, b.ops, "seed {seed}: op counts differ");
        assert_eq!(a.orphaned, b.orphaned, "seed {seed}: kill behavior differs");
    }
}

/// A fault-free schedule (rate 0) also converges, and injects nothing.
#[test]
fn zero_rate_schedule_is_clean() {
    let report = run_schedule(ChaosConfig {
        seed: 7,
        threads: 4,
        objects: 3,
        ops_per_thread: 50,
        fault_rate_ppm: 0,
        kill_thread: false,
        backend: BackendChoice::Thin,
        abort_at: None,
    })
    .expect("fault-free schedule converges");
    assert_eq!(report.total_fires(), 0);
    assert!(report.acquisitions > 0);
}

/// Cranking the rate to certainty on the always-applicable points still
/// converges: every injected action is legal, so the protocol must ride
/// it out.
#[test]
fn high_rate_schedule_survives() {
    let report = run_schedule(ChaosConfig {
        seed: 41,
        threads: 3,
        objects: 2,
        ops_per_thread: 20,
        fault_rate_ppm: 600_000,
        kill_thread: true,
        backend: BackendChoice::Thin,
        abort_at: None,
    })
    .expect("high-rate schedule converges");
    assert!(report.orphaned);
    assert!(report.fires[InjectionPoint::LockFastCas.index()] > 0);
}

/// The CJM backend survives the same 1024-seed faulted sweep the thin
/// protocol does, and the monitor population stays bounded: the peak
/// never exceeds the object count (one bound monitor per object — a
/// violated bound means a pool slot leaked through a faulted
/// inflate/deflate cycle, and `run_schedule` reports it as a
/// divergence), deflation actually happens across the sweep, and the
/// pool never deflates more than it inflated.
#[test]
fn cjm_monitor_population_stays_bounded_under_thousand_seed_chaos() {
    let mut totals = ChaosTotals::default();
    for seed in 0..1024u64 {
        let cfg = ChaosConfig::quick_on(seed, BackendChoice::Cjm);
        match run_schedule(cfg) {
            Ok(report) => {
                assert!(
                    report.deflations <= report.inflations,
                    "seed {seed}: {} deflations exceed {} inflations",
                    report.deflations,
                    report.inflations
                );
                totals.absorb(&report);
            }
            Err(msg) => panic!("oracle divergence under cjm: {msg}"),
        }
    }
    assert_eq!(totals.runs, 1024);
    assert!(
        totals.report.orphaned,
        "kill runs exercised the cjm orphan sweep"
    );
    assert!(
        totals.report.inflations > 0 && totals.report.deflations > 0,
        "sweep exercised the inflate/deflate cycle: {} inflations, {} deflations",
        totals.report.inflations,
        totals.report.deflations
    );
    assert!(
        totals.report.monitors_peak <= 4,
        "peak population {} exceeded the 4-object bound in some run",
        totals.report.monitors_peak
    );
    assert!(
        totals.report.total_fires() > 1000,
        "fault rate injected a real fault volume under cjm: {}",
        totals.report.total_fires()
    );
}
