//! End-to-end crash-matrix slice against the real `chaos-agent`
//! binary: an agent armed with `--abort-at` must be observed dying
//! mid-protocol, leave no torn artifact, and converge clean on the
//! seeded disarmed retry. The full backend × point matrix runs from
//! `scripts/supervise.sh --full`; this test keeps a representative
//! slice in `cargo test` (one cell per backend, two extra points on
//! thin) so regressions surface without shell tooling.

use std::path::PathBuf;
use std::time::Duration;

use thinlock::BackendChoice;
use thinlock_fault::supervise::{crash_matrix, supervise, AgentSpec, Outcome, SupervisorConfig};
use thinlock_obs::parse::parse;
use thinlock_runtime::fault::InjectionPoint;

fn agent_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_chaos-agent"))
}

fn cfg(seed: u64) -> SupervisorConfig {
    SupervisorConfig {
        seed,
        // Generous budgets: the agents share a small host (the reference
        // host has 2 vCPUs) with the other tests, and the release agent
        // is built on demand.
        deadline: Duration::from_secs(60),
        heartbeat_grace: Duration::from_secs(30),
        max_retries: 1,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        quorum_percent: 100,
    }
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("thinlock-matrix-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn matrix_slice_passes_on_every_backend() {
    let dir = workdir("slice");
    let report = crash_matrix(
        &cfg(1001),
        &agent_bin(),
        &dir,
        &BackendChoice::ALL,
        &[InjectionPoint::LockFastCas],
    );
    assert_eq!(report.cells.len(), BackendChoice::ALL.len());
    assert!(
        report.failures().is_empty(),
        "matrix slice failed: {}",
        report.to_json()
    );
    let doc = parse(&report.to_json()).expect("matrix report is valid JSON");
    assert_eq!(doc.get("pass").and_then(|v| v.as_bool()), Some(true));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn matrix_covers_slow_path_points_on_thin() {
    let dir = workdir("points");
    let report = crash_matrix(
        &cfg(2002),
        &agent_bin(),
        &dir,
        &[BackendChoice::Thin],
        &[InjectionPoint::Inflate, InjectionPoint::UnlockStore],
    );
    assert!(
        report.failures().is_empty(),
        "thin slow-path cells failed: {}",
        report.to_json()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn matrix_is_deterministic_given_the_supervisor_seed() {
    let dir = workdir("det");
    let run = || {
        crash_matrix(
            &cfg(3003),
            &agent_bin(),
            &dir,
            &[BackendChoice::Cjm],
            &[InjectionPoint::MonitorAllocate],
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.cells.len(), 1);
    assert_eq!(a.cells[0].crash_seed, b.cells[0].crash_seed);
    assert_eq!(a.cells[0].probes, b.cells[0].probes);
    assert_eq!(a.cells[0].pass(), b.cells[0].pass());
    assert!(a.failures().is_empty(), "{}", a.to_json());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The supervisor end-to-end over real agents: one is armed to abort on
/// its first attempt (crash observed), all converge after retries, the
/// degradation report carries the full history.
#[test]
fn supervise_recovers_real_aborting_agent() {
    let agent = agent_bin();
    let mk = |id: &str, extra: Vec<String>| AgentSpec {
        id: id.to_string(),
        program: agent.clone(),
        args: vec![
            "--backend".into(),
            "thin".into(),
            "--seed".into(),
            "{seed}".into(),
            "--ops".into(),
            "40".into(),
        ],
        first_attempt_extra: extra,
    };
    let specs = vec![
        mk("steady", Vec::new()),
        mk("armed", vec!["--abort-at".into(), "lock-fast-cas".into()]),
    ];
    let report = supervise(&cfg(4004), &specs);
    assert!(report.quorum_met(), "{}", report.to_json());
    let steady = &report.agents[0];
    assert_eq!(steady.final_outcome(), Outcome::Clean);
    assert_eq!(steady.attempts.len(), 1);
    assert!(
        steady.attempts[0].heartbeats >= 1,
        "agent heartbeat observed"
    );
    let armed = &report.agents[1];
    assert_eq!(armed.attempts[0].outcome, Outcome::Crash);
    assert_eq!(
        armed.attempts[0].exit_code, None,
        "abort dies by signal, not exit code"
    );
    assert_eq!(armed.final_outcome(), Outcome::Clean);
    assert_eq!(armed.backoffs_ns.len(), 1);
}
