//! Randomized integration tests: arbitrary well-formed lock traces
//! replay successfully and equivalently under every protocol, the
//! characterizer agrees with an independent reference computation, and
//! the thin protocol's event stream, counted by `LockStats`, agrees with
//! the characterizer. Driven by the in-repo deterministic PRNG.

use std::sync::Arc;

use thinlock::ThinLocks;
use thinlock_bench::ProtocolKind;
use thinlock_runtime::hooks::HookSet;
use thinlock_runtime::prng::Prng;
use thinlock_runtime::protocol::SyncProtocol;
use thinlock_runtime::stats::{LockScenario, LockStats};
use thinlock_trace::characterize::characterize;
use thinlock_trace::generator::{generate, quick_config, TraceConfig, TraceOp};
use thinlock_trace::replay::replay;
use thinlock_trace::table1::{BenchmarkProfile, MACRO_BENCHMARKS};

const CASES: usize = 48;

/// A random generator configuration — small enough to replay dozens of
/// cases quickly.
fn gen_config(rng: &mut Prng) -> TraceConfig {
    TraceConfig {
        scale: 1 + rng.next_below(u64::MAX / 2),
        seed: rng.next_u64(),
        max_objects: rng.range_u32(1, 201),
        max_lock_ops: 1 + rng.next_below(500),
        skew: rng.range_f64(1.5),
        work_per_sync: 0, // keep replays fast; work is timing-only
        work_per_alloc: 0,
    }
}

fn gen_profile_index(rng: &mut Prng) -> usize {
    rng.range_usize(0, MACRO_BENCHMARKS.len())
}

/// Every generated trace is well-formed by its own validator.
#[test]
fn generated_traces_validate() {
    let mut rng = Prng::seed_from_u64(0x4e91_0001);
    for _ in 0..CASES {
        let cfg = gen_config(&mut rng);
        let pi = gen_profile_index(&mut rng);
        let trace = generate(&MACRO_BENCHMARKS[pi], &cfg);
        assert!(trace.validate().is_ok());
        assert!(trace.lock_ops() >= u64::from(trace.sync_objects()));
    }
}

/// Generation is a pure function of (profile, config).
#[test]
fn generation_is_deterministic() {
    let mut rng = Prng::seed_from_u64(0x4e91_0002);
    for _ in 0..CASES {
        let cfg = gen_config(&mut rng);
        let pi = gen_profile_index(&mut rng);
        let a = generate(&MACRO_BENCHMARKS[pi], &cfg);
        let b = generate(&MACRO_BENCHMARKS[pi], &cfg);
        assert_eq!(a, b);
    }
}

/// The characterizer matches an independent reference computation.
#[test]
fn characterizer_matches_reference() {
    let mut rng = Prng::seed_from_u64(0x4e91_0003);
    for _ in 0..CASES {
        let cfg = gen_config(&mut rng);
        let pi = gen_profile_index(&mut rng);
        let trace = generate(&MACRO_BENCHMARKS[pi], &cfg);
        let c = characterize(&trace);

        // Reference computation, written differently on purpose.
        let mut allocs = 0u64;
        let mut locks = 0u64;
        let mut depth = std::collections::HashMap::new();
        let mut touched = std::collections::HashSet::new();
        let mut first_locks = 0u64;
        for op in trace.ops() {
            match *op {
                TraceOp::Alloc => allocs += 1,
                TraceOp::Lock(o) => {
                    locks += 1;
                    touched.insert(o);
                    let d = depth.entry(o).or_insert(0u32);
                    if *d == 0 {
                        first_locks += 1;
                    }
                    *d += 1;
                }
                TraceOp::Unlock(o) => {
                    *depth.get_mut(&o).unwrap() -= 1;
                }
                TraceOp::Work(_) => {}
            }
        }
        assert_eq!(c.objects_created, allocs);
        assert_eq!(c.sync_operations, locks);
        assert_eq!(c.synchronized_objects, touched.len() as u64);
        assert_eq!(c.depth_histogram[0], first_locks);
    }
}

/// Replay succeeds under every protocol and performs exactly the
/// trace's operations, leaving every monitor released.
#[test]
fn replay_is_protocol_independent() {
    let mut rng = Prng::seed_from_u64(0x4e91_0004);
    for _ in 0..CASES {
        let cfg = gen_config(&mut rng);
        let pi = gen_profile_index(&mut rng);
        let trace = generate(&MACRO_BENCHMARKS[pi], &cfg);
        let mut per_protocol = Vec::new();
        for kind in ProtocolKind::ALL_BACKENDS {
            let p = kind.build(trace.required_heap_capacity(), 0);
            let reg = p.registry().register().unwrap();
            let out = replay(&*p, &trace, reg.token()).unwrap();
            assert_eq!(out.lock_ops, trace.lock_ops());
            assert_eq!(out.unlock_ops, trace.lock_ops());
            assert_eq!(out.allocs, u64::from(trace.total_objects()));
            // Nothing is left held.
            for obj in p.heap().iter() {
                assert!(!p.holds_lock(obj, reg.token()));
            }
            per_protocol.push((out.allocs, out.lock_ops));
        }
        assert!(per_protocol.windows(2).all(|w| w[0] == w[1]));
    }
}

/// A pathological trace (deep nesting on one hot object, many cold
/// objects) exercises the same paths outside the randomized sweeps.
#[test]
fn pathological_trace_replays_everywhere() {
    // Every burst nests four deep (the paper's max), and a steep skew
    // sends nearly all of them to object 0 after the generator's first
    // pass has touched each of the 300 objects once.
    let profile = BenchmarkProfile {
        name: "pathological",
        description: "deep nesting on one hot object, many cold objects",
        app_bytecode_bytes: 0,
        lib_bytecode_bytes: 0,
        objects_created: 300,
        synchronized_objects: 300,
        sync_operations: 300 + 50 * 4,
        depth_fractions: [1.0; 4],
        paper_speedup_thin: 1.0,
        paper_speedup_ibm112: 1.0,
    };
    let cfg = TraceConfig {
        scale: 1,
        skew: 8.0,
        work_per_sync: 0,
        work_per_alloc: 0,
        ..TraceConfig::default()
    };
    let trace = generate(&profile, &cfg);
    assert_eq!(trace.lock_ops(), 300 + 50 * 4);
    assert_eq!(characterize(&trace).depth_histogram[..4], [350, 50, 50, 50]);
    let hot = trace
        .ops()
        .iter()
        .filter(|&&op| op == TraceOp::Lock(0))
        .count();
    assert!(hot > 150, "object 0 takes most bursts: {hot} locks");
    for kind in ProtocolKind::ALL_BACKENDS {
        let p = kind.build(trace.required_heap_capacity(), 0);
        let reg = p.registry().register().unwrap();
        let out = replay(&*p, &trace, reg.token()).unwrap();
        assert_eq!(out.lock_ops, trace.lock_ops(), "{kind}");
    }
}

/// The protocol's own event stream reproduces Figure 3: replaying
/// generated Table 1 traces under thin locks with a [`LockStats`] sink
/// attached counts exactly the nesting-depth histogram the characterizer
/// computes from the trace, one thin unlock per lock, and — the traces
/// being single-threaded — no contention, no fat lock and no inflation.
#[test]
fn lock_stats_reproduce_figure3_depth_histogram() {
    let cfg = TraceConfig {
        work_per_sync: 0,
        work_per_alloc: 0,
        ..quick_config()
    };
    for profile in &MACRO_BENCHMARKS {
        let trace = generate(profile, &cfg);
        let want = characterize(&trace);
        let stats = Arc::new(LockStats::new());
        let locks = ThinLocks::with_capacity(trace.required_heap_capacity())
            .with_hooks(HookSet::new().sink(Arc::clone(&stats) as _));
        let reg = locks.registry().register().unwrap();
        replay(&locks, &trace, reg.token()).unwrap();

        let got = stats.snapshot();
        let name = profile.name;
        assert_eq!(got.depth_histogram, want.depth_histogram, "{name}");
        assert_eq!(got.total_locks(), want.sync_operations, "{name}");
        assert_eq!(got.unlocks_thin, want.sync_operations, "{name}");
        for (scenario, count) in LockScenario::ALL.iter().zip(got.scenario_counts) {
            if matches!(
                scenario,
                LockScenario::ContendedThin
                    | LockScenario::FatUncontended
                    | LockScenario::FatContended
            ) {
                assert_eq!(count, 0, "{name}: {scenario}");
            }
        }
        assert_eq!(got.total_inflations(), 0, "{name}");
        assert_eq!(got.unlocks_fat, 0, "{name}");
    }
}
