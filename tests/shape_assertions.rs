//! Coarse performance-*shape* assertions — the qualitative claims of the
//! paper's evaluation, checked with wide margins so they hold in debug
//! builds and on noisy hosts. Exact factors are reported by the
//! `reproduce` binary and recorded in EXPERIMENTS.md.

use std::sync::Mutex;

use thinlock_bench::{run_micro, ProtocolKind};

/// All tests in this binary measure wall time on (typically) a single
/// CPU; running them concurrently perturbs each other's numbers. Each
/// test holds this gate while measuring, serializing them regardless of
/// the test harness's thread count.
static MEASUREMENT_GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    MEASUREMENT_GATE.lock().unwrap_or_else(|e| e.into_inner())
}
use thinlock_trace::generator::{generate, TraceConfig};
use thinlock_trace::replay::replay;
use thinlock_trace::table1::{median, BenchmarkProfile, MACRO_BENCHMARKS};
use thinlock_vm::programs::MicroBench;

const ITERS: i32 = 30_000;

fn ns(kind: ProtocolKind, bench: MicroBench) -> f64 {
    // Min of three: a noise spike on a busy single-CPU host must not be
    // able to flip an ordering assertion.
    (0..3)
        .map(|_| run_micro(kind, bench, ITERS).ns_per_iter())
        .fold(f64::INFINITY, f64::min)
}

/// Min of `rounds` interleaved measurements per protocol: each round
/// measures every protocol once, so host load drift perturbs all of them
/// alike and a noise spike cannot flip an ordering assertion.
fn interleaved_min<const N: usize>(
    kinds: [ProtocolKind; N],
    bench: MicroBench,
    rounds: usize,
) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..rounds {
        for (best, &kind) in best.iter_mut().zip(&kinds) {
            *best = best.min(run_micro(kind, bench, ITERS).ns_per_iter());
        }
    }
    best
}

#[test]
fn thin_beats_monitor_cache_on_initial_locking() {
    let _gate = gate();
    // Paper: ThinLock 3.7x faster than JDK111 on Sync. Require >1.5x.
    let [thin, jdk] = interleaved_min(
        [ProtocolKind::ThinLock, ProtocolKind::Jdk111],
        MicroBench::Sync,
        5,
    );
    assert!(
        jdk > 1.5 * thin,
        "Sync: thin {thin:.0} ns vs jdk {jdk:.0} ns — expected a wide gap"
    );
}

#[test]
fn thin_beats_hot_locks_on_initial_locking() {
    let _gate = gate();
    // Paper: 1.8x over IBM112 on Sync. Debug builds blunt the thin fast
    // path's inlining advantage to the point where the two are nearly
    // tied (`hot_locks_sit_between_thin_and_cache` tolerates the same),
    // so in debug only reject a decisive thin loss; release builds must
    // show the real >1.2x gap. Interleave the repetitions so host load
    // drift perturbs both protocols alike, and take the min of nine, as
    // `hot_locks_sit_between_thin_and_cache` does, so one slow phase
    // during the thin rounds cannot flip the ratio.
    let required = if cfg!(debug_assertions) { 0.95 } else { 1.2 };
    let [thin, ibm] = interleaved_min(
        [ProtocolKind::ThinLock, ProtocolKind::Ibm112],
        MicroBench::Sync,
        9,
    );
    assert!(
        ibm > required * thin,
        "Sync: thin {thin:.0} ns vs ibm {ibm:.0} ns (required factor {required})"
    );
}

#[test]
fn hot_locks_sit_between_thin_and_cache() {
    let _gate = gate();
    // Take the min of nine interleaved measurements per protocol so a
    // noise spike on a busy single-CPU host cannot flip the ordering, and
    // allow a 10% margin on the thin/ibm comparison (debug builds blunt
    // the thin fast path's inlining advantage).
    let [thin, ibm, jdk] = interleaved_min(
        [
            ProtocolKind::ThinLock,
            ProtocolKind::Ibm112,
            ProtocolKind::Jdk111,
        ],
        MicroBench::Sync,
        9,
    );
    assert!(
        thin < ibm * 1.1 && ibm < jdk,
        "thin {thin:.0} <~ ibm {ibm:.0} < jdk {jdk:.0}"
    );
}

#[test]
fn no_sync_is_protocol_independent() {
    let _gate = gate();
    // The reference benchmark must not depend on the protocol: its loop
    // executes no locking bytecodes.
    let times: Vec<f64> = ProtocolKind::ALL
        .iter()
        .map(|&k| ns(k, MicroBench::NoSync))
        .collect();
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    let max = times.iter().copied().fold(0.0f64, f64::max);
    assert!(
        max < 2.0 * min,
        "NoSync should be roughly equal across protocols: {times:?}"
    );
}

#[test]
fn ibm112_collapses_past_32_hot_locks() {
    let _gate = gate();
    // The paper's MultiSync cliff: with a working set well beyond the 32
    // hot slots, IBM112's per-sync cost must rise substantially compared
    // to a small working set.
    let iters = 500;
    let small =
        run_micro(ProtocolKind::Ibm112, MicroBench::MultiSync(8), iters).ns_per_iter() / 8.0;
    let large =
        run_micro(ProtocolKind::Ibm112, MicroBench::MultiSync(256), iters).ns_per_iter() / 256.0;
    assert!(
        large > 1.3 * small,
        "IBM112 MultiSync per-sync: n=8 -> {small:.0} ns, n=256 -> {large:.0} ns"
    );
}

#[test]
fn thin_locks_scale_flat_on_multisync() {
    let _gate = gate();
    // "the thin lock implementation is the only one that scales linearly"
    // — per-object-sync cost must stay nearly constant across working-set
    // sizes.
    let iters = 500;
    let small =
        run_micro(ProtocolKind::ThinLock, MicroBench::MultiSync(8), iters).ns_per_iter() / 8.0;
    let large =
        run_micro(ProtocolKind::ThinLock, MicroBench::MultiSync(512), iters).ns_per_iter() / 512.0;
    assert!(
        large < 2.0 * small,
        "ThinLock MultiSync per-sync: n=8 -> {small:.0} ns, n=512 -> {large:.0} ns"
    );
}

#[test]
fn nested_locking_is_cheap_for_thin_locks() {
    let _gate = gate();
    // NestedSync under thin locks costs about the same as Sync (both are a
    // few instructions); it must never be drastically worse.
    let sync = ns(ProtocolKind::ThinLock, MicroBench::Sync);
    let nested = ns(ProtocolKind::ThinLock, MicroBench::NestedSync);
    assert!(
        nested < 1.8 * sync,
        "NestedSync {nested:.0} ns should be close to Sync {sync:.0} ns"
    );
}

#[test]
fn macro_speedup_shape_holds() {
    let _gate = gate();
    // Replay a representative subset at modest scale: thin must beat the
    // monitor cache on every benchmark, with sane magnitudes (the full
    // 18-benchmark sweep with paper-aggregate checks runs in `reproduce`
    // and the release-mode benches).
    let cfg = TraceConfig {
        scale: 10_000,
        seed: 1,
        max_objects: 2_000,
        max_lock_ops: 4_000,
        skew: 0.8,
        work_per_sync: 20,
        work_per_alloc: 160,
    };
    let mut speedups = Vec::new();
    for name in ["javac", "javalex", "HashJava", "mocha"] {
        let profile = BenchmarkProfile::by_name(name).unwrap();
        let trace = generate(profile, &cfg);
        let once = |kind: ProtocolKind| {
            let p = kind.build(trace.required_heap_capacity(), 0);
            let reg = p.registry().register().unwrap();
            replay(&*p, &trace, reg.token()).unwrap().elapsed
        };
        // Interleave the two protocols' repetitions so host-load drift on
        // a busy single-CPU machine perturbs both alike, and take mins so
        // a noise spike cannot flip the ratio.
        let mut thin = std::time::Duration::MAX;
        let mut jdk = std::time::Duration::MAX;
        for _ in 0..5 {
            thin = thin.min(once(ProtocolKind::ThinLock));
            jdk = jdk.min(once(ProtocolKind::Jdk111));
        }
        let s = jdk.as_secs_f64() / thin.as_secs_f64();
        // Per benchmark, only reject a clear loss; the median below
        // carries the actual "thin wins" claim.
        assert!(s > 0.8, "{name}: thin lost decisively (got {s:.2})");
        speedups.push(s);
    }
    let med = median(&mut speedups);
    assert!(
        med > 1.02 && med < 20.0,
        "median speedup {med:.2} should be a plausible Figure 5 value"
    );
}

#[test]
fn table1_identities_hold_for_all_profiles() {
    // Structural sanity of the workload model feeding every macro figure.
    for p in &MACRO_BENCHMARKS {
        assert!(p.sync_operations >= p.synchronized_objects);
        assert!(p.objects_created >= p.synchronized_objects);
        assert!(p.paper_speedup_thin >= 1.0);
    }
}
