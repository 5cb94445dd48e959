//! The benchmark's own checks: the span classifier, the library-1t call
//! count, failure accounting, and that short runs of every workload print
//! exactly the metrics `BENCHMARK.json` names.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lockbench::backends::{self, Backend, Tally, NAMES};
use lockbench::inputs::{self, LIBRARY_N};
use lockbench::run::{Config, Workload, SETUP_REPS};
use lockbench::spans::{self, Class, Span, SpanRecorder};
use lockbench::{churn, library, report};
use thinlock_obs::{parse, JsonValue};
use thinlock_runtime::protocol::WaitOutcome;
use thinlock_runtime::{Heap, ObjRef, SyncProtocol, SyncResult, ThreadRegistry, ThreadToken};
use thinlock_vm::Vm;

#[test]
fn classifier_follows_first_nested_inflate_deflate_fat() {
    for (b, name) in NAMES.iter().enumerate() {
        let backend = backends::build(b, 1, 0);
        let obj = backend.heap().alloc().unwrap();
        let reg = backend.registry().register().unwrap();
        let me = reg.token();
        let rec = SpanRecorder::new(backend.clone(), b, Instant::now());
        spans::take_thread_log();

        rec.lock(obj, me).unwrap();
        rec.lock(obj, me).unwrap();
        rec.notify(obj, me).unwrap();
        rec.unlock(obj, me).unwrap();
        rec.unlock(obj, me).unwrap();
        rec.lock(obj, me).unwrap();
        rec.unlock(obj, me).unwrap();

        let deflates = *name == "cjm";
        let expected = [
            Class::First,
            Class::Nested,
            Class::Notify,
            Class::Exit,
            Class::FatUnlock,
            if deflates { Class::First } else { Class::Fat },
            if deflates {
                Class::ThinUnlock
            } else {
                Class::FatUnlock
            },
        ];
        let log = spans::take_thread_log();
        let classes: Vec<Class> = log.spans.iter().map(|s| s.class).collect();
        assert_eq!(classes, expected, "{name}");
        assert_eq!(log.sums[b].locks(), 3, "{name}");
        assert_eq!(backend.inflation_count(), 1, "{name}: notify inflates");
        assert_eq!(
            backend.deflation_count(),
            u64::from(deflates),
            "{name}: only cjm deflates"
        );
        assert_eq!(backend.monitors_peak(), 1, "{name}");
        assert_eq!(backend.owner_of(obj), None, "{name}");
    }
}

#[test]
fn the_reference_machine_makes_main8s_calls_and_sums() {
    let machine = library::ReferenceMachine::default();
    let calls = library::request_calls(false);
    assert_eq!(calls, 178);
    // The method adds its argument 0..178 to one field and 3 to the other.
    for _ in 0..2 {
        assert_eq!(machine.request(), ((0..178).sum::<i32>(), 3 * 178));
    }
}

#[test]
fn library_calls_equal_traced_lock_spans() {
    assert_eq!(library::request_calls(false), 21 * 8 + 10);
    let program = inputs::library_program();
    for (b, name) in NAMES.iter().enumerate() {
        let backend = backends::build(b, 1, inputs::vector_fields(LIBRARY_N));
        let vector = backend.heap().alloc().unwrap();
        let reg = backend.registry().register().unwrap();
        let me = reg.token();
        let rec = SpanRecorder::new(backend.clone(), b, Instant::now());
        let vm = Vm::new(&rec, &program, vec![vector]).unwrap();
        for nested in [false, true] {
            spans::take_thread_log();
            let mut tally = Tally::default();
            let t0 = Instant::now();
            rec.begin_request();
            library::request(&vm, vector, me, nested, &mut tally);
            rec.end_request(me, t0, Instant::now());
            let log = spans::take_thread_log();
            let calls = library::request_calls(nested);
            assert_eq!(calls, 21 * LIBRARY_N as u64 + 10 + u64::from(nested));
            assert_eq!(
                tally,
                Tally {
                    attempted: calls,
                    failed: 0
                },
                "{name}"
            );
            assert_eq!(log.sums[b].locks(), calls, "{name} nested={nested}");
            assert_eq!(log.sums[b].child_locks, calls, "{name} nested={nested}");
            assert_eq!(log.sums[b].of(Class::Request).n, 1);
            assert!(log
                .spans
                .iter()
                .all(|s| s.class == Class::Request || s.request == 1));
        }
        assert_eq!(backend.inflation_count(), 0, "{name}");
    }
}

#[test]
fn the_span_file_has_one_header_for_every_thread() {
    let span = |thread| Span {
        class: Class::First,
        backend: 0,
        thread,
        start_ns: 1,
        end_ns: 2,
        request: 0,
    };
    let logs = [vec![span(1)], vec![span(2), span(2)]];
    let mut out = Vec::new();
    spans::write_spans(&mut out, logs.iter().flatten()).unwrap();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "{text}");
    assert!(lines[0].starts_with("name\t"), "{text}");
    assert!(
        lines[1..].iter().all(|l| l.starts_with("lock\tfirst\t")),
        "{text}"
    );
}

/// Forwards to a backend, except that unlock number `fail_at` is made
/// with another thread's token.
struct UnlockByOther {
    inner: Backend,
    other: ThreadToken,
    unlocks: AtomicU32,
    fail_at: u32,
}

impl SyncProtocol for UnlockByOther {
    fn lock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        self.inner.lock(obj, t)
    }
    fn unlock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        let n = self.unlocks.fetch_add(1, Ordering::Relaxed);
        let t = if n == self.fail_at { self.other } else { t };
        self.inner.unlock(obj, t)
    }
    fn wait(&self, obj: ObjRef, t: ThreadToken, d: Option<Duration>) -> SyncResult<WaitOutcome> {
        self.inner.wait(obj, t, d)
    }
    fn notify(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        self.inner.notify(obj, t)
    }
    fn notify_all(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        self.inner.notify_all(obj, t)
    }
    fn holds_lock(&self, obj: ObjRef, t: ThreadToken) -> bool {
        self.inner.holds_lock(obj, t)
    }
    fn heap(&self) -> &Heap {
        self.inner.heap()
    }
    fn registry(&self) -> &ThreadRegistry {
        self.inner.registry()
    }
    fn name(&self) -> &'static str {
        "UnlockByOther"
    }
}

#[test]
fn an_unlock_by_a_non_owner_drops_ok_ops_frac() {
    for (b, name) in NAMES.iter().enumerate() {
        let backend = backends::build(b, 4, 0);
        let objects: Vec<ObjRef> = (0..4).map(|_| backend.heap().alloc().unwrap()).collect();
        let mine = backend.registry().register().unwrap();
        let theirs = backend.registry().register().unwrap();
        let faulty = UnlockByOther {
            inner: Arc::clone(&backend),
            other: theirs.token(),
            unlocks: AtomicU32::new(0),
            // The second round's first unlock: the one after `notify`.
            fail_at: churn::ROUND_CALLS as u32,
        };
        let mut tally = Tally::default();
        for &obj in &objects {
            let result = churn::round(&faulty, obj, mine.token());
            churn::check_round(&*backend, obj, result, &mut tally);
        }
        assert_eq!(tally.attempted, 4 * churn::ROUND_CALLS, "{name}");
        assert_eq!(tally.failed, churn::ROUND_CALLS, "{name}: one round failed");
        assert!(tally.ok_frac() < 1.0 && tally.ok_frac() > 0.0, "{name}");
        assert_eq!(
            backend.owner_of(objects[1]),
            Some(mine.token().index()),
            "{name}: the failed round left its object held, which the check also sees"
        );
    }
}

fn names_and_units(spec: &JsonValue, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn short_runs_print_exactly_the_benchmark_metrics() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the root of the repository");
    let spec = parse(&text).unwrap();
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
        .collect();
    assert_eq!(workloads, ["library-1t", "contended-2t", "churn-1t"]);

    for workload in Workload::ALL {
        for trace in [false, true] {
            let config = Config {
                workload,
                seed: 7,
                duration: Duration::from_millis(300),
                trace,
            };
            let m = lockbench::run(config);
            let what = format!("{} trace={trace}", workload.name());
            let metrics = report::metrics(&m);
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|x| (x.name.clone(), x.unit.to_string()))
                .collect();
            let key = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(printed, names_and_units(&spec, key), "{what}");
            assert!(metrics.iter().all(|x| x.value.is_finite()), "{what}");

            let line = parse(&report::json_line(&m, &metrics)).unwrap();
            let keys: Vec<&str> = line
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{what}"
            );
            assert_eq!(
                line.get("correct").and_then(JsonValue::as_bool),
                Some(true),
                "{what}"
            );
            assert_eq!(
                line.get("failed").and_then(JsonValue::as_u64),
                Some(0),
                "{what}"
            );
            assert!(m.broken.is_empty(), "{what}: {:?}", m.broken);
            assert_eq!(m.setups.len(), SETUP_REPS, "{what}");
            assert_eq!(m.tally.ok_frac(), 1.0, "{what}");
            if !trace {
                let ok = metrics.iter().find(|x| x.name == "ok_ops_frac").unwrap();
                assert_eq!(ok.value, 1.0, "{what}");
                assert!(
                    metrics.iter().all(|x| x.value > 0.0),
                    "{what}: no end-to-end metric reads 0"
                );
            }

            // library-1t and contended-2t scale their timings by reference
            // slices, one per round like each backend's; churn-1t has none.
            let reference = m.reference.as_ref().map(|r| &r.phase);
            assert_eq!(reference.is_some(), workload != Workload::Churn, "{what}");
            if let Some(r) = reference {
                assert!(r.acquisitions > 0, "{what}");
                assert_eq!(r.slices.len(), m.untraced[0].slices.len(), "{what}");
            }

            let peaks: Vec<usize> = m.counters.iter().map(|c| c.monitors_peak).collect();
            match workload {
                Workload::Library => {
                    assert_eq!(peaks, [0, 0, 0, 0], "{what}");
                    assert!(m.counters.iter().all(|c| c.inflations_total == 0), "{what}");
                }
                Workload::Contended => {
                    // A 30 s run inflates all 16 objects under thin; a run
                    // this short may not reach every one of them.
                    assert!((1..=16).contains(&peaks[0]), "{what}: {peaks:?}");
                    assert_eq!(peaks[2..], [0, 0], "{what}: FIFO backends never inflate");
                }
                Workload::Churn => assert_eq!(
                    peaks,
                    [churn::OBJECTS, 1, churn::OBJECTS, churn::OBJECTS],
                    "{what}"
                ),
            }
        }
    }
}
