//! Small thread programs over the real protocol, and the controlled
//! execution harness that runs them one schedule decision at a time.
//!
//! A [`McProgram`] gives each worker a straight-line list of [`McOp`]s
//! against a shared set of heap objects. [`run_execution`] builds a
//! fresh backend instance chosen by the program's [`BackendChoice`]
//! (optionally wrapped in a protocol mutant), spawns one OS thread per
//! worker under the [`CoopScheduler`], and drives the execution by
//! repeatedly asking a `pick` callback which enabled worker takes the
//! next step. After every step the invariant suite inspects the
//! quiescent state; the first violation ends the execution with the
//! offending decision sequence attached.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use thinlock::{BackendChoice, BackendSeams};
use thinlock_runtime::backend::SyncBackend;
use thinlock_runtime::events::TraceSink;
use thinlock_runtime::heap::ObjRef;
use thinlock_runtime::hooks::HookSet;
use thinlock_runtime::protocol::SyncProtocol;
use thinlock_runtime::registry::ThreadToken;
use thinlock_runtime::schedule::{SchedPoint, Schedule};

use crate::invariant::InvariantState;
use crate::mutate::{MutantProtocol, MutationKind};
use crate::sched::{CoopScheduler, Label, WorkerStatus, WorkerView};

/// One statement of a worker's straight-line program. Object operands
/// are indices into the program's object list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McOp {
    /// Acquire the object's lock (recursively if already held).
    Lock(usize),
    /// Release one level of the object's lock; must balance a `Lock`.
    Unlock(usize),
    /// Release attempted by a thread that does *not* hold the lock; the
    /// protocol must reject it. Its success is a balanced-ops violation.
    RogueUnlock(usize),
    /// `while !flag: wait(obj)` — waits until the object's condition
    /// flag is set. Must hold the object's lock.
    Wait(usize),
    /// Set the object's condition flag, then `notify(obj)`. Must hold
    /// the object's lock.
    NotifySet(usize),
}

/// A bounded multi-threaded program for the checker to explore.
#[derive(Debug, Clone)]
pub struct McProgram {
    /// Program name, used in reports.
    pub name: &'static str,
    /// One op list per worker.
    pub threads: Vec<Vec<McOp>>,
    /// Number of shared objects the ops index into.
    pub objects: usize,
    /// Padding objects allocated before the program objects, so program
    /// objects land at nonzero heap indices and carry nonzero header
    /// hash bits (making header-stomping bugs observable).
    pub pad_objects: usize,
    /// Program objects to inflate during set-up, before any worker
    /// runs; exercises the fat-lock entry-queue paths under contention.
    pub pre_inflate: Vec<usize>,
    /// Protocol mutation to run under, if any ([`MutationKind`]).
    pub mutation: Option<MutationKind>,
    /// Backend the execution instantiates. Picks the invariant set too:
    /// one-way inflation for the thin backend, deflation safety for
    /// deflation-capable ones.
    pub backend: BackendChoice,
}

impl McProgram {
    /// A correct-protocol program with one padding object and no
    /// pre-inflation.
    pub fn new(name: &'static str, objects: usize, threads: Vec<Vec<McOp>>) -> Self {
        McProgram {
            name,
            threads,
            objects,
            pad_objects: 1,
            pre_inflate: Vec::new(),
            mutation: None,
            backend: BackendChoice::Thin,
        }
    }

    /// The same program retargeted at another backend.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.threads.len()
    }
}

#[derive(Debug)]
struct DriverInner {
    /// Model lock depth per worker per object: incremented after a
    /// `lock` returns, decremented after an `unlock` returns, so at
    /// every quiescent state it reflects exactly the completed ops.
    depth: Vec<Vec<u32>>,
    /// The object a worker is inside a `Wait` op for, if any. Such a
    /// worker logically holds the lock but has physically released it.
    waiting_on: Vec<Option<usize>>,
    /// First observed divergence between an op's expected and actual
    /// outcome.
    violation: Option<String>,
}

/// Shared ground-truth model the worker bodies maintain as their ops
/// complete; the invariant suite compares it against the physical lock
/// words at every quiescent state.
#[derive(Debug)]
pub struct DriverState {
    inner: Mutex<DriverInner>,
    /// Condition flags, one per object, for `Wait`/`NotifySet`. Read and
    /// written only while holding the object's lock.
    flags: Vec<AtomicBool>,
}

impl DriverState {
    fn new(workers: usize, objects: usize) -> Self {
        DriverState {
            inner: Mutex::new(DriverInner {
                depth: vec![vec![0; objects]; workers],
                waiting_on: vec![None; workers],
                violation: None,
            }),
            flags: (0..objects).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    fn record_violation(&self, msg: String) {
        let mut inner = self.inner.lock().unwrap();
        if inner.violation.is_none() {
            inner.violation = Some(msg);
        }
    }

    fn bump_depth(&self, w: usize, o: usize, delta: i64) {
        let mut inner = self.inner.lock().unwrap();
        let d = &mut inner.depth[w][o];
        *d = (i64::from(*d) + delta) as u32;
    }

    fn set_waiting(&self, w: usize, o: Option<usize>) {
        self.inner.lock().unwrap().waiting_on[w] = o;
    }

    /// Takes the first recorded outcome mismatch, if any.
    pub fn take_violation(&self) -> Option<String> {
        self.inner.lock().unwrap().violation.take()
    }

    /// Snapshot of (depths, waiting_on) for the invariant suite.
    pub fn model(&self) -> (Vec<Vec<u32>>, Vec<Option<usize>>) {
        let inner = self.inner.lock().unwrap();
        (inner.depth.clone(), inner.waiting_on.clone())
    }
}

/// Runs one worker's op list against the protocol, keeping the model in
/// `driver` in sync. Stops at the first op whose outcome diverges from
/// the model's expectation (recording the divergence).
fn worker_body(
    proto: &dyn SyncProtocol,
    sched: &CoopScheduler,
    driver: &DriverState,
    objs: &[ObjRef],
    t: ThreadToken,
    w: usize,
    ops: &[McOp],
) {
    for (i, op) in ops.iter().enumerate() {
        match *op {
            McOp::Lock(o) => match proto.lock(objs[o], t) {
                Ok(()) => driver.bump_depth(w, o, 1),
                Err(e) => {
                    driver.record_violation(format!("worker {w} op {i}: lock(obj{o}) failed: {e}"));
                    return;
                }
            },
            McOp::Unlock(o) => match proto.unlock(objs[o], t) {
                Ok(()) => driver.bump_depth(w, o, -1),
                Err(e) => {
                    driver
                        .record_violation(format!("worker {w} op {i}: unlock(obj{o}) failed: {e}"));
                    return;
                }
            },
            McOp::RogueUnlock(o) => {
                // The rejected-release path inside the protocol passes
                // no schedule point (it fails before any store), which
                // would leave this op unlabeled and let DPOR commute it
                // past everything. Block at an explicit release-labeled
                // point first so the explorer interleaves the rogue
                // attempt against genuine ops on the same object.
                let _ = sched.reached(SchedPoint::UnlockThin, Some(objs[o]));
                if proto.unlock(objs[o], t).is_ok() {
                    driver.record_violation(format!(
                        "worker {w} op {i}: unlock(obj{o}) by a non-owner succeeded"
                    ));
                    return;
                }
            }
            McOp::Wait(o) => {
                driver.set_waiting(w, Some(o));
                while !driver.flags[o].load(Ordering::Acquire) {
                    if let Err(e) = proto.wait(objs[o], t, None) {
                        driver.record_violation(format!(
                            "worker {w} op {i}: wait(obj{o}) failed: {e}"
                        ));
                        driver.set_waiting(w, None);
                        return;
                    }
                }
                driver.set_waiting(w, None);
            }
            McOp::NotifySet(o) => {
                driver.flags[o].store(true, Ordering::Release);
                if let Err(e) = proto.notify(objs[o], t) {
                    driver
                        .record_violation(format!("worker {w} op {i}: notify(obj{o}) failed: {e}"));
                    return;
                }
            }
        }
    }
}

/// Whether the step a worker is blocked at can make progress if granted.
/// Always-true points simply execute; the three gated points are the
/// spin round (progresses only once the word is acquirable), the entry
/// park (only once the monitor is unowned — barging is allowed), and
/// the wait park (only once a notify moved the waiter out of the wait
/// set).
fn label_enabled(backend: &(impl SyncBackend + ?Sized), token: ThreadToken, label: Label) -> bool {
    let (point, obj) = label;
    let Some(obj) = obj else { return true };
    match point {
        SchedPoint::LockSpin => backend.spin_enabled(obj, token),
        SchedPoint::FatPark => backend
            .monitor_probe(obj)
            .map(|m| m.owner.is_none())
            .unwrap_or(true),
        SchedPoint::WaitPark => !backend.in_wait_set(obj, token),
        _ => true,
    }
}

/// One granted step: who moved, from which labeled point, and the full
/// pre-step context (every worker's pending label and the enabled set),
/// which the DPOR engine needs for backtrack-point computation.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Worker granted the step.
    pub worker: usize,
    /// The labeled point the worker was blocked at.
    pub label: Label,
    /// Workers that were enabled in the pre-step state.
    pub enabled: Vec<usize>,
    /// Every worker's pending label in the pre-step state (`None` for
    /// finished workers).
    pub labels: Vec<Option<Label>>,
}

/// An invariant violation: the invariant's stable name plus a
/// human-readable detail line.
pub type Violation = (&'static str, String);

/// The outcome of one controlled execution.
#[derive(Debug, Default)]
pub struct ExecutionRecord {
    /// The granted steps, in order. This *is* the schedule.
    pub steps: Vec<StepRecord>,
    /// First invariant violation observed, if any.
    pub violation: Option<Violation>,
    /// True if the `pick` callback stopped the execution early (a
    /// redundant sleep-set branch or an infeasible replay).
    pub aborted: bool,
    /// True if the step budget ran out before the program finished.
    pub truncated: bool,
}

/// The `pick` callback's decision at a quiescent state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    /// Grant this worker (must be in the enabled set).
    Grant(usize),
    /// Abandon the execution (workers are aborted and drained).
    Stop,
}

/// Runs `program` once under the scheduler, granting steps as `pick`
/// directs. `pick` receives the step index, every worker's view, and
/// the enabled set; it is only called when at least one worker is
/// enabled. `sink` is attached to the protocol for counterexample
/// replay. Panics from worker bodies (other than controlled aborts)
/// propagate.
pub fn run_execution(
    program: &McProgram,
    sched: &Arc<CoopScheduler>,
    sink: Option<Arc<dyn TraceSink>>,
    max_steps: usize,
    mut pick: impl FnMut(usize, &[WorkerView], &[usize]) -> Pick,
) -> ExecutionRecord {
    let n = program.workers();
    let backend = program.backend.build_with(
        program.pad_objects + program.objects,
        BackendSeams {
            hooks: Some(sink.into_iter().fold(
                HookSet::new().schedule(Arc::clone(sched) as _),
                HookSet::sink,
            )),
            ..BackendSeams::default()
        },
    );

    for _ in 0..program.pad_objects {
        backend.heap().alloc().expect("padding object fits");
    }
    let objs: Vec<ObjRef> = (0..program.objects)
        .map(|_| backend.heap().alloc().expect("program object fits"))
        .collect();
    for &o in &program.pre_inflate {
        assert!(
            backend.pre_inflate_hint(objs[o]),
            "pre-inflation succeeds on a fresh object"
        );
    }

    let regs: Vec<_> = (0..n)
        .map(|_| backend.registry().register().expect("worker registers"))
        .collect();
    let tokens: Vec<ThreadToken> = regs.iter().map(|r| r.token()).collect();

    let mutant = program
        .mutation
        .map(|kind| MutantProtocol::new(Arc::clone(&backend), kind, Arc::clone(sched)));
    let proto: &dyn SyncProtocol = match &mutant {
        Some(m) => m,
        None => backend.as_ref(),
    };

    let driver = DriverState::new(n, program.objects);
    let mut invariants = InvariantState::new(backend.as_ref(), &objs);
    sched.reset(n);

    std::thread::scope(|s| {
        for (w, &token) in tokens.iter().enumerate() {
            let sched = Arc::clone(sched);
            let driver = &driver;
            let objs = &objs;
            let ops = &program.threads[w];
            s.spawn(move || {
                crate::sched::run_worker(&sched, w, || {
                    worker_body(proto, &sched, driver, objs, token, w, ops);
                });
            });
        }

        let mut rec = ExecutionRecord::default();
        loop {
            let views = sched.wait_quiescent();
            if let Some(msg) = driver.take_violation() {
                rec.violation = Some(("balanced-ops", msg));
            } else if let Some(v) =
                invariants.check_state(backend.as_ref(), &objs, &tokens, &driver)
            {
                rec.violation = Some(v);
            }
            let all_finished = views.iter().all(|v| v.status == WorkerStatus::Finished);
            if rec.violation.is_some() {
                if !all_finished {
                    sched.abort_all();
                    sched.wait_all_finished();
                }
                break;
            }
            if all_finished {
                rec.violation = invariants.check_end(backend.as_ref(), &objs, &tokens, &driver);
                break;
            }
            let enabled: Vec<usize> = views
                .iter()
                .enumerate()
                .filter(|(w, v)| {
                    v.status == WorkerStatus::Blocked
                        && v.pending
                            .map(|l| label_enabled(backend.as_ref(), tokens[*w], l))
                            .unwrap_or(false)
                })
                .map(|(w, _)| w)
                .collect();
            if enabled.is_empty() {
                let stuck: Vec<String> = views
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| v.status == WorkerStatus::Blocked)
                    .map(|(w, v)| {
                        let (p, o) = v.pending.expect("blocked worker has a label");
                        format!(
                            "worker {w} stuck at {p}{}",
                            o.map(|o| format!("(heap#{})", o.index()))
                                .unwrap_or_default()
                        )
                    })
                    .collect();
                rec.violation = Some((
                    "no-lost-wakeup",
                    format!("quiescent deadlock: {}", stuck.join(", ")),
                ));
                sched.abort_all();
                sched.wait_all_finished();
                break;
            }
            if rec.steps.len() >= max_steps {
                rec.truncated = true;
                sched.abort_all();
                sched.wait_all_finished();
                break;
            }
            match pick(rec.steps.len(), &views, &enabled) {
                Pick::Grant(w) => {
                    assert!(enabled.contains(&w), "picked worker {w} is not enabled");
                    rec.steps.push(StepRecord {
                        worker: w,
                        label: views[w].pending.expect("enabled worker has a label"),
                        enabled: enabled.clone(),
                        labels: views.iter().map(|v| v.pending).collect(),
                    });
                    sched.grant(w);
                }
                Pick::Stop => {
                    rec.aborted = true;
                    sched.abort_all();
                    sched.wait_all_finished();
                    break;
                }
            }
        }
        drop(regs);
        rec
    })
}

/// Runs arbitrary worker bodies under the scheduler against a caller-
/// built protocol instance — the custom-harness sibling of
/// [`run_execution`] for workloads the [`McOp`] language cannot express
/// (e.g. exhaustive exploration of VM bytecode programs). The caller
/// constructs the backend with the scheduler attached (e.g.
/// `ThinLocks::with_hooks` with a `HookSet` holding the schedule and
/// any trace sink), registers one
/// token per body (used for enabledness of the gated park/spin points),
/// and supplies one closure per worker. No invariant suite or op model
/// runs; the only violation this harness itself reports is a quiescent
/// deadlock. Bodies that panic propagate after the worker is drained.
pub fn run_bodies<'a, B: SyncBackend + ?Sized>(
    backend: &Arc<B>,
    sched: &Arc<CoopScheduler>,
    tokens: &[ThreadToken],
    bodies: Vec<Box<dyn FnOnce() + Send + 'a>>,
    max_steps: usize,
    mut pick: impl FnMut(usize, &[WorkerView], &[usize]) -> Pick,
) -> ExecutionRecord {
    let n = bodies.len();
    assert_eq!(tokens.len(), n, "one token per body");
    sched.reset(n);

    std::thread::scope(|s| {
        for (w, body) in bodies.into_iter().enumerate() {
            let sched = Arc::clone(sched);
            s.spawn(move || {
                crate::sched::run_worker(&sched, w, body);
            });
        }

        let mut rec = ExecutionRecord::default();
        loop {
            let views = sched.wait_quiescent();
            if views.iter().all(|v| v.status == WorkerStatus::Finished) {
                break;
            }
            let enabled: Vec<usize> = views
                .iter()
                .enumerate()
                .filter(|(w, v)| {
                    v.status == WorkerStatus::Blocked
                        && v.pending
                            .map(|l| label_enabled(backend.as_ref(), tokens[*w], l))
                            .unwrap_or(false)
                })
                .map(|(w, _)| w)
                .collect();
            if enabled.is_empty() {
                rec.violation = Some((
                    "no-lost-wakeup",
                    "quiescent deadlock in custom-body execution".to_string(),
                ));
                sched.abort_all();
                sched.wait_all_finished();
                break;
            }
            if rec.steps.len() >= max_steps {
                rec.truncated = true;
                sched.abort_all();
                sched.wait_all_finished();
                break;
            }
            match pick(rec.steps.len(), &views, &enabled) {
                Pick::Grant(w) => {
                    assert!(enabled.contains(&w), "picked worker {w} is not enabled");
                    rec.steps.push(StepRecord {
                        worker: w,
                        label: views[w].pending.expect("enabled worker has a label"),
                        enabled: enabled.clone(),
                        labels: views.iter().map(|v| v.pending).collect(),
                    });
                    sched.grant(w);
                }
                Pick::Stop => {
                    rec.aborted = true;
                    sched.abort_all();
                    sched.wait_all_finished();
                    break;
                }
            }
        }
        rec
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Default free-run policy: prefer the previously granted worker,
    /// else the lowest-numbered enabled one.
    fn default_pick() -> impl FnMut(usize, &[WorkerView], &[usize]) -> Pick {
        let mut last: Option<usize> = None;
        move |_, _, enabled| {
            let w = match last {
                Some(p) if enabled.contains(&p) => p,
                _ => enabled[0],
            };
            last = Some(w);
            Pick::Grant(w)
        }
    }

    #[test]
    fn thin_nest_program_runs_clean() {
        let program = McProgram::new(
            "thin-nest",
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
        );
        let sched = Arc::new(CoopScheduler::new());
        let rec = run_execution(&program, &sched, None, 10_000, default_pick());
        assert_eq!(rec.violation, None);
        assert!(!rec.truncated);
        assert!(rec.steps.len() >= 2, "at least the two boundary steps ran");
    }

    #[test]
    fn wait_notify_program_runs_clean() {
        let program = McProgram::new(
            "wait-notify",
            1,
            vec![
                vec![McOp::Lock(0), McOp::Wait(0), McOp::Unlock(0)],
                vec![McOp::Lock(0), McOp::NotifySet(0), McOp::Unlock(0)],
            ],
        );
        let sched = Arc::new(CoopScheduler::new());
        let rec = run_execution(&program, &sched, None, 10_000, default_pick());
        assert_eq!(rec.violation, None, "steps: {:?}", rec.steps.len());
    }

    #[test]
    fn rogue_unlock_is_rejected_by_correct_protocol() {
        let program = McProgram::new(
            "rogue",
            1,
            vec![
                vec![McOp::Lock(0), McOp::Unlock(0)],
                vec![McOp::RogueUnlock(0)],
            ],
        );
        let sched = Arc::new(CoopScheduler::new());
        let rec = run_execution(&program, &sched, None, 10_000, default_pick());
        assert_eq!(rec.violation, None);
    }

    #[test]
    fn pre_inflated_contention_runs_clean() {
        let mut program = McProgram::new(
            "contended-fat",
            1,
            vec![vec![McOp::Lock(0), McOp::Unlock(0)]; 3],
        );
        program.pre_inflate = vec![0];
        let sched = Arc::new(CoopScheduler::new());
        let rec = run_execution(&program, &sched, None, 10_000, default_pick());
        assert_eq!(rec.violation, None);
    }
}
