//! The one instrumentation seam between a lock protocol and the
//! harnesses that steer or observe it.
//!
//! Three harnesses need to reach inside the protocol: the model checker
//! owns the interleaving through a [`Schedule`], the chaos harness
//! perturbs it through a [`FaultInjector`], and observability consumes
//! the event stream through [`TraceSink`]s (the statistics counters of
//! [`LockStats`](crate::stats::LockStats) among them). [`Hooks`] is the
//! single seam all three attach through, with two calls:
//!
//! * [`Hooks::before`] is consulted at a [`Site`] before its step takes
//!   effect. A site carries the [`SchedPoint`] the schedule is announced,
//!   the [`InjectionPoint`] the injector is asked about, or both; the
//!   answer is the [`FaultAction`] the site applies.
//! * [`Hooks::after`] is told about a [`TraceEventKind`] once the step it
//!   describes has happened.
//!
//! [`NoHooks`] is the zero-sized default: both calls are empty and
//! inline, so a protocol instantiated with it carries no seam branch at
//! all. [`HookSet`] is the dynamic hook the harnesses attach: it fans
//! `before` out to an optional schedule and an optional injector (in
//! that order) and `after` out to any number of sinks.
//!
//! # Example
//!
//! A counting sink attached through a [`HookSet`]:
//!
//! ```
//! use std::sync::Arc;
//! use thinlock_runtime::events::TraceEventKind;
//! use thinlock_runtime::hooks::{HookSet, Hooks};
//! use thinlock_runtime::stats::LockStats;
//!
//! let stats = Arc::new(LockStats::new());
//! let hooks = HookSet::new().sink(Arc::clone(&stats) as _);
//! hooks.after(None, None, TraceEventKind::AcquireUnlocked);
//! assert_eq!(stats.snapshot().total_locks(), 1);
//! ```

use std::fmt;
use std::sync::Arc;

use crate::events::{TraceEventKind, TraceSink};
use crate::fault::{FaultAction, FaultInjector, InjectionPoint};
use crate::heap::ObjRef;
use crate::lockword::ThreadIndex;
use crate::schedule::{SchedAction, SchedPoint, Schedule};

/// One place in the protocol where [`Hooks::before`] is consulted: the
/// schedule point announced there, the injection point decided there,
/// or both (the schedule answers first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    /// The schedule point, if the site has one.
    pub sched: Option<SchedPoint>,
    /// The injection point, if the site has one.
    pub fault: Option<InjectionPoint>,
}

impl Site {
    /// A site with only a schedule point.
    pub const fn sched(point: SchedPoint) -> Site {
        Site {
            sched: Some(point),
            fault: None,
        }
    }

    /// A site with only an injection point.
    pub const fn fault(point: InjectionPoint) -> Site {
        Site {
            sched: None,
            fault: Some(point),
        }
    }

    /// A site with both: the schedule is announced, then the injector
    /// decides.
    pub const fn both(sched: SchedPoint, fault: InjectionPoint) -> Site {
        Site {
            sched: Some(sched),
            fault: Some(fault),
        }
    }
}

/// The instrumentation a protocol consults before its steps and tells
/// about its events.
///
/// Implementations must be `Send + Sync`. [`before`](Hooks::before) may
/// block (a serializing schedule holds the thread there) but every site
/// sits outside the protocol's internal mutexes. [`after`](Hooks::after)
/// must not block or allocate: it runs on the lock and unlock fast paths.
pub trait Hooks: Send + Sync {
    /// Consulted at `site` on `obj` (when the site knows the object)
    /// before the step; the site applies the returned action where it is
    /// applicable and proceeds normally otherwise.
    fn before(&self, site: Site, obj: Option<ObjRef>) -> FaultAction;

    /// Told that `thread` (if one performed it) produced `event` on
    /// `obj` (if it concerns one).
    fn after(&self, thread: Option<ThreadIndex>, obj: Option<ObjRef>, event: TraceEventKind);

    /// The sink the protocol exposes through
    /// [`SyncProtocol::trace_sink`](crate::protocol::SyncProtocol::trace_sink),
    /// so code outside the protocol (the VM's field accesses, elision
    /// credits) reaches the same sinks. `None` when nothing records.
    fn trace_sink(&self) -> Option<&dyn TraceSink> {
        None
    }
}

/// No instrumentation: every site proceeds and every event is dropped.
/// Zero-sized, and both calls inline to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl Hooks for NoHooks {
    #[inline(always)]
    fn before(&self, _site: Site, _obj: Option<ObjRef>) -> FaultAction {
        FaultAction::Proceed
    }

    #[inline(always)]
    fn after(&self, _thread: Option<ThreadIndex>, _obj: Option<ObjRef>, _event: TraceEventKind) {}
}

impl<T: Hooks + ?Sized> Hooks for Arc<T> {
    #[inline]
    fn before(&self, site: Site, obj: Option<ObjRef>) -> FaultAction {
        (**self).before(site, obj)
    }

    #[inline]
    fn after(&self, thread: Option<ThreadIndex>, obj: Option<ObjRef>, event: TraceEventKind) {
        (**self).after(thread, obj, event);
    }

    #[inline]
    fn trace_sink(&self) -> Option<&dyn TraceSink> {
        (**self).trace_sink()
    }
}

/// The dynamic hook: one optional [`Schedule`], one optional
/// [`FaultInjector`] and any number of [`TraceSink`]s.
///
/// At a site with both points the schedule is announced first and the
/// injector decides second, once each. A schedule answering
/// [`SchedAction::SkipPark`] at a park point skips the park, and the
/// injector is not consulted there: the site sees
/// [`FaultAction::SpuriousWake`], which is all a skipped park shows its
/// caller. An injector answering [`FaultAction::Abort`] aborts the
/// process at the site.
///
/// ```
/// use std::sync::Arc;
/// use thinlock_runtime::fault::{FaultAction, FaultInjector, InjectionPoint};
/// use thinlock_runtime::hooks::{HookSet, Hooks, Site};
///
/// #[derive(Debug)]
/// struct FailCas;
/// impl FaultInjector for FailCas {
///     fn decide(&self, _: InjectionPoint) -> FaultAction {
///         FaultAction::FailCas
///     }
/// }
///
/// let hooks = HookSet::new().fault_injector(Arc::new(FailCas));
/// let site = Site::fault(InjectionPoint::LockFastCas);
/// assert_eq!(hooks.before(site, None), FaultAction::FailCas);
/// assert!(hooks.trace_sink().is_none(), "no sinks, nothing to expose");
/// ```
#[derive(Default)]
pub struct HookSet {
    schedule: Option<Arc<dyn Schedule>>,
    injector: Option<Arc<dyn FaultInjector>>,
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl HookSet {
    /// A hook with nothing attached.
    pub fn new() -> Self {
        HookSet::default()
    }

    /// Attaches the cooperative schedule, replacing any earlier one.
    #[must_use]
    pub fn schedule(mut self, schedule: Arc<dyn Schedule>) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Attaches the fault injector, replacing any earlier one.
    #[must_use]
    pub fn fault_injector(mut self, injector: Arc<dyn FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Adds one more event sink; events reach sinks in the order added.
    #[must_use]
    pub fn sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sinks.push(sink);
        self
    }
}

impl Hooks for HookSet {
    fn before(&self, site: Site, obj: Option<ObjRef>) -> FaultAction {
        if let (Some(point), Some(schedule)) = (site.sched, &self.schedule) {
            if schedule.reached(point, obj) == SchedAction::SkipPark && point.is_park() {
                return FaultAction::SpuriousWake;
            }
        }
        match (site.fault, &self.injector) {
            (Some(point), Some(injector)) => match injector.decide(point) {
                // A conforming injector aborts inside `decide`; this backstop
                // makes one that returns the action crash at the site too.
                FaultAction::Abort => std::process::abort(),
                action => action,
            },
            _ => FaultAction::Proceed,
        }
    }

    #[inline]
    fn after(&self, thread: Option<ThreadIndex>, obj: Option<ObjRef>, event: TraceEventKind) {
        self.record(thread, obj, event);
    }

    fn trace_sink(&self) -> Option<&dyn TraceSink> {
        (!self.sinks.is_empty()).then_some(self as &dyn TraceSink)
    }
}

/// A `HookSet` is itself a sink that fans each event out to its sinks.
impl TraceSink for HookSet {
    #[inline]
    fn record(&self, thread: Option<ThreadIndex>, obj: Option<ObjRef>, kind: TraceEventKind) {
        for sink in &self.sinks {
            sink.record(thread, obj, kind);
        }
    }
}

impl fmt::Debug for HookSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HookSet")
            .field("schedule", &self.schedule.is_some())
            .field("injector", &self.injector.is_some())
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Logs every consultation so order and counts can be asserted.
    #[derive(Debug, Default)]
    struct Log(Mutex<Vec<String>>);

    impl Log {
        fn take(&self) -> Vec<String> {
            std::mem::take(&mut self.0.lock().unwrap())
        }
    }

    impl Schedule for Log {
        fn reached(&self, point: SchedPoint, _obj: Option<ObjRef>) -> SchedAction {
            self.0.lock().unwrap().push(format!("sched {point}"));
            SchedAction::SkipPark
        }
    }

    impl FaultInjector for Log {
        fn decide(&self, point: InjectionPoint) -> FaultAction {
            self.0.lock().unwrap().push(format!("fault {point}"));
            FaultAction::Yield
        }
    }

    impl TraceSink for Log {
        fn record(&self, _t: Option<ThreadIndex>, _o: Option<ObjRef>, kind: TraceEventKind) {
            self.0
                .lock()
                .unwrap()
                .push(format!("event {}", kind.name()));
        }
    }

    #[test]
    fn no_hooks_is_zero_sized_and_inert() {
        assert_eq!(std::mem::size_of::<NoHooks>(), 0);
        let site = Site::both(SchedPoint::FatPark, InjectionPoint::FatPark);
        assert_eq!(NoHooks.before(site, None), FaultAction::Proceed);
        assert!(NoHooks.trace_sink().is_none());
    }

    #[test]
    fn hook_set_defaults_to_proceed() {
        let hooks = HookSet::new();
        for point in InjectionPoint::ALL {
            assert_eq!(hooks.before(Site::fault(point), None), FaultAction::Proceed);
        }
        for point in SchedPoint::ALL {
            assert_eq!(hooks.before(Site::sched(point), None), FaultAction::Proceed);
        }
        assert!(hooks.trace_sink().is_none());
    }

    #[test]
    fn schedule_answers_before_the_injector_once_each() {
        let log = Arc::new(Log::default());
        let hooks = HookSet::new()
            .schedule(Arc::clone(&log) as _)
            .fault_injector(Arc::clone(&log) as _);
        let cas = Site::both(SchedPoint::LockFast, InjectionPoint::LockFastCas);
        // SkipPark is ignored away from a park point: the injector decides.
        assert_eq!(hooks.before(cas, None), FaultAction::Yield);
        assert_eq!(log.take(), ["sched lock-fast", "fault lock-fast-cas"]);
        // At a park point SkipPark skips the park and the injector.
        let park = Site::both(SchedPoint::WaitPark, InjectionPoint::WaitPark);
        assert_eq!(hooks.before(park, None), FaultAction::SpuriousWake);
        assert_eq!(log.take(), ["sched wait-park"]);
        assert_eq!(
            hooks.before(Site::fault(InjectionPoint::WaitPark), None),
            FaultAction::Yield
        );
        assert_eq!(log.take(), ["fault wait-park"]);
    }

    #[test]
    fn events_fan_out_to_every_sink_in_order() {
        let (a, b) = (Arc::new(Log::default()), Arc::new(Log::default()));
        let hooks = HookSet::new()
            .sink(Arc::clone(&a) as _)
            .sink(Arc::clone(&b) as _);
        hooks.after(None, None, TraceEventKind::UnlockThin);
        hooks
            .trace_sink()
            .expect("sinks attached")
            .record(None, None, TraceEventKind::ElisionHit);
        for log in [a, b] {
            assert_eq!(log.take(), ["event unlock-thin", "event elision-hit"]);
        }
    }

    /// An injector that returns `Abort` instead of aborting in `decide`.
    #[derive(Debug)]
    struct ReturnsAbort;

    impl FaultInjector for ReturnsAbort {
        fn decide(&self, _point: InjectionPoint) -> FaultAction {
            FaultAction::Abort
        }
    }

    const ABORT_CHILD: &str = "hooks::tests::returned_abort_child";

    /// The child half of the test below: a no-op unless this test binary
    /// was started with the test's exact name as an argument.
    #[test]
    fn returned_abort_child() {
        if std::env::args().any(|arg| arg == ABORT_CHILD) {
            let hooks = HookSet::new().fault_injector(Arc::new(ReturnsAbort));
            let _ = hooks.before(Site::fault(InjectionPoint::LockFastCas), None);
        }
    }

    #[cfg(unix)]
    #[test]
    fn returned_abort_kills_the_process_at_the_site() {
        use std::os::unix::process::ExitStatusExt;
        const SIGABRT: i32 = 6;

        let status = std::process::Command::new(std::env::current_exe().unwrap())
            .args([ABORT_CHILD, "--exact", "--test-threads=1"])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .unwrap();
        assert_eq!(status.signal(), Some(SIGABRT), "child exited with {status}");
    }

    #[test]
    fn arc_forwards_to_its_hook() {
        let log = Arc::new(Log::default());
        let hooks: Arc<dyn Hooks> = Arc::new(HookSet::new().sink(Arc::clone(&log) as _));
        hooks.after(None, None, TraceEventKind::Wait);
        assert!(hooks.trace_sink().is_some());
        assert_eq!(log.take(), ["event wait"]);
    }
}
