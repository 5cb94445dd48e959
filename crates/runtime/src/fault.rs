//! The fault-injection interface: labeled protocol points where a test
//! harness can force the schedule the happy path never takes.
//!
//! The thin-lock protocol's correctness argument rests on invariants
//! (owner-only writes, one-way inflation, spin-then-inflate) that
//! ordinary tests exercise only under whatever interleavings the OS
//! scheduler happens to produce. [`FaultInjector`] is the interface that lets
//! a deterministic harness (the `thinlock-fault` crate's seeded
//! `FaultPlan`) steer execution through the worst-case orders instead:
//! a CAS that loses exactly when it matters, a thread descheduled in the
//! middle of an unlock store, a parker that wakes spuriously, a monitor
//! table that reports exhaustion on demand.
//!
//! Protocols do not hold an injector themselves: it is attached through
//! the one instrumentation seam, [`hooks::HookSet`](crate::hooks::HookSet),
//! which consults it at every [`Site`](crate::hooks::Site) carrying an
//! injection point. A protocol built with the default
//! [`NoHooks`](crate::hooks::NoHooks) has no injection sites at all.
//! Production builds never attach an injector; chaos tests always do.
//!
//! # Contract
//!
//! An injection site consults the injector with its [`InjectionPoint`]
//! label and receives a [`FaultAction`]. The site applies the action if
//! it is applicable at that point and proceeds normally otherwise (an
//! injector answering [`FaultAction::Exhaust`] at a spin point is simply
//! ignored). Crucially, every action corresponds to an event that is
//! *legal* at that point in the real system — a CAS can always lose, a
//! thread can always be descheduled, a condition variable can always
//! wake spuriously, a fixed-size table can always fill up — so an
//! injected run is always a run the protocol must survive, and any
//! invariant violation it provokes is a genuine bug.
//!
//! # Example
//!
//! ```
//! use thinlock_runtime::fault::{FaultAction, FaultInjector, InjectionPoint};
//!
//! /// Forces the first `n` fast-path CAS attempts to fail.
//! #[derive(Debug)]
//! struct FailFirstN(std::sync::atomic::AtomicU32);
//!
//! impl FaultInjector for FailFirstN {
//!     fn decide(&self, point: InjectionPoint) -> FaultAction {
//!         use std::sync::atomic::Ordering;
//!         if point == InjectionPoint::LockFastCas
//!             && self.0.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
//!                 n.checked_sub(1)
//!             }).is_ok()
//!         {
//!             FaultAction::FailCas
//!         } else {
//!             FaultAction::Proceed
//!         }
//!     }
//! }
//! ```

use std::fmt;

/// A labeled place in the locking protocol where faults can be injected.
///
/// Each variant names one step of the protocol state machine; the doc
/// comment states which [`FaultAction`]s are applicable there
/// ([`FaultAction::Abort`] is applicable at *every* point — a process
/// can die anywhere). The list is the injection-point catalog of
/// DESIGN.md §11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum InjectionPoint {
    /// The thin fast-path acquiring CAS (scenario 1). Applicable:
    /// `FailCas` (the CAS observes interference and loses), `Yield`.
    LockFastCas,
    /// The slow-path acquiring CAS in the contention loop. Applicable:
    /// `FailCas`, `Yield`.
    LockSlowCas,
    /// One spin round while the lock is thin-held by another thread.
    /// Applicable: `Yield`.
    LockSpin,
    /// Immediately before the thin unlock store. Applicable: `Yield`
    /// (deschedule the owner with the release half-done).
    UnlockStore,
    /// Immediately before an inflated word is published. Applicable:
    /// `Yield`.
    Inflate,
    /// A monitor-table slot allocation. Applicable: `Exhaust` (report
    /// [`MonitorIndexExhausted`](crate::error::SyncError::MonitorIndexExhausted)
    /// without consuming a slot), `Yield`.
    MonitorAllocate,
    /// A heap object allocation. Applicable: `Exhaust` (report
    /// [`HeapFull`](crate::error::SyncError::HeapFull)).
    HeapAlloc,
    /// Entry to the fat-lock acquire loop (before the monitor's internal
    /// mutex is taken). Applicable: `Yield`.
    FatAcquire,
    /// Immediately before parking in the fat-lock entry queue.
    /// Applicable: `SpuriousWake` (the park returns without a permit),
    /// `Yield`.
    FatPark,
    /// Immediately before parking in a `wait` (timed or untimed).
    /// Applicable: `SpuriousWake`, `Yield`.
    WaitPark,
    /// A thread registration is being released (the orphan sweep is
    /// about to run). Applicable: `Yield` (widen the race window between
    /// thread death and index recycling).
    RegistryRelease,
}

impl InjectionPoint {
    /// Every injection point, in catalog order. Chaos suites use this to
    /// assert that a run exercised the full catalog.
    pub const ALL: [InjectionPoint; 11] = [
        InjectionPoint::LockFastCas,
        InjectionPoint::LockSlowCas,
        InjectionPoint::LockSpin,
        InjectionPoint::UnlockStore,
        InjectionPoint::Inflate,
        InjectionPoint::MonitorAllocate,
        InjectionPoint::HeapAlloc,
        InjectionPoint::FatAcquire,
        InjectionPoint::FatPark,
        InjectionPoint::WaitPark,
        InjectionPoint::RegistryRelease,
    ];

    /// Stable short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            InjectionPoint::LockFastCas => "lock-fast-cas",
            InjectionPoint::LockSlowCas => "lock-slow-cas",
            InjectionPoint::LockSpin => "lock-spin",
            InjectionPoint::UnlockStore => "unlock-store",
            InjectionPoint::Inflate => "inflate",
            InjectionPoint::MonitorAllocate => "monitor-allocate",
            InjectionPoint::HeapAlloc => "heap-alloc",
            InjectionPoint::FatAcquire => "fat-acquire",
            InjectionPoint::FatPark => "fat-park",
            InjectionPoint::WaitPark => "wait-park",
            InjectionPoint::RegistryRelease => "registry-release",
        }
    }

    /// The stable index of this point in [`InjectionPoint::ALL`]; used
    /// by per-point counter arrays.
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|p| *p == self)
            .expect("every point appears in ALL")
    }

    /// Parses a [`name`](InjectionPoint::name) back into its point —
    /// the inverse used by CLI flags (`chaos-agent --abort-at`,
    /// `supervisor matrix --points`).
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl fmt::Display for InjectionPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What an injector tells an injection site to do. It is also what
/// [`Hooks::before`](crate::hooks::Hooks::before) answers every site, so
/// a schedule's skipped park arrives as
/// [`SpuriousWake`](FaultAction::SpuriousWake).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum FaultAction {
    /// No fault: execute the step normally.
    #[default]
    Proceed,
    /// Treat the upcoming CAS as if it lost (without executing it), so
    /// the code takes its retry/fallback path.
    FailCas,
    /// Yield the processor before the step, simulating a deschedule at
    /// the worst moment.
    Yield,
    /// Skip the upcoming park, simulating a spurious wakeup (the parker
    /// returns with no permit and no notification).
    SpuriousWake,
    /// Report resource exhaustion from an allocation step without
    /// consuming the resource.
    Exhaust,
    /// Kill the whole process (`std::process::abort`) at this point —
    /// the crash-chaos supervisor's worker-death probe, modeling a
    /// worker that dies abruptly mid-protocol (OOM-killed, segfaulted,
    /// power-cut) at a labeled step.
    ///
    /// Unlike every other action, `Abort` never *reaches* an injection
    /// site: a conforming injector (the `thinlock-fault` crate's
    /// `FaultPlan`) performs the abort inside its own `decide` the
    /// moment the rule fires, so the crash lands at the exact
    /// consultation point no matter how the site dispatches on the
    /// returned action. The variant exists so plans can be *configured*
    /// to crash at a labeled point. For an injector that returns it
    /// instead, [`HookSet`](crate::hooks::HookSet) aborts at the site
    /// itself, so every site honors it.
    Abort,
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultAction::Proceed => "proceed",
            FaultAction::FailCas => "fail-cas",
            FaultAction::Yield => "yield",
            FaultAction::SpuriousWake => "spurious-wake",
            FaultAction::Exhaust => "exhaust",
            FaultAction::Abort => "abort",
        };
        f.write_str(s)
    }
}

/// A source of fault decisions, consulted at every [`InjectionPoint`] a
/// protocol with the injector attached (through a
/// [`HookSet`](crate::hooks::HookSet)) passes through.
///
/// Implementations must be `Send + Sync` (sites call from any thread)
/// and should be cheap: `decide` sits on the same paths as
/// [`TraceSink::record`](crate::events::TraceSink::record). They must
/// also terminate the schedules they steer — e.g. an injector that
/// answers [`FaultAction::SpuriousWake`] unconditionally at
/// [`InjectionPoint::WaitPark`] turns an untimed `wait` into a busy
/// loop that can never park. Seeded probabilistic plans (the
/// `thinlock-fault` crate) satisfy this by construction.
pub trait FaultInjector: Send + Sync {
    /// Decides what happens at `point`. Called once per site visit.
    fn decide(&self, point: InjectionPoint) -> FaultAction;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[derive(Debug)]
    struct AlwaysYield;
    impl FaultInjector for AlwaysYield {
        fn decide(&self, _point: InjectionPoint) -> FaultAction {
            FaultAction::Yield
        }
    }

    #[test]
    fn all_points_have_unique_names_and_indices() {
        let mut names: Vec<&str> = InjectionPoint::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), InjectionPoint::ALL.len());
        for (i, p) in InjectionPoint::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(p.to_string(), p.name());
        }
    }

    #[test]
    fn decide_at_defaults_to_proceed() {
        // Every injection site decides through the hook: with no injector
        // attached it proceeds, with one attached the injector's answer
        // reaches the site.
        use crate::hooks::{HookSet, Hooks, Site};
        let site = Site::fault(InjectionPoint::LockFastCas);
        assert_eq!(HookSet::new().before(site, None), FaultAction::Proceed);
        let some = HookSet::new().fault_injector(Arc::new(AlwaysYield));
        assert_eq!(some.before(site, None), FaultAction::Yield);
    }

    #[test]
    fn injector_is_object_safe() {
        let i: Arc<dyn FaultInjector> = Arc::new(AlwaysYield);
        assert_eq!(i.decide(InjectionPoint::WaitPark), FaultAction::Yield);
    }

    #[test]
    fn action_default_is_proceed() {
        assert_eq!(FaultAction::default(), FaultAction::Proceed);
        assert_eq!(FaultAction::Proceed.to_string(), "proceed");
        assert_eq!(FaultAction::SpuriousWake.to_string(), "spurious-wake");
        assert_eq!(FaultAction::Abort.to_string(), "abort");
    }

    #[test]
    fn point_names_round_trip() {
        for point in InjectionPoint::ALL {
            assert_eq!(InjectionPoint::from_name(point.name()), Some(point));
        }
        assert_eq!(InjectionPoint::from_name("no-such-point"), None);
    }
}
