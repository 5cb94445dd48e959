//! The cooperative-scheduling interface: labeled protocol points where a
//! model checker can serialize and steer thread interleavings.
//!
//! A fault injector ([`fault`](crate::fault)) lets a harness *perturb* a
//! schedule; a [`Schedule`] lets one *own* it. A [`Schedule`] implementation
//! (the `thinlock-modelcheck` crate's cooperative scheduler) blocks the
//! calling thread inside [`Schedule::reached`] until the controller
//! grants it the next step, which serializes execution and makes every
//! interleaving of a small thread program reachable and replayable —
//! the substrate for exhaustive DFS/DPOR exploration (DESIGN.md §14).
//!
//! Protocols do not hold a schedule themselves: it is attached through
//! the one instrumentation seam, [`hooks::HookSet`](crate::hooks::HookSet),
//! which announces every [`Site`](crate::hooks::Site) carrying a
//! schedule point to it before the injector (if any) decides. A
//! protocol built with the default [`NoHooks`](crate::hooks::NoHooks)
//! has no schedule points at all. Production builds never attach a
//! schedule; the model checker always does.
//!
//! # Contract
//!
//! A schedule point consults the schedule with its [`SchedPoint`] label
//! (and the object being operated on, when the site knows it) and
//! receives a [`SchedAction`]. [`SchedAction::SkipPark`] is honored
//! only at the two park points ([`SchedPoint::FatPark`],
//! [`SchedPoint::WaitPark`]) — a scheduler that serializes execution
//! answers `SkipPark` there so no thread ever really parks; blocking
//! happens inside `reached` instead, where the controller can see it.
//! Every schedule point sits *outside* any internal mutex (the fat
//! lock's queue mutex in particular), so a thread blocked in `reached`
//! never holds a lock another thread needs to make progress.

use std::fmt;

use crate::heap::ObjRef;

/// A labeled place in the locking protocol where a [`Schedule`] can
/// preempt the calling thread.
///
/// Each variant names one step of the protocol state machine, placed
/// *before* the step's effect becomes visible to other threads, so a
/// controller observing a thread blocked at a point knows the step has
/// not happened yet. The list is the schedule-point catalog of
/// DESIGN.md §14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SchedPoint {
    /// Before the thin fast-path acquiring CAS (scenario 1).
    LockFast,
    /// Before the nested-count increment store (scenarios 2–3).
    LockNest,
    /// Before the slow-path acquiring CAS in the contention loop.
    LockSlowCas,
    /// Before one spin round while the lock is thin-held by another
    /// thread. A serializing scheduler keeps the thread here until the
    /// word becomes acquirable.
    LockSpin,
    /// Before a monitor is allocated and the inflated word published.
    Inflate,
    /// Before the store-based release of a thin lock.
    UnlockThin,
    /// Before the nested-count decrement store.
    UnlockNest,
    /// Before a fat lock is released through its monitor.
    FatUnlock,
    /// Before a deflating release restores the object's word to its
    /// neutral thin shape. Only protocols with a deflation step (the
    /// CJM backend) emit this point; the thin protocol's one-way
    /// inflation never reaches it.
    Deflate,
    /// Before parking in the fat-lock entry queue. `SkipPark` applies.
    FatPark,
    /// Before parking in a `wait`. `SkipPark` applies.
    WaitPark,
    /// Before a `notify`/`notifyAll` is delivered to the monitor.
    Notify,
    /// An explicit checkpoint emitted by harness code (worker startup,
    /// statement boundaries in interpreted programs). The runtime never
    /// emits this point itself.
    Boundary,
}

impl SchedPoint {
    /// Every schedule point, in catalog order.
    pub const ALL: [SchedPoint; 13] = [
        SchedPoint::LockFast,
        SchedPoint::LockNest,
        SchedPoint::LockSlowCas,
        SchedPoint::LockSpin,
        SchedPoint::Inflate,
        SchedPoint::UnlockThin,
        SchedPoint::UnlockNest,
        SchedPoint::FatUnlock,
        SchedPoint::Deflate,
        SchedPoint::FatPark,
        SchedPoint::WaitPark,
        SchedPoint::Notify,
        SchedPoint::Boundary,
    ];

    /// Stable short name for reports and counterexample timelines.
    pub fn name(self) -> &'static str {
        match self {
            SchedPoint::LockFast => "lock-fast",
            SchedPoint::LockNest => "lock-nest",
            SchedPoint::LockSlowCas => "lock-slow-cas",
            SchedPoint::LockSpin => "lock-spin",
            SchedPoint::Inflate => "inflate",
            SchedPoint::UnlockThin => "unlock-thin",
            SchedPoint::UnlockNest => "unlock-nest",
            SchedPoint::FatUnlock => "fat-unlock",
            SchedPoint::Deflate => "deflate",
            SchedPoint::FatPark => "fat-park",
            SchedPoint::WaitPark => "wait-park",
            SchedPoint::Notify => "notify",
            SchedPoint::Boundary => "boundary",
        }
    }

    /// The stable index of this point in [`SchedPoint::ALL`]; used by
    /// per-point counter arrays.
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|p| *p == self)
            .expect("every point appears in ALL")
    }

    /// True at the two points where [`SchedAction::SkipPark`] applies.
    pub fn is_park(self) -> bool {
        matches!(self, SchedPoint::FatPark | SchedPoint::WaitPark)
    }
}

impl fmt::Display for SchedPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a schedule tells a schedule point to do once the thread is
/// granted its next step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum SchedAction {
    /// Execute the step normally.
    #[default]
    Proceed,
    /// Skip the upcoming park (legal: parks may always wake
    /// spuriously), so the caller re-runs its acquire/wait loop instead
    /// of sleeping. Only meaningful where [`SchedPoint::is_park`] is
    /// true; other sites treat it as [`SchedAction::Proceed`].
    SkipPark,
}

impl fmt::Display for SchedAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SchedAction::Proceed => "proceed",
            SchedAction::SkipPark => "skip-park",
        };
        f.write_str(s)
    }
}

/// A scheduler consulted at every [`SchedPoint`] a protocol with the
/// schedule attached (through a [`HookSet`](crate::hooks::HookSet))
/// passes through.
///
/// Implementations must be `Send + Sync`. Unlike
/// [`TraceSink::record`](crate::events::TraceSink::record), `reached`
/// **may block**: that is its purpose — a serializing scheduler holds
/// the calling thread here until the controller picks it. Threads the
/// implementation does not manage (it keys workers by OS thread id)
/// must pass through immediately with [`SchedAction::Proceed`], so an
/// attached schedule never stalls setup code on the harness thread.
pub trait Schedule: Send + Sync {
    /// Announces that the calling thread is about to execute the step
    /// labeled `point` on `obj` (when the site knows the object), and
    /// blocks until the step is granted.
    fn reached(&self, point: SchedPoint, obj: Option<ObjRef>) -> SchedAction;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[derive(Debug)]
    struct AlwaysSkip;
    impl Schedule for AlwaysSkip {
        fn reached(&self, _point: SchedPoint, _obj: Option<ObjRef>) -> SchedAction {
            SchedAction::SkipPark
        }
    }

    #[test]
    fn all_points_have_unique_names_and_indices() {
        let mut names: Vec<&str> = SchedPoint::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SchedPoint::ALL.len());
        for (i, p) in SchedPoint::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(p.to_string(), p.name());
        }
    }

    #[test]
    fn only_park_points_accept_skip_park() {
        let parks: Vec<SchedPoint> = SchedPoint::ALL
            .iter()
            .copied()
            .filter(|p| p.is_park())
            .collect();
        assert_eq!(parks, [SchedPoint::FatPark, SchedPoint::WaitPark]);
    }

    #[test]
    fn reach_at_defaults_to_proceed() {
        // Every schedule point is reached through the hook: with no
        // schedule attached it proceeds, with one attached a skipped park
        // reaches the site as the spurious wake it looks like.
        use crate::fault::FaultAction;
        use crate::hooks::{HookSet, Hooks, Site};
        let lock_fast = Site::sched(SchedPoint::LockFast);
        assert_eq!(HookSet::new().before(lock_fast, None), FaultAction::Proceed);
        let some = HookSet::new().schedule(Arc::new(AlwaysSkip));
        assert_eq!(
            some.before(Site::sched(SchedPoint::FatPark), None),
            FaultAction::SpuriousWake
        );
    }

    #[test]
    fn schedule_is_object_safe() {
        let s: Arc<dyn Schedule> = Arc::new(AlwaysSkip);
        assert_eq!(s.reached(SchedPoint::WaitPark, None), SchedAction::SkipPark);
    }

    #[test]
    fn action_default_is_proceed() {
        assert_eq!(SchedAction::default(), SchedAction::Proceed);
        assert_eq!(SchedAction::Proceed.to_string(), "proceed");
        assert_eq!(SchedAction::SkipPark.to_string(), "skip-park");
    }
}
