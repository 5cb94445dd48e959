//! Backend selection: one name-keyed constructor for every protocol the
//! workspace implements, so harnesses (`reproduce --backend`, `chaos
//! --backend`, `lockmc --backend`) build interchangeable
//! [`SyncBackend`] trait objects from a CLI flag instead of hard-coding
//! `ThinLocks`.
//!
//! ```
//! use thinlock::BackendChoice;
//!
//! let choice = BackendChoice::from_name("cjm").expect("known backend");
//! let locks = choice.build(16);
//! assert_eq!(locks.name(), "CJM");
//! assert!(locks.deflation_capable());
//! ```

use std::fmt;
use std::sync::Arc;

use thinlock_runtime::backend::SyncBackend;
use thinlock_runtime::hooks::{HookSet, Hooks};

use crate::config::DynamicConfig;
use crate::lockcore::{LockCore, Policy};
use crate::{CjmLocks, FissileLocks, HapaxLocks, ThinLocks};

/// The protocols selectable by name from harness CLIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendChoice {
    /// The paper's protocol: one-way inflation, each published monitor
    /// backing its object for the heap's lifetime ([`ThinLocks`]).
    Thin,
    /// Compact Java Monitors: deflation into a bounded monitor table
    /// whose freed slots are recycled ([`CjmLocks`]).
    Cjm,
    /// Thin fast path that fissions into a FIFO ticket queue under
    /// contention and re-coheres when it drains ([`FissileLocks`]).
    Fissile,
    /// Constant-time ticketed arrival with FIFO admission on every
    /// blocking acquisition ([`HapaxLocks`]).
    Hapax,
}

/// Optional instrumentation threaded into a backend at construction.
#[derive(Debug, Default)]
pub struct BackendSeams {
    /// The hook to attach ([`LockCore::with_hooks`]): the schedule, the
    /// fault injector and the event sinks. `None` builds the
    /// uninstrumented backend.
    pub hooks: Option<HookSet>,
    /// Install the registry exit sweeper for orphaned-lock recovery.
    pub orphan_recovery: bool,
}

impl BackendSeams {
    /// Threads these seams into `locks` (the hook before the orphan
    /// sweeper, so the sweeper inherits it).
    fn apply<P: Policy>(self, locks: LockCore<P>) -> Arc<dyn SyncBackend + Send + Sync> {
        fn finish<P: Policy, H: Hooks + Clone + 'static>(
            locks: LockCore<P, DynamicConfig, H>,
            orphan_recovery: bool,
        ) -> Arc<dyn SyncBackend + Send + Sync> {
            if orphan_recovery {
                locks.enable_orphan_recovery();
            }
            Arc::new(locks)
        }
        match self.hooks {
            Some(hooks) => finish(locks.with_hooks(hooks), self.orphan_recovery),
            None => finish(locks, self.orphan_recovery),
        }
    }
}

impl BackendChoice {
    /// Every selectable backend, in CLI-listing order.
    pub const ALL: [BackendChoice; 4] = [
        BackendChoice::Thin,
        BackendChoice::Cjm,
        BackendChoice::Fissile,
        BackendChoice::Hapax,
    ];

    /// Parses a CLI name (case-insensitive): `thin`, `cjm`, `fissile`,
    /// `hapax`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|choice| choice.name().eq_ignore_ascii_case(name))
    }

    /// The CLI name; [`BackendChoice::from_name`] round-trips it.
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::Thin => "thin",
            BackendChoice::Cjm => "cjm",
            BackendChoice::Fissile => "fissile",
            BackendChoice::Hapax => "hapax",
        }
    }

    /// Whether this backend ever restores a fat word to neutral — picks
    /// the invariant set the model checker enforces (one-way inflation
    /// vs. deflation safety). The ticket-queue backends answer
    /// contention outside the word, so their inflation (wait/notify,
    /// overflow, hints only) stays strictly one-way.
    pub fn deflation_capable(self) -> bool {
        matches!(self, BackendChoice::Cjm)
    }

    /// Whether contended acquisitions are admitted in FIFO arrival
    /// order (ticket-queue backends) rather than by spin race. Fairness
    /// harnesses gate the Jain index only for these backends — a
    /// barging acquirer makes no admission-order promise to regress.
    /// Fissile qualifies because its fissioned mode is the FIFO queue
    /// and contention is exactly what fissions the word.
    pub fn fifo_admission(self) -> bool {
        matches!(self, BackendChoice::Fissile | BackendChoice::Hapax)
    }

    /// Builds an uninstrumented backend over a fresh heap of `capacity`
    /// objects.
    pub fn build(self, capacity: usize) -> Arc<dyn SyncBackend + Send + Sync> {
        self.build_with(capacity, BackendSeams::default())
    }

    /// Builds a backend with instrumentation seams attached.
    pub fn build_with(
        self,
        capacity: usize,
        seams: BackendSeams,
    ) -> Arc<dyn SyncBackend + Send + Sync> {
        match self {
            BackendChoice::Thin => seams.apply(ThinLocks::with_capacity(capacity)),
            BackendChoice::Cjm => seams.apply(CjmLocks::with_capacity(capacity)),
            BackendChoice::Fissile => seams.apply(FissileLocks::with_capacity(capacity)),
            BackendChoice::Hapax => seams.apply(HapaxLocks::with_capacity(capacity)),
        }
    }
}

impl fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for choice in BackendChoice::ALL {
            assert_eq!(BackendChoice::from_name(choice.name()), Some(choice));
        }
        assert_eq!(BackendChoice::from_name("CJM"), Some(BackendChoice::Cjm));
        assert_eq!(BackendChoice::from_name("nope"), None);
    }

    #[test]
    fn built_backends_lock_and_report_capability() {
        for choice in BackendChoice::ALL {
            let locks = choice.build(4);
            assert_eq!(locks.deflation_capable(), choice.deflation_capable());
            let r = locks.registry().register().unwrap();
            let t = r.token();
            let obj = locks.heap().alloc().unwrap();
            locks.lock(obj, t).unwrap();
            assert!(locks.holds_lock(obj, t));
            assert_eq!(locks.owner_of(obj), Some(t.index()));
            locks.unlock(obj, t).unwrap();
            assert_eq!(locks.owner_of(obj), None, "{choice}");
        }
    }

    #[test]
    fn seams_thread_through_instrumented_backends() {
        use thinlock_runtime::stats::LockStats;

        let stats = Arc::new(LockStats::new());
        let seams = BackendSeams {
            hooks: Some(HookSet::new().sink(Arc::clone(&stats) as _)),
            orphan_recovery: true,
        };
        let locks = BackendChoice::Cjm.build_with(4, seams);
        let r = locks.registry().register().unwrap();
        let t = r.token();
        let obj = locks.heap().alloc().unwrap();
        locks.lock(obj, t).unwrap();
        locks.unlock(obj, t).unwrap();
        assert_eq!(stats.snapshot().scenario_counts[0], 1);
    }

    #[test]
    fn capability_matrix() {
        for choice in BackendChoice::ALL {
            assert_eq!(choice.deflation_capable(), choice == BackendChoice::Cjm);
            assert_eq!(
                choice.fifo_admission(),
                matches!(choice, BackendChoice::Fissile | BackendChoice::Hapax),
                "{choice}"
            );
        }
    }
}
