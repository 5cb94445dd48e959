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
use thinlock_runtime::events::TraceSink;
use thinlock_runtime::fault::FaultInjector;
use thinlock_runtime::schedule::Schedule;
use thinlock_runtime::stats::LockStats;

use crate::lockcore::{LockCore, Policy};
use crate::{CjmLocks, FissileLocks, HapaxLocks, ThinLocks};

/// The protocols selectable by name from harness CLIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendChoice {
    /// The paper's protocol: one-way inflation into a grow-only monitor
    /// table ([`ThinLocks`]).
    Thin,
    /// Compact Java Monitors: deflation plus a bounded recycling monitor
    /// pool ([`CjmLocks`]).
    Cjm,
    /// Thin fast path that fissions into a FIFO ticket queue under
    /// contention and re-coheres when it drains ([`FissileLocks`]).
    Fissile,
    /// Constant-time ticketed arrival with FIFO admission on every
    /// blocking acquisition ([`HapaxLocks`]).
    Hapax,
}

/// Optional instrumentation threaded into a backend at construction.
/// Every backend honors all five seams.
#[derive(Default)]
pub struct BackendSeams {
    /// Statistics counters (`LockCore::with_stats` discipline).
    pub stats: Option<Arc<LockStats>>,
    /// Event sink for the full transition stream.
    pub trace_sink: Option<Arc<dyn TraceSink>>,
    /// Fault injector for the chaos harness.
    pub fault_injector: Option<Arc<dyn FaultInjector>>,
    /// Cooperative schedule for the model checker.
    pub schedule: Option<Arc<dyn Schedule>>,
    /// Install the registry exit sweeper for orphaned-lock recovery.
    pub orphan_recovery: bool,
}

impl fmt::Debug for BackendSeams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BackendSeams")
            .field("stats", &self.stats.is_some())
            .field("trace_sink", &self.trace_sink.is_some())
            .field("fault_injector", &self.fault_injector.is_some())
            .field("schedule", &self.schedule.is_some())
            .field("orphan_recovery", &self.orphan_recovery)
            .finish()
    }
}

impl BackendSeams {
    /// Threads these seams into `locks` (sink and injector before the
    /// orphan sweeper, so the sweeper inherits them).
    fn apply<P: Policy>(self, mut locks: LockCore<P>) -> Arc<dyn SyncBackend + Send + Sync> {
        if let Some(stats) = self.stats {
            locks = locks.with_stats(stats);
        }
        if let Some(sink) = self.trace_sink {
            locks = locks.with_trace_sink(sink);
        }
        if let Some(injector) = self.fault_injector {
            locks = locks.with_fault_injector(injector);
        }
        if let Some(schedule) = self.schedule {
            locks = locks.with_schedule(schedule);
        }
        if self.orphan_recovery {
            locks = locks.with_orphan_recovery();
        }
        Arc::new(locks)
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
        let stats = Arc::new(LockStats::new());
        let seams = BackendSeams {
            stats: Some(Arc::clone(&stats)),
            orphan_recovery: true,
            ..BackendSeams::default()
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
