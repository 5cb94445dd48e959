//! Counters for the locking-scenario characterization.
//!
//! Section 2 of the paper ranks five locking scenarios by assumed
//! frequency, and Section 3.2 (Table 1, Figure 3) validates the ranking by
//! counting them. [`LockStats`] holds one relaxed atomic counter per
//! scenario plus a nesting-depth histogram, so a protocol can regenerate
//! those measurements.
//!
//! [`LockStats`] is a [`TraceSink`]: it is attached like any other sink
//! and derives every counter from the protocol's event stream, so the
//! counters and a trace of the same run cannot disagree, and a protocol
//! has no counting code of its own.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::events::{TraceEventKind, TraceSink};
use crate::heap::ObjRef;
use crate::lockword::ThreadIndex;

/// Nesting depth at or below which a nested acquisition counts as
/// [`LockScenario::NestedShallow`] — the paper never observed nesting
/// deeper than four (Section 3.2).
const SHALLOW_DEPTH: u32 = 4;

/// The five locking scenarios of Section 2, plus the post-inflation fat
/// cases needed to account for every operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockScenario {
    /// Scenario 1: locking an unlocked object.
    Unlocked,
    /// Scenario 2: shallowly nested locking by the owner (depth ≤ 4, the
    /// deepest the paper ever observed).
    NestedShallow,
    /// Scenario 3: deeply nested locking by the owner (depth > 4).
    NestedDeep,
    /// Scenario 4: locking an object thin-locked by another thread (spin
    /// and inflate); no queue exists yet.
    ContendedThin,
    /// Locking an already-inflated lock without waiting (fat fast path).
    FatUncontended,
    /// Scenario 5: locking an inflated lock that forces queuing.
    FatContended,
}

impl LockScenario {
    /// All scenarios in presentation order.
    pub const ALL: [LockScenario; 6] = [
        LockScenario::Unlocked,
        LockScenario::NestedShallow,
        LockScenario::NestedDeep,
        LockScenario::ContendedThin,
        LockScenario::FatUncontended,
        LockScenario::FatContended,
    ];
}

impl fmt::Display for LockScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LockScenario::Unlocked => "unlocked",
            LockScenario::NestedShallow => "nested-shallow",
            LockScenario::NestedDeep => "nested-deep",
            LockScenario::ContendedThin => "contended-thin",
            LockScenario::FatUncontended => "fat-uncontended",
            LockScenario::FatContended => "fat-contended",
        };
        f.write_str(s)
    }
}

/// Why a thin lock was inflated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InflationCause {
    /// A second thread contended for a thin-held lock (Section 2.3.4).
    Contention,
    /// The 8-bit nested count overflowed (the paper's "excessive" 257th
    /// acquisition).
    CountOverflow,
    /// `wait`/`notify`/`notifyAll` was performed on a thin-locked object.
    WaitNotify,
    /// A static pre-inflation hint was applied before the workload ran
    /// (the `lockcheck` nest-depth pass predicted a count overflow).
    Hint,
}

impl InflationCause {
    /// All causes, in the order [`StatsSnapshot::inflations`] is indexed.
    pub const ALL: [InflationCause; 4] = [
        InflationCause::Contention,
        InflationCause::CountOverflow,
        InflationCause::WaitNotify,
        InflationCause::Hint,
    ];

    /// Stable numeric code (the index into [`InflationCause::ALL`]),
    /// used by the event-ring encoding in `thinlock-obs`.
    pub fn code(self) -> u8 {
        match self {
            InflationCause::Contention => 0,
            InflationCause::CountOverflow => 1,
            InflationCause::WaitNotify => 2,
            InflationCause::Hint => 3,
        }
    }

    /// Inverse of [`code`](InflationCause::code).
    pub fn from_code(code: u8) -> Option<InflationCause> {
        InflationCause::ALL.get(code as usize).copied()
    }
}

impl fmt::Display for InflationCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InflationCause::Contention => "contention",
            InflationCause::CountOverflow => "count-overflow",
            InflationCause::WaitNotify => "wait-notify",
            InflationCause::Hint => "hint",
        };
        f.write_str(s)
    }
}

/// Number of buckets in the nesting-depth histogram. Depth 1 is the first
/// lock on an object; the last bucket aggregates everything deeper.
pub const DEPTH_BUCKETS: usize = 8;

/// Relaxed atomic counters describing a run's locking behaviour, counted
/// from the event stream.
///
/// All increments are `Relaxed`: the counters are monotone and only read
/// after the measured run quiesces, so no ordering is needed.
///
/// | event | counter |
/// |---|---|
/// | `AcquireUnlocked` | [`LockScenario::Unlocked`], depth 1 |
/// | `AcquireNested { depth }` | nested shallow (depth ≤ 4) or deep, `depth` |
/// | `AcquireContendedThin { spin_rounds }` | [`LockScenario::ContendedThin`], depth 1; `spin_rounds` |
/// | `AcquireFat { contended }` | fat contended or uncontended, depth 1 |
/// | `Inflated { cause }` | `inflations[cause]` |
/// | `UnlockThin` / `UnlockFat` | `unlocks_thin` / `unlocks_fat` |
/// | `Wait` / `Notify` | `waits` / `notifies` |
///
/// Every other event is ignored.
///
/// # Example
///
/// ```
/// use thinlock_runtime::events::{TraceEventKind, TraceSink};
/// use thinlock_runtime::stats::LockStats;
///
/// let stats = LockStats::new();
/// stats.record(None, None, TraceEventKind::AcquireUnlocked);
/// stats.record(None, None, TraceEventKind::AcquireNested { depth: 2 });
/// let snap = stats.snapshot();
/// assert_eq!(snap.total_locks(), 2);
/// assert_eq!(snap.depth_histogram[0], 1); // one first-lock
/// assert_eq!(snap.depth_histogram[1], 1); // one second-lock
/// ```
#[derive(Debug, Default)]
pub struct LockStats {
    scenarios: [AtomicU64; 6],
    depths: [AtomicU64; DEPTH_BUCKETS],
    inflations: [AtomicU64; 4],
    unlocks_thin: AtomicU64,
    unlocks_fat: AtomicU64,
    spin_rounds: AtomicU64,
    waits: AtomicU64,
    notifies: AtomicU64,
}

impl LockStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        LockStats::default()
    }

    /// Counts one lock acquisition under `scenario` at nesting `depth`
    /// (1 = first lock on the object).
    fn count_lock(&self, scenario: LockScenario, depth: u32) {
        // `ALL` lists the scenarios in declaration order.
        self.scenarios[scenario as usize].fetch_add(1, Ordering::Relaxed);
        let bucket = (depth.max(1) as usize - 1).min(DEPTH_BUCKETS - 1);
        self.depths[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot for reporting (run must be
    /// quiescent for exact totals).
    pub fn snapshot(&self) -> StatsSnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        StatsSnapshot {
            scenario_counts: std::array::from_fn(|i| load(&self.scenarios[i])),
            depth_histogram: std::array::from_fn(|i| load(&self.depths[i])),
            inflations: std::array::from_fn(|i| load(&self.inflations[i])),
            unlocks_thin: load(&self.unlocks_thin),
            unlocks_fat: load(&self.unlocks_fat),
            spin_rounds: load(&self.spin_rounds),
            waits: load(&self.waits),
            notifies: load(&self.notifies),
        }
    }
}

impl TraceSink for LockStats {
    fn record(&self, _thread: Option<ThreadIndex>, _obj: Option<ObjRef>, kind: TraceEventKind) {
        let bump = |counter: &AtomicU64| {
            counter.fetch_add(1, Ordering::Relaxed);
        };
        match kind {
            TraceEventKind::AcquireUnlocked => self.count_lock(LockScenario::Unlocked, 1),
            TraceEventKind::AcquireNested { depth } if depth <= SHALLOW_DEPTH => {
                self.count_lock(LockScenario::NestedShallow, depth);
            }
            TraceEventKind::AcquireNested { depth } => {
                self.count_lock(LockScenario::NestedDeep, depth);
            }
            TraceEventKind::AcquireContendedThin { spin_rounds } => {
                self.count_lock(LockScenario::ContendedThin, 1);
                self.spin_rounds
                    .fetch_add(u64::from(spin_rounds), Ordering::Relaxed);
            }
            TraceEventKind::AcquireFat { contended: true } => {
                self.count_lock(LockScenario::FatContended, 1);
            }
            TraceEventKind::AcquireFat { contended: false } => {
                self.count_lock(LockScenario::FatUncontended, 1);
            }
            TraceEventKind::Inflated { cause } => bump(&self.inflations[usize::from(cause.code())]),
            TraceEventKind::UnlockThin => bump(&self.unlocks_thin),
            TraceEventKind::UnlockFat => bump(&self.unlocks_fat),
            TraceEventKind::Wait => bump(&self.waits),
            TraceEventKind::Notify => bump(&self.notifies),
            _ => {}
        }
    }
}

/// Plain-data snapshot of [`LockStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Counts per scenario, indexed like [`LockScenario::ALL`].
    pub scenario_counts: [u64; 6],
    /// Lock acquisitions by nesting depth; bucket 0 is depth 1 (first
    /// lock), the final bucket aggregates depth ≥ [`DEPTH_BUCKETS`].
    pub depth_histogram: [u64; DEPTH_BUCKETS],
    /// Inflations by cause: contention, count overflow, wait/notify,
    /// static pre-inflation hint.
    pub inflations: [u64; 4],
    /// Store-based unlocks of thin locks.
    pub unlocks_thin: u64,
    /// Monitor unlocks of fat locks.
    pub unlocks_fat: u64,
    /// Spin rounds carried by `AcquireContendedThin` events: the rounds a
    /// contender spun on a thin-held word before its CAS won. Rounds a
    /// contender spun before the word went fat are not counted, since no
    /// event carries them.
    pub spin_rounds: u64,
    /// `wait` operations.
    pub waits: u64,
    /// `notify` + `notifyAll` operations.
    pub notifies: u64,
}

impl StatsSnapshot {
    /// Total lock acquisitions across all scenarios.
    pub fn total_locks(&self) -> u64 {
        self.scenario_counts.iter().sum()
    }

    /// Total inflations across all causes.
    pub fn total_inflations(&self) -> u64 {
        self.inflations.iter().sum()
    }

    /// Fraction (0..=1) of lock operations that found the object unlocked —
    /// the paper's headline "median of 80% of all lock operations are on
    /// unlocked objects".
    pub fn first_lock_fraction(&self) -> f64 {
        let total = self.total_locks();
        if total == 0 {
            return 0.0;
        }
        self.depth_histogram[0] as f64 / total as f64
    }

    /// Deepest nesting bucket with a nonzero count (1-based depth), or 0 if
    /// no locks were recorded.
    pub fn max_observed_depth(&self) -> usize {
        self.depth_histogram
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1)
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "locks: {}", self.total_locks())?;
        for (s, c) in LockScenario::ALL.iter().zip(self.scenario_counts) {
            writeln!(f, "  {s:<16} {c}")?;
        }
        writeln!(
            f,
            "inflations: {} (contention {}, overflow {}, wait {}, hint {})",
            self.total_inflations(),
            self.inflations[0],
            self.inflations[1],
            self.inflations[2],
            self.inflations[3]
        )?;
        writeln!(
            f,
            "unlocks: thin {}, fat {}; spins {}; waits {}; notifies {}",
            self.unlocks_thin, self.unlocks_fat, self.spin_rounds, self.waits, self.notifies
        )?;
        write!(f, "depth histogram: {:?}", self.depth_histogram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use TraceEventKind::*;

    fn counted(events: &[TraceEventKind]) -> StatsSnapshot {
        let s = LockStats::new();
        for &kind in events {
            s.record(None, None, kind);
        }
        s.snapshot()
    }

    #[test]
    fn scenario_counting() {
        let snap = counted(&[
            AcquireUnlocked,
            AcquireUnlocked,
            AcquireNested { depth: 2 },
            AcquireFat { contended: true },
            AcquireFat { contended: false },
            AcquireContendedThin { spin_rounds: 7 },
        ]);
        assert_eq!(snap.scenario_counts, [2, 1, 0, 1, 1, 1]);
        assert_eq!(snap.total_locks(), 6);
        assert_eq!(snap.spin_rounds, 7);
    }

    #[test]
    fn depth_histogram_buckets_and_saturation() {
        let snap = counted(&[
            AcquireUnlocked,
            AcquireNested { depth: 4 },
            AcquireNested { depth: 100 }, // saturates last bucket
        ]);
        assert_eq!(snap.scenario_counts[1], 1, "depth 4 is shallow");
        assert_eq!(snap.scenario_counts[2], 1, "depth 100 is deep");
        assert_eq!(snap.depth_histogram[0], 1);
        assert_eq!(snap.depth_histogram[3], 1);
        assert_eq!(snap.depth_histogram[DEPTH_BUCKETS - 1], 1);
        assert_eq!(snap.max_observed_depth(), DEPTH_BUCKETS);
    }

    #[test]
    fn first_lock_fraction() {
        let mut events = vec![AcquireUnlocked; 8];
        events.extend([AcquireNested { depth: 2 }; 2]);
        let snap = counted(&events);
        assert!((snap.first_lock_fraction() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn empty_snapshot_is_calm() {
        let snap = LockStats::new().snapshot();
        assert_eq!(snap.total_locks(), 0);
        assert_eq!(snap.first_lock_fraction(), 0.0);
        assert_eq!(snap.max_observed_depth(), 0);
    }

    #[test]
    fn inflation_causes_tracked_separately() {
        let mut events: Vec<_> = InflationCause::ALL
            .iter()
            .map(|&cause| Inflated { cause })
            .collect();
        events.push(Inflated {
            cause: InflationCause::Contention,
        });
        let snap = counted(&events);
        assert_eq!(snap.inflations, [2, 1, 1, 1]);
        assert_eq!(snap.total_inflations(), 5);
    }

    #[test]
    fn unlocks_waits_notifies_and_the_rest() {
        let snap = counted(&[
            UnlockThin,
            UnlockFat,
            UnlockFat,
            Wait,
            Notify,
            MonitorAllocated { index: 0 },
            ElisionHit,
            AcquireTimedOut,
        ]);
        assert_eq!((snap.unlocks_thin, snap.unlocks_fat), (1, 2));
        assert_eq!((snap.waits, snap.notifies), (1, 1));
        assert_eq!(snap.total_locks(), 0, "other events count nothing");
    }

    #[test]
    fn display_contains_key_lines() {
        let text = counted(&[AcquireUnlocked, UnlockThin]).to_string();
        assert!(text.contains("locks: 1"));
        assert!(text.contains("unlocked"));
        assert!(text.contains("depth histogram"));
    }

    #[test]
    fn scenario_display_names() {
        assert_eq!(LockScenario::Unlocked.to_string(), "unlocked");
        assert_eq!(InflationCause::WaitNotify.to_string(), "wait-notify");
    }
}
