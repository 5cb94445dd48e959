//! Aggregation of a trace snapshot into a per-object contention profile.
//!
//! A raw event stream answers "what happened"; the profile answers the
//! questions the paper's tables pose — which objects are hottest, how
//! much spinning contention cost, and when and why each lock inflated.
//! [`ContentionProfile::build`] folds a [`TraceSnapshot`] into:
//!
//! - one [`ObjectProfile`] per attributed object, ranked hottest-first,
//! - an inflation timeline (every [`Inflated`](TraceEventKind::Inflated)
//!   event with its cause, time, thread, and object),
//! - a log₂ histogram of spin rounds burned per contended acquisition,
//! - global counters for monitor allocations, elision hits, and
//!   pre-inflation hints.
//!
//! The profile renders as text (its [`Display`](std::fmt::Display) impl
//! backs the `profile` section of the `reproduce` binary) and as JSON
//! via [`ContentionProfile::to_json`].

use std::collections::BTreeMap;
use std::fmt;

use thinlock_runtime::events::TraceEventKind;
use thinlock_runtime::heap::ObjRef;
use thinlock_runtime::lockword::ThreadIndex;
use thinlock_runtime::stats::InflationCause;

use crate::json::JsonWriter;
use crate::tracer::TraceSnapshot;

/// Buckets in the spin-rounds histogram: bucket 0 is zero rounds,
/// bucket `i ≥ 1` covers `2^(i-1) ..= 2^i - 1` rounds, and the final
/// bucket absorbs everything beyond.
pub const SPIN_BUCKETS: usize = 16;

/// One inflation, as placed on the profile's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inflation {
    /// Nanoseconds since the tracer epoch when the lock inflated.
    pub time_ns: u64,
    /// The inflating thread, if the event was attributed to one.
    pub thread: Option<ThreadIndex>,
    /// The object whose lock inflated, if attributed.
    pub obj: Option<ObjRef>,
    /// Why the inflation happened.
    pub cause: InflationCause,
}

/// Aggregated lock activity for one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectProfile {
    /// The object these counters describe.
    pub obj: ObjRef,
    /// Scenario-1 fast-path acquisitions (object was unlocked).
    pub acquire_unlocked: u64,
    /// Nested re-acquisitions by the owner, thin or fat.
    pub acquire_nested: u64,
    /// First (depth-1) acquisitions through the fat monitor after
    /// inflation; a fat re-entry counts as nested.
    pub acquire_fat: u64,
    /// The subset of fat acquisitions that had to queue (scenario 5).
    pub acquire_fat_contended: u64,
    /// Scenario-4 acquisitions: spun on a thin lock held elsewhere.
    pub acquire_contended_thin: u64,
    /// Total backoff rounds burned spinning on this object.
    pub spin_rounds: u64,
    /// Store-based thin unlocks.
    pub unlocks_thin: u64,
    /// Monitor fat unlocks.
    pub unlocks_fat: u64,
    /// `wait` operations.
    pub waits: u64,
    /// `notify`/`notifyAll` operations.
    pub notifies: u64,
    /// Synchronization operations elided on this object by the static
    /// escape analysis.
    pub elisions: u64,
    /// Try/timed acquisitions of this object that gave up.
    pub acquire_timeouts: u64,
    /// Times this object's lock was force-released because its owner's
    /// registration dropped without unlocking.
    pub orphan_reclaims: u64,
    /// Field reads the VM performed on this object.
    pub field_reads: u64,
    /// Field writes the VM performed on this object.
    pub field_writes: u64,
    /// Data races the dynamic Eraser sanitizer reported on this object
    /// (at most one per field).
    pub races: u64,
    /// Times this object's fat word was deflated back to the neutral
    /// thin shape (always 0 under the one-way thin backend).
    pub deflations: u64,
    /// The object's *first* inflation, if its lock ever inflated. Under
    /// the thin backend inflation is one-way so there is at most one; a
    /// deflating backend may re-inflate, in which case the earliest
    /// event is kept.
    pub inflation: Option<Inflation>,
}

impl ObjectProfile {
    fn new(obj: ObjRef) -> Self {
        ObjectProfile {
            obj,
            acquire_unlocked: 0,
            acquire_nested: 0,
            acquire_fat: 0,
            acquire_fat_contended: 0,
            acquire_contended_thin: 0,
            spin_rounds: 0,
            unlocks_thin: 0,
            unlocks_fat: 0,
            waits: 0,
            notifies: 0,
            elisions: 0,
            acquire_timeouts: 0,
            orphan_reclaims: 0,
            field_reads: 0,
            field_writes: 0,
            races: 0,
            deflations: 0,
            inflation: None,
        }
    }

    /// Total acquisitions of this object's lock, across all scenarios.
    pub fn acquires(&self) -> u64 {
        self.acquire_unlocked + self.acquire_nested + self.acquire_fat + self.acquire_contended_thin
    }
}

/// The merged, aggregated view of one traced run.
///
/// # Example
///
/// ```
/// use thinlock_obs::{ContentionProfile, LockTracer, TracerConfig};
/// use thinlock_runtime::events::{TraceEventKind, TraceSink};
/// use thinlock_runtime::heap::ObjRef;
/// use thinlock_runtime::stats::InflationCause;
///
/// let tracer = LockTracer::new(TracerConfig::default());
/// let obj = ObjRef::from_index(3);
/// tracer.record(None, Some(obj), TraceEventKind::AcquireUnlocked);
/// tracer.record(None, Some(obj), TraceEventKind::Inflated {
///     cause: InflationCause::Contention,
/// });
/// let profile = ContentionProfile::build(&tracer.snapshot());
/// assert_eq!(profile.objects.len(), 1);
/// assert_eq!(profile.objects[0].acquires(), 1);
/// assert_eq!(profile.inflations_by_cause(), [1, 0, 0, 0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentionProfile {
    /// Per-object profiles, hottest first (most acquisitions; ties
    /// broken by object index so the order is deterministic).
    pub objects: Vec<ObjectProfile>,
    /// Every inflation in the trace, sorted by time.
    pub inflations: Vec<Inflation>,
    /// log₂ histogram of spin rounds per contended-thin acquisition
    /// (see [`SPIN_BUCKETS`]).
    pub spin_histogram: [u64; SPIN_BUCKETS],
    /// Fat-lock slots handed out by the monitor table.
    pub monitors_allocated: u64,
    /// Fat words restored to the neutral thin shape by a deflating
    /// backend (always 0 under the one-way thin backend).
    pub deflations: u64,
    /// Monitor operations elided by the static escape analysis.
    pub elision_hits: u64,
    /// Pre-inflation hints delivered to the protocol.
    pub pre_inflate_hints: u64,
    /// The subset of hints that actually changed a lock's shape.
    pub pre_inflate_applied: u64,
    /// Locks force-released by the registry's orphan sweep.
    pub orphans_reclaimed: u64,
    /// The subset of orphan reclaims that released a fat monitor.
    pub orphans_reclaimed_fat: u64,
    /// Distinct waits-for cycles reported by the deadlock watchdog or a
    /// timed acquisition's expiry scan.
    pub deadlocks_detected: u64,
    /// Try/timed acquisitions that gave up without the lock.
    pub acquire_timeouts: u64,
    /// Field reads the VM streamed through the sink.
    pub field_reads: u64,
    /// Field writes the VM streamed through the sink.
    pub field_writes: u64,
    /// Data races reported by the dynamic Eraser sanitizer.
    pub races_detected: u64,
    /// Decoded events the profile is built from.
    pub events: u64,
    /// Events recorded by the tracer (surviving + dropped).
    pub recorded: u64,
    /// Events lost to ring wraparound.
    pub dropped: u64,
    /// Events redirected to the shared ring (thread index out of range).
    pub redirected: u64,
}

fn spin_bucket(rounds: u32) -> usize {
    if rounds == 0 {
        0
    } else {
        let bucket = 64 - u64::from(rounds).leading_zeros() as usize;
        bucket.min(SPIN_BUCKETS - 1)
    }
}

impl ContentionProfile {
    /// Folds a snapshot into the aggregated profile.
    pub fn build(snapshot: &TraceSnapshot) -> Self {
        let mut by_obj: BTreeMap<usize, ObjectProfile> = BTreeMap::new();
        let mut inflations = Vec::new();
        let mut spin_histogram = [0u64; SPIN_BUCKETS];
        let mut monitors_allocated = 0;
        let mut deflations = 0;
        let mut elision_hits = 0;
        let mut pre_inflate_hints = 0;
        let mut pre_inflate_applied = 0;
        let mut orphans_reclaimed = 0;
        let mut orphans_reclaimed_fat = 0;
        let mut deadlocks_detected = 0;
        let mut acquire_timeouts = 0;
        let mut field_reads = 0;
        let mut field_writes = 0;
        let mut races_detected = 0;

        for event in &snapshot.events {
            let profile = event.obj.map(|o| {
                by_obj
                    .entry(o.index())
                    .or_insert_with(|| ObjectProfile::new(o))
            });
            match event.kind {
                TraceEventKind::AcquireUnlocked => {
                    if let Some(p) = profile {
                        p.acquire_unlocked += 1;
                    }
                }
                TraceEventKind::AcquireNested { .. } => {
                    if let Some(p) = profile {
                        p.acquire_nested += 1;
                    }
                }
                TraceEventKind::AcquireFat { contended } => {
                    if let Some(p) = profile {
                        p.acquire_fat += 1;
                        if contended {
                            p.acquire_fat_contended += 1;
                        }
                    }
                }
                TraceEventKind::AcquireContendedThin { spin_rounds } => {
                    spin_histogram[spin_bucket(spin_rounds)] += 1;
                    if let Some(p) = profile {
                        p.acquire_contended_thin += 1;
                        p.spin_rounds += u64::from(spin_rounds);
                    }
                }
                TraceEventKind::Inflated { cause } => {
                    let inflation = Inflation {
                        time_ns: event.time_ns,
                        thread: event.thread,
                        obj: event.obj,
                        cause,
                    };
                    inflations.push(inflation);
                    if let Some(p) = profile {
                        // Inflation is one-way; keep the earliest event
                        // if a duplicate ever slips in.
                        p.inflation.get_or_insert(inflation);
                    }
                }
                TraceEventKind::UnlockThin => {
                    if let Some(p) = profile {
                        p.unlocks_thin += 1;
                    }
                }
                TraceEventKind::UnlockFat => {
                    if let Some(p) = profile {
                        p.unlocks_fat += 1;
                    }
                }
                TraceEventKind::Wait => {
                    if let Some(p) = profile {
                        p.waits += 1;
                    }
                }
                TraceEventKind::Notify => {
                    if let Some(p) = profile {
                        p.notifies += 1;
                    }
                }
                TraceEventKind::MonitorAllocated { .. } => monitors_allocated += 1,
                TraceEventKind::Deflated { .. } => {
                    deflations += 1;
                    if let Some(p) = profile {
                        p.deflations += 1;
                    }
                }
                TraceEventKind::ElisionHit => {
                    elision_hits += 1;
                    if let Some(p) = profile {
                        p.elisions += 1;
                    }
                }
                TraceEventKind::PreInflateHint { applied } => {
                    pre_inflate_hints += 1;
                    if applied {
                        pre_inflate_applied += 1;
                    }
                }
                TraceEventKind::OrphanReclaimed { fat } => {
                    orphans_reclaimed += 1;
                    if fat {
                        orphans_reclaimed_fat += 1;
                    }
                    if let Some(p) = profile {
                        p.orphan_reclaims += 1;
                    }
                }
                TraceEventKind::DeadlockDetected { .. } => deadlocks_detected += 1,
                TraceEventKind::AcquireTimedOut => {
                    acquire_timeouts += 1;
                    if let Some(p) = profile {
                        p.acquire_timeouts += 1;
                    }
                }
                TraceEventKind::FieldAccess { write, .. } => {
                    if write {
                        field_writes += 1;
                    } else {
                        field_reads += 1;
                    }
                    if let Some(p) = profile {
                        if write {
                            p.field_writes += 1;
                        } else {
                            p.field_reads += 1;
                        }
                    }
                }
                TraceEventKind::RaceDetected { .. } => {
                    races_detected += 1;
                    if let Some(p) = profile {
                        p.races += 1;
                    }
                }
            }
        }

        let mut objects: Vec<ObjectProfile> = by_obj.into_values().collect();
        objects.sort_by(|a, b| {
            b.acquires()
                .cmp(&a.acquires())
                .then(a.obj.index().cmp(&b.obj.index()))
        });
        inflations.sort_by_key(|i| i.time_ns);

        ContentionProfile {
            objects,
            inflations,
            spin_histogram,
            monitors_allocated,
            deflations,
            elision_hits,
            pre_inflate_hints,
            pre_inflate_applied,
            orphans_reclaimed,
            orphans_reclaimed_fat,
            deadlocks_detected,
            acquire_timeouts,
            field_reads,
            field_writes,
            races_detected,
            events: snapshot.events.len() as u64,
            recorded: snapshot.recorded,
            dropped: snapshot.dropped,
            redirected: snapshot.redirected,
        }
    }

    /// Inflation counts indexed like [`InflationCause::ALL`] — directly
    /// comparable with
    /// [`StatsSnapshot::inflations`](thinlock_runtime::stats::StatsSnapshot::inflations).
    pub fn inflations_by_cause(&self) -> [u64; 4] {
        let mut counts = [0u64; 4];
        for i in &self.inflations {
            counts[i.cause.code() as usize] += 1;
        }
        counts
    }

    /// Total spin rounds across every object.
    pub fn total_spin_rounds(&self) -> u64 {
        self.objects.iter().map(|o| o.spin_rounds).sum()
    }

    /// The `n` hottest objects (most lock acquisitions).
    pub fn hottest(&self, n: usize) -> &[ObjectProfile] {
        &self.objects[..self.objects.len().min(n)]
    }

    /// Serializes the whole profile as a compact JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("events", self.events);
        w.field_u64("recorded", self.recorded);
        w.field_u64("dropped", self.dropped);
        w.field_u64("redirected", self.redirected);
        w.field_u64("monitors_allocated", self.monitors_allocated);
        w.field_u64("deflations", self.deflations);
        w.field_u64("elision_hits", self.elision_hits);
        w.field_u64("pre_inflate_hints", self.pre_inflate_hints);
        w.field_u64("pre_inflate_applied", self.pre_inflate_applied);
        w.field_u64("orphans_reclaimed", self.orphans_reclaimed);
        w.field_u64("orphans_reclaimed_fat", self.orphans_reclaimed_fat);
        w.field_u64("deadlocks_detected", self.deadlocks_detected);
        w.field_u64("acquire_timeouts", self.acquire_timeouts);
        w.field_u64("field_reads", self.field_reads);
        w.field_u64("field_writes", self.field_writes);
        w.field_u64("races_detected", self.races_detected);

        w.begin_named_object("inflations_by_cause");
        let by_cause = self.inflations_by_cause();
        for (cause, count) in InflationCause::ALL.iter().zip(by_cause) {
            w.field_u64(&cause.to_string(), count);
        }
        w.end_object();

        w.begin_named_array("objects");
        for o in &self.objects {
            w.begin_object();
            w.field_u64("obj", o.obj.index() as u64);
            w.field_u64("acquires", o.acquires());
            w.field_u64("acquire_unlocked", o.acquire_unlocked);
            w.field_u64("acquire_nested", o.acquire_nested);
            w.field_u64("acquire_fat", o.acquire_fat);
            w.field_u64("acquire_fat_contended", o.acquire_fat_contended);
            w.field_u64("acquire_contended_thin", o.acquire_contended_thin);
            w.field_u64("spin_rounds", o.spin_rounds);
            w.field_u64("unlocks_thin", o.unlocks_thin);
            w.field_u64("unlocks_fat", o.unlocks_fat);
            w.field_u64("waits", o.waits);
            w.field_u64("notifies", o.notifies);
            w.field_u64("elisions", o.elisions);
            w.field_u64("acquire_timeouts", o.acquire_timeouts);
            w.field_u64("orphan_reclaims", o.orphan_reclaims);
            w.field_u64("field_reads", o.field_reads);
            w.field_u64("field_writes", o.field_writes);
            w.field_u64("races", o.races);
            w.field_u64("deflations", o.deflations);
            match o.inflation {
                Some(i) => {
                    w.begin_named_object("inflation");
                    w.field_u64("time_ns", i.time_ns);
                    w.field_str("cause", &i.cause.to_string());
                    match i.thread {
                        Some(t) => w.field_u64("thread", u64::from(t.get())),
                        None => w.field_null("thread"),
                    }
                    w.end_object();
                }
                None => w.field_null("inflation"),
            }
            w.end_object();
        }
        w.end_array();

        w.begin_named_array("inflation_timeline");
        for i in &self.inflations {
            w.begin_object();
            w.field_u64("time_ns", i.time_ns);
            w.field_str("cause", &i.cause.to_string());
            match i.thread {
                Some(t) => w.field_u64("thread", u64::from(t.get())),
                None => w.field_null("thread"),
            }
            match i.obj {
                Some(o) => w.field_u64("obj", o.index() as u64),
                None => w.field_null("obj"),
            }
            w.end_object();
        }
        w.end_array();

        w.begin_named_array("spin_histogram");
        for &count in &self.spin_histogram {
            w.elem_u64(count);
        }
        w.end_array();

        w.end_object();
        w.finish()
    }
}

impl fmt::Display for ContentionProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "events: {} decoded of {} recorded ({} dropped, {} redirected)",
            self.events, self.recorded, self.dropped, self.redirected
        )?;
        writeln!(
            f,
            "monitors allocated: {}; elision hits: {}; pre-inflate hints: {} ({} applied)",
            self.monitors_allocated,
            self.elision_hits,
            self.pre_inflate_hints,
            self.pre_inflate_applied
        )?;
        if self.deflations > 0 {
            writeln!(f, "deflations: {}", self.deflations)?;
        }
        if self.field_reads + self.field_writes + self.races_detected > 0 {
            writeln!(
                f,
                "field traffic: {} reads, {} writes; races detected: {}",
                self.field_reads, self.field_writes, self.races_detected
            )?;
        }
        if self.orphans_reclaimed + self.deadlocks_detected + self.acquire_timeouts > 0 {
            writeln!(
                f,
                "recovery: {} orphaned locks reclaimed ({} fat); {} deadlocks detected; {} acquisitions timed out",
                self.orphans_reclaimed,
                self.orphans_reclaimed_fat,
                self.deadlocks_detected,
                self.acquire_timeouts
            )?;
        }

        writeln!(f, "hottest objects:")?;
        writeln!(
            f,
            "  {:>8} {:>9} {:>7} {:>7} {:>6} {:>6} {:>6}  inflated",
            "obj", "acquires", "fat", "nested", "spins", "waits", "elide"
        )?;
        for o in self.hottest(10) {
            let inflated = match o.inflation {
                Some(i) => format!("{} @ {} ns", i.cause, i.time_ns),
                None => "-".to_string(),
            };
            writeln!(
                f,
                "  {:>8} {:>9} {:>7} {:>7} {:>6} {:>6} {:>6}  {}",
                format!("#{}", o.obj.index()),
                o.acquires(),
                o.acquire_fat,
                o.acquire_nested,
                o.spin_rounds,
                o.waits,
                o.elisions,
                inflated
            )?;
        }
        if self.objects.len() > 10 {
            writeln!(f, "  ... and {} more objects", self.objects.len() - 10)?;
        }

        let by_cause = self.inflations_by_cause();
        writeln!(
            f,
            "inflations: {} (contention {}, overflow {}, wait {}, hint {})",
            self.inflations.len(),
            by_cause[0],
            by_cause[1],
            by_cause[2],
            by_cause[3]
        )?;
        writeln!(f, "inflation timeline:")?;
        for i in &self.inflations {
            let obj = i.obj.map_or("?".to_string(), |o| format!("#{}", o.index()));
            let thread = i.thread.map_or("-".to_string(), |t| t.get().to_string());
            writeln!(
                f,
                "  t={:>10} ns  obj {:>6}  thread {:>3}  cause {}",
                i.time_ns, obj, thread, i.cause
            )?;
        }

        write!(
            f,
            "spin-rounds histogram (log2 buckets, {} total rounds): {:?}",
            self.total_spin_rounds(),
            self.spin_histogram
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{LockTracer, TracerConfig};
    use thinlock_runtime::events::TraceSink;

    fn tidx(i: u16) -> ThreadIndex {
        ThreadIndex::new(i).unwrap()
    }

    #[test]
    fn spin_buckets_are_log2() {
        assert_eq!(spin_bucket(0), 0);
        assert_eq!(spin_bucket(1), 1);
        assert_eq!(spin_bucket(2), 2);
        assert_eq!(spin_bucket(3), 2);
        assert_eq!(spin_bucket(4), 3);
        assert_eq!(spin_bucket(1 << 20), SPIN_BUCKETS - 1);
        assert_eq!(spin_bucket(u32::MAX), SPIN_BUCKETS - 1);
    }

    #[test]
    fn objects_rank_hottest_first() {
        let tracer = LockTracer::new(TracerConfig::default());
        let cold = ObjRef::from_index(1);
        let hot = ObjRef::from_index(2);
        tracer.record(Some(tidx(1)), Some(cold), TraceEventKind::AcquireUnlocked);
        for _ in 0..5 {
            tracer.record(Some(tidx(1)), Some(hot), TraceEventKind::AcquireUnlocked);
            tracer.record(Some(tidx(1)), Some(hot), TraceEventKind::UnlockThin);
        }
        let profile = ContentionProfile::build(&tracer.snapshot());
        assert_eq!(profile.objects.len(), 2);
        assert_eq!(profile.objects[0].obj, hot);
        assert_eq!(profile.objects[0].acquires(), 5);
        assert_eq!(profile.objects[0].unlocks_thin, 5);
        assert_eq!(profile.hottest(1).len(), 1);
    }

    #[test]
    fn inflation_timeline_and_attribution() {
        let tracer = LockTracer::new(TracerConfig::default());
        let a = ObjRef::from_index(10);
        let b = ObjRef::from_index(11);
        tracer.record(
            Some(tidx(2)),
            Some(a),
            TraceEventKind::AcquireContendedThin { spin_rounds: 17 },
        );
        tracer.record(
            Some(tidx(2)),
            Some(a),
            TraceEventKind::Inflated {
                cause: InflationCause::Contention,
            },
        );
        tracer.record(
            Some(tidx(1)),
            Some(b),
            TraceEventKind::Inflated {
                cause: InflationCause::WaitNotify,
            },
        );
        let profile = ContentionProfile::build(&tracer.snapshot());
        assert_eq!(profile.inflations.len(), 2);
        assert_eq!(profile.inflations_by_cause(), [1, 0, 1, 0]);
        let pa = profile.objects.iter().find(|o| o.obj == a).unwrap();
        assert_eq!(pa.inflation.unwrap().cause, InflationCause::Contention);
        assert_eq!(pa.spin_rounds, 17);
        assert_eq!(profile.spin_histogram[spin_bucket(17)], 1);
        // Timeline is time-sorted.
        assert!(profile.inflations[0].time_ns <= profile.inflations[1].time_ns);
    }

    #[test]
    fn global_counters_cover_unattributed_events() {
        let tracer = LockTracer::new(TracerConfig::default());
        tracer.record(None, None, TraceEventKind::MonitorAllocated { index: 4 });
        tracer.record(None, None, TraceEventKind::ElisionHit);
        tracer.record(None, None, TraceEventKind::PreInflateHint { applied: true });
        tracer.record(
            None,
            None,
            TraceEventKind::PreInflateHint { applied: false },
        );
        let profile = ContentionProfile::build(&tracer.snapshot());
        assert_eq!(profile.monitors_allocated, 1);
        assert_eq!(profile.elision_hits, 1);
        assert_eq!(profile.pre_inflate_hints, 2);
        assert_eq!(profile.pre_inflate_applied, 1);
        assert!(profile.objects.is_empty());
    }

    #[test]
    fn recovery_events_are_counted_and_attributed() {
        let tracer = LockTracer::new(TracerConfig::default());
        let obj = ObjRef::from_index(9);
        tracer.record(Some(tidx(3)), Some(obj), TraceEventKind::AcquireTimedOut);
        tracer.record(
            Some(tidx(3)),
            Some(obj),
            TraceEventKind::DeadlockDetected { threads: 2 },
        );
        tracer.record(
            Some(tidx(3)),
            Some(obj),
            TraceEventKind::OrphanReclaimed { fat: true },
        );
        tracer.record(
            Some(tidx(4)),
            None,
            TraceEventKind::OrphanReclaimed { fat: false },
        );
        let profile = ContentionProfile::build(&tracer.snapshot());
        assert_eq!(profile.acquire_timeouts, 1);
        assert_eq!(profile.deadlocks_detected, 1);
        assert_eq!(profile.orphans_reclaimed, 2);
        assert_eq!(profile.orphans_reclaimed_fat, 1);
        let po = profile.objects.iter().find(|o| o.obj == obj).unwrap();
        assert_eq!(po.acquire_timeouts, 1);
        assert_eq!(po.orphan_reclaims, 1);
        let text = profile.to_string();
        assert!(text.contains("recovery: 2 orphaned locks reclaimed (1 fat)"));
        let json = profile.to_json();
        assert!(json.contains(r#""orphans_reclaimed":2"#));
        assert!(json.contains(r#""deadlocks_detected":1"#));
        assert!(json.contains(r#""acquire_timeouts":1"#));
    }

    #[test]
    fn field_accesses_and_race_verdicts_are_counted() {
        let tracer = LockTracer::new(TracerConfig::default());
        let obj = ObjRef::from_index(2);
        tracer.record(
            Some(tidx(1)),
            Some(obj),
            TraceEventKind::FieldAccess {
                field: 0,
                write: false,
            },
        );
        tracer.record(
            Some(tidx(2)),
            Some(obj),
            TraceEventKind::FieldAccess {
                field: 0,
                write: true,
            },
        );
        tracer.record(
            Some(tidx(2)),
            Some(obj),
            TraceEventKind::RaceDetected { field: 0 },
        );
        let snap = tracer.snapshot();
        // Exact accounting even with the new event kinds in the stream.
        assert_eq!(snap.events.len() as u64 + snap.dropped, snap.recorded);
        let profile = ContentionProfile::build(&snap);
        assert_eq!(profile.field_reads, 1);
        assert_eq!(profile.field_writes, 1);
        assert_eq!(profile.races_detected, 1);
        let po = profile.objects.iter().find(|o| o.obj == obj).unwrap();
        assert_eq!((po.field_reads, po.field_writes, po.races), (1, 1, 1));
        let text = profile.to_string();
        assert!(text.contains("field traffic: 1 reads, 1 writes; races detected: 1"));
        let json = profile.to_json();
        assert!(json.contains(r#""races_detected":1"#));
        assert!(json.contains(r#""field_reads":1"#));
    }

    #[test]
    fn display_and_json_render() {
        let tracer = LockTracer::new(TracerConfig::default());
        let obj = ObjRef::from_index(5);
        tracer.record(Some(tidx(1)), Some(obj), TraceEventKind::AcquireUnlocked);
        tracer.record(
            Some(tidx(1)),
            Some(obj),
            TraceEventKind::Inflated {
                cause: InflationCause::Hint,
            },
        );
        let profile = ContentionProfile::build(&tracer.snapshot());
        let text = profile.to_string();
        assert!(text.contains("hottest objects"));
        assert!(text.contains("cause hint"));
        let json = profile.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(r#""inflations_by_cause":{"contention":0"#));
        assert!(json.contains(r#""hint":1"#));
    }
}
