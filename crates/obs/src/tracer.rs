//! The [`LockTracer`]: per-thread event rings behind the
//! [`TraceSink`] seam.
//!
//! The tracer preallocates one [`EventRing`] per thread index at
//! construction (plus a shared ring for unattributed events), so the
//! recording path — called from lock/unlock fast paths — touches no
//! allocator and no lock: it reads the monotonic clock, packs the event
//! into two words, and pushes into the calling thread's ring with
//! relaxed stores. Threads whose index exceeds the provisioned range are
//! redirected to the shared ring and counted, never silently lost.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use thinlock_runtime::events::{TraceEventKind, TraceSink};
use thinlock_runtime::heap::ObjRef;
use thinlock_runtime::lockword::ThreadIndex;

use crate::event::{pack_meta, pack_obj, unpack, unpack_obj, LockEvent};
use crate::ring::EventRing;

/// Sizing of a [`LockTracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracerConfig {
    /// Highest thread index with its own ring; higher indices share the
    /// unattributed ring (and are counted as redirected).
    pub max_threads: u16,
    /// Events retained per ring before wraparound (rounded up to a
    /// power of two).
    pub ring_capacity: usize,
}

impl Default for TracerConfig {
    /// 64 threads × 4096 events ≈ 8 MiB: ample for every workload in
    /// the bench corpus while staying allocation-free afterwards.
    fn default() -> Self {
        TracerConfig {
            max_threads: 64,
            ring_capacity: 4096,
        }
    }
}

/// Records timestamped lock events into per-thread rings.
///
/// Attach to a protocol as a sink of its hook (e.g. `ThinLocks::with_hooks`
/// with a `HookSet` holding the tracer) and take
/// [`snapshot`](LockTracer::snapshot)s at any time — including while
/// writer threads are still recording; snapshots are consistent (no torn
/// events) and account for everything dropped by ring wraparound.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use thinlock_obs::{LockTracer, TracerConfig};
/// use thinlock_runtime::events::{TraceEventKind, TraceSink};
///
/// let tracer = Arc::new(LockTracer::new(TracerConfig::default()));
/// tracer.record(None, None, TraceEventKind::AcquireUnlocked);
/// let snap = tracer.snapshot();
/// assert_eq!(snap.events.len(), 1);
/// assert_eq!(snap.recorded, 1);
/// ```
#[derive(Debug)]
pub struct LockTracer {
    epoch: Instant,
    /// `rings[0]` is the shared/unattributed ring; `rings[i]` belongs to
    /// thread index `i` for `1 ≤ i ≤ max_threads`.
    rings: Box<[EventRing]>,
    redirected: AtomicU64,
}

/// A consistent view of every ring, merged and decoded.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// All surviving events, sorted by timestamp (ties broken by thread
    /// ring and in-ring position, so one thread's events stay ordered).
    pub events: Vec<LockEvent>,
    /// Total events recorded across all rings when the snapshot ran.
    pub recorded: u64,
    /// Events lost to ring wraparound (or mid-write skips).
    pub dropped: u64,
    /// Events from thread indices beyond the provisioned rings, routed
    /// to the shared ring instead of a private one.
    pub redirected: u64,
}

impl Default for LockTracer {
    fn default() -> Self {
        LockTracer::new(TracerConfig::default())
    }
}

impl LockTracer {
    /// Creates a tracer; all rings are allocated here, never later.
    pub fn new(config: TracerConfig) -> Self {
        let rings = (0..=config.max_threads as usize)
            .map(|_| EventRing::with_capacity(config.ring_capacity))
            .collect();
        LockTracer {
            epoch: Instant::now(),
            rings,
            redirected: AtomicU64::new(0),
        }
    }

    /// Nanoseconds elapsed since the tracer was created — the timestamp
    /// domain of every event it records.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Events redirected to the shared ring so far.
    pub fn redirected(&self) -> u64 {
        self.redirected.load(Ordering::Relaxed)
    }

    /// The ring of thread index `i` (0 = the shared ring), if provisioned.
    pub fn ring(&self, index: u16) -> Option<&EventRing> {
        self.rings.get(index as usize)
    }

    /// Merges every ring into one decoded, time-sorted view. Safe to
    /// call while writers are recording: each event is either absent or
    /// complete, never torn, and the drop counters absorb the rest.
    pub fn snapshot(&self) -> TraceSnapshot {
        let mut events = Vec::new();
        let mut recorded = 0;
        let mut dropped = 0;
        for ring in self.rings.iter() {
            let snap = ring.snapshot();
            recorded += snap.recorded;
            dropped += snap.dropped;
            for raw in snap.events {
                // A torn slot is rejected by the ring's sequence check,
                // so decoding only fails on a never-written pattern;
                // count such an event as dropped rather than panicking.
                match unpack(raw.meta) {
                    Some((kind, thread)) => events.push(LockEvent {
                        index: raw.index,
                        time_ns: raw.time,
                        thread,
                        obj: unpack_obj(raw.obj),
                        kind,
                    }),
                    None => dropped += 1,
                }
            }
        }
        events.sort_by_key(|e| (e.time_ns, e.thread.map_or(0, ThreadIndex::get), e.index));
        TraceSnapshot {
            events,
            recorded,
            dropped,
            redirected: self.redirected(),
        }
    }
}

impl TraceSink for LockTracer {
    #[inline]
    fn record(&self, thread: Option<ThreadIndex>, obj: Option<ObjRef>, kind: TraceEventKind) {
        let slot = match thread {
            Some(t) if (t.get() as usize) < self.rings.len() => t.get() as usize,
            Some(_) => {
                self.redirected.fetch_add(1, Ordering::Relaxed);
                0
            }
            None => 0,
        };
        self.rings[slot].push(self.now_ns(), pack_meta(kind, thread), pack_obj(obj));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinlock_runtime::stats::InflationCause;

    fn tidx(i: u16) -> ThreadIndex {
        ThreadIndex::new(i).unwrap()
    }

    #[test]
    fn events_land_in_per_thread_rings() {
        let tracer = LockTracer::new(TracerConfig {
            max_threads: 4,
            ring_capacity: 8,
        });
        tracer.record(Some(tidx(1)), None, TraceEventKind::AcquireUnlocked);
        tracer.record(Some(tidx(2)), None, TraceEventKind::UnlockThin);
        tracer.record(None, None, TraceEventKind::MonitorAllocated { index: 3 });
        assert_eq!(tracer.ring(1).unwrap().recorded(), 1);
        assert_eq!(tracer.ring(2).unwrap().recorded(), 1);
        assert_eq!(tracer.ring(0).unwrap().recorded(), 1);
        assert_eq!(tracer.redirected(), 0);

        let snap = tracer.snapshot();
        assert_eq!(snap.recorded, 3);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.events.len(), 3);
    }

    #[test]
    fn overflow_threads_are_redirected_not_lost() {
        let tracer = LockTracer::new(TracerConfig {
            max_threads: 2,
            ring_capacity: 8,
        });
        tracer.record(Some(tidx(100)), None, TraceEventKind::Wait);
        assert_eq!(tracer.redirected(), 1);
        let snap = tracer.snapshot();
        assert_eq!(snap.redirected, 1);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].thread, Some(tidx(100)));
        assert_eq!(snap.events[0].kind, TraceEventKind::Wait);
    }

    #[test]
    fn snapshot_decodes_payloads_and_objects() {
        let tracer = LockTracer::default();
        let obj = ObjRef::from_index(9);
        tracer.record(
            Some(tidx(1)),
            Some(obj),
            TraceEventKind::Inflated {
                cause: InflationCause::CountOverflow,
            },
        );
        let snap = tracer.snapshot();
        assert_eq!(snap.events[0].obj, Some(obj));
        assert_eq!(
            snap.events[0].kind,
            TraceEventKind::Inflated {
                cause: InflationCause::CountOverflow
            }
        );
    }

    #[test]
    fn timestamps_are_monotonic_per_thread() {
        let tracer = LockTracer::default();
        for _ in 0..50 {
            tracer.record(Some(tidx(1)), None, TraceEventKind::AcquireUnlocked);
        }
        let snap = tracer.snapshot();
        let times: Vec<u64> = snap.events.iter().map(|e| e.time_ns).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
    }
}
