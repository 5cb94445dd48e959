//! contended-2t: the paper's "locality of contention". Two threads (the
//! host has two cores) lock 16 shared objects: contention is real but
//! brief. Each acquisition picks an object from the thread's seeded
//! stream, runs a guarded read-modify-write of the object's counter plus
//! the critical-section work, unlocks, and thinks. No VM runs here. A
//! fifth kind of slice runs the same acquisitions on `ReferenceLocks`.

use std::sync::atomic::{AtomicI32, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use thinlock_runtime::{SyncProtocol, SyncResult};

use crate::backends::Tally;
use crate::hist::Histogram;
use crate::inputs::{spin_work, Rng};
use crate::run::{self, Bench, Set, Slices};
use crate::spans::{self, SpanRecorder, ThreadLog};

/// Shared objects each backend's threads pick from. One or four hot
/// objects made the p99 bimodal between runs; sixteen keep it steady.
pub const OBJECTS: usize = 16;
/// Heap slots per shared object. Adjacent objects share cache lines (a
/// header is 12 bytes, a counter 4), which made the readings depend on
/// where the heap happened to start in a line; every object is placed
/// this many slots after the last, in lines of its own.
const STRIDE: usize = 16;
/// Work units inside the critical section, after the counter read.
pub const CS_UNITS: u32 = 20;
/// Work units between unlock and the next lock.
pub const THINK_UNITS: u32 = 50;
/// Acquisitions each thread makes on each backend in set-up.
pub const WARMUP_ACQUISITIONS: u32 = 100_000;
const THREADS: usize = 2;
/// The median rate of the reference slices on the reference host (a
/// two-vCPU KVM guest of a 2.1 GHz Xeon), acquisitions per second.
pub const REFERENCE_OPS_PER_S: f64 = 6.5e6;

/// Per object, the guarded updates the threads made, which the counters
/// must match.
type Updates = [AtomicU64; OBJECTS];

/// What a contended-2t set-up builds besides the backends.
#[derive(Default)]
pub(crate) struct Shared {
    /// The guarded updates made through each backend.
    updates: [Updates; 4],
    /// The reference slices' lock and counters.
    reference: ReferenceLocks,
    /// The guarded updates made in the reference slices.
    reference_updates: Updates,
}

/// An atomic on a cache line of its own.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Line(AtomicI32);

/// The reference slices' lock: a test-and-test-and-set spin lock and a
/// counter per object, each on a cache line of its own. It is the
/// benchmark's own code, so no change to the repository's crates moves
/// its speed; the host's speed does, and [`Measured::ops_per_s`] scales
/// by it.
///
/// [`Measured::ops_per_s`]: crate::run::Measured::ops_per_s
#[derive(Debug, Default)]
pub(crate) struct ReferenceLocks {
    locks: [Line; OBJECTS],
    counters: [Line; OBJECTS],
}

impl ReferenceLocks {
    /// The winning exchange's `Acquire` pairs with the `Release` store in
    /// [`Self::unlock`], so each holder sees the counter its predecessor
    /// wrote; the counters themselves are `Relaxed`, as for the backends.
    fn lock(&self, i: usize) -> SyncResult<()> {
        let word = &self.locks[i].0;
        while word
            .compare_exchange_weak(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            while word.load(Ordering::Relaxed) != 0 {
                std::hint::spin_loop();
            }
        }
        Ok(())
    }

    fn unlock(&self, i: usize) -> SyncResult<()> {
        self.locks[i].0.store(0, Ordering::Release);
        Ok(())
    }
}

/// One acquisition: times `lock` into `times`, then reads `counter`,
/// works, writes the counter back incremented, calls `unlock`, and
/// thinks. `updates` counts the guarded updates made. Returns the time
/// `lock` returned.
fn acquire(
    lock: impl FnOnce() -> SyncResult<()>,
    counter: &AtomicI32,
    unlock: impl FnOnce() -> SyncResult<()>,
    times: &mut Histogram,
    tally: &mut Tally,
    updates: &mut u64,
) -> Instant {
    let t0 = Instant::now();
    let locked = lock();
    let t1 = Instant::now();
    times.record(run::ns(t1 - t0));
    if locked.is_err() {
        tally.fail(1);
        return t1;
    }
    let v = counter.load(Ordering::Relaxed);
    spin_work(CS_UNITS);
    counter.store(v.wrapping_add(1), Ordering::Relaxed);
    *updates += 1;
    let unlocked = unlock();
    tally.count(1, &unlocked);
    spin_work(THINK_UNITS);
    t1
}

/// Runs `part(tid)` on two fresh threads that start together at a
/// barrier, while the calling thread only joins; returns their results in
/// thread order.
fn on_both<R: Send>(part: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let start = Barrier::new(THREADS);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let (start, part) = (&start, &part);
                s.spawn(move || {
                    start.wait();
                    part(tid)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a contended-2t thread panicked"))
            .collect()
    })
}

/// What a thread keeps from one slice to the next.
#[derive(Default)]
struct Caller {
    /// Seeded streams of objects: one per kind of slice.
    rngs: Vec<Rng>,
    /// Lock times of the running slice.
    times: Histogram,
    /// Operations of the running slice.
    tally: Tally,
    /// Spans of the traced slices.
    log: ThreadLog,
}

impl Caller {
    /// Acquisitions of objects picked from `self.rngs[stream]`, each made
    /// by `acquire(object index, ...)`, while `more(time lock returned)`
    /// holds. Adds the guarded updates made to `counts`.
    fn repeat(
        &mut self,
        stream: usize,
        counts: &Updates,
        mut acquire: impl FnMut(usize, &mut Histogram, &mut Tally, &mut u64) -> Instant,
        mut more: impl FnMut(Instant) -> bool,
    ) {
        let rng = &mut self.rngs[stream];
        let (times, tally) = (&mut self.times, &mut self.tally);
        let mut updates = [0u64; OBJECTS];
        loop {
            let i = rng.below_pow2(OBJECTS);
            let t = acquire(i, times, tally, &mut updates[i]);
            if !more(t) {
                break;
            }
        }
        for (count, n) in counts.iter().zip(updates) {
            count.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Thread `tid`'s acquisitions on backend `b` of `set` through `p`.
    fn share<P: SyncProtocol + ?Sized>(
        &mut self,
        p: &P,
        set: &Set<Shared>,
        b: usize,
        tid: usize,
        stream: usize,
        more: impl FnMut(Instant) -> bool,
    ) {
        let me = set.token(b, tid);
        let objects = &set.objects[b];
        let one = |i: usize, times: &mut Histogram, tally: &mut Tally, updates: &mut u64| {
            let obj = objects[i];
            let lock = || p.lock(obj, me);
            let unlock = || p.unlock(obj, me);
            acquire(lock, p.heap().field(obj, 0), unlock, times, tally, updates)
        };
        self.repeat(stream, &set.extra.updates[b], one, more);
    }

    /// Acquisitions on the reference lock of `set`.
    fn share_reference(
        &mut self,
        set: &Set<Shared>,
        stream: usize,
        more: impl FnMut(Instant) -> bool,
    ) {
        let r = &set.extra.reference;
        let one = |i: usize, times: &mut Histogram, tally: &mut Tally, updates: &mut u64| {
            let (lock, unlock) = (|| r.lock(i), || r.unlock(i));
            acquire(lock, &r.counters[i].0, unlock, times, tally, updates)
        };
        self.repeat(stream, &set.extra.reference_updates, one, more);
    }
}

/// contended-2t with its seed.
pub(crate) struct Contended {
    /// Seed of the objects each thread picks.
    pub seed: u64,
}

impl Bench for Contended {
    type Extra = Shared;
    const HEAP_OBJECTS: usize = OBJECTS * STRIDE;
    const FIELDS: usize = STRIDE;
    const STRIDE: usize = STRIDE;
    const THREADS: usize = THREADS;
    const REFERENCE_OPS_PER_S: Option<f64> = Some(REFERENCE_OPS_PER_S);

    fn extra(&self) -> Shared {
        Shared::default()
    }

    fn warm_up(&self, set: &Set<Shared>, b: usize, rep: usize, tally: &mut Tally) {
        let tallies = on_both(|tid| {
            let stream = ((rep * 4 + b) * THREADS + tid) as u64;
            let mut c = Caller {
                rngs: vec![Rng::new(self.seed, 200 + stream)],
                ..Caller::default()
            };
            let mut made = 0;
            let more = |_: Instant| {
                made += 1;
                made < WARMUP_ACQUISITIONS
            };
            c.share(&*set.backends[b], set, b, tid, 0, more);
            c.tally
        });
        tallies.into_iter().for_each(|t| tally.merge(t));
    }

    /// Compares each counter, the reference's too, with the updates the
    /// threads made to it.
    fn check(&self, set: &Set<Shared>, tally: &mut Tally) {
        let mut compare = |counter: &AtomicI32, updates: &AtomicU64| {
            let counter = u64::from(counter.load(Ordering::Relaxed) as u32);
            tally.lost(updates.load(Ordering::Relaxed).abs_diff(counter));
        };
        for (b, backend) in set.backends.iter().enumerate() {
            for (&obj, updates) in set.objects[b].iter().zip(&set.extra.updates[b]) {
                compare(backend.heap().field(obj, 0), updates);
            }
        }
        let r = &set.extra;
        for (counter, updates) in r.reference.counters.iter().zip(&r.reference_updates) {
            compare(&counter.0, updates);
        }
    }

    fn timed(
        &self,
        set: &Set<Shared>,
        recorders: &[SpanRecorder],
        slices: &mut Slices<'_>,
    ) -> Vec<ThreadLog> {
        let callers: Vec<Mutex<Caller>> = (0..THREADS)
            .map(|tid| {
                Mutex::new(Caller {
                    rngs: vec![Rng::new(self.seed, 10 + tid as u64); slices.kinds()],
                    ..Caller::default()
                })
            })
            .collect();
        let caller = |tid: usize| {
            callers[tid]
                .lock()
                .expect("no thread panics holding its caller")
        };
        let reference = slices.reference_kind();
        slices.run(|kind, deadline, times, tally| {
            let b = kind % 4;
            on_both(|tid| {
                let c = &mut *caller(tid);
                let more = |t: Instant| t < deadline;
                if Some(kind) == reference {
                    c.share_reference(set, kind, more);
                } else if kind < 4 {
                    c.share(&*set.backends[b], set, b, tid, kind, more);
                } else {
                    spans::put_thread_log(std::mem::take(&mut c.log));
                    c.share(&recorders[b], set, b, tid, kind, more);
                    c.log = spans::take_thread_log();
                }
            });
            for tid in 0..THREADS {
                let c = &mut *caller(tid);
                times.merge(&c.times);
                c.times.clear();
                tally.merge(std::mem::take(&mut c.tally));
            }
        });
        callers
            .into_iter()
            .map(|c| {
                c.into_inner()
                    .expect("no thread panics holding its caller")
                    .log
            })
            .collect()
    }
}
