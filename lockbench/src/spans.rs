//! The span recorder of the traced run.
//!
//! [`SpanRecorder`] implements [`SyncProtocol`] and forwards every call to
//! a backend. Around `lock`, `unlock` and `notify` it records a span: name,
//! class, thread, start, end and the id of the request it ran in. A lock
//! span's class comes from the word and owner probed just before the call
//! ([`classify`]). With another thread running, the word can change
//! between the probe and the call, so under contention the class is an
//! attribution, not a certainty.
//!
//! Spans go to a thread-local [`ThreadLog`] that keeps per-class sums of
//! every span and the first [`SPAN_CAP`] spans themselves; nothing is
//! written out until the run ends. Each thread hands its log over with
//! [`take_thread_log`].

use std::cell::RefCell;
use std::io::{self, Write};
use std::time::{Duration, Instant};

use thinlock_runtime::protocol::WaitOutcome;
use thinlock_runtime::{
    Heap, LockWord, ObjRef, SyncProtocol, SyncResult, ThreadIndex, ThreadRegistry, ThreadToken,
    TraceSink,
};

use crate::backends::{self, Backend};

/// Spans kept per thread for the span file; later spans only add to the
/// sums.
pub const SPAN_CAP: usize = 1 << 17;

/// Batches in one calibration loop.
pub const CALIBRATION_BATCHES: usize = 10;
/// Empty spans in one calibration batch.
pub const CALIBRATION_BATCH: usize = 100;

/// What a span timed. Lock spans carry the path the probe predicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// One workload request (a `main(8)` call or a churn round).
    Request,
    /// `lock` on an unlocked word: the fast path.
    First,
    /// `lock` on a word thin-held by the caller: the nested path.
    Nested,
    /// `lock` on an object another thread holds.
    Contended,
    /// `lock` on a fat word no other thread owns.
    Fat,
    /// `unlock` of a thin word.
    ThinUnlock,
    /// `unlock` of a fat word.
    FatUnlock,
    /// The `unlock` right after a `notify`: the exit from the monitor the
    /// notify needed.
    Exit,
    /// `notify`.
    Notify,
    /// A calibration span around nothing.
    Empty,
}

/// Number of [`Class`] variants.
pub const CLASSES: usize = 10;

impl Class {
    /// The span's name: which call it timed.
    pub fn name(self) -> &'static str {
        match self {
            Class::Request => "request",
            Class::First | Class::Nested | Class::Contended | Class::Fat => "lock",
            Class::ThinUnlock | Class::FatUnlock | Class::Exit => "unlock",
            Class::Notify => "notify",
            Class::Empty => "empty",
        }
    }

    /// The class label written to the span file.
    pub fn label(self) -> &'static str {
        match self {
            Class::Request => "request",
            Class::First => "first",
            Class::Nested => "nested",
            Class::Contended => "contended",
            Class::Fat => "fat",
            Class::ThinUnlock => "thin",
            Class::FatUnlock => "fat",
            Class::Exit => "exit",
            Class::Notify => "notify",
            Class::Empty => "empty",
        }
    }

    /// True for the four lock classes.
    pub fn is_lock(self) -> bool {
        self.name() == "lock"
    }
}

/// The class of a `lock` by `me` on a word probed as `word`; `fat_owner`
/// is the monitor's owner when the word is fat.
pub fn classify(word: LockWord, fat_owner: Option<ThreadIndex>, me: ThreadIndex) -> Class {
    let owner = if word.is_fat() {
        fat_owner
    } else {
        word.thin_owner()
    };
    match owner {
        Some(o) if o != me => Class::Contended,
        _ if word.is_fat() => Class::Fat,
        Some(_) => Class::Nested,
        None => Class::First,
    }
}

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the span timed.
    pub class: Class,
    /// Index into [`backends::NAMES`].
    pub backend: u8,
    /// The calling thread's index.
    pub thread: u16,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// The enclosing request's id on this thread, 0 outside requests.
    pub request: u64,
}

/// A count and a total duration.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Acc {
    /// Spans.
    pub n: u64,
    /// Their summed duration, ns.
    pub ns: u64,
}

impl Acc {
    fn add(&mut self, ns: u64) {
        self.n += 1;
        self.ns += ns;
    }

    /// Adds `other`'s counts.
    pub fn merge(&mut self, other: Acc) {
        self.n += other.n;
        self.ns += other.ns;
    }

    /// Mean duration in ns, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.ns as f64 / self.n as f64
        }
    }
}

/// Sums of one backend's spans.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Sums {
    /// Per [`Class`] (indexed by `class as usize`).
    pub class: [Acc; CLASSES],
    /// Spans that ran inside a request.
    pub children: Acc,
    /// Lock spans that ran inside a request.
    pub child_locks: u64,
    /// Calibration loops.
    pub calibration: Calibration,
}

/// Sums over calibration loops of their robust readings.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Loops run.
    pub loops: u64,
    /// Sum over loops of the median wall time of an empty span, ns.
    pub span_ns: f64,
    /// Sum over loops of the median duration of an empty span, ns.
    pub inside_ns: f64,
}

impl Sums {
    /// The sum for one class.
    pub fn of(&self, class: Class) -> Acc {
        self.class[class as usize]
    }

    /// Lock spans of every class.
    pub fn locks(&self) -> u64 {
        [Class::First, Class::Nested, Class::Contended, Class::Fat]
            .iter()
            .map(|&c| self.of(c).n)
            .sum()
    }

    /// Adds `other`'s sums.
    pub fn merge(&mut self, other: &Sums) {
        for (a, b) in self.class.iter_mut().zip(other.class.iter()) {
            a.merge(*b);
        }
        self.children.merge(other.children);
        self.child_locks += other.child_locks;
        self.calibration.loops += other.calibration.loops;
        self.calibration.span_ns += other.calibration.span_ns;
        self.calibration.inside_ns += other.calibration.inside_ns;
    }

    /// Wall time one empty span costs its caller, ns; 0 before any
    /// calibration.
    pub fn span_ns(&self) -> f64 {
        self.calibration.span_ns / self.calibration.loops.max(1) as f64
    }

    /// The part of [`span_ns`](Self::span_ns) between an empty span's own
    /// start and end, which every span's duration includes, ns.
    pub fn inside_ns(&self) -> f64 {
        self.calibration.inside_ns / self.calibration.loops.max(1) as f64
    }
}

#[derive(Debug, Default)]
struct OpenRequest {
    id: u64,
    children: Acc,
    child_locks: u64,
}

/// One thread's spans and sums.
#[derive(Debug, Default)]
pub struct ThreadLog {
    /// Per-backend sums over every span.
    pub sums: [Sums; 4],
    /// The first [`SPAN_CAP`] spans.
    pub spans: Vec<Span>,
    /// Spans past the cap, counted in `sums` only.
    pub dropped: u64,
    open: Option<OpenRequest>,
    exit_pending: Option<(u8, ObjRef)>,
    next_request: u64,
}

thread_local! {
    static LOG: RefCell<ThreadLog> = RefCell::new(ThreadLog::default());
}

/// Takes the calling thread's log, leaving an empty one.
pub fn take_thread_log() -> ThreadLog {
    LOG.with(|log| std::mem::take(&mut *log.borrow_mut()))
}

/// Makes `log` the calling thread's log, so that a thread started for one
/// slice carries on the log of the caller it stands for.
pub fn put_thread_log(log: ThreadLog) {
    LOG.with(|cell| *cell.borrow_mut() = log);
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// A [`SyncProtocol`] that records a span around each call it forwards.
pub struct SpanRecorder {
    inner: Backend,
    backend: u8,
    epoch: Instant,
}

impl SpanRecorder {
    /// Records spans around calls to `inner`, which is backend `backend`
    /// (an index into [`backends::NAMES`]); span times count from `epoch`.
    pub fn new(inner: Backend, backend: usize, epoch: Instant) -> Self {
        SpanRecorder {
            inner,
            backend: backend as u8,
            epoch,
        }
    }

    /// Opens a request on the calling thread: spans until
    /// [`end_request`](Self::end_request) are its children.
    pub fn begin_request(&self) {
        LOG.with(|log| {
            let mut log = log.borrow_mut();
            log.next_request += 1;
            log.open = Some(OpenRequest {
                id: log.next_request,
                ..OpenRequest::default()
            });
        });
    }

    /// Closes the calling thread's request, which ran from `start` to `end`.
    pub fn end_request(&self, t: ThreadToken, start: Instant, end: Instant) {
        let open = LOG.with(|log| log.borrow_mut().open.take());
        if let Some(open) = open {
            self.record(Class::Request, t, start, end, open.id);
            LOG.with(|log| {
                let sums = &mut log.borrow_mut().sums[self.backend as usize];
                sums.children.merge(open.children);
                sums.child_locks += open.child_locks;
            });
        }
    }

    fn lock_class(&self, obj: ObjRef, t: ThreadToken) -> Class {
        let word = self.inner.probe_word(obj);
        let fat_owner = if word.is_fat() {
            self.inner.owner_of(obj)
        } else {
            None
        };
        classify(word, fat_owner, t.index())
    }

    fn record_child(&self, class: Class, t: ThreadToken, start: Instant, end: Instant) {
        let request = LOG.with(|log| {
            let mut log = log.borrow_mut();
            match log.open.as_mut() {
                Some(open) => {
                    open.children.add(nanos(end - start));
                    open.child_locks += u64::from(class.is_lock());
                    open.id
                }
                None => 0,
            }
        });
        self.record(class, t, start, end, request);
    }

    fn record(&self, class: Class, t: ThreadToken, start: Instant, end: Instant, request: u64) {
        let span = Span {
            class,
            backend: self.backend,
            thread: t.index().get(),
            start_ns: nanos(start.saturating_duration_since(self.epoch)),
            end_ns: nanos(end.saturating_duration_since(self.epoch)),
            request,
        };
        LOG.with(|log| {
            let mut log = log.borrow_mut();
            log.sums[self.backend as usize].class[class as usize].add(span.end_ns - span.start_ns);
            if log.spans.len() < SPAN_CAP {
                if log.spans.capacity() == 0 {
                    log.spans.reserve_exact(SPAN_CAP);
                }
                log.spans.push(span);
            } else {
                log.dropped += 1;
            }
        });
    }

    /// Runs [`CALIBRATION_BATCHES`] batches of [`CALIBRATION_BATCH`] empty
    /// lock spans on `obj` (probe, two clock reads, record) and adds the
    /// medians, which an interrupt in one span cannot move, to the calling
    /// thread's calibration sums. Traced slices calibrate as they start, so
    /// the cost subtracted from each span is measured in the same phase of
    /// the host.
    pub fn calibrate(&self, obj: ObjRef, t: ThreadToken) {
        let mut inside = [0u64; CALIBRATION_BATCHES * CALIBRATION_BATCH];
        let mut walls = [0u64; CALIBRATION_BATCHES];
        for (batch, wall) in inside.chunks_mut(CALIBRATION_BATCH).zip(&mut walls) {
            let start = Instant::now();
            for slot in batch {
                std::hint::black_box(self.lock_class(obj, t));
                let s = Instant::now();
                let e = Instant::now();
                self.record_child(Class::Empty, t, s, e);
                *slot = nanos(e - s);
            }
            *wall = nanos(start.elapsed());
        }
        let middle = inside.len() / 2;
        let inside_ns = *inside.select_nth_unstable(middle).1 as f64;
        let wall_ns = *walls.select_nth_unstable(CALIBRATION_BATCHES / 2).1 as f64;
        LOG.with(|log| {
            let c = &mut log.borrow_mut().sums[self.backend as usize].calibration;
            c.loops += 1;
            c.span_ns += wall_ns / CALIBRATION_BATCH as f64;
            c.inside_ns += inside_ns;
        });
    }
}

impl SyncProtocol for SpanRecorder {
    fn lock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        let class = self.lock_class(obj, t);
        let start = Instant::now();
        let r = self.inner.lock(obj, t);
        let end = Instant::now();
        self.record_child(class, t, start, end);
        r
    }

    fn unlock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        let after_notify = LOG.with(|log| log.borrow_mut().exit_pending.take());
        let class = if after_notify == Some((self.backend, obj)) {
            Class::Exit
        } else if self.inner.probe_word(obj).is_fat() {
            Class::FatUnlock
        } else {
            Class::ThinUnlock
        };
        let start = Instant::now();
        let r = self.inner.unlock(obj, t);
        let end = Instant::now();
        self.record_child(class, t, start, end);
        r
    }

    fn notify(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        let start = Instant::now();
        let r = self.inner.notify(obj, t);
        let end = Instant::now();
        self.record_child(Class::Notify, t, start, end);
        LOG.with(|log| log.borrow_mut().exit_pending = Some((self.backend, obj)));
        r
    }

    fn wait(
        &self,
        obj: ObjRef,
        t: ThreadToken,
        timeout: Option<Duration>,
    ) -> SyncResult<WaitOutcome> {
        self.inner.wait(obj, t, timeout)
    }

    fn notify_all(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
        self.inner.notify_all(obj, t)
    }

    fn holds_lock(&self, obj: ObjRef, t: ThreadToken) -> bool {
        self.inner.holds_lock(obj, t)
    }

    fn try_lock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<bool> {
        self.inner.try_lock(obj, t)
    }

    fn lock_deadline(&self, obj: ObjRef, t: ThreadToken, timeout: Duration) -> SyncResult<()> {
        self.inner.lock_deadline(obj, t, timeout)
    }

    fn pre_inflate_hint(&self, obj: ObjRef) -> bool {
        self.inner.pre_inflate_hint(obj)
    }

    fn pin_fifo_hint(&self, obj: ObjRef) -> bool {
        self.inner.pin_fifo_hint(obj)
    }

    fn trace_sink(&self) -> Option<&dyn TraceSink> {
        self.inner.trace_sink()
    }

    fn heap(&self) -> &Heap {
        self.inner.heap()
    }

    fn registry(&self) -> &ThreadRegistry {
        self.inner.registry()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// One recorder per backend when `trace` is set, sharing one epoch; none
/// otherwise.
pub fn recorders(backends: &[Backend], trace: bool) -> Vec<SpanRecorder> {
    if !trace {
        return Vec::new();
    }
    let epoch = Instant::now();
    backends
        .iter()
        .enumerate()
        .map(|(b, backend)| SpanRecorder::new(backend.clone(), b, epoch))
        .collect()
}

/// Writes `spans` as tab-separated lines under one header line.
///
/// # Errors
///
/// Any error of `out`.
pub fn write_spans<'a>(
    out: &mut impl Write,
    spans: impl IntoIterator<Item = &'a Span>,
) -> io::Result<()> {
    writeln!(
        out,
        "name\tclass\tbackend\tthread\tstart_ns\tend_ns\trequest"
    )?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.class.name(),
            s.class.label(),
            backends::NAMES[s.backend as usize],
            s.thread,
            s.start_ns,
            s.end_ns,
            s.request
        )?;
    }
    Ok(())
}
