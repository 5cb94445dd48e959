//! The "library tax" scenario from the paper's introduction: a
//! single-threaded program hammering a thread-safe collection.
//!
//! Run with `cargo run --release --example vector_workload`.
//!
//! "Even single-threaded applications may spend up to half their time
//! performing useless synchronization due to the thread-safe nature of
//! the Java libraries." The paper's `javalex` benchmark made almost one
//! million calls to the synchronized `elementAt` method of one `Vector`.
//! This example builds that Vector-equivalent — a growable collection
//! whose every method synchronizes on the collection object — and runs
//! the same single-threaded workload under all three locking protocols.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use thinlock::ThinLocks;
use thinlock_baselines::{HotLocks, MonitorCache};
use thinlock_runtime::backend::SyncBackend;
use thinlock_runtime::error::SyncResult;
use thinlock_runtime::heap::ObjRef;
use thinlock_runtime::protocol::{SyncProtocol, SyncProtocolExt};
use thinlock_runtime::registry::ThreadToken;

/// A miniature `java.util.Vector`: every public method is synchronized on
/// the collection's own monitor, whether or not any other thread exists.
struct SyncVector<'p, P: SyncProtocol + ?Sized> {
    protocol: &'p P,
    monitor: ObjRef,
    data: Vec<AtomicI64>,
    len: AtomicI64,
}

impl<'p, P: SyncProtocol + ?Sized> SyncVector<'p, P> {
    fn new(protocol: &'p P, capacity: usize) -> SyncResult<Self> {
        Ok(SyncVector {
            protocol,
            monitor: protocol.heap().alloc()?,
            data: (0..capacity).map(|_| AtomicI64::new(0)).collect(),
            len: AtomicI64::new(0),
        })
    }

    /// `public synchronized void addElement(int v)`
    fn add_element(&self, me: ThreadToken, v: i64) -> SyncResult<()> {
        self.protocol.synchronized(self.monitor, me, || {
            let i = self.len.fetch_add(1, Ordering::Relaxed) as usize;
            self.data[i].store(v, Ordering::Relaxed);
        })
    }

    /// `public synchronized int elementAt(int i)` — javalex's hot method.
    fn element_at(&self, me: ThreadToken, i: usize) -> SyncResult<i64> {
        self.protocol
            .synchronized(self.monitor, me, || self.data[i].load(Ordering::Relaxed))
    }

    /// `public synchronized int size()`
    fn size(&self, me: ThreadToken) -> SyncResult<i64> {
        self.protocol
            .synchronized(self.monitor, me, || self.len.load(Ordering::Relaxed))
    }
}

/// The javalex-flavoured workload: build a table, then scan it many times
/// through the synchronized accessor — single-threaded throughout.
fn run_workload<P: SyncProtocol + ?Sized>(protocol: &P) -> SyncResult<(i64, std::time::Duration)> {
    const ELEMENTS: usize = 1_000;
    const SCANS: usize = 1_000;

    let registration = protocol.registry().register()?;
    let me = registration.token();
    let vector = SyncVector::new(protocol, ELEMENTS)?;

    let start = Instant::now();
    for i in 0..ELEMENTS {
        vector.add_element(me, i as i64)?;
    }
    let mut checksum = 0i64;
    for _ in 0..SCANS {
        let n = vector.size(me)? as usize;
        for i in 0..n {
            checksum = checksum.wrapping_add(vector.element_at(me, i)?);
        }
    }
    Ok((checksum, start.elapsed()))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let thin = ThinLocks::with_capacity(4);
    let jdk = MonitorCache::with_capacity(4);
    let ibm = HotLocks::new(
        Arc::new(thinlock_runtime::heap::Heap::with_capacity(4)),
        thinlock_runtime::registry::ThreadRegistry::new(),
        thinlock_baselines::cache::DEFAULT_CACHE_CAPACITY,
        thinlock_baselines::hot::DEFAULT_HOT_THRESHOLD,
    );

    println!("single-threaded synchronized-Vector workload (~2M lock operations):");
    let mut times = Vec::new();
    let mut reference = None;
    for protocol in [&thin as &dyn SyncProtocol, &jdk, &ibm] {
        let (checksum, elapsed) = run_workload(protocol)?;
        match reference {
            None => reference = Some(checksum),
            Some(r) => assert_eq!(r, checksum, "all protocols compute the same result"),
        }
        println!("  {:<9} {:>10.2?}", protocol.name(), elapsed);
        times.push((protocol.name(), elapsed));
    }

    let thin_time = times[0].1;
    let jdk_time = times[1].1;
    println!(
        "thin locks remove the library tax: {:.1}x faster than the monitor cache",
        jdk_time.as_secs_f64() / thin_time.as_secs_f64()
    );
    // The lock stayed thin the whole time: no contention, no wait/notify.
    assert_eq!(thin.inflation_count(), 0);
    Ok(())
}
