//! A classic producer/consumer bounded buffer built on Java-style
//! monitors over thin locks.
//!
//! Run with `cargo run --release --example bounded_buffer`.
//!
//! This is the multithreaded scenario the paper's introduction motivates
//! ("a Java server or a client running windowing or network code"): the
//! buffer's monitor sees real contention and `wait`/`notify`, so its thin
//! lock inflates, while every other object in the program keeps its cheap
//! thin lock.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use thinlock::ThinLocks;
use thinlock_runtime::backend::SyncBackend;
use thinlock_runtime::error::SyncResult;
use thinlock_runtime::heap::ObjRef;
use thinlock_runtime::protocol::{SyncProtocol, SyncProtocolExt};
use thinlock_runtime::registry::ThreadToken;

/// A bounded queue whose mutual exclusion and blocking come entirely from
/// the thin-lock monitor of one heap object — the direct translation of a
/// Java `synchronized`/`wait`/`notifyAll` bounded buffer.
struct BoundedBuffer {
    locks: Arc<ThinLocks>,
    monitor: ObjRef,
    items: Mutex<VecDeque<u64>>, // plain storage; protected by `monitor`
    capacity: usize,
}

impl BoundedBuffer {
    fn new(locks: Arc<ThinLocks>, capacity: usize) -> SyncResult<Self> {
        let monitor = locks.heap().alloc()?;
        Ok(BoundedBuffer {
            locks,
            monitor,
            items: Mutex::new(VecDeque::new()),
            capacity,
        })
    }

    fn put(&self, me: ThreadToken, value: u64) -> SyncResult<()> {
        let guard = self.locks.enter(self.monitor, me)?;
        loop {
            {
                let mut items = self.items.lock().expect("storage poisoned");
                if items.len() < self.capacity {
                    items.push_back(value);
                    break;
                }
            }
            guard.wait(None)?; // buffer full: release monitor and sleep
        }
        guard.notify_all()?; // wake consumers
        Ok(())
    }

    fn take(&self, me: ThreadToken) -> SyncResult<u64> {
        let guard = self.locks.enter(self.monitor, me)?;
        let value = loop {
            {
                let mut items = self.items.lock().expect("storage poisoned");
                if let Some(v) = items.pop_front() {
                    break v;
                }
            }
            guard.wait(None)?; // buffer empty: release monitor and sleep
        };
        guard.notify_all()?; // wake producers
        Ok(value)
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const PRODUCERS: usize = 2;
    const CONSUMERS: usize = 2;
    const PER_PRODUCER: u64 = 5_000;

    let locks = Arc::new(ThinLocks::with_capacity(8));
    let buffer = Arc::new(BoundedBuffer::new(Arc::clone(&locks), 16)?);

    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let buffer = Arc::clone(&buffer);
            scope.spawn(move || {
                let reg = buffer.locks.registry().register().expect("registry");
                for i in 0..PER_PRODUCER {
                    buffer
                        .put(reg.token(), p as u64 * PER_PRODUCER + i)
                        .expect("put");
                }
            });
        }
        let mut handles = Vec::new();
        for _ in 0..CONSUMERS {
            let buffer = Arc::clone(&buffer);
            handles.push(scope.spawn(move || {
                let reg = buffer.locks.registry().register().expect("registry");
                let mut sum = 0u64;
                for _ in 0..(PRODUCERS as u64 * PER_PRODUCER / CONSUMERS as u64) {
                    sum += buffer.take(reg.token()).expect("take");
                }
                sum
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().expect("join")).sum();
        let n = PRODUCERS as u64 * PER_PRODUCER;
        assert_eq!(total, n * (n - 1) / 2, "every produced item consumed once");
        println!("transferred {n} items, checksum OK");
    });

    println!(
        "buffer monitor inflated (wait/notify forces a fat lock): {} monitor(s) created",
        locks.inflation_count()
    );
    assert!(locks.inflation_count() >= 1);
    Ok(())
}
