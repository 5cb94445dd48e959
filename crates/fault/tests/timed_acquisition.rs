//! End-to-end timed/try acquisition: bounded waiting across real
//! threads, deadlock classification, and the background watchdog.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use thinlock::{ThinLocks, Watchdog};
use thinlock_runtime::backend::SyncBackend;
use thinlock_runtime::error::SyncError;
use thinlock_runtime::protocol::SyncProtocol;

/// `lock_deadline` under real cross-thread contention: times out while
/// the owner holds on, succeeds once it lets go.
#[test]
fn deadline_times_out_then_succeeds_across_threads() {
    let locks = Arc::new(ThinLocks::with_capacity(2));
    let obj = locks.heap().alloc().unwrap();
    let (hold_tx, hold_rx) = mpsc::channel::<()>();

    let owner_locks = Arc::clone(&locks);
    let owner = std::thread::spawn(move || {
        let reg = owner_locks.registry().register().unwrap();
        owner_locks.lock(obj, reg.token()).unwrap();
        hold_rx.recv().unwrap(); // hold until told to release
        owner_locks.unlock(obj, reg.token()).unwrap();
    });

    let reg = locks.registry().register().unwrap();
    let t = reg.token();
    // Wait for the owner to actually take the lock.
    while locks.owner_of(obj).is_none() {
        std::thread::yield_now();
    }

    let start = Instant::now();
    let timeout = Duration::from_millis(30);
    assert_eq!(
        locks.lock_deadline(obj, t, timeout),
        Err(SyncError::Timeout)
    );
    assert!(
        start.elapsed() >= timeout,
        "timed out early: {:?}",
        start.elapsed()
    );

    hold_tx.send(()).unwrap();
    assert_eq!(
        locks.lock_deadline(obj, t, Duration::from_secs(5)),
        Ok(()),
        "acquisition succeeds once the owner releases"
    );
    locks.unlock(obj, t).unwrap();
    owner.join().unwrap();
}

/// `try_lock` never blocks: contended answers come back immediately.
#[test]
fn try_lock_answers_immediately_under_contention() {
    let locks = Arc::new(ThinLocks::with_capacity(2));
    let obj = locks.heap().alloc().unwrap();
    let (done_tx, done_rx) = mpsc::channel::<()>();

    let owner_locks = Arc::clone(&locks);
    let owner = std::thread::spawn(move || {
        let reg = owner_locks.registry().register().unwrap();
        owner_locks.lock(obj, reg.token()).unwrap();
        done_rx.recv().unwrap();
        owner_locks.unlock(obj, reg.token()).unwrap();
    });
    while locks.owner_of(obj).is_none() {
        std::thread::yield_now();
    }

    let reg = locks.registry().register().unwrap();
    let start = Instant::now();
    assert_eq!(locks.try_lock(obj, reg.token()), Ok(false));
    assert!(
        start.elapsed() < Duration::from_millis(250),
        "try_lock blocked: {:?}",
        start.elapsed()
    );
    done_tx.send(()).unwrap();
    owner.join().unwrap();
}

/// A genuine two-thread cycle (A holds X wants Y, B holds Y wants X):
/// at least one timed acquirer gets the deadlock classification rather
/// than a bare timeout, and after both back out the objects are free.
#[test]
fn cross_lock_cycle_is_classified_as_deadlock() {
    let locks = Arc::new(ThinLocks::with_capacity(4));
    let x = locks.heap().alloc().unwrap();
    let y = locks.heap().alloc().unwrap();

    // Staggered deadlines make detection deterministic: A expires
    // first, while B is still solidly mid-cycle, so A's double-scan
    // confirm must see the cycle; B then acquires once A backs out.
    let spawn = |mine: _, theirs: _, timeout: Duration| {
        let locks = Arc::clone(&locks);
        std::thread::spawn(move || {
            let reg = locks.registry().register().unwrap();
            let t = reg.token();
            locks.lock(mine, t).unwrap();
            // Rendezvous: wait until the partner holds its lock.
            while locks.owner_of(theirs).is_none() {
                std::thread::yield_now();
            }
            let r = locks.lock_deadline(theirs, t, timeout);
            if r.is_ok() {
                locks.unlock(theirs, t).unwrap();
            }
            locks.unlock(mine, t).unwrap();
            r
        })
    };
    let a = spawn(x, y, Duration::from_millis(400));
    let b = spawn(y, x, Duration::from_secs(10));
    let (ra, rb) = (a.join().unwrap(), b.join().unwrap());

    assert_eq!(
        ra,
        Err(SyncError::DeadlockDetected),
        "the first deadline to expire classifies the cycle"
    );
    assert_eq!(rb, Ok(()), "the survivor acquires after the backout");
    assert_eq!(locks.owner_of(x), None);
    assert_eq!(locks.owner_of(y), None);
}

/// The background watchdog spots the same cycle without any timed
/// acquirer: two threads block in plain `lock` and the scanner reports.
#[test]
fn watchdog_reports_cycle_between_untimed_lockers() {
    let locks = Arc::new(ThinLocks::with_capacity(4));
    let x = locks.heap().alloc().unwrap();
    let y = locks.heap().alloc().unwrap();
    let watchdog = Watchdog::spawn(Arc::clone(&locks), Duration::from_millis(5));

    let spawn = |mine: _, theirs: _| {
        let locks = Arc::clone(&locks);
        std::thread::spawn(move || {
            let reg = locks.registry().register().unwrap();
            let t = reg.token();
            locks.lock(mine, t).unwrap();
            while locks.owner_of(theirs).is_none() {
                std::thread::yield_now();
            }
            // Bounded and short, so the test unwinds quickly once the
            // watchdog has had many scan periods to spot the cycle.
            let r = locks.lock_deadline(theirs, t, Duration::from_millis(500));
            if r.is_ok() {
                locks.unlock(theirs, t).unwrap();
            }
            locks.unlock(mine, t).unwrap();
        })
    };
    let a = spawn(x, y);
    let b = spawn(y, x);

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let reports = watchdog.reports();
        if let Some(report) = reports.first() {
            assert_eq!(report.threads.len(), 2, "two-thread cycle: {report}");
            break;
        }
        assert!(Instant::now() < deadline, "watchdog never reported");
        std::thread::sleep(Duration::from_millis(2));
    }

    a.join().unwrap();
    b.join().unwrap();
    drop(watchdog);
}

/// Zero timeout on a free lock still acquires (acquisition preferred
/// over punctuality), and on a held lock returns promptly.
#[test]
fn zero_timeout_semantics() {
    let locks = ThinLocks::with_capacity(2);
    let obj = locks.heap().alloc().unwrap();
    let reg = locks.registry().register().unwrap();
    let t = reg.token();

    assert_eq!(locks.lock_deadline(obj, t, Duration::ZERO), Ok(()));
    locks.unlock(obj, t).unwrap();
}
