//! The common interface of every monitor implementation in the workspace.
//!
//! The paper compares three implementations of Java monitor semantics:
//! thin locks, the Sun JDK 1.1.1 monitor cache, and the IBM 1.1.2 hot
//! locks. [`SyncProtocol`] is the seam that lets the bytecode VM, the trace
//! replayer, and every benchmark run unchanged over all three.
//!
//! Semantics follow the Java language specification (derived from Mesa
//! monitors, as the paper notes): re-entrant mutual exclusion per object,
//! plus `wait`/`notify`/`notifyAll` condition queues with "notify moves the
//! waiter to the entry queue" (Mesa signal-and-continue) semantics.

use std::time::Duration;

#[allow(unused_imports)] // referenced by doc links; used by the testing oracle
use crate::error::SyncError;
use crate::error::SyncResult;
use crate::events::TraceSink;
use crate::heap::{Heap, ObjRef};
use crate::registry::{ThreadRegistry, ThreadToken};

/// Result of a [`SyncProtocol::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitOutcome {
    /// The thread was woken by `notify`/`notifyAll`.
    Notified,
    /// The timeout elapsed before a notification arrived.
    TimedOut,
}

/// Java monitor semantics over a shared [`Heap`] of objects.
///
/// Calling threads identify themselves with the [`ThreadToken`] issued by
/// the protocol's [`ThreadRegistry`]; this models the execution-environment
/// pointer that the paper's assembly fast path loads the pre-shifted thread
/// index from.
///
/// # Example
///
/// Generic code can take any protocol:
///
/// ```no_run
/// use thinlock_runtime::{SyncProtocol, ObjRef, ThreadToken, SyncResult};
///
/// fn critical_section<P: SyncProtocol>(p: &P, obj: ObjRef, me: ThreadToken) -> SyncResult<()> {
///     p.lock(obj, me)?;
///     // ... guarded work ...
///     p.unlock(obj, me)
/// }
/// ```
pub trait SyncProtocol: Send + Sync {
    /// Acquires the monitor of `obj` for thread `t`, re-entrantly.
    ///
    /// Blocks (spinning or queuing, per implementation) under contention.
    ///
    /// # Errors
    ///
    /// Implementation-specific resource exhaustion
    /// ([`SyncError::MonitorIndexExhausted`], …).
    fn lock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()>;

    /// Releases one level of the monitor of `obj`.
    ///
    /// # Errors
    ///
    /// [`SyncError::NotOwner`] / [`SyncError::NotLocked`] when `t` does not
    /// own the monitor — Java's `IllegalMonitorStateException`.
    fn unlock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()>;

    /// Releases the monitor entirely (all nesting levels), waits for a
    /// notification or timeout, then re-acquires to the previous nesting
    /// level before returning.
    ///
    /// # Errors
    ///
    /// [`SyncError::NotOwner`] if `t` does not own the monitor;
    /// [`SyncError::Interrupted`] if the thread was interrupted (the
    /// monitor is still re-acquired first, as the JLS requires).
    fn wait(
        &self,
        obj: ObjRef,
        t: ThreadToken,
        timeout: Option<Duration>,
    ) -> SyncResult<WaitOutcome>;

    /// Wakes one thread waiting on `obj`, if any.
    ///
    /// # Errors
    ///
    /// [`SyncError::NotOwner`] if `t` does not own the monitor.
    fn notify(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()>;

    /// Wakes every thread waiting on `obj`.
    ///
    /// # Errors
    ///
    /// [`SyncError::NotOwner`] if `t` does not own the monitor.
    fn notify_all(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()>;

    /// True if thread `t` currently owns the monitor of `obj`.
    fn holds_lock(&self, obj: ObjRef, t: ThreadToken) -> bool;

    /// Attempts to acquire the monitor of `obj` without blocking.
    ///
    /// Returns `Ok(true)` if acquired (including re-entrantly) and
    /// `Ok(false)` if the monitor was held by another thread. The default
    /// delegates to [`SyncProtocol::lock`] and therefore **may block**;
    /// it exists so protocols without a non-blocking path (the JDK 1.1.1
    /// monitor-cache baseline) stay correct, merely without the timeliness
    /// guarantee. The thin-lock protocol overrides it with a genuinely
    /// non-blocking attempt.
    ///
    /// # Errors
    ///
    /// Same resource-exhaustion errors as [`SyncProtocol::lock`].
    fn try_lock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<bool> {
        self.lock(obj, t).map(|()| true)
    }

    /// Acquires the monitor of `obj`, giving up after `timeout`.
    ///
    /// On success the monitor is held exactly as after
    /// [`SyncProtocol::lock`]. On timeout the monitor is **not** held and
    /// [`SyncError::Timeout`] is returned; implementations with a
    /// deadlock watchdog may return [`SyncError::DeadlockDetected`]
    /// instead when the caller was on a waits-for cycle at the deadline.
    /// The default delegates to [`SyncProtocol::lock`] and ignores the
    /// timeout (unbounded blocking), so it never reports either error.
    ///
    /// # Errors
    ///
    /// [`SyncError::Timeout`], [`SyncError::DeadlockDetected`], plus the
    /// resource-exhaustion errors of [`SyncProtocol::lock`].
    fn lock_deadline(&self, obj: ObjRef, t: ThreadToken, timeout: Duration) -> SyncResult<()> {
        let _ = timeout;
        self.lock(obj, t)
    }

    /// Applies a static pre-inflation hint to `obj`, if the protocol has a
    /// cheaper-up-front lock representation it can skip.
    ///
    /// Static analysis (the `lockcheck` nest-depth pass) can prove that an
    /// object's lock nesting may exceed a thin lock's 8-bit count, which
    /// would force an inflation in the middle of a critical section. A
    /// protocol that distinguishes cheap and expensive lock shapes can use
    /// this hint to switch the object to the expensive shape *before* the
    /// workload runs. Returns `true` if the hint changed the object's
    /// representation. The default does nothing: protocols without an
    /// inflation step (monitor caches, oracles) have nothing to pre-arm.
    fn pre_inflate_hint(&self, obj: ObjRef) -> bool {
        let _ = obj;
        false
    }

    /// Static FIFO-admission hint, delivered before a workload runs.
    ///
    /// A contention analysis that predicts a hot multi-thread mutex can
    /// ask the protocol to admit `obj`'s acquirers in FIFO order from
    /// the start, instead of waiting for a dynamic policy to observe the
    /// contention first. Returns `true` if the protocol honors the pin.
    /// The default does nothing: most protocols have no admission-order
    /// machinery to arm (the probe `BackendChoice::fifo_admission` names
    /// the ones that do).
    fn pin_fifo_hint(&self, obj: ObjRef) -> bool {
        let _ = obj;
        false
    }

    /// The event sink this protocol records lock events into, if any.
    ///
    /// Protocols that support event tracing (the thin-lock protocol with
    /// a `thinlock-obs` tracer attached) return their sink here so
    /// generic harness code — the bytecode VM, the trace replayer, the
    /// `reproduce` binary — can record protocol-adjacent events (sync
    /// elision hits, hint deliveries) into the *same* event stream the
    /// protocol's own recording points feed, without knowing the
    /// concrete protocol or sink type. The default is `None`: tracing
    /// is strictly opt-in and costs untraced protocols nothing.
    fn trace_sink(&self) -> Option<&dyn TraceSink> {
        None
    }

    /// The heap whose objects this protocol synchronizes.
    fn heap(&self) -> &Heap;

    /// The registry that issued the tokens this protocol accepts.
    fn registry(&self) -> &ThreadRegistry;

    /// Short stable name used in benchmark reports ("ThinLock", "JDK111",
    /// "IBM112").
    fn name(&self) -> &'static str;
}

/// RAII guard: releases the monitor when dropped, even on unwind, so a
/// panicking critical section cannot leak a lock (Java's `synchronized`
/// unlocks on exception for the same reason).
#[derive(Debug)]
pub struct MonitorGuard<'p, P: SyncProtocol + ?Sized> {
    protocol: &'p P,
    obj: ObjRef,
    token: ThreadToken,
}

impl<'p, P: SyncProtocol + ?Sized> MonitorGuard<'p, P> {
    /// The guarded object.
    pub fn object(&self) -> ObjRef {
        self.obj
    }

    /// Waits on the guarded object's condition queue.
    ///
    /// # Errors
    ///
    /// See [`SyncProtocol::wait`].
    pub fn wait(&self, timeout: Option<Duration>) -> SyncResult<WaitOutcome> {
        self.protocol.wait(self.obj, self.token, timeout)
    }

    /// Notifies one waiter on the guarded object.
    ///
    /// # Errors
    ///
    /// See [`SyncProtocol::notify`].
    pub fn notify(&self) -> SyncResult<()> {
        self.protocol.notify(self.obj, self.token)
    }

    /// Notifies all waiters on the guarded object.
    ///
    /// # Errors
    ///
    /// See [`SyncProtocol::notify_all`].
    pub fn notify_all(&self) -> SyncResult<()> {
        self.protocol.notify_all(self.obj, self.token)
    }
}

impl<'p, P: SyncProtocol + ?Sized> Drop for MonitorGuard<'p, P> {
    fn drop(&mut self) {
        // Destructors never fail (C-DTOR-FAIL): a guard only exists for a
        // lock we own, so the only conceivable error here is a protocol
        // bug; surface it loudly in debug builds, swallow it during unwind.
        let r = self.protocol.unlock(self.obj, self.token);
        debug_assert!(r.is_ok(), "guard unlock failed: {r:?}");
    }
}

/// Blanket convenience layer over [`SyncProtocol`].
pub trait SyncProtocolExt: SyncProtocol {
    /// Acquires `obj` and returns a guard that releases it on drop.
    ///
    /// # Errors
    ///
    /// Propagates [`SyncProtocol::lock`] errors.
    fn enter(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<MonitorGuard<'_, Self>> {
        self.lock(obj, t)?;
        Ok(MonitorGuard {
            protocol: self,
            obj,
            token: t,
        })
    }

    /// Runs `f` with the monitor of `obj` held — the `synchronized` block.
    ///
    /// # Errors
    ///
    /// Propagates [`SyncProtocol::lock`] errors; `f`'s value is returned on
    /// success. The monitor is released even if `f` panics.
    fn synchronized<R>(&self, obj: ObjRef, t: ThreadToken, f: impl FnOnce() -> R) -> SyncResult<R> {
        let _guard = self.enter(obj, t)?;
        Ok(f())
    }
}

impl<P: SyncProtocol + ?Sized> SyncProtocolExt for P {}

/// A trivial protocol for this crate's tests of generic machinery: a
/// global mutex table keyed by object index. Not a reproduction artifact —
/// exists so the substrate can test `SyncProtocol`-generic code without
/// depending on the real protocols (which live upstack).
#[cfg(test)]
pub mod testing {
    use super::*;
    use std::collections::HashMap;
    use std::sync::{Condvar, Mutex};

    /// Reference monitor implementation used as an oracle in tests.
    #[derive(Debug)]
    pub struct TableMonitor {
        heap: Heap,
        registry: ThreadRegistry,
        state: Mutex<HashMap<usize, (u16, u32)>>, // obj -> (owner, count)
        cv: Condvar,
    }

    impl TableMonitor {
        /// Creates an oracle over a fresh heap of `cap` objects.
        pub fn new(cap: usize) -> Self {
            TableMonitor {
                heap: Heap::with_capacity(cap),
                registry: ThreadRegistry::new(),
                state: Mutex::new(HashMap::new()),
                cv: Condvar::new(),
            }
        }
    }

    impl SyncProtocol for TableMonitor {
        fn lock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
            let mut st = self.state.lock().unwrap();
            loop {
                match st.get_mut(&obj.index()) {
                    None => {
                        st.insert(obj.index(), (t.index().get(), 1));
                        return Ok(());
                    }
                    Some((owner, count)) if *owner == t.index().get() => {
                        *count += 1;
                        return Ok(());
                    }
                    Some(_) => {
                        st = self.cv.wait(st).unwrap();
                    }
                }
            }
        }

        fn try_lock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<bool> {
            let mut st = self.state.lock().unwrap();
            match st.get_mut(&obj.index()) {
                None => {
                    st.insert(obj.index(), (t.index().get(), 1));
                    Ok(true)
                }
                Some((owner, count)) if *owner == t.index().get() => {
                    *count += 1;
                    Ok(true)
                }
                Some(_) => Ok(false),
            }
        }

        fn lock_deadline(&self, obj: ObjRef, t: ThreadToken, timeout: Duration) -> SyncResult<()> {
            let deadline = std::time::Instant::now() + timeout;
            let mut st = self.state.lock().unwrap();
            loop {
                match st.get_mut(&obj.index()) {
                    None => {
                        st.insert(obj.index(), (t.index().get(), 1));
                        return Ok(());
                    }
                    Some((owner, count)) if *owner == t.index().get() => {
                        *count += 1;
                        return Ok(());
                    }
                    Some(_) => {
                        let Some(remaining) = deadline
                            .checked_duration_since(std::time::Instant::now())
                            .filter(|d| !d.is_zero())
                        else {
                            return Err(SyncError::Timeout);
                        };
                        st = self.cv.wait_timeout(st, remaining).unwrap().0;
                    }
                }
            }
        }

        fn unlock(&self, obj: ObjRef, t: ThreadToken) -> SyncResult<()> {
            let mut st = self.state.lock().unwrap();
            match st.get_mut(&obj.index()) {
                Some((owner, count)) if *owner == t.index().get() => {
                    *count -= 1;
                    if *count == 0 {
                        st.remove(&obj.index());
                        self.cv.notify_all();
                    }
                    Ok(())
                }
                Some(_) => Err(SyncError::NotOwner),
                None => Err(SyncError::NotLocked),
            }
        }

        fn wait(
            &self,
            _obj: ObjRef,
            _t: ThreadToken,
            _timeout: Option<Duration>,
        ) -> SyncResult<WaitOutcome> {
            unimplemented!("oracle does not model wait")
        }

        fn notify(&self, _obj: ObjRef, _t: ThreadToken) -> SyncResult<()> {
            Ok(())
        }

        fn notify_all(&self, _obj: ObjRef, _t: ThreadToken) -> SyncResult<()> {
            Ok(())
        }

        fn holds_lock(&self, obj: ObjRef, t: ThreadToken) -> bool {
            self.state
                .lock()
                .unwrap()
                .get(&obj.index())
                .is_some_and(|(owner, _)| *owner == t.index().get())
        }

        fn heap(&self) -> &Heap {
            &self.heap
        }

        fn registry(&self) -> &ThreadRegistry {
            &self.registry
        }

        fn name(&self) -> &'static str {
            "TableOracle"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::TableMonitor;
    use super::*;

    #[test]
    fn guard_releases_on_drop() {
        let p = TableMonitor::new(4);
        let reg = p.registry().register().unwrap();
        let t = reg.token();
        let obj = p.heap().alloc().unwrap();
        {
            let g = p.enter(obj, t).unwrap();
            assert!(p.holds_lock(obj, t));
            assert_eq!(g.object(), obj);
        }
        assert!(!p.holds_lock(obj, t));
    }

    #[test]
    fn synchronized_returns_value_and_unlocks() {
        let p = TableMonitor::new(4);
        let reg = p.registry().register().unwrap();
        let t = reg.token();
        let obj = p.heap().alloc().unwrap();
        let v = p.synchronized(obj, t, || 42).unwrap();
        assert_eq!(v, 42);
        assert!(!p.holds_lock(obj, t));
    }

    #[test]
    fn guard_releases_on_panic() {
        let p = TableMonitor::new(4);
        let reg = p.registry().register().unwrap();
        let t = reg.token();
        let obj = p.heap().alloc().unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = p.enter(obj, t).unwrap();
            panic!("boom");
        }));
        assert!(result.is_err());
        assert!(!p.holds_lock(obj, t), "lock released during unwind");
    }

    #[test]
    fn reentrancy_in_oracle() {
        let p = TableMonitor::new(4);
        let reg = p.registry().register().unwrap();
        let t = reg.token();
        let obj = p.heap().alloc().unwrap();
        p.lock(obj, t).unwrap();
        p.lock(obj, t).unwrap();
        assert!(p.holds_lock(obj, t));
        p.unlock(obj, t).unwrap();
        assert!(p.holds_lock(obj, t));
        p.unlock(obj, t).unwrap();
        assert!(!p.holds_lock(obj, t));
        assert_eq!(p.unlock(obj, t), Err(SyncError::NotLocked));
    }

    #[test]
    fn unlock_by_non_owner_is_rejected() {
        let p = TableMonitor::new(4);
        let ra = p.registry().register().unwrap();
        let rb = p.registry().register().unwrap();
        let obj = p.heap().alloc().unwrap();
        p.lock(obj, ra.token()).unwrap();
        assert_eq!(p.unlock(obj, rb.token()), Err(SyncError::NotOwner));
        p.unlock(obj, ra.token()).unwrap();
    }

    #[test]
    fn protocol_is_object_safe() {
        let p = TableMonitor::new(1);
        let dynp: &dyn SyncProtocol = &p;
        assert_eq!(dynp.name(), "TableOracle");
    }

    #[test]
    fn trace_sink_defaults_to_none() {
        let p = TableMonitor::new(1);
        assert!(p.trace_sink().is_none(), "tracing is opt-in");
    }

    #[test]
    fn try_lock_succeeds_uncontended_and_reentrantly() {
        let p = TableMonitor::new(4);
        let reg = p.registry().register().unwrap();
        let t = reg.token();
        let obj = p.heap().alloc().unwrap();
        assert_eq!(p.try_lock(obj, t), Ok(true));
        assert_eq!(p.try_lock(obj, t), Ok(true), "re-entrant try succeeds");
        p.unlock(obj, t).unwrap();
        p.unlock(obj, t).unwrap();
        assert!(!p.holds_lock(obj, t));
    }

    #[test]
    fn try_lock_fails_under_contention_without_blocking() {
        let p = TableMonitor::new(4);
        let ra = p.registry().register().unwrap();
        let rb = p.registry().register().unwrap();
        let obj = p.heap().alloc().unwrap();
        p.lock(obj, ra.token()).unwrap();
        assert_eq!(p.try_lock(obj, rb.token()), Ok(false));
        assert!(!p.holds_lock(obj, rb.token()));
        p.unlock(obj, ra.token()).unwrap();
        assert_eq!(p.try_lock(obj, rb.token()), Ok(true));
        p.unlock(obj, rb.token()).unwrap();
    }

    #[test]
    fn lock_deadline_times_out_and_later_succeeds() {
        let p = TableMonitor::new(4);
        let ra = p.registry().register().unwrap();
        let rb = p.registry().register().unwrap();
        let obj = p.heap().alloc().unwrap();
        p.lock(obj, ra.token()).unwrap();
        assert_eq!(
            p.lock_deadline(obj, rb.token(), Duration::from_millis(20)),
            Err(SyncError::Timeout)
        );
        assert!(!p.holds_lock(obj, rb.token()), "timeout leaves lock unheld");
        p.unlock(obj, ra.token()).unwrap();
        p.lock_deadline(obj, rb.token(), Duration::from_millis(20))
            .unwrap();
        assert!(p.holds_lock(obj, rb.token()));
        p.unlock(obj, rb.token()).unwrap();
    }
}
