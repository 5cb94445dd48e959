//! The four thin-word backends under test, built over heaps the benchmark
//! sizes, and the failure accounting every workload shares.

use std::sync::Arc;

use thinlock::{CjmLocks, FissileLocks, HapaxLocks, ThinLocks};
use thinlock_monitor::FatLock;
use thinlock_runtime::arch::LockWordCell;
use thinlock_runtime::{Heap, SyncBackend, SyncResult, ThreadRegistry};

/// A backend as every caller outside the core crate sees it.
pub type Backend = Arc<dyn SyncBackend + Send + Sync>;

/// Backend names, in the order metrics and slices use.
pub const NAMES: [&str; 4] = ["thin", "cjm", "fissile", "hapax"];

/// Builds backend `b` (an index into [`NAMES`]) over a fresh heap of
/// `objects` objects with `fields` instance fields each.
pub fn build(b: usize, objects: usize, fields: usize) -> Backend {
    let heap = Arc::new(Heap::with_capacity_and_fields(objects, fields));
    let registry = ThreadRegistry::new();
    match NAMES[b] {
        "thin" => Arc::new(ThinLocks::new(heap, registry)),
        "cjm" => Arc::new(CjmLocks::new(heap, registry)),
        "fissile" => Arc::new(FissileLocks::new(heap, registry)),
        _ => Arc::new(HapaxLocks::new(heap, registry)),
    }
}

/// Bytes of lock state a backend needed at its peak: one lock word per
/// object plus one fat monitor per monitor of the `monitors_peak` high-water
/// mark.
pub fn lock_bytes(objects: usize, monitors_peak: usize) -> usize {
    objects * std::mem::size_of::<LockWordCell>() + monitors_peak * std::mem::size_of::<FatLock>()
}

/// Operations attempted and failed. An operation is one acquisition: a
/// `lock` call or a synchronized-method entry, nested ones included.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned `Err`, belonged to a request with a wrong
    /// result, or lost a guarded update.
    pub failed: u64,
}

impl Tally {
    /// Counts `n` operations that succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` operations that failed.
    pub fn fail(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
    }

    /// Counts `n` operations by outcome.
    pub fn count<T>(&mut self, n: u64, result: &SyncResult<T>) {
        if result.is_ok() {
            self.ok(n);
        } else {
            self.fail(n);
        }
    }

    /// Marks `n` operations already counted as failed: their guarded
    /// updates were lost.
    pub fn lost(&mut self, n: u64) {
        self.failed = (self.failed + n).min(self.attempted);
    }

    /// Operations that succeeded.
    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Adds `other`'s counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Succeeded over attempted; 0 when nothing was attempted.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.succeeded() as f64 / self.attempted as f64
    }
}
