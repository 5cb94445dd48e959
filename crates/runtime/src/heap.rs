//! A fixed-capacity object heap with three-word headers.
//!
//! The paper's JVM gives every object a three-word header; the thin lock
//! borrows 24 bits of one of those words, and the remaining 8 bits of that
//! word hold other header data (hash bits, GC bits) that locking must never
//! disturb. This heap reproduces that layout:
//!
//! * word 0 — the lock word ([`crate::arch::LockWordCell`]), whose low byte
//!   is initialized to a per-object pseudo-hash so tests can detect any
//!   protocol that clobbers the shared bits;
//! * word 1 — class id and flags;
//! * word 2 — size / auxiliary data (no protocol uses it: IBM112's hot
//!   locks keep the displaced header in the hot-lock structure, as the
//!   paper describes).
//!
//! Objects may additionally carry a fixed number of `i32` instance fields
//! (used by the bytecode VM). Allocation is a wait-free atomic bump over a
//! preallocated arena, mirroring a real VM's nursery; a full heap returns
//! [`SyncError::HeapFull`] rather than growing, because growth would move
//! headers and (per the paper) the header bits may only change "when an
//! object is moved", which our non-moving collector never does.

use std::fmt;
use std::sync::atomic::{AtomicI32, AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

use crate::arch::LockWordCell;
use crate::error::SyncError;
use crate::fault::{FaultAction, InjectionPoint};
use crate::hooks::{Hooks, Site};
use crate::lockword::LockWord;

/// A reference to a heap object: an index into the heap's arena.
///
/// `ObjRef` is `Copy` and meaningful only together with the [`Heap`] that
/// produced it, like an object pointer is only meaningful within its
/// address space.
///
/// # Example
///
/// ```
/// use thinlock_runtime::heap::Heap;
/// let heap = Heap::with_capacity(4);
/// let a = heap.alloc()?;
/// let b = heap.alloc()?;
/// assert_ne!(a, b);
/// # Ok::<(), thinlock_runtime::SyncError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjRef(u32);

impl ObjRef {
    /// The arena slot of this object.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a reference from a slot index previously obtained from
    /// [`ObjRef::index`]. The caller must pair it with the right heap.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        ObjRef(index as u32)
    }
}

impl fmt::Display for ObjRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// The three-word object header of the paper's JVM.
#[derive(Debug)]
pub struct ObjectHeader {
    lock: LockWordCell,
    class_and_flags: AtomicU32,
    aux: AtomicU32,
}

impl ObjectHeader {
    fn new(hash_bits: u8) -> Self {
        ObjectHeader {
            lock: LockWordCell::new(LockWord::new_unlocked(hash_bits)),
            class_and_flags: AtomicU32::new(0),
            aux: AtomicU32::new(0),
        }
    }

    /// The header word containing the 24-bit lock field.
    #[inline]
    pub fn lock_word(&self) -> &LockWordCell {
        &self.lock
    }

    /// The class-id/flags word (word 1).
    #[inline]
    pub fn class_and_flags(&self) -> &AtomicU32 {
        &self.class_and_flags
    }

    /// The auxiliary word (word 2), which no protocol uses.
    #[inline]
    pub fn aux(&self) -> &AtomicU32 {
        &self.aux
    }

    /// The 8 non-lock bits of the lock word, fixed at allocation.
    #[inline]
    pub fn hash_bits(&self) -> u8 {
        self.lock.load_relaxed().header_bits()
    }
}

/// A fixed-capacity, non-moving object heap.
///
/// # Example
///
/// ```
/// use thinlock_runtime::heap::Heap;
///
/// let heap = Heap::with_capacity_and_fields(8, 2);
/// let obj = heap.alloc_with_class(17)?;
/// heap.field(obj, 0).store(41, std::sync::atomic::Ordering::Relaxed);
/// assert_eq!(heap.field(obj, 0).load(std::sync::atomic::Ordering::Relaxed), 41);
/// assert_eq!(heap.class_of(obj), 17);
/// # Ok::<(), thinlock_runtime::SyncError>(())
/// ```
pub struct Heap {
    headers: Box<[ObjectHeader]>,
    fields: Box<[AtomicI32]>,
    fields_per_object: usize,
    next: AtomicU32,
    hooks: OnceLock<Arc<dyn Hooks>>,
}

impl Heap {
    /// Creates a heap that can hold `capacity` field-less objects.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_fields(capacity, 0)
    }

    /// Creates a heap of `capacity` objects, each with `fields_per_object`
    /// signed 32-bit instance fields (all initialized to zero).
    pub fn with_capacity_and_fields(capacity: usize, fields_per_object: usize) -> Self {
        assert!(capacity <= u32::MAX as usize, "heap capacity exceeds u32");
        let headers: Box<[ObjectHeader]> = (0..capacity)
            .map(|i| ObjectHeader::new(pseudo_hash(i)))
            .collect();
        let fields: Box<[AtomicI32]> = (0..capacity * fields_per_object)
            .map(|_| AtomicI32::new(0))
            .collect();
        Heap {
            headers,
            fields,
            fields_per_object,
            next: AtomicU32::new(0),
            hooks: OnceLock::new(),
        }
    }

    /// Attaches the hook consulted at [`InjectionPoint::HeapAlloc`] on
    /// every allocation — the protocol's own hook, so one injector covers
    /// the whole stack. Write-once: the first installed hook wins and
    /// later calls are ignored (mirroring `OnceLock` semantics), so a
    /// protocol can install through a shared `Arc<Heap>` without a
    /// `&mut` builder window.
    pub fn set_hooks(&self, hooks: Arc<dyn Hooks>) {
        let _ = self.hooks.set(hooks);
    }

    /// Total number of objects this heap can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.headers.len()
    }

    /// Number of objects allocated so far.
    #[inline]
    pub fn allocated(&self) -> usize {
        (self.next.load(Ordering::Relaxed) as usize).min(self.capacity())
    }

    /// Instance fields carried by every object.
    #[inline]
    pub fn fields_per_object(&self) -> usize {
        self.fields_per_object
    }

    /// Allocates a fresh object with class id 0.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError::HeapFull`] when the arena is exhausted.
    pub fn alloc(&self) -> Result<ObjRef, SyncError> {
        self.alloc_with_class(0)
    }

    /// Allocates a fresh object with the given class id.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError::HeapFull`] when the arena is exhausted.
    pub fn alloc_with_class(&self, class_id: u32) -> Result<ObjRef, SyncError> {
        if let Some(hooks) = self.hooks.get() {
            match hooks.before(Site::fault(InjectionPoint::HeapAlloc), None) {
                FaultAction::Exhaust => return Err(SyncError::HeapFull),
                FaultAction::Yield => std::thread::yield_now(),
                _ => {}
            }
        }
        let slot = self.next.fetch_add(1, Ordering::Relaxed);
        if (slot as usize) >= self.headers.len() {
            // Undo so `allocated()` stays meaningful; harmless if racy
            // because every loser also decrements its own increment.
            self.next.fetch_sub(1, Ordering::Relaxed);
            return Err(SyncError::HeapFull);
        }
        self.headers[slot as usize]
            .class_and_flags
            .store(class_id, Ordering::Relaxed);
        Ok(ObjRef(slot))
    }

    /// The header of `obj`.
    ///
    /// # Panics
    ///
    /// Panics if `obj` was not produced by this heap (index out of range).
    #[inline]
    pub fn header(&self, obj: ObjRef) -> &ObjectHeader {
        &self.headers[obj.index()]
    }

    /// The class id of `obj`.
    #[inline]
    pub fn class_of(&self, obj: ObjRef) -> u32 {
        self.header(obj).class_and_flags.load(Ordering::Relaxed)
    }

    /// The `i`-th instance field of `obj`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= fields_per_object` or `obj` is out of range.
    #[inline]
    pub fn field(&self, obj: ObjRef, i: usize) -> &AtomicI32 {
        assert!(i < self.fields_per_object, "field index out of range");
        &self.fields[obj.index() * self.fields_per_object + i]
    }

    /// Iterates over all allocated objects.
    pub fn iter(&self) -> impl Iterator<Item = ObjRef> + '_ {
        (0..self.allocated() as u32).map(ObjRef)
    }
}

impl fmt::Debug for Heap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Heap")
            .field("capacity", &self.capacity())
            .field("allocated", &self.allocated())
            .field("fields_per_object", &self.fields_per_object)
            .finish()
    }
}

/// The fixed 8 hash/GC bits an object is born with. Deliberately varied so
/// a protocol that zeroes the low byte fails tests immediately.
///
/// Bit 0 is kept clear: the IBM 1.1.2 hot-lock baseline overloads bit 0 of
/// the header word as its "this word is a hot-lock pointer" marker, exactly
/// as the paper describes ("One bit in the header word indicates whether
/// the word is a hot lock pointer or regular header data"), so a real
/// header word must never have it set.
fn pseudo_hash(index: usize) -> u8 {
    (((index as u32).wrapping_mul(0x9E37_79B9) >> 24) as u8) & 0xFE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_until_full() {
        let heap = Heap::with_capacity(3);
        assert_eq!(heap.capacity(), 3);
        let a = heap.alloc().unwrap();
        let b = heap.alloc().unwrap();
        let c = heap.alloc().unwrap();
        assert_eq!(heap.allocated(), 3);
        assert_eq!(heap.alloc(), Err(SyncError::HeapFull));
        assert_eq!(heap.allocated(), 3);
        assert_eq!([a.index(), b.index(), c.index()], [0, 1, 2]);
    }

    #[test]
    fn objects_start_unlocked_with_varied_hash_bits() {
        let heap = Heap::with_capacity(64);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            let o = heap.alloc().unwrap();
            let w = heap.header(o).lock_word().load_relaxed();
            assert!(w.is_unlocked());
            assert_eq!(w.header_bits() & 1, 0, "bit 0 reserved for hot marker");
            seen.insert(w.header_bits());
        }
        assert!(seen.len() > 8, "hash bits should vary across objects");
    }

    #[test]
    fn class_ids_are_recorded() {
        let heap = Heap::with_capacity(2);
        let o = heap.alloc_with_class(99).unwrap();
        assert_eq!(heap.class_of(o), 99);
    }

    #[test]
    fn fields_are_independent() {
        let heap = Heap::with_capacity_and_fields(2, 3);
        let a = heap.alloc().unwrap();
        let b = heap.alloc().unwrap();
        heap.field(a, 0).store(1, Ordering::Relaxed);
        heap.field(a, 2).store(3, Ordering::Relaxed);
        heap.field(b, 0).store(10, Ordering::Relaxed);
        assert_eq!(heap.field(a, 0).load(Ordering::Relaxed), 1);
        assert_eq!(heap.field(a, 1).load(Ordering::Relaxed), 0);
        assert_eq!(heap.field(a, 2).load(Ordering::Relaxed), 3);
        assert_eq!(heap.field(b, 0).load(Ordering::Relaxed), 10);
    }

    #[test]
    #[should_panic(expected = "field index out of range")]
    fn field_index_out_of_range_panics() {
        let heap = Heap::with_capacity_and_fields(1, 1);
        let o = heap.alloc().unwrap();
        let _ = heap.field(o, 1);
    }

    #[test]
    fn concurrent_allocation_yields_distinct_objects() {
        let heap = std::sync::Arc::new(Heap::with_capacity(1000));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let h = std::sync::Arc::clone(&heap);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                for _ in 0..250 {
                    got.push(h.alloc().unwrap().index());
                }
                got
            }));
        }
        let mut all: Vec<usize> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 1000);
        assert_eq!(heap.alloc(), Err(SyncError::HeapFull));
    }

    #[test]
    fn injected_exhaustion_fails_alloc_without_consuming_capacity() {
        use crate::fault::FaultInjector;
        use crate::hooks::HookSet;
        use std::sync::atomic::AtomicBool;

        #[derive(Debug, Default)]
        struct ExhaustOnce(AtomicBool);
        impl FaultInjector for ExhaustOnce {
            fn decide(&self, point: InjectionPoint) -> FaultAction {
                if point == InjectionPoint::HeapAlloc && !self.0.swap(true, Ordering::Relaxed) {
                    FaultAction::Exhaust
                } else {
                    FaultAction::Proceed
                }
            }
        }

        let heap = Heap::with_capacity(2);
        heap.set_hooks(Arc::new(
            HookSet::new().fault_injector(Arc::new(ExhaustOnce::default())),
        ));
        assert_eq!(heap.alloc(), Err(SyncError::HeapFull));
        assert_eq!(heap.allocated(), 0, "injected failure consumed no slot");
        // Subsequent allocations proceed and the full capacity is usable.
        assert!(heap.alloc().is_ok());
        assert!(heap.alloc().is_ok());
        assert_eq!(heap.alloc(), Err(SyncError::HeapFull));
    }

    #[test]
    fn obj_ref_round_trips_through_index() {
        let r = ObjRef::from_index(41);
        assert_eq!(r.index(), 41);
        assert_eq!(r.to_string(), "obj#41");
    }

    #[test]
    fn iter_covers_allocated_objects() {
        let heap = Heap::with_capacity(5);
        for _ in 0..3 {
            heap.alloc().unwrap();
        }
        let v: Vec<usize> = heap.iter().map(|o| o.index()).collect();
        assert_eq!(v, vec![0, 1, 2]);
    }
}
