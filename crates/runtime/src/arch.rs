//! Architecture profiles and the atomic lock-word cell.
//!
//! Section 3.5 of the paper ("Tradeoffs" / "Architectural Variations")
//! describes three hardware targets that one binary had to serve:
//!
//! * **PowerPC uniprocessor** — user-level `lwarx`/`stwcx.` compare-and-swap,
//!   no `isync`/`sync` memory barriers needed;
//! * **PowerPC multiprocessor** — the same CAS, but locking must be followed
//!   by `isync` and unlocking preceded by `sync` so other processors observe
//!   a consistent state;
//! * **POWER / POWER2** — no user-level atomics at all; compare-and-swap is
//!   a *kernel* routine reached through a system call.
//!
//! The paper's final implementation tests the CPU type dynamically on every
//! lock/unlock (cheap thanks to surplus superscalar parallelism). We model
//! the same space with [`ArchProfile`]:
//!
//! * fences map onto Rust atomic orderings (`Acquire` on lock ≈ `isync`,
//!   `Release` on unlock ≈ `sync`, `Relaxed` ≈ no barrier), and
//! * the kernel-CAS trap cost is simulated by a short calibrated busy loop
//!   ([`simulate_kernel_trap`]).
//!
//! # Soundness
//!
//! `Relaxed` operations are still *atomic* — there is never a data race on
//! the lock word itself. What the uniprocessor profile gives up is the
//! happens-before edge for **other** memory protected by the lock. It
//! exists to let the Figure 6 benchmarks measure fence cost, and those
//! benchmarks only guard data that is itself atomic. Correct general-purpose
//! use goes through [`ArchProfile::default`], which is the multiprocessor
//! profile.

use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};

use crate::lockword::LockWord;

/// Hardware model under which the lock fast paths execute.
///
/// # Example
///
/// ```
/// use thinlock_runtime::arch::ArchProfile;
/// // The safe default is the multiprocessor profile.
/// assert_eq!(ArchProfile::default(), ArchProfile::PowerPcMp);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ArchProfile {
    /// PowerPC 604 uniprocessor: user-level CAS, no barriers.
    PowerPcUp,
    /// PowerPC multiprocessor: user-level CAS plus `isync`/`sync` barriers.
    #[default]
    PowerPcMp,
    /// Older POWER/POWER2 uniprocessor: CAS through a (simulated) kernel
    /// trap, no barriers.
    PowerKernelCas,
}

impl ArchProfile {
    /// All profiles, in the order Figure 6 discusses them.
    pub const ALL: [ArchProfile; 3] = [
        ArchProfile::PowerPcUp,
        ArchProfile::PowerPcMp,
        ArchProfile::PowerKernelCas,
    ];

    /// True if CAS must go through the simulated kernel trap.
    #[inline]
    pub fn uses_kernel_cas(self) -> bool {
        matches!(self, ArchProfile::PowerKernelCas)
    }

    /// True if lock/unlock must publish with acquire/release barriers.
    #[inline]
    pub fn needs_fences(self) -> bool {
        matches!(self, ArchProfile::PowerPcMp)
    }

    /// Ordering used on a successful lock acquisition (`isync` analogue).
    #[inline]
    pub fn acquire_ordering(self) -> Ordering {
        if self.needs_fences() {
            Ordering::Acquire
        } else {
            Ordering::Relaxed
        }
    }

    /// Ordering used when releasing a lock (`sync` analogue).
    #[inline]
    pub fn release_ordering(self) -> Ordering {
        if self.needs_fences() {
            Ordering::Release
        } else {
            Ordering::Relaxed
        }
    }
}

impl fmt::Display for ArchProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ArchProfile::PowerPcUp => "powerpc-up",
            ArchProfile::PowerPcMp => "powerpc-mp",
            ArchProfile::PowerKernelCas => "power-kernel-cas",
        };
        f.write_str(name)
    }
}

/// Number of arithmetic steps used to simulate the kernel trap of the
/// POWER compare-and-swap system call.
///
/// Chosen so the simulated trap costs roughly an order of magnitude more
/// than the ~17-instruction user-level fast path, matching the paper's
/// qualitative description of the syscall being the dominant cost on
/// POWER. Benchmarks sweep relative numbers, so only the ratio matters.
pub const KERNEL_TRAP_SPINS: u32 = 192;

/// Burns the simulated cost of the POWER kernel compare-and-swap trap.
///
/// The loop is opaque to the optimizer so it cannot be folded away.
///
/// # Example
///
/// ```
/// thinlock_runtime::arch::simulate_kernel_trap();
/// ```
#[inline(never)]
pub fn simulate_kernel_trap() {
    let mut acc: u32 = 0x9E37_79B9;
    for i in 0..KERNEL_TRAP_SPINS {
        acc = std::hint::black_box(acc.rotate_left(5) ^ i);
    }
    std::hint::black_box(acc);
}

/// The atomic header word holding an object's [`LockWord`].
///
/// This is the only memory the locking protocols ever touch with atomic
/// instructions; everything else follows the paper's owner-only store
/// discipline. All operations take the [`ArchProfile`] so the Figure 6
/// variants can be expressed without duplicating protocol code.
///
/// # Example
///
/// ```
/// use thinlock_runtime::arch::{ArchProfile, LockWordCell};
/// use thinlock_runtime::lockword::{LockWord, ThreadIndex};
///
/// let cell = LockWordCell::new(LockWord::new_unlocked(0));
/// let me = ThreadIndex::new(1)?;
/// let old = cell.load_relaxed().with_lock_field_clear();
/// let new = old.locked_once_by(me);
/// assert!(cell.try_cas(old, new, ArchProfile::default()).is_ok());
/// assert_eq!(cell.load_relaxed().thin_owner(), Some(me));
/// # Ok::<(), thinlock_runtime::SyncError>(())
/// ```
#[derive(Debug)]
pub struct LockWordCell(AtomicU32);

impl LockWordCell {
    /// Creates a cell holding `word`.
    #[inline]
    pub fn new(word: LockWord) -> Self {
        LockWordCell(AtomicU32::new(word.bits()))
    }

    /// Plain load, no ordering. The thin-lock fast paths always start here:
    /// per Section 2.3.2 a stale value is harmless because ownership is a
    /// stable property.
    #[inline]
    pub fn load_relaxed(&self) -> LockWord {
        LockWord::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Acquire load, used when following an inflated word to the monitor
    /// table so the monitor's initialization is visible.
    #[inline]
    pub fn load_acquire(&self) -> LockWord {
        LockWord::from_bits(self.0.load(Ordering::Acquire))
    }

    /// Owner-only plain store (nested lock/unlock bookkeeping). Maps to a
    /// simple store instruction in the paper.
    #[inline]
    pub fn store_relaxed(&self, word: LockWord) {
        self.0.store(word.bits(), Ordering::Relaxed);
    }

    /// Owner-only releasing store: the unlock store, preceded by `sync` on
    /// the multiprocessor profile.
    #[inline]
    pub fn store_unlock(&self, word: LockWord, profile: ArchProfile) {
        self.0.store(word.bits(), profile.release_ordering());
    }

    /// Releasing store regardless of profile; used when publishing an
    /// inflated word so the monitor contents are visible to all readers.
    #[inline]
    pub fn store_release(&self, word: LockWord) {
        self.0.store(word.bits(), Ordering::Release);
    }

    /// Compare-and-swap of the full header word.
    ///
    /// On [`ArchProfile::PowerKernelCas`] this first pays the simulated
    /// trap cost. Success uses the profile's acquire ordering (the `isync`
    /// after a successful lock).
    ///
    /// # Errors
    ///
    /// Returns the actual current word if it differed from `old`.
    #[inline]
    pub fn try_cas(
        &self,
        old: LockWord,
        new: LockWord,
        profile: ArchProfile,
    ) -> Result<(), LockWord> {
        if profile.uses_kernel_cas() {
            simulate_kernel_trap();
        }
        self.cas_acquiring(old, new, profile)
    }

    /// The acquiring fast path's compare-and-swap from `old`, whose lock
    /// field is clear, to `old` locked once by the caller, whose
    /// pre-shifted index is `owner_shifted` — issued only where it can win
    /// (DESIGN.md §23).
    ///
    /// After the simulated trap, the word is read again: a fat word, or
    /// one the caller already holds thin at any count, is returned as it
    /// stands without the locked instruction. The PowerPC
    /// `lwarx`/`cmpw`/`bne` sequence never issues its `stwcx.` for such a
    /// word; an x86 `lock cmpxchg` would still take the line exclusive and
    /// fail. A word held thin by another thread keeps its attempt.
    ///
    /// # Errors
    ///
    /// Returns the current word if it differed from `old`.
    #[inline]
    pub fn try_acquire(
        &self,
        old: LockWord,
        owner_shifted: u32,
        profile: ArchProfile,
    ) -> Result<(), LockWord> {
        if profile.uses_kernel_cas() {
            simulate_kernel_trap();
        }
        let current = self.load_relaxed();
        if cas_is_doomed(current, owner_shifted) {
            return Err(current);
        }
        let new = LockWord::from_bits(old.bits() | owner_shifted);
        self.cas_acquiring(old, new, profile)
    }

    /// The locked instruction itself, with the profile's acquire ordering
    /// on success (the `isync` after a successful lock).
    #[inline]
    fn cas_acquiring(
        &self,
        old: LockWord,
        new: LockWord,
        profile: ArchProfile,
    ) -> Result<(), LockWord> {
        self.0
            .compare_exchange(
                old.bits(),
                new.bits(),
                ordering_at_least_relaxed(profile.acquire_ordering()),
                Ordering::Relaxed,
            )
            .map(drop)
            .map_err(LockWord::from_bits)
    }

    /// Compare-and-swap with release semantics on success — the Figure 6
    /// "UnlkC&S" variant that releases the lock with an atomic operation
    /// instead of a store, demonstrating the cost of the extra atomic.
    ///
    /// # Errors
    ///
    /// Returns the actual current word if it differed from `old`.
    #[inline]
    pub fn try_cas_release(
        &self,
        old: LockWord,
        new: LockWord,
        profile: ArchProfile,
    ) -> Result<(), LockWord> {
        if profile.uses_kernel_cas() {
            simulate_kernel_trap();
        }
        let success = match profile.release_ordering() {
            Ordering::Release => Ordering::Release,
            _ => Ordering::Relaxed,
        };
        match self
            .0
            .compare_exchange(old.bits(), new.bits(), success, Ordering::Relaxed)
        {
            Ok(_) => Ok(()),
            Err(actual) => Err(LockWord::from_bits(actual)),
        }
    }
}

/// True if an acquiring CAS from a clear lock field cannot succeed against
/// `current`. Inflation is one-way and only the owner writes a held word,
/// so a fat word or one thin-held by the caller cannot turn back into the
/// expected value in between. A deflating policy can clear a fat word
/// concurrently; skipping its CAS is then merely safe, because the slow
/// path reads the word again.
#[inline]
fn cas_is_doomed(current: LockWord, owner_shifted: u32) -> bool {
    current.is_fat() || current.is_thin_owned_by(owner_shifted)
}

/// `compare_exchange` forbids `Release`-only success with stronger failure;
/// clamp the acquire side to something valid.
#[inline]
fn ordering_at_least_relaxed(o: Ordering) -> Ordering {
    match o {
        Ordering::Acquire => Ordering::Acquire,
        _ => Ordering::Relaxed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockword::ThreadIndex;

    #[test]
    fn default_profile_is_multiprocessor() {
        assert_eq!(ArchProfile::default(), ArchProfile::PowerPcMp);
        assert!(ArchProfile::default().needs_fences());
    }

    #[test]
    fn profile_predicates() {
        assert!(!ArchProfile::PowerPcUp.needs_fences());
        assert!(!ArchProfile::PowerPcUp.uses_kernel_cas());
        assert!(ArchProfile::PowerPcMp.needs_fences());
        assert!(!ArchProfile::PowerPcMp.uses_kernel_cas());
        assert!(!ArchProfile::PowerKernelCas.needs_fences());
        assert!(ArchProfile::PowerKernelCas.uses_kernel_cas());
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(ArchProfile::PowerPcUp.to_string(), "powerpc-up");
        assert_eq!(ArchProfile::PowerPcMp.to_string(), "powerpc-mp");
        assert_eq!(ArchProfile::PowerKernelCas.to_string(), "power-kernel-cas");
    }

    #[test]
    fn cas_succeeds_only_from_expected_word() {
        for profile in ArchProfile::ALL {
            let cell = LockWordCell::new(LockWord::new_unlocked(7));
            let me = ThreadIndex::new(3).unwrap();
            let old = LockWord::new_unlocked(7);
            let new = old.locked_once_by(me);
            assert!(cell.try_cas(old, new, profile).is_ok());
            // Second CAS from the stale old value must fail and report the
            // actual current word.
            let err = cell.try_cas(old, new, profile).unwrap_err();
            assert_eq!(err, new);
            assert_eq!(cell.load_relaxed(), new);
        }
    }

    #[test]
    fn fast_cas_is_issued_only_where_it_can_win() {
        use crate::lockword::{MonitorIndex, MAX_THIN_COUNT};
        let me = ThreadIndex::new(3).unwrap();
        let other = ThreadIndex::new(4).unwrap();
        let neutral = LockWord::new_unlocked(0x5A);
        let mine = neutral.locked_once_by(me);
        let nested_by_me = |count: u32| (0..count).fold(mine, |w, _| w.with_count_incremented());
        assert_eq!(nested_by_me(MAX_THIN_COUNT).thin_count(), 255);
        for profile in ArchProfile::ALL {
            // Neutral: the CAS is issued and wins.
            let cell = LockWordCell::new(neutral);
            assert!(!cas_is_doomed(neutral, me.shifted()));
            assert!(cell.try_acquire(neutral, me.shifted(), profile).is_ok());
            assert_eq!(cell.load_relaxed(), mine, "{profile}");

            // Thin-held by another thread: the CAS is still issued, fails,
            // and reports the current word.
            let theirs = neutral.locked_once_by(other);
            let cell = LockWordCell::new(theirs);
            assert!(!cas_is_doomed(theirs, me.shifted()));
            assert_eq!(
                cell.try_acquire(neutral, me.shifted(), profile),
                Err(theirs),
                "{profile}"
            );
            assert_eq!(cell.load_relaxed(), theirs);

            // Fat, and thin-held by the caller at counts 0, 254 and 255 (the
            // overflowing one included): no CAS, the word comes back as is.
            let fat = neutral.inflated(MonitorIndex::new(9).unwrap());
            let doomed = [
                fat,
                nested_by_me(0),
                nested_by_me(MAX_THIN_COUNT - 1),
                nested_by_me(MAX_THIN_COUNT),
            ];
            for word in doomed {
                assert!(cas_is_doomed(word, me.shifted()), "{word:?}");
                let cell = LockWordCell::new(word);
                let err = cell
                    .try_acquire(neutral, me.shifted(), profile)
                    .unwrap_err();
                assert_eq!(err.bits(), word.bits(), "{profile} {word:?}");
                assert_eq!(cell.load_relaxed().bits(), word.bits());
            }
        }
    }

    #[test]
    fn cas_release_variant_behaves_like_cas() {
        let cell = LockWordCell::new(LockWord::new_unlocked(0));
        let me = ThreadIndex::new(3).unwrap();
        let locked = LockWord::new_unlocked(0).locked_once_by(me);
        cell.store_relaxed(locked);
        assert!(cell
            .try_cas_release(locked, LockWord::new_unlocked(0), ArchProfile::PowerPcMp)
            .is_ok());
        assert!(cell.load_relaxed().is_unlocked());
        // Failure path reports current value.
        let err = cell
            .try_cas_release(locked, LockWord::new_unlocked(0), ArchProfile::PowerPcUp)
            .unwrap_err();
        assert!(err.is_unlocked());
    }

    #[test]
    fn stores_round_trip() {
        let cell = LockWordCell::new(LockWord::new_unlocked(1));
        let me = ThreadIndex::new(9).unwrap();
        let w = LockWord::new_unlocked(1).locked_once_by(me);
        cell.store_relaxed(w);
        assert_eq!(cell.load_relaxed(), w);
        cell.store_unlock(w.with_lock_field_clear(), ArchProfile::PowerPcMp);
        assert!(cell.load_acquire().is_unlocked());
        cell.store_release(w);
        assert_eq!(cell.load_acquire(), w);
    }

    #[test]
    fn kernel_trap_simulation_runs() {
        // Just exercise it; the cost assertion lives in the benchmarks.
        simulate_kernel_trap();
    }
}
