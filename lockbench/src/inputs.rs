//! Benchmark-owned inputs.
//!
//! The VM program, its expected checksum and the work loop are copies of
//! `thinlock_vm::library` and `thinlock_trace::replay::spin_work`, kept
//! here so that editing library code cannot change what a workload does.
//! Only the assembler, the verifier and the interpreter are taken from the
//! repository: they are the layers under test.

use thinlock_vm::asm::assemble;
use thinlock_vm::verify::{verify_program, VerifyOptions};
use thinlock_vm::Program;

/// Elements `main(n)` appends to the Vector in library-1t.
pub const LIBRARY_N: i32 = 8;

/// Scan passes `main(n)` makes over the Vector.
pub const SCAN_PASSES: i32 = 10;

/// Synchronized calls one `main(n)` makes: `n` `addElement` calls, then
/// per pass `n + 1` `size` calls and `n` `elementAt` calls, so
/// `n + passes * (2n + 1)` = 21n + 10 with ten passes.
pub const fn library_calls(n: i32) -> u64 {
    (n + SCAN_PASSES * (2 * n + 1)) as u64
}

/// Fields the Vector object needs for `main(n)`: the size plus `n` slots.
pub const fn vector_fields(n: i32) -> usize {
    n as usize + 1
}

/// The javalex-shaped program: `main(n)` (method 0) fills the Vector in
/// pool slot 0 with `0..n` through the synchronized `addElement`, then
/// sums it [`SCAN_PASSES`] times through the synchronized `size` and
/// `elementAt`. Every public Vector method is synchronized on the
/// receiver, as in the paper's class library.
pub const PROGRAM: &str = "\
pool 1
; int main(n)  locals: 1=i 2=sum 3=pass
method main args=1 locals=4 returns {
  iconst 0
  istore 1
build:
  iload 1
  iload 0
  if_icmpge scan_init
  aconst 0
  iload 1
  invoke 1
  iinc 1 1
  goto build
scan_init:
  iconst 0
  istore 2
  iconst 0
  istore 3
pass_loop:
  iload 3
  iconst 10
  if_icmpge done
  iconst 0
  istore 1
scan:
  iload 1
  aconst 0
  invoke 3
  if_icmpge pass_end
  iload 2
  aconst 0
  iload 1
  invoke 2
  iadd
  istore 2
  iinc 1 1
  goto scan
pass_end:
  iinc 3 1
  goto pass_loop
done:
  iload 2
  ireturn
}
; synchronized void Vector.addElement(this, v)
method vector_add args=2 locals=3 sync {
  aload 0
  getfield 0
  istore 2
  aload 0
  iload 2
  iconst 1
  iadd
  iload 1
  putfielddyn
  aload 0
  iload 2
  iconst 1
  iadd
  putfield 0
  return
}
; synchronized int Vector.elementAt(this, i)
method vector_get args=2 locals=2 sync returns {
  aload 0
  iload 1
  iconst 1
  iadd
  getfielddyn
  ireturn
}
; synchronized int Vector.size(this)
method vector_size args=1 locals=1 sync returns {
  aload 0
  getfield 0
  ireturn
}
";

/// Assembles and verifies [`PROGRAM`].
///
/// # Panics
///
/// Panics if the embedded program does not assemble or verify, which is a
/// defect of this file, not of any input.
pub fn library_program() -> Program {
    let program = assemble(PROGRAM).expect("the library-1t program assembles");
    verify_program(&program, VerifyOptions::default()).expect("the library-1t program verifies");
    program
}

/// The value `main(n)` must return: the wrapping sum of `0..n`, taken
/// [`SCAN_PASSES`] times.
pub fn library_checksum(n: i32) -> i32 {
    let one_pass = (0..n).fold(0i32, |acc, v| acc.wrapping_add(v));
    (0..SCAN_PASSES).fold(0i32, |acc, _| acc.wrapping_add(one_pass))
}

/// `units` of application work: an arithmetic chain the optimizer cannot
/// remove, about a nanosecond per unit.
#[inline]
pub fn spin_work(units: u32) {
    let mut x = units;
    for _ in 0..units {
        x = std::hint::black_box(x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223));
    }
    std::hint::black_box(x);
}

/// SplitMix64: the seeded source of every choice a workload makes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` (a thread or a set-up repetition) of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n`, which must be a power of two.
    pub fn below_pow2(&mut self, n: usize) -> usize {
        debug_assert!(n.is_power_of_two());
        (self.next_u64() >> 32) as usize & (n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_has_main_first_and_three_synchronized_methods() {
        let program = library_program();
        assert_eq!(program.method_id("main"), Some(0));
        let synced = program
            .methods()
            .iter()
            .filter(|m| m.flags().synchronized)
            .count();
        assert_eq!(synced, 3);
        assert_eq!(library_calls(LIBRARY_N), 178);
    }

    #[test]
    fn checksum_matches_closed_form() {
        assert_eq!(library_checksum(10), 450);
        assert_eq!(library_checksum(LIBRARY_N), 280);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }
}
