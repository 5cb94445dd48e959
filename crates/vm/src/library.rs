//! A miniature synchronized class library, written in assembly.
//!
//! The paper's motivation is that "designers of general-purpose class
//! libraries must make their classes thread-safe. For instance, the most
//! commonly used public methods of standard utility classes like `Vector`
//! and `Hashtable` are synchronized" — and that single-threaded programs
//! then pay for it (`javalex` alone made "almost one million calls to the
//! synchronized `elementAt` method of the `Vector` class").
//!
//! This module provides those classes as bytecode, every public method
//! `synchronized` on the receiver, plus a `javalex`-shaped workload that
//! hammers them — a macro-benchmark that runs *inside* the interpreter,
//! complementing the trace-replay reproduction of Figure 5.
//!
//! Object layouts (over the heap's per-object `i32` field array):
//!
//! * **Vector** — field 0 = size; fields `1..` = elements.
//! * **Hashtable** — open addressing over `B` buckets; field 0 = count;
//!   bucket `b` occupies fields `1 + 2b` (key, 0 = empty; keys must be
//!   positive) and `2 + 2b` (value).

use crate::asm::assemble;
use crate::program::Program;

/// Method ids of an installed Vector library (see [`install_vector`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorLib {
    /// `synchronized void addElement(this, v)`.
    pub add: u16,
    /// `synchronized int elementAt(this, i)`.
    pub get: u16,
    /// `synchronized int size(this)`.
    pub size: u16,
}

/// The assembly source of the Vector class methods. Kept as text so the
/// library also exercises the assembler end to end.
const VECTOR_METHODS: &str = "\
; synchronized void Vector.addElement(this, v)
method vector_add args=2 locals=3 sync {
  aload 0
  getfield 0
  istore 2          ; idx = size
  aload 0
  iload 2
  iconst 1
  iadd
  iload 1
  putfielddyn       ; this[idx + 1] = v
  aload 0
  iload 2
  iconst 1
  iadd
  putfield 0        ; size = idx + 1
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

/// Appends the Vector methods to `program`, returning their ids.
///
/// # Panics
///
/// Panics if the embedded assembly fails to assemble (a library bug, not
/// an input condition).
pub fn install_vector(program: &mut Program) -> VectorLib {
    let src = format!("pool {}\n{}", program.pool_size(), VECTOR_METHODS);
    let lib = assemble(&src).expect("vector library assembles");
    let mut ids = Vec::new();
    for m in lib.methods() {
        ids.push(program.add_method(m.clone()));
    }
    VectorLib {
        add: ids[0],
        get: ids[1],
        size: ids[2],
    }
}

/// Method ids of an installed hashtable library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashtableLib {
    /// `synchronized void put(this, key, value)` — `key` must be positive.
    pub put: u16,
    /// `synchronized int get(this, key)` — 0 when absent.
    pub get: u16,
    /// Bucket count the methods were compiled for.
    pub buckets: u16,
}

/// Appends open-addressing Hashtable methods (compiled for `buckets`
/// buckets) to `program`. The receiving object needs at least
/// `1 + 2 * buckets` fields; the caller must keep the load factor below 1
/// or `put` probes forever, as in any open-addressing table without
/// resizing.
///
/// # Panics
///
/// Panics if `buckets` is 0 or the embedded assembly fails to assemble.
pub fn install_hashtable(program: &mut Program, buckets: u16) -> HashtableLib {
    assert!(buckets > 0, "hashtable needs at least one bucket");
    let b = buckets;
    let src = format!(
        "\
pool {pool}
; synchronized void Hashtable.put(this, k, v)   locals: 3=bucket 4=key
method ht_put args=3 locals=5 sync {{
  iload 1
  iconst {b}
  irem
  istore 3
probe:
  aload 0
  iconst 2
  iload 3
  imul
  iconst 1
  iadd
  getfielddyn
  istore 4          ; key at bucket
  iload 4
  ifeq fresh        ; empty slot: insert
  iload 4
  iload 1
  isub
  ifeq store        ; same key: overwrite value only
  iload 3
  iconst 1
  iadd
  iconst {b}
  irem
  istore 3
  goto probe
fresh:
  aload 0
  aload 0
  getfield 0
  iconst 1
  iadd
  putfield 0        ; count++
  aload 0
  iconst 2
  iload 3
  imul
  iconst 1
  iadd
  iload 1
  putfielddyn       ; key slot = k
store:
  aload 0
  iconst 2
  iload 3
  imul
  iconst 2
  iadd
  iload 2
  putfielddyn       ; value slot = v
  return
}}
; synchronized int Hashtable.get(this, k)   locals: 2=bucket 3=key
method ht_get args=2 locals=4 sync returns {{
  iload 1
  iconst {b}
  irem
  istore 2
probe:
  aload 0
  iconst 2
  iload 2
  imul
  iconst 1
  iadd
  getfielddyn
  istore 3
  iload 3
  ifeq miss
  iload 3
  iload 1
  isub
  ifeq hit
  iload 2
  iconst 1
  iadd
  iconst {b}
  irem
  istore 2
  goto probe
hit:
  aload 0
  iconst 2
  iload 2
  imul
  iconst 2
  iadd
  getfielddyn
  ireturn
miss:
  iconst 0
  ireturn
}}
",
        pool = program.pool_size(),
    );
    let lib = assemble(&src).expect("hashtable library assembles");
    let mut ids = Vec::new();
    for m in lib.methods() {
        ids.push(program.add_method(m.clone()));
    }
    HashtableLib {
        put: ids[0],
        get: ids[1],
        buckets,
    }
}

/// Number of scan passes the javalex-shaped workload performs.
pub const JAVALEX_SCAN_PASSES: i32 = 10;

/// A `javalex`-shaped workload: `main(n)` fills a Vector (pool object 0)
/// with `0..n` through the synchronized `addElement`, then makes
/// [`JAVALEX_SCAN_PASSES`] full passes through the synchronized
/// `elementAt`/`size`, returning the checksum — so the dominant cost is
/// exactly the paper's "synchronized method invocation on an uncontended
/// lock", about `(1 + passes) * n` of them.
///
/// The receiving heap object needs at least `n + 1` fields.
pub fn javalex_like() -> Program {
    let mut program = Program::new(1);
    // Reserve id 0 for main; install the library first into a scratch
    // program to learn the source, then build for real with main first.
    let main_src = format!(
        "\
pool 1
; int main(n)  locals: 1=i 2=sum 3=pass
method main args=1 locals=4 returns {{
  iconst 0
  istore 1
build:
  iload 1
  iload 0
  if_icmpge scan_init
  aconst 0
  iload 1
  invoke {add}
  iinc 1 1
  goto build
scan_init:
  iconst 0
  istore 2
  iconst 0
  istore 3
pass_loop:
  iload 3
  iconst {passes}
  if_icmpge done
  iconst 0
  istore 1
scan:
  iload 1
  aconst 0
  invoke {size}
  if_icmpge pass_end
  iload 2
  aconst 0
  iload 1
  invoke {get}
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
}}
",
        add = 1,
        get = 2,
        size = 3,
        passes = JAVALEX_SCAN_PASSES,
    );
    let main = assemble(&main_src).expect("javalex main assembles");
    program.add_method(main.methods()[0].clone());
    let lib = install_vector(&mut program);
    debug_assert_eq!((lib.add, lib.get, lib.size), (1, 2, 3));
    program
}

/// Expected return value of [`javalex_like`]'s `main(n)`: the wrapping
/// checksum of scanning `0..n` for [`JAVALEX_SCAN_PASSES`] passes.
pub fn javalex_expected(n: i32) -> i32 {
    let one_pass: i32 = (0..n).fold(0i32, |acc, v| acc.wrapping_add(v));
    (0..JAVALEX_SCAN_PASSES).fold(0i32, |acc, _| acc.wrapping_add(one_pass))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Vm;
    use crate::value::Value;
    use crate::verify::{verify_program, VerifyOptions};
    use std::sync::Arc;
    use thinlock::ThinLocks;
    use thinlock_runtime::backend::SyncBackend;
    use thinlock_runtime::heap::{Heap, ObjRef};
    use thinlock_runtime::protocol::SyncProtocol;
    use thinlock_runtime::registry::ThreadRegistry;

    fn locks_with_fields(objects: usize, fields: usize) -> (ThinLocks, Vec<ObjRef>) {
        let heap = Arc::new(Heap::with_capacity_and_fields(objects, fields));
        let locks = ThinLocks::new(heap, ThreadRegistry::new());
        let pool = (0..objects)
            .map(|_| locks.heap().alloc().unwrap())
            .collect();
        (locks, pool)
    }

    #[test]
    fn vector_methods_work_and_stay_synchronized() {
        let (locks, pool) = locks_with_fields(1, 16);
        let reg = locks.registry().register().unwrap();
        let t = reg.token();
        let mut program = Program::new(1);
        // Driver: main(n) adds 0..n then returns get(n-1) + size().
        let main_src = "\
pool 1
method main args=1 locals=2 returns {
  iconst 0
  istore 1
loop:
  iload 1
  iload 0
  if_icmpge end
  aconst 0
  iload 1
  invoke 1
  iinc 1 1
  goto loop
end:
  aconst 0
  iload 0
  iconst 1
  isub
  invoke 2
  aconst 0
  invoke 3
  iadd
  ireturn
}
";
        let main = assemble(main_src).unwrap();
        program.add_method(main.methods()[0].clone());
        let lib = install_vector(&mut program);
        assert_eq!((lib.add, lib.get, lib.size), (1, 2, 3));
        verify_program(&program, VerifyOptions::default()).unwrap();

        let vm = Vm::new(&locks, &program, pool.clone()).unwrap();
        let out = vm.run("main", t, &[Value::Int(10)]).unwrap();
        // get(9) = 9, size = 10.
        assert_eq!(out, Some(Value::Int(19)));
        assert!(locks.lock_word(pool[0]).is_unlocked());
        assert_eq!(locks.inflation_count(), 0, "single-threaded: all thin");
    }

    #[test]
    fn hashtable_put_get_roundtrip() {
        const B: u16 = 8;
        let (locks, pool) = locks_with_fields(1, 1 + 2 * B as usize);
        let reg = locks.registry().register().unwrap();
        let t = reg.token();
        let mut program = Program::new(1);
        // main(k): put(k, k*3); put(k+B, k+100) -- same bucket, probes;
        // return get(k) + get(k+B) + get(999 absent).
        let main_src = format!(
            "\
pool 1
method main args=1 locals=1 returns {{
  aconst 0
  iload 0
  iload 0
  iconst 3
  imul
  invoke 1
  aconst 0
  iload 0
  iconst {B}
  iadd
  iload 0
  iconst 100
  iadd
  invoke 1
  aconst 0
  iload 0
  invoke 2
  aconst 0
  iload 0
  iconst {B}
  iadd
  invoke 2
  iadd
  aconst 0
  iconst 999
  invoke 2
  iadd
  ireturn
}}
"
        );
        let main = assemble(&main_src).unwrap();
        program.add_method(main.methods()[0].clone());
        let lib = install_hashtable(&mut program, B);
        assert_eq!((lib.put, lib.get), (1, 2));
        verify_program(&program, VerifyOptions::default()).unwrap();

        let vm = Vm::new(&locks, &program, pool).unwrap();
        let k = 5;
        let out = vm.run("main", t, &[Value::Int(k)]).unwrap();
        // get(5)=15, get(13)=105 (collides with bucket 5, probed), get(999)=0.
        assert_eq!(out, Some(Value::Int(15 + 105)));
    }

    #[test]
    fn hashtable_overwrite_does_not_grow_count() {
        const B: u16 = 4;
        let (locks, pool) = locks_with_fields(1, 1 + 2 * B as usize);
        let reg = locks.registry().register().unwrap();
        let t = reg.token();
        let mut program = Program::new(1);
        let main_src = "\
pool 1
method main args=1 locals=1 returns {
  aconst 0
  iload 0
  iconst 1
  invoke 1
  aconst 0
  iload 0
  iconst 2
  invoke 1          ; overwrite same key
  aconst 0
  iload 0
  invoke 2
  ireturn
}
";
        let main = assemble(main_src).unwrap();
        program.add_method(main.methods()[0].clone());
        install_hashtable(&mut program, B);
        let vm = Vm::new(&locks, &program, pool.clone()).unwrap();
        let out = vm.run("main", t, &[Value::Int(7)]).unwrap();
        assert_eq!(out, Some(Value::Int(2)), "second put overwrote");
        // count (field 0) is 1, not 2.
        let count = locks
            .heap()
            .field(pool[0], 0)
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(count, 1);
    }

    #[test]
    fn javalex_workload_computes_checksum_and_stays_thin() {
        let n = 50;
        let (locks, pool) = locks_with_fields(1, n as usize + 1);
        let reg = locks.registry().register().unwrap();
        let t = reg.token();
        let program = javalex_like();
        verify_program(&program, VerifyOptions::default()).unwrap();
        let vm = Vm::new(&locks, &program, pool.clone()).unwrap();
        let out = vm.run("main", t, &[Value::Int(n)]).unwrap();
        assert_eq!(out, Some(Value::Int(javalex_expected(n))));
        assert!(locks.lock_word(pool[0]).is_unlocked());
        assert_eq!(
            locks.inflation_count(),
            0,
            "the library tax is pure uncontended synchronization"
        );
    }

    #[test]
    fn javalex_expected_matches_closed_form_for_small_n() {
        // 0+1+..+9 = 45, times 10 passes.
        assert_eq!(javalex_expected(10), 450);
        assert_eq!(javalex_expected(0), 0);
    }

    #[test]
    fn division_by_zero_in_irem_is_reported() {
        let (locks, _) = locks_with_fields(1, 1);
        let reg = locks.registry().register().unwrap();
        let mut program = Program::new(0);
        let src = "\
pool 0
method main args=0 locals=0 returns {
  iconst 1
  iconst 0
  irem
  ireturn
}
";
        let m = assemble(src).unwrap();
        program.add_method(m.methods()[0].clone());
        let vm = Vm::new(&locks, &program, vec![]).unwrap();
        assert_eq!(
            vm.run("main", reg.token(), &[]).unwrap_err(),
            crate::error::VmError::DivisionByZero { pc: 2 }
        );
    }
}
