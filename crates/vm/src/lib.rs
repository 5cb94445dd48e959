//! A miniature stack-based bytecode interpreter.
//!
//! The paper's measurements run inside the JDK 1.1.2 *interpreter*: the
//! `NoSync` reference micro-benchmark measures pure bytecode-dispatch
//! cost, and every other micro-benchmark of Table 2 adds `monitorenter`/
//! `monitorexit` bytecodes or `synchronized` method invocation on top of
//! the same loop. To reproduce those benchmarks meaningfully we need the
//! same substrate: an interpreter whose dispatch loop costs real time and
//! whose synchronization bytecodes call into a pluggable
//! [`SyncProtocol`](thinlock_runtime::protocol::SyncProtocol).
//!
//! The design is a deliberately small model of the JVM:
//!
//! * [`bytecode::Op`] — a JVM-flavoured instruction set (`iconst`,
//!   `iload`, `if_icmpge`, `monitorenter`, `invoke`, …) with an object
//!   constant pool standing in for resolved references;
//! * [`program::Method`] / [`program::Program`] — methods with argument
//!   counts, local slots, and a `synchronized` flag that locks the
//!   receiver around the body exactly like the JVM's `ACC_SYNCHRONIZED`;
//! * [`interp::Vm`] — the interpreter, generic over the locking protocol;
//! * [`asm`] — a textual assembler/disassembler for writing programs and
//!   property-testing the encoding;
//! * [`programs`] — generators for every micro-benchmark of Table 2 plus
//!   the `MixedSync` variant of Figure 6;
//! * [`verify`] — a JVM-style static verifier and the one abstract
//!   interpreter of the bytecode: a dataflow over stack depth, value
//!   kinds, definite assignment and a symbolic lock stack, enforcing
//!   structured locking, whose per-pc frames the static analyzer in
//!   `thinlock-analysis` reads;
//! * [`library`] — a synchronized `Vector`/`Hashtable` class library in
//!   bytecode, plus a `javalex`-shaped workload (the paper's motivating
//!   "library tax" example);
//! * [`transform`] — bytecode transformations: synchronization stripping
//!   (how Figure 6's "NOP" datapoint was made) and a peephole optimizer.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod asm;
pub mod bytecode;
pub mod error;
pub mod interp;
pub mod library;
pub mod program;
pub mod programs;
pub mod transform;
pub mod value;
pub mod verify;

pub use bytecode::Op;
pub use error::VmError;
pub use interp::Vm;
pub use program::{Method, MethodFlags, Program};
pub use value::Value;
