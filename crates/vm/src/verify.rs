//! A static bytecode verifier: abstract interpretation of stack depth,
//! value kinds and held monitors.
//!
//! The real JVM rules out most dynamic failures of our interpreter —
//! stack underflow, type confusion, reading uninitialized locals, falling
//! off the end of a method — with a dataflow verifier run at class-load
//! time. This module is that verifier for the miniature instruction set,
//! and the one abstract interpreter of the bytecode: a fixpoint over the
//! control-flow graph whose per-pc entry [`Frame`]s the static analyzer
//! (`thinlock_analysis::lockstack`) reads instead of re-deriving them.
//! Stack slots and locals take values in
//!
//! ```text
//!                 Conflict
//!                /        \
//!             Int          Ref(?)
//!            /   \        /      \
//!      Const(k)   \   Ref(pool[i])  Ref(arg i)
//!                  \                 /
//!                   `---- Arg(i) ---'    argument i, kind not yet constrained
//! ```
//!
//! and every frame carries a *lock stack*: the [`Sym`] of each monitor
//! the body holds, innermost last. Locking must be structured — stricter
//! than the JVM (which permits unstructured locking) but true of all code
//! the generators in this crate emit: each join sees one lock depth on
//! every path, each `monitorexit` has a matching `monitorenter`, and no
//! `return` holds a monitor. A violation is a [`LockDiag`] finding
//! recorded at its pc while the fixpoint continues (a join whose lock
//! depths differ drops the incoming edge); type and stack errors abort at
//! once. [`verify_method`] rejects a method with any finding, and
//! [`dataflow`] returns the fixpoint with its findings either way.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use crate::bytecode::Op;
use crate::program::{Method, Program};

/// Symbolic identity of a lockable reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sym {
    /// Object-pool constant `pool[i]` (from `AConst(i)`).
    Pool(u32),
    /// The method's `i`-th incoming argument, unmodified.
    Arg(u8),
    /// Statically unresolvable (e.g. `ALoadPool` with a dynamic index,
    /// or two different identities meeting at a join).
    Unknown,
}

impl Sym {
    /// Least upper bound: equal symbols survive a join, others collapse.
    fn join(self, other: Sym) -> Sym {
        if self == other {
            self
        } else {
            Sym::Unknown
        }
    }

    /// This callee symbol in the caller's namespace at a call site whose
    /// arguments are `args`: an argument maps to the caller's symbol for
    /// it ([`Sym::Unknown`] past the end), any other symbol to itself.
    pub fn substitute(self, args: &[Sym]) -> Sym {
        match self {
            Sym::Arg(i) => args.get(usize::from(i)).copied().unwrap_or(Sym::Unknown),
            other => other,
        }
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Sym::Pool(i) => write!(f, "pool[{i}]"),
            Sym::Arg(i) => write!(f, "arg{i}"),
            Sym::Unknown => f.write_str("?"),
        }
    }
}

/// Abstract value of one stack slot or local.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsVal {
    /// Argument `i`, kind not yet constrained by use.
    Arg(u8),
    /// An integer.
    Int,
    /// A known integer constant (from `IConst`), tracked so the dynamic
    /// field ops can resolve their index operand.
    Const(i32),
    /// An object reference or null, with its symbolic identity.
    Ref(Sym),
}

/// The kinds a check asks for, and the values of unknown identity.
const INT: AbsVal = AbsVal::Int;
const REF: AbsVal = AbsVal::Ref(Sym::Unknown);
/// A kind check every value passes: an unconstrained argument joins
/// with anything.
const ANY: AbsVal = AbsVal::Arg(0);

impl AbsVal {
    /// Least upper bound; `None` is the conflict element.
    fn join(self, other: AbsVal) -> Option<AbsVal> {
        use AbsVal::{Arg, Int, Ref};
        match (self, other) {
            (a, b) if a == b => Some(a),
            (Arg(i), Ref(s)) | (Ref(s), Arg(i)) => Some(Ref(Sym::Arg(i).join(s))),
            (Ref(a), Ref(b)) => Some(Ref(a.join(b))),
            (Ref(_), _) | (_, Ref(_)) => None,
            // Integers and constants meeting each other or an argument.
            // (Two arguments never meet: each stays in its own local slot
            // until a load gives it a kind.)
            _ => Some(Int),
        }
    }

    /// The symbolic identity of this value used as a reference.
    pub fn sym(self) -> Sym {
        match self {
            AbsVal::Arg(i) => Sym::Arg(i),
            AbsVal::Ref(s) => s,
            AbsVal::Int | AbsVal::Const(_) => Sym::Unknown,
        }
    }
}

impl fmt::Display for AbsVal {
    /// The value's kind, as verify errors name it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AbsVal::Arg(_) => "unknown",
            AbsVal::Int | AbsVal::Const(_) => "int",
            AbsVal::Ref(_) => "ref",
        })
    }
}

/// A verification failure, with the method and program counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Method name.
    pub method: String,
    /// Program counter of the offending instruction (or its join point).
    pub pc: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ pc {}: {}", self.method, self.pc, self.message)
    }
}

impl std::error::Error for VerifyError {}

/// One instruction-precise lock-discipline finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockDiag {
    /// Program counter of the offending instruction (or join point).
    pub pc: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for LockDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pc {}: {}", self.pc, self.message)
    }
}

/// Facts proven about a verified method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodSummary {
    /// Maximum operand-stack depth over all paths.
    pub max_stack: usize,
    /// Maximum lock-stack depth along any path (body locks only: a
    /// synchronized method's receiver is not on the lock stack).
    pub max_monitors: usize,
}

/// The abstract state on entry to one instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Operand stack, top last.
    pub stack: Vec<AbsVal>,
    /// Locals; `None` where unassigned, or irreconcilable, on some path.
    locals: Vec<Option<AbsVal>>,
    /// The monitors held, innermost last.
    pub locks: Vec<Sym>,
}

impl Frame {
    /// Joins `other` into this entry frame of `pc`: the grown frame, or
    /// `None` when this one already covers `other`. Lock depths that
    /// differ are a finding, and the edge is dropped.
    fn merge(
        &self,
        other: &Frame,
        pc: usize,
        findings: &mut BTreeSet<LockDiag>,
    ) -> Result<Option<Frame>, String> {
        let (depth, other_depth) = (self.stack.len(), other.stack.len());
        if depth != other_depth {
            return Err(format!(
                "stack depth mismatch at join: {depth} vs {other_depth}"
            ));
        }
        let (held, other_held) = (self.locks.len(), other.locks.len());
        if held != other_held {
            let message = format!(
                "lock-stack depth mismatch at join: {held} monitors held on one path, \
                 {other_held} on another"
            );
            findings.insert(LockDiag { pc, message });
            return Ok(None);
        }
        let mut stack = Vec::with_capacity(depth);
        for (&a, &b) in self.stack.iter().zip(&other.stack) {
            let join = a.join(b);
            stack.push(
                join.ok_or_else(|| format!("irreconcilable stack types at join: {a} vs {b}"))?,
            );
        }
        let merged = Frame {
            stack,
            // Assigned on only one path, or irreconcilable: unusable.
            locals: (self.locals.iter().zip(&other.locals))
                .map(|(&a, &b)| a.zip(b).and_then(|(x, y)| x.join(y)))
                .collect(),
            locks: (self.locks.iter().zip(&other.locks))
                .map(|(&a, &b)| a.join(b))
                .collect(),
        };
        Ok((merged != *self).then_some(merged))
    }
}

/// The verifier's fixpoint over one method.
#[derive(Debug, Clone)]
pub struct Dataflow {
    /// The entry frame of every pc; `None` where no path reaches it.
    pub frames: Vec<Option<Frame>>,
    /// Lock-discipline findings, sorted: joins whose lock depths differ,
    /// orphan `monitorexit`s, and returns that still hold a monitor.
    pub findings: Vec<LockDiag>,
    /// Depth bounds over every path.
    pub summary: MethodSummary,
}

/// Options controlling [`verify_method`] / [`verify_program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyOptions {
    /// Maximum permitted operand-stack depth.
    pub max_stack: usize,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions { max_stack: 64 }
    }
}

/// Runs the verifier's fixpoint over one method of `program`, recording
/// lock-discipline violations as findings.
///
/// # Errors
///
/// The first type or stack violation found, as a [`VerifyError`].
pub fn dataflow(
    program: &Program,
    method: &Method,
    options: VerifyOptions,
) -> Result<Dataflow, VerifyError> {
    let err = |pc: usize, message: String| VerifyError {
        method: method.name().to_string(),
        pc,
        message,
    };
    let code = method.code();
    if code.is_empty() {
        return Err(err(0, "empty method body".into()));
    }

    // Entry frame: arguments occupy the first locals; a synchronized
    // method's receiver must be a reference.
    let mut locals: Vec<Option<AbsVal>> = vec![None; usize::from(method.max_locals())];
    for (i, slot) in (0..method.arg_count()).zip(&mut locals) {
        *slot = Some(AbsVal::Arg(i));
    }
    if method.flags().synchronized {
        let receiver = locals
            .first_mut()
            .ok_or_else(|| err(0, "synchronized method needs a receiver argument".into()))?;
        *receiver = Some(AbsVal::Ref(Sym::Arg(0)));
    }

    let mut states: Vec<Option<Frame>> = vec![None; code.len()];
    states[0] = Some(Frame {
        stack: Vec::new(),
        locals,
        locks: Vec::new(),
    });
    let mut worklist: VecDeque<usize> = VecDeque::from([0]);
    let mut max_stack = 0usize;
    let mut max_monitors = 0usize;
    // A join finding is kept per message; an instruction's is rewritten
    // at each visit, so the one made at its final frame stands.
    let mut join_findings: BTreeSet<LockDiag> = BTreeSet::new();
    let mut op_findings: BTreeMap<usize, String> = BTreeMap::new();

    while let Some(pc) = worklist.pop_front() {
        let mut frame = states[pc].clone().expect("worklist entries have states");
        let op = code[pc];

        macro_rules! push {
            ($t:expr) => {{
                frame.stack.push($t);
                if frame.stack.len() > options.max_stack {
                    return Err(err(pc, "operand stack overflow".into()));
                }
                max_stack = max_stack.max(frame.stack.len());
            }};
        }
        macro_rules! local {
            ($slot:expr) => {{
                let s = usize::from($slot);
                if s >= frame.locals.len() {
                    return Err(err(pc, format!("local {s} out of range")));
                }
                s
            }};
        }

        // The operand kinds `op` pops, top of stack first, and whether it
        // then pushes an int.
        let (wants, pushes_int): (&[AbsVal], bool) = match op {
            Op::IAdd
            | Op::ISub
            | Op::IMul
            | Op::IRem
            | Op::IAnd
            | Op::IOr
            | Op::IXor
            | Op::IShl
            | Op::IShr => (&[INT, INT], true),
            Op::IfICmpLt(_) | Op::IfICmpGe(_) | Op::IfICmpEq(_) => (&[INT, INT], false),
            Op::IStore(_) | Op::ALoadPool | Op::IfEq(_) | Op::IReturn => (&[INT], false),
            Op::INeg => (&[INT], true),
            Op::GetField(_) => (&[REF], true),
            Op::GetFieldDyn => (&[INT, REF], true),
            Op::PutField(_) => (&[INT, REF], false),
            Op::PutFieldDyn => (&[INT, INT, REF], false),
            Op::Dup | Op::Pop => (&[ANY], false),
            // Wait and notify consume their monitor like `monitorexit`;
            // ownership is dynamic, so no surrounding enter is required.
            Op::AStore(_)
            | Op::MonitorEnter
            | Op::MonitorExit
            | Op::Wait
            | Op::Notify
            | Op::Throw => (&[REF], false),
            _ => (&[], false),
        };
        // The last operand popped: what a store, `dup` or monitor
        // operation acts on.
        let mut popped = ANY;
        for &want in wants {
            let v = (frame.stack.pop()).ok_or_else(|| err(pc, "operand stack underflow".into()))?;
            if v.join(want).is_none() {
                return Err(err(pc, format!("expected {want} on stack, found {v}")));
            }
            popped = v;
        }
        if pushes_int {
            push!(INT);
        }

        match op {
            Op::IConst(k) => push!(AbsVal::Const(k)),
            Op::ILoad(s) | Op::IInc(s, _) => {
                let s = local!(s);
                match frame.locals[s] {
                    Some(t) if t.join(INT).is_some() => frame.locals[s] = Some(INT),
                    Some(t) => return Err(err(pc, format!("{} of {t} local", op.mnemonic()))),
                    None => return Err(err(pc, format!("{} of unassigned local", op.mnemonic()))),
                }
                if let Op::ILoad(_) = op {
                    push!(INT);
                }
            }
            Op::ALoad(s) => {
                let s = local!(s);
                let v = match frame.locals[s] {
                    Some(t) if t.join(REF).is_some() => AbsVal::Ref(t.sym()),
                    Some(t) => return Err(err(pc, format!("aload of {t} local"))),
                    None => return Err(err(pc, "aload of unassigned local".into())),
                };
                frame.locals[s] = Some(v);
                push!(v);
            }
            Op::IStore(s) | Op::AStore(s) => {
                let s = local!(s);
                frame.locals[s] = Some(popped);
            }
            Op::AConst(i) => {
                if i >= program.pool_size() {
                    return Err(err(pc, format!("pool index {i} out of range")));
                }
                push!(AbsVal::Ref(Sym::Pool(i)));
            }
            Op::ALoadPool => push!(REF),
            Op::Dup => {
                push!(popped);
                push!(popped);
            }
            Op::MonitorEnter => {
                frame.locks.push(popped.sym());
                max_monitors = max_monitors.max(frame.locks.len());
            }
            Op::MonitorExit => {
                let released = frame.locks.pop();
                if released.is_none() {
                    let sym = popped.sym();
                    let message = format!("monitorexit on {sym} without matching monitorenter");
                    op_findings.insert(pc, message);
                }
            }
            Op::Invoke(id) => {
                let callee = program
                    .method(id)
                    .ok_or_else(|| err(pc, format!("unknown method id {id}")))?;
                let argc = usize::from(callee.arg_count());
                if frame.stack.len() < argc {
                    return Err(err(pc, "too few arguments on stack for invoke".into()));
                }
                // Receiver of a synchronized callee must be a reference.
                if callee.flags().synchronized && argc > 0 {
                    let recv = frame.stack[frame.stack.len() - argc];
                    if recv.join(REF).is_none() {
                        return Err(err(
                            pc,
                            format!("synchronized callee receiver must be ref, found {recv}"),
                        ));
                    }
                }
                frame.stack.truncate(frame.stack.len() - argc);
                if callee.flags().returns_value {
                    push!(INT);
                }
            }
            Op::Return | Op::IReturn => {
                let returns = op == Op::IReturn;
                if returns != method.flags().returns_value {
                    let not = if returns { "not " } else { "" };
                    let message = format!("{} in a method {not}declared `returns`", op.mnemonic());
                    return Err(err(pc, message));
                }
                if !frame.locks.is_empty() {
                    let held: Vec<String> = frame.locks.iter().map(Sym::to_string).collect();
                    let (n, held) = (held.len(), held.join(", "));
                    let message =
                        format!("{} while holding {n} monitor(s): [{held}]", op.mnemonic());
                    op_findings.insert(pc, message);
                }
            }
            _ => {}
        }

        // Any instruction inside a protected range may transfer to its
        // handler with the stack reduced to the exception object. Seed the
        // handler with the frame at instruction *entry* (locals and
        // lock stack as they were before the op).
        let mut edges: Vec<(usize, Frame)> = Vec::with_capacity(3);
        if let Some(h) = method.handler_for(pc) {
            if h.target >= code.len() {
                return Err(err(pc, format!("handler target {} out of range", h.target)));
            }
            let mut handler = states[pc].clone().expect("the current pc has a state");
            handler.stack = vec![REF];
            edges.push((h.target, handler));
        }
        let ends = matches!(op, Op::Goto(_) | Op::Throw | Op::Return | Op::IReturn);
        let fall_through = (!ends).then_some(pc + 1);
        for succ in op.branch_target().into_iter().chain(fall_through) {
            if succ >= code.len() {
                return Err(err(pc, format!("control flow target {succ} out of range")));
            }
            edges.push((succ, frame.clone()));
        }
        for (target, incoming) in edges {
            let grown = match &states[target] {
                None => Some(incoming),
                Some(existing) => existing
                    .merge(&incoming, target, &mut join_findings)
                    .map_err(|message| err(target, message))?,
            };
            if let Some(frame) = grown {
                states[target] = Some(frame);
                worklist.push_back(target);
            }
        }
    }

    let mut findings = join_findings;
    findings.extend((op_findings.into_iter()).map(|(pc, message)| LockDiag { pc, message }));
    Ok(Dataflow {
        frames: states,
        findings: findings.into_iter().collect(),
        summary: MethodSummary {
            max_stack,
            max_monitors,
        },
    })
}

/// Verifies one method of `program`.
///
/// # Errors
///
/// The first type or stack violation found, or else the first
/// lock-discipline finding, as a [`VerifyError`].
///
/// # Example
///
/// ```
/// use thinlock_vm::programs::MicroBench;
/// use thinlock_vm::verify::{verify_program, VerifyOptions};
///
/// let program = MicroBench::Sync.program();
/// let summaries = verify_program(&program, VerifyOptions::default())?;
/// assert!(summaries[0].max_stack <= 4);
/// # Ok::<(), thinlock_vm::verify::VerifyError>(())
/// ```
pub fn verify_method(
    program: &Program,
    method: &Method,
    options: VerifyOptions,
) -> Result<MethodSummary, VerifyError> {
    let flow = dataflow(program, method, options)?;
    match flow.findings.into_iter().next() {
        Some(LockDiag { pc, message }) => Err(VerifyError {
            method: method.name().to_string(),
            pc,
            message,
        }),
        None => Ok(flow.summary),
    }
}

/// Verifies every method of a program.
///
/// # Errors
///
/// The first failure across all methods, as a [`VerifyError`].
pub fn verify_program(
    program: &Program,
    options: VerifyOptions,
) -> Result<Vec<MethodSummary>, VerifyError> {
    program.validate().map_err(|message| VerifyError {
        method: "<program>".to_string(),
        pc: 0,
        message,
    })?;
    program
        .methods()
        .iter()
        .map(|m| verify_method(program, m, options))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::MethodFlags;

    fn method(flags: MethodFlags, args: u8, locals: u8, code: Vec<Op>) -> (Program, Method) {
        let mut p = Program::new(4);
        let m = Method::new("m", args, locals, flags, code);
        p.add_method(m.clone());
        (p, m)
    }

    fn ret_flags() -> MethodFlags {
        MethodFlags {
            synchronized: false,
            returns_value: true,
        }
    }

    fn void_flags() -> MethodFlags {
        MethodFlags::default()
    }

    #[test]
    fn accepts_simple_arithmetic() {
        let (p, m) = method(
            ret_flags(),
            2,
            2,
            vec![Op::ILoad(0), Op::ILoad(1), Op::IAdd, Op::IReturn],
        );
        let s = verify_method(&p, &m, VerifyOptions::default()).unwrap();
        assert_eq!(s.max_stack, 2);
        assert_eq!(s.max_monitors, 0);
    }

    #[test]
    fn rejects_stack_underflow() {
        let (p, m) = method(void_flags(), 0, 0, vec![Op::Pop, Op::Return]);
        let e = verify_method(&p, &m, VerifyOptions::default()).unwrap_err();
        assert!(e.message.contains("underflow"), "{e}");
    }

    #[test]
    fn rejects_type_confusion() {
        let (p, m) = method(
            void_flags(),
            0,
            1,
            vec![Op::AConst(0), Op::IStore(0), Op::Return],
        );
        let e = verify_method(&p, &m, VerifyOptions::default()).unwrap_err();
        assert!(e.message.contains("expected int"), "{e}");
    }

    #[test]
    fn rejects_unassigned_local_read() {
        let (p, m) = method(ret_flags(), 0, 1, vec![Op::ILoad(0), Op::IReturn]);
        let e = verify_method(&p, &m, VerifyOptions::default()).unwrap_err();
        assert!(e.message.contains("unassigned"), "{e}");
    }

    #[test]
    fn argument_kind_is_inferred_from_use() {
        // Arg 0 used as an int: fine. Then used as a ref: conflict.
        let (p, ok) = method(ret_flags(), 1, 1, vec![Op::ILoad(0), Op::IReturn]);
        verify_method(&p, &ok, VerifyOptions::default()).unwrap();

        let (p2, bad) = method(
            ret_flags(),
            1,
            1,
            vec![Op::ILoad(0), Op::ALoad(0), Op::MonitorEnter, Op::IReturn],
        );
        let e = verify_method(&p2, &bad, VerifyOptions::default()).unwrap_err();
        assert!(e.message.contains("aload of int"), "{e}");
    }

    #[test]
    fn rejects_fall_off_end() {
        let (p, m) = method(void_flags(), 0, 0, vec![Op::Nop]);
        let e = verify_method(&p, &m, VerifyOptions::default()).unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
    }

    #[test]
    fn rejects_return_kind_mismatch() {
        let (p, m) = method(ret_flags(), 0, 0, vec![Op::Return]);
        let e = verify_method(&p, &m, VerifyOptions::default()).unwrap_err();
        assert!(e.message.contains("declared `returns`"), "{e}");

        let (p2, m2) = method(void_flags(), 0, 0, vec![Op::IConst(1), Op::IReturn]);
        let e2 = verify_method(&p2, &m2, VerifyOptions::default()).unwrap_err();
        assert!(e2.message.contains("not declared"), "{e2}");
    }

    #[test]
    fn rejects_join_with_mismatched_stack_depth() {
        // Path A pushes one int before the join; path B pushes none.
        let code = vec![
            Op::ILoad(0),  // 0
            Op::IfEq(4),   // 1: if zero jump to 4 with empty stack
            Op::IConst(7), // 2: push
            Op::Goto(4),   // 3: join at 4 with depth 1
            Op::Return,    // 4
        ];
        let (p, m) = method(void_flags(), 1, 1, code);
        let e = verify_method(&p, &m, VerifyOptions::default()).unwrap_err();
        assert!(e.message.contains("stack depth mismatch"), "{e}");
    }

    #[test]
    fn structured_locking_rejects_unbalanced_paths() {
        // Lock without unlock before return.
        let code = vec![Op::AConst(0), Op::MonitorEnter, Op::Return];
        let (p, m) = method(void_flags(), 0, 0, code);
        let e = verify_method(&p, &m, VerifyOptions::default()).unwrap_err();
        assert_eq!(e.pc, 2);
        assert!(
            e.message
                .contains("return while holding 1 monitor(s): [pool[0]]"),
            "{e}"
        );

        // Orphan exit.
        let code = vec![Op::AConst(0), Op::MonitorExit, Op::Return];
        let (p2, m2) = method(void_flags(), 0, 0, code);
        let e2 = verify_method(&p2, &m2, VerifyOptions::default()).unwrap_err();
        assert!(e2.message.contains("without matching"), "{e2}");
    }

    #[test]
    fn lock_findings_are_recorded_at_their_pc_while_the_fixpoint_continues() {
        // An orphan exit at pc 1, then a monitor leaked at the return.
        let code = vec![
            Op::AConst(0),    // 0
            Op::MonitorExit,  // 1: nothing held
            Op::AConst(0),    // 2
            Op::MonitorEnter, // 3
            Op::Return,       // 4: still holding pool[0]
        ];
        let (p, m) = method(void_flags(), 0, 0, code);
        let flow = dataflow(&p, &m, VerifyOptions::default()).unwrap();
        let found: Vec<String> = flow.findings.iter().map(LockDiag::to_string).collect();
        assert_eq!(
            found,
            [
                "pc 1: monitorexit on pool[0] without matching monitorenter",
                "pc 4: return while holding 1 monitor(s): [pool[0]]",
            ]
        );
        assert!(flow.frames.iter().all(Option::is_some), "every pc reached");
        assert_eq!(flow.frames[4].as_ref().unwrap().locks, [Sym::Pool(0)]);
        assert_eq!(flow.summary.max_monitors, 1);
        // The verdict is the first finding.
        let e = verify_method(&p, &m, VerifyOptions::default()).unwrap_err();
        assert_eq!(e.pc, 1);
        assert_eq!(
            e.message,
            "monitorexit on pool[0] without matching monitorenter"
        );
    }

    #[test]
    fn monitorenter_on_int_is_rejected_with_precise_pc() {
        let code = vec![Op::IConst(1), Op::MonitorEnter, Op::Return];
        let (p, m) = method(void_flags(), 0, 0, code);
        let e = verify_method(&p, &m, VerifyOptions::default()).unwrap_err();
        assert_eq!(e.pc, 1);
        assert!(
            e.message.contains("expected ref on stack, found int"),
            "{e}"
        );
    }

    #[test]
    fn exception_path_that_releases_the_lock_verifies() {
        use crate::program::Handler;
        // synchronized(pool[0]) { throw } with a handler that releases
        // the monitor before returning: every path balances.
        let code = vec![
            Op::AConst(0),    // 0
            Op::MonitorEnter, // 1
            Op::AConst(0),    // 2: protected
            Op::Throw,        // 3: protected
            Op::AStore(0),    // 4: handler target
            Op::AConst(0),    // 5
            Op::MonitorExit,  // 6
            Op::Return,       // 7
        ];
        let mut p = Program::new(1);
        let m = Method::new("m", 0, 1, void_flags(), code).with_handler(Handler {
            start: 2,
            end: 4,
            target: 4,
        });
        p.add_method(m.clone());
        let s = verify_method(&p, &m, VerifyOptions::default()).unwrap();
        assert_eq!(s.max_monitors, 1);
    }

    #[test]
    fn exception_path_that_leaks_the_lock_is_rejected() {
        use crate::program::Handler;
        // Same shape but the handler forgets the monitorexit: the return
        // on the exception path still holds the monitor.
        let code = vec![
            Op::AConst(0),    // 0
            Op::MonitorEnter, // 1
            Op::AConst(0),    // 2: protected
            Op::Throw,        // 3: protected
            Op::AStore(0),    // 4: handler target
            Op::Return,       // 5
        ];
        let mut p = Program::new(1);
        let m = Method::new("m", 0, 1, void_flags(), code).with_handler(Handler {
            start: 2,
            end: 4,
            target: 4,
        });
        p.add_method(m.clone());
        let e = verify_method(&p, &m, VerifyOptions::default()).unwrap_err();
        assert_eq!(e.pc, 5);
        assert!(
            e.message
                .contains("return while holding 1 monitor(s): [pool[0]]"),
            "{e}"
        );
    }

    #[test]
    fn balanced_loops_record_no_findings() {
        // Every loop head joins the back edge at the depth it entered
        // with, so looping programs that balance their monitors leave
        // the lock stack empty at every return.
        use crate::programs::MicroBench;
        for b in [
            MicroBench::MixedSync,
            MicroBench::Sync,
            MicroBench::MultiSync(4),
        ] {
            let program = b.program();
            for m in program.methods() {
                let flow = dataflow(&program, m, VerifyOptions::default())
                    .unwrap_or_else(|e| panic!("{b}: {e}"));
                assert!(flow.findings.is_empty(), "{b}: {:?}", flow.findings);
            }
        }
    }

    #[test]
    fn synchronized_receiver_must_be_ref() {
        let mut p = Program::new(1);
        let callee = Method::new(
            "locked",
            1,
            1,
            MethodFlags {
                synchronized: true,
                returns_value: false,
            },
            vec![Op::Return],
        );
        let callee_id = 1u16;
        p.add_method(Method::new(
            "caller",
            0,
            0,
            void_flags(),
            vec![Op::IConst(3), Op::Invoke(callee_id), Op::Return],
        ));
        p.add_method(callee);
        let e = verify_program(&p, VerifyOptions::default()).unwrap_err();
        assert!(e.message.contains("receiver must be ref"), "{e}");
    }

    #[test]
    fn stack_overflow_detected() {
        let code = vec![
            Op::IConst(1), // 0
            Op::Dup,       // 1
            Op::Goto(1),   // 2: unbounded growth
        ];
        let (p, m) = method(void_flags(), 0, 0, code);
        let e = verify_method(&p, &m, VerifyOptions::default()).unwrap_err();
        // Either detected as overflow or as a depth mismatch at the loop
        // join — both mean the stack is not height-consistent.
        assert!(
            e.message.contains("overflow") || e.message.contains("depth mismatch"),
            "{e}"
        );
    }

    #[test]
    fn loops_reach_fixpoint() {
        // A well-formed counting loop verifies and reports its stack need.
        let code = vec![
            Op::IConst(0),   // 0
            Op::IStore(1),   // 1
            Op::ILoad(1),    // 2
            Op::ILoad(0),    // 3
            Op::IfICmpGe(7), // 4
            Op::IInc(1, 1),  // 5
            Op::Goto(2),     // 6
            Op::ILoad(1),    // 7
            Op::IReturn,     // 8
        ];
        let (p, m) = method(ret_flags(), 1, 2, code);
        let s = verify_method(&p, &m, VerifyOptions::default()).unwrap();
        assert_eq!(s.max_stack, 2);
    }

    #[test]
    fn all_generated_microbench_programs_verify() {
        use crate::programs::MicroBench;
        let all = [
            MicroBench::NoSync,
            MicroBench::Sync,
            MicroBench::NestedSync,
            MicroBench::MultiSync(16),
            MicroBench::Call,
            MicroBench::CallSync,
            MicroBench::NestedCallSync,
            MicroBench::Threads(4),
            MicroBench::MixedSync,
        ];
        for b in all {
            let program = b.program();
            let summaries = verify_program(&program, VerifyOptions::default())
                .unwrap_or_else(|e| panic!("{b}: {e}"));
            assert!(summaries.iter().all(|s| s.max_stack <= 4), "{b}");
        }
        // MixedSync holds three monitors at once.
        let s = verify_program(&MicroBench::MixedSync.program(), VerifyOptions::default()).unwrap();
        assert_eq!(s[0].max_monitors, 3);
    }

    #[test]
    fn error_display() {
        let e = VerifyError {
            method: "m".into(),
            pc: 3,
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "m @ pc 3: boom");
    }
}
