//! Symbolic lock-stack dataflow.
//!
//! Upgrades the verifier's boolean monitor counter (`Frame::monitors` in
//! `thinlock_vm::verify`) to a *stack of symbolic lock identities*: at
//! every program point we know not just how many monitors are held but
//! which pool constant or incoming argument each one came from. That is
//! the substrate for all downstream passes — lock-order edges need to
//! know *what* is held while acquiring, escape analysis needs to know
//! what each `monitorenter` names, and nest-depth bounds need the
//! multiplicity of each identity in the held set.
//!
//! Unlike the verifier, this pass does not abort on the first violation:
//! it records instruction-precise diagnostics (orphan `monitorexit`,
//! non-LIFO release, imbalance at a join, monitors held at return) and
//! keeps going, so one malformed method still yields facts for the rest.
//!
//! Besides monitor operations, the pass records every field access
//! (`GetField`/`PutField` and the dynamic forms) with its symbolic
//! object, resolved [`FieldId`], and the held-set around it. Integer
//! constants are tracked through the operand stack, so
//! `GetFieldDyn`/`PutFieldDyn` with a provably constant index resolve to
//! the same precision as the indexed forms; only a genuinely dynamic
//! index degrades to [`FieldId::Unknown`].

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use thinlock_vm::bytecode::Op;
use thinlock_vm::program::{Method, Program};

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
    pub(crate) fn substitute(self, args: &[Sym]) -> Sym {
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

/// Statically resolved identity of an accessed field.
///
/// `GetField(i)`/`PutField(i)` always resolve; the dynamic forms resolve
/// exactly when the index operand is a provable integer constant, which
/// gives `GetFieldDyn`/`PutFieldDyn` the same precision as the indexed
/// forms whenever the index is statically known.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FieldId {
    /// A statically known field index.
    Const(u16),
    /// A dynamic index the dataflow could not resolve to a constant.
    Unknown,
}

impl fmt::Display for FieldId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FieldId::Const(i) => write!(f, "f{i}"),
            FieldId::Unknown => f.write_str("f?"),
        }
    }
}

/// Abstract value for one stack slot or local.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbsVal {
    /// Argument `i`, kind not yet constrained by use.
    ArgAny(u8),
    /// An integer.
    Int,
    /// A known integer constant (from `IConst`), tracked so the dynamic
    /// field ops can resolve their index operand.
    Const(i32),
    /// A reference with a symbolic identity.
    Ref(Sym),
    /// Irreconcilable or untracked.
    Top,
}

impl AbsVal {
    fn join(self, other: AbsVal) -> AbsVal {
        use AbsVal::*;
        match (self, other) {
            (a, b) if a == b => a,
            (ArgAny(_) | Const(_), Int) | (Int, ArgAny(_) | Const(_)) => Int,
            (ArgAny(_), Const(_)) | (Const(_), ArgAny(_)) | (Const(_), Const(_)) => Int,
            (ArgAny(i), Ref(s)) | (Ref(s), ArgAny(i)) => Ref(Sym::Arg(i).join(s)),
            (Ref(a), Ref(b)) => Ref(a.join(b)),
            _ => Top,
        }
    }

    /// The symbolic lock identity if this value were used as a reference.
    fn as_sym(self) -> Sym {
        match self {
            AbsVal::ArgAny(i) => Sym::Arg(i),
            AbsVal::Ref(s) => s,
            _ => Sym::Unknown,
        }
    }

    /// The field index this value resolves to when used as a dynamic
    /// field-index operand.
    fn as_field_id(self) -> FieldId {
        match self {
            AbsVal::Const(k) => u16::try_from(k).map_or(FieldId::Unknown, FieldId::Const),
            _ => FieldId::Unknown,
        }
    }
}

/// One instruction-precise finding from the lock-stack pass.
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

/// A `monitorenter` site with the symbolic held-set at acquisition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcquireSite {
    /// Program counter of the `monitorenter` (0 for the synthetic
    /// receiver acquisition of a synchronized method).
    pub pc: usize,
    /// What is being acquired.
    pub sym: Sym,
    /// Symbols already held when this acquisition happens, innermost
    /// last; includes the synchronized receiver where applicable.
    pub held: Vec<Sym>,
}

/// A `monitorenter` or `monitorexit` site with its resolved operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorSite {
    /// Program counter of the instruction.
    pub pc: usize,
    /// `true` for `monitorenter`, `false` for `monitorexit`.
    pub is_enter: bool,
    /// Symbolic identity of the locked object.
    pub sym: Sym,
}

/// A `wait`/`notify` site with its resolved operand and held-set.
///
/// These are the substrate of the contention pass's `WaitHeavy` shape:
/// an object that is statically waited/notified on is predicted to park
/// threads on its monitor, so pre-inflation is profitable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CondSite {
    /// Program counter of the instruction.
    pub pc: usize,
    /// `true` for `wait`, `false` for `notify`.
    pub is_wait: bool,
    /// Symbolic identity of the monitor being waited/notified on.
    pub sym: Sym,
    /// Symbols held at the site, innermost last; includes the
    /// synchronized receiver where applicable.
    pub held: Vec<Sym>,
}

/// A field access (`GetField`/`PutField` or their dynamic forms) with
/// the symbolic object, resolved field, and the locks held around it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldAccessSite {
    /// Program counter of the access.
    pub pc: usize,
    /// Symbolic identity of the accessed object.
    pub obj: Sym,
    /// The accessed field, if statically resolvable.
    pub field: FieldId,
    /// True for `PutField`/`PutFieldDyn`.
    pub is_write: bool,
    /// Symbols held at the access, innermost last; includes the
    /// synchronized receiver where applicable.
    pub held: Vec<Sym>,
}

/// An `Invoke` site with symbolic arguments and the held-set around it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvokeSite {
    /// Program counter of the `invoke`.
    pub pc: usize,
    /// Method id of the callee.
    pub callee: u16,
    /// Symbolic identity of each argument (receiver first); `Unknown`
    /// for non-reference arguments.
    pub args: Vec<Sym>,
    /// Symbols held across the call, innermost last.
    pub held: Vec<Sym>,
}

/// Everything the lock-stack pass learned about one method.
#[derive(Debug, Clone)]
pub struct MethodLockFacts {
    /// Method id within the program.
    pub method_id: u16,
    /// Method name.
    pub name: String,
    /// Whether the method is declared synchronized.
    pub synchronized: bool,
    /// Instruction-precise lock-discipline findings (empty = clean).
    pub diagnostics: Vec<LockDiag>,
    /// All acquisition sites, including the synthetic receiver
    /// acquisition of a synchronized method (reported at pc 0).
    pub acquires: Vec<AcquireSite>,
    /// Every `monitorenter`/`monitorexit` in the body with its operand.
    pub monitor_ops: Vec<MonitorSite>,
    /// Every `wait`/`notify` in the body with its operand and held-set.
    pub cond_ops: Vec<CondSite>,
    /// Every `Invoke` with symbolic arguments and held-set.
    pub invokes: Vec<InvokeSite>,
    /// Every field access with its symbolic object, resolved field, and
    /// held-set — the substrate of the guards (lockset) pass.
    pub field_accesses: Vec<FieldAccessSite>,
    /// Maximum symbolic lock-stack depth (body locks only; add one for
    /// a synchronized method's receiver).
    pub max_lock_stack: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Frame {
    stack: Vec<AbsVal>,
    locals: Vec<Option<AbsVal>>,
    /// Innermost-last stack of held lock identities (body locks only).
    lock_stack: Vec<Sym>,
}

impl Frame {
    /// Merge `other` into `self`; returns the merged frame if anything
    /// changed, `None` if `self` already covers `other`. A lock-stack
    /// depth mismatch is reported through `diag` and poisons the join
    /// (no propagation), mirroring the verifier's hard error.
    fn merge(&self, other: &Frame) -> Result<Option<Frame>, String> {
        if self.stack.len() != other.stack.len() {
            return Err(format!(
                "operand stack depth mismatch at join: {} vs {}",
                self.stack.len(),
                other.stack.len()
            ));
        }
        if self.lock_stack.len() != other.lock_stack.len() {
            return Err(format!(
                "lock-stack depth mismatch at join: {} monitors held on one path, {} on another",
                self.lock_stack.len(),
                other.lock_stack.len()
            ));
        }
        let mut changed = false;
        let mut stack = Vec::with_capacity(self.stack.len());
        for (&a, &b) in self.stack.iter().zip(&other.stack) {
            let j = a.join(b);
            changed |= j != a;
            stack.push(j);
        }
        let mut locals = Vec::with_capacity(self.locals.len());
        for (&a, &b) in self.locals.iter().zip(&other.locals) {
            let j = match (a, b) {
                (Some(x), Some(y)) => Some(x.join(y)),
                _ => None,
            };
            changed |= j != a;
            locals.push(j);
        }
        let mut lock_stack = Vec::with_capacity(self.lock_stack.len());
        for (&a, &b) in self.lock_stack.iter().zip(&other.lock_stack) {
            let j = a.join(b);
            changed |= j != a;
            lock_stack.push(j);
        }
        Ok(changed.then_some(Frame {
            stack,
            locals,
            lock_stack,
        }))
    }
}

/// Runs the symbolic lock-stack dataflow over one method.
///
/// The method is expected to have passed the base verifier with
/// `structured_locking` *off* (types and stack depths are sound); this
/// pass layers lock-discipline checking on top and never panics on
/// discipline violations — it records them in
/// [`MethodLockFacts::diagnostics`] instead.
pub fn analyze_method(program: &Program, method_id: u16, method: &Method) -> MethodLockFacts {
    let code = method.code();
    let synchronized = method.flags().synchronized;
    let base_held: Vec<Sym> = if synchronized {
        vec![Sym::Arg(0)]
    } else {
        Vec::new()
    };

    let mut facts = MethodLockFacts {
        method_id,
        name: method.name().to_string(),
        synchronized,
        diagnostics: Vec::new(),
        acquires: Vec::new(),
        monitor_ops: Vec::new(),
        cond_ops: Vec::new(),
        invokes: Vec::new(),
        field_accesses: Vec::new(),
        max_lock_stack: 0,
    };
    if synchronized {
        // The interpreter acquires the receiver before the body runs.
        facts.acquires.push(AcquireSite {
            pc: 0,
            sym: Sym::Arg(0),
            held: Vec::new(),
        });
    }
    if code.is_empty() {
        facts.diagnostics.push(LockDiag {
            pc: 0,
            message: "empty method body".into(),
        });
        return facts;
    }

    let mut entry_locals: Vec<Option<AbsVal>> = vec![None; usize::from(method.max_locals())];
    for (i, slot) in entry_locals
        .iter_mut()
        .take(usize::from(method.arg_count()))
        .enumerate()
    {
        *slot = Some(AbsVal::ArgAny(i as u8));
    }

    // Phase 1: fixpoint over per-pc entry frames. Joins that cannot
    // reconcile (depth mismatches) are diagnosed once and the edge is
    // dropped, which keeps the fixpoint terminating even for code that
    // leaks a monitor around a loop.
    let mut states: Vec<Option<Frame>> = vec![None; code.len()];
    states[0] = Some(Frame {
        stack: Vec::new(),
        locals: entry_locals,
        lock_stack: Vec::new(),
    });
    let mut join_diags: BTreeSet<(usize, String)> = BTreeSet::new();
    let mut worklist: VecDeque<usize> = VecDeque::from([0]);
    while let Some(pc) = worklist.pop_front() {
        let frame = states[pc].clone().expect("worklist entries have states");
        let Some(op) = code.get(pc).copied() else {
            join_diags.insert((pc, "control flow leaves the method".into()));
            continue;
        };
        let Some((next, successors, falls_through)) = transfer(program, &frame, op) else {
            // Stack underflow / malformed op: the base verifier reports
            // this path; stop following it here.
            join_diags.insert((pc, format!("{op}: malformed operand stack")));
            continue;
        };

        let mut propagate = |target: usize,
                             frame: &Frame,
                             states: &mut Vec<Option<Frame>>,
                             worklist: &mut VecDeque<usize>| {
            if target >= code.len() {
                join_diags.insert((pc, format!("control flow target {target} out of range")));
                return;
            }
            match &states[target] {
                None => {
                    states[target] = Some(frame.clone());
                    worklist.push_back(target);
                }
                Some(existing) => match existing.merge(frame) {
                    Ok(Some(merged)) => {
                        states[target] = Some(merged);
                        worklist.push_back(target);
                    }
                    Ok(None) => {}
                    Err(msg) => {
                        join_diags.insert((target, msg));
                    }
                },
            }
        };

        if let Some(h) = method.handler_for(pc) {
            // The handler sees the frame as it was at instruction entry,
            // with the stack reduced to the thrown exception.
            let entry = states[pc].clone().expect("current state exists");
            let handler_frame = Frame {
                stack: vec![AbsVal::Ref(Sym::Unknown)],
                locals: entry.locals,
                lock_stack: entry.lock_stack,
            };
            propagate(h.target, &handler_frame, &mut states, &mut worklist);
        }
        for succ in successors {
            propagate(succ, &next, &mut states, &mut worklist);
        }
        if falls_through {
            propagate(pc + 1, &next, &mut states, &mut worklist);
        }
    }

    // Phase 2: one deterministic pass over the fixpoint states to emit
    // events and instruction-level diagnostics exactly once per pc.
    let mut op_diags: BTreeSet<(usize, String)> = BTreeSet::new();
    for (pc, state) in states.iter().enumerate() {
        let Some(frame) = state else { continue }; // unreachable pc
        let op = code[pc];
        facts.max_lock_stack = facts.max_lock_stack.max(frame.lock_stack.len());
        let held_with_base = |lock_stack: &[Sym]| -> Vec<Sym> {
            let mut h = base_held.clone();
            h.extend_from_slice(lock_stack);
            h
        };
        match op {
            Op::MonitorEnter => {
                let sym = frame.stack.last().map_or(Sym::Unknown, |v| v.as_sym());
                facts.monitor_ops.push(MonitorSite {
                    pc,
                    is_enter: true,
                    sym,
                });
                facts.acquires.push(AcquireSite {
                    pc,
                    sym,
                    held: held_with_base(&frame.lock_stack),
                });
                facts.max_lock_stack = facts.max_lock_stack.max(frame.lock_stack.len() + 1);
            }
            Op::MonitorExit => {
                let sym = frame.stack.last().map_or(Sym::Unknown, |v| v.as_sym());
                facts.monitor_ops.push(MonitorSite {
                    pc,
                    is_enter: false,
                    sym,
                });
                match frame.lock_stack.last() {
                    None => {
                        op_diags.insert((
                            pc,
                            format!("monitorexit on {sym} without matching monitorenter"),
                        ));
                    }
                    Some(&top) => {
                        if top != sym && top != Sym::Unknown && sym != Sym::Unknown {
                            op_diags.insert((
                                pc,
                                format!(
                                    "non-LIFO monitorexit: releases {sym} while the \
                                     innermost held lock is {top}"
                                ),
                            ));
                        }
                    }
                }
            }
            Op::Wait | Op::Notify => {
                let sym = frame.stack.last().map_or(Sym::Unknown, |v| v.as_sym());
                let held = held_with_base(&frame.lock_stack);
                if sym != Sym::Unknown && !held.iter().any(|&h| h == sym || h == Sym::Unknown) {
                    op_diags.insert((
                        pc,
                        format!("{} on {sym} without holding its monitor", op.mnemonic()),
                    ));
                }
                facts.cond_ops.push(CondSite {
                    pc,
                    is_wait: matches!(op, Op::Wait),
                    sym,
                    held,
                });
            }
            Op::GetField(_) | Op::PutField(_) | Op::GetFieldDyn | Op::PutFieldDyn => {
                // Peek the operand `back` slots from the stack top.
                let peek = |back: usize| {
                    frame
                        .stack
                        .len()
                        .checked_sub(back)
                        .and_then(|k| frame.stack.get(k))
                        .copied()
                };
                let (obj, field, is_write) = match op {
                    Op::GetField(i) => (peek(1), FieldId::Const(i), false),
                    Op::PutField(i) => (peek(2), FieldId::Const(i), true),
                    Op::GetFieldDyn => (
                        peek(2),
                        peek(1).map_or(FieldId::Unknown, AbsVal::as_field_id),
                        false,
                    ),
                    _ => (
                        peek(3),
                        peek(2).map_or(FieldId::Unknown, AbsVal::as_field_id),
                        true,
                    ),
                };
                facts.field_accesses.push(FieldAccessSite {
                    pc,
                    obj: obj.map_or(Sym::Unknown, AbsVal::as_sym),
                    field,
                    is_write,
                    held: held_with_base(&frame.lock_stack),
                });
            }
            Op::Invoke(id) => {
                if let Some(callee) = program.method(id) {
                    let argc = usize::from(callee.arg_count());
                    let args: Vec<Sym> = if frame.stack.len() >= argc {
                        frame.stack[frame.stack.len() - argc..]
                            .iter()
                            .map(|v| v.as_sym())
                            .collect()
                    } else {
                        vec![Sym::Unknown; argc]
                    };
                    facts.invokes.push(InvokeSite {
                        pc,
                        callee: id,
                        args,
                        held: held_with_base(&frame.lock_stack),
                    });
                }
            }
            Op::Return | Op::IReturn if !frame.lock_stack.is_empty() => {
                let held: Vec<String> = frame.lock_stack.iter().map(|s| s.to_string()).collect();
                op_diags.insert((
                    pc,
                    format!(
                        "{} while holding {} monitor(s): [{}]",
                        op.mnemonic(),
                        frame.lock_stack.len(),
                        held.join(", ")
                    ),
                ));
            }
            _ => {}
        }
    }

    facts.diagnostics = join_diags
        .into_iter()
        .chain(op_diags)
        .map(|(pc, message)| LockDiag { pc, message })
        .collect();
    facts.diagnostics.sort();
    facts
}

/// Applies `op` to `frame`, returning the successor frame, explicit
/// branch targets, and whether the instruction falls through. Returns
/// `None` on operand-stack underflow (malformed code the base verifier
/// rejects).
#[allow(clippy::too_many_lines)]
fn transfer(program: &Program, frame: &Frame, op: Op) -> Option<(Frame, Vec<usize>, bool)> {
    let mut f = frame.clone();
    let mut successors: Vec<usize> = Vec::with_capacity(1);
    let mut falls_through = true;
    macro_rules! pop {
        () => {
            f.stack.pop()?
        };
    }
    macro_rules! local {
        ($slot:expr) => {{
            let s = usize::from($slot);
            if s >= f.locals.len() {
                return None;
            }
            s
        }};
    }
    match op {
        Op::IConst(v) => f.stack.push(AbsVal::Const(v)),
        Op::ILoad(s) => {
            let s = local!(s);
            f.locals[s] = Some(AbsVal::Int);
            f.stack.push(AbsVal::Int);
        }
        Op::IStore(s) => {
            pop!();
            let s = local!(s);
            f.locals[s] = Some(AbsVal::Int);
        }
        Op::IInc(s, _) => {
            let s = local!(s);
            f.locals[s] = Some(AbsVal::Int);
        }
        Op::IAdd
        | Op::ISub
        | Op::IMul
        | Op::IRem
        | Op::IAnd
        | Op::IOr
        | Op::IXor
        | Op::IShl
        | Op::IShr => {
            pop!();
            pop!();
            f.stack.push(AbsVal::Int);
        }
        Op::INeg => {
            pop!();
            f.stack.push(AbsVal::Int);
        }
        Op::ALoad(s) => {
            let s = local!(s);
            let v = match f.locals[s] {
                Some(v @ (AbsVal::ArgAny(_) | AbsVal::Ref(_))) => AbsVal::Ref(v.as_sym()),
                _ => AbsVal::Ref(Sym::Unknown),
            };
            f.locals[s] = Some(v);
            f.stack.push(v);
        }
        Op::AStore(s) => {
            let v = pop!();
            let s = local!(s);
            f.locals[s] = Some(AbsVal::Ref(v.as_sym()));
        }
        Op::AConst(i) => f.stack.push(AbsVal::Ref(Sym::Pool(i))),
        Op::ALoadPool => {
            pop!();
            f.stack.push(AbsVal::Ref(Sym::Unknown));
        }
        Op::GetField(_) => {
            pop!();
            f.stack.push(AbsVal::Int);
        }
        Op::PutField(_) => {
            pop!();
            pop!();
        }
        Op::GetFieldDyn => {
            pop!();
            pop!();
            f.stack.push(AbsVal::Int);
        }
        Op::PutFieldDyn => {
            pop!();
            pop!();
            pop!();
        }
        Op::Dup => {
            let v = pop!();
            f.stack.push(v);
            f.stack.push(v);
        }
        Op::Pop => {
            pop!();
        }
        Op::Goto(t) => {
            successors.push(t);
            falls_through = false;
        }
        Op::IfICmpLt(t) | Op::IfICmpGe(t) | Op::IfICmpEq(t) => {
            pop!();
            pop!();
            successors.push(t);
        }
        Op::IfEq(t) => {
            pop!();
            successors.push(t);
        }
        Op::MonitorEnter => {
            let v = pop!();
            f.lock_stack.push(v.as_sym());
        }
        Op::MonitorExit => {
            pop!();
            // Pop the lock stack even when empty or mismatched so one
            // orphan exit yields one diagnostic, not a cascade.
            f.lock_stack.pop();
        }
        Op::Wait | Op::Notify => {
            // Consume the monitor operand; the held-set is unchanged
            // (wait releases and re-acquires atomically from the
            // bytecode's point of view).
            pop!();
        }
        Op::Invoke(id) => {
            let callee = program.method(id)?;
            let argc = usize::from(callee.arg_count());
            if f.stack.len() < argc {
                return None;
            }
            f.stack.truncate(f.stack.len() - argc);
            if callee.flags().returns_value {
                f.stack.push(AbsVal::Int);
            }
        }
        Op::Throw => {
            pop!();
            falls_through = false;
        }
        Op::Return | Op::IReturn => {
            if matches!(op, Op::IReturn) {
                pop!();
            }
            falls_through = false;
        }
        Op::Nop => {}
    }
    Some((f, successors, falls_through))
}

/// Runs the lock-stack pass over every method of a program.
pub fn analyze_program(program: &Program) -> Vec<MethodLockFacts> {
    program
        .methods()
        .iter()
        .enumerate()
        .map(|(id, m)| analyze_method(program, id as u16, m))
        .collect()
}

/// Counts the multiplicity of each symbol in a held-set.
pub fn held_multiplicity(held: &[Sym]) -> BTreeMap<Sym, u32> {
    let mut m = BTreeMap::new();
    for &s in held {
        *m.entry(s).or_insert(0) += 1;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinlock_vm::program::MethodFlags;
    use thinlock_vm::programs::MicroBench;

    fn one_method(pool: u32, flags: MethodFlags, args: u8, locals: u8, code: Vec<Op>) -> Program {
        let mut p = Program::new(pool);
        p.add_method(Method::new("m", args, locals, flags, code));
        p
    }

    #[test]
    fn tracks_pool_identity_through_enter_exit() {
        let p = MicroBench::Sync.program();
        let facts = analyze_program(&p);
        let main = &facts[0];
        assert!(main.diagnostics.is_empty(), "{:?}", main.diagnostics);
        let enters: Vec<_> = main.monitor_ops.iter().filter(|m| m.is_enter).collect();
        assert!(!enters.is_empty());
        assert!(enters.iter().all(|m| m.sym == Sym::Pool(0)));
        assert_eq!(main.max_lock_stack, 1);
    }

    #[test]
    fn nested_holds_reported_in_order() {
        let p = MicroBench::MixedSync.program();
        let facts = analyze_program(&p);
        let main = &facts[0];
        assert!(main.diagnostics.is_empty(), "{:?}", main.diagnostics);
        assert_eq!(main.max_lock_stack, 3);
        // The innermost acquire holds the two outer locks.
        let deepest = main
            .acquires
            .iter()
            .max_by_key(|a| a.held.len())
            .expect("has acquires");
        assert_eq!(deepest.held.len(), 2);
    }

    #[test]
    fn orphan_exit_is_diagnosed_not_fatal() {
        let p = one_method(
            1,
            MethodFlags::default(),
            0,
            0,
            vec![Op::AConst(0), Op::MonitorExit, Op::Return],
        );
        let facts = analyze_program(&p);
        let d = &facts[0].diagnostics;
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].pc, 1);
        assert!(
            d[0].message.contains("without matching monitorenter"),
            "{}",
            d[0]
        );
    }

    #[test]
    fn non_lifo_release_is_diagnosed() {
        let code = vec![
            Op::AConst(0),
            Op::MonitorEnter,
            Op::AConst(1),
            Op::MonitorEnter,
            Op::AConst(0),
            Op::MonitorExit, // releases pool[0] while pool[1] is innermost
            Op::AConst(1),
            Op::MonitorExit,
            Op::Return,
        ];
        let p = one_method(2, MethodFlags::default(), 0, 0, code);
        let facts = analyze_program(&p);
        let d = &facts[0].diagnostics;
        assert!(
            d.iter()
                .any(|d| d.pc == 5 && d.message.contains("non-LIFO")),
            "{d:?}"
        );
    }

    #[test]
    fn return_while_holding_is_diagnosed() {
        let code = vec![Op::AConst(0), Op::MonitorEnter, Op::Return];
        let p = one_method(1, MethodFlags::default(), 0, 0, code);
        let facts = analyze_program(&p);
        let d = &facts[0].diagnostics;
        assert!(
            d.iter()
                .any(|d| d.pc == 2 && d.message.contains("while holding")),
            "{d:?}"
        );
    }

    #[test]
    fn synchronized_method_gets_synthetic_receiver_acquire() {
        let p = MicroBench::CallSync.program();
        let facts = analyze_program(&p);
        let bump = facts
            .iter()
            .find(|f| f.synchronized)
            .expect("CallSync has a synchronized callee");
        assert_eq!(bump.acquires[0].sym, Sym::Arg(0));
        assert!(bump.acquires[0].held.is_empty());
    }

    #[test]
    fn invoke_records_symbolic_receiver() {
        let p = MicroBench::CallSync.program();
        let facts = analyze_program(&p);
        let main = &facts[0];
        let call = main.invokes.first().expect("main invokes bump");
        assert_eq!(call.args.first().copied(), Some(Sym::Pool(0)));
    }

    #[test]
    fn dynamic_pool_load_is_unknown() {
        let code = vec![
            Op::IConst(1),
            Op::ALoadPool,
            Op::MonitorEnter,
            Op::IConst(1),
            Op::ALoadPool,
            Op::MonitorExit,
            Op::Return,
        ];
        let p = one_method(4, MethodFlags::default(), 0, 0, code);
        let facts = analyze_program(&p);
        assert!(
            facts[0].diagnostics.is_empty(),
            "{:?}",
            facts[0].diagnostics
        );
        assert!(facts[0].monitor_ops.iter().all(|m| m.sym == Sym::Unknown));
    }

    #[test]
    fn exception_path_release_is_tracked_symbolically() {
        use thinlock_vm::program::Handler;
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
        p.add_method(
            Method::new("m", 0, 1, MethodFlags::default(), code).with_handler(Handler {
                start: 2,
                end: 4,
                target: 4,
            }),
        );
        let facts = analyze_program(&p);
        assert!(
            facts[0].diagnostics.is_empty(),
            "{:?}",
            facts[0].diagnostics
        );
        // The handler-path exit releases the same identity it acquired.
        let exit = facts[0]
            .monitor_ops
            .iter()
            .find(|m| !m.is_enter)
            .expect("has an exit");
        assert_eq!(exit.sym, Sym::Pool(0));
    }

    #[test]
    fn exception_path_leak_is_diagnosed_at_the_return() {
        use thinlock_vm::program::Handler;
        let code = vec![
            Op::AConst(0),    // 0
            Op::MonitorEnter, // 1
            Op::AConst(0),    // 2: protected
            Op::Throw,        // 3: protected
            Op::AStore(0),    // 4: handler target, lock still held
            Op::Return,       // 5
        ];
        let mut p = Program::new(1);
        p.add_method(
            Method::new("m", 0, 1, MethodFlags::default(), code).with_handler(Handler {
                start: 2,
                end: 4,
                target: 4,
            }),
        );
        let facts = analyze_program(&p);
        assert!(
            facts[0].diagnostics.iter().any(|d| d.pc == 5
                && d.message.contains("while holding")
                && d.message.contains("pool[0]")),
            "{:?}",
            facts[0].diagnostics
        );
    }

    #[test]
    fn imbalanced_loop_diagnosed_and_terminates() {
        // Acquires once per iteration without releasing: the join at the
        // loop head can never balance. One diagnostic, no hang.
        let code = vec![
            Op::AConst(0),    // 0
            Op::MonitorEnter, // 1
            Op::ILoad(0),     // 2
            Op::IfEq(0),      // 3: loop back with one more lock held
            Op::AConst(0),    // 4
            Op::MonitorExit,  // 5
            Op::Return,       // 6
        ];
        let p = one_method(1, MethodFlags::default(), 1, 1, code);
        let facts = analyze_program(&p);
        assert!(
            facts[0]
                .diagnostics
                .iter()
                .any(|d| d.message.contains("lock-stack depth mismatch")),
            "{:?}",
            facts[0].diagnostics
        );
    }

    #[test]
    fn indexed_field_accesses_record_object_field_and_held_set() {
        // synchronized(pool[0]) { pool[0].f2 = pool[0].f2 + 1 }
        let code = vec![
            Op::AConst(0),    // 0
            Op::MonitorEnter, // 1
            Op::AConst(0),    // 2: receiver for the put
            Op::AConst(0),    // 3
            Op::GetField(2),  // 4
            Op::IConst(1),    // 5
            Op::IAdd,         // 6
            Op::PutField(2),  // 7
            Op::AConst(0),    // 8
            Op::MonitorExit,  // 9
            Op::Return,       // 10
        ];
        let p = one_method(1, MethodFlags::default(), 0, 0, code);
        let facts = analyze_program(&p);
        let accesses = &facts[0].field_accesses;
        assert_eq!(accesses.len(), 2, "{accesses:?}");
        let get = &accesses[0];
        assert_eq!(
            (get.pc, get.obj, get.field, get.is_write),
            (4, Sym::Pool(0), FieldId::Const(2), false)
        );
        assert_eq!(get.held, vec![Sym::Pool(0)]);
        let put = &accesses[1];
        assert_eq!(
            (put.pc, put.obj, put.field, put.is_write),
            (7, Sym::Pool(0), FieldId::Const(2), true)
        );
        assert_eq!(put.held, vec![Sym::Pool(0)]);
    }

    #[test]
    fn dynamic_field_ops_with_constant_index_resolve_exactly() {
        // pool[0].f[3] = pool[0].f[3] + 1 via the dynamic forms, index
        // pushed as IConst — must match the indexed forms' precision.
        let code = vec![
            Op::AConst(0),   // 0: receiver for the put
            Op::IConst(3),   // 1: put index
            Op::AConst(0),   // 2
            Op::IConst(3),   // 3: get index
            Op::GetFieldDyn, // 4
            Op::IConst(1),   // 5
            Op::IAdd,        // 6
            Op::PutFieldDyn, // 7
            Op::Return,      // 8
        ];
        let p = one_method(1, MethodFlags::default(), 0, 0, code);
        let facts = analyze_program(&p);
        assert!(
            facts[0].diagnostics.is_empty(),
            "{:?}",
            facts[0].diagnostics
        );
        let accesses = &facts[0].field_accesses;
        assert_eq!(accesses.len(), 2, "{accesses:?}");
        assert_eq!(
            (accesses[0].obj, accesses[0].field, accesses[0].is_write),
            (Sym::Pool(0), FieldId::Const(3), false)
        );
        assert_eq!(
            (accesses[1].obj, accesses[1].field, accesses[1].is_write),
            (Sym::Pool(0), FieldId::Const(3), true)
        );
    }

    #[test]
    fn dynamic_field_ops_with_computed_index_degrade_to_unknown() {
        // Index comes from a local (joined to Int): the object identity
        // survives but the field index does not.
        let code = vec![
            Op::AConst(0),   // 0
            Op::ILoad(0),    // 1: dynamic index
            Op::GetFieldDyn, // 2
            Op::Pop,         // 3
            Op::Return,      // 4
        ];
        let p = one_method(1, MethodFlags::default(), 1, 1, code);
        let facts = analyze_program(&p);
        let accesses = &facts[0].field_accesses;
        assert_eq!(accesses.len(), 1);
        assert_eq!(accesses[0].obj, Sym::Pool(0));
        assert_eq!(accesses[0].field, FieldId::Unknown);
    }

    #[test]
    fn synchronized_method_field_access_includes_receiver_in_held_set() {
        // The CallSync bump method accesses arg0.f0 under the synthetic
        // receiver lock.
        let p = MicroBench::CallSync.program();
        let facts = analyze_program(&p);
        let bump = facts.iter().find(|f| f.synchronized).expect("bump");
        assert_eq!(bump.field_accesses.len(), 2);
        for a in &bump.field_accesses {
            assert_eq!(a.obj, Sym::Arg(0));
            assert_eq!(a.field, FieldId::Const(0));
            assert_eq!(a.held, vec![Sym::Arg(0)], "receiver lock is held");
        }
    }

    #[test]
    fn constant_joins_collapse_to_int_not_top() {
        // Two paths push different constants; the join is Int, so a
        // following dynamic access degrades gracefully to FieldId::Unknown
        // (not a malformed-stack diagnostic).
        let code = vec![
            Op::ILoad(0),  // 0
            Op::IfEq(4),   // 1
            Op::IConst(1), // 2
            Op::Goto(5),   // 3
            Op::IConst(2), // 4
            Op::AConst(0), // 5: join point: [Int]
            Op::Pop,       // 6
            Op::Pop,       // 7
            Op::Return,    // 8
        ];
        let p = one_method(1, MethodFlags::default(), 1, 1, code);
        let facts = analyze_program(&p);
        assert!(
            facts[0].diagnostics.is_empty(),
            "{:?}",
            facts[0].diagnostics
        );
    }

    #[test]
    fn held_multiplicity_counts() {
        let held = [Sym::Pool(0), Sym::Pool(1), Sym::Pool(0)];
        let m = held_multiplicity(&held);
        assert_eq!(m[&Sym::Pool(0)], 2);
        assert_eq!(m[&Sym::Pool(1)], 1);
    }
}
