//! The bytecode interpreter, generic over the locking protocol.
//!
//! Like the paper's JDK interpreter, every `monitorenter`/`monitorexit`
//! bytecode and every synchronized method invocation goes through the
//! [`SyncProtocol`], so running the same program over `ThinLocks`,
//! `MonitorCache`, and `HotLocks` measures exactly the difference in their
//! locking fast paths on top of a fixed dispatch cost.
//!
//! A run keeps every live frame on one value stack. A frame is
//! `[arguments | other locals | operands]` from its base, and its operand
//! floor is `base + max_locals`. `invoke` leaves the arguments where the
//! caller pushed them, so they become the callee's first locals in place,
//! and a call allocates only when the stack must grow.

use std::fmt;

use thinlock_runtime::events::{TraceEventKind, TraceSink};
use thinlock_runtime::heap::ObjRef;
use thinlock_runtime::protocol::SyncProtocol;
use thinlock_runtime::registry::ThreadToken;

use crate::bytecode::Op;
use crate::error::VmError;
use crate::program::{Method, Program};
use crate::value::Value;

/// Internal outcome of a frame: a normal return or an in-flight exception
/// unwinding towards a handler.
enum Exec {
    Return(Option<Value>),
    Threw(ObjRef),
}

/// Pops an operand of the frame whose operands start at `floor`; `None`
/// rather than a value of the caller's frame below it.
#[inline]
fn pop_operand(stack: &mut Vec<Value>, floor: usize) -> Option<Value> {
    if stack.len() > floor {
        stack.pop()
    } else {
        None
    }
}

/// Values a run's stack holds before it first grows: room for several
/// frames of the library workloads.
const INITIAL_STACK_VALUES: usize = 64;

/// An executable instance: program + object pool + locking protocol.
///
/// The VM itself is stateless between calls. Each [`run`](Vm::run) owns
/// one value stack that holds every live frame's locals and operands, so
/// calls inside a run allocate only when that stack must grow, and one `Vm`
/// may be shared by many threads (the `Threads n` micro-benchmark does
/// exactly that).
///
/// # Example
///
/// ```
/// use thinlock::ThinLocks;
/// use thinlock_runtime::protocol::SyncProtocol;
/// use thinlock_vm::{Method, MethodFlags, Op, Program, Value, Vm};
///
/// let locks = ThinLocks::with_capacity(4);
/// let reg = locks.registry().register()?;
///
/// let mut program = Program::new(0);
/// program.add_method(Method::new(
///     "double",
///     1,
///     1,
///     MethodFlags { synchronized: false, returns_value: true },
///     vec![Op::ILoad(0), Op::ILoad(0), Op::IAdd, Op::IReturn],
/// ));
///
/// let vm = Vm::new(&locks, &program, vec![])?;
/// let out = vm.run("double", reg.token(), &[Value::Int(21)])?;
/// assert_eq!(out, Some(Value::Int(42)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Vm<'p, P: SyncProtocol + ?Sized> {
    protocol: &'p P,
    program: &'p Program,
    pool: Vec<ObjRef>,
    /// The protocol's trace sink, resolved once at construction so the
    /// field-access fast path pays a single never-taken branch when
    /// tracing is off.
    sink: Option<&'p dyn TraceSink>,
}

impl<'p, P: SyncProtocol + ?Sized> Vm<'p, P> {
    /// Creates a VM instance.
    ///
    /// # Errors
    ///
    /// Returns the program's own validation error, or a pool-size mismatch,
    /// as a `String` description (static errors, not runtime `VmError`s).
    pub fn new(protocol: &'p P, program: &'p Program, pool: Vec<ObjRef>) -> Result<Self, String> {
        program.validate()?;
        if pool.len() != program.pool_size() as usize {
            return Err(format!(
                "program expects {} pooled objects, got {}",
                program.pool_size(),
                pool.len()
            ));
        }
        Ok(Vm {
            protocol,
            program,
            pool,
            sink: protocol.trace_sink(),
        })
    }

    /// Emits a field-access event when the protocol has a trace sink.
    #[inline]
    fn trace_field(&self, token: ThreadToken, obj: ObjRef, field: u16, write: bool) {
        if let Some(sink) = self.sink {
            sink.record(
                Some(token.index()),
                Some(obj),
                TraceEventKind::FieldAccess { field, write },
            );
        }
    }

    /// The locking protocol in use.
    pub fn protocol(&self) -> &P {
        self.protocol
    }

    /// The object pool backing `aconst`/`aloadpool`.
    pub fn pool(&self) -> &[ObjRef] {
        &self.pool
    }

    /// Applies static pre-inflation hints to the pooled objects named by
    /// `hints` (pool indices, as produced by the `lockcheck` nest-depth
    /// pass). Each named object is handed to
    /// [`SyncProtocol::pre_inflate_hint`], which switches it to the
    /// protocol's expensive lock representation up front so that a
    /// predicted count overflow never inflates mid-critical-path. Returns
    /// how many objects actually changed representation. Out-of-range
    /// indices are ignored (the hint is advisory).
    pub fn apply_pre_inflation_hints(&self, hints: &[u32]) -> usize {
        hints
            .iter()
            .filter_map(|&i| self.pool.get(i as usize))
            .filter(|&&obj| self.protocol.pre_inflate_hint(obj))
            .count()
    }

    /// Runs method `name` with `args` on the calling thread.
    ///
    /// # Errors
    ///
    /// Any [`VmError`] raised by execution; [`VmError::BadMethod`] if the
    /// name does not resolve.
    pub fn run(
        &self,
        name: &str,
        token: ThreadToken,
        args: &[Value],
    ) -> Result<Option<Value>, VmError> {
        let id = self
            .program
            .method_id(name)
            .ok_or(VmError::BadMethod { id: u16::MAX })?;
        self.run_id(id, token, args)
    }

    /// Runs method `id` with unlimited fuel.
    ///
    /// # Errors
    ///
    /// Any [`VmError`] raised by execution, including
    /// [`VmError::UncaughtException`] for an exception no frame caught.
    pub fn run_id(
        &self,
        id: u16,
        token: ThreadToken,
        args: &[Value],
    ) -> Result<Option<Value>, VmError> {
        let mut fuel = u64::MAX;
        self.run_frames(id, token, args, &mut fuel)
    }

    /// Runs method `name` with a step budget; returns the value and the
    /// number of instructions executed.
    ///
    /// # Errors
    ///
    /// [`VmError::OutOfFuel`] if the budget is exhausted, otherwise any
    /// [`VmError`] raised by execution.
    pub fn run_with_fuel(
        &self,
        name: &str,
        token: ThreadToken,
        args: &[Value],
        fuel: u64,
    ) -> Result<(Option<Value>, u64), VmError> {
        let id = self
            .program
            .method_id(name)
            .ok_or(VmError::BadMethod { id: u16::MAX })?;
        let mut remaining = fuel;
        let out = self.run_frames(id, token, args, &mut remaining)?;
        Ok((out, fuel - remaining))
    }

    /// Runs method `id` on a fresh value stack whose first frame holds
    /// `args` in its first locals.
    fn run_frames(
        &self,
        id: u16,
        token: ThreadToken,
        args: &[Value],
        fuel: &mut u64,
    ) -> Result<Option<Value>, VmError> {
        let method = self.program.method(id).ok_or(VmError::BadMethod { id })?;
        debug_assert_eq!(args.len(), usize::from(method.arg_count()));
        let mut stack = Vec::with_capacity(INITIAL_STACK_VALUES);
        stack.resize(usize::from(method.max_locals()), Value::Null);
        stack[..args.len()].copy_from_slice(args);
        match self.call(method, token, &mut stack, 0, fuel)? {
            Exec::Return(v) => Ok(v),
            Exec::Threw(object) => Err(VmError::UncaughtException { object }),
        }
    }

    /// Invokes one method, honouring `ACC_SYNCHRONIZED`. Its locals are
    /// `stack[base..]`, already sized to `max_locals`.
    fn call(
        &self,
        method: &Method,
        token: ThreadToken,
        stack: &mut Vec<Value>,
        base: usize,
        fuel: &mut u64,
    ) -> Result<Exec, VmError> {
        let monitor = if method.flags().synchronized {
            let recv = (method.arg_count() > 0)
                .then(|| stack[base])
                .and_then(Value::as_ref)
                .ok_or(VmError::NullMonitor { pc: 0 })?;
            self.protocol.lock(recv, token)?;
            Some(recv)
        } else {
            None
        };

        let result = self.exec_body(method, token, stack, base, fuel);

        if let Some(obj) = monitor {
            // Release on every exit path, as the JVM does for synchronized
            // methods even when an exception unwinds through them.
            let unlocked = self.protocol.unlock(obj, token);
            if result.is_ok() {
                unlocked?;
            }
        }
        result
    }

    /// Transfers control to `pc`'s handler if one protects it: the operand
    /// stack is cut down to its `floor` and then holds just the exception
    /// object, as in the JVM.
    fn catch(
        method: &Method,
        pc: usize,
        exception: ObjRef,
        stack: &mut Vec<Value>,
        floor: usize,
    ) -> Option<usize> {
        let handler = method.handler_for(pc)?;
        stack.truncate(floor);
        stack.push(Value::Ref(exception));
        Some(handler.target)
    }

    /// The dispatch loop over the frame at `stack[base..]`: locals up to
    /// the operand floor, operands above it.
    fn exec_body(
        &self,
        method: &Method,
        token: ThreadToken,
        stack: &mut Vec<Value>,
        base: usize,
        fuel: &mut u64,
    ) -> Result<Exec, VmError> {
        let code = method.code();
        let max_locals = usize::from(method.max_locals());
        let floor = base + max_locals;
        let mut pc: usize = 0;

        macro_rules! pop {
            () => {
                pop_operand(stack, floor).ok_or(VmError::StackUnderflow { pc })?
            };
        }
        macro_rules! pop_int {
            () => {
                pop!().as_int().ok_or(VmError::TypeMismatch { pc })?
            };
        }
        macro_rules! pop_obj {
            () => {
                match pop!() {
                    Value::Ref(r) => r,
                    Value::Null => return Err(VmError::NullMonitor { pc }),
                    _ => return Err(VmError::TypeMismatch { pc }),
                }
            };
        }
        macro_rules! local {
            ($slot:expr) => {{
                let s = usize::from($slot);
                if s >= max_locals {
                    return Err(VmError::BadLocal { slot: $slot });
                }
                base + s
            }};
        }

        loop {
            let op = *code.get(pc).ok_or(VmError::BadPc { target: pc })?;
            *fuel = fuel.checked_sub(1).ok_or(VmError::OutOfFuel)?;
            let mut next = pc + 1;
            match op {
                Op::IConst(v) => stack.push(Value::Int(v)),
                Op::ILoad(s) => {
                    let v = stack[local!(s)];
                    if v.as_int().is_none() {
                        return Err(VmError::TypeMismatch { pc });
                    }
                    stack.push(v);
                }
                Op::IStore(s) => {
                    let v = pop_int!();
                    let idx = local!(s);
                    stack[idx] = Value::Int(v);
                }
                Op::IInc(s, d) => {
                    let idx = local!(s);
                    let v = stack[idx].as_int().ok_or(VmError::TypeMismatch { pc })?;
                    stack[idx] = Value::Int(v.wrapping_add(i32::from(d)));
                }
                Op::IAdd => {
                    let b = pop_int!();
                    let a = pop_int!();
                    stack.push(Value::Int(a.wrapping_add(b)));
                }
                Op::ISub => {
                    let b = pop_int!();
                    let a = pop_int!();
                    stack.push(Value::Int(a.wrapping_sub(b)));
                }
                Op::IMul => {
                    let b = pop_int!();
                    let a = pop_int!();
                    stack.push(Value::Int(a.wrapping_mul(b)));
                }
                Op::IRem => {
                    let b = pop_int!();
                    let a = pop_int!();
                    if b == 0 {
                        return Err(VmError::DivisionByZero { pc });
                    }
                    stack.push(Value::Int(a.wrapping_rem(b)));
                }
                Op::INeg => {
                    let a = pop_int!();
                    stack.push(Value::Int(a.wrapping_neg()));
                }
                Op::IAnd => {
                    let b = pop_int!();
                    let a = pop_int!();
                    stack.push(Value::Int(a & b));
                }
                Op::IOr => {
                    let b = pop_int!();
                    let a = pop_int!();
                    stack.push(Value::Int(a | b));
                }
                Op::IXor => {
                    let b = pop_int!();
                    let a = pop_int!();
                    stack.push(Value::Int(a ^ b));
                }
                Op::IShl => {
                    let b = pop_int!();
                    let a = pop_int!();
                    stack.push(Value::Int(a.wrapping_shl(b as u32 & 31)));
                }
                Op::IShr => {
                    let b = pop_int!();
                    let a = pop_int!();
                    stack.push(Value::Int(a.wrapping_shr(b as u32 & 31)));
                }
                Op::ALoad(s) => {
                    let v = stack[local!(s)];
                    match v {
                        Value::Ref(_) | Value::Null => stack.push(v),
                        Value::Int(_) => return Err(VmError::TypeMismatch { pc }),
                    }
                }
                Op::AStore(s) => {
                    let v = pop!();
                    let idx = local!(s);
                    match v {
                        Value::Ref(_) | Value::Null => stack[idx] = v,
                        Value::Int(_) => return Err(VmError::TypeMismatch { pc }),
                    }
                }
                Op::AConst(i) => {
                    let obj = self
                        .pool
                        .get(i as usize)
                        .copied()
                        .ok_or(VmError::BadPoolIndex { index: i })?;
                    stack.push(Value::Ref(obj));
                }
                Op::ALoadPool => {
                    let i = pop_int!();
                    let obj = usize::try_from(i)
                        .ok()
                        .and_then(|i| self.pool.get(i).copied())
                        .ok_or(VmError::BadPoolIndex { index: i as u32 })?;
                    stack.push(Value::Ref(obj));
                }
                Op::GetField(i) => {
                    let obj = pop_obj!();
                    let heap = self.protocol.heap();
                    if usize::from(i) >= heap.fields_per_object() {
                        return Err(VmError::BadField { index: i });
                    }
                    self.trace_field(token, obj, i, false);
                    let v = heap
                        .field(obj, usize::from(i))
                        .load(std::sync::atomic::Ordering::Relaxed);
                    stack.push(Value::Int(v));
                }
                Op::PutField(i) => {
                    let v = pop_int!();
                    let obj = pop_obj!();
                    let heap = self.protocol.heap();
                    if usize::from(i) >= heap.fields_per_object() {
                        return Err(VmError::BadField { index: i });
                    }
                    self.trace_field(token, obj, i, true);
                    heap.field(obj, usize::from(i))
                        .store(v, std::sync::atomic::Ordering::Relaxed);
                }
                Op::GetFieldDyn => {
                    let i = pop_int!();
                    let obj = pop_obj!();
                    let heap = self.protocol.heap();
                    let idx = usize::try_from(i)
                        .ok()
                        .filter(|&i| i < heap.fields_per_object())
                        .ok_or(VmError::BadField { index: i as u16 })?;
                    self.trace_field(token, obj, idx as u16, false);
                    let v = heap
                        .field(obj, idx)
                        .load(std::sync::atomic::Ordering::Relaxed);
                    stack.push(Value::Int(v));
                }
                Op::PutFieldDyn => {
                    let v = pop_int!();
                    let i = pop_int!();
                    let obj = pop_obj!();
                    let heap = self.protocol.heap();
                    let idx = usize::try_from(i)
                        .ok()
                        .filter(|&i| i < heap.fields_per_object())
                        .ok_or(VmError::BadField { index: i as u16 })?;
                    self.trace_field(token, obj, idx as u16, true);
                    heap.field(obj, idx)
                        .store(v, std::sync::atomic::Ordering::Relaxed);
                }
                Op::Dup => {
                    let v = *stack[floor..]
                        .last()
                        .ok_or(VmError::StackUnderflow { pc })?;
                    stack.push(v);
                }
                Op::Pop => {
                    let _ = pop!();
                }
                Op::Goto(t) => next = t,
                Op::IfICmpLt(t) => {
                    let b = pop_int!();
                    let a = pop_int!();
                    if a < b {
                        next = t;
                    }
                }
                Op::IfICmpGe(t) => {
                    let b = pop_int!();
                    let a = pop_int!();
                    if a >= b {
                        next = t;
                    }
                }
                Op::IfICmpEq(t) => {
                    let b = pop_int!();
                    let a = pop_int!();
                    if a == b {
                        next = t;
                    }
                }
                Op::IfEq(t) => {
                    if pop_int!() == 0 {
                        next = t;
                    }
                }
                Op::MonitorEnter => {
                    let obj = pop_obj!();
                    self.protocol.lock(obj, token)?;
                }
                Op::MonitorExit => {
                    let obj = pop_obj!();
                    self.protocol.unlock(obj, token)?;
                }
                Op::Wait => {
                    let obj = pop_obj!();
                    // A bounded wait keeps single-threaded executions (and
                    // schedules where every notifier has already finished)
                    // live: a timed-out waiter simply re-acquires and
                    // proceeds, per JLS spurious-wakeup rules.
                    self.protocol
                        .wait(obj, token, Some(std::time::Duration::from_millis(1)))?;
                }
                Op::Notify => {
                    let obj = pop_obj!();
                    self.protocol.notify(obj, token)?;
                }
                Op::Invoke(id) => {
                    let callee = self.program.method(id).ok_or(VmError::BadMethod { id })?;
                    let argc = usize::from(callee.arg_count());
                    if stack.len() - floor < argc {
                        return Err(VmError::StackUnderflow { pc });
                    }
                    // The arguments stay put as the callee's first locals.
                    let callee_base = stack.len() - argc;
                    stack.resize(callee_base + usize::from(callee.max_locals()), Value::Null);
                    let exec = self.call(callee, token, stack, callee_base, fuel)?;
                    stack.truncate(callee_base);
                    match exec {
                        Exec::Return(returned) => match (callee.flags().returns_value, returned) {
                            (true, Some(v)) => stack.push(v),
                            (false, None) => {}
                            _ => return Err(VmError::TypeMismatch { pc }),
                        },
                        Exec::Threw(e) => match Self::catch(method, pc, e, stack, floor) {
                            Some(target) => next = target,
                            None => return Ok(Exec::Threw(e)),
                        },
                    }
                }
                Op::Throw => {
                    let e = pop_obj!();
                    match Self::catch(method, pc, e, stack, floor) {
                        Some(target) => next = target,
                        None => return Ok(Exec::Threw(e)),
                    }
                }
                Op::Return => return Ok(Exec::Return(None)),
                Op::IReturn => {
                    let v = pop_int!();
                    return Ok(Exec::Return(Some(Value::Int(v))));
                }
                Op::Nop => {}
            }
            pc = next;
        }
    }
}

impl<'p, P: SyncProtocol + ?Sized> fmt::Debug for Vm<'p, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vm")
            .field("protocol", &self.protocol.name())
            .field("methods", &self.program.methods().len())
            .field("pool", &self.pool.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::MethodFlags;
    use thinlock::ThinLocks;
    use thinlock_runtime::backend::SyncBackend;

    fn setup(pool: u32, fields: usize) -> (ThinLocks, Vec<ObjRef>) {
        let heap = std::sync::Arc::new(thinlock_runtime::heap::Heap::with_capacity_and_fields(
            pool as usize + 4,
            fields,
        ));
        let locks = ThinLocks::new(heap, thinlock_runtime::registry::ThreadRegistry::new());
        let objs: Vec<ObjRef> = (0..pool).map(|_| locks.heap().alloc().unwrap()).collect();
        (locks, objs)
    }

    fn flags(returns: bool) -> MethodFlags {
        MethodFlags {
            synchronized: false,
            returns_value: returns,
        }
    }

    #[test]
    fn arithmetic_and_locals() {
        let (locks, _) = setup(0, 0);
        let reg = locks.registry().register().unwrap();
        let mut p = Program::new(0);
        // int f(int a, int b) { return (a + b) - 1; }
        p.add_method(Method::new(
            "f",
            2,
            2,
            flags(true),
            vec![
                Op::ILoad(0),
                Op::ILoad(1),
                Op::IAdd,
                Op::IConst(1),
                Op::ISub,
                Op::IReturn,
            ],
        ));
        let vm = Vm::new(&locks, &p, vec![]).unwrap();
        let out = vm
            .run("f", reg.token(), &[Value::Int(40), Value::Int(3)])
            .unwrap();
        assert_eq!(out, Some(Value::Int(42)));
    }

    #[test]
    fn loop_with_iinc_and_branch() {
        let (locks, _) = setup(0, 0);
        let reg = locks.registry().register().unwrap();
        let mut p = Program::new(0);
        // int count(int n) { int i = 0; while (i < n) i++; return i; }
        p.add_method(Method::new(
            "count",
            1,
            2,
            flags(true),
            vec![
                Op::IConst(0),   // 0
                Op::IStore(1),   // 1
                Op::ILoad(1),    // 2: loop
                Op::ILoad(0),    // 3
                Op::IfICmpGe(7), // 4
                Op::IInc(1, 1),  // 5
                Op::Goto(2),     // 6
                Op::ILoad(1),    // 7: end
                Op::IReturn,     // 8
            ],
        ));
        let vm = Vm::new(&locks, &p, vec![]).unwrap();
        let (out, steps) = vm
            .run_with_fuel("count", reg.token(), &[Value::Int(100)], 10_000)
            .unwrap();
        assert_eq!(out, Some(Value::Int(100)));
        assert!(steps > 400, "100 iterations cost real dispatch steps");
    }

    #[test]
    fn fuel_exhaustion_detected() {
        let (locks, _) = setup(0, 0);
        let reg = locks.registry().register().unwrap();
        let mut p = Program::new(0);
        p.add_method(Method::new("spin", 0, 0, flags(false), vec![Op::Goto(0)]));
        let vm = Vm::new(&locks, &p, vec![]).unwrap();
        assert_eq!(
            vm.run_with_fuel("spin", reg.token(), &[], 100).unwrap_err(),
            VmError::OutOfFuel
        );
    }

    #[test]
    fn fuel_budget_runs_exactly_that_many_instructions() {
        let (locks, _) = setup(0, 0);
        let reg = locks.registry().register().unwrap();
        let mut p = Program::new(0);
        // int main() { return inc(5); }, 3 + 4 instructions.
        p.add_method(Method::new(
            "main",
            0,
            0,
            flags(true),
            vec![Op::IConst(5), Op::Invoke(1), Op::IReturn],
        ));
        p.add_method(Method::new(
            "inc",
            1,
            1,
            flags(true),
            vec![Op::ILoad(0), Op::IConst(1), Op::IAdd, Op::IReturn],
        ));
        let vm = Vm::new(&locks, &p, vec![]).unwrap();
        let (out, steps) = vm.run_with_fuel("main", reg.token(), &[], 100).unwrap();
        assert_eq!((out, steps), (Some(Value::Int(6)), 7));
        assert_eq!(
            vm.run_with_fuel("main", reg.token(), &[], steps),
            Ok((Some(Value::Int(6)), steps))
        );
        assert_eq!(
            vm.run_with_fuel("main", reg.token(), &[], steps - 1),
            Err(VmError::OutOfFuel)
        );
    }

    #[test]
    fn monitorenter_exit_changes_lock_word() {
        let (locks, pool) = setup(1, 0);
        let reg = locks.registry().register().unwrap();
        let mut p = Program::new(1);
        // void f() { synchronized(pool[0]) {} } -- unbalanced across pcs
        p.add_method(Method::new(
            "f",
            0,
            0,
            flags(false),
            vec![
                Op::AConst(0),
                Op::MonitorEnter,
                Op::AConst(0),
                Op::MonitorExit,
                Op::Return,
            ],
        ));
        let vm = Vm::new(&locks, &p, pool.clone()).unwrap();
        vm.run("f", reg.token(), &[]).unwrap();
        assert!(locks.lock_word(pool[0]).is_unlocked());
        assert_eq!(locks.inflation_count(), 0);
    }

    #[test]
    fn synchronized_method_locks_receiver() {
        let (locks, pool) = setup(1, 1);
        let reg = locks.registry().register().unwrap();
        let mut p = Program::new(1);
        // synchronized void bump(this) { this.f0 = this.f0 + 1; }
        p.add_method(Method::new(
            "bump",
            1,
            1,
            MethodFlags {
                synchronized: true,
                returns_value: false,
            },
            vec![
                Op::ALoad(0),
                Op::ALoad(0),
                Op::GetField(0),
                Op::IConst(1),
                Op::IAdd,
                Op::PutField(0),
                Op::Return,
            ],
        ));
        let vm = Vm::new(&locks, &p, pool.clone()).unwrap();
        for _ in 0..3 {
            vm.run("bump", reg.token(), &[Value::Ref(pool[0])]).unwrap();
        }
        let v = locks
            .heap()
            .field(pool[0], 0)
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(v, 3);
        assert!(
            locks.lock_word(pool[0]).is_unlocked(),
            "method exit unlocked"
        );
    }

    #[test]
    fn synchronized_method_unlocks_on_error() {
        let (locks, pool) = setup(1, 0);
        let reg = locks.registry().register().unwrap();
        let mut p = Program::new(1);
        // synchronized method whose body faults (stack underflow).
        p.add_method(Method::new(
            "explode",
            1,
            1,
            MethodFlags {
                synchronized: true,
                returns_value: false,
            },
            vec![Op::Pop, Op::Return],
        ));
        let vm = Vm::new(&locks, &p, pool.clone()).unwrap();
        let err = vm
            .run("explode", reg.token(), &[Value::Ref(pool[0])])
            .unwrap_err();
        assert_eq!(err, VmError::StackUnderflow { pc: 0 });
        assert!(
            locks.lock_word(pool[0]).is_unlocked(),
            "monitor released during unwind"
        );
    }

    #[test]
    fn nested_calls_and_return_values() {
        let (locks, _) = setup(0, 0);
        let reg = locks.registry().register().unwrap();
        let mut p = Program::new(0);
        let inner = p.add_method(Method::new(
            "inc",
            1,
            1,
            flags(true),
            vec![Op::ILoad(0), Op::IConst(1), Op::IAdd, Op::IReturn],
        ));
        p.add_method(Method::new(
            "twice",
            1,
            1,
            flags(true),
            vec![
                Op::ILoad(0),
                Op::Invoke(inner),
                Op::Invoke(inner),
                Op::IReturn,
            ],
        ));
        let vm = Vm::new(&locks, &p, vec![]).unwrap();
        let out = vm.run("twice", reg.token(), &[Value::Int(5)]).unwrap();
        assert_eq!(out, Some(Value::Int(7)));
    }

    #[test]
    fn type_errors_are_reported() {
        let (locks, pool) = setup(1, 0);
        let reg = locks.registry().register().unwrap();
        let mut p = Program::new(1);
        p.add_method(Method::new(
            "bad",
            0,
            1,
            flags(false),
            vec![Op::AConst(0), Op::IStore(0), Op::Return],
        ));
        let vm = Vm::new(&locks, &p, pool).unwrap();
        assert_eq!(
            vm.run("bad", reg.token(), &[]).unwrap_err(),
            VmError::TypeMismatch { pc: 1 }
        );
    }

    #[test]
    fn monitor_on_null_is_an_error() {
        let (locks, _) = setup(0, 0);
        let reg = locks.registry().register().unwrap();
        let mut p = Program::new(0);
        p.add_method(Method::new(
            "nullmon",
            0,
            1,
            flags(false),
            vec![Op::ALoad(0), Op::MonitorEnter, Op::Return],
        ));
        let vm = Vm::new(&locks, &p, vec![]).unwrap();
        assert_eq!(
            vm.run("nullmon", reg.token(), &[]).unwrap_err(),
            VmError::NullMonitor { pc: 1 }
        );
    }

    #[test]
    fn pool_size_mismatch_rejected() {
        let (locks, pool) = setup(2, 0);
        let p = Program::new(1);
        assert!(Vm::new(&locks, &p, pool).is_err());
    }

    #[test]
    fn aloadpool_indexes_dynamically() {
        let (locks, pool) = setup(3, 0);
        let reg = locks.registry().register().unwrap();
        let mut p = Program::new(3);
        // lock pool[i] then unlock it, for i = arg0
        p.add_method(Method::new(
            "locki",
            1,
            1,
            flags(false),
            vec![
                Op::ILoad(0),
                Op::ALoadPool,
                Op::MonitorEnter,
                Op::ILoad(0),
                Op::ALoadPool,
                Op::MonitorExit,
                Op::Return,
            ],
        ));
        let vm = Vm::new(&locks, &p, pool.clone()).unwrap();
        for i in 0..3 {
            vm.run("locki", reg.token(), &[Value::Int(i)]).unwrap();
        }
        // Out of range.
        assert!(matches!(
            vm.run("locki", reg.token(), &[Value::Int(7)]).unwrap_err(),
            VmError::BadPoolIndex { .. }
        ));
    }

    #[test]
    fn unbalanced_monitorexit_surfaces_protocol_error() {
        let (locks, pool) = setup(1, 0);
        let reg = locks.registry().register().unwrap();
        let mut p = Program::new(1);
        p.add_method(Method::new(
            "orphan_exit",
            0,
            0,
            flags(false),
            vec![Op::AConst(0), Op::MonitorExit, Op::Return],
        ));
        let vm = Vm::new(&locks, &p, pool).unwrap();
        assert_eq!(
            vm.run("orphan_exit", reg.token(), &[]).unwrap_err(),
            VmError::Sync(thinlock_runtime::SyncError::NotLocked)
        );
    }

    #[test]
    fn debug_formatting() {
        let (locks, _) = setup(0, 0);
        let p = Program::new(0);
        let vm = Vm::new(&locks, &p, vec![]).unwrap();
        assert!(format!("{vm:?}").contains("ThinLock"));
    }
}
