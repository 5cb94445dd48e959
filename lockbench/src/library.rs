//! library-1t: the paper's "library tax". One thread calls the
//! javalex-shaped `main(8)` on the VM; each call makes 178 synchronized
//! Vector calls on an object no other thread touches. A seeded quarter of
//! the requests run while the caller already holds the Vector, so their
//! calls take the nested path. A fifth kind of slice runs requests of the
//! same shape on `ReferenceMachine`.

use std::sync::atomic::{AtomicI32, AtomicU32, Ordering};
use std::time::Instant;

use thinlock_runtime::{ObjRef, SyncBackend, SyncProtocol, ThreadToken};
use thinlock_vm::{Program, Value, Vm};

use crate::backends::Tally;
use crate::inputs::{self, Rng, LIBRARY_N};
use crate::run::{self, Bench, Set, Slices};
use crate::spans::{SpanRecorder, ThreadLog};

/// Requests each backend runs in set-up before timing starts.
pub const WARMUP_REQUESTS: u32 = 2_000;

/// Seeded stream of the nested choices.
const STREAM: u64 = 1;
/// The rate of the reference slices on the reference host (a two-vCPU
/// KVM guest of a 2.1 GHz Xeon) in its slow phase, acquisitions per
/// second.
pub const REFERENCE_OPS_PER_S: f64 = 9.5e6;

/// Acquisitions one request makes: the VM's synchronized calls, plus the
/// caller's own `lock` when the request is nested.
pub fn request_calls(nested: bool) -> u64 {
    inputs::library_calls(LIBRARY_N) + u64::from(nested)
}

/// Runs one request: resets the Vector's size, then calls `main(8)`,
/// holding the Vector around the call when `nested`. Counts the request's
/// acquisitions in `tally`, as failed when any call errs or the result is
/// not the expected checksum.
pub fn request<P: SyncProtocol + ?Sized>(
    vm: &Vm<'_, P>,
    vector: ObjRef,
    me: ThreadToken,
    nested: bool,
    tally: &mut Tally,
) {
    let p = vm.protocol();
    p.heap().field(vector, 0).store(0, Ordering::Relaxed);
    let outer = if nested { p.lock(vector, me) } else { Ok(()) };
    let out = vm.run_id(0, me, &[Value::Int(LIBRARY_N)]);
    let released = if nested && outer.is_ok() {
        p.unlock(vector, me)
    } else {
        Ok(())
    };
    let right = matches!(out, Ok(Some(Value::Int(v))) if v == inputs::library_checksum(LIBRARY_N));
    if right && outer.is_ok() && released.is_ok() {
        tally.ok(request_calls(nested));
    } else {
        tally.fail(request_calls(nested));
    }
}

/// An instruction of [`ReferenceMachine`].
#[derive(Debug, Clone, Copy)]
enum RefOp {
    Const(i32),
    Load(u8),
    Store(u8),
    Add,
    Pop,
    Call,
    /// Jumps to the target while the local is below the limit.
    JumpIfBelow(u8, i32, u16),
    Get(u8),
    Put(u8),
}

/// A value on [`ReferenceMachine`]'s stacks.
#[derive(Debug, Clone, Copy)]
enum RefValue {
    Int(i32),
    Null,
}

impl RefValue {
    fn int(v: Option<RefValue>) -> i32 {
        match v {
            Some(RefValue::Int(i)) => i,
            _ => 0,
        }
    }
}

/// library-1t's reference slices run requests on this small stack machine
/// of the benchmark's own. A request makes as many synchronized calls as
/// `main(8)`, each an uncontended compare-and-swap lock and a store
/// unlock of a private word around field reads and writes, dispatched
/// from bytecode with an operand stack and a frame allocated per call, as
/// the VM does. None of it is the repository's code, so no change there
/// moves it. The host moves it with the VM: in rounds where the host ran
/// library-1t's backends 1.5–1.6 times faster than in its slowest rounds,
/// it ran this machine 1.4 times faster, where uncontended
/// compare-and-swap pairs and calls through trait objects ran 1.3 times
/// faster.
pub struct ReferenceMachine {
    word: AtomicU32,
    fields: [AtomicI32; 2],
    main: Vec<RefOp>,
    method: Vec<RefOp>,
}

impl Default for ReferenceMachine {
    fn default() -> Self {
        use RefOp::*;
        let calls = i32::try_from(request_calls(false)).expect("178 calls fit an i32");
        ReferenceMachine {
            word: AtomicU32::new(0),
            fields: Default::default(),
            // i = 0; do { m(i); i += 1 } while i < calls
            main: vec![
                Const(0),
                Store(0),
                Load(0),
                Call,
                Pop,
                Load(0),
                Const(1),
                Add,
                Store(0),
                JumpIfBelow(0, calls, 2),
            ],
            // synchronized m(x) { f0 += x; f1 += 3; return 1 }
            method: vec![
                Get(0),
                Load(0),
                Add,
                Put(0),
                Get(1),
                Const(3),
                Add,
                Put(1),
                Const(1),
            ],
        }
    }
}

impl ReferenceMachine {
    /// One request: resets the fields and runs the main program. Returns
    /// the fields, which read (0 + 1 + ... + 177, 3 × 178) = (15753, 534).
    pub fn request(&self) -> (i32, i32) {
        for f in &self.fields {
            f.store(0, Ordering::Relaxed);
        }
        let mut stack = Vec::with_capacity(8);
        let mut locals = [RefValue::Null; 2];
        let mut pc = 0;
        while let Some(&op) = self.main.get(pc) {
            pc += 1;
            match op {
                RefOp::Const(c) => stack.push(RefValue::Int(c)),
                RefOp::Load(l) => stack.push(locals[usize::from(l)]),
                RefOp::Store(l) => locals[usize::from(l)] = stack.pop().unwrap_or(RefValue::Null),
                RefOp::Add => {
                    let b = RefValue::int(stack.pop());
                    let a = RefValue::int(stack.pop());
                    stack.push(RefValue::Int(a.wrapping_add(b)));
                }
                RefOp::Pop => {
                    stack.pop();
                }
                RefOp::Call => {
                    let arg = stack.pop().unwrap_or(RefValue::Null);
                    stack.push(self.call(arg));
                }
                RefOp::JumpIfBelow(l, limit, target) => {
                    if RefValue::int(Some(locals[usize::from(l)])) < limit {
                        pc = usize::from(target);
                    }
                }
                RefOp::Get(_) | RefOp::Put(_) => {}
            }
        }
        let field = |f: &AtomicI32| f.load(Ordering::Relaxed);
        (field(&self.fields[0]), field(&self.fields[1]))
    }

    /// One synchronized call of the method on `arg`. The winning
    /// exchange's `Acquire` pairs with the closing `Release` store.
    fn call(&self, arg: RefValue) -> RefValue {
        while self
            .word
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        // Allocated per call, as the VM allocates each call's locals and
        // operand stack.
        #[allow(clippy::useless_vec)]
        let frame = vec![arg];
        let mut stack = Vec::with_capacity(8);
        for &op in &self.method {
            match op {
                RefOp::Get(f) => stack.push(RefValue::Int(
                    self.fields[usize::from(f)].load(Ordering::Relaxed),
                )),
                RefOp::Put(f) => {
                    let v = RefValue::int(stack.pop());
                    self.fields[usize::from(f)].store(v, Ordering::Relaxed);
                }
                RefOp::Load(l) => stack.push(frame[usize::from(l)]),
                RefOp::Const(c) => stack.push(RefValue::Int(c)),
                RefOp::Add => {
                    let b = RefValue::int(stack.pop());
                    let a = RefValue::int(stack.pop());
                    stack.push(RefValue::Int(a.wrapping_add(b)));
                }
                _ => {}
            }
        }
        self.word.store(0, Ordering::Release);
        stack.pop().unwrap_or(RefValue::Null)
    }
}

/// A VM running `program` over `p`, with `vector` as its pooled object.
fn vm<'a, P: SyncProtocol + ?Sized>(p: &'a P, program: &'a Program, vector: ObjRef) -> Vm<'a, P> {
    Vm::new(p, program, vec![vector]).expect("the pool matches the program")
}

/// library-1t with its seed.
pub(crate) struct Library {
    /// Seed of the nested choices.
    pub seed: u64,
}

impl Bench for Library {
    type Extra = Program;
    const HEAP_OBJECTS: usize = 1;
    const FIELDS: usize = inputs::vector_fields(LIBRARY_N);
    const HAS_VM: bool = true;
    const REFERENCE_OPS_PER_S: Option<f64> = Some(REFERENCE_OPS_PER_S);

    fn extra(&self) -> Program {
        inputs::library_program()
    }

    fn warm_up(&self, set: &Set<Program>, b: usize, rep: usize, tally: &mut Tally) {
        let vector = set.objects[b][0];
        let vm = vm(&*set.backends[b], &set.extra, vector);
        let mut rng = Rng::new(self.seed, 100 + rep as u64);
        for _ in 0..WARMUP_REQUESTS {
            let nested = rng.below_pow2(4) == 0;
            request(&vm, vector, set.token(b, 0), nested, tally);
        }
    }

    fn timed(
        &self,
        set: &Set<Program>,
        recorders: &[SpanRecorder],
        slices: &mut Slices<'_>,
    ) -> Vec<ThreadLog> {
        let vms: Vec<Vm<'_, dyn SyncBackend + Send + Sync>> = (0..4)
            .map(|b| vm(&*set.backends[b], &set.extra, set.objects[b][0]))
            .collect();
        let traced_vms: Vec<Vm<'_, SpanRecorder>> = recorders
            .iter()
            .enumerate()
            .map(|(b, r)| vm(r, &set.extra, set.objects[b][0]))
            .collect();
        let mut rngs = vec![Rng::new(self.seed, STREAM); slices.kinds()];
        let reference = slices.reference_kind();
        let machine = ReferenceMachine::default();
        slices.run(|kind, deadline, times, tally| {
            if Some(kind) == reference {
                loop {
                    let t0 = Instant::now();
                    let out = machine.request();
                    let t1 = Instant::now();
                    times.record(run::ns(t1 - t0));
                    if out == (15_753, 534) {
                        tally.ok(request_calls(false));
                    } else {
                        tally.fail(request_calls(false));
                    }
                    if t1 >= deadline {
                        return;
                    }
                }
            }
            let b = kind % 4;
            let (vector, me) = (set.objects[b][0], set.token(b, 0));
            loop {
                let nested = rngs[kind].below_pow2(4) == 0;
                let t0 = Instant::now();
                if kind < 4 {
                    request(&vms[b], vector, me, nested, tally);
                } else {
                    recorders[b].begin_request();
                    request(&traced_vms[b], vector, me, nested, tally);
                }
                let t1 = Instant::now();
                if kind >= 4 {
                    recorders[b].end_request(me, t0, t1);
                }
                times.record(run::ns(t1 - t0));
                if t1 >= deadline {
                    break;
                }
            }
        });
        Vec::new()
    }
}
