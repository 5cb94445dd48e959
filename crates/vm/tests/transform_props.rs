//! Differential randomized tests of the bytecode transformations: for
//! any *verified* program, peephole optimization and synchronization
//! stripping preserve single-threaded results exactly. Programs are
//! built from stack-neutral snippets drawn with the in-repo PRNG, so
//! they verify by construction and the properties never starve. Counted
//! loops and caught throws give peephole branch targets and handler
//! ranges to remap around the code it removes.

use thinlock::ThinLocks;
use thinlock_runtime::heap::ObjRef;
use thinlock_runtime::prng::Prng;
use thinlock_runtime::protocol::SyncProtocol;
use thinlock_vm::program::Handler;
use thinlock_vm::transform::{peephole, strip_synchronization};
use thinlock_vm::verify::{verify_program, VerifyOptions};
use thinlock_vm::{Method, MethodFlags, Op, Program, Value, Vm};

const POOL: u32 = 2;
const LOCALS: u8 = 4;
/// The loop counter: the one local past the snippets' int locals.
const COUNTER: u8 = LOCALS;
const CASES: usize = 128;

/// A stack-neutral, monitor-balanced code snippet.
#[derive(Debug, Clone)]
enum Snippet {
    /// `local[dst] = c`
    SetConst(u8, i32),
    /// `local[dst] = local[a] <arith> local[b]` over int locals 1..LOCALS
    Arith(u8, u8, u8, u8),
    /// `iconst c; pop` / `aconst k; pop` — peephole fodder
    PushPop(i32, Option<u32>),
    /// `iconst a; iconst b; imul; istore dst` — constant-fold fodder
    FoldFodder(u8, i32, i32),
    /// `local[dst] = local[a] + local[a]` via `dup`
    DupAdd(u8, u8),
    /// `nop`
    Nop,
    /// `synchronized (pool[k]) { inner }`
    Sync(u32, Box<Snippet>),
    /// `for (counter = 0; counter < n; counter++) if (counter != skip)
    /// local[dst] += local[a]`, with `iconst; pop` in the body and the
    /// skip landing on a `nop`, so peephole removes code between each
    /// branch and its target
    Loop { n: i32, skip: i32, dst: u8, a: u8 },
    /// `aconst k; athrow` under a handler that pops the exception
    Throw(u32),
}

impl Snippet {
    /// Appends the snippet to `code`, whose length is the snippet's first
    /// pc, and its handlers to `handlers`.
    fn emit(&self, code: &mut Vec<Op>, handlers: &mut Vec<Handler>) {
        match self {
            Snippet::SetConst(dst, c) => {
                code.push(Op::IConst(*c));
                code.push(Op::IStore(*dst));
            }
            Snippet::Arith(dst, a, b, which) => {
                code.push(Op::ILoad(*a));
                code.push(Op::ILoad(*b));
                code.push(match which % 3 {
                    0 => Op::IAdd,
                    1 => Op::ISub,
                    _ => Op::IMul,
                });
                code.push(Op::IStore(*dst));
            }
            Snippet::PushPop(c, pool) => {
                match pool {
                    Some(k) => code.push(Op::AConst(*k)),
                    None => code.push(Op::IConst(*c)),
                }
                code.push(Op::Pop);
            }
            Snippet::FoldFodder(dst, a, b) => {
                code.push(Op::IConst(*a));
                code.push(Op::IConst(*b));
                code.push(Op::IMul);
                code.push(Op::IStore(*dst));
            }
            Snippet::DupAdd(dst, a) => {
                code.push(Op::ILoad(*a));
                code.push(Op::Dup);
                code.push(Op::IAdd);
                code.push(Op::IStore(*dst));
            }
            Snippet::Nop => code.push(Op::Nop),
            Snippet::Sync(k, inner) => {
                code.push(Op::AConst(*k));
                code.push(Op::MonitorEnter);
                inner.emit(code, handlers);
                code.push(Op::AConst(*k));
                code.push(Op::MonitorExit);
            }
            Snippet::Loop { n, skip, dst, a } => {
                let head = code.len() + 2;
                code.extend([
                    Op::IConst(0),
                    Op::IStore(COUNTER),
                    Op::ILoad(COUNTER), // head
                    Op::IConst(*n),
                    Op::IfICmpGe(head + 15),
                    Op::ILoad(COUNTER),
                    Op::IConst(*skip),
                    Op::IfICmpEq(head + 12),
                    Op::IConst(*n),
                    Op::Pop,
                    Op::ILoad(*dst),
                    Op::ILoad(*a),
                    Op::IAdd,
                    Op::IStore(*dst),
                    Op::Nop, // head + 12: the skip
                    Op::IInc(COUNTER, 1),
                    Op::Goto(head),
                ]);
            }
            Snippet::Throw(k) => {
                let start = code.len();
                code.extend([Op::AConst(*k), Op::Throw, Op::Pop]);
                handlers.push(Handler {
                    start,
                    end: start + 2,
                    target: start + 2,
                });
            }
        }
    }
}

fn gen_local(rng: &mut Prng) -> u8 {
    rng.range_u32(1, u32::from(LOCALS)) as u8
}

/// Random snippet; up to `depth` levels of `Sync` nesting.
fn gen_snippet(rng: &mut Prng, depth: u32) -> Snippet {
    if depth > 0 && rng.gen_bool(0.25) {
        let k = rng.range_u32(0, POOL);
        return Snippet::Sync(k, Box::new(gen_snippet(rng, depth - 1)));
    }
    match rng.range_u32(0, 8) {
        0 => Snippet::SetConst(gen_local(rng), rng.range_i32(-100, 100)),
        1 => Snippet::Arith(
            gen_local(rng),
            gen_local(rng),
            gen_local(rng),
            rng.next_u32() as u8,
        ),
        2 => {
            let pool = if rng.gen_bool(0.5) {
                Some(rng.range_u32(0, POOL))
            } else {
                None
            };
            Snippet::PushPop(rng.range_i32(-100, 100), pool)
        }
        3 => Snippet::FoldFodder(
            gen_local(rng),
            rng.range_i32(-50, 50),
            rng.range_i32(-50, 50),
        ),
        4 => Snippet::DupAdd(gen_local(rng), gen_local(rng)),
        5 => Snippet::Loop {
            n: rng.range_i32(0, 5),
            skip: rng.range_i32(-1, 5),
            dst: gen_local(rng),
            a: gen_local(rng),
        },
        6 => Snippet::Throw(rng.range_u32(0, POOL)),
        _ => Snippet::Nop,
    }
}

fn gen_program(rng: &mut Prng) -> Program {
    let snippets: Vec<Snippet> = (0..rng.range_usize(0, 10))
        .map(|_| gen_snippet(rng, 2))
        .collect();
    // Template: a fixed prologue seeds the locals, the random body runs
    // twice, and the method returns local 1 (always assigned by the
    // prologue).
    let mut code = vec![
        Op::IConst(7),
        Op::IStore(1),
        Op::IConst(3),
        Op::IStore(2),
        Op::IConst(0),
        Op::IStore(3),
    ];
    let mut handlers = Vec::new();
    for _ in 0..2 {
        for s in &snippets {
            s.emit(&mut code, &mut handlers);
        }
    }
    code.push(Op::ILoad(1));
    code.push(Op::IReturn);
    let main = Method::new(
        "main",
        1,
        COUNTER + 1,
        MethodFlags {
            synchronized: false,
            returns_value: true,
        },
        code,
    );
    let mut p = Program::new(POOL);
    p.add_method(handlers.into_iter().fold(main, Method::with_handler));
    p
}

fn run(program: &Program, arg: i32) -> Option<i32> {
    let heap = std::sync::Arc::new(thinlock_runtime::heap::Heap::with_capacity_and_fields(
        POOL as usize + 1,
        1,
    ));
    let locks = ThinLocks::new(heap, thinlock_runtime::registry::ThreadRegistry::new());
    let pool: Vec<ObjRef> = (0..POOL).map(|_| locks.heap().alloc().unwrap()).collect();
    let reg = locks.registry().register().unwrap();
    let vm = Vm::new(&locks, program, pool).unwrap();
    vm.run_with_fuel("main", reg.token(), &[Value::Int(arg)], 100_000)
        .ok()
        .and_then(|(v, _)| v)
        .and_then(Value::as_int)
}

/// The branch targets of `m`'s code, in code order.
fn branch_targets(m: &Method) -> Vec<usize> {
    m.code()
        .iter()
        .filter_map(|op| op.branch_target())
        .collect()
}

/// Drives `check` over `CASES` random (program, arg) pairs that run
/// successfully; every generated program must verify.
fn for_valid_cases(seed: u64, mut check: impl FnMut(&Program, i32, i32)) {
    let mut rng = Prng::seed_from_u64(seed);
    let mut tested = 0usize;
    for _ in 0..CASES {
        let program = gen_program(&mut rng);
        let arg = rng.range_i32(-5, 5);
        if let Err(e) = verify_program(&program, VerifyOptions::default()) {
            panic!("a generated program must verify: {e:?}");
        }
        let Some(original) = run(&program, arg) else {
            continue;
        };
        tested += 1;
        check(&program, arg, original);
    }
    assert!(
        tested > CASES / 2,
        "only {tested} usable programs generated"
    );
}

/// Peephole-optimized programs verify and compute the same results, and
/// the cases reach its branch and handler remap: some move a branch
/// target, some a handler.
#[test]
fn peephole_is_semantics_preserving() {
    let (mut branches, mut handlers) = (0, 0);
    for_valid_cases(0x7f0e_0001, |program, arg, original| {
        let (optimized, _) = peephole(program);
        assert!(optimized.validate().is_ok());
        assert!(verify_program(&optimized, VerifyOptions::default()).is_ok());
        assert_eq!(run(&optimized, arg), Some(original));
        let (before, after) = (&program.methods()[0], &optimized.methods()[0]);
        branches += usize::from(branch_targets(before) != branch_targets(after));
        handlers += usize::from(before.handlers() != after.handlers());
    });
    assert!(
        branches > 0 && handlers > 0,
        "moved {branches} branch target lists and {handlers} handler tables"
    );
}

/// Stripping synchronization never changes single-threaded results.
#[test]
fn stripping_is_semantics_preserving() {
    for_valid_cases(0x7f0e_0002, |program, arg, original| {
        let stripped = strip_synchronization(program);
        assert!(stripped.validate().is_ok());
        assert_eq!(run(&stripped, arg), Some(original));
    });
}

/// The two transformations compose.
#[test]
fn transforms_compose() {
    for_valid_cases(0x7f0e_0003, |program, arg, original| {
        let (optimized, _) = peephole(&strip_synchronization(program));
        assert_eq!(run(&optimized, arg), Some(original));
    });
}

/// Peephole is idempotent-ish: a second pass finds nothing more on
/// programs whose first pass already converged (single application of
/// the local rules; folding can cascade, so run to fixpoint first).
#[test]
fn peephole_reaches_fixpoint() {
    let mut rng = Prng::seed_from_u64(0x7f0e_0004);
    'cases: for _ in 0..CASES {
        let program = gen_program(&mut rng);
        if let Err(e) = verify_program(&program, VerifyOptions::default()) {
            panic!("a generated program must verify: {e:?}");
        }
        let mut current = program;
        for _ in 0..8 {
            let (next, stats) = peephole(&current);
            if stats.total_removed() == 0 {
                let (again, stats2) = peephole(&next);
                assert_eq!(stats2.total_removed(), 0);
                assert_eq!(again, next);
                continue 'cases;
            }
            current = next;
        }
        // Cascades longer than 8 passes would indicate non-termination.
        let (_, stats) = peephole(&current);
        assert_eq!(stats.total_removed(), 0, "peephole must converge");
    }
}
