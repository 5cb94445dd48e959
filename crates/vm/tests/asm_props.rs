//! Randomized tests of the assembler: `assemble ∘ disassemble` is the
//! identity on arbitrary well-formed programs. Programs are generated
//! with the in-repo deterministic PRNG from the instruction table
//! (`bytecode::INSTRUCTIONS`); an instruction invalid where it is drawn
//! is drawn again, like a rejection-sampling `prop_assume`.

use std::collections::BTreeSet;

use thinlock_runtime::prng::Prng;
use thinlock_vm::asm::{assemble, disassemble};
use thinlock_vm::bytecode::INSTRUCTIONS;
use thinlock_vm::{Method, MethodFlags, Op, Program};

const CASES: usize = 128;

/// An operand value: usually small (a slot, pool index, method id or
/// branch target that may be in range), otherwise spread over the
/// signed 16-bit, signed 32-bit and unsigned 32-bit ranges so every
/// operand width sees values it cannot hold.
fn gen_operand(rng: &mut Prng) -> i64 {
    match rng.range_u32(0, 4) {
        0 => i64::from(rng.range_u32(0, 8)),
        1 => i64::from(rng.next_u32() as i16),
        2 => i64::from(rng.next_u32() as i32),
        _ => i64::from(rng.next_u32()),
    }
}

/// A random instruction drawn from the instruction table, its operands
/// valid in a `len`-instruction method with `locals` locals, in a
/// program of `pool` objects and `methods` methods. A draw the table or
/// the program validator rejects is drawn again.
fn gen_op(rng: &mut Prng, locals: u8, pool: u32, methods: u16, len: usize) -> Op {
    loop {
        let (_, template) = INSTRUCTIONS[rng.range_usize(0, INSTRUCTIONS.len())];
        let values: Vec<i64> = template
            .operands()
            .iter()
            .map(|_| gen_operand(rng))
            .collect();
        let Ok(op) = template.with_operands(&values) else {
            continue;
        };
        let mut probe = Program::new(pool);
        for _ in 0..methods {
            let flags = MethodFlags::default();
            probe.add_method(Method::new("probe", 0, locals, flags, vec![op; len]));
        }
        if probe.validate().is_ok() {
            return op;
        }
    }
}

/// A well-formed method of random instructions, branches included,
/// terminated by a return.
fn gen_method(rng: &mut Prng, index: usize, pool: u32, methods: u16) -> Method {
    let locals = rng.range_u32(2, 10) as u8;
    let synchronized = rng.gen_bool(0.5);
    let returns_value = rng.gen_bool(0.5);
    let len = rng.range_usize(1, 20) + 1;
    let mut code: Vec<Op> = (1..len)
        .map(|_| gen_op(rng, locals, pool, methods, len))
        .collect();
    code.push(Op::Return);
    Method::new(
        format!("m{index}"),
        1,
        locals,
        MethodFlags {
            synchronized,
            returns_value,
        },
        code,
    )
}

fn gen_program(rng: &mut Prng) -> Program {
    let pool = rng.range_u32(1, 8);
    let nmethods = rng.range_u32(1, 4) as u16;
    let mut p = Program::new(pool);
    for i in 0..usize::from(nmethods) {
        p.add_method(gen_method(rng, i, pool, nmethods));
    }
    p
}

/// Round trip: disassemble then assemble reproduces the program, and
/// every instruction of the table takes part.
#[test]
fn assembler_round_trips() {
    let mut rng = Prng::seed_from_u64(0xa53b_0001);
    let mut tested = 0usize;
    let mut seen = BTreeSet::new();
    for _ in 0..CASES {
        let program = gen_program(&mut rng);
        if program.validate().is_err() {
            continue;
        }
        tested += 1;
        let text = disassemble(&program);
        let back = assemble(&text);
        assert!(back.is_ok(), "{}\n{}", back.unwrap_err(), text);
        assert_eq!(program, back.unwrap());
        for m in program.methods() {
            seen.extend(m.code().iter().map(|op| op.mnemonic()));
        }
    }
    assert!(tested > CASES / 2, "only {tested} valid programs generated");
    assert_eq!(
        seen.len(),
        INSTRUCTIONS.len(),
        "instructions drawn: {seen:?}"
    );
}

/// Disassembly is line-oriented and never empty for a valid program.
#[test]
fn disassembly_is_parseable_linewise() {
    let mut rng = Prng::seed_from_u64(0xa53b_0002);
    let mut tested = 0usize;
    for _ in 0..CASES {
        let program = gen_program(&mut rng);
        if program.validate().is_err() {
            continue;
        }
        tested += 1;
        let text = disassemble(&program);
        assert!(text.starts_with("pool "));
        assert!(text.lines().count() > program.methods().len());
    }
    assert!(tested > CASES / 2, "only {tested} valid programs generated");
}
