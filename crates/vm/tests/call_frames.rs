//! The call-frame layout: every frame of a run lives on one value stack,
//! `[arguments | other locals | operands]` from its base. These tests pin
//! the frame boundaries — a callee never reads or pops its caller's
//! operands, a handler sees only the exception — and a recursion deep
//! enough to grow the stack in the middle of a call.

use thinlock::ThinLocks;
use thinlock_runtime::heap::ObjRef;
use thinlock_runtime::protocol::SyncProtocol;
use thinlock_vm::program::Handler;
use thinlock_vm::{Method, MethodFlags, Op, Program, Value, Vm, VmError};

fn setup(pool: u32) -> (ThinLocks, Vec<ObjRef>) {
    let locks = ThinLocks::with_capacity(pool as usize + 2);
    let objs = (0..pool).map(|_| locks.heap().alloc().unwrap()).collect();
    (locks, objs)
}

fn flags(returns: bool) -> MethodFlags {
    MethodFlags {
        synchronized: false,
        returns_value: returns,
    }
}

#[test]
fn callee_cannot_pop_its_callers_pending_operand() {
    let (locks, _) = setup(0);
    let reg = locks.registry().register().unwrap();
    // The caller leaves 7 on its operand stack, then calls a 0-argument
    // method whose first instruction pops or duplicates.
    for first in [Op::Pop, Op::Dup] {
        let mut p = Program::new(0);
        p.add_method(Method::new(
            "caller",
            0,
            0,
            flags(true),
            vec![Op::IConst(7), Op::Invoke(1), Op::IReturn],
        ));
        p.add_method(Method::new(
            "callee",
            0,
            0,
            flags(false),
            vec![first, Op::Return],
        ));
        let vm = Vm::new(&locks, &p, vec![]).unwrap();
        assert_eq!(
            vm.run("caller", reg.token(), &[]).unwrap_err(),
            VmError::StackUnderflow { pc: 0 },
            "{first:?}"
        );
    }
}

#[test]
fn handler_with_pending_operands_sees_only_the_exception() {
    let (locks, pool) = setup(1);
    let reg = locks.registry().register().unwrap();
    let mut p = Program::new(1);
    // The caller has 1 and 2 pending when it calls `thrower(pool[0])`;
    // its handler stores the exception in its local, and a second pop
    // must underflow: the handler's stack held the exception alone, on
    // top of the caller's intact locals.
    p.add_method(
        Method::new(
            "caller",
            0,
            1,
            flags(false),
            vec![
                Op::IConst(1), // 0
                Op::IConst(2), // 1
                Op::AConst(0), // 2
                Op::Invoke(1), // 3: protected, throws
                Op::Return,    // 4: skipped
                Op::AStore(0), // 5: handler — the exception
                Op::Pop,       // 6: nothing left in this frame
                Op::Return,    // 7
            ],
        )
        .with_handler(Handler {
            start: 3,
            end: 4,
            target: 5,
        }),
    );
    p.add_method(Method::new(
        "thrower",
        1,
        1,
        flags(false),
        vec![Op::ALoad(0), Op::Throw],
    ));
    let vm = Vm::new(&locks, &p, pool).unwrap();
    assert_eq!(
        vm.run("caller", reg.token(), &[]).unwrap_err(),
        VmError::StackUnderflow { pc: 6 }
    );
}

#[test]
fn fifty_deep_recursion_returns_the_right_value() {
    let (locks, pool) = setup(1);
    let reg = locks.registry().register().unwrap();
    let mut p = Program::new(1);
    // synchronized int sum(this, n) { return n == 0 ? 0 : n + sum(this, n - 1); }
    // Each frame keeps `n` pending under its call, so 50 frames grow the
    // run's value stack past its first capacity mid-call. A few hundred
    // frames would overflow the native stack of a debug test thread.
    p.add_method(Method::new(
        "sum",
        2,
        2,
        MethodFlags {
            synchronized: true,
            returns_value: true,
        },
        vec![
            Op::ILoad(1),  // 0
            Op::IfEq(10),  // 1
            Op::ILoad(1),  // 2: n, pending under the call
            Op::ALoad(0),  // 3
            Op::ILoad(1),  // 4
            Op::IConst(1), // 5
            Op::ISub,      // 6
            Op::Invoke(0), // 7
            Op::IAdd,      // 8
            Op::IReturn,   // 9
            Op::IConst(0), // 10: n == 0
            Op::IReturn,   // 11
        ],
    ));
    let vm = Vm::new(&locks, &p, pool.clone()).unwrap();
    let out = vm.run("sum", reg.token(), &[Value::Ref(pool[0]), Value::Int(50)]);
    assert_eq!(out, Ok(Some(Value::Int(1275))));
    assert!(locks.lock_word(pool[0]).is_unlocked());
}
