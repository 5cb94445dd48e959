//! A call inside a run allocates nothing while the run's one value stack,
//! which holds every frame, has room. The counting allocator is
//! process-wide, so this file holds a single test and counts only the
//! allocations of its own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use thinlock::ThinLocks;
use thinlock_runtime::protocol::SyncProtocol;
use thinlock_vm::{Method, MethodFlags, Op, Program, Value, Vm};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator (the
// default `realloc` goes through `alloc`, so growth is counted too); the
// thread-local counter is const-initialized and has no destructor, so
// touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn run_allocations_do_not_grow_with_the_number_of_calls() {
    let locks = ThinLocks::with_capacity(4);
    let reg = locks.registry().register().unwrap();
    let vector = locks.heap().alloc().unwrap();
    let mut p = Program::new(1);
    // int main(n) { int i = 0; while (i < n) i = step(pool[0], i); return i; }
    p.add_method(Method::new(
        "main",
        1,
        2,
        MethodFlags {
            synchronized: false,
            returns_value: true,
        },
        vec![
            Op::IConst(0),    // 0
            Op::IStore(1),    // 1
            Op::ILoad(1),     // 2: loop
            Op::ILoad(0),     // 3
            Op::IfICmpGe(10), // 4
            Op::AConst(0),    // 5
            Op::ILoad(1),     // 6
            Op::Invoke(1),    // 7
            Op::IStore(1),    // 8
            Op::Goto(2),      // 9
            Op::ILoad(1),     // 10: end
            Op::IReturn,      // 11
        ],
    ));
    // synchronized int step(this, i) { int j = i + 1; return j; }
    p.add_method(Method::new(
        "step",
        2,
        3,
        MethodFlags {
            synchronized: true,
            returns_value: true,
        },
        vec![
            Op::ILoad(1),
            Op::IConst(1),
            Op::IAdd,
            Op::IStore(2),
            Op::ILoad(2),
            Op::IReturn,
        ],
    ));
    let vm = Vm::new(&locks, &p, vec![vector]).unwrap();
    let counted_run = |n: i32| {
        let before = allocations();
        let out = vm.run("main", reg.token(), &[Value::Int(n)]);
        let after = allocations();
        assert_eq!(out, Ok(Some(Value::Int(n))));
        after - before
    };
    let ten = counted_run(10);
    let thousand = counted_run(1_000);
    assert_eq!(
        ten, thousand,
        "a run making 1,000 calls allocated {thousand} times, one making 10 allocated {ten}"
    );
}
