//! The micro-benchmark programs of Table 2 (plus Figure 6's `MixedSync`).
//!
//! Each benchmark "runs a tight loop for a specified number of iterations;
//! inside the loop an integer variable is incremented. The benchmarks
//! differ in what occurs between the outer loop and the inner variable
//! update" (Section 3.3). The generators here produce the corresponding
//! bytecode:
//!
//! | program          | loop body                                          |
//! |------------------|----------------------------------------------------|
//! | `NoSync`         | nothing — pure interpretation cost                 |
//! | `Sync`           | `synchronized(o) { count++ }` on an unlocked `o`   |
//! | `NestedSync`     | same, but `o` is already locked outside the loop   |
//! | `MultiSync n`    | synchronizes each of `n` objects every iteration   |
//! | `Call`           | calls a non-synchronized method                    |
//! | `CallSync`       | calls a synchronized method (initial lock)         |
//! | `NestedCallSync` | calls a synchronized method while holding the lock |
//! | `Threads n`      | the `Sync` body run concurrently by `n` threads    |
//! | `MixedSync`      | three nested locks of one object per iteration     |
//!
//! Every `main` takes the iteration count as argument 0 and returns it, so
//! harnesses can verify a run did what it claims.
//!
//! Beyond Table 2, [`concurrent_library`] provides seeded concurrent
//! programs with ground-truth race labels: statically race-free
//! counters (every shared-field access under a consistent lock) and
//! deliberately racy variants, used to validate the `lockcheck` guards
//! pass against the dynamic Eraser sanitizer.

use std::fmt;

use crate::bytecode::Op;
use crate::program::{Method, MethodFlags, Program};

/// Identifier of a Table 2 micro-benchmark (plus `MixedSync`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MicroBench {
    /// No locking — the reference benchmark.
    NoSync,
    /// Initial lock with a `synchronized()` statement.
    Sync,
    /// Nested lock with a `synchronized()` statement.
    NestedSync,
    /// Like `Sync`, but synchronizes `n` objects every iteration.
    MultiSync(u32),
    /// Calls a non-synchronized method — reference benchmark.
    Call,
    /// Calls a synchronized method to obtain an initial lock.
    CallSync,
    /// Calls a synchronized method to obtain a nested lock.
    NestedCallSync,
    /// Initial locking performed concurrently by `n` competing threads;
    /// the program is the `Sync` program, run on `n` threads by the
    /// harness.
    Threads(u32),
    /// Figure 6's cross of `Sync` and `NestedSync`: three nested locks of
    /// the same object on every iteration.
    MixedSync,
}

impl MicroBench {
    /// The benchmarks of Table 2 in presentation order, with the sweep
    /// parameters used in Figure 4.
    pub fn table2() -> Vec<MicroBench> {
        vec![
            MicroBench::NoSync,
            MicroBench::Sync,
            MicroBench::NestedSync,
            MicroBench::MultiSync(64),
            MicroBench::Call,
            MicroBench::CallSync,
            MicroBench::NestedCallSync,
            MicroBench::Threads(4),
        ]
    }

    /// Number of pooled objects the benchmark's program needs.
    pub fn pool_size(self) -> u32 {
        match self {
            MicroBench::NoSync => 0,
            MicroBench::MultiSync(n) => n.max(1),
            _ => 1,
        }
    }

    /// Builds the benchmark's bytecode program. The entry point is always
    /// a method named `main` taking the iteration count.
    pub fn program(self) -> Program {
        match self {
            MicroBench::NoSync => looped_program(0, vec![]),
            MicroBench::Sync | MicroBench::Threads(_) => looped_program(
                1,
                vec![
                    Op::AConst(0),
                    Op::MonitorEnter,
                    Op::IInc(2, 1),
                    Op::AConst(0),
                    Op::MonitorExit,
                ],
            ),
            MicroBench::NestedSync => {
                let body = vec![
                    Op::AConst(0),
                    Op::MonitorEnter,
                    Op::IInc(2, 1),
                    Op::AConst(0),
                    Op::MonitorExit,
                ];
                wrapped_looped_program(1, body)
            }
            MicroBench::MultiSync(n) => {
                let n = n.max(1);
                let mut body = Vec::with_capacity(5 * n as usize);
                for k in 0..n {
                    body.extend([
                        Op::AConst(k),
                        Op::MonitorEnter,
                        Op::IInc(2, 1),
                        Op::AConst(k),
                        Op::MonitorExit,
                    ]);
                }
                looped_program(n, body)
            }
            MicroBench::Call => call_program(false, false),
            MicroBench::CallSync => call_program(true, false),
            MicroBench::NestedCallSync => call_program(true, true),
            MicroBench::MixedSync => looped_program(
                1,
                vec![
                    Op::AConst(0),
                    Op::MonitorEnter,
                    Op::AConst(0),
                    Op::MonitorEnter,
                    Op::AConst(0),
                    Op::MonitorEnter,
                    Op::IInc(2, 1),
                    Op::AConst(0),
                    Op::MonitorExit,
                    Op::AConst(0),
                    Op::MonitorExit,
                    Op::AConst(0),
                    Op::MonitorExit,
                ],
            ),
        }
    }

    /// Expected return value of `main(iters)` — the iteration count.
    pub fn expected(self, iters: i32) -> i32 {
        iters
    }

    /// For the threaded benchmark, the thread count; 1 otherwise.
    pub fn thread_count(self) -> u32 {
        match self {
            MicroBench::Threads(n) => n.max(1),
            _ => 1,
        }
    }
}

impl fmt::Display for MicroBench {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MicroBench::NoSync => f.write_str("NoSync"),
            MicroBench::Sync => f.write_str("Sync"),
            MicroBench::NestedSync => f.write_str("NestedSync"),
            MicroBench::MultiSync(n) => write!(f, "MultiSync {n}"),
            MicroBench::Call => f.write_str("Call"),
            MicroBench::CallSync => f.write_str("CallSync"),
            MicroBench::NestedCallSync => f.write_str("NestedCallSync"),
            MicroBench::Threads(n) => write!(f, "Threads {n}"),
            MicroBench::MixedSync => f.write_str("MixedSync"),
        }
    }
}

/// `name(iters)`: the canonical tight loop with `body` between the bounds
/// check and the induction increment. Locals: 0 = iters, 1 = i,
/// 2 = counter. Returns the iteration count.
fn looped_method(name: &str, body: Vec<Op>) -> Method {
    let mut code = vec![
        Op::IConst(0),   // 0
        Op::IStore(1),   // 1: i = 0
        Op::IConst(0),   // 2
        Op::IStore(2),   // 3: counter = 0
        Op::ILoad(1),    // 4: loop head
        Op::ILoad(0),    // 5
        Op::IfICmpGe(0), // 6: patched to END below
    ];
    code.extend(body);
    let back_edge = code.len();
    code.push(Op::IInc(1, 1)); // back_edge
    code.push(Op::Goto(4));
    let end = code.len();
    code[6] = Op::IfICmpGe(end);
    code.push(Op::ILoad(1));
    code.push(Op::IReturn);
    debug_assert!(back_edge > 6);

    Method::new(
        name,
        1,
        3,
        MethodFlags {
            synchronized: false,
            returns_value: true,
        },
        code,
    )
}

/// A one-method program whose `main` is [`looped_method`].
fn looped_program(pool: u32, body: Vec<Op>) -> Program {
    let mut program = Program::new(pool);
    program.add_method(looped_method("main", body));
    program
}

/// Like [`looped_program`] but the whole loop runs inside
/// `synchronized(pool[0]) { ... }` — the `NestedSync` shape.
fn wrapped_looped_program(pool: u32, body: Vec<Op>) -> Program {
    let mut code = vec![
        Op::AConst(0),
        Op::MonitorEnter,
        Op::IConst(0),   // 2
        Op::IStore(1),   // 3: i = 0
        Op::IConst(0),   // 4
        Op::IStore(2),   // 5: counter = 0
        Op::ILoad(1),    // 6: loop head
        Op::ILoad(0),    // 7
        Op::IfICmpGe(0), // 8: patched
    ];
    code.extend(body);
    code.push(Op::IInc(1, 1));
    code.push(Op::Goto(6));
    let end = code.len();
    code[8] = Op::IfICmpGe(end);
    code.push(Op::AConst(0));
    code.push(Op::MonitorExit);
    code.push(Op::ILoad(1));
    code.push(Op::IReturn);

    let mut program = Program::new(pool);
    program.add_method(Method::new(
        "main",
        1,
        3,
        MethodFlags {
            synchronized: false,
            returns_value: true,
        },
        code,
    ));
    program
}

/// The `Call`/`CallSync`/`NestedCallSync` programs: the loop body invokes
/// `bump(pool[0])`, which increments the object's field 0. `sync` makes
/// `bump` synchronized; `hold` wraps the whole loop in
/// `synchronized(pool[0])` so every call-site lock is nested.
fn call_program(sync: bool, hold: bool) -> Program {
    let mut program = Program::new(1);

    // Placeholder id 0 is main; bump becomes id 1 after both adds. Build
    // bump first to learn its id, then main referencing it.
    let bump = Method::new(
        "bump",
        1,
        1,
        MethodFlags {
            synchronized: sync,
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
    );

    let body = |bump_id: u16| vec![Op::AConst(0), Op::Invoke(bump_id)];

    // main is id 0 by convention (added first).
    let main_flags = MethodFlags {
        synchronized: false,
        returns_value: true,
    };
    let bump_id: u16 = 1;
    let mut code;
    if hold {
        code = vec![
            Op::AConst(0),
            Op::MonitorEnter,
            Op::IConst(0),
            Op::IStore(1),
            Op::ILoad(1), // 4: loop
            Op::ILoad(0),
            Op::IfICmpGe(0), // 6: patched
        ];
        code.extend(body(bump_id));
        code.push(Op::IInc(1, 1));
        code.push(Op::Goto(4));
        let end = code.len();
        code[6] = Op::IfICmpGe(end);
        code.push(Op::AConst(0));
        code.push(Op::MonitorExit);
        code.push(Op::ILoad(1));
        code.push(Op::IReturn);
    } else {
        code = vec![
            Op::IConst(0),
            Op::IStore(1),
            Op::ILoad(1), // 2: loop
            Op::ILoad(0),
            Op::IfICmpGe(0), // 4: patched
        ];
        code.extend(body(bump_id));
        code.push(Op::IInc(1, 1));
        code.push(Op::Goto(2));
        let end = code.len();
        code[4] = Op::IfICmpGe(end);
        code.push(Op::ILoad(1));
        code.push(Op::IReturn);
    }
    program.add_method(Method::new("main", 1, 2, main_flags, code));
    let actual_bump_id = program.add_method(bump);
    debug_assert_eq!(actual_bump_id, bump_id);
    program
}

/// A classic lock-order inversion: `left` acquires `pool[0]` then
/// `pool[1]`, `right` acquires them in the opposite order. Two threads
/// interleaving `left` and `right` can deadlock; `lockcheck`'s
/// lock-order pass must flag the `0 <-> 1` cycle. Single-threaded
/// execution is safe, so the program still runs under the dynamic
/// oracle: `main(iters)` calls both once and returns `iters`.
pub fn deadlock_pair() -> Program {
    let ordered = |first: u32, second: u32| {
        vec![
            Op::AConst(first),
            Op::MonitorEnter,
            Op::AConst(second),
            Op::MonitorEnter,
            Op::AConst(second),
            Op::MonitorExit,
            Op::AConst(first),
            Op::MonitorExit,
            Op::Return,
        ]
    };
    let mut program = Program::new(2);
    program.add_method(Method::new(
        "main",
        1,
        1,
        MethodFlags {
            synchronized: false,
            returns_value: true,
        },
        vec![Op::Invoke(1), Op::Invoke(2), Op::ILoad(0), Op::IReturn],
    ));
    program.add_method(Method::new(
        "left",
        0,
        0,
        MethodFlags::default(),
        ordered(0, 1),
    ));
    program.add_method(Method::new(
        "right",
        0,
        0,
        MethodFlags::default(),
        ordered(1, 0),
    ));
    program
}

/// `main(n)` recurses `n` levels deep, re-locking `pool[0]` at every
/// level — nest depth equals the argument, so no static finite bound
/// exists. With `n > 256` the thin-lock count field overflows and forces
/// inflation mid-critical-section; `lockcheck`'s nest-depth pass must
/// report `pool[0]` as unbounded and emit a pre-inflation hint.
pub fn deep_nest() -> Program {
    let mut program = Program::new(1);
    program.add_method(Method::new(
        "main",
        1,
        1,
        MethodFlags {
            synchronized: false,
            returns_value: true,
        },
        vec![Op::ILoad(0), Op::Invoke(1), Op::ILoad(0), Op::IReturn],
    ));
    program.add_method(Method::new(
        "rec",
        1,
        1,
        MethodFlags::default(),
        vec![
            Op::ILoad(0),     // 0
            Op::IfEq(10),     // 1: n == 0 -> return
            Op::AConst(0),    // 2
            Op::MonitorEnter, // 3
            Op::ILoad(0),     // 4
            Op::IConst(1),    // 5
            Op::ISub,         // 6
            Op::Invoke(1),    // 7: rec(n - 1) while holding pool[0]
            Op::AConst(0),    // 8
            Op::MonitorExit,  // 9
            Op::Return,       // 10
        ],
    ));
    program
}

/// A `monitorexit` with no matching `monitorenter` on any path — the
/// unbalanced-lock seed `lockcheck` must diagnose at pc 1. Passes the
/// base verifier with structured locking disabled (types are fine).
pub fn unbalanced_exit() -> Program {
    let mut program = Program::new(1);
    program.add_method(Method::new(
        "main",
        1,
        1,
        MethodFlags {
            synchronized: false,
            returns_value: true,
        },
        vec![Op::AConst(0), Op::MonitorExit, Op::ILoad(0), Op::IReturn],
    ));
    program
}

/// Balanced lock counts but scrambled identity: acquires `pool[0]` then
/// `pool[1]` and releases them outermost-first. The verifier's depth
/// counter cannot see this; the symbolic lock-stack pass must flag the
/// non-LIFO release at pc 5.
pub fn non_lifo_pair() -> Program {
    let mut program = Program::new(2);
    program.add_method(Method::new(
        "main",
        1,
        1,
        MethodFlags {
            synchronized: false,
            returns_value: true,
        },
        vec![
            Op::AConst(0),    // 0
            Op::MonitorEnter, // 1
            Op::AConst(1),    // 2
            Op::MonitorEnter, // 3
            Op::AConst(0),    // 4
            Op::MonitorExit,  // 5: releases the outer lock first
            Op::AConst(1),    // 6
            Op::MonitorExit,  // 7
            Op::ILoad(0),     // 8
            Op::IReturn,      // 9
        ],
    ));
    program
}

/// One worker kind of a [`ConcurrentProgram`]: `threads` threads each
/// run the named entry method concurrently over the shared pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadRole {
    /// Entry method name (each role method takes the iteration count).
    pub method: &'static str,
    /// Number of threads running this role.
    pub threads: u32,
}

/// A seeded concurrent program with its harness contract: which methods
/// run on how many threads, and whether the program contains a data
/// race by construction. The race detectors (static `lockcheck` guards
/// pass and the dynamic Eraser sanitizer) are tested against exactly
/// these ground-truth labels.
///
/// Every racy program has at least two threads whose accesses to the
/// racy field hold *no* lock, so a lockset (Eraser) sanitizer reports
/// it under any thread schedule — the verdict is schedule-independent,
/// not a lucky interleaving.
#[derive(Debug)]
pub struct ConcurrentProgram {
    /// Stable program name, used in reports and bench output.
    pub name: &'static str,
    /// The bytecode.
    pub program: Program,
    /// The worker roles the harness runs.
    pub roles: Vec<ThreadRole>,
    /// Fields per heap object the program touches.
    pub fields: u16,
    /// True when the program contains a seeded data race.
    pub racy: bool,
    /// The `(pool, field)` pairs expected to race (empty when clean).
    pub racy_fields: Vec<(u32, u16)>,
    /// Ground-truth contention shape per pool site, as
    /// `(pool, shape-name)` with the stable lowercase names of the
    /// `lockcheck` contention pass (`"thread-local"`, `"uncontended"`,
    /// `"hot-mutex"`, `"wait-heavy"`, `"churn"`). Labels are plain
    /// strings so this crate stays independent of `thinlock-analysis`;
    /// the static pass is tested against exactly these labels, the same
    /// way the race detectors are tested against `racy_fields`.
    pub expected_shapes: Vec<(u32, &'static str)>,
}

impl ConcurrentProgram {
    /// Total worker threads across all roles.
    pub fn total_threads(&self) -> u32 {
        self.roles.iter().map(|r| r.threads).sum()
    }
}

/// `synchronized(pool[lock]) { pool[obj].f(field)++ }`.
fn guarded_inc(lock: u32, obj: u32, field: u16) -> Vec<Op> {
    vec![
        Op::AConst(lock),
        Op::MonitorEnter,
        Op::AConst(obj),
        Op::AConst(obj),
        Op::GetField(field),
        Op::IConst(1),
        Op::IAdd,
        Op::PutField(field),
        Op::AConst(lock),
        Op::MonitorExit,
    ]
}

/// `pool[obj].f(field)++` with no lock.
fn bare_inc(obj: u32, field: u16) -> Vec<Op> {
    vec![
        Op::AConst(obj),
        Op::AConst(obj),
        Op::GetField(field),
        Op::IConst(1),
        Op::IAdd,
        Op::PutField(field),
    ]
}

/// The increment through `GetFieldDyn`/`PutFieldDyn` with a constant
/// index operand, optionally under `pool[lock]` — exercises the dynamic
/// field forms' constant-index precision in the static passes.
fn dyn_inc(lock: Option<u32>, obj: u32, field: i32) -> Vec<Op> {
    let mut body = Vec::new();
    if let Some(l) = lock {
        body.extend([Op::AConst(l), Op::MonitorEnter]);
    }
    body.extend([
        Op::AConst(obj),   // put receiver
        Op::IConst(field), // put index
        Op::AConst(obj),
        Op::IConst(field),
        Op::GetFieldDyn,
        Op::IConst(1),
        Op::IAdd,
        Op::PutFieldDyn,
    ]);
    if let Some(l) = lock {
        body.extend([Op::AConst(l), Op::MonitorExit]);
    }
    body
}

/// `synchronized(pool[0]) { read pool[0].f0 }`.
fn guarded_read() -> Vec<Op> {
    vec![
        Op::AConst(0),
        Op::MonitorEnter,
        Op::AConst(0),
        Op::GetField(0),
        Op::Pop,
        Op::AConst(0),
        Op::MonitorExit,
    ]
}

/// The seeded concurrent program library: four statically race-free
/// programs and three with a data race by construction. Ground truth
/// for both race detectors.
pub fn concurrent_library() -> Vec<ConcurrentProgram> {
    let worker2 = |method| vec![ThreadRole { method, threads: 2 }];
    let mut library = Vec::new();

    // Clean: every access of pool[0].f0 holds pool[0].
    library.push(ConcurrentProgram {
        name: "guarded-counter",
        program: looped_program(1, guarded_inc(0, 0, 0)),
        roles: worker2("main"),
        fields: 1,
        racy: false,
        racy_fields: Vec::new(),
        expected_shapes: vec![(0, "hot-mutex")],
    });

    // Clean: same discipline through the dynamic field forms.
    library.push(ConcurrentProgram {
        name: "guarded-dyn-counter",
        program: looped_program(1, dyn_inc(Some(0), 0, 0)),
        roles: worker2("main"),
        fields: 1,
        racy: false,
        racy_fields: Vec::new(),
        expected_shapes: vec![(0, "hot-mutex")],
    });

    // Clean: one writer, two readers, all under pool[0].
    let mut read_mostly = Program::new(1);
    read_mostly.add_method(looped_method("writer", guarded_inc(0, 0, 0)));
    read_mostly.add_method(looped_method("reader", guarded_read()));
    library.push(ConcurrentProgram {
        name: "read-mostly",
        program: read_mostly,
        roles: vec![
            ThreadRole {
                method: "writer",
                threads: 1,
            },
            ThreadRole {
                method: "reader",
                threads: 2,
            },
        ],
        fields: 1,
        racy: false,
        racy_fields: Vec::new(),
        expected_shapes: vec![(0, "hot-mutex")],
    });

    // Clean: pool[1] guards pool[0].f0, pool[0] guards pool[0].f1 — the
    // guard need not be the object it protects.
    let mut two_locks = guarded_inc(1, 0, 0);
    two_locks.extend(guarded_inc(0, 0, 1));
    library.push(ConcurrentProgram {
        name: "two-locks-two-fields",
        program: looped_program(2, two_locks),
        roles: worker2("main"),
        fields: 2,
        racy: false,
        racy_fields: Vec::new(),
        expected_shapes: vec![(0, "hot-mutex"), (1, "hot-mutex")],
    });

    // Racy: two threads increment pool[0].f0 with no lock at all.
    library.push(ConcurrentProgram {
        name: "racy-counter",
        program: looped_program(1, bare_inc(0, 0)),
        roles: worker2("main"),
        fields: 1,
        racy: true,
        racy_fields: vec![(0, 0)],
        expected_shapes: vec![(0, "uncontended")],
    });

    // Racy: the same unguarded increment through the dynamic forms.
    library.push(ConcurrentProgram {
        name: "racy-dyn-counter",
        program: looped_program(1, dyn_inc(None, 0, 0)),
        roles: worker2("main"),
        fields: 1,
        racy: true,
        racy_fields: vec![(0, 0)],
        expected_shapes: vec![(0, "uncontended")],
    });

    // Racy: one disciplined writer plus two bare writers — the per-field
    // lockset intersection is empty even though one role locks.
    let mut partial = Program::new(1);
    partial.add_method(looped_method("locked", guarded_inc(0, 0, 0)));
    partial.add_method(looped_method("bare", bare_inc(0, 0)));
    library.push(ConcurrentProgram {
        name: "racy-partial-guard",
        program: partial,
        roles: vec![
            ThreadRole {
                method: "locked",
                threads: 1,
            },
            ThreadRole {
                method: "bare",
                threads: 2,
            },
        ],
        fields: 1,
        racy: true,
        racy_fields: vec![(0, 0)],
        expected_shapes: vec![(0, "uncontended")],
    });

    // Clean, hot: four threads hammer one guarded counter — the
    // canonical hot single-object mutex (the fairness workload's
    // shape). Statically distinguishable from `guarded-counter` only
    // by its thread count.
    library.push(ConcurrentProgram {
        name: "hot-object",
        program: looped_program(1, guarded_inc(0, 0, 0)),
        roles: vec![ThreadRole {
            method: "main",
            threads: 4,
        }],
        fields: 1,
        racy: false,
        racy_fields: Vec::new(),
        expected_shapes: vec![(0, "hot-mutex")],
    });

    // Clean, churning: each iteration locks a *rotating* pool object
    // (`pool[i % 4]`, through `aloadpool` with a loop-varying index)
    // and bumps a field on the locked object itself. No single site is
    // hot, but the monitor population cycles — the deflation story.
    // Race-free: every access of pool[p].f0 holds pool[p]'s own lock.
    library.push(ConcurrentProgram {
        name: "churn-locks",
        program: churn_program(4),
        roles: worker2("main"),
        fields: 1,
        racy: false,
        racy_fields: Vec::new(),
        expected_shapes: vec![(0, "churn"), (1, "churn"), (2, "churn"), (3, "churn")],
    });

    // Clean, wait-heavy: one producer bumps pool[0].f0 and notifies;
    // two consumers wait on pool[0] and read the field, all under
    // pool[0]'s monitor. Parking is part of the protocol, so the site
    // should be fat before the first waiter arrives.
    let mut pipeline = Program::new(1);
    pipeline.add_method(looped_method(
        "producer",
        vec![
            Op::AConst(0),
            Op::MonitorEnter,
            Op::AConst(0),
            Op::AConst(0),
            Op::GetField(0),
            Op::IConst(1),
            Op::IAdd,
            Op::PutField(0),
            Op::AConst(0),
            Op::Notify,
            Op::AConst(0),
            Op::MonitorExit,
        ],
    ));
    pipeline.add_method(looped_method(
        "consumer",
        vec![
            Op::AConst(0),
            Op::MonitorEnter,
            Op::AConst(0),
            Op::Wait,
            Op::AConst(0),
            Op::GetField(0),
            Op::Pop,
            Op::AConst(0),
            Op::MonitorExit,
        ],
    ));
    library.push(ConcurrentProgram {
        name: "wait-pipeline",
        program: pipeline,
        roles: vec![
            ThreadRole {
                method: "producer",
                threads: 1,
            },
            ThreadRole {
                method: "consumer",
                threads: 2,
            },
        ],
        fields: 1,
        racy: false,
        racy_fields: Vec::new(),
        expected_shapes: vec![(0, "wait-heavy")],
    });

    library
}

/// `main(iters)`: lock `pool[i % locks]` each iteration and bump a
/// field on the locked object. Every lock identity is dynamic
/// (`aloadpool` with a loop-varying index), so the lock *population*
/// churns while no single site gets hot. Locals: 0 = iters, 1 = i,
/// 3 = the iteration's lock object.
fn churn_program(locks: u32) -> Program {
    let locks_i32 = i32::try_from(locks).expect("small lock count");
    let code = vec![
        Op::IConst(0),         // 0
        Op::IStore(1),         // 1: i = 0
        Op::ILoad(1),          // 2: loop head
        Op::ILoad(0),          // 3
        Op::IfICmpGe(22),      // 4: -> END
        Op::ILoad(1),          // 5
        Op::IConst(locks_i32), // 6
        Op::IRem,              // 7
        Op::ALoadPool,         // 8: pool[i % locks]
        Op::AStore(3),         // 9
        Op::ALoad(3),          // 10
        Op::MonitorEnter,      // 11
        Op::ALoad(3),          // 12
        Op::ALoad(3),          // 13
        Op::GetField(0),       // 14
        Op::IConst(1),         // 15
        Op::IAdd,              // 16
        Op::PutField(0),       // 17
        Op::ALoad(3),          // 18
        Op::MonitorExit,       // 19
        Op::IInc(1, 1),        // 20
        Op::Goto(2),           // 21
        Op::ILoad(1),          // 22: END
        Op::IReturn,           // 23
    ];
    let mut program = Program::new(locks);
    program.add_method(Method::new(
        "main",
        1,
        4,
        MethodFlags {
            synchronized: false,
            returns_value: true,
        },
        code,
    ));
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Vm;
    use crate::value::Value;
    use std::sync::Arc;
    use thinlock::ThinLocks;
    use thinlock_runtime::backend::SyncBackend;
    use thinlock_runtime::heap::{Heap, ObjRef};
    use thinlock_runtime::protocol::SyncProtocol;
    use thinlock_runtime::registry::ThreadRegistry;

    fn run_bench(bench: MicroBench, iters: i32) -> (i32, ThinLocks, Vec<ObjRef>) {
        let pool_size = bench.pool_size() as usize;
        let heap = Arc::new(Heap::with_capacity_and_fields(pool_size + 1, 1));
        let locks = ThinLocks::new(heap, ThreadRegistry::new());
        let pool: Vec<ObjRef> = (0..pool_size)
            .map(|_| locks.heap().alloc().unwrap())
            .collect();
        let program = bench.program();
        program
            .validate()
            .expect("generated program is well-formed");
        let reg = locks.registry().register().unwrap();
        let out = {
            let vm = Vm::new(&locks, &program, pool.clone()).unwrap();
            vm.run("main", reg.token(), &[Value::Int(iters)])
                .unwrap()
                .and_then(Value::as_int)
                .unwrap()
        };
        (out, locks, pool)
    }

    #[test]
    fn every_generated_program_validates() {
        let all = [
            MicroBench::NoSync,
            MicroBench::Sync,
            MicroBench::NestedSync,
            MicroBench::MultiSync(1),
            MicroBench::MultiSync(64),
            MicroBench::MultiSync(1024),
            MicroBench::Call,
            MicroBench::CallSync,
            MicroBench::NestedCallSync,
            MicroBench::Threads(8),
            MicroBench::MixedSync,
        ];
        for b in all {
            b.program()
                .validate()
                .unwrap_or_else(|e| panic!("{b}: {e}"));
        }
    }

    #[test]
    fn no_sync_counts_iterations() {
        let (out, locks, _) = run_bench(MicroBench::NoSync, 500);
        assert_eq!(out, 500);
        assert_eq!(locks.inflation_count(), 0);
    }

    #[test]
    fn sync_locks_and_releases_each_iteration() {
        let (out, locks, pool) = run_bench(MicroBench::Sync, 200);
        assert_eq!(out, 200);
        assert!(locks.lock_word(pool[0]).is_unlocked());
        assert_eq!(locks.inflation_count(), 0, "single thread: stays thin");
    }

    #[test]
    fn nested_sync_nests_within_outer_lock() {
        let (out, locks, pool) = run_bench(MicroBench::NestedSync, 200);
        assert_eq!(out, 200);
        assert!(locks.lock_word(pool[0]).is_unlocked());
        assert_eq!(
            locks.inflation_count(),
            0,
            "nesting depth 2 never overflows the count"
        );
    }

    #[test]
    fn multi_sync_touches_every_object() {
        let n = 16;
        let (out, locks, pool) = run_bench(MicroBench::MultiSync(n), 50);
        assert_eq!(out, 50);
        assert_eq!(pool.len(), n as usize);
        for o in pool {
            assert!(locks.lock_word(o).is_unlocked());
        }
    }

    #[test]
    fn call_benchmarks_update_the_field() {
        for bench in [
            MicroBench::Call,
            MicroBench::CallSync,
            MicroBench::NestedCallSync,
        ] {
            let (out, locks, pool) = run_bench(bench, 100);
            assert_eq!(out, 100, "{bench}");
            let field = locks
                .heap()
                .field(pool[0], 0)
                .load(std::sync::atomic::Ordering::Relaxed);
            assert_eq!(field, 100, "{bench}: bump ran once per iteration");
            assert!(locks.lock_word(pool[0]).is_unlocked(), "{bench}");
        }
    }

    #[test]
    fn mixed_sync_three_nested_locks() {
        let (out, locks, pool) = run_bench(MicroBench::MixedSync, 100);
        assert_eq!(out, 100);
        assert!(locks.lock_word(pool[0]).is_unlocked());
        assert_eq!(locks.inflation_count(), 0, "depth 3 stays thin");
    }

    #[test]
    fn threads_program_is_shared_safely() {
        let bench = MicroBench::Threads(4);
        let heap = Arc::new(Heap::with_capacity(2));
        let locks = Arc::new(ThinLocks::new(heap, ThreadRegistry::new()));
        let pool = vec![locks.heap().alloc().unwrap()];
        let program = Arc::new(bench.program());
        let mut handles = Vec::new();
        for _ in 0..bench.thread_count() {
            let locks = Arc::clone(&locks);
            let program = Arc::clone(&program);
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                let reg = locks.registry().register().unwrap();
                let vm = Vm::new(&*locks, &program, pool).unwrap();
                vm.run("main", reg.token(), &[Value::Int(200)])
                    .unwrap()
                    .and_then(Value::as_int)
                    .unwrap()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 200);
        }
        // The shared object's lock must be fully released at the end.
        let reg = locks.registry().register().unwrap();
        assert!(!locks.holds_lock(pool[0], reg.token()));
    }

    #[test]
    fn concurrent_library_programs_validate_and_run() {
        let library = concurrent_library();
        assert_eq!(library.len(), 10);
        for entry in &library {
            entry
                .program
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            assert!(entry.total_threads() >= 2, "{}", entry.name);
            assert_eq!(entry.racy, !entry.racy_fields.is_empty(), "{}", entry.name);
            // Each role method runs single-threaded to completion.
            let pool_size = entry.program.pool_size() as usize;
            let heap = Arc::new(Heap::with_capacity_and_fields(
                pool_size + 1,
                usize::from(entry.fields),
            ));
            let locks = ThinLocks::new(heap, ThreadRegistry::new());
            let pool: Vec<ObjRef> = (0..pool_size)
                .map(|_| locks.heap().alloc().unwrap())
                .collect();
            let reg = locks.registry().register().unwrap();
            for role in &entry.roles {
                let vm = Vm::new(&locks, &entry.program, pool.clone()).unwrap();
                let out = vm
                    .run(role.method, reg.token(), &[Value::Int(25)])
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", entry.name, role.method))
                    .and_then(Value::as_int)
                    .unwrap();
                assert_eq!(out, 25, "{}/{}", entry.name, role.method);
            }
            for o in &pool {
                // `wait` inflates under the one-way thin backend, so
                // check ownership, not the thin word shape.
                assert!(locks.owner_of(*o).is_none(), "{}", entry.name);
            }
        }
    }

    #[test]
    fn concurrent_library_counters_add_up_under_contention() {
        // The guarded counter is exact under real concurrency: 2 threads
        // x 100 guarded increments must land on 200.
        let entry = concurrent_library()
            .into_iter()
            .find(|e| e.name == "guarded-counter")
            .unwrap();
        let heap = Arc::new(Heap::with_capacity_and_fields(2, 1));
        let locks = Arc::new(ThinLocks::new(heap, ThreadRegistry::new()));
        let pool = vec![locks.heap().alloc().unwrap()];
        let program = Arc::new(entry.program);
        let mut handles = Vec::new();
        for _ in 0..2 {
            let locks = Arc::clone(&locks);
            let program = Arc::clone(&program);
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                let reg = locks.registry().register().unwrap();
                let vm = Vm::new(&*locks, &program, pool).unwrap();
                vm.run("main", reg.token(), &[Value::Int(100)]).unwrap()
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let field = locks
            .heap()
            .field(pool[0], 0)
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(field, 200);
    }

    #[test]
    fn table2_listing_and_names() {
        let names: Vec<String> = MicroBench::table2().iter().map(|b| b.to_string()).collect();
        assert_eq!(
            names,
            vec![
                "NoSync",
                "Sync",
                "NestedSync",
                "MultiSync 64",
                "Call",
                "CallSync",
                "NestedCallSync",
                "Threads 4"
            ]
        );
        assert_eq!(MicroBench::Threads(4).thread_count(), 4);
        assert_eq!(MicroBench::Sync.thread_count(), 1);
        assert_eq!(MicroBench::Sync.expected(7), 7);
    }
}
