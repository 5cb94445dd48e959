//! The paper's motivating example, run end-to-end inside the bytecode VM:
//! a single-threaded program hammering a synchronized `Vector` — the
//! "javalex" scenario — under all four locking implementations.
//!
//! Run with `cargo run --release --example library_tax`.
//!
//! Unlike `vector_workload` (which drives the protocols from Rust), this
//! example executes *bytecode*: the synchronized `addElement`/`elementAt`
//! methods of `thinlock_vm::library`, interpreted exactly like the
//! paper's JDK ran `javalex`'s million `Vector.elementAt` calls. The
//! measured gap is therefore the paper's Figure 4 `CallSync` gap applied
//! at macro scale.

use std::time::Instant;

use thinlock_bench::ProtocolKind;
use thinlock_runtime::heap::ObjRef;
use thinlock_vm::library::{javalex_expected, javalex_like, JAVALEX_SCAN_PASSES};
use thinlock_vm::verify::{verify_program, VerifyOptions};
use thinlock_vm::{Value, Vm};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const ELEMENTS: i32 = 2_000;

    let program = javalex_like();
    verify_program(&program, VerifyOptions::default())?;
    let sync_calls = (1 + JAVALEX_SCAN_PASSES * 2) as i64 * ELEMENTS as i64;
    println!(
        "javalex-shaped workload: {ELEMENTS} adds + {JAVALEX_SCAN_PASSES} scan passes \
         ≈ {sync_calls} synchronized method calls, single-threaded\n"
    );

    let mut times = Vec::new();
    for kind in ProtocolKind::ALL_BACKENDS {
        // The Vector object needs ELEMENTS + 1 fields (size + elements).
        let protocol = kind.build(2, ELEMENTS as usize + 1);
        let pool: Vec<ObjRef> = vec![protocol.heap().alloc()?];
        let registration = protocol.registry().register()?;
        let vm = Vm::new(&*protocol, &program, pool)?;

        let start = Instant::now();
        let out = vm
            .run("main", registration.token(), &[Value::Int(ELEMENTS)])?
            .and_then(Value::as_int)
            .expect("main returns the checksum");
        let elapsed = start.elapsed();
        assert_eq!(out, javalex_expected(ELEMENTS), "checksum must match");

        println!("  {:<9} {:>10.2?}", kind.name(), elapsed);
        times.push((kind.name(), elapsed));
    }

    let thin = times[0].1;
    let jdk = times[1].1;
    println!(
        "\nthin locks vs monitor cache on the library tax: {:.2}x \
         (the paper measured 1.7x on the real javalex, whose runtime also \
         included lexer-generation work)",
        jdk.as_secs_f64() / thin.as_secs_f64()
    );
    Ok(())
}
