//! The sacrificial worker the crash-chaos supervisor spawns.
//!
//! ```text
//! chaos-agent [--backend B] [--seed S] [--threads T] [--objects O]
//!             [--ops K] [--rate-ppm R] [--kill-thread]
//!             [--abort-at POINT] [--artifact PATH] [--heartbeat-ms MS]
//! ```
//!
//! Runs one seeded chaos schedule while emitting single-line-JSON
//! heartbeats on stdout, writes the converged report atomically to
//! `--artifact`, and exits `0` (clean), `2` (oracle divergence), or by
//! `SIGABRT` when `--abort-at` arms a crash at an injection point. See
//! `thinlock_fault::agent` for the protocol and DESIGN.md §16 for the
//! methodology.

use std::process::ExitCode;

use thinlock_fault::agent::AgentConfig;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match AgentConfig::parse(&args) {
        Ok(cfg) => ExitCode::from(thinlock_fault::agent::run(&cfg)),
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: chaos-agent [--backend <thin|cjm|fissile|hapax>] [--seed S] [--threads T] \
                 [--objects O] [--ops K] [--rate-ppm R] [--kill-thread] [--abort-at POINT] \
                 [--artifact PATH] [--heartbeat-ms MS]"
            );
            ExitCode::FAILURE
        }
    }
}
