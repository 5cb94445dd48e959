//! One program that drives the four thin-word backends (`thin`, `cjm`,
//! `fissile`, `hapax`) through three closed-loop workloads, interleaving
//! the backends round-robin in short slices, and reports the metrics named
//! in `BENCHMARK.json`. See `README.md` in this directory.

pub mod backends;
pub mod churn;
pub mod contended;
pub mod hist;
pub mod inputs;
pub mod library;
pub mod report;
pub mod run;
pub mod spans;

use run::{Config, Measured, Workload};

/// Runs one workload as `config` says.
pub fn run(config: Config) -> Measured {
    let seed = config.seed;
    match config.workload {
        Workload::Library => run::measure(&library::Library { seed }, config),
        Workload::Contended => run::measure(&contended::Contended { seed }, config),
        Workload::Churn => run::measure(&churn::Churn { seed }, config),
    }
}
