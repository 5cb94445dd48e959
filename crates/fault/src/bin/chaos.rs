//! Command-line driver for the seeded chaos sweep.
//!
//! ```text
//! chaos [--backend B] [--seeds N] [--start S] [--threads T] [--objects O]
//!       [--ops K] [--rate-ppm R] [--kill-every M] [SEED ...]
//! ```
//!
//! With positional seeds, runs exactly those schedules; otherwise
//! sweeps `S .. S+N`. `--backend` picks the protocol under test
//! (`thin` by default, `cjm` for the deflating bounded-table backend,
//! `fissile`/`hapax` for the FIFO ticket queues); every backend gets the
//! monitor-population bound checked at every convergence. Every run is
//! checked against
//! the std-Mutex oracle; the first divergence is printed with its seed
//! (which replays it) and the process exits nonzero. `scripts/chaos.sh`
//! runs the fixed sweep that gates the repo.

use std::process::ExitCode;

use thinlock::BackendChoice;
use thinlock_fault::{run_schedule, ChaosConfig, ChaosTotals};
use thinlock_runtime::fault::InjectionPoint;

struct Options {
    seeds: Vec<u64>,
    threads: usize,
    objects: usize,
    ops: usize,
    rate_ppm: u32,
    kill_every: u64,
    backend: BackendChoice,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        seeds: Vec::new(),
        threads: 3,
        objects: 4,
        ops: 28,
        rate_ppm: 200_000,
        kill_every: 4,
        backend: BackendChoice::Thin,
    };
    let mut count: u64 = 256;
    let mut start: u64 = 0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag = |name: &str| -> Result<Option<String>, String> {
            if arg == name {
                it.next()
                    .cloned()
                    .map(Some)
                    .ok_or_else(|| format!("{name} requires a value"))
            } else {
                Ok(None)
            }
        };
        if let Some(v) = flag("--seeds")? {
            count = v.parse().map_err(|e| format!("--seeds: {e}"))?;
        } else if let Some(v) = flag("--start")? {
            start = v.parse().map_err(|e| format!("--start: {e}"))?;
        } else if let Some(v) = flag("--threads")? {
            opts.threads = v.parse().map_err(|e| format!("--threads: {e}"))?;
        } else if let Some(v) = flag("--objects")? {
            opts.objects = v.parse().map_err(|e| format!("--objects: {e}"))?;
        } else if let Some(v) = flag("--ops")? {
            opts.ops = v.parse().map_err(|e| format!("--ops: {e}"))?;
        } else if let Some(v) = flag("--rate-ppm")? {
            opts.rate_ppm = v.parse().map_err(|e| format!("--rate-ppm: {e}"))?;
        } else if let Some(v) = flag("--kill-every")? {
            opts.kill_every = v.parse().map_err(|e| format!("--kill-every: {e}"))?;
        } else if let Some(v) = flag("--backend")? {
            match BackendChoice::from_name(&v) {
                Some(choice) => opts.backend = choice,
                None => return Err(format!("--backend: unknown backend `{v}`")),
            }
        } else if arg == "--help" || arg == "-h" {
            return Err("usage".to_string());
        } else if let Ok(seed) = arg.parse::<u64>() {
            opts.seeds.push(seed);
        } else {
            return Err(format!("unrecognized argument: {arg}"));
        }
    }
    if opts.seeds.is_empty() {
        opts.seeds = (start..start.saturating_add(count)).collect();
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: chaos [--backend <thin|cjm|fissile|hapax>] [--seeds N] [--start S] [--threads T] \
                 [--objects O] [--ops K] [--rate-ppm R] [--kill-every M] [SEED ...]"
            );
            return ExitCode::FAILURE;
        }
    };

    let mut totals = ChaosTotals::default();
    for &seed in &opts.seeds {
        let cfg = ChaosConfig {
            seed,
            threads: opts.threads,
            objects: opts.objects,
            ops_per_thread: opts.ops,
            fault_rate_ppm: opts.rate_ppm,
            kill_thread: opts.kill_every != 0 && seed % opts.kill_every == 0,
            backend: opts.backend,
            abort_at: None,
        };
        match run_schedule(cfg) {
            Ok(report) => totals.absorb(&report),
            Err(msg) => {
                eprintln!("DIVERGENCE: {msg}");
                eprintln!("replay with: chaos --backend {} --threads {} --objects {} --ops {} --rate-ppm {} --kill-every {} {seed}",
                    opts.backend, opts.threads, opts.objects, opts.ops, opts.rate_ppm, opts.kill_every);
                return ExitCode::FAILURE;
            }
        }
    }

    let r = &totals.report;
    println!(
        "chaos[{}]: {} schedules converged ({} ops, {} acquisitions, {} try-contended, {} timeouts, {} waits ({} refused), orphan runs: {})",
        opts.backend, totals.runs, r.ops, r.acquisitions, r.try_contended, r.timeouts, r.waits, r.waits_refused, r.orphaned
    );
    if opts.backend.deflation_capable() {
        println!(
            "monitor population: {} inflations, {} deflations, peak {} (bound {}), live at exit {}",
            r.inflations, r.deflations, r.monitors_peak, opts.objects, r.monitors_live
        );
    }
    println!("injected faults: {} total", r.total_fires());
    for point in InjectionPoint::ALL {
        println!("  {:<18} {:>8}", point.name(), r.fires[point.index()]);
    }
    let unfired = totals.unfired_points();
    if !unfired.is_empty() {
        let names: Vec<&str> = unfired.iter().map(|p| p.name()).collect();
        println!("note: points never fired this sweep: {}", names.join(", "));
    }
    ExitCode::SUCCESS
}
