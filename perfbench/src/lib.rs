//! End-to-end and per-layer benchmark of the EXTRA/EXCESS engine.
//!
//! Each workload runs in its own process, drives the engine as a client
//! does, and checks every result against a model the generators keep of
//! the data they hand to the engine. An untraced run prints the
//! end-to-end metrics; a traced run (`--trace 1`) prints the per-layer
//! ones, measured from this package's own calls into each layer's
//! public functions and from deltas of the engine's metrics registry.
//! See README.md for the workloads, their sizes, and which layer metric
//! should move which end-to-end metric.

pub mod check;
pub mod layers;
pub mod oltp;
pub mod replica;
pub mod report;
pub mod rng;
pub mod scan;

use std::time::Duration;

use report::Report;

/// Set-ups per run; `setup_s` is the median of their user CPU times
/// (see [`report::user_cpu_ns`] for why not wall time).
pub const SETUPS: usize = 3;

/// Passes over the members in the traced run's member-resolution
/// timing; each figure is their median.
pub const RESOLVE_PASSES: usize = 5;

/// Cores available to this process: the number of client connections
/// and of query worker threads.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Whole-collection reads through an in-process session.
    ScanAnalytics,
    /// Short statements over EXOD/1 against a durable volume.
    OltpWire,
    /// Durable commits followed by an in-process replica.
    ReplicaFollow,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "scan_analytics" => Some(Workload::ScanAnalytics),
            "oltp_wire" => Some(Workload::OltpWire),
            "replica_follow" => Some(Workload::ReplicaFollow),
            _ => None,
        }
    }
}

/// Data sizes: the measured ones, or tiny ones for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures at.
    Full,
    /// Sizes small enough for the benchmark's own tests.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: Duration,
    /// Print the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Data sizes.
    pub size: Size,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    /// Runs parsed from the command line are at full size.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value"))
                    .cloned()
            };
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(
                        Workload::parse(&name).ok_or_else(|| format!("no workload '{name}'"))?,
                    );
                }
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds.is_finite() && seconds > 0.0) {
                        return Err("--seconds must be positive".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                    }
                }
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds: Duration::from_secs_f64(seconds),
            trace,
            size: Size::Full,
        })
    }
}

/// Run the workload `args` names.
pub fn run(args: &Args) -> Result<Report, String> {
    let tiny = args.size == Size::Tiny;
    match (args.workload, args.trace) {
        (Workload::ScanAnalytics, false) => {
            scan::run(args, if tiny { &scan::TINY } else { &scan::FULL })
        }
        (Workload::ScanAnalytics, true) => {
            scan::run_traced(args, if tiny { &scan::TINY } else { &scan::FULL })
        }
        (Workload::OltpWire, false) => {
            oltp::run(args, if tiny { &oltp::TINY } else { &oltp::FULL })
        }
        (Workload::OltpWire, true) => {
            oltp::run_traced(args, if tiny { &oltp::TINY } else { &oltp::FULL })
        }
        (Workload::ReplicaFollow, false) => {
            replica::run(args, if tiny { &replica::TINY } else { &replica::FULL })
        }
        (Workload::ReplicaFollow, true) => {
            replica::run_traced(args, if tiny { &replica::TINY } else { &replica::FULL })
        }
    }
}
