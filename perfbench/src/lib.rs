//! The LBRM benchmark: four workloads, end-to-end metrics from untraced
//! runs and per-layer attribution from traced runs.
//!
//! See `perfbench/README.md` for the workloads, the metric map and the
//! baseline figures. The binary (`src/main.rs`) is the command line;
//! this library holds the workloads so the benchmark's own tests can
//! drive them.

pub mod alloc;
pub mod doctor;
pub mod report;
pub mod sim;
pub mod span;
pub mod udp;
pub mod wrap;

use std::time::Duration;

/// Every allocation in a binary linking this crate is counted.
#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// One run's options.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long to keep taking samples.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Take a single sample and stop.
    pub smoke: bool,
}

/// Runs one workload.
///
/// # Errors
///
/// When the workload cannot run as specified (unknown name, loopback
/// multicast unavailable); the caller prints no result.
pub fn run_workload(workload: &str, opts: &Opts) -> Result<report::Report, String> {
    let mut rep = match workload {
        "sim_dis_steady" | "sim_dis_storm" => {
            sim::run(opts, &sim::Shape::named(workload).expect("sim workload"))
        }
        "udp_loopback" => udp::run(opts)?,
        "doctor_replay" => doctor::run(opts),
        _ => {
            return Err(format!(
                "unknown workload {workload:?}; known: {:?}",
                report::WORKLOADS
            ))
        }
    };
    rep.finish(workload, opts.trace);
    Ok(rep)
}
