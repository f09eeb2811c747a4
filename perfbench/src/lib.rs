//! The repository benchmark: three workloads that load different layers
//! of the timing-model-generation toolchain, each reporting end-to-end
//! metrics from an untraced run and per-layer metrics from a traced one.
//! See `README.md` beside this crate.

pub mod fnload;
pub mod gen;
pub mod report;
pub mod service;
pub mod trace;

use report::Metrics;

/// What one run of a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: analyses or requests.
    pub attempted: u64,
    /// Operations that failed, were declined or gave a wrong answer.
    pub failed: u64,
    /// The first few violations, for the log.
    pub violations: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    /// A run that could not get as far as its measured loop.
    pub fn failed(violations: Vec<String>) -> Outcome {
        Outcome {
            attempted: 1,
            failed: 1,
            violations,
            metrics: Metrics::default(),
        }
    }
}

/// Runs `workload` and returns its outcome, or `None` for an unknown name.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    parallelism: usize,
) -> Option<Outcome> {
    Some(match workload {
        "fn_statechart" => fnload::run(fnload::Family::Statechart, seed, seconds, traced),
        "fn_automotive" => fnload::run(fnload::Family::Automotive, seed, seconds, traced),
        "service_mix" => service::run(seed, seconds, traced, parallelism),
        _ => return None,
    })
}
