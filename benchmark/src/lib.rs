//! The repo benchmark: one SPARQL text in, certain answers out, on a
//! Figure-1-shaped RDF Peer System at 10⁵–10⁶ solution triples.
//!
//! The engine is driven through its public API only. `README.md` says
//! how to run, compare and read a trace; `BENCHMARK.json` at the root of
//! the repository names the workloads and metrics.

pub mod compare;
pub mod config;
pub mod exec;
pub mod gen;
pub mod host;
pub mod json;
pub mod live;
pub mod metrics;
pub mod model;
pub mod ops;
pub mod paper;
pub mod refkernel;
pub mod report;
pub mod rng;
pub mod stats;
pub mod storage;
pub mod trace;
pub mod trial;

use config::Workload;
use trial::{TrialReport, TrialSpec};

/// Runs one trial in this process.
pub fn run_trial(spec: &TrialSpec) -> TrialReport {
    match spec.workload {
        Workload::LiveChurn => live::run_live(spec),
        _ => trial::run_frozen(spec),
    }
}
