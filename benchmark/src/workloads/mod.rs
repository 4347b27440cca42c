//! The four workloads. Each is a fixed list of jobs, generated from the
//! seed, that the harness runs back to back on one thread, round after
//! round; a round's simulated statistics repeat exactly.

pub mod fleet;
pub mod pipeline;
pub mod sim;

use std::path::PathBuf;
use std::time::Instant;

use crate::metrics::Metrics;
use crate::trace::Recorder;

/// Every layer is asked for one thread: `nproc` is 2 on the reference host
/// and the roadmap's "1-core honesty" stands.
pub const THREADS: usize = 1;

/// One digest-bearing job of a round: a simulation run, a fleet strategy
/// run, or a pipeline stage.
#[derive(Debug, Clone)]
pub struct Job {
    pub label: String,
    pub ns: u64,
    /// Messages the job simulated; 0 for a job that simulates none.
    pub msgs: u64,
    pub digest: u64,
    /// Why the job is a failed operation, if it is.
    pub error: Option<String>,
}

/// What one round did and how long the host took over it.
#[derive(Debug, Default)]
pub struct Round {
    pub jobs: Vec<Job>,
    /// Latency samples of the workload's unit request (a run, a strategy
    /// run, a `Policy::decide`).
    pub latency_ns: Vec<u64>,
    /// Operations attempted and failed beyond the jobs themselves.
    pub extra_ops: u64,
    pub extra_failed: u64,
    /// Layer metrics of this round: counts repeat exactly from round to
    /// round, rates belong to this round.
    pub layer: Metrics,
}

impl Round {
    #[must_use]
    pub fn wall_ns(&self) -> u64 {
        self.jobs.iter().map(|j| j.ns).sum()
    }

    /// Simulated messages, and the host time of the jobs that simulated
    /// them.
    #[must_use]
    pub fn msgs(&self) -> u64 {
        self.jobs.iter().map(|j| j.msgs).sum()
    }

    #[must_use]
    pub fn msgs_ns(&self) -> u64 {
        let simulating = self.jobs.iter().filter(|j| j.msgs > 0);
        simulating.map(|j| j.ns).sum()
    }

    #[must_use]
    pub fn wall_s(&self) -> f64 {
        self.wall_ns() as f64 / 1e9
    }

    #[must_use]
    pub fn msgs_per_s(&self) -> f64 {
        per_s(self.msgs() as f64, self.msgs_ns())
    }

    #[must_use]
    pub fn job_digests(&self) -> Vec<u64> {
        self.jobs.iter().map(|j| j.digest).collect()
    }

    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.jobs.len() as u64 + self.extra_ops
    }
}

pub trait Workload {
    /// Runs the job list once.
    fn round(&mut self, rec: &mut Recorder) -> Round;

    /// The layer drivers of the traced run: seeded micro-loops over one
    /// layer's public API, shaped like this workload.
    fn drivers(&mut self, rec: &mut Recorder, out: &mut Metrics);

    /// The highest percentile `job_tail_us` may be read at: jobs per round
    /// times the rounds a run is sure to make always support it.
    fn tail_cap(&self) -> u32;

    /// msgs/s of the workload's first job timed one-shot (in the warm-up
    /// round, as `BENCH_sim.json` `single_run` was), and the median and the
    /// best of its repeats. Only `sim-steady` has such a first customer.
    fn first_customer(&self, _warm: &Round, _rounds: &[Round]) -> Option<[f64; 3]> {
        None
    }
}

/// Builds a workload's inputs from the seed. `smoke` shrinks every size so
/// all four workloads finish in seconds, with the same metric names.
pub fn build(name: &str, seed: u64, smoke: bool) -> Result<Box<dyn Workload>, String> {
    match name {
        "sim-steady" => Ok(Box::new(sim::Sim::steady(seed, smoke))),
        "sim-lossy" => Ok(Box::new(sim::Sim::lossy(seed, smoke))),
        "fleet" => Ok(Box::new(fleet::Fleet::new(seed, smoke)?)),
        "pipeline" => Ok(Box::new(pipeline::Pipeline::new(seed, smoke)?)),
        other => Err(format!(
            "unknown workload {other}; expected one of {}",
            crate::WORKLOADS.join(", ")
        )),
    }
}

/// The committed scenario corpus, found from this package's manifest so the
/// benchmark runs from any working directory of the checkout it was built in.
#[must_use]
pub fn scenarios_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../scenarios"))
}

/// Times `f`, in nanoseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let out = f();
    (out, elapsed_ns(start))
}

#[must_use]
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Events per second, or any other count over nanoseconds.
#[must_use]
pub fn per_s(count: f64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        count * 1e9 / ns as f64
    }
}

#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
