//! `fleet`: the flow-level fleet engine through the `repro fleet` entry
//! point, `bench::exec::fleet`, on `scenarios/fleet.toml` scaled up in
//! memory.
//!
//! `kafkasim::fleet`, `desim::shard` and `netsim::island` do all the work
//! here and `kafkasim::runtime` and `netsim::tcp` none: the workload guards
//! the roadmap's deletion of the sequential fleet engine, and shows that a
//! change to the per-message engine leaves it flat.

use bench::figures::Effort;
use desim::{SimDuration, SimRng, SimTime};
use kafkasim::fleet::{
    ChurnEvent, FleetConfig, FleetRun, PartitionStrategy, Population, PopulationEntry, StreamClass,
};
use kafkasim::source::SizeSpec;
use spec::{ExperimentSpec, FleetSpec};

use super::{per_s, ratio, scenarios_dir, timed, Job, Round, Workload, THREADS};
use crate::drivers;
use crate::metrics::Metrics;
use crate::trace::Recorder;
use crate::{check, digest};

/// Runs per strategy and round, each with its own seed. Twelve jobs of a
/// tenth of a second, not three of four tenths: each job is read at the
/// fastest of its repeats, and a short job is more often left undisturbed.
const REPS: usize = 4;

pub struct Fleet {
    /// The scaled scenario, one copy per partitioner.
    specs: Vec<FleetSpec>,
    seeds: [u64; REPS],
    seed: u64,
}

impl Fleet {
    pub fn new(seed: u64, smoke: bool) -> Result<Self, String> {
        let path = scenarios_dir().join("fleet.toml");
        let doc = spec::io::load(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let ExperimentSpec::Fleet(mut spec) = doc.experiment else {
            return Err(format!("{} is not a fleet scenario", path.display()));
        };
        // A quarter more tenants and twice the horizon of the committed
        // 1200 x 60 s, so one round of twelve runs is about a second of
        // host time; churn instants and the window length scale with the
        // horizon.
        let (producers, time) = if smoke { (200, 1) } else { (1_500, 2) };
        spec.producers = producers;
        spec.duration_s *= time;
        spec.window_ms *= time;
        for churn in &mut spec.churn {
            churn.at_s *= time;
        }
        spec.threads = Some(THREADS);
        let specs = spec
            .partitioners
            .iter()
            .map(|&p| FleetSpec {
                partitioners: vec![p],
                ..spec.clone()
            })
            .collect();
        let mut seeds = SimRng::seed_from_u64(seed);
        Ok(Fleet {
            specs,
            seeds: std::array::from_fn(|_| seeds.next_u64()),
            seed,
        })
    }

    fn effort(&self, rep: usize) -> Effort {
        Effort {
            messages: 0,
            threads: THREADS,
            seed: self.seeds[rep],
            grid_planner: false,
        }
    }

    /// The scenario as one key-hash `FleetConfig` for the engine driver,
    /// with the population's classes built by hand from the spec's rates.
    fn engine_config(&self) -> FleetConfig {
        let spec = &self.specs[0];
        let entries = spec
            .population
            .iter()
            .map(|e| PopulationEntry {
                class: StreamClass {
                    name: e.class.clone(),
                    size: SizeSpec::Fixed(200),
                    rate_hz: e.rate_hz,
                    timeliness: SimDuration::from_secs(2),
                },
                weight: e.weight,
            })
            .collect();
        FleetConfig {
            producers: spec.producers,
            partitions: spec.partitions,
            strategy: PartitionStrategy::KeyHash,
            population: Population::new(entries).expect("a validated scenario's mix"),
            initial_consumers: spec.consumers,
            assignor: spec.assignor,
            churn: spec
                .churn
                .iter()
                .map(|c| ChurnEvent {
                    at: SimTime::from_secs(c.at_s),
                    action: c.action,
                    member: c.member,
                })
                .collect(),
            duration: SimDuration::from_secs(spec.duration_s),
            window: SimDuration::from_millis(spec.window_ms),
            partition_capacity_hz: spec.partition_capacity_hz,
            base_loss: spec.base_loss,
            rebalance_pause: SimDuration::from_millis(spec.rebalance_pause_ms),
        }
    }
}

impl Workload for Fleet {
    fn round(&mut self, rec: &mut Recorder) -> Round {
        let mut round = Round::default();
        let mut by_strategy = vec![0u64; self.specs.len()];
        let mut rebalances = 0;
        for rep in 0..REPS {
            for (s, spec) in self.specs.iter().enumerate() {
                rec.set_job((rep * self.specs.len() + s) as u32);
                let effort = self.effort(rep);
                let (rows, ns) =
                    timed(|| rec.span("bench.fleet", |_| bench::exec::fleet(spec, effort)));
                let row = &rows[0];
                round.jobs.push(Job {
                    label: format!("{} rep {rep}", row.strategy),
                    ns,
                    msgs: row.produced,
                    digest: digest::of_debug(row),
                    error: check::fleet_row(row).err(),
                });
                round.latency_ns.push(ns);
                by_strategy[s] += ns;
                rebalances += row.rebalances;
            }
        }
        let wall_ns = round.wall_ns();
        round
            .layer
            .set("kafkasim.fleet.rebalances", rebalances as f64);
        for (spec, ns) in self.specs.iter().zip(by_strategy) {
            let name = spec.partitioners[0].name();
            round.layer.set(
                &format!("kafkasim.fleet.{name}.wall_share"),
                ratio(ns as f64, wall_ns as f64),
            );
        }
        round
    }

    fn drivers(&mut self, rec: &mut Recorder, out: &mut Metrics) {
        let shape = drivers::Shape {
            seed: self.seed,
            message_size: 200,
            batch: 1,
            loss_rate: self.specs[0].base_loss,
            delay: SimDuration::from_millis(1),
            messages: 50_000,
        };
        // A fleet shard keeps thousands of pending flushes queued.
        rec.span("driver.desim", |_| drivers::desim::run(&shape, 4096, out));
        let cfg = self.engine_config();
        rec.span("driver.kafkasim.fleet", |_| {
            let (outcome, ns) =
                drivers::best_of(|| FleetRun::new(cfg.clone(), self.seed).execute_sharded(THREADS));
            out.set("kafkasim.fleet.events_fired", outcome.events_fired as f64);
            out.set(
                "kafkasim.fleet.events_per_s",
                per_s(outcome.events_fired as f64, ns),
            );
        });
    }

    fn tail_cap(&self) -> u32 {
        75
    }
}
