//! `sim-steady` and `sim-lossy`: the per-message protocol simulation, one
//! `KafkaRun` per experiment point.
//!
//! The two workloads drive the same `kafkasim`/`netsim`/`desim` code on
//! opposite sides of the recovery path. `sim-steady` runs a clean network
//! at full load: poll-source, batch-form, dispatch, append and the event
//! queue do the work and TCP recovery is nearly idle, so a queue or
//! batching optimisation shows here and a recovery one must not. `sim-lossy`
//! runs the Fig. 7 knee and beyond: RTO back-off, connection resets, request
//! retries and a duplicate-bearing audit, so a clean-path gain that costs
//! the recovery path (or the reverse) shows as one row up, one row down.

use desim::{SimDuration, SimRng};
use kafkasim::config::DeliverySemantics;
use kafkasim::runtime::{KafkaRun, RunOutcome};
use testbed::experiment::ExperimentPoint;
use testbed::Calibration;

use super::{per_s, ratio, timed, Job, Round, Workload};
use crate::drivers;
use crate::metrics::Metrics;
use crate::trace::Recorder;
use crate::{check, digest, stats};

const SEMANTICS: [DeliverySemantics; 2] = [
    DeliverySemantics::AtMostOnce,
    DeliverySemantics::AtLeastOnce,
];

pub struct Sim {
    cal: Calibration,
    /// Label, point and run seed of every job, in job order.
    points: Vec<(String, ExperimentPoint, u64)>,
    messages: u64,
    seed: u64,
    /// Point 0 is `perfbase`'s `single_run` point.
    first_customer: bool,
}

fn label(p: &ExperimentPoint) -> String {
    format!(
        "{} M={} B={} L={}",
        p.semantics, p.message_size, p.batch_size, p.loss_rate
    )
}

impl Sim {
    fn new(grid: Vec<ExperimentPoint>, messages: u64, seed: u64) -> Self {
        let mut seeds = SimRng::seed_from_u64(seed);
        Sim {
            cal: Calibration::paper(),
            points: grid
                .into_iter()
                .map(|p| (label(&p), p, seeds.next_u64()))
                .collect(),
            messages,
            seed,
            first_customer: false,
        }
    }

    /// Clean network, full load: {at-most-once, at-least-once} x M {100,
    /// 400} B x B {1, 8} x L {0, 2 %}, D = 20 ms. Point 0 is `perfbase`'s
    /// `single_run` point, the one whose tracked throughput swung 2.80M ->
    /// 1.96M msgs/s. The B=1 points are overloaded at full load and lose
    /// about half their messages to producer-side expiry, as on the left
    /// of Fig. 4: that is the producer's own path, not the network's.
    pub fn steady(seed: u64, smoke: bool) -> Self {
        let base = ExperimentPoint {
            delay: SimDuration::from_millis(20),
            poll_interval: SimDuration::ZERO,
            ..ExperimentPoint::default()
        };
        let mut grid = vec![ExperimentPoint {
            batch_size: 8,
            loss_rate: 0.02,
            ..base.clone()
        }];
        for semantics in SEMANTICS {
            for message_size in [100, 400] {
                for batch_size in [1, 8] {
                    for loss_rate in [0.0, 0.02] {
                        grid.push(ExperimentPoint {
                            semantics,
                            message_size,
                            batch_size,
                            loss_rate,
                            ..base.clone()
                        });
                    }
                }
            }
        }
        Sim {
            first_customer: true,
            ..Sim::new(grid, if smoke { 1_500 } else { 60_000 }, seed)
        }
    }

    /// The slow path: both semantics x M {400, 1000} B x B {1, 3} x
    /// L {12, 19, 25 %}, D = 50 ms.
    pub fn lossy(seed: u64, smoke: bool) -> Self {
        let mut grid = Vec::new();
        for semantics in SEMANTICS {
            for message_size in [400, 1000] {
                for batch_size in [1, 3] {
                    for loss_rate in [0.12, 0.19, 0.25] {
                        grid.push(ExperimentPoint {
                            semantics,
                            message_size,
                            batch_size,
                            loss_rate,
                            delay: SimDuration::from_millis(50),
                            poll_interval: SimDuration::from_millis(LOSSY_POLL_MS),
                            message_timeout: SimDuration::from_millis(2_000),
                            ..ExperimentPoint::default()
                        });
                    }
                }
            }
        }
        Sim::new(grid, if smoke { 500 } else { 20_000 }, seed)
    }

    fn execute(&self, i: usize) -> KafkaRun {
        let (_, point, seed) = &self.points[i];
        KafkaRun::new(point.to_run_spec(&self.cal, self.messages), *seed)
    }
}

/// The Fig. 7 source: the producer keeps up with it, so what is lost is lost
/// to the network and every message is sent at least once.
const LOSSY_POLL_MS: u64 = 70;

/// One round's counters, summed over its runs.
#[derive(Default)]
struct Sums {
    runs: u64,
    events: u64,
    packets_offered: u64,
    packets_lost: u64,
    bytes_offered: u64,
    bytes_delivered: u64,
    payload_bytes: u64,
    resets: u64,
    requests: u64,
    retries: u64,
    expired: u64,
    appended: u64,
    lost: u64,
    duplicated: u64,
    delivered: u64,
}

impl Sums {
    /// Packet counts come from `RunOutcome.links`: the `RunOutcome.tcp`
    /// counters restart at every connection reset and under-count on lossy
    /// runs.
    fn add(&mut self, point: &ExperimentPoint, o: &RunOutcome) {
        let r = &o.report;
        self.runs += 1;
        self.events += o.events_fired;
        for link in &o.links {
            self.packets_offered += link.delivered + link.lost + link.dropped;
            self.packets_lost += link.lost + link.dropped;
            self.bytes_offered += link.bytes_offered;
            self.bytes_delivered += link.bytes_delivered;
        }
        self.payload_bytes += (r.delivered_once + r.duplicated) * point.message_size;
        self.resets += o.producer.connection_resets;
        self.requests += o.producer.requests_sent;
        self.retries += o.producer.retries;
        self.expired += o.producer.expired;
        self.appended += o.records_appended;
        self.lost += r.lost;
        self.duplicated += r.duplicated;
        self.delivered += r.delivered_once + r.duplicated;
    }

    fn layer(&self, msgs: u64, wall_ns: u64) -> Metrics {
        let mut m = Metrics::default();
        let msgs = msgs as f64;
        m.set("desim.events_fired", self.events as f64);
        m.set("desim.events_per_msg", ratio(self.events as f64, msgs));
        m.set(
            "desim.ns_per_event",
            ratio(wall_ns as f64, self.events as f64),
        );
        m.set("netsim.packets_offered", self.packets_offered as f64);
        m.set("netsim.packets_lost", self.packets_lost as f64);
        m.set("netsim.bytes_delivered", self.bytes_delivered as f64);
        m.set(
            "netsim.packets_per_msg",
            ratio(self.packets_offered as f64, msgs),
        );
        m.set(
            "netsim.wire_efficiency",
            ratio(self.payload_bytes as f64, self.bytes_offered as f64),
        );
        m.set("netsim.conn_resets", self.resets as f64);
        m.set("kafkasim.runs", self.runs as f64);
        m.set("kafkasim.requests_sent", self.requests as f64);
        m.set("kafkasim.retries", self.retries as f64);
        m.set(
            "kafkasim.retry_ratio",
            ratio(self.retries as f64, self.requests as f64),
        );
        m.set("kafkasim.expired", self.expired as f64);
        m.set("kafkasim.records_appended", self.appended as f64);
        m.set("kafkasim.msgs_lost", self.lost as f64);
        m.set("kafkasim.msgs_duplicated", self.duplicated as f64);
        m.set(
            "kafkasim.delivered_ratio",
            ratio(self.delivered as f64, msgs),
        );
        m
    }
}

impl Workload for Sim {
    fn round(&mut self, rec: &mut Recorder) -> Round {
        let mut round = Round::default();
        let mut sums = Sums::default();
        for i in 0..self.points.len() {
            rec.set_job(i as u32);
            let (outcome, ns) = timed(|| {
                let run = rec.span("testbed.to_run_spec", |_| self.execute(i));
                rec.span("kafkasim.execute", |_| run.execute())
            });
            let (label, point, _) = &self.points[i];
            round.jobs.push(Job {
                label: label.clone(),
                ns,
                msgs: outcome.report.n_source,
                digest: digest::of_debug(&outcome),
                error: check::outcome(&outcome, self.messages).err(),
            });
            round.latency_ns.push(ns);
            sums.add(point, &outcome);
        }
        round.layer = sums.layer(round.msgs(), round.wall_ns());
        round
    }

    fn drivers(&mut self, rec: &mut Recorder, out: &mut Metrics) {
        let n = self.points.len() as f64;
        let mean = |f: &dyn Fn(&ExperimentPoint) -> f64| {
            self.points.iter().map(|(_, p, _)| f(p)).sum::<f64>() / n
        };
        let shape = drivers::Shape {
            seed: self.seed,
            message_size: mean(&|p| p.message_size as f64) as u64,
            batch: mean(&|p| p.batch_size as f64).round() as usize,
            loss_rate: mean(&|p| p.loss_rate),
            delay: self.points[0].1.delay,
            messages: self.messages,
        };
        rec.span("driver.desim", |_| drivers::desim::run(&shape, 64, out));
        rec.span("driver.netsim", |_| drivers::netsim::run(&shape, out));
        rec.span("driver.kafkasim.log", |_| {
            drivers::kafkasim::log_append(&shape, out);
        });
        rec.span("driver.kafkasim.profile", |_| {
            let runs = (0..self.points.len()).map(|i| self.execute(i));
            drivers::kafkasim::profile(runs, self.messages, out);
        });
        rec.span("driver.obs", |_| {
            drivers::obs::run(&|| self.execute(0), out);
        });
    }

    fn tail_cap(&self) -> u32 {
        90
    }

    fn first_customer(&self, warm: &Round, rounds: &[Round]) -> Option<[f64; 3]> {
        if !self.first_customer {
            return None;
        }
        let rate = |ns: f64| per_s(self.messages as f64, ns as u64);
        let repeats: Vec<f64> = rounds.iter().map(|r| r.jobs[0].ns as f64).collect();
        Some([
            rate(warm.jobs[0].ns as f64),
            rate(stats::median_iqr(&repeats).0),
            rate(stats::min(&repeats)),
        ])
    }
}
