//! One experiment point: the paper's feature tuple and its execution.
//!
//! The prediction model's inputs (Eq. 1) are
//! `{M, S, D, L, Confs = (semantics, B, δ, T_o)}`; an
//! [`ExperimentPoint`] carries exactly those eight features. Running a
//! point builds a fresh [`kafkasim::RunSpec`] from the shared
//! [`Calibration`], executes it, and records `P_l` and `P_d`.

use desim::{SimDuration, SimTime};
use kafkasim::audit::DeliveryReport;
use kafkasim::broker::BrokerId;
use kafkasim::config::{DeliverySemantics, ProducerConfig};
use kafkasim::runtime::{BrokerFault, KafkaRun, ProducerStats, RunSpec};
use kafkasim::source::{RateSpec, SizeSpec, SourceSpec};
use netsim::{ConditionTimeline, NetCondition};
use serde::{Deserialize, Serialize};

use crate::calibration::Calibration;

/// The paper's eight prediction features for one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentPoint {
    /// (a) Message size `M` in bytes.
    pub message_size: u64,
    /// (b) Message timeliness `S` (staleness bound); `None` disables
    /// staleness accounting.
    pub timeliness: Option<SimDuration>,
    /// (c) One-way network delay `D`.
    pub delay: SimDuration,
    /// (d) Network packet-loss rate `L` in `[0, 1]`.
    pub loss_rate: f64,
    /// (e) Delivery semantics.
    pub semantics: DeliverySemantics,
    /// (f) Batch size `B`.
    pub batch_size: usize,
    /// (g) Polling interval `δ`; `ZERO` = full load.
    pub poll_interval: SimDuration,
    /// (h) Message timeout `T_o`.
    pub message_timeout: SimDuration,
    /// (i) Per-partition replication factor (beyond the paper; `1`
    /// reproduces the paper's single-copy setup).
    pub replication_factor: u32,
    /// (j) Duration of an injected broker crash; `ZERO` injects no fault.
    /// When set, the leader of partition 0 crashes at
    /// [`ExperimentPoint::FAULT_AT`] and failover detection runs after
    /// [`ExperimentPoint::FAILOVER_DETECT`] — size the run so it spans the
    /// fault window.
    pub fault_downtime: SimDuration,
    /// (k) Whether unclean leader election is permitted during the fault.
    pub allow_unclean: bool,
}

impl Default for ExperimentPoint {
    fn default() -> Self {
        ExperimentPoint {
            message_size: 200,
            timeliness: None,
            delay: SimDuration::from_millis(1),
            loss_rate: 0.0,
            semantics: DeliverySemantics::AtLeastOnce,
            batch_size: 1,
            poll_interval: SimDuration::from_millis(100),
            message_timeout: SimDuration::from_millis(3_000),
            replication_factor: 1,
            fault_downtime: SimDuration::ZERO,
            allow_unclean: false,
        }
    }
}

impl ExperimentPoint {
    /// When the injected broker fault (if any) begins.
    pub const FAULT_AT: SimTime = SimTime::from_millis(1_500);

    /// How long after the crash the controller elects a new leader.
    pub const FAILOVER_DETECT: SimDuration = SimDuration::from_millis(500);

    /// Whether this point is a "normal case" in the paper's Fig. 3 sense
    /// (`D < 200 ms` and `L = 0`).
    #[must_use]
    pub fn is_normal_case(&self) -> bool {
        NetCondition::new(self.delay, self.loss_rate).is_normal()
    }

    /// The producer configuration this point implies under `cal`.
    #[must_use]
    pub fn producer_config(&self, cal: &Calibration) -> ProducerConfig {
        ProducerConfig {
            semantics: self.semantics,
            batch_size: self.batch_size,
            poll_interval: self.poll_interval,
            message_timeout: self.message_timeout,
            // Let count-based batching dominate, but never hold a partial
            // batch past a third of the message timeout.
            linger: (self.message_timeout / 3).min(SimDuration::from_millis(800)),
            max_retries: cal.max_retries,
            request_timeout: cal.request_timeout,
            max_in_flight: cal.max_in_flight,
            buffer_capacity: cal.buffer_capacity,
            stall_backoffs: cal.stall_backoffs,
            stall_patience: cal.stall_patience,
            host: cal.host,
        }
    }

    /// The full run specification for `n_messages` source messages.
    #[must_use]
    pub fn to_run_spec(&self, cal: &Calibration, n_messages: u64) -> RunSpec {
        let rate = if self.poll_interval.is_zero() {
            RateSpec::FullLoad
        } else {
            RateSpec::Interval(self.poll_interval)
        };
        let mut cluster = cal.cluster.clone();
        cluster.replication.factor = self.replication_factor;
        cluster.replication.allow_unclean = self.allow_unclean;
        let (faults, failover_after) = if self.fault_downtime.is_zero() {
            (Vec::new(), None)
        } else {
            // Crash the leader of partition 0 (broker 0 by placement).
            (
                vec![BrokerFault::crash(
                    BrokerId(0),
                    Self::FAULT_AT,
                    self.fault_downtime,
                )],
                Some(Self::FAILOVER_DETECT),
            )
        };
        RunSpec {
            producer: self.producer_config(cal),
            cluster,
            source: SourceSpec {
                n_messages,
                size: SizeSpec::Fixed(self.message_size),
                rate,
                timeliness: self.timeliness,
            },
            network: ConditionTimeline::constant(NetCondition::new(self.delay, self.loss_rate)),
            channel: cal.channel.clone(),
            wire: cal.wire,
            config_schedule: Vec::new(),
            max_duration: SimDuration::from_secs(7_200),
            faults,
            failover_after,
            online: None,
        }
    }

    /// Runs the experiment with `n_messages` source messages, untraced.
    ///
    /// To trace or profile a point, run its [`ExperimentPoint::to_run_spec`]
    /// through [`KafkaRun::execute_traced`] or
    /// [`KafkaRun::execute_profiled`].
    #[must_use]
    pub fn run(&self, cal: &Calibration, n_messages: u64, seed: u64) -> ExperimentResult {
        let outcome = KafkaRun::new(self.to_run_spec(cal, n_messages), seed).execute();
        ExperimentResult {
            point: self.clone(),
            p_loss: outcome.report.p_loss(),
            p_dup: outcome.report.p_dup(),
            report: outcome.report,
            producer: outcome.producer,
            seed,
        }
    }
}

/// The outcome of one experiment: the measured reliability metrics plus the
/// full report for deeper analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// The features that were run.
    pub point: ExperimentPoint,
    /// Measured `P_l`.
    pub p_loss: f64,
    /// Measured `P_d`.
    pub p_dup: f64,
    /// The full audit report.
    pub report: DeliveryReport,
    /// Producer counters.
    pub producer: ProducerStats,
    /// Seed the run used.
    pub seed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_case_classification() {
        let mut p = ExperimentPoint::default();
        assert!(p.is_normal_case());
        p.loss_rate = 0.05;
        assert!(!p.is_normal_case());
        p.loss_rate = 0.0;
        p.delay = SimDuration::from_millis(300);
        assert!(!p.is_normal_case());
    }

    #[test]
    fn clean_point_runs_without_loss() {
        let cal = Calibration::paper();
        let result = ExperimentPoint::default().run(&cal, 300, 1);
        assert_eq!(result.report.n_source, 300);
        assert!(result.p_loss < 0.02, "P_l = {}", result.p_loss);
        assert_eq!(result.p_dup, 0.0);
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let cal = Calibration::paper();
        let p = ExperimentPoint {
            loss_rate: 0.10,
            delay: SimDuration::from_millis(50),
            ..ExperimentPoint::default()
        };
        let a = p.run(&cal, 300, 9);
        let b = p.run(&cal, 300, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn traced_run_matches_untraced_and_captures_the_lifecycle() {
        let cal = Calibration::paper();
        let p = ExperimentPoint {
            loss_rate: 0.10,
            delay: SimDuration::from_millis(50),
            ..ExperimentPoint::default()
        };
        let plain = p.run(&cal, 200, 9);
        let (traced, mut sink) = KafkaRun::new(p.to_run_spec(&cal, 200), 9)
            .execute_traced(Box::new(obs::RingBufferSink::new(1 << 20)));
        assert_eq!(
            plain.report, traced.report,
            "tracing must not perturb the simulation"
        );
        assert_eq!(plain.producer, traced.producer);
        let events = sink.drain();
        let enqueued = events
            .iter()
            .filter(|e| matches!(e, obs::TraceEvent::Enqueued { .. }))
            .count() as u64;
        assert_eq!(enqueued, 200, "every source message is traced");
        let report = obs::TimelineReport::reconstruct(&events);
        let audit = kafkasim::crosscheck(&traced.report, &report);
        assert!(audit.fully_explains(), "{:?}", audit.discrepancies);
    }

    #[test]
    fn producer_config_inherits_calibration() {
        let cal = Calibration::paper();
        let cfg = ExperimentPoint::default().producer_config(&cal);
        assert_eq!(cfg.max_retries, cal.max_retries);
        assert_eq!(cfg.host, cal.host);
        cfg.validate().unwrap();
    }
}
