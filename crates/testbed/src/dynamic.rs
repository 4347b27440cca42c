//! The §V dynamic-configuration experiment.
//!
//! The paper assumes the network status is known, generates configuration
//! parameters offline for each condition, and has the producer switch
//! configuration every interval (60 s) while an unstable network (Fig. 9)
//! plays out. This module provides:
//!
//! * [`ConfigPlanner`] — the decision function (the prediction-model-driven
//!   planner lives in the `kafka-predict` crate; a [`StaticPlanner`] serves
//!   as the paper's "default configuration" baseline);
//! * [`build_schedule`] — offline generation of the configuration file;
//! * [`run_scenario`] — executing one Table II cell and reporting the
//!   overall rates `R_l` and `R_d` of Eq. 3;
//! * [`run_scenario_online`] — the same cell under an online controller
//!   instead of an offline schedule.

use desim::{SimDuration, SimTime};
use kafkasim::audit::DeliveryReport;
use kafkasim::config::{DeliverySemantics, ProducerConfig};
use kafkasim::runtime::{KafkaRun, OnlineSpec, ProducerStats, RunOutcome, RunSpec};
use kafkasim::source::SourceSpec;
use netsim::{ConditionTimeline, NetCondition};
use obs::{MetricsRegistry, MetricsSummary, Profiler, TraceSink};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

use crate::calibration::Calibration;
use crate::experiment::ExperimentPoint;
use crate::scenarios::ApplicationScenario;

/// Chooses a producer configuration for a known network condition.
///
/// Implementors typically consult a reliability prediction model and the
/// weighted KPI; the trait keeps this crate independent of the model.
pub trait ConfigPlanner {
    /// The configuration to run while `condition` holds.
    fn plan(&self, scenario: &ApplicationScenario, condition: NetCondition) -> ProducerConfig;
}

/// The baseline planner: always the same (default) configuration.
#[derive(Debug, Clone)]
pub struct StaticPlanner(pub ProducerConfig);

impl ConfigPlanner for StaticPlanner {
    fn plan(&self, _scenario: &ApplicationScenario, _condition: NetCondition) -> ProducerConfig {
        self.0.clone()
    }
}

/// The static default configuration of Kafka, as the paper's baseline:
/// `acks=1` with **no retries** (the classic client default), no batching,
/// and a long delivery timeout.
#[must_use]
pub fn default_static_config(cal: &Calibration) -> ProducerConfig {
    let point = ExperimentPoint {
        semantics: DeliverySemantics::AtLeastOnce,
        batch_size: 1,
        poll_interval: SimDuration::ZERO,
        message_timeout: SimDuration::from_secs(30),
        ..ExperimentPoint::default()
    };
    ProducerConfig {
        linger: SimDuration::ZERO,
        max_retries: 0,
        ..point.producer_config(cal)
    }
}

/// Generates the offline configuration schedule: one decision per
/// `interval`, deduplicating consecutive identical configurations (the
/// paper notes reconfiguration has a cost, so we only switch when the plan
/// changes).
#[must_use]
pub fn build_schedule<P: ConfigPlanner + ?Sized>(
    planner: &P,
    scenario: &ApplicationScenario,
    network: &ConditionTimeline,
    interval: SimDuration,
    horizon: SimTime,
) -> Vec<(SimTime, ProducerConfig)> {
    assert!(!interval.is_zero(), "interval must be positive");
    let mut schedule = Vec::new();
    let mut t = SimTime::ZERO;
    let mut last: Option<ProducerConfig> = None;
    while t <= horizon {
        let condition = network.at(t);
        let cfg = planner.plan(scenario, condition);
        if last.as_ref() != Some(&cfg) {
            schedule.push((t, cfg.clone()));
            last = Some(cfg);
        }
        t += interval;
    }
    schedule
}

/// The outcome of one Table II cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DynamicRunReport {
    /// Scenario name.
    pub scenario: String,
    /// Overall message loss rate `R_l` (Eq. 3).
    pub r_loss: f64,
    /// Overall message duplicate rate `R_d` (Eq. 3).
    pub r_dup: f64,
    /// Fraction of delivered messages that were stale (`latency > S`).
    pub stale_fraction: f64,
    /// Number of configuration switches applied.
    pub config_switches: usize,
    /// The full audit report.
    pub report: DeliveryReport,
    /// Producer counters.
    pub producer: ProducerStats,
}

/// Runs one scenario over `network` with the given planner.
///
/// `n_messages` should roughly equal the workload's mean rate times the
/// trace duration so the run spans the whole trace.
#[must_use]
pub fn run_scenario<P: ConfigPlanner + ?Sized>(
    scenario: &ApplicationScenario,
    network: &ConditionTimeline,
    planner: &P,
    cal: &Calibration,
    n_messages: u64,
    interval: SimDuration,
    seed: u64,
) -> DynamicRunReport {
    let horizon = network.last_change();
    let mut schedule = build_schedule(planner, scenario, network, interval, horizon);
    assert!(!schedule.is_empty(), "planner produced no configuration");
    let initial = schedule.remove(0).1;
    let switches = schedule.len();
    let source = scenario.source(n_messages);
    let run = scenario_run(network, cal, source, initial, schedule, None, seed);
    to_report(scenario, run.execute(), switches)
}

/// Runs one scenario with an *online* controller instead of an offline
/// schedule: the EXT-3 configuration loop. The network is replayed but
/// never revealed to the controller, which must infer it from the
/// producer's own statistics.
///
/// `sink` receives every trace event of the run (so timelines, metrics and
/// per-window KPI series can be derived from it afterwards) and `prof`
/// records wall-clock spans across the simulator, the planner and the memo
/// cache; pass an [`obs::NoopSink`] and a disabled profiler for a plain
/// run. Returns the run report, the sink (with whatever it retained), and
/// the controller's self-reported metrics (planner memo-cache hits, misses
/// and evictions, replan count — whatever its `export_metrics` publishes),
/// exported after the run through the [`OnlineSpec`]'s shared `Arc`.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn run_scenario_online(
    scenario: &ApplicationScenario,
    network: &ConditionTimeline,
    initial: ProducerConfig,
    online: OnlineSpec,
    cal: &Calibration,
    n_messages: u64,
    seed: u64,
    sink: Box<dyn TraceSink>,
    prof: Profiler,
) -> (DynamicRunReport, Box<dyn TraceSink>, MetricsSummary) {
    let controller = Arc::clone(&online.controller);
    let source = scenario.source(n_messages);
    let run = scenario_run(
        network,
        cal,
        source,
        initial,
        Vec::new(),
        Some(online),
        seed,
    );
    let (outcome, sink) = run.execute_profiled(sink, prof);
    let switches = outcome.producer.online_reconfigurations as usize;
    let mut registry = MetricsRegistry::new();
    controller.export_metrics(&mut registry);
    (
        to_report(scenario, outcome, switches),
        sink,
        registry.summary(),
    )
}

/// The run both entry points execute: `source` over `network`, with the
/// horizon at the trace's last change plus 600 s of drain time.
pub fn scenario_run(
    network: &ConditionTimeline,
    cal: &Calibration,
    source: SourceSpec,
    producer: ProducerConfig,
    config_schedule: Vec<(SimTime, ProducerConfig)>,
    online: Option<OnlineSpec>,
    seed: u64,
) -> KafkaRun {
    let horizon = network.last_change();
    let spec = RunSpec {
        producer,
        cluster: cal.cluster.clone(),
        source,
        network: network.clone(),
        channel: cal.channel.clone(),
        wire: cal.wire,
        config_schedule,
        max_duration: horizon.saturating_since(SimTime::ZERO) + SimDuration::from_secs(600),
        faults: Vec::new(),
        failover_after: None,
        online,
    };
    KafkaRun::new(spec, seed)
}

/// Eq. 3's overall rates, and the stale share of what was delivered.
fn to_report(
    scenario: &ApplicationScenario,
    outcome: RunOutcome,
    config_switches: usize,
) -> DynamicRunReport {
    let delivered = outcome.report.delivered_once + outcome.report.duplicated;
    let stale_fraction = if delivered == 0 {
        0.0
    } else {
        outcome.report.stale as f64 / delivered as f64
    };
    DynamicRunReport {
        scenario: scenario.name.clone(),
        r_loss: outcome.report.p_loss(),
        r_dup: outcome.report.p_dup(),
        stale_fraction,
        config_switches,
        report: outcome.report,
        producer: outcome.producer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimRng;
    use netsim::trace::{generate_trace, TraceConfig};

    fn short_trace(seed: u64) -> ConditionTimeline {
        let cfg = TraceConfig {
            duration: SimDuration::from_secs(120),
            interval: SimDuration::from_secs(10),
            ..TraceConfig::default()
        };
        generate_trace(&cfg, &mut SimRng::seed_from_u64(seed))
            .unwrap()
            .timeline
    }

    #[test]
    fn default_static_config_is_the_classic_client_default() {
        let cal = Calibration::paper();
        // Every field spelled out, so a new `ProducerConfig` field fails to
        // compile here until its baseline value is decided.
        let classic = ProducerConfig {
            semantics: DeliverySemantics::AtLeastOnce,
            batch_size: 1,
            poll_interval: SimDuration::ZERO,
            message_timeout: SimDuration::from_secs(30),
            linger: SimDuration::ZERO,
            max_retries: 0,
            request_timeout: cal.request_timeout,
            max_in_flight: cal.max_in_flight,
            buffer_capacity: cal.buffer_capacity,
            stall_backoffs: cal.stall_backoffs,
            stall_patience: cal.stall_patience,
            host: cal.host,
        };
        assert_eq!(default_static_config(&cal), classic);
    }

    #[test]
    fn schedule_dedupes_consecutive_configs() {
        let cal = Calibration::paper();
        let planner = StaticPlanner(default_static_config(&cal));
        let scenario = ApplicationScenario::web_access_records();
        let network = short_trace(1);
        let schedule = build_schedule(
            &planner,
            &scenario,
            &network,
            SimDuration::from_secs(60),
            network.last_change(),
        );
        assert_eq!(schedule.len(), 1, "static planner yields one entry");
        assert_eq!(schedule[0].0, SimTime::ZERO);
    }

    /// A toy planner that batches whenever the network is lossy.
    struct LossyBatcher(Calibration);

    impl ConfigPlanner for LossyBatcher {
        fn plan(&self, _s: &ApplicationScenario, c: NetCondition) -> ProducerConfig {
            let mut cfg = default_static_config(&self.0);
            cfg.max_retries = 3;
            if c.loss_rate > 0.05 {
                cfg.batch_size = 6;
            }
            cfg
        }
    }

    #[test]
    fn adaptive_planner_switches_configs() {
        let cal = Calibration::paper();
        let planner = LossyBatcher(cal.clone());
        let scenario = ApplicationScenario::web_access_records();
        let network = short_trace(3);
        let schedule = build_schedule(
            &planner,
            &scenario,
            &network,
            SimDuration::from_secs(10),
            network.last_change(),
        );
        assert!(
            schedule.len() > 1,
            "the trace's loss bursts should force switches"
        );
    }

    #[test]
    fn run_scenario_produces_consistent_rates() {
        let cal = Calibration::paper();
        let planner = StaticPlanner(default_static_config(&cal));
        let scenario = ApplicationScenario::web_access_records();
        let network = short_trace(5);
        let report = run_scenario(
            &scenario,
            &network,
            &planner,
            &cal,
            600,
            SimDuration::from_secs(60),
            11,
        );
        let r = &report.report;
        assert_eq!(r.delivered_once + r.lost + r.duplicated, r.n_source);
        assert!((0.0..=1.0).contains(&report.r_loss));
        assert!((0.0..=1.0).contains(&report.r_dup));
    }

    /// A controller that never reconfigures but counts its invocations
    /// and publishes them through `export_metrics`.
    struct CountingController(std::sync::atomic::AtomicU64);

    impl kafkasim::runtime::OnlineController for CountingController {
        fn decide(
            &self,
            _stats: &kafkasim::runtime::WindowStats,
            _current: &ProducerConfig,
        ) -> Option<ProducerConfig> {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            None
        }

        fn export_metrics(&self, registry: &mut obs::MetricsRegistry) {
            registry.add_to_counter(
                "test-decides",
                self.0.load(std::sync::atomic::Ordering::Relaxed),
            );
        }
    }

    #[test]
    fn traced_online_run_surfaces_controller_metrics() {
        let cal = Calibration::paper();
        let scenario = ApplicationScenario::web_access_records();
        let network = short_trace(9);
        let online = OnlineSpec {
            interval: SimDuration::from_secs(30),
            controller: std::sync::Arc::new(CountingController(std::sync::atomic::AtomicU64::new(
                0,
            ))),
        };
        let (report, _, metrics) = run_scenario_online(
            &scenario,
            &network,
            default_static_config(&cal),
            online,
            &cal,
            300,
            17,
            Box::new(obs::NoopSink),
            Profiler::disabled(),
        );
        assert_eq!(
            report.report.n_source, 300,
            "the run itself must be unaffected by tracing"
        );
        let decides = metrics.counters.get("test-decides").copied().unwrap_or(0);
        assert!(decides > 0, "controller metrics must reach the summary");
    }

    #[test]
    fn retries_beat_the_no_retry_default_on_a_lossy_trace() {
        let cal = Calibration::paper();
        let scenario = ApplicationScenario::web_access_records();
        let network = short_trace(7);
        let default = run_scenario(
            &scenario,
            &network,
            &StaticPlanner(default_static_config(&cal)),
            &cal,
            600,
            SimDuration::from_secs(60),
            13,
        );
        let adaptive = run_scenario(
            &scenario,
            &network,
            &LossyBatcher(cal.clone()),
            &cal,
            600,
            SimDuration::from_secs(60),
            13,
        );
        assert!(
            adaptive.r_loss <= default.r_loss,
            "adaptive {} vs default {}",
            adaptive.r_loss,
            default.r_loss
        );
    }
}
