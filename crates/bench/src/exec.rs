//! The spec executor: [`run_document`] runs one declarative
//! [`spec::Spec`] and renders its target, the one run path of every
//! `repro` target and of `repro check-results`.
//!
//! Every other public function here consumes one [`spec::ExperimentSpec`]
//! variant and returns the plain rows its figure or table is rendered
//! from ([`crate::render`]); the `benchmark/` package times several of
//! them directly. [`ModelMemo`] trains the one model of a process and
//! hands it to every document that predicts or plans with it.

use desim::{SimDuration, SimRng, SimTime};
use kafka_predict::prelude::*;
use kafkasim::broker::BrokerId;
use kafkasim::config::ProducerConfig;
use kafkasim::fleet::{ChurnEvent, FleetConfig, FleetRun, Population, PopulationEntry};
use kafkasim::runtime::{BrokerFault, RunSpec};
use kafkasim::source::SourceSpec;
use kafkasim::LossReason;
use netsim::trace::{generate_regime_shift, generate_trace, NetworkTrace, TraceConfig};
use netsim::{ConditionTimeline, NetCondition};
use obs::{NoopSink, Profiler, RingBufferSink, TraceEvent, TraceSink};
use serde_json::{json, to_value, Value};
use spec::{
    BrokerFaultMatrixSpec, CollectionDesign, ExperimentSpec, FleetSpec, KpiGridSpec,
    NetworkTraceSpec, OnlineCompareSpec, OverlaySpec, PolicyKind, RegimeShiftSpec, SensitivitySpec,
    Spec, SweepMode, SweepSpec, Table1Spec, Table2Spec, TraceScenarioSpec,
};
use testbed::dynamic::{default_static_config, run_scenario, run_scenario_online, StaticPlanner};
use testbed::scenarios::ApplicationScenario;
use testbed::sensitivity::SensitivityRow;
use testbed::sweep::{derive_seed, run_grid, run_sweep};
use testbed::ExperimentResult;

use crate::figures::{
    self, BrokerFaultRow, Effort, ExtOnlineRow, FleetClassRow, FleetStrategyRow, RegimeShiftRow,
    Series, SeriesPoint, Table2Row,
};
use crate::render;
use crate::report::TracedRun;

/// Table I — replays every scripted transition path through the
/// executable state machine and reports whether it lands in its declared
/// case.
///
/// # Panics
///
/// Panics on an illegal transition, which [`Spec::validate`] refuses.
#[must_use]
pub fn table1(spec: &Table1Spec) -> Vec<(kafkasim::state::DeliveryCase, String, bool)> {
    use kafkasim::state::StateMachine;
    spec.cases
        .iter()
        .map(|case| {
            let mut sm = StateMachine::new();
            for &t in &case.transitions {
                sm.apply(t)
                    .expect("Spec::validate replays every scripted path");
            }
            (case.case, case.path.clone(), sm.case() == Some(case.case))
        })
        .collect()
}

/// Runs the full collection design, producing the training set.
#[must_use]
pub fn collect_training(design: &CollectionDesign, effort: Effort) -> Vec<ExperimentResult> {
    let points = design.all_points();
    let cal = Calibration::paper();
    run_sweep(&points, &cal, effort.messages, effort.seed, effort.threads)
}

/// Fig. 9 — generates the unstable-network trace from the spec's
/// generator parameters.
///
/// # Panics
///
/// Panics on a generator configuration [`Spec::validate`] refuses.
#[must_use]
pub fn network_trace(spec: &NetworkTraceSpec, seed: u64) -> NetworkTrace {
    generate_trace(&spec.trace, &mut SimRng::seed_from_u64(seed))
        .expect("Spec::validate checks the generator configuration")
}

/// Figs. 4–8, EXT-1/2, ABL-1/2 — runs a swept reliability figure.
///
/// Every (series, axis index) is one [`SweepSpec::run_at`], and all of
/// them run on [`run_grid`] with `effort.threads` workers, axis index
/// major, so each worker takes a stretch of the axis across every series.
/// The sweep's [`SweepMode`] is its seed rule: [`SweepMode::Parallel`]
/// runs point `idx` of every series on `derive_seed(effort.seed, idx)`,
/// [`SweepMode::FixedSeed`] runs every point on `effort.seed`.
#[must_use]
pub fn sweep(spec: &SweepSpec, effort: Effort) -> Vec<Series> {
    let curves = spec.series.len();
    let xs = spec.axis.xs();
    let points = run_grid(
        xs.len() * curves,
        effort.threads,
        |k| {
            let idx = k / curves;
            let seed = match spec.mode {
                SweepMode::Parallel => derive_seed(effort.seed, idx as u64),
                SweepMode::FixedSeed => effort.seed,
            };
            (spec.run_at(k % curves, idx, effort.messages), seed)
        },
        |k, outcome| SeriesPoint {
            x: xs[k / curves],
            p_loss: outcome.report.p_loss(),
            p_dup: outcome.report.p_dup(),
        },
    );
    spec.series
        .iter()
        .enumerate()
        .map(|(s, series)| Series {
            label: series.label.clone(),
            points: points.iter().skip(s).step_by(curves).copied().collect(),
        })
        .collect()
}

/// Eq. 2 — γ across the spec's semantics × batch grid at its fixed lossy
/// operating point.
#[must_use]
pub fn kpi_grid(spec: &KpiGridSpec, predictor: &dyn Predictor) -> Vec<(String, f64)> {
    let cal = Calibration::paper();
    let kpi = KpiModel::from_calibration(&cal);
    let mut point = spec.base.to_point();
    let mut rows = Vec::new();
    for &semantics in &spec.semantics {
        for &b in &spec.batch_sizes {
            (point.semantics, point.batch_size) = (semantics, b);
            let gamma = kpi.gamma(predictor, &Features::from(&point), &spec.weights);
            rows.push((format!("{semantics}, B={b}"), gamma));
        }
    }
    rows
}

/// Messages needed to span the trace at the scenario's mean rate.
fn messages_for(scenario: &ApplicationScenario, trace: &ConditionTimeline) -> u64 {
    let horizon = trace.last_change().saturating_since(SimTime::ZERO);
    let mean_rate = scenario.rate_timeline.iter().map(|(_, r)| *r).sum::<f64>()
        / scenario.rate_timeline.len().max(1) as f64;
    ((horizon.as_secs_f64() * mean_rate) as u64).max(100)
}

/// The network a planned experiment runs over, generated on `seed`.
pub(crate) fn generated_network(trace: &TraceConfig, seed: u64) -> ConditionTimeline {
    generate_trace(trace, &mut SimRng::seed_from_u64(seed))
        .expect("Spec::validate checks the generator configuration")
        .timeline
}

/// The online controller that plans `scenario` with `model` over `space`.
pub(crate) fn controller(
    model: ReliabilityModel,
    cal: &Calibration,
    space: SearchSpace,
    scenario: &ApplicationScenario,
) -> OnlineModelController<ReliabilityModel> {
    let timeliness_ms = scenario.timeliness.as_secs_f64() * 1e3;
    let (weights, requirement) = (scenario.weights, scenario.gamma_requirement);
    OnlineModelController::new(
        model,
        cal,
        space,
        weights,
        requirement,
        scenario.mean_size(),
        timeliness_ms,
    )
}

fn search_space(grid: &spec::ConfigGrid) -> SearchSpace {
    SearchSpace::try_from(grid).expect("Spec::validate checks the planner grid")
}

/// Table II — static default vs model-planned dynamic configuration per
/// application scenario, over the spec's generated network.
#[must_use]
pub fn table2(spec: &Table2Spec, predictor: &dyn Predictor, effort: Effort) -> Vec<Table2Row> {
    let cal = Calibration::paper();
    let trace = generated_network(&spec.trace, effort.seed);
    let interval = SimDuration::from_secs(spec.plan_interval_s);
    spec.scenarios
        .iter()
        .map(|scenario| {
            let n = messages_for(scenario, &trace);
            let default = run_scenario(
                scenario,
                &trace,
                &StaticPlanner(default_static_config(&cal)),
                &cal,
                n,
                interval,
                effort.seed,
            );
            let planner = ModelPlanner::new(predictor, &cal, search_space(&spec.grid))
                .with_mode(effort.planner_mode());
            let dynamic = run_scenario(scenario, &trace, &planner, &cal, n, interval, effort.seed);
            Table2Row {
                scenario: scenario.name.clone(),
                weights: scenario.weights,
                default,
                dynamic,
            }
        })
        .collect()
}

/// Figs. 4–6 overlay — compares fresh-seed measurements on the
/// evaluation sweep with the predictions of `model`, trained on the spec's
/// collection design. Returns the series plus the overlay MAE.
#[must_use]
pub fn overlay(spec: &OverlaySpec, model: &dyn Predictor, effort: Effort) -> (Vec<Series>, f64) {
    let cal = Calibration::paper();
    let mut series = Vec::new();
    let mut abs_err = 0.0;
    let mut n_err = 0usize;
    for &semantics in &spec.semantics {
        let points: Vec<_> = spec
            .sizes
            .iter()
            .map(|&m| {
                let mut p = spec.base.to_point();
                p.message_size = m;
                p.semantics = semantics;
                p
            })
            .collect();
        // Fresh seeds: these measurements are new "test data".
        let measured = run_sweep(
            &points,
            &cal,
            effort.messages,
            effort.seed.wrapping_add(spec.seed_offset),
            effort.threads,
        );
        series.push(Series {
            label: format!("measured, {semantics}"),
            points: spec
                .sizes
                .iter()
                .zip(&measured)
                .map(|(&m, r)| SeriesPoint {
                    x: m as f64,
                    p_loss: r.p_loss,
                    p_dup: r.p_dup,
                })
                .collect(),
        });
        series.push(Series {
            label: format!("predicted, {semantics}"),
            points: spec
                .sizes
                .iter()
                .zip(&measured)
                .map(|(&m, r)| {
                    let p = model.predict(&Features::from(&r.point));
                    abs_err += (p.p_loss - r.p_loss).abs();
                    n_err += 1;
                    SeriesPoint {
                        x: m as f64,
                        p_loss: p.p_loss,
                        p_dup: p.p_dup,
                    }
                })
                .collect(),
        });
    }
    (series, abs_err / n_err as f64)
}

/// §III-D — the ±50 % feature-sensitivity report around the spec's base
/// point.
#[must_use]
pub fn sensitivity(spec: &SensitivitySpec, effort: Effort) -> Vec<SensitivityRow> {
    let cal = Calibration::paper();
    testbed::sensitivity::analyze(
        &spec.base.to_point(),
        &cal,
        effort.messages,
        effort.seed,
        effort.threads,
    )
}

/// EXT-4 — runs the full `acks` × failure-scenario matrix, every cell
/// on the base seed, on [`run_grid`] with `effort.threads` workers.
///
/// # Panics
///
/// Panics on producer, replication or fault settings [`Spec::validate`]
/// refuses.
#[must_use]
pub fn broker_fault_matrix(spec: &BrokerFaultMatrixSpec, effort: Effort) -> Vec<BrokerFaultRow> {
    let n = effort.messages.min(spec.max_messages);
    let width = spec.scenarios.len();
    let cell = |k: usize| (&spec.acks[k / width], &spec.scenarios[k % width]);
    run_grid(
        spec.acks.len() * width,
        effort.threads,
        |k| {
            let (acks, scenario) = cell(k);
            let mut run = RunSpec {
                source: SourceSpec::fixed_rate(n, spec.message_size, spec.rate_hz),
                ..RunSpec::default()
            };
            run.cluster.partitions = spec.partitions;
            run.cluster.replication.factor = scenario.replication_factor;
            if let Some(ms) = scenario.lag_time_max_ms {
                run.cluster.replication.lag_time_max = SimDuration::from_millis(ms);
            }
            if let Some(records) = scenario.max_fetch_records {
                run.cluster.replication.max_fetch_records = records;
            }
            run.cluster.replication.allow_unclean = scenario.allow_unclean;
            run.producer = ProducerConfig::builder()
                .semantics(acks.semantics)
                .message_timeout(SimDuration::from_millis(spec.message_timeout_ms))
                .max_in_flight(spec.max_in_flight)
                .build()
                .expect("Spec::validate refuses a zero message timeout or in-flight limit");
            for fault in &scenario.faults {
                run.faults.push(BrokerFault::crash(
                    BrokerId(fault.broker),
                    SimTime::from_millis(fault.at_ms),
                    SimDuration::from_millis(fault.down_ms),
                ));
            }
            run.failover_after = scenario.failover_after_ms.map(SimDuration::from_millis);
            (run, effort.seed)
        },
        |k, outcome| {
            let (acks, scenario) = cell(k);
            BrokerFaultRow {
                acks: acks.label.clone(),
                scenario: scenario.name.clone(),
                p_loss: outcome.report.p_loss(),
                p_dup: outcome.report.p_dup(),
                lost: outcome.report.lost,
                broker_caused: outcome
                    .report
                    .loss_reasons
                    .get(&LossReason::LeaderFailover)
                    .copied()
                    .unwrap_or(0),
                clean_elections: outcome.brokers.clean_elections,
                unclean_elections: outcome.brokers.unclean_elections,
            }
        },
    )
}

/// EXT-3 — static default vs offline planner vs online feedback
/// controller on the spec's scenario and generated network.
#[must_use]
pub fn online_compare(
    spec: &OnlineCompareSpec,
    model: ReliabilityModel,
    effort: Effort,
) -> Vec<ExtOnlineRow> {
    use kafkasim::runtime::OnlineSpec;
    use std::sync::Arc;

    let cal = Calibration::paper();
    let trace = generated_network(&spec.trace, effort.seed);
    let scenario = &spec.scenario;
    let n = messages_for(scenario, &trace);
    let interval = SimDuration::from_secs(spec.plan_interval_s);
    let mut rows = Vec::new();

    let default_cfg = default_static_config(&cal);
    rows.push(ExtOnlineRow {
        mode: "static default".to_string(),
        report: run_scenario(
            scenario,
            &trace,
            &StaticPlanner(default_cfg.clone()),
            &cal,
            n,
            interval,
            effort.seed,
        ),
        planner_metrics: None,
    });

    let offline =
        ModelPlanner::new(&model, &cal, search_space(&spec.grid)).with_mode(effort.planner_mode());
    rows.push(ExtOnlineRow {
        mode: "offline dynamic (network known)".to_string(),
        report: run_scenario(scenario, &trace, &offline, &cal, n, interval, effort.seed),
        planner_metrics: None,
    });

    // The online controller sees only the producer's own statistics; it
    // owns its copy of the model (the runtime may consult it from a shared
    // handle).
    let controller = controller(model, &cal, search_space(&spec.grid), scenario);
    let (report, _, metrics) = run_scenario_online(
        scenario,
        &trace,
        default_cfg,
        OnlineSpec {
            interval: SimDuration::from_secs(spec.online_interval_s),
            controller: Arc::new(controller),
        },
        &cal,
        n,
        effort.seed,
        Box::new(NoopSink),
        Profiler::disabled(),
    );
    rows.push(ExtOnlineRow {
        mode: "online dynamic (network estimated)".to_string(),
        report,
        planner_metrics: Some(metrics),
    });
    rows
}

/// CPL-1 — runs every policy of the spec head-to-head over the same
/// spliced regime-shift network: base generator parameters up to
/// `shift_at_s`, shifted parameters after, one continuous random stream.
/// Each policy's γ-error trace is split at the shift point.
///
/// # Panics
///
/// Panics on generator configurations [`Spec::validate`] refuses.
#[must_use]
pub fn regime_shift(
    spec: &RegimeShiftSpec,
    model: ReliabilityModel,
    effort: Effort,
) -> Vec<RegimeShiftRow> {
    use kafkasim::runtime::OnlineSpec;
    use std::sync::Arc;

    let cal = Calibration::paper();
    let trace = generate_regime_shift(
        &spec.trace,
        &spec.shifted,
        SimDuration::from_secs(spec.shift_at_s),
        &mut SimRng::seed_from_u64(effort.seed),
    )
    .expect("Spec::validate splices the two generator configurations")
    .timeline;
    let scenario = &spec.scenario;
    let n = messages_for(scenario, &trace);
    let shift_s = spec.shift_at_s as f64;
    let timeliness_ms = scenario.timeliness.as_secs_f64() * 1e3;

    spec.policies
        .iter()
        .map(|entry| {
            let policy: Arc<dyn Policy> = match entry.kind {
                PolicyKind::Frozen => Arc::new(FrozenPolicy::new(
                    controller(model.clone(), &cal, search_space(&spec.grid), scenario),
                    &cal,
                    scenario.weights,
                )),
                PolicyKind::OnlineAdaptive => Arc::new(OnlineAdaptivePolicy::new(
                    model.clone(),
                    &cal,
                    search_space(&spec.grid),
                    scenario.weights,
                    scenario.gamma_requirement,
                    scenario.mean_size(),
                    timeliness_ms,
                    entry.adaptive.unwrap_or_default(),
                )),
                PolicyKind::Bandit => Arc::new(BanditPolicy::new(
                    &cal,
                    &search_space(&spec.grid),
                    scenario.weights,
                    scenario.mean_size(),
                    timeliness_ms,
                    entry.bandit.unwrap_or_default(),
                )),
            };
            let (report, _, metrics) = run_scenario_online(
                scenario,
                &trace,
                default_static_config(&cal),
                OnlineSpec {
                    interval: SimDuration::from_secs(spec.online_interval_s),
                    controller: policy.clone(),
                },
                &cal,
                n,
                effort.seed,
                Box::new(NoopSink),
                Profiler::disabled(),
            );
            let gamma = policy.gamma_trace();
            let mean_err = |post: bool| {
                let errs: Vec<f64> = gamma
                    .iter()
                    .filter(|s| (s.at_s >= shift_s) == post)
                    .map(GammaSample::gamma_err)
                    .collect();
                (!errs.is_empty()).then(|| errs.iter().sum::<f64>() / errs.len() as f64)
            };
            RegimeShiftRow {
                policy: policy.kind().to_string(),
                report,
                planner_metrics: metrics,
                generation: policy.generation(),
                pre_shift_err: mean_err(false),
                post_shift_err: mean_err(true),
                gamma,
            }
        })
        .collect()
}

/// Builds the [`RunSpec`] of one traced demo scenario.
///
/// # Panics
///
/// Panics on producer settings [`Spec::validate`] refuses.
#[must_use]
pub fn trace_run_spec(scenario: &TraceScenarioSpec) -> RunSpec {
    let mut run = RunSpec {
        source: SourceSpec::fixed_rate(scenario.messages, scenario.message_size, scenario.rate_hz),
        ..RunSpec::default()
    };
    let mut producer = ProducerConfig::builder().semantics(scenario.semantics);
    if let Some(rt) = scenario.request_timeout_ms {
        producer = producer.request_timeout(SimDuration::from_millis(rt));
    }
    run.producer = producer
        .message_timeout(SimDuration::from_millis(scenario.message_timeout_ms))
        .build()
        .expect("Spec::validate refuses a zero message or request timeout");
    run.network = ConditionTimeline::constant(NetCondition::new(
        SimDuration::from_millis(scenario.delay_ms),
        scenario.loss_rate,
    ));
    run
}

/// Takes a traced run's events out of its sink. When a ring was too small
/// for the run, says on stderr how many of the oldest events it dropped,
/// since whatever is built from the rest covers only the end of `run`.
pub fn drain_trace(sink: &mut dyn TraceSink, run: impl std::fmt::Display) -> Vec<TraceEvent> {
    let dropped = sink.dropped();
    if dropped > 0 {
        eprintln!(
            "warning: {run}: the trace ring was full and dropped its {dropped} oldest \
             events; what is built from the trace covers only the rest of the run"
        );
    }
    sink.drain()
}

/// Fleet figure — runs the same producer population and consumer group
/// under every requested partitioning strategy, recording partition
/// skew, rebalance storms, and per-class reliability.
///
/// The spec fixes the fleet's scale (the committed `scenarios/fleet.toml`
/// runs 1200 producers across three Table II stream types); the effort
/// level contributes only the seed, so `--quick` and full runs exercise
/// the identical fleet.
///
/// Consumer-group trace events are counted out of a ring sized from the
/// churn script, so a long script cannot overflow it and under-count.
///
/// # Panics
///
/// Panics on a population [`Spec::validate`] refuses.
#[must_use]
pub fn fleet(spec: &FleetSpec, effort: Effort) -> Vec<FleetStrategyRow> {
    let entries: Vec<PopulationEntry> = spec
        .population
        .iter()
        .map(|e| {
            let scenario =
                ApplicationScenario::by_slug(&e.class).expect("Spec::validate checks each slug");
            PopulationEntry {
                class: scenario.stream_class(e.rate_hz),
                weight: e.weight,
            }
        })
        .collect();
    let population = Population::new(entries).expect("Spec::validate checks the population mix");
    let duration = SimDuration::from_secs(spec.duration_s);
    let churn: Vec<ChurnEvent> = spec
        .churn
        .iter()
        .map(|c| ChurnEvent {
            at: SimTime::ZERO + SimDuration::from_secs(c.at_s),
            action: c.action,
            member: c.member,
        })
        .collect();

    spec.partitioners
        .iter()
        .map(|&strategy| {
            let cfg = FleetConfig {
                producers: spec.producers,
                partitions: spec.partitions,
                strategy,
                population: population.clone(),
                initial_consumers: spec.consumers,
                assignor: spec.assignor,
                churn: churn.clone(),
                duration,
                window: SimDuration::from_millis(spec.window_ms),
                partition_capacity_hz: spec.partition_capacity_hz,
                base_loss: spec.base_loss,
                rebalance_pause: SimDuration::from_millis(spec.rebalance_pause_ms),
            };
            // One join/leave event a churn step plus one assignment per
            // member, and no step can leave more members than the initial
            // group plus one join per step.
            let steps = spec.churn.len();
            let ring = (steps + 1) * (spec.consumers as usize + steps + 1);
            let (outcome, mut sink) =
                FleetRun::new(cfg, effort.seed).execute_traced(Box::new(RingBufferSink::new(ring)));
            let events = drain_trace(sink.as_mut(), format_args!("fleet, {}", strategy.name()));
            let group_trace_events = events
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        TraceEvent::ConsumerJoined { .. }
                            | TraceEvent::ConsumerLeft { .. }
                            | TraceEvent::PartitionsAssigned { .. }
                    )
                })
                .count() as u64;
            let gammas = fleet_gammas(
                &outcome,
                spec.partitions,
                spec.partition_capacity_hz,
                duration,
            );
            let classes = outcome
                .classes
                .iter()
                .zip(&gammas)
                .map(|(c, g)| {
                    debug_assert_eq!(c.class, g.class, "fleet_gammas keeps the class order");
                    // Nothing produced loses nothing, and nothing appended
                    // duplicates nothing: an empty class reads 0.
                    let lost = c.lost_network + c.lost_overload;
                    let appended = c.delivered + c.duplicated;
                    FleetClassRow {
                        class: c.class.clone(),
                        producers: c.producers,
                        produced: c.produced,
                        delivered: c.delivered,
                        lost_network: c.lost_network,
                        lost_overload: c.lost_overload,
                        duplicated: c.duplicated,
                        p_loss: lost as f64 / c.produced.max(1) as f64,
                        p_dup: c.duplicated as f64 / appended.max(1) as f64,
                        gamma: g.gamma,
                        gamma_requirement: g.requirement,
                        gamma_met: g.met(),
                    }
                })
                .collect();
            FleetStrategyRow {
                strategy: strategy.name().to_string(),
                skew: outcome.skew(),
                produced: outcome.totals.produced,
                delivered: outcome.totals.delivered,
                lost: outcome.totals.lost(),
                duplicated: outcome.totals.duplicated,
                rebalances: outcome.rebalances.len() as u64,
                moved_partitions: outcome
                    .rebalances
                    .iter()
                    .map(|r| r.moved.len() as u64)
                    .sum(),
                group_trace_events,
                partition_appends: outcome.partition_appends.clone(),
                classes,
                windows: outcome.windows,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Running one document
// ---------------------------------------------------------------------------

/// What one scenario document renders to: the text `repro` prints, the
/// value it prints under `--json`, and, for a trace demo given a trace-out
/// base, each run's events with the JSONL file they go to.
#[derive(Debug)]
pub struct Rendered {
    /// The target's text: header, body, closing blank line.
    pub text: String,
    /// The target's machine-readable output.
    pub json: Value,
    /// `(path, events)` per traced run to write, in run order. The text
    /// already says each was written and read back, so a caller that
    /// cannot do both must not print it.
    pub traces: Vec<(String, Vec<TraceEvent>)>,
}

/// The one trained model of a process, with the collection design it was
/// trained on: the first document that needs a model trains it, and a
/// later one on the same design reuses it, so `repro all` collects and
/// trains once.
#[derive(Debug)]
pub struct ModelMemo {
    options: TrainOptions,
    /// Results loaded from the named file, trained on in place of a
    /// collection sweep.
    data: Option<(String, Vec<ExperimentResult>)>,
    trained: Option<(CollectionDesign, TrainedModel)>,
    /// The last collection sweep's results, until taken.
    collected: Option<Vec<ExperimentResult>>,
}

impl ModelMemo {
    /// An empty memo that trains the paper's [`TrainOptions::paper`], or
    /// [`figures::quick_train_options`] when `quick`, on `data` (results
    /// and the file they came from) when given, else on a collection sweep.
    #[must_use]
    pub fn new(quick: bool, data: Option<(String, Vec<ExperimentResult>)>) -> Self {
        let options = if quick {
            figures::quick_train_options()
        } else {
            TrainOptions::paper()
        };
        ModelMemo {
            options,
            data,
            trained: None,
            collected: None,
        }
    }

    /// The results of the last collection sweep this memo ran, once.
    pub fn take_collected(&mut self) -> Option<Vec<ExperimentResult>> {
        self.collected.take()
    }

    /// The loaded results, or a collection sweep over `design`.
    fn training_results(&self, design: &CollectionDesign, effort: Effort) -> Vec<ExperimentResult> {
        self.data.as_ref().map_or_else(
            || collect_training(design, effort),
            |(_, results)| results.clone(),
        )
    }

    /// The model trained on `design`, trained now unless the memo holds it.
    ///
    /// # Errors
    ///
    /// Returns the trainer's reason, prefixed with where the results came
    /// from, when they cannot train a model.
    pub fn model_for(
        &mut self,
        design: &CollectionDesign,
        effort: Effort,
    ) -> Result<&TrainedModel, String> {
        if !matches!(&self.trained, Some((trained_on, _)) if trained_on == design) {
            let results = self.training_results(design, effort);
            let source = self
                .data
                .as_ref()
                .map_or("the collection sweep", |(path, _)| path);
            let trained = train_model(&results, &self.options, effort.seed)
                .map_err(|e| format!("{source}: cannot train the model: {e}"))?;
            if self.data.is_none() {
                self.collected = Some(results);
            }
            self.trained = Some((design.clone(), trained));
        }
        Ok(&self
            .trained
            .as_ref()
            .expect("trained above unless it held the design")
            .1)
    }

    /// [`ModelMemo::model_for`] on [`figures::training_design`] for a
    /// document that plans with the model, saying on stderr when training
    /// starts and what follows it.
    fn planning_model(
        &mut self,
        doc: &Spec,
        effort: Effort,
        then: &str,
    ) -> Result<&TrainedModel, String> {
        eprintln!("{}: training the prediction model first...", doc.name);
        let trained = self.model_for(&figures::training_design(), effort)?;
        eprintln!(
            "{}: model trained (worst-head MAE {:.4}); {then}...",
            doc.name,
            trained.worst_mae()
        );
        Ok(trained)
    }
}

/// Runs one scenario document at `effort` and renders its target, the one
/// run path of every `repro` target: the text in [`crate::render`], the
/// JSON beside it. A document that predicts or plans takes its model from
/// `memo`. A trace demo given `trace_out` (`base.jsonl`) keeps each run's
/// events for `base-<tag>.jsonl`.
///
/// # Errors
///
/// Returns a message naming the document when it fails validation, or
/// naming the training data when they cannot train a model.
pub fn run_document(
    doc: &Spec,
    effort: Effort,
    memo: &mut ModelMemo,
    trace_out: Option<&str>,
) -> Result<Rendered, String> {
    doc.validate().map_err(|e| format!("{}: {e}", doc.name))?;
    let mut traces = Vec::new();
    let (body, json) = match &doc.experiment {
        ExperimentSpec::Table1(spec) => {
            let rows = table1(spec);
            let json = rows.iter().map(
                |(case, path, ok)| json!({"case": case.to_string(), "path": path, "verified": ok}),
            );
            (render::table1(&rows), Value::Seq(json.collect()))
        }
        ExperimentSpec::Collection(design) => {
            let sizes @ (normal, abnormal, faults) = design.sizes();
            let json = json!({"normal_points": normal, "abnormal_points": abnormal, "broker_fault_points": faults});
            (render::collection(sizes), json)
        }
        ExperimentSpec::Sweep(spec) => {
            let series = sweep(spec, effort);
            let body = render::series_body(&spec.x_label, &spec.metric, &series);
            (body, to_value(&series))
        }
        ExperimentSpec::NetworkTrace(spec) => {
            let trace = network_trace(spec, effort.seed);
            (render::fig9(&trace), to_value(&trace))
        }
        ExperimentSpec::Train(spec) => {
            let trained = memo.model_for(&spec.collection, effort)?;
            let (amo, alo, all, worst_mae) =
                (trained.amo, trained.alo, trained.all, trained.worst_mae());
            let json = json!({"amo": amo, "alo": alo, "all": all, "worst_mae": worst_mae});
            (render::ann(trained), json)
        }
        ExperimentSpec::KpiGrid(spec) => {
            let rows = kpi_grid(spec, &figures::heuristic_predictor());
            let json = rows
                .iter()
                .map(|(label, g)| json!({"config": label, "gamma": g}));
            (render::kpi(&rows), Value::Seq(json.collect()))
        }
        ExperimentSpec::Table2(spec) => {
            let trained = memo.planning_model(doc, effort, "running scenarios")?;
            let rows = table2(spec, &trained.model, effort);
            (render::table2_body(&rows), to_value(&rows))
        }
        ExperimentSpec::Overlay(spec) => {
            let trained = memo.model_for(&spec.collection, effort)?;
            let (series, mae) = overlay(spec, &trained.model, effort);
            (render::overlay(&series, mae), to_value(&series))
        }
        ExperimentSpec::Sensitivity(spec) => {
            let rows = sensitivity(spec, effort);
            (render::sensitivity(&rows, spec.threshold), to_value(&rows))
        }
        ExperimentSpec::BrokerFaultMatrix(spec) => {
            let rows = broker_fault_matrix(spec, effort);
            (render::broker_faults(&rows), to_value(&rows))
        }
        ExperimentSpec::Online(spec) => {
            let trained = memo.planning_model(doc, effort, "running control modes")?;
            let rows = online_compare(spec, trained.model.clone(), effort);
            (render::ext_online(&rows), to_value(&rows))
        }
        ExperimentSpec::TraceDemo(spec) => {
            let mut body = String::new();
            let mut json = Vec::new();
            for scenario in &spec.scenarios {
                let traced = TracedRun::demo(scenario);
                let written = trace_out.map(|base| trace_path(base, &scenario.tag));
                body +=
                    &render::trace_run(&scenario.label, scenario.seed, &traced, written.as_deref());
                json.push(json!({
                    "scenario": scenario.label,
                    "seed": scenario.seed,
                    "events": traced.events.len(),
                    "report": traced.outcome.report,
                    "lost_by_cause": traced.lost_by_cause(),
                    "fully_explained": traced.audit.fully_explains(),
                    "trace_file": written,
                }));
                if let Some(path) = written {
                    traces.push((path, traced.events));
                }
            }
            (body, to_value(&json))
        }
        ExperimentSpec::Fleet(spec) => {
            let rows = fleet(spec, effort);
            (render::fleet(spec, &rows), to_value(&rows))
        }
        ExperimentSpec::RegimeShift(spec) => {
            let then = format!(
                "running {} policies over the regime shift",
                spec.policies.len()
            );
            let trained = memo.planning_model(doc, effort, &then)?;
            let rows = regime_shift(spec, trained.model.clone(), effort);
            let body = render::regime_shift(&doc.title, spec.shift_at_s, &rows);
            (body, to_value(&rows))
        }
    };
    let title = match doc.experiment {
        ExperimentSpec::Table2(_) => render::TABLE2_CAPTION,
        _ => &doc.title,
    };
    Ok(Rendered {
        text: render::document(title, &body),
        json,
        traces,
    })
}

/// `base.jsonl` + `amo` → `base-amo.jsonl`.
fn trace_path(base: &str, tag: &str) -> String {
    match base.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() => format!("{stem}-{tag}.{ext}"),
        _ => format!("{base}-{tag}.jsonl"),
    }
}
