//! The spec executor: materialises a declarative [`spec::Spec`] into the
//! figure/table data the `repro` binary prints.
//!
//! Every function here consumes one [`spec::ExperimentSpec`] variant and
//! produces the same plain-data output type the legacy hand-wired
//! builders returned, so spec-driven runs are bit-identical to the
//! pre-spec code paths (the equivalence tests pin this).

use desim::{SimDuration, SimRng, SimTime};
use kafka_predict::prelude::*;
use kafkasim::broker::BrokerId;
use kafkasim::config::ProducerConfig;
use kafkasim::fleet::{ChurnEvent, FleetConfig, FleetRun, Population, PopulationEntry};
use kafkasim::runtime::{BrokerFault, RunSpec};
use kafkasim::source::SourceSpec;
use kafkasim::LossReason;
use netsim::trace::{generate_regime_shift, generate_trace, NetworkTrace};
use netsim::{ConditionTimeline, NetCondition};
use obs::{NoopSink, Profiler, RingBufferSink, TraceEvent, TraceSink};
use spec::{
    BrokerFaultMatrixSpec, CollectionDesign, FleetSpec, KpiGridSpec, NetworkTraceSpec,
    OnlineCompareSpec, OverlaySpec, PolicyKind, RegimeShiftSpec, SensitivitySpec, SweepMode,
    SweepSpec, Table1Spec, Table2Spec, TraceDemoSpec, TraceScenarioSpec,
};
use testbed::dynamic::{default_static_config, run_scenario, run_scenario_online, StaticPlanner};
use testbed::scenarios::ApplicationScenario;
use testbed::sensitivity::SensitivityRow;
use testbed::sweep::{derive_seed, run_grid, run_sweep};
use testbed::ExperimentResult;

use crate::figures::{
    BrokerFaultRow, Effort, ExtOnlineRow, FleetClassRow, FleetStrategyRow, RegimeShiftRow, Series,
    SeriesPoint, Table2Row,
};

/// Table I — replays every scripted transition path through the
/// executable state machine and reports whether it lands in its declared
/// case.
///
/// # Panics
///
/// Panics when a scripted path contains an illegal transition.
#[must_use]
pub fn table1(spec: &Table1Spec) -> Vec<(kafkasim::state::DeliveryCase, String, bool)> {
    use kafkasim::state::StateMachine;
    spec.cases
        .iter()
        .map(|case| {
            let mut sm = StateMachine::new();
            for &t in &case.transitions {
                sm.apply(t).expect("scripted path is legal");
            }
            (case.case, case.path.clone(), sm.case() == Some(case.case))
        })
        .collect()
}

/// Fig. 3 — grid sizes per case family of the collection design.
#[must_use]
pub fn collection_sizes(design: &CollectionDesign) -> (usize, usize, usize) {
    design.sizes()
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
/// Panics when the generator configuration is invalid (validated specs
/// never are).
#[must_use]
pub fn network_trace(spec: &NetworkTraceSpec, seed: u64) -> NetworkTrace {
    generate_trace(&spec.trace, &mut SimRng::seed_from_u64(seed)).expect("trace config is valid")
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
    let base = &spec.base;
    let mut rows = Vec::new();
    for &semantics in &spec.semantics {
        for &b in &spec.batch_sizes {
            let f = Features {
                message_size: base.message_size,
                timeliness_ms: base.timeliness_ms.map_or(0.0, |t| t as f64),
                delay_ms: base.delay_ms as f64,
                loss_rate: base.loss_rate,
                semantics,
                batch_size: b,
                poll_interval_ms: base.poll_interval_ms as f64,
                message_timeout_ms: base.message_timeout_ms as f64,
                replication_factor: base.replication_factor,
                fault_downtime_ms: base.fault_downtime_ms as f64,
                allow_unclean: base.allow_unclean,
            };
            let gamma = kpi.gamma(predictor, &f, &spec.weights);
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

fn search_space(grid: &spec::ConfigGrid) -> SearchSpace {
    SearchSpace::try_from(grid).expect("validated specs carry a usable planner grid")
}

/// Table II — static default vs model-planned dynamic configuration per
/// application scenario, over the spec's generated network.
#[must_use]
pub fn table2(spec: &Table2Spec, predictor: &dyn Predictor, effort: Effort) -> Vec<Table2Row> {
    let cal = Calibration::paper();
    let trace = network_trace(
        &NetworkTraceSpec {
            trace: spec.trace.clone(),
        },
        effort.seed,
    )
    .timeline;
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
/// Panics when a spec's producer settings do not form a valid
/// configuration (validated specs always do).
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
                .expect("valid producer config");
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
    let trace = network_trace(
        &NetworkTraceSpec {
            trace: spec.trace.clone(),
        },
        effort.seed,
    )
    .timeline;
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
    let controller = OnlineModelController::new(
        model.clone(),
        &cal,
        search_space(&spec.grid),
        scenario.weights,
        scenario.gamma_requirement,
        scenario.mean_size(),
        scenario.timeliness.as_secs_f64() * 1e3,
    );
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
/// Panics when the spec's generator configurations cannot be spliced
/// (validated specs always can).
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
    .expect("validated specs splice")
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
                    OnlineModelController::new(
                        model.clone(),
                        &cal,
                        search_space(&spec.grid),
                        scenario.weights,
                        scenario.gamma_requirement,
                        scenario.mean_size(),
                        timeliness_ms,
                    ),
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
                    entry
                        .adaptive
                        .map_or_else(AdaptiveConfig::default, |a| AdaptiveConfig {
                            drift_window: a.drift_window,
                            drift_threshold: a.drift_threshold,
                            refit_steps: a.refit_steps,
                            learning_rate: a.learning_rate,
                            replay_capacity: a.replay_capacity,
                        }),
                )),
                PolicyKind::Bandit => Arc::new(BanditPolicy::new(
                    &cal,
                    &search_space(&spec.grid),
                    scenario.weights,
                    scenario.mean_size(),
                    timeliness_ms,
                    entry
                        .bandit
                        .map_or_else(BanditConfig::default, |b| BanditConfig {
                            exploration: b.exploration,
                        }),
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
/// Panics when the scenario's producer settings do not form a valid
/// configuration (validated specs always do).
#[must_use]
pub(crate) fn trace_run_spec(scenario: &TraceScenarioSpec) -> RunSpec {
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
        .expect("valid producer config");
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

/// Accessor so callers holding only a [`TraceDemoSpec`] can iterate its
/// runs in declaration order.
#[must_use]
pub fn trace_runs(spec: &TraceDemoSpec) -> Vec<(String, String, RunSpec, u64)> {
    spec.scenarios
        .iter()
        .map(|s| (s.tag.clone(), s.label.clone(), trace_run_spec(s), s.seed))
        .collect()
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
/// Panics when the spec fails its own validation invariants (validated
/// specs never do).
#[must_use]
pub fn fleet(spec: &FleetSpec, effort: Effort) -> Vec<FleetStrategyRow> {
    let entries: Vec<PopulationEntry> = spec
        .population
        .iter()
        .map(|e| {
            let scenario =
                ApplicationScenario::by_slug(&e.class).expect("validated stream-class slug");
            PopulationEntry {
                class: scenario.stream_class(e.rate_hz),
                weight: e.weight,
            }
        })
        .collect();
    let population = Population::new(entries).expect("validated population mix");
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
                    debug_assert_eq!(c.class, g.class);
                    let appended = c.delivered + c.duplicated;
                    FleetClassRow {
                        class: c.class.clone(),
                        producers: c.producers,
                        produced: c.produced,
                        delivered: c.delivered,
                        lost_network: c.lost_network,
                        lost_overload: c.lost_overload,
                        duplicated: c.duplicated,
                        p_loss: if c.produced == 0 {
                            0.0
                        } else {
                            (c.lost_network + c.lost_overload) as f64 / c.produced as f64
                        },
                        p_dup: if appended == 0 {
                            0.0
                        } else {
                            c.duplicated as f64 / appended as f64
                        },
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
