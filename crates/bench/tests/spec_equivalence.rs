//! Equivalence pins: the spec-driven executor must reproduce the
//! hand-wired experiment construction it replaced, bit for bit.
//!
//! Each test re-states the deleted legacy wiring inline (literals copied
//! from the pre-refactor `bench::figures`/`repro`) and asserts the
//! declarative path produces identical output at a reduced message count.

use bench::exec;
use bench::figures::Effort;
use desim::SimDuration;
use kafka_predict::prelude::*;
use kafkasim::config::{DeliverySemantics, ProducerConfig};
use kafkasim::runtime::{KafkaRun, RunSpec};
use kafkasim::source::SourceSpec;
use netsim::{ConditionTimeline, NetCondition};
use spec::{ExperimentSpec, Spec};
use testbed::experiment::ExperimentPoint;
use testbed::sweep::run_sweep;
use testbed::Calibration;

fn small_effort() -> Effort {
    Effort {
        messages: 300,
        threads: 2,
        seed: 42,
        grid_planner: false,
    }
}

fn builtin_sweep(name: &str) -> spec::SweepSpec {
    match Spec::builtin(name).expect("builtin exists").experiment {
        ExperimentSpec::Sweep(s) => s,
        other => panic!("{name} is not a sweep: {other:?}"),
    }
}

/// Fig. 6, a `Parallel` sweep: the executor must equal one `run_sweep`
/// call per series over the legacy `ExperimentPoint` literals, with the
/// effort's base seed for every series.
#[test]
fn fig6_parallel_sweep_matches_legacy_wiring() {
    let effort = small_effort();
    let via_spec = exec::sweep(&builtin_sweep("fig6"), effort);

    let cal = Calibration::paper();
    let deltas = [0u64, 10, 20, 30, 40, 50, 60, 70, 80, 90];
    let legacy: Vec<Vec<(f64, f64, f64)>> = [
        DeliverySemantics::AtMostOnce,
        DeliverySemantics::AtLeastOnce,
    ]
    .into_iter()
    .map(|semantics| {
        let points: Vec<ExperimentPoint> = deltas
            .iter()
            .map(|&d| ExperimentPoint {
                message_size: 100,
                timeliness: None,
                delay: SimDuration::from_millis(1),
                loss_rate: 0.0,
                semantics,
                batch_size: 1,
                poll_interval: SimDuration::from_millis(d),
                message_timeout: SimDuration::from_millis(500),
                ..ExperimentPoint::default()
            })
            .collect();
        run_sweep(&points, &cal, effort.messages, effort.seed, effort.threads)
            .into_iter()
            .zip(deltas)
            .map(|(r, d)| (d as f64, r.p_loss, r.p_dup))
            .collect()
    })
    .collect();

    assert_eq!(via_spec.len(), legacy.len());
    for (series, expected) in via_spec.iter().zip(&legacy) {
        let got: Vec<(f64, f64, f64)> = series
            .points
            .iter()
            .map(|p| (p.x, p.p_loss, p.p_dup))
            .collect();
        assert_eq!(&got, expected, "series {}", series.label);
    }
}

/// ABL-2, a `FixedSeed` sweep with a calibration override: the executor
/// must apply `jittered_service` before building each run spec and use
/// the same seed for every point, exactly as the legacy loop did.
#[test]
fn ablation_jitter_fixed_seed_matches_legacy_wiring() {
    let mut effort = small_effort();
    effort.messages = 500;
    let via_spec = exec::sweep(&builtin_sweep("ablation-jitter"), effort);

    let timeouts = [200u64, 400, 800, 1500, 3000];
    let legacy: Vec<Vec<(f64, f64, f64)>> = [true, false]
        .into_iter()
        .map(|jitter| {
            let mut cal = Calibration::paper();
            cal.host.jittered_service = jitter;
            timeouts
                .iter()
                .map(|&t| {
                    let point = ExperimentPoint {
                        message_size: 620,
                        timeliness: None,
                        delay: SimDuration::from_millis(1),
                        loss_rate: 0.0,
                        semantics: DeliverySemantics::AtLeastOnce,
                        batch_size: 1,
                        poll_interval: SimDuration::ZERO,
                        message_timeout: SimDuration::from_millis(t),
                        ..ExperimentPoint::default()
                    };
                    let spec = point.to_run_spec(&cal, effort.messages.min(10_000));
                    let outcome = KafkaRun::new(spec, effort.seed).execute();
                    (t as f64, outcome.report.p_loss(), outcome.report.p_dup())
                })
                .collect()
        })
        .collect();

    assert_eq!(via_spec.len(), legacy.len());
    for (series, expected) in via_spec.iter().zip(&legacy) {
        let got: Vec<(f64, f64, f64)> = series
            .points
            .iter()
            .map(|p| (p.x, p.p_loss, p.p_dup))
            .collect();
        assert_eq!(&got, expected, "series {}", series.label);
    }
}

/// Eq. 2: γ values from the declarative grid must equal the legacy
/// constant-folded `Features` literals.
#[test]
fn kpi_grid_matches_legacy_wiring() {
    let grid = match Spec::builtin("kpi").expect("builtin exists").experiment {
        ExperimentSpec::KpiGrid(g) => g,
        other => panic!("kpi is not a grid: {other:?}"),
    };
    let predictor = bench::figures::heuristic_predictor();
    let via_spec = exec::kpi_grid(&grid, &predictor);

    let cal = Calibration::paper();
    let kpi = KpiModel::from_calibration(&cal);
    let weights = testbed::scenarios::KpiWeights::paper_default();
    let mut legacy = Vec::new();
    for semantics in [
        DeliverySemantics::AtMostOnce,
        DeliverySemantics::AtLeastOnce,
    ] {
        for b in [1usize, 2, 4, 8] {
            let f = Features {
                message_size: 200,
                delay_ms: 100.0,
                loss_rate: 0.13,
                semantics,
                batch_size: b,
                poll_interval_ms: 70.0,
                message_timeout_ms: 2_000.0,
                ..Features::default()
            };
            legacy.push((
                format!("{semantics}, B={b}"),
                kpi.gamma(&predictor, &f, &weights),
            ));
        }
    }
    assert_eq!(via_spec, legacy);
}

/// The trace-demo scenarios: the run specs materialised from the spec
/// must be structurally identical (same Debug rendering — `RunSpec` has
/// no `PartialEq`) to the legacy inline construction, with the same tags,
/// labels, and seeds.
#[test]
fn trace_demo_run_specs_match_legacy_wiring() {
    let demo = match Spec::builtin("trace").expect("builtin exists").experiment {
        ExperimentSpec::TraceDemo(d) => d,
        other => panic!("trace is not a demo: {other:?}"),
    };
    let lossy = {
        let mut spec = RunSpec {
            source: SourceSpec::fixed_rate(1_000, 200, 500.0),
            ..RunSpec::default()
        };
        spec.producer = ProducerConfig::builder()
            .semantics(DeliverySemantics::AtMostOnce)
            .message_timeout(SimDuration::from_millis(2_000))
            .build()
            .expect("valid config");
        spec.network =
            ConditionTimeline::constant(NetCondition::new(SimDuration::from_millis(100), 0.30));
        spec
    };
    let duplicating = {
        let mut spec = RunSpec {
            source: SourceSpec::fixed_rate(2_000, 200, 500.0),
            ..RunSpec::default()
        };
        spec.producer = ProducerConfig::builder()
            .semantics(DeliverySemantics::AtLeastOnce)
            .request_timeout(SimDuration::from_millis(400))
            .message_timeout(SimDuration::from_millis(5_000))
            .build()
            .expect("valid config");
        spec.network =
            ConditionTimeline::constant(NetCondition::new(SimDuration::from_millis(150), 0.25));
        spec
    };
    let legacy = [
        ("amo", "acks=0, D=100ms, L=30% (silent loss)", lossy, 3u64),
        (
            "alo",
            "acks=1, D=150ms, L=25%, request timeout 400ms (duplicates)",
            duplicating,
            5u64,
        ),
    ];

    assert_eq!(demo.scenarios.len(), legacy.len());
    for (s, (etag, elabel, erun, eseed)) in demo.scenarios.iter().zip(&legacy) {
        let (tag, run) = (&s.tag, exec::trace_run_spec(s));
        assert_eq!(
            (tag, &s.label, s.seed),
            (&etag.to_string(), &elabel.to_string(), *eseed)
        );
        assert_eq!(
            format!("{run:?}"),
            format!("{erun:?}"),
            "run spec for {tag}"
        );
    }
}
