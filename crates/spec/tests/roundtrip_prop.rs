//! Property tests: randomly generated scenario documents survive a
//! serialise → parse round trip in both on-disk formats.
//!
//! Generators only produce documents that pass validation (the same
//! invariant `io::load` enforces), so a round-trip failure always means a
//! codec bug, not an invalid input.

use proptest::prelude::*;
use spec::{
    AdaptiveConfig, BanditConfig, ConfigGrid, ExperimentSpec, PointSpec, PolicyKind, PolicySpec,
    RegimeShiftSpec, SensitivitySpec, SeriesSpec, Spec, SweepAxis, SweepMode, SweepSpec,
};

use kafkasim::config::DeliverySemantics;
use netsim::trace::TraceConfig;
use testbed::scenarios::ApplicationScenario;

fn semantics() -> impl Strategy<Value = DeliverySemantics> {
    prop_oneof![
        Just(DeliverySemantics::AtMostOnce),
        Just(DeliverySemantics::AtLeastOnce),
        Just(DeliverySemantics::All),
    ]
}

/// `Option` modelled as a presence bit + value (the vendored proptest
/// shim has no `option::of`).
fn opt<S: Strategy + 'static>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (proptest::bool::ANY, s).prop_map(|(some, v)| some.then_some(v))
}

/// Labels exercise the writers' string escaping: spaces, punctuation,
/// quotes, and a backslash.
fn label() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("at-least-once".to_string()),
        Just("acks=1, B=8".to_string()),
        Just("label with \"quotes\"".to_string()),
        Just("back\\slash".to_string()),
        Just("τ_r sweep".to_string()),
    ]
}

fn point() -> impl Strategy<Value = PointSpec> {
    (
        (
            1u64..100_000,
            opt(1u64..10_000),
            0u64..1_000,
            0.0f64..0.9,
            semantics(),
            1usize..64,
        ),
        (
            0u64..5_000,
            1u64..60_000,
            1u32..5,
            0u64..10_000,
            proptest::bool::ANY,
        ),
    )
        .prop_map(
            |(
                (message_size, timeliness_ms, delay_ms, loss_rate, semantics, batch_size),
                (
                    poll_interval_ms,
                    message_timeout_ms,
                    replication_factor,
                    fault_downtime_ms,
                    allow_unclean,
                ),
            )| PointSpec {
                message_size,
                timeliness_ms,
                delay_ms,
                loss_rate,
                semantics,
                batch_size,
                poll_interval_ms,
                message_timeout_ms,
                replication_factor,
                fault_downtime_ms,
                allow_unclean,
            },
        )
}

fn axis() -> impl Strategy<Value = SweepAxis> {
    prop_oneof![
        proptest::collection::vec(1u64..1_000_000, 1..8).prop_map(SweepAxis::MessageSize),
        proptest::collection::vec(1u64..60_000, 1..8).prop_map(SweepAxis::MessageTimeoutMs),
        proptest::collection::vec(0u64..5_000, 1..8).prop_map(SweepAxis::PollIntervalMs),
        proptest::collection::vec(0.0f64..1.0, 1..8).prop_map(SweepAxis::LossRate),
        proptest::collection::vec(1usize..64, 1..8).prop_map(SweepAxis::BatchSize),
        proptest::collection::vec(0u32..20, 1..8).prop_map(SweepAxis::RetryBudget),
    ]
}

fn series_spec() -> impl Strategy<Value = SeriesSpec> {
    (
        label(),
        opt(semantics()),
        opt(1usize..64),
        opt(0.0f64..1.0),
        opt(1u64..30_000),
        opt(proptest::bool::ANY),
        opt(proptest::bool::ANY),
    )
        .prop_map(
            |(
                label,
                semantics,
                batch_size,
                loss_rate,
                request_timeout_ms,
                early_retransmit,
                jittered_service,
            )| SeriesSpec {
                label,
                semantics,
                batch_size,
                loss_rate,
                request_timeout_ms,
                failover_s: None,
                early_retransmit,
                jittered_service,
            },
        )
}

fn sweep_doc() -> impl Strategy<Value = Spec> {
    (
        point(),
        axis(),
        proptest::collection::vec(series_spec(), 1..4),
        proptest::bool::ANY,
        opt(1u64..100_000),
        prop_oneof![Just("P_l".to_string()), Just("P_d".to_string())],
    )
        .prop_map(
            |(base, axis, series, fixed_seed, max_messages, metric)| Spec {
                name: "prop-sweep".to_string(),
                title: "Property-generated sweep".to_string(),
                description: String::new(),
                experiment: ExperimentSpec::Sweep(SweepSpec {
                    x_label: "x".to_string(),
                    metric,
                    base,
                    axis,
                    series,
                    mode: if fixed_seed {
                        SweepMode::FixedSeed
                    } else {
                        SweepMode::Parallel
                    },
                    max_messages,
                    outage: None,
                }),
                report: None,
            },
        )
}

fn sensitivity_doc() -> impl Strategy<Value = Spec> {
    (point(), 0.0f64..0.5).prop_map(|(base, threshold)| Spec {
        name: "prop-sensitivity".to_string(),
        title: "Property-generated sensitivity analysis".to_string(),
        description: String::new(),
        experiment: ExperimentSpec::Sensitivity(SensitivitySpec { base, threshold }),
        report: None,
    })
}

fn adaptive_policy() -> impl Strategy<Value = PolicySpec> {
    opt((
        1usize..20,
        0.001f64..1.0,
        1usize..200,
        0.001f64..1.0,
        4usize..512,
    ))
    .prop_map(|params| PolicySpec {
        kind: PolicyKind::OnlineAdaptive,
        adaptive: params.map(
            |(drift_window, drift_threshold, refit_steps, learning_rate, replay_capacity)| {
                AdaptiveConfig {
                    drift_window,
                    drift_threshold,
                    refit_steps,
                    learning_rate,
                    replay_capacity,
                }
            },
        ),
        bandit: None,
    })
}

fn policy() -> impl Strategy<Value = PolicySpec> {
    prop_oneof![
        Just(PolicySpec::of_kind(PolicyKind::Frozen)),
        adaptive_policy(),
        opt(0.01f64..10.0).prop_map(|exploration| PolicySpec {
            kind: PolicyKind::Bandit,
            adaptive: None,
            bandit: exploration.map(|e| BanditConfig { exploration: e }),
        }),
    ]
}

fn regime_shift_doc() -> impl Strategy<Value = Spec> {
    (
        prop_oneof![
            Just(ApplicationScenario::social_media()),
            Just(ApplicationScenario::web_access_records()),
            Just(ApplicationScenario::game_traffic()),
        ],
        // Base generator runs 600s at 10s intervals; keep the shift at
        // least one interval away from either end.
        10u64..591,
        1u64..120,
        proptest::collection::vec(policy(), 1..4),
        0.0f64..1.0,
    )
        .prop_map(
            |(scenario, shift_at_s, online_interval_s, policies, p_good_to_bad)| Spec {
                name: "prop-regime-shift".to_string(),
                title: "Property-generated regime shift".to_string(),
                description: String::new(),
                experiment: ExperimentSpec::RegimeShift(RegimeShiftSpec {
                    scenario,
                    trace: TraceConfig::default(),
                    shifted: TraceConfig {
                        p_good_to_bad,
                        ..TraceConfig::default()
                    },
                    shift_at_s,
                    online_interval_s,
                    grid: ConfigGrid::planner_default(),
                    policies,
                }),
                report: None,
            },
        )
}

fn doc() -> impl Strategy<Value = Spec> {
    prop_oneof![sweep_doc(), sensitivity_doc(), regime_shift_doc()]
}

proptest! {
    #[test]
    fn generated_docs_validate(doc in doc()) {
        prop_assert!(doc.validate().is_ok());
    }

    #[test]
    fn toml_round_trip(doc in doc()) {
        let text = spec::io::to_toml_string(&doc);
        match spec::io::from_toml_str(&text) {
            Ok(back) => prop_assert_eq!(back, doc),
            Err(e) => return Err(TestCaseError::fail(format!("parse failed: {e}\n{text}"))),
        }
    }

    #[test]
    fn json_round_trip(doc in doc()) {
        let text = spec::io::to_json_string(&doc);
        match spec::io::from_json_str(&text) {
            Ok(back) => prop_assert_eq!(back, doc),
            Err(e) => return Err(TestCaseError::fail(format!("parse failed: {e}\n{text}"))),
        }
    }
}
