//! Integration of the §V dynamic-configuration pipeline: trace generation,
//! planning, mid-run reconfiguration, and Table II-style comparison.

use desim::{SimDuration, SimRng};
use kafka_predict::planner::ModelPlanner;
use kafka_predict::prelude::*;
use kafka_predict::recommend::SearchSpace;
use netsim::trace::{generate_trace, TraceConfig};
use netsim::ConditionTimeline;
use testbed::dynamic::{build_schedule, default_static_config, run_scenario, StaticPlanner};
use testbed::scenarios::ApplicationScenario;

fn test_trace(seed: u64, secs: u64) -> ConditionTimeline {
    generate_trace(
        &TraceConfig {
            duration: SimDuration::from_secs(secs),
            interval: SimDuration::from_secs(10),
            ..TraceConfig::default()
        },
        &mut SimRng::seed_from_u64(seed),
    )
    .expect("valid")
    .timeline
}

#[test]
fn model_planner_beats_or_matches_the_default_on_loss() {
    let cal = Calibration::paper();
    // The synthetic predictor has the right monotone structure; it stands
    // in for a fully-trained ANN to keep the test fast and robust.
    let predictor = kafka_predict::model::FnPredictor(|f: &Features| {
        let base = (f.loss_rate * 3.0 / (1.0 + 0.7 * (f.batch_size as f64 - 1.0))).min(1.0);
        kafka_predict::model::Prediction {
            p_loss: match f.semantics {
                kafkasim::config::DeliverySemantics::AtMostOnce => base,
                kafkasim::config::DeliverySemantics::AtLeastOnce => base * 0.4,
                kafkasim::config::DeliverySemantics::All => base * 0.35,
            },
            p_dup: 0.0,
        }
    });
    let scenario = ApplicationScenario::web_access_records();
    let trace = test_trace(11, 180);
    let n = 1_500;
    let interval = SimDuration::from_secs(30);
    let default = run_scenario(
        &scenario,
        &trace,
        &StaticPlanner(default_static_config(&cal)),
        &cal,
        n,
        interval,
        3,
    );
    let planner = ModelPlanner::new(&predictor, &cal, SearchSpace::default());
    let dynamic = run_scenario(&scenario, &trace, &planner, &cal, n, interval, 3);
    assert!(
        dynamic.r_loss <= default.r_loss + 0.01,
        "dynamic {} vs default {}",
        dynamic.r_loss,
        default.r_loss
    );
    // Both runs account for every message.
    for report in [&default.report, &dynamic.report] {
        assert_eq!(
            report.delivered_once + report.lost + report.duplicated,
            report.n_source
        );
    }
}

#[test]
fn schedules_respond_to_the_trace() {
    let cal = Calibration::paper();
    let predictor =
        kafka_predict::model::FnPredictor(|f: &Features| kafka_predict::model::Prediction {
            p_loss: (f.loss_rate * 4.0 / f.batch_size as f64).min(1.0),
            p_dup: 0.0,
        });
    let planner = ModelPlanner::new(&predictor, &cal, SearchSpace::default());
    let scenario = ApplicationScenario::social_media();
    let trace = test_trace(13, 240);
    let schedule = build_schedule(
        &planner,
        &scenario,
        &trace,
        SimDuration::from_secs(20),
        trace.last_change(),
    );
    assert!(
        !schedule.is_empty(),
        "a plan must exist for the initial condition"
    );
    // Every scheduled configuration is valid and schedule times ascend.
    for window in schedule.windows(2) {
        assert!(window[0].0 < window[1].0);
    }
    for (_, cfg) in &schedule {
        cfg.validate().expect("planned configs validate");
    }
}

#[test]
fn all_three_table2_scenarios_run() {
    let cal = Calibration::paper();
    let trace = test_trace(17, 120);
    for scenario in ApplicationScenario::table2() {
        let report = run_scenario(
            &scenario,
            &trace,
            &StaticPlanner(default_static_config(&cal)),
            &cal,
            600,
            SimDuration::from_secs(60),
            5,
        );
        assert_eq!(report.scenario, scenario.name);
        assert!((0.0..=1.0).contains(&report.r_loss));
        assert!((0.0..=1.0).contains(&report.r_dup));
        assert!((0.0..=1.0).contains(&report.stale_fraction));
    }
}

#[test]
fn trained_model_drives_the_planner_end_to_end() {
    // The full paper pipeline at miniature scale: simulate → train →
    // plan → replay. Only smoke-level assertions; the full-scale result
    // is recorded in EXPERIMENTS.md.
    let cal = Calibration::paper();
    let results = quick_grid(&cal, 800, 4);
    let trained = train_model(&results, &TrainOptions::fast(), 21).expect("train");
    let planner = ModelPlanner::new(&trained.model, &cal, SearchSpace::default());
    let scenario = ApplicationScenario::game_traffic();
    let trace = test_trace(19, 120);
    let report = run_scenario(
        &scenario,
        &trace,
        &planner,
        &cal,
        1_000,
        SimDuration::from_secs(30),
        7,
    );
    let r = &report.report;
    assert_eq!(r.delivered_once + r.lost + r.duplicated, r.n_source);
}

#[test]
fn online_controller_matches_offline_planner_on_a_trace() {
    // EXT-3 end-to-end: the online controller never sees the network, only
    // the producer's own statistics, yet must land in the same ballpark as
    // the §V offline planner that is told the condition.
    use kafka_predict::online::OnlineModelController;
    use kafkasim::runtime::OnlineSpec;
    use std::sync::Arc;
    use testbed::dynamic::run_scenario_online;

    let cal = Calibration::paper();
    let predictor = kafka_predict::model::FnPredictor(|f: &Features| {
        let base = (f.loss_rate * 3.0 / (1.0 + 0.7 * (f.batch_size as f64 - 1.0))).min(1.0);
        kafka_predict::model::Prediction {
            p_loss: match f.semantics {
                kafkasim::config::DeliverySemantics::AtMostOnce => base,
                kafkasim::config::DeliverySemantics::AtLeastOnce => base * 0.4,
                kafkasim::config::DeliverySemantics::All => base * 0.35,
            },
            p_dup: 0.0,
        }
    });
    let scenario = ApplicationScenario::web_access_records();
    let trace = test_trace(23, 180);
    let n = 4_000;

    let default = run_scenario(
        &scenario,
        &trace,
        &StaticPlanner(default_static_config(&cal)),
        &cal,
        n,
        SimDuration::from_secs(60),
        5,
    );
    let controller = OnlineModelController::new(
        predictor,
        &cal,
        SearchSpace::default(),
        scenario.weights,
        scenario.gamma_requirement,
        scenario.mean_size(),
        scenario.timeliness.as_secs_f64() * 1e3,
    );
    let (online, _, _) = run_scenario_online(
        &scenario,
        &trace,
        default_static_config(&cal),
        OnlineSpec {
            interval: SimDuration::from_secs(20),
            controller: Arc::new(controller),
        },
        &cal,
        n,
        5,
        Box::new(obs::NoopSink),
        obs::Profiler::disabled(),
    );
    assert!(
        online.r_loss < default.r_loss,
        "feedback control must beat the static default: {} vs {}",
        online.r_loss,
        default.r_loss
    );
    let r = &online.report;
    assert_eq!(r.delivered_once + r.lost + r.duplicated, r.n_source);
    assert!(
        online.config_switches >= 1,
        "the controller must have acted"
    );
}
