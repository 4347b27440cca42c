//! Table II's planner and the untrained `acks=all` head.
//!
//! The training collection holds too few `acks=all` rows to train that
//! head (only the broker-fault grid makes any), so `train_model` returns
//! `all: None` and the head keeps its random initial weights. Yet
//! `scenarios/table2.toml` lets the planner switch semantics, so every
//! `acks=all` candidate is scored by that head. This pins that, at
//! `--quick` effort, no configuration Table II's planner schedules is an
//! `acks=all` one, under the greedy search and the grid scan alike.

use bench::exec;
use bench::figures::{self, Effort};
use desim::SimDuration;
use kafka_predict::planner::{ModelPlanner, PlannerMode};
use kafka_predict::prelude::*;
use kafka_predict::recommend::SearchSpace;
use kafkasim::config::DeliverySemantics;
use spec::{ExperimentSpec, NetworkTraceSpec, Spec};
use testbed::dynamic::build_schedule;

#[test]
fn table2_plans_no_acks_all_while_that_head_is_untrained() {
    let ExperimentSpec::Table2(table) = Spec::builtin("table2").expect("built-in").experiment
    else {
        panic!("table2 is a Table2 experiment");
    };
    let effort = Effort::quick();
    let results = exec::collect_training(&figures::training_design(), effort);
    let trained = train_model(&results, &figures::quick_train_options(), effort.seed)
        .expect("collection grids are large enough");
    assert!(
        trained.all.is_none(),
        "the acks=all head is trained now, so this pin's premise is gone"
    );
    let space = SearchSpace::try_from(&table.grid).expect("validated grid");
    assert!(
        space.allow_semantics_switch,
        "Table II may switch semantics"
    );

    let trace = NetworkTraceSpec {
        trace: table.trace.clone(),
    };
    let trace = exec::network_trace(&trace, effort.seed).timeline;
    let cal = Calibration::paper();
    let interval = SimDuration::from_secs(table.plan_interval_s);
    let modes = [
        PlannerMode::Greedy,
        PlannerMode::Grid {
            threads: effort.threads,
        },
    ];
    for mode in modes {
        let planner = ModelPlanner::new(&trained.model, &cal, space.clone()).with_mode(mode);
        for scenario in &table.scenarios {
            let schedule =
                build_schedule(&planner, scenario, &trace, interval, trace.last_change());
            assert!(!schedule.is_empty(), "{}: no plan", scenario.name);
            for (at, config) in &schedule {
                assert_ne!(
                    config.semantics,
                    DeliverySemantics::All,
                    "{mode:?} plans acks=all for {} at {at:?}",
                    scenario.name
                );
            }
        }
    }
}
