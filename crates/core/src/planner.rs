//! The model-driven configuration planner for the §V dynamic experiment.
//!
//! Given a known network condition (the paper assumes the network status is
//! known and generates configurations offline), the planner builds the
//! feature vector for the current scenario, runs the stepwise KPI search,
//! and returns the producer configuration for the next interval.

use desim::SimDuration;
use kafkasim::config::ProducerConfig;
use netsim::NetCondition;
use testbed::dynamic::ConfigPlanner;
use testbed::scenarios::ApplicationScenario;
use testbed::Calibration;

use crate::features::Features;
use crate::kpi::KpiModel;
use crate::model::Predictor;
use crate::recommend::{Recommender, SearchSpace};

/// How [`ModelPlanner`] searches the configuration space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlannerMode {
    /// The paper's stepwise greedy search ([`Recommender::recommend`]).
    #[default]
    Greedy,
    /// The exhaustive batched grid scan
    /// ([`Recommender::recommend_grid`]) over the given worker count.
    Grid {
        /// Worker threads for the sharded scan (the result is
        /// bit-identical for every value).
        threads: usize,
    },
}

/// A [`ConfigPlanner`] backed by a reliability [`Predictor`] and the
/// weighted-KPI stepwise search.
pub struct ModelPlanner<'a> {
    predictor: &'a dyn Predictor,
    kpi: KpiModel,
    cal: Calibration,
    space: SearchSpace,
    mode: PlannerMode,
}

impl<'a> ModelPlanner<'a> {
    /// Creates a planner using the default greedy stepwise search.
    ///
    /// # Panics
    ///
    /// Panics when `space` fails validation.
    #[must_use]
    pub fn new(predictor: &'a dyn Predictor, cal: &Calibration, space: SearchSpace) -> Self {
        space.validate().expect("invalid search space");
        ModelPlanner {
            predictor,
            kpi: KpiModel::from_calibration(cal),
            cal: cal.clone(),
            space,
            mode: PlannerMode::default(),
        }
    }

    /// Switches the search mode (builder style).
    ///
    /// # Panics
    ///
    /// Panics when a grid mode specifies zero threads.
    #[must_use]
    pub fn with_mode(mut self, mode: PlannerMode) -> Self {
        if let PlannerMode::Grid { threads } = mode {
            assert!(threads > 0, "grid mode needs at least one worker");
        }
        self.mode = mode;
        self
    }

    /// The starting features the search begins from for `scenario` under
    /// `condition`.
    #[must_use]
    pub(crate) fn start_features(
        &self,
        scenario: &ApplicationScenario,
        condition: NetCondition,
    ) -> Features {
        Features {
            message_size: scenario.mean_size(),
            timeliness_ms: scenario.timeliness.as_secs_f64() * 1e3,
            delay_ms: condition.delay.as_secs_f64() * 1e3,
            loss_rate: condition.loss_rate,
            semantics: kafkasim::config::DeliverySemantics::AtLeastOnce,
            batch_size: 1,
            poll_interval_ms: 0.0,
            // Start from a timeout compatible with the stream's timeliness,
            // but never below the search floor.
            message_timeout_ms: (scenario.timeliness.as_secs_f64() * 1e3)
                .clamp(self.space.timeout_ms.0, self.space.timeout_ms.1),
            ..Features::default()
        }
    }

    /// The producer configuration a feature selection translates to.
    #[must_use]
    pub(crate) fn to_config(&self, features: &Features) -> ProducerConfig {
        let point = features.to_experiment_point();
        let mut cfg = point.producer_config(&self.cal);
        // Dynamic reconfiguration keeps retries on (the paper's tuned runs
        // rely on them under at-least-once).
        cfg.max_retries = self.cal.max_retries;
        // Keep linger short relative to the stream's timeliness.
        if features.timeliness_ms > 0.0 {
            cfg.linger = cfg
                .linger
                .min(SimDuration::from_secs_f64(features.timeliness_ms / 4e3));
        }
        cfg
    }
}

impl ConfigPlanner for ModelPlanner<'_> {
    fn plan(&self, scenario: &ApplicationScenario, condition: NetCondition) -> ProducerConfig {
        let start = self.start_features(scenario, condition);
        let recommender = Recommender::new(&self.kpi, self.predictor, self.space.clone());
        let rec = match self.mode {
            PlannerMode::Greedy => {
                recommender.recommend(&start, &scenario.weights, scenario.gamma_requirement)
            }
            PlannerMode::Grid { threads } => recommender.recommend_grid(
                &start,
                &scenario.weights,
                scenario.gamma_requirement,
                threads,
            ),
        };
        self.to_config(&rec.features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FnPredictor, Prediction};
    use desim::SimDuration;

    fn oracle() -> FnPredictor<impl Fn(&Features) -> Prediction> {
        FnPredictor(|f: &Features| {
            let base = (f.loss_rate * 5.0 / (f.batch_size as f64)).clamp(0.0, 1.0);
            Prediction {
                p_loss: base,
                p_dup: 0.0,
            }
        })
    }

    #[test]
    fn plan_produces_valid_configs() {
        let cal = Calibration::paper();
        let oracle = oracle();
        let planner = ModelPlanner::new(&oracle, &cal, SearchSpace::default());
        for scenario in ApplicationScenario::table2() {
            for loss in [0.0, 0.15] {
                let cond = NetCondition::new(SimDuration::from_millis(60), loss);
                let cfg = planner.plan(&scenario, cond);
                cfg.validate().unwrap();
            }
        }
    }

    #[test]
    fn lossy_conditions_trigger_batching() {
        let cal = Calibration::paper();
        let oracle = oracle();
        let planner = ModelPlanner::new(&oracle, &cal, SearchSpace::default());
        let scenario = ApplicationScenario::web_access_records();
        let clean = planner.plan(
            &scenario,
            NetCondition::new(SimDuration::from_millis(10), 0.0),
        );
        let lossy = planner.plan(
            &scenario,
            NetCondition::new(SimDuration::from_millis(100), 0.18),
        );
        assert!(
            lossy.batch_size >= clean.batch_size,
            "lossy {} vs clean {}",
            lossy.batch_size,
            clean.batch_size
        );
    }

    #[test]
    fn grid_mode_plans_are_valid_and_thread_invariant() {
        let cal = Calibration::paper();
        let oracle = oracle();
        let space = SearchSpace {
            timeout_step_ms: 1600.0,
            poll_step_ms: 50.0,
            ..SearchSpace::default()
        };
        let scenario = ApplicationScenario::web_access_records();
        let cond = NetCondition::new(SimDuration::from_millis(60), 0.12);
        let single = ModelPlanner::new(&oracle, &cal, space.clone())
            .with_mode(PlannerMode::Grid { threads: 1 });
        let many =
            ModelPlanner::new(&oracle, &cal, space).with_mode(PlannerMode::Grid { threads: 4 });
        let cfg1 = single.plan(&scenario, cond);
        let cfg4 = many.plan(&scenario, cond);
        cfg1.validate().unwrap();
        assert_eq!(cfg1, cfg4, "grid plans must not depend on thread count");
    }

    #[test]
    fn start_features_reflect_scenario_and_condition() {
        let cal = Calibration::paper();
        let oracle = oracle();
        let planner = ModelPlanner::new(&oracle, &cal, SearchSpace::default());
        let scenario = ApplicationScenario::game_traffic();
        let cond = NetCondition::new(SimDuration::from_millis(80), 0.12);
        let f = planner.start_features(&scenario, cond);
        assert_eq!(f.message_size, scenario.mean_size());
        assert!((f.delay_ms - 80.0).abs() < 1e-9);
        assert!((f.loss_rate - 0.12).abs() < 1e-12);
        f.validate().unwrap();
    }
}
