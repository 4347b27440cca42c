//! Training pipeline: from testbed experiment results to a trained,
//! evaluated [`ReliabilityModel`].
//!
//! Follows §III-G: SGD optimiser, learning rate 0.5, 1000 epochs on the
//! paper topology, trained separately per delivery semantics, evaluated by
//! mean absolute error on a held-out split (the paper reports MAE below
//! 0.02).

use annet::metrics::mae;
use annet::{Dataset, Matrix, Network, TrainConfig, TrainScratch};
use desim::{SimDuration, SimRng};
use kafkasim::config::DeliverySemantics;
use obs::Profiler;
use serde::{Deserialize, Serialize};
use testbed::experiment::{ExperimentPoint, ExperimentResult};
use testbed::sweep::run_sweep;
use testbed::Calibration;

use crate::features::Features;
use crate::model::{Predictor, ReliabilityModel, Topology};

/// Training options.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainOptions {
    /// Head topology.
    pub topology: Topology,
    /// SGD parameters.
    pub sgd: TrainConfig,
    /// Fraction of samples held out for evaluation.
    pub test_fraction: f64,
}

impl TrainOptions {
    /// The paper's setup: 200/200/200/64 topology, lr 0.5, 1000 epochs.
    #[must_use]
    pub fn paper() -> Self {
        TrainOptions {
            topology: Topology::Paper,
            sgd: TrainConfig {
                epochs: 1000,
                learning_rate: 0.5,
                batch_size: 32,
                shuffle: true,
                momentum: 0.0,
            },
            test_fraction: 0.2,
        }
    }

    /// A fast setup for tests, examples, and CI: compact topology, few
    /// epochs.
    #[must_use]
    pub fn fast() -> Self {
        TrainOptions {
            topology: Topology::Compact,
            sgd: TrainConfig {
                epochs: 150,
                learning_rate: 0.4,
                batch_size: 16,
                shuffle: true,
                momentum: 0.0,
            },
            test_fraction: 0.2,
        }
    }

    /// Returns `self` unchanged: [`train_model`] takes no thread count,
    /// since it always trains the at-least-once head on one worker thread
    /// beside the calling thread. `benchmark/` still calls this name; it
    /// goes when the benchmark re-points.
    #[doc(hidden)]
    #[must_use]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }
}

/// Per-head evaluation numbers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeadEvaluation {
    /// Training samples used.
    pub train_samples: usize,
    /// Held-out samples used.
    pub test_samples: usize,
    /// Held-out mean absolute error across the head's outputs.
    pub test_mae: f64,
    /// Final training MSE.
    pub final_train_mse: f64,
}

/// A trained model plus its evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainedModel {
    /// The model, ready for prediction.
    pub model: ReliabilityModel,
    /// Evaluation of the at-most-once head.
    pub amo: HeadEvaluation,
    /// Evaluation of the at-least-once head.
    pub alo: HeadEvaluation,
    /// Evaluation of the `acks=all` head; `None` when the training data
    /// contained too few `acks=all` samples, leaving that head untrained.
    pub all: Option<HeadEvaluation>,
}

impl TrainedModel {
    /// The worst trained head's held-out MAE — the paper's headline
    /// accuracy number (extended over the `acks=all` head when trained).
    #[must_use]
    pub fn worst_mae(&self) -> f64 {
        let base = self.amo.test_mae.max(self.alo.test_mae);
        self.all.map_or(base, |a| base.max(a.test_mae))
    }
}

/// Error from [`train_model`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// A semantics class had too few samples to split.
    TooFewSamples {
        /// The class lacking data.
        semantics: DeliverySemantics,
        /// How many samples it had.
        available: usize,
    },
}

impl core::fmt::Display for TrainError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TrainError::TooFewSamples {
                semantics,
                available,
            } => write!(
                f,
                "not enough {semantics} samples to train and evaluate (got {available})"
            ),
        }
    }
}

impl std::error::Error for TrainError {}

fn head_dataset(
    results: &[ExperimentResult],
    semantics: DeliverySemantics,
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mut x = Vec::new();
    let mut y = Vec::new();
    for r in results {
        if r.point.semantics != semantics {
            continue;
        }
        let features = Features::from(&r.point);
        x.push(features.scaled_head_vector());
        y.push(match semantics {
            DeliverySemantics::AtMostOnce => vec![r.p_loss],
            DeliverySemantics::AtLeastOnce | DeliverySemantics::All => {
                vec![r.p_loss, r.p_dup]
            }
        });
    }
    (x, y)
}

/// One head, split and planned on the calling thread: its rows, the rng
/// state its training starts from, and every buffer its training uses.
struct HeadPlan {
    train: Dataset,
    test: Dataset,
    rng: SimRng,
    scratch: TrainScratch,
}

impl HeadPlan {
    /// Builds the head's rows and draws its split from `rng`, then moves
    /// `rng` past the head's training as if it had run: `epochs` shuffles
    /// of a slice as long as the training set. A Fisher–Yates shuffle's
    /// draws depend only on the length it shuffles, so the next head plans
    /// from exactly the state sequential training would leave it.
    fn new(
        head: &Network,
        semantics: DeliverySemantics,
        results: &[ExperimentResult],
        options: &TrainOptions,
        rng: &mut SimRng,
    ) -> Result<Self, TrainError> {
        let (x, y) = head_dataset(results, semantics);
        if x.len() < 8 {
            return Err(TrainError::TooFewSamples {
                semantics,
                available: x.len(),
            });
        }
        let data = Dataset::from_rows(x, y).expect("aligned rows");
        let (train, test) = data
            .train_test_split(options.test_fraction, rng)
            .map_err(|_| TrainError::TooFewSamples {
                semantics,
                available: data.len(),
            })?;
        let start = rng.clone();
        if options.sgd.shuffle {
            let mut order: Vec<usize> = (0..train.len()).collect();
            for _ in 0..options.sgd.epochs {
                rng.shuffle(&mut order);
            }
        }
        let scratch = head.train_scratch(&train, &options.sgd);
        Ok(HeadPlan {
            train,
            test,
            rng: start,
            scratch,
        })
    }

    /// Runs the head's epoch loop in its own buffers: no allocation, so a
    /// worker thread running it takes no memory of its own.
    fn fit(&mut self, head: &mut Network, sgd: &TrainConfig) {
        let prof = Profiler::disabled();
        head.train_in(&self.train, sgd, &mut self.rng, &mut self.scratch, &prof);
    }

    /// The trained head's held-out MAE and closing training MSE.
    fn evaluate(&self, head: &Network) -> HeadEvaluation {
        let predictions = head.predict_batch(self.test.x());
        HeadEvaluation {
            train_samples: self.train.len(),
            test_samples: self.test.len(),
            test_mae: mae(&predictions, self.test.y()),
            final_train_mse: head.mse(&self.train),
        }
    }
}

/// Trains both heads from testbed results and evaluates them on held-out
/// splits.
///
/// The heads share no weights and no rows, only the seeded rng, so every
/// head is split and planned first (see `HeadPlan::new`); then the
/// at-least-once head trains on a scoped worker thread while the
/// at-most-once and `acks=all` heads train on the calling thread. The
/// weights are bit-identical to training the heads one after another.
///
/// # Errors
///
/// [`TrainError::TooFewSamples`] when either semantics class cannot fill a
/// train/test split; it is found before any head trains.
pub fn train_model(
    results: &[ExperimentResult],
    options: &TrainOptions,
    seed: u64,
) -> Result<TrainedModel, TrainError> {
    use DeliverySemantics::{All, AtLeastOnce, AtMostOnce};
    let mut rng = SimRng::seed_from_u64(seed);
    let mut model = ReliabilityModel::new(options.topology, &mut rng);
    let mut plan =
        |semantics| HeadPlan::new(model.head(semantics), semantics, results, options, &mut rng);
    let mut amo = plan(AtMostOnce)?;
    let mut alo = plan(AtLeastOnce)?;
    // The acks=all head is beyond the paper: train it when the sweep
    // covered it, leave it untrained (evaluation `None`) otherwise so
    // paper-only datasets keep working.
    let mut all = plan(All).ok();
    let [amo_head, alo_head, all_head] = model.heads_mut();
    std::thread::scope(|s| {
        s.spawn(|| alo.fit(alo_head, &options.sgd));
        amo.fit(amo_head, &options.sgd);
        if let Some(all) = &mut all {
            all.fit(all_head, &options.sgd);
        }
    });
    Ok(TrainedModel {
        amo: amo.evaluate(model.head(AtMostOnce)),
        alo: alo.evaluate(model.head(AtLeastOnce)),
        all: all.map(|all| all.evaluate(model.head(All))),
        model,
    })
}

/// Compares model predictions against fresh simulation ground truth on the
/// given points, returning the MAE over `P_l`.
#[must_use]
pub fn validate_against_simulation(
    predictor: &dyn Predictor,
    points: &[ExperimentPoint],
    cal: &Calibration,
    n_messages: u64,
    seed: u64,
    threads: usize,
) -> f64 {
    let results = run_sweep(points, cal, n_messages, seed, threads);
    let predictions: Vec<f64> = results
        .iter()
        .map(|r| predictor.predict(&Features::from(&r.point)).p_loss)
        .collect();
    let truth: Vec<f64> = results.iter().map(|r| r.p_loss).collect();
    let n = truth.len();
    mae(
        &Matrix::from_vec(n, 1, predictions),
        &Matrix::from_vec(n, 1, truth),
    )
}

/// A small experiment grid for smoke tests, examples, and doc tests: a few
/// dozen cheap points covering both semantics, some loss, and both batched
/// and unbatched configurations.
#[must_use]
pub fn quick_grid(cal: &Calibration, n_messages: u64, threads: usize) -> Vec<ExperimentResult> {
    let mut points = Vec::new();
    for semantics in [
        DeliverySemantics::AtMostOnce,
        DeliverySemantics::AtLeastOnce,
    ] {
        for &loss in &[0.0, 0.12, 0.25] {
            for &batch in &[1usize, 6] {
                for &m in &[100u64, 400] {
                    for &poll_ms in &[0u64, 60] {
                        points.push(ExperimentPoint {
                            message_size: m,
                            timeliness: None,
                            delay: SimDuration::from_millis(50),
                            loss_rate: loss,
                            semantics,
                            batch_size: batch,
                            poll_interval: SimDuration::from_millis(poll_ms),
                            message_timeout: SimDuration::from_millis(2_000),
                            ..ExperimentPoint::default()
                        });
                    }
                }
            }
        }
    }
    run_sweep(&points, cal, n_messages, 99, threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_results() -> Vec<ExperimentResult> {
        let cal = Calibration::paper();
        quick_grid(&cal, 150, 4)
    }

    /// The trainer as it was before the heads trained concurrently: each
    /// head split, trained and evaluated in turn on the one rng.
    fn train_model_sequentially(
        results: &[ExperimentResult],
        options: &TrainOptions,
        seed: u64,
    ) -> Result<TrainedModel, TrainError> {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut model = ReliabilityModel::new(options.topology, &mut rng);
        let mut head = |semantics| {
            let (x, y) = head_dataset(results, semantics);
            if x.len() < 8 {
                return Err(TrainError::TooFewSamples {
                    semantics,
                    available: x.len(),
                });
            }
            let data = Dataset::from_rows(x, y).expect("aligned rows");
            let (train, test) = data
                .train_test_split(options.test_fraction, &mut rng)
                .map_err(|_| TrainError::TooFewSamples {
                    semantics,
                    available: data.len(),
                })?;
            let head = model.head_mut(semantics);
            let report = head.train(&train, &options.sgd, &mut rng);
            let predictions = head.predict_batch(test.x());
            Ok(HeadEvaluation {
                train_samples: train.len(),
                test_samples: test.len(),
                test_mae: mae(&predictions, test.y()),
                final_train_mse: report.final_loss,
            })
        };
        let amo = head(DeliverySemantics::AtMostOnce)?;
        let alo = head(DeliverySemantics::AtLeastOnce)?;
        let all = head(DeliverySemantics::All).ok();
        Ok(TrainedModel {
            model,
            amo,
            alo,
            all,
        })
    }

    /// The weights JSON and the evaluations' `Debug`, so `-0.0` and `0.0`
    /// differ; or the error.
    fn bits(trained: &Result<TrainedModel, TrainError>) -> String {
        match trained {
            Ok(t) => {
                let json = t.model.to_json().expect("finite weights");
                format!("{json}{:?}{:?}{:?}", t.amo, t.alo, t.all)
            }
            Err(e) => format!("{e:?}"),
        }
    }

    /// `results` with its first `n` at-least-once rows relabelled as
    /// `acks=all` rows, so the third head has data.
    fn with_acks_all_rows(mut results: Vec<ExperimentResult>, n: usize) -> Vec<ExperimentResult> {
        let alo = results
            .iter_mut()
            .filter(|r| r.point.semantics == DeliverySemantics::AtLeastOnce);
        for r in alo.take(n) {
            r.point.semantics = DeliverySemantics::All;
        }
        results
    }

    #[test]
    fn concurrent_heads_equal_sequential_training() {
        let base = tiny_results();
        let fast = TrainOptions::fast();
        let mut unshuffled = fast;
        unshuffled.sgd.shuffle = false;
        let mut one_epoch = fast;
        one_epoch.sgd.epochs = 1;
        // 24 at-most-once, 8 at-least-once and 16 acks=all rows at a 7/8
        // test fraction: the at-least-once head trains on one row, so its
        // shuffles draw nothing, and the acks=all head after it trains on
        // two.
        let mut one_row = fast;
        one_row.test_fraction = 0.875;
        let too_few_alo: Vec<ExperimentResult> = base
            .iter()
            .filter(|r| r.point.semantics == DeliverySemantics::AtMostOnce)
            .chain(
                base.iter()
                    .filter(|r| r.point.semantics == DeliverySemantics::AtLeastOnce)
                    .take(7),
            )
            .cloned()
            .collect();
        let cases = [
            ("two heads", base.clone(), fast),
            ("three heads", with_acks_all_rows(base.clone(), 12), fast),
            (
                "shuffle off",
                with_acks_all_rows(base.clone(), 12),
                unshuffled,
            ),
            ("one epoch", with_acks_all_rows(base.clone(), 12), one_epoch),
            (
                "one-row split",
                with_acks_all_rows(base.clone(), 16),
                one_row,
            ),
            ("too few at-least-once rows", too_few_alo, fast),
        ];
        for (name, results, options) in &cases {
            let want = train_model_sequentially(results, options, 9);
            let got = train_model(results, options, 9);
            assert!(
                bits(&got) == bits(&want),
                "{name}: differs from sequential training"
            );
        }
        let trained = train_model(&cases[4].1, &one_row, 9).expect("all heads train");
        assert_eq!(trained.alo.train_samples, 1);
        assert_eq!(trained.all.map(|e| e.train_samples), Some(2));
        assert!(matches!(
            train_model(&cases[5].1, &fast, 9),
            Err(TrainError::TooFewSamples {
                semantics: DeliverySemantics::AtLeastOnce,
                available: 7,
            })
        ));
    }

    #[test]
    fn training_produces_bounded_mae() {
        let results = tiny_results();
        let trained = train_model(&results, &TrainOptions::fast(), 1).unwrap();
        assert!(trained.amo.test_mae.is_finite());
        assert!(trained.alo.test_mae.is_finite());
        assert!(trained.worst_mae() <= 1.0);
        assert!(trained.amo.train_samples > trained.amo.test_samples);
    }

    #[test]
    fn too_few_samples_is_reported() {
        let results: Vec<ExperimentResult> = tiny_results()
            .into_iter()
            .filter(|r| r.point.semantics == DeliverySemantics::AtLeastOnce)
            .collect();
        let err = train_model(&results, &TrainOptions::fast(), 1).unwrap_err();
        assert!(matches!(
            err,
            TrainError::TooFewSamples {
                semantics: DeliverySemantics::AtMostOnce,
                ..
            }
        ));
    }

    #[test]
    fn training_is_seed_deterministic() {
        let results = tiny_results();
        let a = train_model(&results, &TrainOptions::fast(), 5).unwrap();
        let b = train_model(&results, &TrainOptions::fast(), 5).unwrap();
        assert_eq!(a.model, b.model);
        assert_eq!(a.alo, b.alo);
    }

    #[test]
    fn trained_model_beats_a_constant_predictor() {
        let results = tiny_results();
        let mut options = TrainOptions::fast();
        options.sgd.epochs = 400;
        let trained = train_model(&results, &options, 2).unwrap();
        // Compare in-sample MAE against predicting the global mean P_l.
        let mean_pl: f64 = results.iter().map(|r| r.p_loss).sum::<f64>() / results.len() as f64;
        let model_err: f64 = results
            .iter()
            .map(|r| (trained.model.predict(&Features::from(&r.point)).p_loss - r.p_loss).abs())
            .sum::<f64>()
            / results.len() as f64;
        let baseline_err: f64 = results
            .iter()
            .map(|r| (mean_pl - r.p_loss).abs())
            .sum::<f64>()
            / results.len() as f64;
        assert!(
            model_err < baseline_err,
            "model MAE {model_err:.4} should beat constant baseline {baseline_err:.4}"
        );
    }

    #[test]
    fn paper_options_match_description() {
        let o = TrainOptions::paper();
        assert_eq!(o.sgd.epochs, 1000);
        assert!((o.sgd.learning_rate - 0.5).abs() < 1e-12);
        assert_eq!(o.topology, Topology::Paper);
    }
}
