//! Training pipeline: from testbed experiment results to a trained,
//! evaluated [`ReliabilityModel`].
//!
//! Follows §III-G: SGD optimiser, learning rate 0.5, 1000 epochs on the
//! paper topology, trained separately per delivery semantics, evaluated by
//! mean absolute error on a held-out split (the paper reports MAE below
//! 0.02).

use annet::metrics::mae;
use annet::{Dataset, Matrix, TrainConfig};
use desim::{SimDuration, SimRng};
use kafkasim::config::DeliverySemantics;
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

    /// Returns `self` unchanged: training runs on one thread. `benchmark/`
    /// still calls this name; it goes when the benchmark re-points.
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

fn train_head(
    model: &mut ReliabilityModel,
    semantics: DeliverySemantics,
    results: &[ExperimentResult],
    options: &TrainOptions,
    rng: &mut SimRng,
) -> Result<HeadEvaluation, TrainError> {
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
    let head = model.head_mut(semantics);
    let report = head.train(&train, &options.sgd, rng);
    let predictions = head.predict_batch(test.x());
    Ok(HeadEvaluation {
        train_samples: train.len(),
        test_samples: test.len(),
        test_mae: mae(&predictions, test.y()),
        final_train_mse: report.final_loss,
    })
}

/// Trains both heads from testbed results and evaluates them on held-out
/// splits.
///
/// # Errors
///
/// [`TrainError::TooFewSamples`] when either semantics class cannot fill a
/// train/test split.
pub fn train_model(
    results: &[ExperimentResult],
    options: &TrainOptions,
    seed: u64,
) -> Result<TrainedModel, TrainError> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut model = ReliabilityModel::new(options.topology, &mut rng);
    let amo = train_head(
        &mut model,
        DeliverySemantics::AtMostOnce,
        results,
        options,
        &mut rng,
    )?;
    let alo = train_head(
        &mut model,
        DeliverySemantics::AtLeastOnce,
        results,
        options,
        &mut rng,
    )?;
    // The acks=all head is beyond the paper: train it when the sweep
    // covered it, leave it untrained (evaluation `None`) otherwise so
    // paper-only datasets keep working.
    let all = train_head(
        &mut model,
        DeliverySemantics::All,
        results,
        options,
        &mut rng,
    )
    .ok();
    Ok(TrainedModel {
        model,
        amo,
        alo,
        all,
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
