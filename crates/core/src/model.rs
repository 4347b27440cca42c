//! The reliability prediction model: one ANN head per delivery semantics.
//!
//! §III-G: "for at-most-once delivery semantics we only have to predict
//! `P_l` since we know there will be no duplicated messages. Thus the
//! output layer contains just one neuron and the input layer can be
//! reduced as well." The [`ReliabilityModel`] therefore holds two networks:
//! an at-most-once head with a single output (`P̂_l`) and an at-least-once
//! head with two (`P̂_l`, `P̂_d`). Both take the seven scaled numeric
//! features; the semantics feature selects the head.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};

use annet::network::InferScratch;
use annet::{Matrix, MinMaxScaler, Network, NetworkBuilder};
use desim::SimRng;
use kafkasim::config::DeliverySemantics;
use serde::{Deserialize, Serialize};

use crate::features::Features;

/// A predicted pair `(P̂_l, P̂_d)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted probability of message loss.
    pub p_loss: f64,
    /// Predicted probability of message duplication (0 under
    /// at-most-once, by construction).
    pub p_dup: f64,
}

/// Anything that can predict reliability from features.
///
/// The trained [`ReliabilityModel`] is the primary implementor; tests and
/// the recommender accept any implementor (e.g. closures wrapped in
/// [`FnPredictor`]). `Sync` is a supertrait so the parallel grid scan can
/// share one predictor across worker threads.
pub trait Predictor: Sync {
    /// Predicts `(P̂_l, P̂_d)` for the given features.
    fn predict(&self, features: &Features) -> Prediction;

    /// Predicts a whole batch of feature rows at once.
    ///
    /// # Contract
    ///
    /// * **Ordering** — the result has exactly `features.len()` entries
    ///   and `result[i]` is the prediction for `features[i]`; implementors
    ///   must never reorder, drop, or deduplicate rows.
    /// * **Batch == scalar** — `result[i]` must be *bit-identical* to
    ///   `self.predict(&features[i])`; batching is a throughput
    ///   optimisation, never a semantic change. The default implementation
    ///   guarantees this by looping scalar [`Predictor::predict`];
    ///   overrides (such as [`ReliabilityModel`]'s single-matmul-chain
    ///   path) must preserve it.
    /// * **Panics** — implementations panic exactly when the equivalent
    ///   scalar calls would (e.g. on out-of-domain features); an empty
    ///   batch returns an empty vector and never panics.
    fn predict_batch(&self, features: &[Features]) -> Vec<Prediction> {
        features.iter().map(|f| self.predict(f)).collect()
    }
}

/// Wraps a plain function as a [`Predictor`] (handy in tests and for
/// oracle comparisons).
pub struct FnPredictor<F: Fn(&Features) -> Prediction>(pub F);

impl<F: Fn(&Features) -> Prediction + Sync> Predictor for FnPredictor<F> {
    fn predict(&self, features: &Features) -> Prediction {
        (self.0)(features)
    }
}

/// A predictor that can be refitted while shared: every call predicts
/// under the lock, so a refit never runs in the middle of a batch.
impl<P: Predictor + Send> Predictor for Mutex<P> {
    fn predict(&self, features: &Features) -> Prediction {
        self.lock().expect("model lock").predict(features)
    }

    fn predict_batch(&self, features: &[Features]) -> Vec<Prediction> {
        self.lock().expect("model lock").predict_batch(features)
    }
}

/// Topology choice for the model's heads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// The paper's 200/200/200/64 hidden layers.
    Paper,
    /// A small network for fast tests and examples.
    Compact,
}

impl Topology {
    fn builder(self, inputs: usize, outputs: usize) -> NetworkBuilder {
        match self {
            Topology::Paper => NetworkBuilder::paper_topology(inputs, outputs),
            Topology::Compact => NetworkBuilder::new(inputs)
                .dense(32, annet::Activation::Tanh)
                .dense(16, annet::Activation::Tanh)
                .dense(outputs, annet::Activation::Sigmoid),
        }
    }
}

/// The three-headed reliability model: one head per delivery semantics
/// (the paper's two, plus the beyond-the-paper `acks=all` head, which —
/// like at-least-once — predicts both `P_l` and `P_d`).
///
/// The heads are shared copy-on-write: a clone bumps three reference
/// counts, and [`ReliabilityModel::head_mut`] copies a head only while
/// another model still shares it, so every policy can hold the trained
/// model and a refitting one pays for the head it refits, once.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReliabilityModel {
    amo_head: Arc<Network>,
    alo_head: Arc<Network>,
    all_head: Arc<Network>,
    topology: Topology,
}

impl ReliabilityModel {
    /// Creates an untrained model with seeded random weights.
    #[must_use]
    pub fn new(topology: Topology, rng: &mut SimRng) -> Self {
        ReliabilityModel {
            amo_head: Arc::new(topology.builder(Features::HEAD_INPUTS, 1).build(rng)),
            alo_head: Arc::new(topology.builder(Features::HEAD_INPUTS, 2).build(rng)),
            all_head: Arc::new(topology.builder(Features::HEAD_INPUTS, 2).build(rng)),
            topology,
        }
    }

    /// The topology both heads use.
    #[must_use]
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Exclusive access to one head's network (training). A head still
    /// shared with a clone is copied first, so the clone never changes.
    pub fn head_mut(&mut self, semantics: DeliverySemantics) -> &mut Network {
        Arc::make_mut(match semantics {
            DeliverySemantics::AtMostOnce => &mut self.amo_head,
            DeliverySemantics::AtLeastOnce => &mut self.alo_head,
            DeliverySemantics::All => &mut self.all_head,
        })
    }

    /// Read access to one head's network.
    #[must_use]
    pub fn head(&self, semantics: DeliverySemantics) -> &Network {
        match semantics {
            DeliverySemantics::AtMostOnce => &self.amo_head,
            DeliverySemantics::AtLeastOnce => &self.alo_head,
            DeliverySemantics::All => &self.all_head,
        }
    }

    /// Total trainable parameters across both heads.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.amo_head.parameter_count()
            + self.alo_head.parameter_count()
            + self.all_head.parameter_count()
    }

    /// Serialises the model to JSON.
    ///
    /// # Errors
    ///
    /// Propagates serializer errors (effectively unreachable).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Restores a model serialised with [`ReliabilityModel::to_json`].
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// Reusable buffers for [`ReliabilityModel`] inference, scalar and
/// batched: the gathered per-head input matrix, the network scratch, the
/// fixed feature scaler, and the index list of each head's rows.
struct BatchScratch {
    inputs: Matrix,
    infer: InferScratch,
    scaler: MinMaxScaler,
    rows: Vec<usize>,
}

thread_local! {
    /// `ReliabilityModel` derives `Clone`/`PartialEq`/serde, so it cannot
    /// carry its own scratch; a thread-local keeps inference
    /// allocation-free after warm-up without poisoning those derives.
    static BATCH_SCRATCH: RefCell<BatchScratch> = RefCell::new(BatchScratch {
        inputs: Matrix::zeros(1, 1),
        infer: InferScratch::new(),
        scaler: Features::scaler(),
        rows: Vec::new(),
    });
}

/// The fixed head-dispatch order for batched prediction (an internal
/// detail: outputs are scattered back to input order regardless).
const HEAD_ORDER: [DeliverySemantics; 3] = [
    DeliverySemantics::AtMostOnce,
    DeliverySemantics::AtLeastOnce,
    DeliverySemantics::All,
];

/// One head-output row as a [`Prediction`]: the at-most-once head has no
/// `P̂_d` neuron (no duplicates by construction).
fn prediction_from_row(semantics: DeliverySemantics, row: &[f64]) -> Prediction {
    Prediction {
        p_loss: row[0],
        p_dup: if semantics == DeliverySemantics::AtMostOnce {
            0.0
        } else {
            row[1]
        },
    }
}

impl Predictor for ReliabilityModel {
    /// Scalar inference: a one-row batch through the same thread-local
    /// scratch and forward chain as [`Predictor::predict_batch`], so a warm
    /// thread allocates nothing per call.
    fn predict(&self, features: &Features) -> Prediction {
        BATCH_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            scratch.inputs.resize_zeroed(1, Features::HEAD_INPUTS);
            features.write_scaled_head_vector(&scratch.scaler, scratch.inputs.row_mut(0));
            let pred = self
                .head(features.semantics)
                .predict_batch_into(&scratch.inputs, &mut scratch.infer);
            prediction_from_row(features.semantics, pred.row(0))
        })
    }

    /// Batched inference: rows are grouped per semantics head, each group
    /// flows through **one** forward chain (one dense matmul per layer for
    /// the whole group, straight off the stored weights), and the outputs
    /// are scattered back to input order. The dense matmul computes every
    /// output row independently with a fixed accumulation order, so each
    /// row is bit-identical to the scalar [`Predictor::predict`] path.
    fn predict_batch(&self, features: &[Features]) -> Vec<Prediction> {
        if features.is_empty() {
            return Vec::new();
        }
        let mut out = vec![
            Prediction {
                p_loss: 0.0,
                p_dup: 0.0,
            };
            features.len()
        ];
        BATCH_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            for semantics in HEAD_ORDER {
                scratch.rows.clear();
                scratch
                    .rows
                    .extend((0..features.len()).filter(|&i| features[i].semantics == semantics));
                if scratch.rows.is_empty() {
                    continue;
                }
                scratch
                    .inputs
                    .resize_zeroed(scratch.rows.len(), Features::HEAD_INPUTS);
                for (r, &i) in scratch.rows.iter().enumerate() {
                    features[i]
                        .write_scaled_head_vector(&scratch.scaler, scratch.inputs.row_mut(r));
                }
                let pred = self
                    .head(semantics)
                    .predict_batch_into(&scratch.inputs, &mut scratch.infer);
                for (r, &i) in scratch.rows.iter().enumerate() {
                    out[i] = prediction_from_row(semantics, pred.row(r));
                }
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heads_have_paper_prescribed_outputs() {
        let mut rng = SimRng::seed_from_u64(1);
        let m = ReliabilityModel::new(Topology::Compact, &mut rng);
        assert_eq!(m.head(DeliverySemantics::AtMostOnce).output_dim(), 1);
        assert_eq!(m.head(DeliverySemantics::AtLeastOnce).output_dim(), 2);
        assert_eq!(m.head(DeliverySemantics::All).output_dim(), 2);
        assert_eq!(
            m.head(DeliverySemantics::AtMostOnce).input_dim(),
            Features::HEAD_INPUTS
        );
    }

    #[test]
    fn amo_predictions_have_zero_duplicates() {
        let mut rng = SimRng::seed_from_u64(2);
        let m = ReliabilityModel::new(Topology::Compact, &mut rng);
        let f = Features {
            semantics: DeliverySemantics::AtMostOnce,
            ..Features::default()
        };
        let p = m.predict(&f);
        assert_eq!(p.p_dup, 0.0);
        assert!((0.0..=1.0).contains(&p.p_loss));
    }

    #[test]
    fn predictions_stay_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(3);
        let m = ReliabilityModel::new(Topology::Compact, &mut rng);
        for loss in [0.0, 0.19, 0.5] {
            for semantics in [
                DeliverySemantics::AtMostOnce,
                DeliverySemantics::AtLeastOnce,
                DeliverySemantics::All,
            ] {
                let p = m.predict(&Features {
                    loss_rate: loss,
                    semantics,
                    ..Features::default()
                });
                assert!((0.0..=1.0).contains(&p.p_loss));
                assert!((0.0..=1.0).contains(&p.p_dup));
            }
        }
    }

    #[test]
    fn batched_predictions_match_scalar_bitwise() {
        let mut rng = SimRng::seed_from_u64(21);
        let m = ReliabilityModel::new(Topology::Compact, &mut rng);
        let mut batch = Vec::new();
        for (i, semantics) in [
            DeliverySemantics::AtLeastOnce,
            DeliverySemantics::AtMostOnce,
            DeliverySemantics::All,
            DeliverySemantics::AtLeastOnce,
            DeliverySemantics::AtMostOnce,
        ]
        .into_iter()
        .enumerate()
        {
            batch.push(Features {
                semantics,
                loss_rate: 0.05 * i as f64,
                delay_ms: 10.0 + 30.0 * i as f64,
                batch_size: 1 + i,
                ..Features::default()
            });
        }
        let batched = m.predict_batch(&batch);
        assert_eq!(batched.len(), batch.len());
        for (f, b) in batch.iter().zip(&batched) {
            let s = m.predict(f);
            assert_eq!(b.p_loss.to_bits(), s.p_loss.to_bits());
            assert_eq!(b.p_dup.to_bits(), s.p_dup.to_bits());
        }
        // Second call reuses the warm thread-local scratch.
        let again = m.predict_batch(&batch);
        assert_eq!(batched, again);
        assert!(m.predict_batch(&[]).is_empty());
    }

    #[test]
    fn default_predict_batch_loops_scalar() {
        let p = FnPredictor(|f: &Features| Prediction {
            p_loss: f.loss_rate,
            p_dup: 0.5,
        });
        let batch = [
            Features {
                loss_rate: 0.1,
                ..Features::default()
            },
            Features {
                loss_rate: 0.2,
                ..Features::default()
            },
        ];
        let out = p.predict_batch(&batch);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].p_loss, 0.1);
        assert_eq!(out[1].p_loss, 0.2);
    }

    #[test]
    fn paper_topology_parameter_count() {
        let mut rng = SimRng::seed_from_u64(4);
        let m = ReliabilityModel::new(Topology::Paper, &mut rng);
        // Three heads of ≈ 95k parameters each.
        assert!(m.parameter_count() > 270_000);
        assert_eq!(m.topology(), Topology::Paper);
    }

    #[test]
    fn json_round_trip_preserves_predictions() {
        let mut rng = SimRng::seed_from_u64(5);
        let m = ReliabilityModel::new(Topology::Compact, &mut rng);
        let back = ReliabilityModel::from_json(&m.to_json().unwrap()).unwrap();
        let f = Features::default();
        assert_eq!(m.predict(&f), back.predict(&f));
    }

    #[test]
    fn fn_predictor_wraps_closures() {
        let p = FnPredictor(|f: &Features| Prediction {
            p_loss: f.loss_rate,
            p_dup: 0.0,
        });
        let f = Features {
            loss_rate: 0.3,
            ..Features::default()
        };
        assert_eq!(p.predict(&f).p_loss, 0.3);
    }
}
