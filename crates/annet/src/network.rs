//! The sequential network: construction, mini-batch SGD training, and
//! prediction.
//!
//! The paper's topology — four hidden layers of 200/200/200/64 neurons, SGD
//! with learning rate 0.5 and 1000 epochs — is available as
//! [`NetworkBuilder::paper_topology`].

use std::cell::RefCell;

use desim::SimRng;
use obs::Profiler;
use serde::{Deserialize, Serialize};

use crate::activation::Activation;
use crate::dataset::Dataset;
use crate::layer::{BackwardScratch, Dense, DenseGradients, Velocity};
use crate::matrix::Matrix;

/// Builder for a [`Network`].
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    input_dim: usize,
    layers: Vec<(usize, Activation)>,
}

impl NetworkBuilder {
    /// Starts a network taking `input_dim` features.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim` is zero.
    #[must_use]
    pub fn new(input_dim: usize) -> Self {
        assert!(input_dim > 0, "input dimension must be positive");
        NetworkBuilder {
            input_dim,
            layers: Vec::new(),
        }
    }

    /// Appends a dense layer of `neurons` with the given activation.
    ///
    /// # Panics
    ///
    /// Panics if `neurons` is zero.
    #[must_use]
    pub fn dense(mut self, neurons: usize, activation: Activation) -> Self {
        assert!(neurons > 0, "layer must have at least one neuron");
        self.layers.push((neurons, activation));
        self
    }

    /// The paper's topology: hidden layers 200/200/200/64 (tanh) and a
    /// sigmoid output of `outputs` neurons (1 for at-most-once, where only
    /// `P_l` exists; 2 for at-least-once, predicting `P_l` and `P_d`).
    #[must_use]
    pub fn paper_topology(input_dim: usize, outputs: usize) -> Self {
        NetworkBuilder::new(input_dim)
            .dense(200, Activation::Tanh)
            .dense(200, Activation::Tanh)
            .dense(200, Activation::Tanh)
            .dense(64, Activation::Tanh)
            .dense(outputs, Activation::Sigmoid)
    }

    /// Initialises the network with seeded random weights.
    ///
    /// # Panics
    ///
    /// Panics if no layers were added.
    #[must_use]
    pub fn build(self, rng: &mut SimRng) -> Network {
        assert!(!self.layers.is_empty(), "network needs at least one layer");
        let mut layers = Vec::with_capacity(self.layers.len());
        let mut dim = self.input_dim;
        for (neurons, activation) in self.layers {
            layers.push(Dense::new(dim, neurons, activation, rng));
            dim = neurons;
        }
        Network { layers }
    }
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Full passes over the training data.
    pub epochs: usize,
    /// SGD learning rate (the paper uses 0.5 on min–max-scaled data).
    pub learning_rate: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Shuffle sample order each epoch.
    pub shuffle: bool,
    /// Momentum coefficient β (0 = the paper's plain SGD).
    pub momentum: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 1000,
            learning_rate: 0.5,
            batch_size: 32,
            shuffle: true,
            momentum: 0.0,
        }
    }
}

/// What a training run reports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean-squared-error loss over the training data after the last epoch
    /// ([`Network::mse`] of the trained network).
    pub final_loss: f64,
}

/// A feed-forward network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    layers: Vec<Dense>,
}

/// Reusable forward/backward buffers for one training worker.
///
/// Everything the hot loop needs lives here, so a whole training run
/// performs no per-batch heap allocation once the buffers have grown to
/// their steady-state sizes.
struct TrainScratch {
    /// `activations[0]` holds the gathered batch inputs; `activations[i+1]`
    /// holds layer `i`'s post-activation output.
    activations: Vec<Matrix>,
    /// Gathered batch targets.
    targets: Matrix,
    /// Per-layer backward temporaries (`δ`, `δᵀ`, `W · δᵀ`).
    back: BackwardScratch,
    /// `∂L/∂(layer output)`, rotated down the stack during backprop.
    grad: Matrix,
    /// Per-layer gradient buffers.
    grads: Vec<DenseGradients>,
    /// Per-layer momentum state: empty until the first step with
    /// `momentum > 0`, so momentum-free training never holds a
    /// weight-sized zero buffer per layer.
    velocities: Vec<Velocity>,
}

impl TrainScratch {
    fn new(net: &Network) -> Self {
        TrainScratch {
            activations: vec![Matrix::zeros(1, 1); net.layers.len() + 1],
            targets: Matrix::zeros(1, 1),
            back: BackwardScratch::default(),
            grad: Matrix::zeros(1, 1),
            grads: net.layers.iter().map(Dense::zero_gradients).collect(),
            velocities: Vec::new(),
        }
    }
}

/// Reusable buffers for batched inference.
///
/// [`Network::predict_batch_into`] ping-pongs activations between two
/// buffers (the weights are read in place, never copied), so a scratch
/// kept across calls makes repeated inference allocation-free once the
/// buffers have grown to their steady-state sizes.
#[derive(Debug, Clone)]
pub struct InferScratch {
    /// Ping-pong activation buffers, swapped after every layer so the
    /// latest output is always in `ping`.
    ping: Matrix,
    pong: Matrix,
}

thread_local! {
    /// Input row and buffers of the scalar [`Network::predict`]:
    /// `Network` derives `Clone`/`PartialEq`/serde, so it cannot carry its
    /// own scratch.
    static SCALAR_SCRATCH: RefCell<(Matrix, InferScratch)> =
        RefCell::new((Matrix::zeros(1, 1), InferScratch::new()));
}

impl InferScratch {
    /// An empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        InferScratch {
            ping: Matrix::zeros(1, 1),
            pong: Matrix::zeros(1, 1),
        }
    }
}

impl Default for InferScratch {
    fn default() -> Self {
        InferScratch::new()
    }
}

impl Network {
    /// Input dimension.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.layers.first().expect("non-empty").input_dim()
    }

    /// Output dimension.
    #[must_use]
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("non-empty").output_dim()
    }

    /// Total trainable parameters.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(Dense::parameter_count).sum()
    }

    /// Predicts the output for one feature row: a one-row
    /// [`Network::predict_batch_into`] through a thread-local scratch, so
    /// only the returned vector is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the input dimension.
    #[must_use]
    pub fn predict(&self, input: &[f64]) -> Vec<f64> {
        SCALAR_SCRATCH.with(|cell| {
            let (x, scratch) = &mut *cell.borrow_mut();
            x.resize_zeroed(1, input.len());
            x.row_mut(0).copy_from_slice(input);
            self.predict_batch_into(x, scratch).row(0).to_vec()
        })
    }

    /// Predicts outputs for a batch (`n × in` → `n × out`).
    ///
    /// Thin wrapper over [`Network::predict_batch_into`] with a throwaway
    /// scratch; hot paths should hold an [`InferScratch`] and call that
    /// method directly.
    #[must_use]
    pub fn predict_batch(&self, inputs: &Matrix) -> Matrix {
        let mut scratch = InferScratch::new();
        self.predict_batch_into(inputs, &mut scratch).clone()
    }

    /// Allocation-free batched forward pass (`n × in` → `n × out`).
    ///
    /// The whole batch flows through one [`Dense::forward_into`] chain —
    /// one dense matmul per layer straight off the stored `in × out`
    /// weights, no transpose, no copy. Activations ping-pong between the
    /// scratch's two buffers, so a warm scratch makes the call
    /// allocation-free. The returned reference points into `scratch` and
    /// is valid until its next use.
    ///
    /// Bit-identical to [`Network::predict_batch`] (which is a wrapper
    /// over this method), and row `i` of the result is bit-identical to
    /// `self.predict(row_i)`: the dense matmul computes every output row
    /// independently with a fixed ascending-`k` accumulation order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.cols()` differs from the input dimension.
    pub fn predict_batch_into<'s>(
        &self,
        inputs: &Matrix,
        scratch: &'s mut InferScratch,
    ) -> &'s Matrix {
        let InferScratch { ping, pong } = scratch;
        let (first, rest) = self.layers.split_first().expect("non-empty");
        first.forward_into(inputs, ping);
        for layer in rest {
            layer.forward_into(ping, pong);
            std::mem::swap(ping, pong);
        }
        ping
    }

    /// Mean-squared-error loss over a dataset.
    #[must_use]
    pub fn mse(&self, data: &Dataset) -> f64 {
        let mut scratch = InferScratch::new();
        let pred = self.predict_batch_into(data.x(), &mut scratch);
        let total: f64 = pred
            .as_slice()
            .iter()
            .zip(data.y().as_slice())
            .map(|(p, y)| {
                let d = p - y;
                d * d
            })
            .sum();
        total / pred.as_slice().len() as f64
    }

    /// Trains with mini-batch SGD, returning the loss it ended at.
    ///
    /// # Panics
    ///
    /// Panics when the dataset's dimensions do not match the network, when
    /// `epochs` or `batch_size` is zero, or when the learning rate is not
    /// strictly positive.
    pub fn train(&mut self, data: &Dataset, config: &TrainConfig, rng: &mut SimRng) -> TrainReport {
        self.train_profiled(data, config, rng, &Profiler::disabled())
    }

    /// Trains like [`Network::train`] with a wall-clock span [`Profiler`]
    /// attached: each epoch, each mini-batch's forward and backward
    /// stages, and the closing loss evaluation get their own spans.
    ///
    /// Profiling is observational only — the trained weights are
    /// bit-identical whether the profiler is enabled or disabled (a
    /// disabled profiler costs one branch per instrumented stage).
    ///
    /// # Panics
    ///
    /// As [`Network::train`].
    pub fn train_profiled(
        &mut self,
        data: &Dataset,
        config: &TrainConfig,
        rng: &mut SimRng,
        prof: &Profiler,
    ) -> TrainReport {
        self.check_train_args(data, config);
        let n = data.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut scratch = TrainScratch::new(self);
        for _ in 0..config.epochs {
            let _epoch_guard = prof.span("annet.epoch");
            if config.shuffle {
                rng.shuffle(&mut order);
            }
            for chunk in order.chunks(config.batch_size) {
                self.train_batch(data, chunk, config, &mut scratch, prof);
            }
        }
        let _eval_guard = prof.span("annet.eval");
        TrainReport {
            final_loss: self.mse(data),
        }
    }

    fn check_train_args(&self, data: &Dataset, config: &TrainConfig) {
        assert_eq!(data.feature_dim(), self.input_dim(), "feature dim mismatch");
        assert_eq!(data.target_dim(), self.output_dim(), "target dim mismatch");
        assert!(config.epochs > 0, "epochs must be positive");
        assert!(config.batch_size > 0, "batch size must be positive");
        assert!(config.learning_rate > 0.0, "learning rate must be positive");
        assert!(
            (0.0..1.0).contains(&config.momentum),
            "momentum must be in [0, 1)"
        );
    }

    /// Forward pass over the gathered batch in `scratch.activations[0]`,
    /// filling `scratch.activations[1..]`.
    fn forward_scratch(&self, scratch: &mut TrainScratch) {
        for (i, layer) in self.layers.iter().enumerate() {
            let (head, tail) = scratch.activations.split_at_mut(i + 1);
            layer.forward_into(&head[i], &mut tail[0]);
        }
    }

    /// `∂MSE/∂output` for the current batch:
    /// `grad = 2/(n·k) · (pred − target)`.
    fn loss_gradient_scratch(scratch: &mut TrainScratch, batch_n: f64, target_dim: usize) {
        let pred = scratch.activations.last().expect("non-empty");
        let scale = 2.0 / (batch_n * target_dim as f64);
        scratch.grad.reshape_for_overwrite(pred.rows(), pred.cols());
        for (g, (&p, &t)) in scratch
            .grad
            .as_mut_slice()
            .iter_mut()
            .zip(pred.as_slice().iter().zip(scratch.targets.as_slice()))
        {
            *g = (p - t) * scale;
        }
    }

    fn train_batch(
        &mut self,
        data: &Dataset,
        chunk: &[usize],
        config: &TrainConfig,
        scratch: &mut TrainScratch,
        prof: &Profiler,
    ) {
        if config.momentum > 0.0 && scratch.velocities.is_empty() {
            scratch.velocities = self.layers.iter().map(Dense::zero_velocity).collect();
        }
        let forward_guard = prof.span("annet.forward");
        // Gather the batch, then forward keeping every layer's output.
        data.x()
            .gather_rows_into(chunk, &mut scratch.activations[0]);
        data.y().gather_rows_into(chunk, &mut scratch.targets);
        self.forward_scratch(scratch);
        drop(forward_guard);
        let _backward_guard = prof.span("annet.backward");
        // d(MSE)/d(output) = 2/(n·k) · (pred − target); fold constants into
        // the per-batch normalisation.
        Self::loss_gradient_scratch(scratch, chunk.len() as f64, self.output_dim());
        // Backward through the layers.
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            layer.backward_into(
                &scratch.activations[i],
                &scratch.activations[i + 1],
                &scratch.grad,
                i > 0,
                &mut scratch.back,
                &mut scratch.grads[i],
            );
            // The input gradient becomes the next layer's output gradient —
            // swap buffers instead of cloning.
            std::mem::swap(&mut scratch.grad, &mut scratch.grads[i].input);
            if config.momentum > 0.0 {
                layer.apply_gradients_with_momentum(
                    &scratch.grads[i],
                    config.learning_rate,
                    config.momentum,
                    &mut scratch.velocities[i],
                );
            } else {
                layer.apply_gradients(&scratch.grads[i], config.learning_rate);
            }
        }
    }

    /// Serialises the network (weights and topology) to JSON.
    ///
    /// # Errors
    ///
    /// Propagates the serialiser's error (effectively unreachable for this
    /// data).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Restores a network serialised with [`Network::to_json`].
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// Persistent state for *online* (incremental) SGD.
///
/// [`Network::train`] owns its scratch (momentum state included) for the
/// duration of one call; a long-lived controller that refits a model
/// mini-batch by mini-batch as live observations arrive needs those
/// buffers to survive between steps instead. An `IncrementalTrainer`
/// holds them, so momentum state carries across steps and a warm trainer
/// performs no per-step heap allocation.
///
/// Each [`IncrementalTrainer::step`] applies exactly the update
/// [`Network::train`] applies per mini-batch (the same forward /
/// backward kernels through the same internal scratch path), so a fresh
/// trainer stepped over the chunks of one unshuffled epoch produces
/// weights **bit-identical** to `train` with `shuffle = false,
/// epochs = 1` — the pin test holds this equivalence.
pub struct IncrementalTrainer {
    scratch: TrainScratch,
}

impl core::fmt::Debug for IncrementalTrainer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("IncrementalTrainer")
            .field("layers", &self.scratch.grads.len())
            .finish_non_exhaustive()
    }
}

impl IncrementalTrainer {
    /// A trainer sized for `net`: cold scratch, no momentum state yet.
    #[must_use]
    pub fn new(net: &Network) -> Self {
        IncrementalTrainer {
            scratch: TrainScratch::new(net),
        }
    }

    /// Applies one mini-batch SGD update to `net` using the dataset rows
    /// at `chunk`.
    ///
    /// `config.epochs` is ignored (a step *is* the unit of progress);
    /// `learning_rate`, `batch_size`-independent normalisation (the
    /// gradient is normalised by `chunk.len()`), and `momentum` behave
    /// exactly as in [`Network::train`].
    ///
    /// # Panics
    ///
    /// Panics when the dataset's dimensions do not match the network,
    /// when the hyper-parameters are invalid (as [`Network::train`]), when
    /// `chunk` is empty, or when the trainer was built for a network of a
    /// different shape.
    pub fn step(
        &mut self,
        net: &mut Network,
        data: &Dataset,
        chunk: &[usize],
        config: &TrainConfig,
    ) {
        net.check_train_args(data, config);
        assert!(!chunk.is_empty(), "a training step needs at least one row");
        assert_eq!(
            self.scratch.grads.len(),
            net.layers.len(),
            "trainer was built for a different network"
        );
        net.train_batch(
            data,
            chunk,
            config,
            &mut self.scratch,
            &Profiler::disabled(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mae;

    fn xor_dataset() -> Dataset {
        Dataset::from_rows(
            vec![
                vec![0.0, 0.0],
                vec![0.0, 1.0],
                vec![1.0, 0.0],
                vec![1.0, 1.0],
            ],
            vec![vec![0.0], vec![1.0], vec![1.0], vec![0.0]],
        )
        .unwrap()
    }

    #[test]
    fn builder_shapes() {
        let mut rng = SimRng::seed_from_u64(1);
        let net = NetworkBuilder::new(3)
            .dense(5, Activation::Tanh)
            .dense(2, Activation::Sigmoid)
            .build(&mut rng);
        assert_eq!(net.input_dim(), 3);
        assert_eq!(net.output_dim(), 2);
        assert_eq!(net.parameter_count(), 3 * 5 + 5 + 5 * 2 + 2);
    }

    #[test]
    fn paper_topology_matches_description() {
        let mut rng = SimRng::seed_from_u64(2);
        let net = NetworkBuilder::paper_topology(8, 2).build(&mut rng);
        assert_eq!(net.input_dim(), 8);
        assert_eq!(net.output_dim(), 2);
        // 8→200→200→200→64→2
        let expected =
            8 * 200 + 200 + 200 * 200 + 200 + 200 * 200 + 200 + 200 * 64 + 64 + 64 * 2 + 2;
        assert_eq!(net.parameter_count(), expected);
    }

    #[test]
    fn learns_xor() {
        let data = xor_dataset();
        let mut rng = SimRng::seed_from_u64(3);
        let mut net = NetworkBuilder::new(2)
            .dense(8, Activation::Tanh)
            .dense(1, Activation::Sigmoid)
            .build(&mut rng);
        let config = TrainConfig {
            epochs: 2000,
            learning_rate: 0.5,
            batch_size: 4,
            shuffle: true,
            momentum: 0.0,
        };
        let report = net.train(&data, &config, &mut rng);
        assert!(
            report.final_loss < 0.05,
            "XOR should be learnable: loss {}",
            report.final_loss
        );
        assert!(net.predict(&[0.0, 1.0])[0] > 0.8);
        assert!(net.predict(&[1.0, 1.0])[0] < 0.2);
    }

    /// A small unshuffled XOR fit: network, data and the config it trains
    /// under.
    fn xor_fit(seed: u64, epochs: usize) -> (Network, Dataset, TrainConfig, SimRng) {
        let mut rng = SimRng::seed_from_u64(seed);
        let net = NetworkBuilder::new(2)
            .dense(6, Activation::Tanh)
            .dense(1, Activation::Sigmoid)
            .build(&mut rng);
        let config = TrainConfig {
            epochs,
            learning_rate: 0.5,
            batch_size: 4,
            shuffle: false,
            momentum: 0.0,
        };
        (net, xor_dataset(), config, rng)
    }

    #[test]
    fn loss_decreases_during_training() {
        let (mut net, data, config, mut rng) = xor_fit(4, 300);
        let first = net.mse(&data);
        net.train(&data, &config, &mut rng);
        let last = net.mse(&data);
        assert!(last < first, "loss should fall: {first} → {last}");
    }

    #[test]
    fn final_loss_is_the_mse_after_training() {
        let (mut net, data, config, mut rng) = xor_fit(4, 30);
        let report = net.train(&data, &config, &mut rng);
        assert_eq!(report.final_loss.to_bits(), net.mse(&data).to_bits());
    }

    #[test]
    fn profiled_train_evaluates_the_loss_once() {
        let (mut net, data, config, mut rng) = xor_fit(4, 7);
        let prof = Profiler::enabled();
        net.train_profiled(&data, &config, &mut rng, &prof);
        let spans = prof.snapshot().spans;
        let calls = |name: &str| -> u64 {
            let named = spans.iter().filter(|s| s.name == name);
            named.map(|s| s.calls).sum()
        };
        assert_eq!(calls("annet.epoch"), 7);
        assert_eq!(calls("annet.eval"), 1);
    }

    #[test]
    fn regression_on_smooth_function() {
        // y = 0.5·(sin(3x) + 1)/2 + 0.25 — a smooth target in [0,1].
        let xs: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 60.0]).collect();
        let ys: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| vec![0.25 + 0.25 * ((3.0 * x[0]).sin() + 1.0)])
            .collect();
        let data = Dataset::from_rows(xs, ys).unwrap();
        let mut rng = SimRng::seed_from_u64(5);
        let mut net = NetworkBuilder::new(1)
            .dense(16, Activation::Tanh)
            .dense(16, Activation::Tanh)
            .dense(1, Activation::Sigmoid)
            .build(&mut rng);
        net.train(
            &data,
            &TrainConfig {
                epochs: 800,
                learning_rate: 0.3,
                batch_size: 16,
                shuffle: true,
                momentum: 0.0,
            },
            &mut rng,
        );
        let pred = net.predict_batch(data.x());
        let err = mae(&pred, data.y());
        assert!(err < 0.02, "MAE {err} should beat the paper's 0.02 bar");
    }

    #[test]
    fn incremental_steps_match_one_epoch_of_train() {
        // A fresh IncrementalTrainer stepped over the chunks of one
        // unshuffled epoch must produce weights bit-identical to
        // Network::train with shuffle = false, epochs = 1 (the closing
        // MSE probe in train reads but never mutates weights).
        for momentum in [0.0, 0.9] {
            let data = xor_dataset();
            let mut rng = SimRng::seed_from_u64(11);
            let reference = NetworkBuilder::new(2)
                .dense(8, Activation::Tanh)
                .dense(1, Activation::Sigmoid)
                .build(&mut rng);
            let config = TrainConfig {
                epochs: 1,
                learning_rate: 0.5,
                batch_size: 3,
                shuffle: false,
                momentum,
            };
            let mut trained = reference.clone();
            trained.train(&data, &config, &mut rng);

            let mut stepped = reference.clone();
            let mut trainer = IncrementalTrainer::new(&stepped);
            let order: Vec<usize> = (0..data.len()).collect();
            for chunk in order.chunks(config.batch_size) {
                trainer.step(&mut stepped, &data, chunk, &config);
            }
            assert_eq!(trained, stepped, "momentum {momentum}");
        }
    }

    #[test]
    fn incremental_momentum_state_persists_across_steps() {
        // Two unshuffled epochs through one trainer == two-epoch train:
        // only true when the velocity buffers survive between steps.
        let data = xor_dataset();
        let mut rng = SimRng::seed_from_u64(12);
        let reference = NetworkBuilder::new(2)
            .dense(6, Activation::Tanh)
            .dense(1, Activation::Sigmoid)
            .build(&mut rng);
        let config = TrainConfig {
            epochs: 2,
            learning_rate: 0.4,
            batch_size: 2,
            shuffle: false,
            momentum: 0.9,
        };
        let mut trained = reference.clone();
        trained.train(&data, &config, &mut rng);

        let mut stepped = reference.clone();
        let mut trainer = IncrementalTrainer::new(&stepped);
        let order: Vec<usize> = (0..data.len()).collect();
        for _ in 0..config.epochs {
            for chunk in order.chunks(config.batch_size) {
                trainer.step(&mut stepped, &data, chunk, &config);
            }
        }
        assert_eq!(trained, stepped);
    }

    #[test]
    fn momentum_buffers_exist_only_once_momentum_is_used() {
        let data = xor_dataset();
        let mut net = NetworkBuilder::new(2)
            .dense(6, Activation::Tanh)
            .dense(1, Activation::Sigmoid)
            .build(&mut SimRng::seed_from_u64(13));
        let mut config = TrainConfig {
            epochs: 1,
            learning_rate: 0.4,
            batch_size: 2,
            shuffle: false,
            momentum: 0.0,
        };
        let mut trainer = IncrementalTrainer::new(&net);
        trainer.step(&mut net, &data, &[0, 1], &config);
        assert!(trainer.scratch.velocities.is_empty());
        config.momentum = 0.9;
        trainer.step(&mut net, &data, &[2, 3], &config);
        assert_eq!(trainer.scratch.velocities.len(), 2);
    }

    #[test]
    fn sigmoid_output_stays_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(6);
        let net = NetworkBuilder::new(4)
            .dense(10, Activation::Relu)
            .dense(2, Activation::Sigmoid)
            .build(&mut rng);
        for i in 0..50 {
            let x = [i as f64 * 10.0, -5.0, 3.0, 0.5];
            for p in net.predict(&x) {
                assert!((0.0..=1.0).contains(&p), "prediction {p} out of range");
            }
        }
    }

    #[test]
    fn momentum_also_learns_xor() {
        let data = xor_dataset();
        let mut rng = SimRng::seed_from_u64(11);
        let mut net = NetworkBuilder::new(2)
            .dense(8, Activation::Tanh)
            .dense(1, Activation::Sigmoid)
            .build(&mut rng);
        let report = net.train(
            &data,
            &TrainConfig {
                epochs: 1200,
                learning_rate: 0.3,
                batch_size: 4,
                shuffle: true,
                momentum: 0.9,
            },
            &mut rng,
        );
        assert!(
            report.final_loss < 0.05,
            "momentum SGD learns XOR: loss {}",
            report.final_loss
        );
    }

    #[test]
    fn training_is_seed_deterministic() {
        let data = xor_dataset();
        let train = |seed| {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut net = NetworkBuilder::new(2)
                .dense(4, Activation::Tanh)
                .dense(1, Activation::Sigmoid)
                .build(&mut rng);
            net.train(
                &data,
                &TrainConfig {
                    epochs: 50,
                    ..TrainConfig::default()
                },
                &mut rng,
            );
            net
        };
        assert_eq!(train(7), train(7));
    }

    #[test]
    fn json_round_trip_preserves_predictions() {
        let mut rng = SimRng::seed_from_u64(8);
        let net = NetworkBuilder::new(2)
            .dense(4, Activation::Tanh)
            .dense(1, Activation::Sigmoid)
            .build(&mut rng);
        let json = net.to_json().unwrap();
        let back = Network::from_json(&json).unwrap();
        let x = [0.3, 0.7];
        assert_eq!(net.predict(&x), back.predict(&x));
    }

    #[test]
    #[should_panic(expected = "feature dim mismatch")]
    fn train_rejects_wrong_dims() {
        let data = xor_dataset();
        let mut rng = SimRng::seed_from_u64(9);
        let mut net = NetworkBuilder::new(3)
            .dense(1, Activation::Sigmoid)
            .build(&mut rng);
        net.train(&data, &TrainConfig::default(), &mut rng);
    }
}
