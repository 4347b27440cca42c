//! Dense (fully-connected) layers.

use desim::SimRng;
use serde::{DeError, Deserialize, Serialize, Sink, Value};

use crate::activation::Activation;
use crate::matrix::Matrix;

/// A dense layer: `y = f(x · W + b)`.
///
/// Weights are stored once, as the `in × out` matrix the forward product
/// reads (`weights[i][o]` connects input `i` to neuron `o`), so no forward
/// pass ever transposes them; gradients and momentum share the layout.
/// Batches are row-major (one sample per row), so a batch of `n` inputs is
/// an `n × in` matrix. JSON keeps the historical `out × in` orientation
/// (see the hand-written serde impls below).
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    weights: Matrix,
    bias: Vec<f64>,
    activation: Activation,
}

/// Momentum state for one layer (SGD with momentum).
#[derive(Debug, Clone, PartialEq)]
pub struct Velocity {
    /// Velocity of the weights (`in × out`, like the weights).
    pub weights: Matrix,
    /// Velocity of the biases.
    pub bias: Vec<f64>,
}

/// Gradients produced by one backward pass.
#[derive(Debug, Clone)]
pub struct DenseGradients {
    /// `∂L/∂W`, same `in × out` shape as the weights.
    pub weights: Matrix,
    /// `∂L/∂b`.
    pub bias: Vec<f64>,
    /// `∂L/∂x` — passed to the previous layer.
    pub input: Matrix,
}

/// Reusable temporaries of [`Dense::backward_into`].
#[derive(Debug, Clone)]
pub struct BackwardScratch {
    /// Pre-activation gradient `δ` (`n × out`).
    delta: Matrix,
    /// `δᵀ` (`out × n`).
    delta_t: Matrix,
    /// `W · δᵀ` (`in × n`), the input gradient before its transpose.
    input_t: Matrix,
}

impl Default for BackwardScratch {
    /// An empty scratch; buffers grow on first use.
    fn default() -> Self {
        BackwardScratch {
            delta: Matrix::zeros(1, 1),
            delta_t: Matrix::zeros(1, 1),
            input_t: Matrix::zeros(1, 1),
        }
    }
}

impl Dense {
    /// Creates a layer with Xavier/He-initialised weights and zero biases.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        rng: &mut SimRng,
    ) -> Self {
        assert!(
            input_dim > 0 && output_dim > 0,
            "dimensions must be positive"
        );
        let std = (activation.init_gain() / input_dim as f64).sqrt();
        let mut weights = Matrix::zeros(input_dim, output_dim);
        // Neuron-major draw order: the seed → weights mapping predates the
        // `in × out` layout and every pinned digest depends on it.
        for o in 0..output_dim {
            for i in 0..input_dim {
                weights.set(i, o, rng.normal(0.0, std));
            }
        }
        Dense {
            weights,
            bias: vec![0.0; output_dim],
            activation,
        }
    }

    /// Input dimension.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimension (number of neurons).
    #[must_use]
    pub fn output_dim(&self) -> usize {
        self.weights.cols()
    }

    /// The layer's activation.
    #[must_use]
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Number of trainable parameters.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }

    /// Forward pass over a batch (`n × in` → `n × out`):
    /// `out ← f(input · W + b)`, one [`Matrix::matmul_dense_into`] straight
    /// off the stored weights.
    ///
    /// `out` is resized to fit, so reusing it across calls amortises its
    /// allocation to zero. Training, loss evaluation and inference all run
    /// this one kernel, so batched rows equal scalar rows bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the input width differs from the layer's input dimension.
    pub fn forward_into(&self, input: &Matrix, out: &mut Matrix) {
        assert_eq!(input.cols(), self.input_dim(), "input width mismatch");
        input.matmul_dense_into(&self.weights, out);
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            for (o, b) in row.iter_mut().zip(&self.bias) {
                *o += b;
            }
            self.activation.apply_in_place(row);
        }
    }

    /// Backward pass into reusable buffers (all resized to fit).
    ///
    /// * `input` — the batch fed to [`Dense::forward_into`];
    /// * `output` — what forward returned (post-activation);
    /// * `grad_output` — `∂L/∂output`;
    /// * `want_input` — false skips the input gradient and leaves
    ///   `grads.input` stale (the first layer's is never read).
    ///
    /// Bit-identical to the textbook `out × in` formulation (`δᵀ · x`,
    /// `δ · W`): `xᵀ · δ` and `(W · δᵀ)ᵀ` form the same products
    /// (`a·b == b·a`) and add them in the same ascending order, and a
    /// skipped exact-zero term cannot differ from an added `±0.0` (see
    /// [`Matrix::matmul_dense_into`]; DESIGN.md §8b).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch between `input`, `output`, and
    /// `grad_output`.
    pub fn backward_into(
        &self,
        input: &Matrix,
        output: &Matrix,
        grad_output: &Matrix,
        want_input: bool,
        scratch: &mut BackwardScratch,
        grads: &mut DenseGradients,
    ) {
        assert_eq!(
            (output.rows(), output.cols()),
            (grad_output.rows(), grad_output.cols()),
            "output / gradient shape mismatch"
        );
        assert_eq!(input.rows(), output.rows(), "batch size mismatch");
        // δ = grad_output ⊙ f'(output)
        let delta = &mut scratch.delta;
        delta.reshape_for_overwrite(grad_output.rows(), grad_output.cols());
        for r in 0..grad_output.rows() {
            let d_row = delta.row_mut(r);
            for ((dl, &g), &o) in d_row.iter_mut().zip(grad_output.row(r)).zip(output.row(r)) {
                *dl = g * self.activation.derivative_from_output(o);
            }
        }
        input.matmul_at_b_into(delta, &mut grads.weights);
        grads.bias.clear();
        grads.bias.resize(self.output_dim(), 0.0);
        for r in 0..delta.rows() {
            for (gb, &d) in grads.bias.iter_mut().zip(delta.row(r)) {
                *gb += d;
            }
        }
        if want_input {
            delta.transpose_into(&mut scratch.delta_t);
            self.weights
                .matmul_dense_into(&scratch.delta_t, &mut scratch.input_t);
            scratch.input_t.transpose_into(&mut grads.input);
        }
    }

    /// Applies one SGD step: `W ← W − lr · ∂L/∂W`, `b ← b − lr · ∂L/∂b`.
    ///
    /// # Panics
    ///
    /// Panics on gradient shape mismatch.
    pub fn apply_gradients(&mut self, grads: &DenseGradients, learning_rate: f64) {
        self.weights
            .sub_scaled_assign(&grads.weights, learning_rate);
        for (b, g) in self.bias.iter_mut().zip(&grads.bias) {
            *b -= learning_rate * g;
        }
    }

    /// Applies one SGD-with-momentum step, updating `velocity` in place:
    /// `v ← β·v + ∂L/∂θ`, `θ ← θ − lr·v`.
    ///
    /// With `momentum = 0` this is exactly [`Dense::apply_gradients`].
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch between gradients, velocity, and the layer.
    pub fn apply_gradients_with_momentum(
        &mut self,
        grads: &DenseGradients,
        learning_rate: f64,
        momentum: f64,
        velocity: &mut Velocity,
    ) {
        velocity.weights.scale(momentum);
        velocity.weights.add_assign(&grads.weights);
        for (v, g) in velocity.bias.iter_mut().zip(&grads.bias) {
            *v = momentum * *v + g;
        }
        self.weights
            .sub_scaled_assign(&velocity.weights, learning_rate);
        for (b, v) in self.bias.iter_mut().zip(&velocity.bias) {
            *b -= learning_rate * v;
        }
    }

    /// A zeroed velocity buffer matching this layer's shape.
    #[must_use]
    pub fn zero_velocity(&self) -> Velocity {
        Velocity {
            weights: Matrix::zeros(self.input_dim(), self.output_dim()),
            bias: vec![0.0; self.output_dim()],
        }
    }

    /// A zeroed gradient buffer matching this layer's shape, for use as a
    /// reusable [`Dense::backward_into`] target.
    #[must_use]
    pub fn zero_gradients(&self) -> DenseGradients {
        DenseGradients {
            weights: Matrix::zeros(self.input_dim(), self.output_dim()),
            bias: vec![0.0; self.output_dim()],
            input: Matrix::zeros(1, self.input_dim()),
        }
    }
}

/// JSON keeps `weights` as the `out × in` matrix every model file written
/// before the `in × out` layout carries, so old files load and every pinned
/// weights digest stands. Writing streams the stored matrix column by
/// column, so no transposed copy is made; reading pays one transpose.
impl Serialize for Dense {
    fn serialize<S: Sink + ?Sized>(&self, sink: &mut S) {
        sink.begin_map();
        sink.key("weights");
        self.weights.serialize_transposed(sink);
        sink.key("bias");
        self.bias.serialize(sink);
        sink.key("activation");
        self.activation.serialize(sink);
        sink.end_map();
    }
}

impl Deserialize for Dense {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let map = v
            .as_map()
            .ok_or_else(|| DeError::custom("expected map for Dense"))?;
        let weights: Matrix = serde::__field(map, "weights")?;
        let bias: Vec<f64> = serde::__field(map, "bias")?;
        let activation: Activation = serde::__field(map, "activation")?;
        let len = weights.as_slice().len();
        if len == 0
            || weights.rows().checked_mul(weights.cols()) != Some(len)
            || bias.len() != weights.rows()
        {
            return Err(DeError::custom("inconsistent shapes for Dense"));
        }
        Ok(Dense {
            weights: weights.transpose(),
            bias,
            activation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(rng_seed: u64) -> Dense {
        let mut rng = SimRng::seed_from_u64(rng_seed);
        Dense::new(3, 2, Activation::Tanh, &mut rng)
    }

    /// Allocating conveniences over the `_into` passes.
    impl Dense {
        /// The weights in the textbook `out × in` orientation.
        fn weights(&self) -> Matrix {
            self.weights.transpose()
        }

        fn forward(&self, input: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(1, 1);
            self.forward_into(input, &mut out);
            out
        }

        fn backward(&self, input: &Matrix, output: &Matrix, grad: &Matrix) -> DenseGradients {
            let mut grads = self.zero_gradients();
            let mut scratch = BackwardScratch::default();
            self.backward_into(input, output, grad, true, &mut scratch, &mut grads);
            grads
        }
    }

    #[test]
    fn shapes_are_consistent() {
        let l = layer(1);
        assert_eq!(l.input_dim(), 3);
        assert_eq!(l.output_dim(), 2);
        assert_eq!(l.parameter_count(), 3 * 2 + 2);
        let x = Matrix::zeros(5, 3);
        let y = l.forward(&x);
        assert_eq!((y.rows(), y.cols()), (5, 2));
    }

    #[test]
    fn forward_applies_activation() {
        let mut rng = SimRng::seed_from_u64(2);
        let l = Dense::new(1, 1, Activation::Sigmoid, &mut rng);
        let y = l.forward(&Matrix::from_rows(&[&[0.0]]));
        // Zero input and zero bias → sigmoid(0) = 0.5.
        assert!((y.get(0, 0) - 0.5).abs() < 1e-12);
    }

    /// Numerical gradient check: the backbone correctness test for the
    /// whole training stack.
    #[test]
    fn backward_matches_numerical_gradients() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut l = Dense::new(3, 2, Activation::Tanh, &mut rng);
        let x = Matrix::from_rows(&[&[0.3, -0.7, 0.5], &[-0.2, 0.9, 0.1]]);
        let target = Matrix::from_rows(&[&[0.5, -0.5], &[0.1, 0.2]]);

        let loss = |l: &Dense| -> f64 {
            let y = l.forward(&x);
            let mut s = 0.0;
            for r in 0..y.rows() {
                for c in 0..y.cols() {
                    let d = y.get(r, c) - target.get(r, c);
                    s += 0.5 * d * d;
                }
            }
            s
        };

        let y = l.forward(&x);
        let mut grad_out = y.clone();
        grad_out.sub_assign(&target);
        let grads = l.backward(&x, &y, &grad_out);

        let h = 1e-6;
        for i in 0..3 {
            for o in 0..2 {
                let orig = l.weights.get(i, o);
                l.weights.set(i, o, orig + h);
                let up = loss(&l);
                l.weights.set(i, o, orig - h);
                let down = loss(&l);
                l.weights.set(i, o, orig);
                let numeric = (up - down) / (2.0 * h);
                let analytic = grads.weights.get(i, o);
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "dW[{i},{o}]: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
        for i in 0..2 {
            let orig = l.bias[i];
            l.bias[i] = orig + h;
            let up = loss(&l);
            l.bias[i] = orig - h;
            let down = loss(&l);
            l.bias[i] = orig;
            let numeric = (up - down) / (2.0 * h);
            assert!(
                (numeric - grads.bias[i]).abs() < 1e-5,
                "db[{i}]: {} vs {numeric}",
                grads.bias[i]
            );
        }
    }

    #[test]
    fn input_gradient_matches_numerical() {
        let mut rng = SimRng::seed_from_u64(4);
        let l = Dense::new(2, 2, Activation::Sigmoid, &mut rng);
        let target = Matrix::from_rows(&[&[0.3, 0.6]]);
        let loss_at = |x: &Matrix| -> f64 {
            let y = l.forward(x);
            let mut s = 0.0;
            for c in 0..2 {
                let d = y.get(0, c) - target.get(0, c);
                s += 0.5 * d * d;
            }
            s
        };
        let mut x = Matrix::from_rows(&[&[0.4, -0.8]]);
        let y = l.forward(&x);
        let mut grad_out = y.clone();
        grad_out.sub_assign(&target);
        let grads = l.backward(&x, &y, &grad_out);
        let h = 1e-6;
        for c in 0..2 {
            let orig = x.get(0, c);
            x.set(0, c, orig + h);
            let up = loss_at(&x);
            x.set(0, c, orig - h);
            let down = loss_at(&x);
            x.set(0, c, orig);
            let numeric = (up - down) / (2.0 * h);
            assert!((numeric - grads.input.get(0, c)).abs() < 1e-5, "dX[0,{c}]");
        }
    }

    #[test]
    fn gradient_step_reduces_loss() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut l = Dense::new(2, 1, Activation::Linear, &mut rng);
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        let target = Matrix::from_rows(&[&[3.0]]);
        let loss = |l: &Dense| {
            let y = l.forward(&x);
            let d = y.get(0, 0) - target.get(0, 0);
            0.5 * d * d
        };
        let before = loss(&l);
        let y = l.forward(&x);
        let mut grad_out = y.clone();
        grad_out.sub_assign(&target);
        let grads = l.backward(&x, &y, &grad_out);
        l.apply_gradients(&grads, 0.05);
        assert!(loss(&l) < before);
    }

    #[test]
    fn momentum_zero_matches_plain_sgd() {
        let mut rng = SimRng::seed_from_u64(6);
        let l0 = Dense::new(2, 2, Activation::Tanh, &mut rng);
        let mut plain = l0.clone();
        let mut with_momentum = l0.clone();
        let x = Matrix::from_rows(&[&[0.5, -0.2]]);
        let y = l0.forward(&x);
        let grad_out = Matrix::from_rows(&[&[0.1, -0.3]]);
        let grads = l0.backward(&x, &y, &grad_out);
        plain.apply_gradients(&grads, 0.1);
        let mut v = with_momentum.zero_velocity();
        with_momentum.apply_gradients_with_momentum(&grads, 0.1, 0.0, &mut v);
        assert_eq!(plain, with_momentum);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut rng = SimRng::seed_from_u64(7);
        let mut l = Dense::new(1, 1, Activation::Linear, &mut rng);
        let mut v = l.zero_velocity();
        let grads = DenseGradients {
            weights: Matrix::from_rows(&[&[1.0]]),
            bias: vec![1.0],
            input: Matrix::zeros(1, 1),
        };
        let w0 = l.weights().get(0, 0);
        l.apply_gradients_with_momentum(&grads, 0.1, 0.9, &mut v);
        let step1 = w0 - l.weights().get(0, 0);
        let w1 = l.weights().get(0, 0);
        l.apply_gradients_with_momentum(&grads, 0.1, 0.9, &mut v);
        let step2 = w1 - l.weights().get(0, 0);
        assert!((step1 - 0.1).abs() < 1e-12);
        // Second step: v = 0.9·1 + 1 = 1.9 → step 0.19.
        assert!((step2 - 0.19).abs() < 1e-12);
    }

    #[test]
    fn initialisation_is_seed_deterministic() {
        assert_eq!(layer(9), layer(9));
        assert_ne!(layer(9), layer(10));
    }

    /// The formulation this layer replaced, kept as the oracle: weights as
    /// an `out × in` copy, forward `x · Wᵀ`, weight gradient `δᵀ · x`,
    /// input gradient `δ · W`, every product through the zero-skipping
    /// [`Matrix::matmul_naive`].
    struct Reference {
        weights: Matrix,
        bias: Vec<f64>,
        activation: Activation,
    }

    impl Reference {
        fn of(l: &Dense) -> Self {
            Reference {
                weights: l.weights(),
                bias: l.bias.clone(),
                activation: l.activation,
            }
        }

        fn forward(&self, input: &Matrix) -> Matrix {
            let mut out = input.matmul_naive(&self.weights.transpose());
            for r in 0..out.rows() {
                for (o, b) in out.row_mut(r).iter_mut().zip(&self.bias) {
                    *o = self.activation.apply(*o + b);
                }
            }
            out
        }

        fn backward(&self, input: &Matrix, output: &Matrix, grad: &Matrix) -> DenseGradients {
            let mut delta = grad.clone();
            for (d, &o) in delta.as_mut_slice().iter_mut().zip(output.as_slice()) {
                *d *= self.activation.derivative_from_output(o);
            }
            let mut bias = vec![0.0; self.bias.len()];
            for r in 0..delta.rows() {
                for (gb, &d) in bias.iter_mut().zip(delta.row(r)) {
                    *gb += d;
                }
            }
            DenseGradients {
                weights: delta.transpose().matmul_naive(input),
                bias,
                input: delta.matmul_naive(&self.weights),
            }
        }

        /// One SGD-with-momentum step (`momentum = 0` is plain SGD).
        fn step(&mut self, grads: &DenseGradients, lr: f64, momentum: f64, v: &mut Velocity) {
            v.weights.scale(momentum);
            v.weights.add_assign(&grads.weights);
            self.weights.sub_scaled_assign(&v.weights, lr);
            for ((b, v), g) in self.bias.iter_mut().zip(&mut v.bias).zip(&grads.bias) {
                *v = momentum * *v + g;
                *b -= lr * *v;
            }
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    /// `rows × cols` of seeded values in `±scale`, about one in five an
    /// exact zero (what a ReLU layer upstream feeds this one).
    fn sparse_matrix(rows: usize, cols: usize, scale: f64, rng: &mut SimRng) -> Matrix {
        let data = (0..rows * cols).map(|_| {
            let v = (rng.next_f64() * 2.0 - 1.0) * scale;
            if rng.next_f64() < 0.2 {
                0.0
            } else {
                v
            }
        });
        Matrix::from_vec(rows, cols, data.collect())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 200, ..Default::default() })]

        /// Forward, backward and two optimiser steps on the `in × out`
        /// layout equal the `out × in` reference bit for bit — over shapes
        /// down to `n = 1`, `in = 1`, `out = 1`, the batch rows whose `δᵀ`
        /// the column strips split as 8, 8 + 8 + 4 + 1 and 4 × 8, inputs
        /// large enough to
        /// saturate tanh/sigmoid (exact-zero `δ`) and ReLU layers
        /// (exact-zero activations and derivatives).
        #[test]
        fn matches_out_by_in_reference_bitwise(
            n in proptest::prop_oneof![
                1usize..10,
                proptest::Just(8usize),
                proptest::Just(21usize),
                proptest::Just(32usize),
            ],
            input_dim in 1usize..20,
            output_dim in 1usize..20,
            activation in proptest::prop_oneof![
                proptest::Just(Activation::Tanh),
                proptest::Just(Activation::Sigmoid),
                proptest::Just(Activation::Relu),
                proptest::Just(Activation::Linear),
            ],
            scale in proptest::prop_oneof![proptest::Just(1.0), proptest::Just(400.0)],
            momentum in proptest::prop_oneof![proptest::Just(0.0), proptest::Just(0.9)],
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut layer = Dense::new(input_dim, output_dim, activation, &mut rng);
            let mut reference = Reference::of(&layer);
            let mut v = layer.zero_velocity();
            let mut v_ref = Velocity {
                weights: v.weights.transpose(),
                bias: v.bias.clone(),
            };
            let mut scratch = BackwardScratch::default();
            let mut grads = layer.zero_gradients();
            for _ in 0..2 {
                let x = sparse_matrix(n, input_dim, scale, &mut rng);
                let grad_out = sparse_matrix(n, output_dim, 1.0, &mut rng);
                let y = layer.forward(&x);
                proptest::prop_assert_eq!(bits(y.as_slice()), bits(reference.forward(&x).as_slice()));

                layer.backward_into(&x, &y, &grad_out, true, &mut scratch, &mut grads);
                let want = reference.backward(&x, &y, &grad_out);
                proptest::prop_assert_eq!(bits(grads.weights.transpose().as_slice()), bits(want.weights.as_slice()));
                proptest::prop_assert_eq!(bits(&grads.bias), bits(&want.bias));
                proptest::prop_assert_eq!(bits(grads.input.as_slice()), bits(want.input.as_slice()));
                // Skipping the input gradient changes nothing else.
                let mut skipped = layer.zero_gradients();
                layer.backward_into(&x, &y, &grad_out, false, &mut scratch, &mut skipped);
                proptest::prop_assert_eq!(bits(skipped.weights.as_slice()), bits(grads.weights.as_slice()));
                proptest::prop_assert_eq!(bits(&skipped.bias), bits(&grads.bias));

                if momentum > 0.0 {
                    layer.apply_gradients_with_momentum(&grads, 0.3, momentum, &mut v);
                } else {
                    layer.apply_gradients(&grads, 0.3);
                }
                reference.step(&want, 0.3, momentum, &mut v_ref);
                proptest::prop_assert_eq!(bits(layer.weights().as_slice()), bits(reference.weights.as_slice()));
                proptest::prop_assert_eq!(bits(&layer.bias), bits(&reference.bias));
            }
        }
    }
}
