//! Property tests pinning batched inference to the scalar path: every row
//! of [`Network::predict_batch_into`] must be *bit*-identical to a scalar
//! [`Network::predict`] of that row, and the wrapper signatures must agree
//! with the scratch path exactly.

use annet::network::InferScratch;
use annet::{Activation, Dataset, Matrix, Network, NetworkBuilder};
use desim::SimRng;
use proptest::prelude::*;

/// A random small topology (1–4 layers, mixed activations) with seeded
/// weights.
fn arb_network() -> impl Strategy<Value = (Network, usize)> {
    let activation = prop_oneof![
        Just(Activation::Tanh),
        Just(Activation::Sigmoid),
        Just(Activation::Relu),
        Just(Activation::Linear),
    ];
    (
        1usize..6,
        proptest::collection::vec((1usize..10, activation), 1..4),
        0u64..u64::MAX,
    )
        .prop_map(|(input_dim, layers, seed)| {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut builder = NetworkBuilder::new(input_dim);
            for (neurons, act) in layers {
                builder = builder.dense(neurons, act);
            }
            (builder.build(&mut rng), input_dim)
        })
}

/// Seeded random feature rows matching an input dimension.
fn random_rows(dim: usize, n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.next_f64() * 20.0 - 10.0).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Row `i` of a batched forward equals the scalar predict of row `i`,
    /// bit for bit: the dense matmul computes output rows independently
    /// in a fixed accumulation order.
    #[test]
    fn batch_rows_match_scalar_predict(
        net_dim in arb_network(),
        seed in 0u64..u64::MAX,
    ) {
        let (net, dim) = net_dim;
        let rows = random_rows(dim, 7, seed);
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let x = Matrix::from_rows(&refs);
        let mut scratch = InferScratch::new();
        let batched = net.predict_batch_into(&x, &mut scratch);
        for (i, row) in rows.iter().enumerate() {
            let scalar = net.predict(row);
            prop_assert_eq!(batched.row(i).len(), scalar.len());
            for (b, s) in batched.row(i).iter().zip(&scalar) {
                prop_assert_eq!(b.to_bits(), s.to_bits(), "row {} diverged", i);
            }
        }
    }

    /// The allocating `predict_batch` wrapper returns exactly what the
    /// scratch path produces, and a reused (dirty) scratch gives the same
    /// bits as a fresh one.
    #[test]
    fn wrapper_and_reused_scratch_agree(
        net_dim in arb_network(),
        seed in 0u64..u64::MAX,
    ) {
        let (net, dim) = net_dim;
        let rows = random_rows(dim, 5, seed);
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let x = Matrix::from_rows(&refs);
        let wrapper = net.predict_batch(&x);
        let mut scratch = InferScratch::new();
        // Dirty the scratch with a larger batch first, then reuse it.
        let big = random_rows(dim, 11, seed.wrapping_add(1));
        let big_refs: Vec<&[f64]> = big.iter().map(Vec::as_slice).collect();
        let _ = net.predict_batch_into(&Matrix::from_rows(&big_refs), &mut scratch);
        let again = net.predict_batch_into(&x, &mut scratch);
        prop_assert_eq!(wrapper.rows(), again.rows());
        prop_assert_eq!(wrapper.cols(), again.cols());
        for (w, a) in wrapper.as_slice().iter().zip(again.as_slice()) {
            prop_assert_eq!(w.to_bits(), a.to_bits());
        }
    }
}

/// `mse` through the scratch path matches the hand-computed definition.
#[test]
fn mse_matches_manual_definition() {
    let mut rng = SimRng::seed_from_u64(42);
    let net = NetworkBuilder::new(3)
        .dense(5, Activation::Tanh)
        .dense(2, Activation::Sigmoid)
        .build(&mut rng);
    let x: Vec<Vec<f64>> = (0..9)
        .map(|_| (0..3).map(|_| rng.next_f64()).collect())
        .collect();
    let y: Vec<Vec<f64>> = (0..9)
        .map(|_| (0..2).map(|_| rng.next_f64()).collect())
        .collect();
    let data = Dataset::from_rows(x.clone(), y.clone()).unwrap();
    let mut manual = 0.0;
    let mut n = 0.0;
    for (xi, yi) in x.iter().zip(&y) {
        for (p, t) in net.predict(xi).iter().zip(yi) {
            let d = p - t;
            manual += d * d;
            n += 1.0;
        }
    }
    assert_eq!(net.mse(&data).to_bits(), (manual / n).to_bits());
}
