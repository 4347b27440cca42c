//! Property tests of the linear-algebra kernel and scaling layer the
//! network training rests on.

use annet::{Matrix, MinMaxScaler};
use proptest::prelude::*;

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-100.0f64..100.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// Like [`arb_matrix`] but with exact zeros mixed in: the naive product
/// skips a zero coefficient, the dense kernel adds its `±0.0` term.
fn arb_sparse_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    let cell = prop_oneof![Just(0.0f64), -100.0f64..100.0];
    proptest::collection::vec(cell, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// `matmul` (the dense kernel; these right-hand sides are narrow, so its
/// column strips) must be *bit*-identical to the naive triple loop —
/// training digests depend on it.
fn assert_bits_equal_naive(a: &Matrix, b: &Matrix) -> Result<(), TestCaseError> {
    let dense = a.matmul(b);
    let naive = a.matmul_naive(b);
    for (i, (x, y)) in dense
        .as_slice()
        .iter()
        .zip(naive.as_slice().iter())
        .enumerate()
    {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "element {} differs: dense {} vs naive {}",
            i,
            x,
            y
        );
    }
    Ok(())
}

proptest! {
    /// Transposition is an involution.
    #[test]
    fn transpose_involution(m in arb_matrix(4, 7)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    /// (AB)ᵀ = BᵀAᵀ — the identity backpropagation leans on.
    #[test]
    fn matmul_transpose_identity(a in arb_matrix(3, 4), b in arb_matrix(4, 5)) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        for r in 0..left.rows() {
            for c in 0..left.cols() {
                prop_assert!((left.get(r, c) - right.get(r, c)).abs() < 1e-9);
            }
        }
    }

    /// Matrix multiplication distributes over addition.
    #[test]
    fn matmul_distributes(a in arb_matrix(3, 3), b in arb_matrix(3, 3), c in arb_matrix(3, 3)) {
        let mut b_plus_c = b.clone();
        b_plus_c.add_assign(&c);
        let left = a.matmul(&b_plus_c);
        let mut right = a.matmul(&b);
        right.add_assign(&a.matmul(&c));
        for r in 0..3 {
            for col in 0..3 {
                prop_assert!((left.get(r, col) - right.get(r, col)).abs() < 1e-8);
            }
        }
    }

    /// Identity is neutral for any square matrix.
    #[test]
    fn identity_neutral(m in arb_matrix(5, 5)) {
        let i = Matrix::identity(5);
        prop_assert_eq!(m.matmul(&i), m.clone());
        prop_assert_eq!(i.matmul(&m), m);
    }

    /// Bit-identity on a ragged shape: an odd row count (a row pair plus a
    /// single row), k = 37, and five columns (a 4 + 1 strip cascade).
    #[test]
    fn blocked_matmul_is_bit_identical_wide(a in arb_sparse_matrix(3, 37), b in arb_sparse_matrix(37, 5)) {
        assert_bits_equal_naive(&a, &b)?;
    }

    /// Bit-identity on an aligned shape: two row pairs, k = 16, one
    /// eight-wide strip.
    #[test]
    fn blocked_matmul_is_bit_identical_aligned(a in arb_sparse_matrix(4, 16), b in arb_sparse_matrix(16, 8)) {
        assert_bits_equal_naive(&a, &b)?;
    }

    /// Bit-identity on a small shape: k = 3, one four-wide strip.
    #[test]
    fn blocked_matmul_is_bit_identical_narrow(a in arb_sparse_matrix(5, 3), b in arb_sparse_matrix(3, 4)) {
        assert_bits_equal_naive(&a, &b)?;
    }

    /// Scaling into [0,1] and back is lossless for in-range data.
    #[test]
    fn scaler_round_trips(values in proptest::collection::vec(0.0f64..1_000.0, 1..20)) {
        let scaler = MinMaxScaler::from_ranges(&[(0.0, 1_000.0)]);
        for &v in &values {
            let mut row = [v];
            scaler.transform_row(&mut row);
            prop_assert!((0.0..=1.0).contains(&row[0]));
            scaler.inverse_row(&mut row);
            prop_assert!((row[0] - v).abs() < 1e-9);
        }
    }

    /// Fitted scalers always map the fitted data into [0,1].
    #[test]
    fn fitted_scaler_is_unit_bounded(data in proptest::collection::vec(-1e6f64..1e6, 4..40)) {
        let rows: Vec<&[f64]> = data.chunks_exact(2).collect();
        if rows.is_empty() { return Ok(()); }
        let m = Matrix::from_rows(&rows);
        let scaler = MinMaxScaler::fit(&m);
        let t = scaler.transform(&m);
        for &x in t.as_slice() {
            prop_assert!((0.0..=1.0).contains(&x), "{x}");
        }
    }
}
