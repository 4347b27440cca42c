//! Regression quality metrics.
//!
//! The paper reports the **mean absolute error** of its predictions
//! ("the MAE is below 0.02, which is sufficient for comparison and for
//! choosing the appropriate configuration parameters").

use crate::matrix::Matrix;

/// Mean absolute error between predictions and targets, over all entries.
///
/// # Panics
///
/// Panics when the shapes differ or the matrices are empty.
///
/// # Example
///
/// ```
/// use annet::Matrix;
/// use annet::metrics::mae;
/// let pred = Matrix::from_rows(&[&[0.1], &[0.9]]);
/// let truth = Matrix::from_rows(&[&[0.0], &[1.0]]);
/// assert!((mae(&pred, &truth) - 0.1).abs() < 1e-12);
/// ```
#[must_use]
pub fn mae(predictions: &Matrix, targets: &Matrix) -> f64 {
    check(predictions, targets);
    let n = predictions.as_slice().len();
    predictions
        .as_slice()
        .iter()
        .zip(targets.as_slice())
        .map(|(p, t)| (p - t).abs())
        .sum::<f64>()
        / n as f64
}

fn check(predictions: &Matrix, targets: &Matrix) {
    assert_eq!(
        (predictions.rows(), predictions.cols()),
        (targets.rows(), targets.cols()),
        "shape mismatch"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let t = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(mae(&t, &t), 0.0);
    }

    #[test]
    fn mae_is_the_mean_absolute_error() {
        let truth = Matrix::from_rows(&[&[0.0], &[0.0], &[0.0], &[0.0]]);
        let pred = Matrix::from_rows(&[&[0.0], &[0.0], &[0.0], &[2.0]]);
        assert!((mae(&pred, &truth) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(2, 1);
        let _ = mae(&a, &b);
    }
}
