//! Min–max feature scaling.
//!
//! The prediction model's features span wildly different ranges (bytes,
//! milliseconds, probabilities, one-hot flags); min–max scaling to `[0, 1]`
//! keeps SGD with the paper's large learning rate (0.5) stable.

use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;

/// Per-column min–max scaler: `x' = (x − min) / (max − min)`.
///
/// Constant columns scale to `0`. The scaler is serialisable so a trained
/// model ships with the ranges it was fitted on.
///
/// # Example
///
/// ```
/// use annet::{Matrix, MinMaxScaler};
/// let data = Matrix::from_rows(&[&[0.0, 10.0], &[5.0, 20.0], &[10.0, 30.0]]);
/// let scaler = MinMaxScaler::fit(&data);
/// let scaled = scaler.transform(&data);
/// assert_eq!(scaled.row(1), &[0.5, 0.5]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinMaxScaler {
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl MinMaxScaler {
    /// Fits ranges from the columns of `data`.
    #[must_use]
    pub fn fit(data: &Matrix) -> Self {
        let mut mins = vec![f64::INFINITY; data.cols()];
        let mut maxs = vec![f64::NEG_INFINITY; data.cols()];
        for r in 0..data.rows() {
            for (c, &v) in data.row(r).iter().enumerate() {
                mins[c] = mins[c].min(v);
                maxs[c] = maxs[c].max(v);
            }
        }
        MinMaxScaler { mins, maxs }
    }

    /// Builds a scaler from explicit per-column `(min, max)` ranges.
    ///
    /// Useful when the feature ranges are known a priori (the paper fixes
    /// them per Fig. 3), so unseen inputs scale consistently.
    ///
    /// # Panics
    ///
    /// Panics if `ranges` is empty or any `min > max`.
    #[must_use]
    pub fn from_ranges(ranges: &[(f64, f64)]) -> Self {
        assert!(!ranges.is_empty(), "need at least one column");
        assert!(
            ranges.iter().all(|(lo, hi)| lo <= hi),
            "ranges must be ordered"
        );
        MinMaxScaler {
            mins: ranges.iter().map(|(lo, _)| *lo).collect(),
            maxs: ranges.iter().map(|(_, hi)| *hi).collect(),
        }
    }

    /// Number of columns the scaler was fitted on.
    #[must_use]
    pub(crate) fn dim(&self) -> usize {
        self.mins.len()
    }

    /// Scales a matrix column-wise into `[0, 1]` (clamping outliers).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    #[must_use]
    pub fn transform(&self, data: &Matrix) -> Matrix {
        assert_eq!(data.cols(), self.dim(), "column count mismatch");
        let mut out = data.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            for (c, v) in row.iter_mut().enumerate() {
                *v = self.scale_value(c, *v);
            }
        }
        out
    }

    /// Scales one row in place.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn transform_row(&self, row: &mut [f64]) {
        assert_eq!(row.len(), self.dim(), "column count mismatch");
        for (c, v) in row.iter_mut().enumerate() {
            *v = self.scale_value(c, *v);
        }
    }

    fn scale_value(&self, c: usize, v: f64) -> f64 {
        let span = self.maxs[c] - self.mins[c];
        if span <= 0.0 {
            0.0
        } else {
            ((v - self.mins[c]) / span).clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_transform_maps_to_unit_interval() {
        let data = Matrix::from_rows(&[&[2.0, -1.0], &[4.0, 1.0], &[6.0, 3.0]]);
        let s = MinMaxScaler::fit(&data);
        let t = s.transform(&data);
        assert_eq!(t.row(0), &[0.0, 0.0]);
        assert_eq!(t.row(1), &[0.5, 0.5]);
        assert_eq!(t.row(2), &[1.0, 1.0]);
    }

    #[test]
    fn constant_columns_scale_to_zero() {
        let data = Matrix::from_rows(&[&[7.0], &[7.0]]);
        let s = MinMaxScaler::fit(&data);
        assert_eq!(s.transform(&data).row(1), &[0.0]);
    }

    #[test]
    fn outliers_clamp() {
        let s = MinMaxScaler::from_ranges(&[(0.0, 10.0)]);
        let mut row = [25.0];
        s.transform_row(&mut row);
        assert_eq!(row, [1.0]);
        let mut row = [-5.0];
        s.transform_row(&mut row);
        assert_eq!(row, [0.0]);
    }

    #[test]
    #[should_panic(expected = "ranges must be ordered")]
    fn rejects_inverted_ranges() {
        let _ = MinMaxScaler::from_ranges(&[(1.0, 0.0)]);
    }

    #[test]
    fn serde_round_trip() {
        let s = MinMaxScaler::from_ranges(&[(0.0, 1.0), (-3.0, 9.0)]);
        let json = serde_json::to_string(&s).unwrap();
        let back: MinMaxScaler = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
