//! In-memory supervised datasets.

use desim::SimRng;
use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;

/// A supervised dataset: features `x` (`n × d`) and targets `y` (`n × k`).
///
/// # Example
///
/// ```
/// use annet::Dataset;
/// let data = Dataset::from_rows(
///     vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]],
///     vec![vec![0.0], vec![2.0], vec![4.0], vec![6.0]],
/// ).unwrap();
/// assert_eq!(data.len(), 4);
/// assert_eq!(data.feature_dim(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    x: Matrix,
    y: Matrix,
}

/// Error building or splitting a dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// The feature and target row counts differ.
    LengthMismatch,
    /// The dataset was empty.
    Empty,
    /// Rows had inconsistent widths.
    RaggedRows,
    /// An invalid split fraction was requested.
    BadSplit,
}

impl core::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DatasetError::LengthMismatch => write!(f, "x and y must have the same number of rows"),
            DatasetError::Empty => write!(f, "dataset must not be empty"),
            DatasetError::RaggedRows => write!(f, "all rows must have equal width"),
            DatasetError::BadSplit => write!(f, "split fraction must be in (0, 1)"),
        }
    }
}

impl std::error::Error for DatasetError {}

impl Dataset {
    /// Builds a dataset from per-sample rows.
    ///
    /// # Errors
    ///
    /// See [`DatasetError`].
    pub fn from_rows(x: Vec<Vec<f64>>, y: Vec<Vec<f64>>) -> Result<Self, DatasetError> {
        if x.len() != y.len() {
            return Err(DatasetError::LengthMismatch);
        }
        if x.is_empty() {
            return Err(DatasetError::Empty);
        }
        let xd = x[0].len();
        let yd = y[0].len();
        if xd == 0 || yd == 0 {
            return Err(DatasetError::RaggedRows);
        }
        if x.iter().any(|r| r.len() != xd) || y.iter().any(|r| r.len() != yd) {
            return Err(DatasetError::RaggedRows);
        }
        let n = x.len();
        let x = Matrix::from_vec(n, xd, x.into_iter().flatten().collect());
        let y = Matrix::from_vec(n, yd, y.into_iter().flatten().collect());
        Ok(Dataset { x, y })
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.x.rows()
    }

    /// `true` when there are no samples (cannot happen via constructors).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feature dimensionality.
    #[must_use]
    pub fn feature_dim(&self) -> usize {
        self.x.cols()
    }

    /// Target dimensionality.
    #[must_use]
    pub fn target_dim(&self) -> usize {
        self.y.cols()
    }

    /// The feature matrix.
    #[must_use]
    pub fn x(&self) -> &Matrix {
        &self.x
    }

    /// The target matrix.
    #[must_use]
    pub fn y(&self) -> &Matrix {
        &self.y
    }

    /// One sample.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn sample(&self, i: usize) -> (&[f64], &[f64]) {
        (self.x.row(i), self.y.row(i))
    }

    /// A new dataset containing the given sample indices, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range or `indices` is empty.
    #[must_use]
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        assert!(!indices.is_empty(), "subset must not be empty");
        let mut xr = Vec::with_capacity(indices.len() * self.feature_dim());
        let mut yr = Vec::with_capacity(indices.len() * self.target_dim());
        for &i in indices {
            xr.extend_from_slice(self.x.row(i));
            yr.extend_from_slice(self.y.row(i));
        }
        Dataset {
            x: Matrix::from_vec(indices.len(), self.feature_dim(), xr),
            y: Matrix::from_vec(indices.len(), self.target_dim(), yr),
        }
    }

    /// Splits into `(train, test)` with `test_fraction` of samples held out,
    /// after a seeded shuffle.
    ///
    /// # Errors
    ///
    /// [`DatasetError::BadSplit`] unless `0 < test_fraction < 1` and both
    /// sides end up non-empty.
    pub fn train_test_split(
        &self,
        test_fraction: f64,
        rng: &mut SimRng,
    ) -> Result<(Dataset, Dataset), DatasetError> {
        if !(0.0..1.0).contains(&test_fraction) || test_fraction == 0.0 {
            return Err(DatasetError::BadSplit);
        }
        let n = self.len();
        let n_test = ((n as f64) * test_fraction).round() as usize;
        if n_test == 0 || n_test >= n {
            return Err(DatasetError::BadSplit);
        }
        let mut indices: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut indices);
        let (test_idx, train_idx) = indices.split_at(n_test);
        Ok((self.subset(train_idx), self.subset(test_idx)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Dataset {
        let x: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let y: Vec<Vec<f64>> = (0..n).map(|i| vec![3.0 * i as f64]).collect();
        Dataset::from_rows(x, y).unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let d = data(5);
        assert_eq!(d.len(), 5);
        assert_eq!(d.feature_dim(), 2);
        assert_eq!(d.target_dim(), 1);
        let (x, y) = d.sample(2);
        assert_eq!(x, &[2.0, 4.0]);
        assert_eq!(y, &[6.0]);
    }

    #[test]
    fn rejects_mismatched_and_ragged() {
        assert_eq!(
            Dataset::from_rows(vec![vec![1.0]], vec![]).unwrap_err(),
            DatasetError::LengthMismatch
        );
        assert_eq!(
            Dataset::from_rows(vec![], vec![]).unwrap_err(),
            DatasetError::Empty
        );
        assert_eq!(
            Dataset::from_rows(vec![vec![1.0], vec![1.0, 2.0]], vec![vec![0.0], vec![0.0]])
                .unwrap_err(),
            DatasetError::RaggedRows
        );
    }

    #[test]
    fn split_partitions_all_samples() {
        let d = data(100);
        let mut rng = SimRng::seed_from_u64(1);
        let (train, test) = d.train_test_split(0.2, &mut rng).unwrap();
        assert_eq!(train.len(), 80);
        assert_eq!(test.len(), 20);
        // Every original target value appears exactly once across the split.
        let mut seen: Vec<f64> = train
            .y()
            .as_slice()
            .iter()
            .chain(test.y().as_slice())
            .copied()
            .collect();
        seen.sort_by(f64::total_cmp);
        let expected: Vec<f64> = (0..100).map(|i| 3.0 * i as f64).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn split_is_seed_deterministic() {
        let d = data(50);
        let (a_train, _) = d
            .train_test_split(0.3, &mut SimRng::seed_from_u64(5))
            .unwrap();
        let (b_train, _) = d
            .train_test_split(0.3, &mut SimRng::seed_from_u64(5))
            .unwrap();
        assert_eq!(a_train, b_train);
    }

    #[test]
    fn bad_splits_rejected() {
        let d = data(4);
        let mut rng = SimRng::seed_from_u64(1);
        assert!(d.train_test_split(0.0, &mut rng).is_err());
        assert!(d.train_test_split(1.0, &mut rng).is_err());
        assert!(d.train_test_split(0.999, &mut rng).is_err());
    }

    #[test]
    fn subset_selects_rows() {
        let d = data(10);
        let s = d.subset(&[3, 7]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.sample(1).1, &[21.0]);
    }
}
