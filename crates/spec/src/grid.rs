//! The single producer-configuration grid definition.
//!
//! Every consumer of a parameter grid — the §V stepwise search space
//! (`kafka_predict::SearchSpace` derives its defaults from
//! [`ConfigGrid::planner_default`]), the Fig. 3 collection grids
//! ([`crate::collection`]), and spec-driven sweeps — expresses its axes
//! with the one [`GridAxis`] type, so a scenario file defines each grid
//! exactly once.

use serde::{Deserialize, Serialize};

use crate::error::SpecError;

/// One axis of a parameter grid: either a regular `min..=max` range with
/// a step, or an explicit value list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GridAxis {
    /// Regularly-spaced inclusive range.
    Range {
        /// Lower bound (inclusive).
        min: f64,
        /// Upper bound (inclusive).
        max: f64,
        /// Spacing between consecutive values; must be positive.
        step: f64,
    },
    /// Explicit values, in sweep order.
    Values(Vec<f64>),
}

impl GridAxis {
    /// Convenience constructor from integer values.
    #[must_use]
    pub(crate) fn values_from_u64(values: &[u64]) -> Self {
        GridAxis::Values(values.iter().map(|&v| v as f64).collect())
    }

    /// Materialises the axis into its value list.
    #[must_use]
    pub(crate) fn values(&self) -> Vec<f64> {
        match self {
            GridAxis::Range { min, max, step } => {
                let mut out = Vec::new();
                let mut i = 0u64;
                loop {
                    let v = min + (i as f64) * step;
                    // Tolerate one part in 10⁹ of float drift at the top end.
                    if v > max + step * 1e-9 {
                        break;
                    }
                    out.push(v);
                    i += 1;
                }
                out
            }
            GridAxis::Values(v) => v.clone(),
        }
    }

    /// The axis values rounded to `u64` (for integer-valued axes such as
    /// sizes or millisecond timeouts).
    #[must_use]
    pub(crate) fn values_u64(&self) -> Vec<u64> {
        self.values().iter().map(|v| v.round() as u64).collect()
    }

    /// The axis values rounded to `usize` (batch sizes).
    #[must_use]
    pub(crate) fn values_usize(&self) -> Vec<usize> {
        self.values().iter().map(|v| v.round() as usize).collect()
    }

    /// `(min, max, step)` when the axis is a [`GridAxis::Range`].
    #[must_use]
    pub fn as_range(&self) -> Option<(f64, f64, f64)> {
        match self {
            GridAxis::Range { min, max, step } => Some((*min, *max, *step)),
            GridAxis::Values(_) => None,
        }
    }

    /// Validates the axis.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] at `path` for empty/non-finite values or a
    /// degenerate range.
    pub(crate) fn validate(&self, path: &str) -> Result<(), SpecError> {
        match self {
            GridAxis::Range { min, max, step } => {
                if !min.is_finite() || !max.is_finite() || !step.is_finite() {
                    return Err(SpecError::new(path, "range bounds must be finite"));
                }
                if *step <= 0.0 {
                    return Err(SpecError::new(path, "range step must be positive"));
                }
                if min > max {
                    return Err(SpecError::new(path, "range min must not exceed max"));
                }
                Ok(())
            }
            GridAxis::Values(values) => {
                if values.is_empty() {
                    return Err(SpecError::new(path, "axis needs at least one value"));
                }
                if values.iter().any(|v| !v.is_finite()) {
                    return Err(SpecError::new(path, "axis values must be finite"));
                }
                Ok(())
            }
        }
    }
}

/// The producer-configuration grid: the tunable axes of §V's search,
/// with the policy switches the stepwise search needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigGrid {
    /// Batch size `B` axis.
    pub batch: GridAxis,
    /// Message timeout `T_o` axis (ms).
    pub timeout_ms: GridAxis,
    /// Polling interval `δ` axis (ms).
    pub poll_ms: GridAxis,
    /// Whether a planner over this grid may flip delivery semantics.
    pub allow_semantics_switch: bool,
    /// Maximum stepwise moves of the greedy search.
    pub max_steps: usize,
}

impl ConfigGrid {
    /// The paper's planner grid — the values
    /// `kafka_predict::SearchSpace::default()` is derived from.
    #[must_use]
    pub fn planner_default() -> Self {
        ConfigGrid {
            batch: GridAxis::Range {
                min: 1.0,
                max: 10.0,
                step: 1.0,
            },
            timeout_ms: GridAxis::Range {
                min: 200.0,
                max: 5_000.0,
                step: 400.0,
            },
            poll_ms: GridAxis::Range {
                min: 0.0,
                max: 200.0,
                step: 20.0,
            },
            allow_semantics_switch: true,
            max_steps: 64,
        }
    }

    /// Validates the grid.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] anchored beneath `path` for the first
    /// invalid axis or bound.
    pub(crate) fn validate(&self, path: &str) -> Result<(), SpecError> {
        self.batch.validate(&format!("{path}.batch"))?;
        self.timeout_ms.validate(&format!("{path}.timeout_ms"))?;
        self.poll_ms.validate(&format!("{path}.poll_ms"))?;
        if let Some((min, _, _)) = self.batch.as_range() {
            if min < 1.0 {
                return Err(SpecError::new(
                    format!("{path}.batch"),
                    "batch sizes start at 1",
                ));
            }
        }
        if let Some((min, _, _)) = self.timeout_ms.as_range() {
            if min <= 0.0 {
                return Err(SpecError::new(
                    format!("{path}.timeout_ms"),
                    "timeouts must be positive",
                ));
            }
        }
        if let Some((min, _, _)) = self.poll_ms.as_range() {
            if min < 0.0 {
                return Err(SpecError::new(
                    format!("{path}.poll_ms"),
                    "polling intervals must be non-negative",
                ));
            }
        }
        if self.max_steps == 0 {
            return Err(SpecError::new(
                format!("{path}.max_steps"),
                "max_steps must be positive",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_axis_materialises_inclusively() {
        let axis = GridAxis::Range {
            min: 1.0,
            max: 10.0,
            step: 1.0,
        };
        assert_eq!(axis.values_usize(), (1..=10).collect::<Vec<_>>());
        let axis = GridAxis::Range {
            min: 200.0,
            max: 5_000.0,
            step: 400.0,
        };
        let v = axis.values();
        assert_eq!(v.first(), Some(&200.0));
        assert_eq!(v.last(), Some(&5_000.0));
        assert_eq!(v.len(), 13);
    }

    #[test]
    fn value_axis_keeps_order() {
        let axis = GridAxis::values_from_u64(&[200, 500, 1_000]);
        assert_eq!(axis.values_u64(), vec![200, 500, 1_000]);
    }

    #[test]
    fn validation_rejects_degenerate_axes() {
        assert!(GridAxis::Values(vec![]).validate("a").is_err());
        assert!(GridAxis::Range {
            min: 5.0,
            max: 1.0,
            step: 1.0
        }
        .validate("a")
        .is_err());
        assert!(GridAxis::Range {
            min: 0.0,
            max: 1.0,
            step: 0.0
        }
        .validate("a")
        .is_err());
        let err = GridAxis::Values(vec![f64::NAN])
            .validate("grid.batch")
            .unwrap_err();
        assert_eq!(err.path, "grid.batch");
    }

    #[test]
    fn planner_default_is_valid() {
        ConfigGrid::planner_default().validate("grid").unwrap();
    }
}
