//! The serializable mirror of [`testbed::experiment::ExperimentPoint`].
//!
//! `ExperimentPoint` carries [`SimDuration`]s; scenario files state every
//! duration in integer milliseconds (every operating point in the paper
//! and in the repository's experiments is integral-ms), so the conversion
//! in [`PointSpec::to_point`] is exact.

use desim::SimDuration;
use kafkasim::config::DeliverySemantics;
use serde::{Deserialize, Serialize};
use testbed::experiment::ExperimentPoint;
use testbed::Calibration;

use crate::error::SpecError;

/// One operating point of the feature space, in scenario-file units.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointSpec {
    /// Message size `M` (bytes).
    pub message_size: u64,
    /// Producer inter-message interval (ms); `None` = full load at the
    /// polling interval.
    pub timeliness_ms: Option<u64>,
    /// One-way network delay `D` (ms).
    pub delay_ms: u64,
    /// Packet loss rate `L` in `[0, 1]`.
    pub loss_rate: f64,
    /// Delivery semantics.
    pub semantics: DeliverySemantics,
    /// Batch size `B`.
    pub batch_size: usize,
    /// Polling interval `δ` (ms); 0 = poll as fast as possible.
    pub poll_interval_ms: u64,
    /// Message timeout `T_o` (ms).
    pub message_timeout_ms: u64,
    /// Replication factor of the simulated cluster.
    pub replication_factor: u32,
    /// Broker crash downtime (ms); 0 = no fault.
    pub fault_downtime_ms: u64,
    /// Whether unclean leader election is allowed.
    pub allow_unclean: bool,
}

impl Default for PointSpec {
    fn default() -> Self {
        PointSpec::from_point(&ExperimentPoint::default())
    }
}

impl PointSpec {
    /// Converts an [`ExperimentPoint`] into its spec form. Durations are
    /// truncated to whole milliseconds — exact for every point this
    /// repository uses.
    #[must_use]
    pub(crate) fn from_point(point: &ExperimentPoint) -> Self {
        PointSpec {
            message_size: point.message_size,
            timeliness_ms: point.timeliness.map(|t| t.as_millis()),
            delay_ms: point.delay.as_millis(),
            loss_rate: point.loss_rate,
            semantics: point.semantics,
            batch_size: point.batch_size,
            poll_interval_ms: point.poll_interval.as_millis(),
            message_timeout_ms: point.message_timeout.as_millis(),
            replication_factor: point.replication_factor,
            fault_downtime_ms: point.fault_downtime.as_millis(),
            allow_unclean: point.allow_unclean,
        }
    }

    /// Materialises the spec into an [`ExperimentPoint`].
    #[must_use]
    pub fn to_point(&self) -> ExperimentPoint {
        ExperimentPoint {
            message_size: self.message_size,
            timeliness: self.timeliness_ms.map(SimDuration::from_millis),
            delay: SimDuration::from_millis(self.delay_ms),
            loss_rate: self.loss_rate,
            semantics: self.semantics,
            batch_size: self.batch_size,
            poll_interval: SimDuration::from_millis(self.poll_interval_ms),
            message_timeout: SimDuration::from_millis(self.message_timeout_ms),
            replication_factor: self.replication_factor,
            fault_downtime: SimDuration::from_millis(self.fault_downtime_ms),
            allow_unclean: self.allow_unclean,
        }
    }

    /// Validates the point.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] anchored beneath `path` for the first
    /// out-of-range field.
    pub(crate) fn validate(&self, path: &str) -> Result<(), SpecError> {
        if self.message_size == 0 {
            return Err(SpecError::new(
                format!("{path}.message_size"),
                "message size must be at least 1 byte",
            ));
        }
        if !self.loss_rate.is_finite() || !(0.0..=1.0).contains(&self.loss_rate) {
            return Err(SpecError::new(
                format!("{path}.loss_rate"),
                "loss rate must be within [0, 1]",
            ));
        }
        if self.batch_size == 0 {
            return Err(SpecError::new(
                format!("{path}.batch_size"),
                "batch size must be at least 1",
            ));
        }
        if self.message_timeout_ms == 0 {
            return Err(SpecError::new(
                format!("{path}.message_timeout_ms"),
                "message timeout must be positive",
            ));
        }
        validate_replication(
            self.replication_factor,
            Calibration::paper().cluster.brokers,
            format!("{path}.replication_factor"),
        )
    }
}

/// Refuses a replication factor outside `1..=brokers`, the brokers of the
/// cluster the run is placed on.
///
/// # Errors
///
/// Returns a [`SpecError`] at `path`.
pub(crate) fn validate_replication(
    factor: u32,
    brokers: u32,
    path: String,
) -> Result<(), SpecError> {
    if (1..=brokers).contains(&factor) {
        return Ok(());
    }
    Err(SpecError::new(
        path,
        format!("replication factor must be within 1..={brokers}, the cluster's brokers"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mirrors_experiment_point_default() {
        let spec = PointSpec::default();
        assert_eq!(spec.to_point(), ExperimentPoint::default());
    }

    #[test]
    fn round_trips_through_experiment_point() {
        let point = ExperimentPoint {
            message_size: 620,
            timeliness: Some(SimDuration::from_millis(40)),
            delay: SimDuration::from_millis(100),
            loss_rate: 0.19,
            semantics: DeliverySemantics::AtMostOnce,
            batch_size: 4,
            poll_interval: SimDuration::ZERO,
            message_timeout: SimDuration::from_millis(2_000),
            replication_factor: 3,
            fault_downtime: SimDuration::from_millis(5_000),
            allow_unclean: true,
        };
        assert_eq!(PointSpec::from_point(&point).to_point(), point);
    }

    #[test]
    fn validation_reports_field_paths() {
        let spec = PointSpec {
            loss_rate: 1.5,
            ..PointSpec::default()
        };
        let err = spec.validate("experiment.Sweep.base").unwrap_err();
        assert_eq!(err.path, "experiment.Sweep.base.loss_rate");
        let spec = PointSpec {
            batch_size: 0,
            ..PointSpec::default()
        };
        assert!(spec.validate("p").unwrap_err().path.ends_with("batch_size"));
    }
}
