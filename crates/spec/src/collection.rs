//! The Fig. 3 training-data collection design (moved here from
//! `testbed::collection` so the grids are part of the declarative spec
//! layer).
//!
//! The full feature space grows exponentially, so the paper splits it by
//! the current network environment:
//!
//! * **normal cases** (`D < 200 ms`, `L = 0`): only the producer-side
//!   features matter — message size, timeliness/timeout, polling interval
//!   and semantics are swept while the network is healthy;
//! * **abnormal cases** (faults injected): "proper values" are fixed for
//!   the features learnt in the normal study, and the network features
//!   (`D`, `L`) are swept together with batching and semantics.
//!
//! Feature ranges follow real-world systems, as the paper prescribes.
//! The producer-configuration axes (timeouts, polling intervals, batch
//! sizes) are expressed as [`GridAxis`] — the same axis type the planner
//! grid uses — so a scenario file states every grid the same way.

use desim::SimDuration;
use kafkasim::config::DeliverySemantics;
use serde::{Deserialize, Serialize};
use testbed::experiment::ExperimentPoint;

use crate::error::SpecError;
use crate::grid::GridAxis;

/// Grid over the effective features of the paper's *normal* cases.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NormalCaseGrid {
    /// Message sizes `M` (bytes).
    pub message_sizes: Vec<u64>,
    /// Message timeouts `T_o` (ms).
    pub message_timeouts_ms: GridAxis,
    /// Polling intervals `δ` (ms; 0 = full load).
    pub poll_intervals_ms: GridAxis,
    /// Delivery semantics to cover.
    pub semantics: Vec<DeliverySemantics>,
    /// The healthy baseline delay.
    pub base_delay_ms: u64,
}

impl Default for NormalCaseGrid {
    fn default() -> Self {
        NormalCaseGrid {
            message_sizes: vec![50, 100, 200, 400, 700, 1000],
            message_timeouts_ms: GridAxis::values_from_u64(&[200, 500, 1000, 1500, 2000, 3000]),
            poll_intervals_ms: GridAxis::values_from_u64(&[0, 10, 30, 60, 90]),
            semantics: vec![
                DeliverySemantics::AtMostOnce,
                DeliverySemantics::AtLeastOnce,
            ],
            base_delay_ms: 1,
        }
    }
}

impl NormalCaseGrid {
    /// Materialises the grid into experiment points.
    ///
    /// `T_o` and `δ` are swept on separate axes (each with the other held
    /// at a sensible default), mirroring the paper's one-factor studies,
    /// rather than as a full cross product.
    #[must_use]
    pub fn points(&self) -> Vec<ExperimentPoint> {
        let mut points = Vec::new();
        let default_timeout = SimDuration::from_millis(2_000);
        let default_poll = SimDuration::ZERO;
        for &semantics in &self.semantics {
            for &m in &self.message_sizes {
                // Sweep T_o at full load.
                for t_o in self.message_timeouts_ms.values_u64() {
                    points.push(ExperimentPoint {
                        message_size: m,
                        timeliness: None,
                        delay: SimDuration::from_millis(self.base_delay_ms),
                        loss_rate: 0.0,
                        semantics,
                        batch_size: 1,
                        poll_interval: default_poll,
                        message_timeout: SimDuration::from_millis(t_o),
                        ..ExperimentPoint::default()
                    });
                }
                // Sweep δ at the default timeout.
                for delta in self.poll_intervals_ms.values_u64() {
                    points.push(ExperimentPoint {
                        message_size: m,
                        timeliness: None,
                        delay: SimDuration::from_millis(self.base_delay_ms),
                        loss_rate: 0.0,
                        semantics,
                        batch_size: 1,
                        poll_interval: SimDuration::from_millis(delta),
                        message_timeout: default_timeout,
                        ..ExperimentPoint::default()
                    });
                }
            }
        }
        points
    }

    /// Validates the grid.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] anchored beneath `path`.
    pub fn validate(&self, path: &str) -> Result<(), SpecError> {
        if self.message_sizes.is_empty() {
            return Err(SpecError::new(
                format!("{path}.message_sizes"),
                "need at least one message size",
            ));
        }
        self.message_timeouts_ms
            .validate(&format!("{path}.message_timeouts_ms"))?;
        self.poll_intervals_ms
            .validate(&format!("{path}.poll_intervals_ms"))?;
        if self.semantics.is_empty() {
            return Err(SpecError::new(
                format!("{path}.semantics"),
                "need at least one delivery semantics",
            ));
        }
        Ok(())
    }
}

/// Grid over the effective features of the paper's *abnormal* cases.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AbnormalCaseGrid {
    /// Message sizes `M` (bytes).
    pub message_sizes: Vec<u64>,
    /// Injected one-way delays `D` (ms).
    pub delays_ms: Vec<u64>,
    /// Injected packet-loss rates `L`.
    pub loss_rates: Vec<f64>,
    /// Batch sizes `B`.
    pub batch_sizes: GridAxis,
    /// Delivery semantics to cover.
    pub semantics: Vec<DeliverySemantics>,
    /// The "proper" polling interval fixed from the normal study (ms).
    pub fixed_poll_ms: u64,
    /// The "proper" message timeout fixed from the normal study (ms).
    pub fixed_timeout_ms: u64,
    /// Also sweep the message-size axis at full load (δ = 0) — the Fig. 4
    /// operating point, which the prediction model must cover.
    pub include_full_load_axis: bool,
}

impl Default for AbnormalCaseGrid {
    fn default() -> Self {
        AbnormalCaseGrid {
            message_sizes: vec![100, 200, 500, 1000],
            delays_ms: vec![50, 100, 200],
            loss_rates: vec![0.02, 0.05, 0.08, 0.10, 0.13, 0.16, 0.19, 0.25, 0.30, 0.40],
            batch_sizes: GridAxis::values_from_u64(&[1, 2, 4, 6, 8, 10]),
            semantics: vec![
                DeliverySemantics::AtMostOnce,
                DeliverySemantics::AtLeastOnce,
            ],
            fixed_poll_ms: 50,
            fixed_timeout_ms: 2_000,
            include_full_load_axis: true,
        }
    }
}

impl AbnormalCaseGrid {
    /// Materialises the grid into experiment points.
    ///
    /// `M` and `B` are swept against the `(D, L)` space on separate axes
    /// (with the other held at its default) — the paper's Fig. 4 varies `M`
    /// with `B = 1`, and Figs. 7–8 vary `B` at a fixed size.
    #[must_use]
    pub fn points(&self) -> Vec<ExperimentPoint> {
        let mut points = Vec::new();
        let default_size = 200;
        let batch_sizes = self.batch_sizes.values_usize();
        for &semantics in &self.semantics {
            for &d in &self.delays_ms {
                for &l in &self.loss_rates {
                    for &m in &self.message_sizes {
                        points.push(self.point(m, d, l, 1, semantics));
                        if self.include_full_load_axis {
                            let mut full = self.point(m, d, l, 1, semantics);
                            full.poll_interval = SimDuration::ZERO;
                            points.push(full);
                        }
                    }
                    for &b in &batch_sizes {
                        if b == 1 {
                            continue; // covered by the size axis
                        }
                        points.push(self.point(default_size, d, l, b, semantics));
                    }
                }
            }
        }
        points
    }

    fn point(
        &self,
        m: u64,
        d_ms: u64,
        l: f64,
        b: usize,
        semantics: DeliverySemantics,
    ) -> ExperimentPoint {
        ExperimentPoint {
            message_size: m,
            timeliness: None,
            delay: SimDuration::from_millis(d_ms),
            loss_rate: l,
            semantics,
            batch_size: b,
            poll_interval: SimDuration::from_millis(self.fixed_poll_ms),
            message_timeout: SimDuration::from_millis(self.fixed_timeout_ms),
            ..ExperimentPoint::default()
        }
    }

    /// Validates the grid.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] anchored beneath `path`.
    pub fn validate(&self, path: &str) -> Result<(), SpecError> {
        if self.message_sizes.is_empty() {
            return Err(SpecError::new(
                format!("{path}.message_sizes"),
                "need at least one message size",
            ));
        }
        if self.delays_ms.is_empty() {
            return Err(SpecError::new(
                format!("{path}.delays_ms"),
                "need at least one delay",
            ));
        }
        if self.loss_rates.is_empty() {
            return Err(SpecError::new(
                format!("{path}.loss_rates"),
                "need at least one loss rate",
            ));
        }
        if self.loss_rates.iter().any(|l| !(0.0..=1.0).contains(l)) {
            return Err(SpecError::new(
                format!("{path}.loss_rates"),
                "loss rates must be within [0, 1]",
            ));
        }
        self.batch_sizes.validate(&format!("{path}.batch_sizes"))?;
        if self.semantics.is_empty() {
            return Err(SpecError::new(
                format!("{path}.semantics"),
                "need at least one delivery semantics",
            ));
        }
        Ok(())
    }
}

/// Grid over the broker-fault space (beyond the paper): replication
/// factor × crash downtime × election policy × semantics, on a healthy
/// network so every loss is broker-caused.
///
/// Each point crashes the leader of partition 0 at
/// [`ExperimentPoint::FAULT_AT`] for the configured downtime; the
/// election policy decides whether a lagging replica may take over
/// (unclean) once the ISR has emptied. Combinations that cannot differ
/// are skipped: with `factor == 1` there is nothing to elect, so the
/// unclean axis collapses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BrokerFaultGrid {
    /// Replication factors to cover (`1` = the paper's single-copy setup).
    pub replication_factors: Vec<u32>,
    /// Crash downtimes (ms).
    pub downtimes_ms: Vec<u64>,
    /// Election policies: allow unclean election or not.
    pub allow_unclean: Vec<bool>,
    /// Delivery semantics to cover.
    pub semantics: Vec<DeliverySemantics>,
    /// Fixed message size `M` (bytes).
    pub fixed_message_size: u64,
    /// Fixed polling interval `δ` (ms) — steady load through the fault.
    pub fixed_poll_ms: u64,
    /// Fixed message timeout `T_o` (ms); generous, so retries (not
    /// producer expiry) decide the outcome of the fault window.
    pub fixed_timeout_ms: u64,
}

impl Default for BrokerFaultGrid {
    fn default() -> Self {
        BrokerFaultGrid {
            replication_factors: vec![1, 3],
            downtimes_ms: vec![2_000, 5_000],
            allow_unclean: vec![false, true],
            semantics: vec![
                DeliverySemantics::AtMostOnce,
                DeliverySemantics::AtLeastOnce,
                DeliverySemantics::All,
            ],
            fixed_message_size: 200,
            fixed_poll_ms: 50,
            fixed_timeout_ms: 8_000,
        }
    }
}

impl BrokerFaultGrid {
    /// Materialises the grid into experiment points.
    #[must_use]
    pub fn points(&self) -> Vec<ExperimentPoint> {
        let mut points = Vec::new();
        for &semantics in &self.semantics {
            for &rf in &self.replication_factors {
                for &down in &self.downtimes_ms {
                    for &unclean in &self.allow_unclean {
                        if rf == 1 && unclean {
                            continue; // nothing to elect: axis collapses
                        }
                        points.push(ExperimentPoint {
                            message_size: self.fixed_message_size,
                            semantics,
                            poll_interval: SimDuration::from_millis(self.fixed_poll_ms),
                            message_timeout: SimDuration::from_millis(self.fixed_timeout_ms),
                            replication_factor: rf,
                            fault_downtime: SimDuration::from_millis(down),
                            allow_unclean: unclean,
                            ..ExperimentPoint::default()
                        });
                    }
                }
            }
        }
        points
    }

    /// Validates the grid. An empty `replication_factors` is legal and
    /// means "no broker-fault rows"; the other axes are still checked.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] anchored beneath `path`.
    pub fn validate(&self, path: &str) -> Result<(), SpecError> {
        if self.replication_factors.contains(&0) {
            return Err(SpecError::new(
                format!("{path}.replication_factors"),
                "replication factors start at 1",
            ));
        }
        if self.downtimes_ms.is_empty() || self.downtimes_ms.contains(&0) {
            return Err(SpecError::new(
                format!("{path}.downtimes_ms"),
                "downtimes must be non-empty and positive",
            ));
        }
        if self.semantics.is_empty() {
            return Err(SpecError::new(
                format!("{path}.semantics"),
                "need at least one delivery semantics",
            ));
        }
        Ok(())
    }
}

/// The complete collection design: the paper's two Fig. 3 grids plus the
/// beyond-the-paper broker-fault grid.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CollectionDesign {
    /// Normal-case grid.
    pub normal: NormalCaseGrid,
    /// Abnormal-case grid.
    pub abnormal: AbnormalCaseGrid,
    /// Broker-fault grid.
    pub broker_faults: BrokerFaultGrid,
}

impl CollectionDesign {
    /// Every experiment point of the design: normal, then abnormal, then
    /// broker faults.
    #[must_use]
    pub fn all_points(&self) -> Vec<ExperimentPoint> {
        let mut points = self.normal.points();
        points.extend(self.abnormal.points());
        points.extend(self.broker_faults.points());
        points
    }

    /// `(normal, abnormal, broker-fault)` point counts — the quantity
    /// Fig. 3's split is designed to keep manageable.
    #[must_use]
    pub fn sizes(&self) -> (usize, usize, usize) {
        (
            self.normal.points().len(),
            self.abnormal.points().len(),
            self.broker_faults.points().len(),
        )
    }

    /// Validates all three grids.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] anchored beneath `path`.
    pub fn validate(&self, path: &str) -> Result<(), SpecError> {
        self.normal.validate(&format!("{path}.normal"))?;
        self.abnormal.validate(&format!("{path}.abnormal"))?;
        self.broker_faults
            .validate(&format!("{path}.broker_faults"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_points_are_normal_cases() {
        let grid = NormalCaseGrid::default();
        let points = grid.points();
        assert!(!points.is_empty());
        assert!(points.iter().all(ExperimentPoint::is_normal_case));
    }

    #[test]
    fn abnormal_points_are_abnormal_cases() {
        let grid = AbnormalCaseGrid::default();
        let points = grid.points();
        assert!(!points.is_empty());
        assert!(points.iter().all(|p| !p.is_normal_case()));
    }

    #[test]
    fn normal_grid_size_is_axes_not_product() {
        let grid = NormalCaseGrid::default();
        let expected = grid.semantics.len()
            * grid.message_sizes.len()
            * (grid.message_timeouts_ms.values().len() + grid.poll_intervals_ms.values().len());
        assert_eq!(grid.points().len(), expected);
    }

    #[test]
    fn abnormal_grid_size_is_axes_not_product() {
        let grid = AbnormalCaseGrid::default();
        let size_axes = if grid.include_full_load_axis { 2 } else { 1 };
        let per_network =
            grid.message_sizes.len() * size_axes + (grid.batch_sizes.values().len() - 1);
        let expected =
            grid.semantics.len() * grid.delays_ms.len() * grid.loss_rates.len() * per_network;
        assert_eq!(grid.points().len(), expected);
    }

    #[test]
    fn full_load_axis_covers_fig4_conditions() {
        let grid = AbnormalCaseGrid::default();
        assert!(grid
            .points()
            .iter()
            .any(|p| p.poll_interval.is_zero() && (p.loss_rate - 0.19).abs() < 1e-9));
    }

    #[test]
    fn fault_grid_collapses_the_unclean_axis_at_rf_one() {
        let grid = BrokerFaultGrid::default();
        let points = grid.points();
        assert!(!points.is_empty());
        assert!(points
            .iter()
            .all(|p| !(p.replication_factor == 1 && p.allow_unclean)));
        assert!(points.iter().all(|p| !p.fault_downtime.is_zero()));
        // acks=all is part of the fault sweep.
        assert!(points
            .iter()
            .any(|p| p.semantics == DeliverySemantics::All && p.replication_factor == 3));
        let expected = grid.semantics.len()
            * grid.downtimes_ms.len()
            * (1 /* rf=1 */ + grid.allow_unclean.len()/* rf=3 */);
        assert_eq!(points.len(), expected);
    }

    #[test]
    fn design_is_far_smaller_than_full_cross_product() {
        let design = CollectionDesign::default();
        let (normal, abnormal, faults) = design.sizes();
        let total = normal + abnormal + faults;
        // A full cross product of the default axes would exceed 100k points.
        let full = 6 * 6 * 5 * 2 * 4 * 3 * 10 * 6;
        assert!(total < full / 50, "{total} vs full {full}");
        assert_eq!(design.all_points().len(), total);
    }

    #[test]
    fn batch_one_not_duplicated_in_abnormal_grid() {
        let grid = AbnormalCaseGrid {
            message_sizes: vec![200],
            delays_ms: vec![100],
            loss_rates: vec![0.1],
            batch_sizes: GridAxis::values_from_u64(&[1, 2]),
            semantics: vec![DeliverySemantics::AtLeastOnce],
            include_full_load_axis: false,
            ..AbnormalCaseGrid::default()
        };
        // size axis gives B=1 at M=200; batch axis adds only B=2.
        assert_eq!(grid.points().len(), 2);
    }

    #[test]
    fn default_design_validates() {
        CollectionDesign::default().validate("collection").unwrap();
    }

    #[test]
    fn an_empty_broker_fault_grid_is_legal_and_round_trips() {
        let mut spec = crate::Spec::builtin("collection").unwrap();
        let crate::ExperimentSpec::Collection(design) = &mut spec.experiment else {
            panic!("the collection scenario holds a collection design");
        };
        design.broker_faults.replication_factors.clear();
        assert_eq!(design.sizes().2, 0, "no broker-fault rows");
        assert!(design.sizes().0 > 0 && design.sizes().1 > 0);
        spec.validate().unwrap();
        let back = crate::io::from_toml_str(&crate::io::to_toml_string(&spec)).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn validation_pins_the_offending_axis() {
        let grid = AbnormalCaseGrid {
            loss_rates: vec![1.5],
            ..AbnormalCaseGrid::default()
        };
        let err = grid.validate("experiment.Collection.abnormal").unwrap_err();
        assert_eq!(err.path, "experiment.Collection.abnormal.loss_rates");
    }
}
