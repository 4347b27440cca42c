//! The paper's feature-selection procedure (§III-D).
//!
//! "Normally, the default settings of Kafka will keep the system running,
//! but far from a well performing one, therefore we select parameters based
//! on a sensitivity analysis. A change in the quantitative parameter's
//! default value of 50% should have observable impact on reliability
//! metrics, otherwise the parameter is neglected."
//!
//! [`analyze`] perturbs each quantitative feature of a baseline
//! [`ExperimentPoint`] by ±50 % and measures the resulting change in
//! `P_l`/`P_d`, producing the evidence table behind the paper's choice of
//! the eight features.

use desim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::calibration::Calibration;
use crate::experiment::ExperimentPoint;
use crate::sweep::run_sweep;

/// The quantitative features the analysis perturbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Feature {
    /// Message size `M`.
    MessageSize,
    /// Network delay `D`.
    Delay,
    /// Packet loss rate `L`.
    LossRate,
    /// Batch size `B`.
    BatchSize,
    /// Polling interval `δ`.
    PollInterval,
    /// Message timeout `T_o`.
    MessageTimeout,
}

impl Feature {
    /// All perturbable features.
    #[must_use]
    pub(crate) fn all() -> [Feature; 6] {
        [
            Feature::MessageSize,
            Feature::Delay,
            Feature::LossRate,
            Feature::BatchSize,
            Feature::PollInterval,
            Feature::MessageTimeout,
        ]
    }

    /// Human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Feature::MessageSize => "message size M",
            Feature::Delay => "network delay D",
            Feature::LossRate => "packet loss L",
            Feature::BatchSize => "batch size B",
            Feature::PollInterval => "polling interval delta",
            Feature::MessageTimeout => "message timeout T_o",
        }
    }

    /// Returns `base` with this feature scaled by `factor`.
    ///
    /// Integer-valued features round away from the baseline so a ±50 %
    /// perturbation always changes the value (e.g. `B = 1` → 2 upward and
    /// stays 1 downward, which the report marks as unperturbable).
    #[must_use]
    pub(crate) fn scaled(self, base: &ExperimentPoint, factor: f64) -> ExperimentPoint {
        let mut p = base.clone();
        match self {
            Feature::MessageSize => {
                p.message_size = ((base.message_size as f64 * factor).round() as u64).max(1);
            }
            Feature::Delay => {
                p.delay = SimDuration::from_secs_f64(base.delay.as_secs_f64() * factor);
            }
            Feature::LossRate => {
                p.loss_rate = (base.loss_rate * factor).clamp(0.0, 1.0);
            }
            Feature::BatchSize => {
                let scaled = (base.batch_size as f64 * factor).round() as usize;
                p.batch_size = scaled.max(1);
            }
            Feature::PollInterval => {
                p.poll_interval =
                    SimDuration::from_secs_f64(base.poll_interval.as_secs_f64() * factor);
            }
            Feature::MessageTimeout => {
                p.message_timeout =
                    SimDuration::from_secs_f64(base.message_timeout.as_secs_f64() * factor);
            }
        }
        p
    }
}

/// One row of the sensitivity table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityRow {
    /// The perturbed feature.
    pub feature: Feature,
    /// Baseline `P_l`.
    pub base_p_loss: f64,
    /// `P_l` at −50 %.
    pub down_p_loss: f64,
    /// `P_l` at +50 %.
    pub up_p_loss: f64,
    /// Baseline `P_d`.
    pub base_p_dup: f64,
    /// `P_d` at −50 %.
    pub down_p_dup: f64,
    /// `P_d` at +50 %.
    pub up_p_dup: f64,
}

impl SensitivityRow {
    /// The largest absolute change either perturbation causes in either
    /// metric — the paper's "observable impact" score.
    #[must_use]
    pub fn impact(&self) -> f64 {
        [
            (self.down_p_loss - self.base_p_loss).abs(),
            (self.up_p_loss - self.base_p_loss).abs(),
            (self.down_p_dup - self.base_p_dup).abs(),
            (self.up_p_dup - self.base_p_dup).abs(),
        ]
        .into_iter()
        .fold(0.0, f64::max)
    }

    /// Whether the paper's rule would keep this feature (impact above the
    /// given threshold, e.g. 0.01 = one percentage point).
    #[must_use]
    pub fn is_selected(&self, threshold: f64) -> bool {
        self.impact() >= threshold
    }
}

/// Runs the ±50 % sensitivity analysis around `base`.
///
/// Rows come back in `Feature::all` order, most useful alongside
/// [`SensitivityRow::impact`] for ranking.
#[must_use]
pub fn analyze(
    base: &ExperimentPoint,
    cal: &Calibration,
    n_messages: u64,
    seed: u64,
    threads: usize,
) -> Vec<SensitivityRow> {
    // One sweep for everything: baseline + 2 perturbations per feature.
    let mut points = vec![base.clone()];
    for f in Feature::all() {
        points.push(f.scaled(base, 0.5));
        points.push(f.scaled(base, 1.5));
    }
    let results = run_sweep(&points, cal, n_messages, seed, threads);
    let baseline = &results[0];
    Feature::all()
        .into_iter()
        .enumerate()
        .map(|(i, feature)| {
            let down = &results[1 + 2 * i];
            let up = &results[2 + 2 * i];
            SensitivityRow {
                feature,
                base_p_loss: baseline.p_loss,
                down_p_loss: down.p_loss,
                up_p_loss: up.p_loss,
                base_p_dup: baseline.p_dup,
                down_p_dup: down.p_dup,
                up_p_dup: up.p_dup,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kafkasim::config::DeliverySemantics;

    fn lossy_base() -> ExperimentPoint {
        ExperimentPoint {
            message_size: 200,
            timeliness: None,
            delay: SimDuration::from_millis(100),
            loss_rate: 0.20,
            semantics: DeliverySemantics::AtLeastOnce,
            batch_size: 2,
            poll_interval: SimDuration::from_millis(70),
            message_timeout: SimDuration::from_millis(1_000),
            ..ExperimentPoint::default()
        }
    }

    #[test]
    fn scaling_respects_domains() {
        let base = lossy_base();
        let down = Feature::BatchSize.scaled(&base, 0.5);
        assert_eq!(down.batch_size, 1);
        let up = Feature::LossRate.scaled(&base, 1.5);
        assert!((up.loss_rate - 0.30).abs() < 1e-12);
        let clamped = Feature::LossRate.scaled(
            &ExperimentPoint {
                loss_rate: 0.9,
                ..base.clone()
            },
            1.5,
        );
        assert_eq!(clamped.loss_rate, 1.0);
        let tiny = Feature::MessageSize.scaled(
            &ExperimentPoint {
                message_size: 1,
                ..base
            },
            0.5,
        );
        assert_eq!(tiny.message_size, 1, "sizes never hit zero");
    }

    #[test]
    fn loss_rate_is_a_selected_feature_under_faults() {
        let cal = Calibration::paper();
        let rows = analyze(&lossy_base(), &cal, 2_000, 3, 4);
        assert_eq!(rows.len(), Feature::all().len());
        let loss_row = rows
            .iter()
            .find(|r| r.feature == Feature::LossRate)
            .unwrap();
        assert!(
            loss_row.is_selected(0.01),
            "±50% of a 20% loss rate must visibly move P_l: impact {}",
            loss_row.impact()
        );
    }

    #[test]
    fn rows_are_internally_consistent() {
        let cal = Calibration::paper();
        let rows = analyze(&lossy_base(), &cal, 800, 5, 4);
        for r in &rows {
            assert!(r.impact() >= 0.0);
            assert!(r.impact() <= 1.0);
            // Baseline identical across rows (one shared run).
            assert_eq!(r.base_p_loss, rows[0].base_p_loss);
        }
    }

    #[test]
    fn feature_names_are_unique() {
        let mut names: Vec<&str> = Feature::all().iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Feature::all().len());
    }
}
