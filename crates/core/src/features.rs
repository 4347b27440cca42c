//! The prediction model's feature vector and its value ranges.
//!
//! Eq. 1's inputs are the stream type (`M`, `S`), the network condition
//! (`D`, `L`) and the configuration (`semantics`, `B`, `δ`, `T_o`).
//! Beyond the paper, three broker-side features join them: the
//! replication factor `RF`, the injected broker downtime `F`, and the
//! unclean-election flag `U` — so the model can learn broker-caused loss
//! next to network-caused loss.
//! The ranges below follow the paper's prescription to "specify the range
//! of possible variables according to real world systems" (Fig. 3); the
//! min–max scaler derived from them is *fixed*, so a model trained once
//! scales unseen inputs identically.

use annet::MinMaxScaler;
use desim::SimDuration;
use kafkasim::config::DeliverySemantics;
use serde::{Deserialize, Serialize};
use testbed::experiment::ExperimentPoint;

/// One prediction input: the paper's eight features plus the three
/// broker-fault features.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Features {
    /// (a) Message size `M` in bytes.
    pub message_size: u64,
    /// (b) Timeliness `S` in milliseconds (0 = unconstrained).
    pub timeliness_ms: f64,
    /// (c) One-way network delay `D` in milliseconds.
    pub delay_ms: f64,
    /// (d) Packet loss rate `L` in `[0, 1]`.
    pub loss_rate: f64,
    /// (e) Delivery semantics.
    pub semantics: DeliverySemantics,
    /// (f) Batch size `B`.
    pub batch_size: usize,
    /// (g) Polling interval `δ` in milliseconds (0 = full load).
    pub poll_interval_ms: f64,
    /// (h) Message timeout `T_o` in milliseconds.
    pub message_timeout_ms: f64,
    /// (i) Per-partition replication factor `RF` (1 = the paper's setup).
    pub replication_factor: u32,
    /// (j) Injected broker downtime `F` in milliseconds (0 = no fault).
    pub fault_downtime_ms: f64,
    /// (k) Whether unclean leader election is allowed (`U`).
    pub allow_unclean: bool,
}

impl Default for Features {
    fn default() -> Self {
        Features {
            message_size: 200,
            timeliness_ms: 0.0,
            delay_ms: 1.0,
            loss_rate: 0.0,
            semantics: DeliverySemantics::AtLeastOnce,
            batch_size: 1,
            poll_interval_ms: 100.0,
            message_timeout_ms: 3_000.0,
            replication_factor: 1,
            fault_downtime_ms: 0.0,
            allow_unclean: false,
        }
    }
}

/// The value ranges, per feature (excluding semantics, which is the
/// model-selection axis): `[M, S, D, L, B, δ, T_o, RF, F, U]`. The first
/// seven follow Fig. 3; the last three cover the broker-fault grid.
pub(crate) const FEATURE_RANGES: [(f64, f64); 10] = [
    (50.0, 1_000.0),   // M: 50 B .. 1 kB
    (0.0, 30_000.0),   // S: 0 .. 30 s
    (0.0, 400.0),      // D: 0 .. 400 ms
    (0.0, 0.5),        // L: 0 .. 50 %
    (1.0, 10.0),       // B: 1 .. 10 messages
    (0.0, 200.0),      // δ: 0 .. 200 ms
    (200.0, 30_000.0), // T_o: 200 ms .. 30 s
    (1.0, 5.0),        // RF: 1 .. 5 replicas
    (0.0, 10_000.0),   // F: 0 .. 10 s broker downtime
    (0.0, 1.0),        // U: unclean election allowed
];

impl Features {
    /// Number of numeric inputs per model head (semantics selects the head
    /// instead of being an input, per §III-G's "the input layer can be
    /// reduced").
    pub(crate) const HEAD_INPUTS: usize = 10;

    /// The per-head numeric vector `[M, S, D, L, B, δ, T_o, RF, F, U]`
    /// (unscaled).
    #[must_use]
    pub(crate) fn head_vector(&self) -> Vec<f64> {
        vec![
            self.message_size as f64,
            self.timeliness_ms,
            self.delay_ms,
            self.loss_rate,
            self.batch_size as f64,
            self.poll_interval_ms,
            self.message_timeout_ms,
            f64::from(self.replication_factor),
            self.fault_downtime_ms,
            f64::from(u8::from(self.allow_unclean)),
        ]
    }

    /// The fixed scaler over [`FEATURE_RANGES`].
    #[must_use]
    pub(crate) fn scaler() -> MinMaxScaler {
        MinMaxScaler::from_ranges(&FEATURE_RANGES)
    }

    /// The scaled per-head vector, each component in `[0, 1]`.
    #[must_use]
    pub fn scaled_head_vector(&self) -> Vec<f64> {
        let mut v = self.head_vector();
        self.write_scaled_head_vector(&Features::scaler(), &mut v);
        v
    }

    /// Writes the scaled per-head vector into `out` without allocating.
    ///
    /// `scaler` must be [`Features::scaler`] (callers hold it so batched
    /// inference builds no scaler per row); the written values are
    /// bit-identical to [`Features::scaled_head_vector`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != Features::HEAD_INPUTS`.
    pub(crate) fn write_scaled_head_vector(&self, scaler: &MinMaxScaler, out: &mut [f64]) {
        assert_eq!(out.len(), Self::HEAD_INPUTS, "output slice width mismatch");
        out[0] = self.message_size as f64;
        out[1] = self.timeliness_ms;
        out[2] = self.delay_ms;
        out[3] = self.loss_rate;
        out[4] = self.batch_size as f64;
        out[5] = self.poll_interval_ms;
        out[6] = self.message_timeout_ms;
        out[7] = f64::from(self.replication_factor);
        out[8] = self.fault_downtime_ms;
        out[9] = f64::from(u8::from(self.allow_unclean));
        scaler.transform_row(out);
    }

    /// Validates the features against the Fig. 3 ranges (loss rate and
    /// batch size strictly; sizes/timeouts leniently, since the scaler
    /// clamps).
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-domain feature.
    pub fn validate(&self) -> Result<(), String> {
        if self.message_size == 0 {
            return Err("message size must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.loss_rate) {
            return Err("loss rate must be in [0, 1]".into());
        }
        if self.batch_size == 0 {
            return Err("batch size must be at least 1".into());
        }
        if self.message_timeout_ms <= 0.0 {
            return Err("message timeout must be positive".into());
        }
        if self.replication_factor == 0 {
            return Err("replication factor must be at least 1".into());
        }
        for (name, v) in [
            ("timeliness", self.timeliness_ms),
            ("delay", self.delay_ms),
            ("poll interval", self.poll_interval_ms),
            ("fault downtime", self.fault_downtime_ms),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} must be finite and non-negative"));
            }
        }
        Ok(())
    }

    /// The equivalent testbed experiment point (for validation runs).
    #[must_use]
    pub fn to_experiment_point(&self) -> ExperimentPoint {
        ExperimentPoint {
            message_size: self.message_size,
            timeliness: (self.timeliness_ms > 0.0)
                .then(|| SimDuration::from_secs_f64(self.timeliness_ms / 1e3)),
            delay: SimDuration::from_secs_f64(self.delay_ms / 1e3),
            loss_rate: self.loss_rate,
            semantics: self.semantics,
            batch_size: self.batch_size,
            poll_interval: SimDuration::from_secs_f64(self.poll_interval_ms / 1e3),
            message_timeout: SimDuration::from_secs_f64(self.message_timeout_ms / 1e3),
            replication_factor: self.replication_factor,
            fault_downtime: SimDuration::from_secs_f64(self.fault_downtime_ms / 1e3),
            allow_unclean: self.allow_unclean,
        }
    }
}

impl From<&ExperimentPoint> for Features {
    fn from(p: &ExperimentPoint) -> Self {
        Features {
            message_size: p.message_size,
            timeliness_ms: p.timeliness.map_or(0.0, |s| s.as_secs_f64() * 1e3),
            delay_ms: p.delay.as_secs_f64() * 1e3,
            loss_rate: p.loss_rate,
            semantics: p.semantics,
            batch_size: p.batch_size,
            poll_interval_ms: p.poll_interval.as_secs_f64() * 1e3,
            message_timeout_ms: p.message_timeout.as_secs_f64() * 1e3,
            replication_factor: p.replication_factor,
            fault_downtime_ms: p.fault_downtime.as_secs_f64() * 1e3,
            allow_unclean: p.allow_unclean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_vector_order_and_length() {
        let f = Features {
            message_size: 100,
            timeliness_ms: 250.0,
            delay_ms: 100.0,
            loss_rate: 0.19,
            semantics: DeliverySemantics::AtMostOnce,
            batch_size: 4,
            poll_interval_ms: 90.0,
            message_timeout_ms: 500.0,
            replication_factor: 3,
            fault_downtime_ms: 4_000.0,
            allow_unclean: true,
        };
        assert_eq!(
            f.head_vector(),
            vec![100.0, 250.0, 100.0, 0.19, 4.0, 90.0, 500.0, 3.0, 4000.0, 1.0]
        );
        assert_eq!(f.head_vector().len(), Features::HEAD_INPUTS);
        assert_eq!(FEATURE_RANGES.len(), Features::HEAD_INPUTS);
    }

    #[test]
    fn scaled_vector_is_unit_bounded() {
        let f = Features {
            message_size: 5_000, // beyond the range: clamps to 1
            loss_rate: 0.19,
            ..Features::default()
        };
        let v = f.scaled_head_vector();
        assert!(v.iter().all(|x| (0.0..=1.0).contains(x)));
        assert_eq!(v[0], 1.0);
        assert!((v[3] - 0.38).abs() < 1e-12, "L scales by 1/0.5");
    }

    #[test]
    fn write_scaled_matches_allocating_path() {
        let f = Features {
            message_size: 777,
            loss_rate: 0.27,
            delay_ms: 133.0,
            ..Features::default()
        };
        let scaler = Features::scaler();
        let mut out = [0.0; Features::HEAD_INPUTS];
        f.write_scaled_head_vector(&scaler, &mut out);
        let alloc = f.scaled_head_vector();
        for (a, b) in out.iter().zip(&alloc) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn round_trips_through_experiment_point() {
        let f = Features {
            message_size: 321,
            timeliness_ms: 1_500.0,
            delay_ms: 120.0,
            loss_rate: 0.13,
            semantics: DeliverySemantics::AtMostOnce,
            batch_size: 6,
            poll_interval_ms: 40.0,
            message_timeout_ms: 900.0,
            replication_factor: 3,
            fault_downtime_ms: 2_500.0,
            allow_unclean: true,
        };
        let p = f.to_experiment_point();
        let back = Features::from(&p);
        assert_eq!(f, back);
    }

    #[test]
    fn validation_rejects_out_of_domain() {
        let f = Features {
            loss_rate: 1.2,
            ..Features::default()
        };
        assert!(f.validate().is_err());
        let f = Features {
            batch_size: 0,
            ..Features::default()
        };
        assert!(f.validate().is_err());
        let f = Features {
            delay_ms: f64::NAN,
            ..Features::default()
        };
        assert!(f.validate().is_err());
        let f = Features {
            replication_factor: 0,
            ..Features::default()
        };
        assert!(f.validate().is_err());
        assert!(Features::default().validate().is_ok());
    }
}
