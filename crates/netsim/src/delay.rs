//! Propagation-delay processes.
//!
//! The paper models end-to-end network delay with a **Pareto** distribution
//! (Zhang & He, ICIMP 2007) in its dynamic-configuration experiment, and
//! fixed NetEm delays (e.g. `D = 100 ms`) in the static ones. Each variant
//! here samples a one-way propagation delay per packet.

use desim::{SimDuration, SimRng};
use serde::{Deserialize, Serialize};

/// A per-packet one-way delay process.
///
/// # Example
///
/// ```
/// use netsim::DelayModel;
/// use desim::SimDuration;
///
/// let model = DelayModel::constant(SimDuration::from_millis(100));
/// assert_eq!(model, DelayModel::Constant { delay: SimDuration::from_millis(100) });
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DelayModel {
    /// The same delay for every packet.
    Constant {
        /// The fixed one-way delay.
        delay: SimDuration,
    },
    /// Uniformly distributed delay in `[low, high]`.
    Uniform {
        /// Minimum delay.
        low: SimDuration,
        /// Maximum delay.
        high: SimDuration,
    },
    /// Normal delay (NetEm's `delay <mean> <jitter>` with normal
    /// distribution), truncated below at `floor`.
    Normal {
        /// Mean delay.
        mean: SimDuration,
        /// Standard deviation (jitter).
        jitter: SimDuration,
        /// Minimum possible delay after truncation.
        floor: SimDuration,
    },
    /// Heavy-tailed Pareto delay: `scale · U^(-1/shape)`, capped at `cap`.
    Pareto {
        /// Scale `x_m` — the minimum delay.
        scale: SimDuration,
        /// Tail index `alpha`; smaller values give heavier tails.
        shape: f64,
        /// Upper cap to keep simulations finite.
        cap: SimDuration,
    },
}

impl Default for DelayModel {
    fn default() -> Self {
        DelayModel::Constant {
            delay: SimDuration::from_millis(1),
        }
    }
}

impl DelayModel {
    /// A constant delay.
    #[must_use]
    pub fn constant(delay: SimDuration) -> Self {
        DelayModel::Constant { delay }
    }

    /// A uniform delay in `[low, high]`.
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn uniform(low: SimDuration, high: SimDuration) -> Self {
        assert!(low <= high, "low must not exceed high");
        DelayModel::Uniform { low, high }
    }

    /// A truncated normal delay (mean ± jitter, never below `floor`).
    #[must_use]
    pub(crate) fn normal(mean: SimDuration, jitter: SimDuration, floor: SimDuration) -> Self {
        DelayModel::Normal {
            mean,
            jitter,
            floor,
        }
    }

    /// A capped Pareto delay.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is not strictly positive or `scale` is zero.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn pareto(scale: SimDuration, shape: f64, cap: SimDuration) -> Self {
        assert!(shape > 0.0, "shape must be positive");
        assert!(!scale.is_zero(), "scale must be positive");
        DelayModel::Pareto { scale, shape, cap }
    }

    /// Samples the delay for one packet.
    #[must_use]
    pub(crate) fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match self {
            DelayModel::Constant { delay } => *delay,
            DelayModel::Uniform { low, high } => {
                let secs = rng.uniform(low.as_secs_f64(), high.as_secs_f64());
                SimDuration::from_secs_f64(secs)
            }
            DelayModel::Normal {
                mean,
                jitter,
                floor,
            } => {
                let secs = rng.normal(mean.as_secs_f64(), jitter.as_secs_f64());
                SimDuration::from_secs_f64(secs).max(*floor)
            }
            DelayModel::Pareto { scale, shape, cap } => {
                let secs = rng.pareto(scale.as_secs_f64(), *shape);
                SimDuration::from_secs_f64(secs).min(*cap)
            }
        }
    }

    /// The distribution's mean delay (after truncation for Pareto with an
    /// infinite analytic mean, the cap keeps it finite; this returns the
    /// *untruncated* analytic mean clamped to the cap, a close approximation
    /// for the parameter ranges used here).
    #[must_use]
    #[cfg(test)]
    pub(crate) fn mean(&self) -> SimDuration {
        match self {
            DelayModel::Constant { delay } => *delay,
            DelayModel::Uniform { low, high } => (*low + *high) / 2,
            DelayModel::Normal { mean, floor, .. } => (*mean).max(*floor),
            DelayModel::Pareto { scale, shape, cap } => {
                if *shape <= 1.0 {
                    *cap
                } else {
                    scale.mul_f64(shape / (shape - 1.0)).min(*cap)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean(model: &DelayModel, seed: u64, n: usize) -> f64 {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..n)
            .map(|_| model.sample(&mut rng).as_secs_f64())
            .sum::<f64>()
            / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let m = DelayModel::constant(SimDuration::from_millis(42));
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), SimDuration::from_millis(42));
        }
        assert_eq!(m.mean(), SimDuration::from_millis(42));
    }

    #[test]
    fn uniform_within_bounds_and_mean() {
        let m = DelayModel::uniform(SimDuration::from_millis(10), SimDuration::from_millis(30));
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let d = m.sample(&mut rng);
            assert!(d >= SimDuration::from_millis(10) && d <= SimDuration::from_millis(30));
        }
        assert!((sample_mean(&m, 3, 50_000) - 0.020).abs() < 0.001);
        assert_eq!(m.mean(), SimDuration::from_millis(20));
    }

    #[test]
    fn normal_truncates_at_floor() {
        let m = DelayModel::normal(
            SimDuration::from_millis(5),
            SimDuration::from_millis(10),
            SimDuration::from_millis(1),
        );
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..10_000 {
            assert!(m.sample(&mut rng) >= SimDuration::from_millis(1));
        }
    }

    #[test]
    fn pareto_respects_scale_and_cap() {
        let m = DelayModel::pareto(SimDuration::from_millis(20), 2.0, SimDuration::from_secs(1));
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let d = m.sample(&mut rng);
            assert!(d >= SimDuration::from_millis(20));
            assert!(d <= SimDuration::from_secs(1));
        }
        // Analytic mean (untruncated) = scale * shape/(shape-1) = 40ms.
        let mean = sample_mean(&m, 6, 200_000);
        assert!((mean - 0.040).abs() < 0.004, "observed {mean}");
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        let m = DelayModel::pareto(
            SimDuration::from_millis(20),
            1.5,
            SimDuration::from_secs(10),
        );
        let mut rng = SimRng::seed_from_u64(7);
        let n = 100_000;
        let over_100ms = (0..n)
            .filter(|_| m.sample(&mut rng) > SimDuration::from_millis(100))
            .count();
        // P(X > 100ms) = (20/100)^1.5 ≈ 0.0894
        let frac = over_100ms as f64 / n as f64;
        assert!((frac - 0.0894).abs() < 0.01, "observed {frac}");
    }

    #[test]
    fn pareto_mean_with_small_shape_is_cap() {
        let cap = SimDuration::from_secs(2);
        let m = DelayModel::pareto(SimDuration::from_millis(10), 0.9, cap);
        assert_eq!(m.mean(), cap);
    }

    #[test]
    #[should_panic(expected = "low must not exceed high")]
    fn uniform_rejects_inverted_bounds() {
        let _ = DelayModel::uniform(SimDuration::from_millis(2), SimDuration::from_millis(1));
    }

    #[test]
    fn serde_round_trip() {
        let m = DelayModel::pareto(SimDuration::from_millis(20), 2.5, SimDuration::from_secs(1));
        let json = serde_json::to_string(&m).unwrap();
        let back: DelayModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
