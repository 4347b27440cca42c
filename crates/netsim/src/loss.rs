//! Per-packet loss processes.
//!
//! The paper's testbed injects packet loss with NetEm; its static experiments
//! use an i.i.d. rate (`L`) and its dynamic-configuration experiment draws
//! the loss process from a **Gilbert–Elliott** two-state Markov model, the
//! standard burst-loss model for wireless links (Bildea et al., PIMRC 2015).

use desim::SimRng;
use serde::{Deserialize, Serialize};

/// Hidden state of the Gilbert–Elliott chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GeState {
    /// The low-loss state.
    Good,
    /// The high-loss (burst) state.
    Bad,
}

/// A stateful per-packet loss process.
///
/// Construct with one of the constructors and call `LossModel::sample`
/// once per packet, in transmission order; the Gilbert–Elliott variant
/// advances its Markov chain on every call.
///
/// # Example
///
/// ```
/// use netsim::LossModel;
///
/// assert_eq!(LossModel::bernoulli(0.19), LossModel::Bernoulli { p: 0.19 });
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub enum LossModel {
    /// No loss at all.
    #[default]
    None,
    /// Independent loss with fixed probability per packet.
    Bernoulli {
        /// Probability that any given packet is lost, in `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott Markov loss.
    GilbertElliott {
        /// Probability of moving Good → Bad at each packet.
        p_good_to_bad: f64,
        /// Probability of moving Bad → Good at each packet.
        p_bad_to_good: f64,
        /// Loss probability while in the Good state (often 0).
        loss_good: f64,
        /// Loss probability while in the Bad state (often near 1).
        loss_bad: f64,
        /// Current chain state.
        state: GeState,
    },
}

impl LossModel {
    /// A lossless process.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn none() -> Self {
        LossModel::None
    }

    /// An i.i.d. Bernoulli loss process with per-packet probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or not finite.
    #[must_use]
    pub fn bernoulli(p: f64) -> Self {
        assert!(
            p.is_finite() && (0.0..=1.0).contains(&p),
            "p must be in [0,1]"
        );
        LossModel::Bernoulli { p }
    }

    /// A Gilbert–Elliott process starting in the Good state.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    #[must_use]
    pub fn gilbert_elliott(
        p_good_to_bad: f64,
        p_bad_to_good: f64,
        loss_good: f64,
        loss_bad: f64,
    ) -> Self {
        for (name, v) in [
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ] {
            assert!(
                v.is_finite() && (0.0..=1.0).contains(&v),
                "{name} must be in [0,1]"
            );
        }
        LossModel::GilbertElliott {
            p_good_to_bad,
            p_bad_to_good,
            loss_good,
            loss_bad,
            state: GeState::Good,
        }
    }

    /// Samples whether the next packet is lost, advancing internal state.
    pub(crate) fn sample(&mut self, rng: &mut SimRng) -> bool {
        match self {
            LossModel::None => false,
            LossModel::Bernoulli { p } => rng.bernoulli(*p),
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
                state,
            } => {
                // Advance the chain, then sample loss in the new state.
                *state = match *state {
                    GeState::Good if rng.bernoulli(*p_good_to_bad) => GeState::Bad,
                    GeState::Bad if rng.bernoulli(*p_bad_to_good) => GeState::Good,
                    s => s,
                };
                let p = match *state {
                    GeState::Good => *loss_good,
                    GeState::Bad => *loss_bad,
                };
                rng.bernoulli(p)
            }
        }
    }

    /// The long-run average loss probability of the process.
    ///
    /// For Gilbert–Elliott this is the stationary mixture
    /// `π_B·loss_bad + π_G·loss_good` with
    /// `π_B = p_gb / (p_gb + p_bg)`.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn mean_loss(&self) -> f64 {
        match self {
            LossModel::None => 0.0,
            LossModel::Bernoulli { p } => *p,
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
                ..
            } => {
                let denom = p_good_to_bad + p_bad_to_good;
                if denom <= 0.0 {
                    // Chain never moves: stays in its initial (Good) state.
                    return *loss_good;
                }
                let pi_bad = p_good_to_bad / denom;
                pi_bad * loss_bad + (1.0 - pi_bad) * loss_good
            }
        }
    }

    /// Current Gilbert–Elliott state, if this is a Gilbert–Elliott model.
    #[must_use]
    pub(crate) fn ge_state(&self) -> Option<GeState> {
        match self {
            LossModel::GilbertElliott { state, .. } => Some(*state),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_loses() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut m = LossModel::none();
        assert!((0..1000).all(|_| !m.sample(&mut rng)));
        assert_eq!(m.mean_loss(), 0.0);
    }

    #[test]
    fn bernoulli_matches_rate() {
        let mut rng = SimRng::seed_from_u64(2);
        let mut m = LossModel::bernoulli(0.3);
        let lost = (0..200_000).filter(|_| m.sample(&mut rng)).count();
        assert!((lost as f64 / 200_000.0 - 0.3).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "p must be in [0,1]")]
    fn bernoulli_rejects_invalid() {
        let _ = LossModel::bernoulli(1.5);
    }

    #[test]
    fn gilbert_elliott_long_run_rate() {
        let mut rng = SimRng::seed_from_u64(3);
        // π_B = 0.05/(0.05+0.20) = 0.2; mean loss = 0.2*0.8 + 0.8*0.01 = 0.168
        let mut m = LossModel::gilbert_elliott(0.05, 0.20, 0.01, 0.80);
        assert!((m.mean_loss() - 0.168).abs() < 1e-12);
        let n = 400_000;
        let lost = (0..n).filter(|_| m.sample(&mut rng)).count();
        assert!(
            (lost as f64 / n as f64 - 0.168).abs() < 0.01,
            "observed {}",
            lost as f64 / n as f64
        );
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Compare run-length structure against a Bernoulli model of equal rate.
        let mut rng = SimRng::seed_from_u64(4);
        let mut ge = LossModel::gilbert_elliott(0.02, 0.10, 0.0, 1.0);
        let rate = ge.mean_loss();
        let mut bern = LossModel::bernoulli(rate);

        fn mean_burst(model: &mut LossModel, rng: &mut SimRng, n: usize) -> f64 {
            let mut bursts = 0u64;
            let mut lost_packets = 0u64;
            let mut in_burst = false;
            for _ in 0..n {
                if model.sample(rng) {
                    lost_packets += 1;
                    if !in_burst {
                        bursts += 1;
                        in_burst = true;
                    }
                } else {
                    in_burst = false;
                }
            }
            if bursts == 0 {
                0.0
            } else {
                lost_packets as f64 / bursts as f64
            }
        }

        let ge_burst = mean_burst(&mut ge, &mut rng, 200_000);
        let bern_burst = mean_burst(&mut bern, &mut rng, 200_000);
        assert!(
            ge_burst > 2.0 * bern_burst,
            "GE bursts ({ge_burst:.2}) should far exceed Bernoulli ({bern_burst:.2})"
        );
    }

    #[test]
    fn frozen_chain_mean_loss_uses_initial_state() {
        let m = LossModel::gilbert_elliott(0.0, 0.0, 0.05, 0.9);
        assert!((m.mean_loss() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn ge_state_accessor() {
        let m = LossModel::gilbert_elliott(0.1, 0.1, 0.0, 1.0);
        assert_eq!(m.ge_state(), Some(GeState::Good));
        assert_eq!(LossModel::none().ge_state(), None);
    }

    #[test]
    fn serde_round_trip() {
        let m = LossModel::gilbert_elliott(0.05, 0.2, 0.01, 0.8);
        let json = serde_json::to_string(&m).unwrap();
        let back: LossModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
