//! Generators for time-varying network conditions (the paper's Fig. 9).
//!
//! The dynamic-configuration experiment (paper §V) runs against an unstable
//! network whose **delay follows a Pareto distribution** (Zhang & He, ICIMP
//! 2007) and whose **packet-loss rate is generated from the Gilbert–Elliott
//! model** (Bildea et al., PIMRC 2015). This module samples both processes
//! at a fixed interval and materialises them into a
//! [`ConditionTimeline`] that can be replayed against a
//! [`crate::DuplexChannel`] and fed to the prediction model.

use desim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

use crate::netem::{ConditionTimeline, NetCondition};

/// Hidden state of the Gilbert–Elliott chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GeState {
    /// The low-loss state.
    Good,
    /// The high-loss (burst) state.
    Bad,
}

/// Parameters of the Fig. 9 network generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Total trace duration.
    pub duration: SimDuration,
    /// Resampling interval (one breakpoint per interval).
    pub interval: SimDuration,
    /// Pareto scale (minimum delay).
    pub delay_scale: SimDuration,
    /// Pareto shape; smaller is heavier-tailed.
    pub delay_shape: f64,
    /// Delay cap to keep the simulation finite.
    pub delay_cap: SimDuration,
    /// Gilbert–Elliott: probability of Good → Bad per interval.
    pub p_good_to_bad: f64,
    /// Gilbert–Elliott: probability of Bad → Good per interval.
    pub p_bad_to_good: f64,
    /// Loss-rate range sampled while in the Good state.
    pub loss_good: (f64, f64),
    /// Loss-rate range sampled while in the Bad state.
    pub loss_bad: (f64, f64),
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            duration: SimDuration::from_secs(600),
            interval: SimDuration::from_secs(10),
            delay_scale: SimDuration::from_millis(20),
            delay_shape: 1.8,
            delay_cap: SimDuration::from_millis(400),
            p_good_to_bad: 0.20,
            p_bad_to_good: 0.40,
            loss_good: (0.0, 0.02),
            loss_bad: (0.08, 0.22),
        }
    }
}

impl TraceConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.duration.is_zero() {
            return Err("duration must be positive".into());
        }
        if self.interval.is_zero() || self.interval > self.duration {
            return Err("interval must be positive and no longer than duration".into());
        }
        if self.delay_shape <= 0.0 {
            return Err("delay_shape must be positive".into());
        }
        for (name, p) in [
            ("p_good_to_bad", self.p_good_to_bad),
            ("p_bad_to_good", self.p_bad_to_good),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be in [0,1]"));
            }
        }
        for (name, (lo, hi)) in [("loss_good", self.loss_good), ("loss_bad", self.loss_bad)] {
            if !(0.0..=1.0).contains(&lo) || !(0.0..=1.0).contains(&hi) || lo > hi {
                return Err(format!("{name} must be an ordered range within [0,1]"));
            }
        }
        Ok(())
    }
}

/// A generated network trace: the condition timeline plus the hidden
/// Gilbert–Elliott state path (useful for plots and debugging).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkTrace {
    /// The piecewise-constant conditions.
    pub timeline: ConditionTimeline,
    /// The Gilbert–Elliott state in force during each interval.
    pub states: Vec<GeState>,
}

impl NetworkTrace {
    /// Time-averaged loss rate of the whole trace.
    #[must_use]
    pub fn mean_loss(&self) -> f64 {
        let end = SimTime::ZERO + duration_of(&self.timeline);
        self.timeline.mean_loss(SimTime::ZERO, end)
    }

    /// Fraction of intervals spent in the Bad state.
    #[must_use]
    pub fn bad_fraction(&self) -> f64 {
        if self.states.is_empty() {
            return 0.0;
        }
        let bad = self.states.iter().filter(|s| **s == GeState::Bad).count();
        bad as f64 / self.states.len() as f64
    }
}

fn duration_of(timeline: &ConditionTimeline) -> SimDuration {
    // Breakpoints mark interval starts; the trace extends one interval past
    // the last breakpoint. Estimate using the median gap.
    let bps = timeline.breakpoints();
    if bps.len() < 2 {
        return SimDuration::ZERO;
    }
    let gap = bps[1].0.saturating_since(bps[0].0);
    bps.last()
        .expect("non-empty")
        .0
        .saturating_since(SimTime::ZERO)
        + gap
}

/// Generates a Fig. 9-style network trace.
///
/// Delay is sampled i.i.d. per interval from a capped Pareto distribution;
/// the loss rate follows a Gilbert–Elliott chain whose per-interval level is
/// drawn uniformly from the state's range.
///
/// # Errors
///
/// Returns the validation error when `config` is inconsistent.
///
/// # Example
///
/// ```
/// use netsim::trace::{generate_trace, TraceConfig};
/// use desim::SimRng;
///
/// let trace = generate_trace(&TraceConfig::default(), &mut SimRng::seed_from_u64(9)).unwrap();
/// assert!(trace.timeline.breakpoints().len() >= 59);
/// ```
pub fn generate_trace(config: &TraceConfig, rng: &mut SimRng) -> Result<NetworkTrace, String> {
    config.validate()?;
    let intervals = (config.duration.as_micros() / config.interval.as_micros()).max(1) as usize;
    let mut state = GeState::Good;
    let mut breakpoints = Vec::with_capacity(intervals);
    let mut states = Vec::with_capacity(intervals);
    for i in 0..intervals {
        let start = SimTime::ZERO + config.interval * i as u64;
        // Advance the hidden chain once per interval, from Good.
        state = match state {
            GeState::Good if rng.bernoulli(config.p_good_to_bad) => GeState::Bad,
            GeState::Bad if rng.bernoulli(config.p_bad_to_good) => GeState::Good,
            s => s,
        };
        let (lo, hi) = match state {
            GeState::Good => config.loss_good,
            GeState::Bad => config.loss_bad,
        };
        let loss = rng.uniform(lo, hi);
        let delay_secs = rng.pareto(config.delay_scale.as_secs_f64(), config.delay_shape);
        let delay = SimDuration::from_secs_f64(delay_secs).min(config.delay_cap);
        breakpoints.push((start, NetCondition::new(delay, loss)));
        states.push(state);
    }
    let timeline = ConditionTimeline::new(breakpoints).map_err(|e| e.to_string())?;
    Ok(NetworkTrace { timeline, states })
}

/// Generates a trace whose network **regime shifts** mid-run: conditions in
/// `[0, shift_at)` come from `base`, conditions in `[shift_at,
/// base.duration)` from `shifted`. The result is one spliced
/// [`ConditionTimeline`], so every consumer (the channel replayer, the
/// planner's estimator) sees the shift as ordinary breakpoints — a
/// first-class fault that induces model drift without touching the
/// simulator.
///
/// `base.duration` is the *total* trace length; `shifted.duration` is
/// ignored and both halves are resampled on their own `interval`. The two
/// halves are drawn from a single `rng` stream (base first), so the whole
/// spliced trace is deterministic in the seed.
///
/// # Errors
///
/// Returns the validation error when either config is inconsistent, or when
/// `shift_at` does not fall strictly inside the trace (at least one interval
/// on each side).
///
/// # Example
///
/// ```
/// use netsim::trace::{generate_regime_shift, TraceConfig};
/// use desim::{SimDuration, SimRng};
///
/// let calm = TraceConfig { p_good_to_bad: 0.0, ..TraceConfig::default() };
/// let stormy = TraceConfig { p_bad_to_good: 0.0, ..TraceConfig::default() };
/// let trace = generate_regime_shift(
///     &calm,
///     &stormy,
///     SimDuration::from_secs(300),
///     &mut SimRng::seed_from_u64(9),
/// )
/// .unwrap();
/// assert_eq!(trace.timeline.breakpoints().len(), 60);
/// ```
pub fn generate_regime_shift(
    base: &TraceConfig,
    shifted: &TraceConfig,
    shift_at: SimDuration,
    rng: &mut SimRng,
) -> Result<NetworkTrace, String> {
    base.validate()?;
    shifted.validate()?;
    if shift_at < base.interval {
        return Err("shift_at must leave at least one base interval".into());
    }
    if shift_at + shifted.interval > base.duration {
        return Err("shift_at must leave at least one shifted interval".into());
    }
    let head_cfg = TraceConfig {
        duration: shift_at,
        ..base.clone()
    };
    let tail_cfg = TraceConfig {
        duration: base.duration.saturating_sub(shift_at),
        ..shifted.clone()
    };
    let head = generate_trace(&head_cfg, rng)?;
    let tail = generate_trace(&tail_cfg, rng)?;

    let mut breakpoints: Vec<(SimTime, NetCondition)> = head.timeline.breakpoints().to_vec();
    breakpoints.extend(
        tail.timeline
            .breakpoints()
            .iter()
            .map(|(start, cond)| (*start + shift_at, *cond)),
    );
    let mut states = head.states;
    states.extend(tail.states);
    let timeline = ConditionTimeline::new(breakpoints).map_err(|e| e.to_string())?;
    Ok(NetworkTrace { timeline, states })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_has_expected_breakpoints() {
        let cfg = TraceConfig {
            duration: SimDuration::from_secs(100),
            interval: SimDuration::from_secs(10),
            ..TraceConfig::default()
        };
        let trace = generate_trace(&cfg, &mut SimRng::seed_from_u64(1)).unwrap();
        assert_eq!(trace.timeline.breakpoints().len(), 10);
        assert_eq!(trace.states.len(), 10);
    }

    #[test]
    fn delays_respect_scale_and_cap() {
        let cfg = TraceConfig::default();
        let trace = generate_trace(&cfg, &mut SimRng::seed_from_u64(2)).unwrap();
        for (_, cond) in trace.timeline.breakpoints() {
            assert!(cond.delay >= cfg.delay_scale);
            assert!(cond.delay <= cfg.delay_cap);
        }
    }

    #[test]
    fn loss_levels_match_hidden_state() {
        let cfg = TraceConfig::default();
        let trace = generate_trace(&cfg, &mut SimRng::seed_from_u64(3)).unwrap();
        for ((_, cond), state) in trace.timeline.breakpoints().iter().zip(&trace.states) {
            match state {
                GeState::Good => assert!(cond.loss_rate <= cfg.loss_good.1),
                GeState::Bad => {
                    assert!(cond.loss_rate >= cfg.loss_bad.0);
                    assert!(cond.loss_rate <= cfg.loss_bad.1);
                }
            }
        }
    }

    #[test]
    fn bad_fraction_near_stationary_probability() {
        let cfg = TraceConfig {
            duration: SimDuration::from_secs(100_000),
            interval: SimDuration::from_secs(10),
            ..TraceConfig::default()
        };
        let trace = generate_trace(&cfg, &mut SimRng::seed_from_u64(4)).unwrap();
        // π_B = 0.2/(0.2+0.4) = 1/3.
        assert!((trace.bad_fraction() - 1.0 / 3.0).abs() < 0.03);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = TraceConfig::default();
        let a = generate_trace(&cfg, &mut SimRng::seed_from_u64(5)).unwrap();
        let b = generate_trace(&cfg, &mut SimRng::seed_from_u64(5)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let cfg = TraceConfig {
            interval: SimDuration::ZERO,
            ..TraceConfig::default()
        };
        assert!(generate_trace(&cfg, &mut SimRng::seed_from_u64(6)).is_err());
        let cfg = TraceConfig {
            loss_bad: (0.5, 0.2),
            ..TraceConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = TraceConfig {
            delay_shape: -1.0,
            ..TraceConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn regime_shift_splices_the_two_halves() {
        let calm = TraceConfig {
            p_good_to_bad: 0.0,
            loss_good: (0.0, 0.01),
            ..TraceConfig::default()
        };
        let stormy = TraceConfig {
            p_good_to_bad: 1.0,
            p_bad_to_good: 0.0,
            loss_bad: (0.3, 0.4),
            ..TraceConfig::default()
        };
        let shift = SimDuration::from_secs(300);
        let trace =
            generate_regime_shift(&calm, &stormy, shift, &mut SimRng::seed_from_u64(8)).unwrap();
        // 30 calm intervals + 30 stormy intervals in one timeline.
        assert_eq!(trace.timeline.breakpoints().len(), 60);
        assert_eq!(trace.states.len(), 60);
        let shift_time = SimTime::ZERO + shift;
        for (start, cond) in trace.timeline.breakpoints() {
            if *start < shift_time {
                assert!(cond.loss_rate <= 0.01, "calm half leaked loss");
            } else {
                assert!(cond.loss_rate >= 0.3, "stormy half too mild");
            }
        }
    }

    #[test]
    fn regime_shift_is_deterministic_for_fixed_seed() {
        let base = TraceConfig::default();
        let shifted = TraceConfig {
            loss_bad: (0.2, 0.3),
            ..TraceConfig::default()
        };
        let shift = SimDuration::from_secs(200);
        let a =
            generate_regime_shift(&base, &shifted, shift, &mut SimRng::seed_from_u64(9)).unwrap();
        let b =
            generate_regime_shift(&base, &shifted, shift, &mut SimRng::seed_from_u64(9)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn regime_shift_rejects_degenerate_split_points() {
        let cfg = TraceConfig::default();
        let mut rng = SimRng::seed_from_u64(10);
        assert!(generate_regime_shift(&cfg, &cfg, SimDuration::ZERO, &mut rng).is_err());
        assert!(generate_regime_shift(&cfg, &cfg, cfg.duration, &mut rng).is_err());
    }

    #[test]
    fn mean_loss_is_sane() {
        let trace = generate_trace(&TraceConfig::default(), &mut SimRng::seed_from_u64(7)).unwrap();
        let mean = trace.mean_loss();
        assert!((0.0..=0.25).contains(&mean), "mean loss {mean}");
    }
}
