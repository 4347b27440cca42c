//! The upstream source the producer polls.
//!
//! The paper's producer *pulls* from upstream applications: the polling
//! interval `δ` is "the configurable time interval between a producer's
//! calls to acquire source data", so the arrival rate is `λ = 1/δ`; at full
//! load (`δ = 0`) the producer "acquires source data in the highest speed
//! that I/O devices can handle", which the host model bounds by message
//! size. Experiments feed a fixed number of uniquely-keyed messages
//! (`10⁶` in the paper, configurable here).

use desim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

use crate::config::HostModel;

/// Message-size model (`M`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SizeSpec {
    /// Every message has the same payload size.
    Fixed(u64),
    /// Uniformly distributed payload in `[low, high]`.
    Uniform {
        /// Smallest payload.
        low: u64,
        /// Largest payload.
        high: u64,
    },
}

impl SizeSpec {
    /// Samples one payload size.
    pub(crate) fn sample(&self, rng: &mut SimRng) -> u64 {
        match self {
            SizeSpec::Fixed(m) => *m,
            SizeSpec::Uniform { low, high } => rng.range_inclusive(*low, *high),
        }
    }

    /// The mean payload size.
    #[must_use]
    pub fn mean(&self) -> f64 {
        match self {
            SizeSpec::Fixed(m) => *m as f64,
            SizeSpec::Uniform { low, high } => (*low + *high) as f64 / 2.0,
        }
    }
}

/// Arrival model: how fast the producer polls the source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RateSpec {
    /// `δ = 0`: poll as fast as I/O allows (full load).
    FullLoad,
    /// Fixed polling interval `δ` (arrival rate `λ = 1/δ`), still bounded
    /// below by the I/O fetch time.
    Interval(SimDuration),
    /// Piecewise-constant arrival rate `λ(t)` in messages/second — the
    /// workload shape used by the Table II scenarios.
    Timeline(Vec<(SimTime, f64)>),
}

/// Full source description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceSpec {
    /// Number of messages to feed (the paper uses 10⁶ per experiment).
    pub n_messages: u64,
    /// Payload-size model.
    pub size: SizeSpec,
    /// Arrival model.
    pub rate: RateSpec,
    /// Message timeliness `S`: a delivered message older than this is
    /// *stale*. `None` disables staleness accounting.
    pub timeliness: Option<SimDuration>,
}

impl Default for SourceSpec {
    fn default() -> Self {
        SourceSpec {
            n_messages: 10_000,
            size: SizeSpec::Fixed(200),
            rate: RateSpec::FullLoad,
            timeliness: None,
        }
    }
}

impl SourceSpec {
    /// A source of `n` messages of `payload` bytes at a fixed rate in
    /// messages/second.
    ///
    /// # Panics
    ///
    /// Panics if `rate_hz` is not strictly positive.
    #[must_use]
    pub fn fixed_rate(n: u64, payload: u64, rate_hz: f64) -> Self {
        assert!(rate_hz > 0.0, "rate must be positive");
        SourceSpec {
            n_messages: n,
            size: SizeSpec::Fixed(payload),
            rate: RateSpec::Interval(SimDuration::from_secs_f64(1.0 / rate_hz)),
            ..SourceSpec::default()
        }
    }

    /// A full-load source of `n` messages of `payload` bytes.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn full_load(n: u64, payload: u64) -> Self {
        SourceSpec {
            n_messages: n,
            size: SizeSpec::Fixed(payload),
            rate: RateSpec::FullLoad,
            ..SourceSpec::default()
        }
    }

    /// The gap until the next poll, given the payload just fetched.
    ///
    /// The I/O fetch time is always a lower bound: even a generous polling
    /// interval cannot fetch faster than the device.
    #[must_use]
    pub(crate) fn poll_gap(&self, now: SimTime, payload: u64, host: &HostModel) -> SimDuration {
        let fetch = host.fetch_time(payload);
        match &self.rate {
            RateSpec::FullLoad => fetch,
            RateSpec::Interval(delta) => fetch.max(*delta),
            RateSpec::Timeline(points) => {
                let rate = rate_at(points, now);
                if rate <= 0.0 {
                    // Idle period: re-check shortly.
                    SimDuration::from_millis(100)
                } else {
                    fetch.max(SimDuration::from_secs_f64(1.0 / rate))
                }
            }
        }
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_messages == 0 {
            return Err("source must provide at least one message".into());
        }
        match self.size {
            SizeSpec::Fixed(0) => return Err("payload size must be positive".into()),
            SizeSpec::Uniform { low, high } if low == 0 || low > high => {
                return Err("uniform size range must be ordered and positive".into())
            }
            _ => {}
        }
        if let RateSpec::Timeline(points) = &self.rate {
            if points.is_empty() {
                return Err("rate timeline must not be empty".into());
            }
            if points[0].0 != SimTime::ZERO {
                return Err("rate timeline must start at time zero".into());
            }
            if points.windows(2).any(|w| w[0].0 >= w[1].0) {
                return Err("rate timeline must strictly increase in time".into());
            }
            if points.iter().any(|(_, r)| !r.is_finite() || *r < 0.0) {
                return Err("rates must be finite and non-negative".into());
            }
        }
        Ok(())
    }
}

fn rate_at(points: &[(SimTime, f64)], now: SimTime) -> f64 {
    match points.binary_search_by(|(t, _)| t.cmp(&now)) {
        Ok(i) => points[i].1,
        Err(0) => points[0].1,
        Err(i) => points[i - 1].1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_rate_sets_interval() {
        let s = SourceSpec::fixed_rate(100, 200, 50.0);
        assert_eq!(s.n_messages, 100);
        let gap = s.poll_gap(SimTime::ZERO, 200, &HostModel::default());
        assert_eq!(gap, SimDuration::from_millis(20));
    }

    #[test]
    fn full_load_is_io_bound_and_size_dependent() {
        let host = HostModel::default();
        let s = SourceSpec::full_load(100, 200);
        let small = s.poll_gap(SimTime::ZERO, 100, &host);
        let large = s.poll_gap(SimTime::ZERO, 10_000, &host);
        assert!(large > small, "bigger messages take longer to fetch");
    }

    #[test]
    fn io_bounds_even_configured_intervals() {
        let host = HostModel::default();
        let s = SourceSpec {
            rate: RateSpec::Interval(SimDuration::from_micros(1)),
            ..SourceSpec::default()
        };
        let gap = s.poll_gap(SimTime::ZERO, 100_000, &host);
        assert!(gap > SimDuration::from_micros(1));
    }

    #[test]
    fn timeline_rate_switches() {
        let s = SourceSpec {
            rate: RateSpec::Timeline(vec![(SimTime::ZERO, 100.0), (SimTime::from_secs(10), 10.0)]),
            ..SourceSpec::default()
        };
        let host = HostModel::default();
        let early = s.poll_gap(SimTime::from_secs(1), 200, &host);
        let late = s.poll_gap(SimTime::from_secs(11), 200, &host);
        assert_eq!(early, SimDuration::from_millis(10));
        assert_eq!(late, SimDuration::from_millis(100));
    }

    #[test]
    fn zero_rate_period_backs_off() {
        let s = SourceSpec {
            rate: RateSpec::Timeline(vec![(SimTime::ZERO, 0.0)]),
            ..SourceSpec::default()
        };
        let gap = s.poll_gap(SimTime::ZERO, 200, &HostModel::default());
        assert_eq!(gap, SimDuration::from_millis(100));
    }

    #[test]
    fn size_sampling_respects_bounds() {
        let mut rng = SimRng::seed_from_u64(1);
        let s = SizeSpec::Uniform { low: 50, high: 150 };
        for _ in 0..1000 {
            let m = s.sample(&mut rng);
            assert!((50..=150).contains(&m));
        }
        assert_eq!(s.mean(), 100.0);
        assert_eq!(SizeSpec::Fixed(42).sample(&mut rng), 42);
    }

    #[test]
    fn validation_catches_bad_specs() {
        let s = SourceSpec {
            n_messages: 0,
            ..SourceSpec::default()
        };
        assert!(s.validate().is_err());
        let s = SourceSpec {
            size: SizeSpec::Fixed(0),
            ..SourceSpec::default()
        };
        assert!(s.validate().is_err());
        let s = SourceSpec {
            rate: RateSpec::Timeline(vec![]),
            ..SourceSpec::default()
        };
        assert!(s.validate().is_err());
        let s = SourceSpec {
            rate: RateSpec::Timeline(vec![(SimTime::from_secs(1), 5.0)]),
            ..SourceSpec::default()
        };
        assert!(s.validate().is_err());
        assert!(SourceSpec::default().validate().is_ok());
    }
}
