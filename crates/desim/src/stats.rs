//! Streaming statistics: running moments, histograms, and time-weighted
//! averages.
//!
//! All accumulators are O(1) in memory so that million-message experiments
//! (the paper sends 10⁶ messages per data point) stay cheap.

use crate::time::SimTime;

/// Welford's online algorithm for mean and variance.
///
/// # Example
///
/// ```
/// use desim::stats::RunningMoments;
/// let mut m = RunningMoments::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     m.record(x);
/// }
/// assert!((m.mean() - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningMoments {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningMoments {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        RunningMoments {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (dividing by n), or 0 when empty.
    #[must_use]
    pub(crate) fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest sample, or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

/// Fixed-bucket histogram over `[low, high)` with overflow/underflow bins.
///
/// # Example
///
/// ```
/// use desim::stats::Histogram;
/// let mut h = Histogram::new(0.0, 10.0, 10);
/// h.record(3.5);
/// h.record(3.9);
/// h.record(42.0);
/// assert_eq!(h.total(), 3);
/// assert_eq!(h.quantile(0.5), Some(4.0)); // the upper edge of [3, 4)
/// assert_eq!(h.quantile(1.0), Some(10.0)); // overflow reads as `high`
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    low: f64,
    high: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram over `[low, high)` with `buckets` equal bins.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high` or `buckets == 0`.
    #[must_use]
    pub fn new(low: f64, high: f64, buckets: usize) -> Self {
        assert!(low < high, "low must be below high");
        assert!(buckets > 0, "need at least one bucket");
        Histogram {
            low,
            high,
            buckets: vec![0; buckets],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Adds a sample.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x < self.low {
            self.underflow += 1;
        } else if x >= self.high {
            self.overflow += 1;
        } else {
            let frac = (x - self.low) / (self.high - self.low);
            let idx = ((frac * self.buckets.len() as f64) as usize).min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Total samples recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Approximate quantile (`q` in `[0,1]`) by linear scan of buckets.
    ///
    /// Returns `None` when empty. Underflow samples count as `low`,
    /// overflow samples as `high`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return Some(self.low);
        }
        let width = (self.high - self.low) / self.buckets.len() as f64;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= target {
                return Some(self.low + width * (i as f64 + 1.0));
            }
        }
        Some(self.high)
    }
}

/// Time-weighted average of a piecewise-constant signal (e.g. queue length).
///
/// # Example
///
/// ```
/// use desim::stats::TimeWeighted;
/// use desim::SimTime;
/// let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
/// tw.set(SimTime::from_secs(1), 10.0); // value was 0 for 1s
/// tw.set(SimTime::from_secs(3), 0.0);  // value was 10 for 2s
/// assert!((tw.average(SimTime::from_secs(4)) - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeWeighted {
    last_change: SimTime,
    current: f64,
    weighted_sum: f64,
    origin: SimTime,
}

impl TimeWeighted {
    /// Starts tracking at `start` with the signal at `initial`.
    #[must_use]
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            last_change: start,
            current: initial,
            weighted_sum: 0.0,
            origin: start,
        }
    }

    /// Records that the signal changed to `value` at time `now`.
    pub fn set(&mut self, now: SimTime, value: f64) {
        let span = now.saturating_since(self.last_change);
        self.weighted_sum += self.current * span.as_secs_f64();
        self.current = value;
        self.last_change = now;
    }

    /// The average of the signal from the start to `now`.
    ///
    /// Returns the current value when no time has elapsed.
    #[must_use]
    pub fn average(&self, now: SimTime) -> f64 {
        let elapsed = now.saturating_since(self.origin).as_secs_f64();
        if elapsed <= 0.0 {
            return self.current;
        }
        let tail = now.saturating_since(self.last_change).as_secs_f64();
        (self.weighted_sum + self.current * tail) / elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_match_closed_form() {
        let mut m = RunningMoments::new();
        for x in 1..=100 {
            m.record(x as f64);
        }
        assert_eq!(m.count(), 100);
        assert!((m.mean() - 50.5).abs() < 1e-9);
        // Variance of 1..=100 (population) = (n^2-1)/12 = 833.25
        assert!((m.population_variance() - 833.25).abs() < 1e-6);
        assert_eq!(m.min(), Some(1.0));
        assert_eq!(m.max(), Some(100.0));
    }

    #[test]
    fn empty_moments_are_zero() {
        let m = RunningMoments::new();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.population_variance(), 0.0);
        assert_eq!(m.min(), None);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        for i in 0..100 {
            h.record(i as f64);
        }
        // Ten samples a bucket: a quantile halfway into the k-th tenth
        // reads the k-th bucket's upper edge.
        for k in 1..=10 {
            assert_eq!(h.quantile(k as f64 / 10.0 - 0.05), Some(10.0 * k as f64));
        }
        let median = h.quantile(0.5).unwrap();
        assert!((median - 50.0).abs() <= 10.0);
        assert_eq!(h.quantile(1.0), Some(100.0));
    }

    #[test]
    fn histogram_overflow_underflow() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-0.5);
        h.record(2.0);
        h.record(0.5);
        assert_eq!(h.total(), 3);
        // The underflow reads as `low`, the one in-range sample as its
        // bucket's upper edge, the overflow as `high`.
        assert_eq!(h.quantile(1.0 / 3.0), Some(0.0));
        assert_eq!(h.quantile(2.0 / 3.0), Some(0.75));
        assert_eq!(h.quantile(1.0), Some(1.0));
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 2.0);
        tw.set(SimTime::from_secs(2), 6.0);
        // 2.0 for 2s, then 6.0 for 2s → average 4.0 at t=4s.
        assert!((tw.average(SimTime::from_secs(4)) - 4.0).abs() < 1e-12);
        // And 6.0 still, with no change since: (4 + 24) / 6 at t=6s.
        assert!((tw.average(SimTime::from_secs(6)) - 28.0 / 6.0).abs() < 1e-12);
    }
}
