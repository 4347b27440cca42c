//! Deterministic pseudo-randomness for simulations.
//!
//! [`SimRng`] is a xoshiro256\*\* generator seeded through SplitMix64, the
//! standard construction recommended by the xoshiro authors. It is *not*
//! cryptographically secure — it exists to make simulation runs fast and
//! exactly reproducible from a single `u64` seed.
//!
//! The module also provides the distributions the reproduction needs:
//! uniform, Bernoulli, exponential, normal (Box–Muller), and the
//! **Pareto** distribution the paper uses to model end-to-end network delay
//! (Zhang & He, ICIMP 2007).

use core::fmt;

/// A seeded xoshiro256\*\* pseudo-random number generator.
///
/// # Example
///
/// ```
/// use desim::SimRng;
/// let mut a = SimRng::seed_from_u64(7);
/// let mut b = SimRng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // identical streams
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

impl fmt::Debug for SimRng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Hide the raw state: it is an implementation detail.
        f.debug_struct("SimRng").finish_non_exhaustive()
    }
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Two generators built from the same seed produce identical streams.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { state }
    }

    /// Derives an independent child generator.
    ///
    /// Useful for giving each simulated component its own stream so that
    /// adding randomness to one component does not perturb another.
    #[must_use]
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from_u64(self.next_u64())
    }

    /// The next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [ref mut s0, ref mut s1, ref mut s2, ref mut s3] = self.state;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits give a uniform dyadic rational in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform float in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low > high` or either bound is non-finite.
    pub fn uniform(&mut self, low: f64, high: f64) -> f64 {
        assert!(low.is_finite() && high.is_finite(), "bounds must be finite");
        assert!(low <= high, "low must not exceed high");
        low + (high - low) * self.next_f64()
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, so the result is
    /// unbiased for every `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "n must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let low = m as u64;
            if low >= n {
                return (m >> 64) as u64;
            }
            // Rejection zone: retry to remove modulo bias.
            let threshold = n.wrapping_neg() % n;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform integer in `[low, high]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    pub fn range_inclusive(&mut self, low: u64, high: u64) -> u64 {
        assert!(low <= high, "low must not exceed high");
        let span = high - low;
        if span == u64::MAX {
            return self.next_u64();
        }
        low + self.next_below(span + 1)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// An exponentially distributed value with the given rate (`1/mean`).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "rate must be positive");
        // Inverse CDF; next_f64 < 1 so the log argument is > 0.
        -(1.0 - self.next_f64()).ln() / rate
    }

    /// A standard-normal value via the Box–Muller transform.
    pub(crate) fn standard_normal(&mut self) -> f64 {
        // Draw u in (0,1] to keep ln finite.
        let u = 1.0 - self.next_f64();
        let v = self.next_f64();
        (-2.0 * u.ln()).sqrt() * (core::f64::consts::TAU * v).cos()
    }

    /// A normal value with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "std_dev must be non-negative");
        mean + std_dev * self.standard_normal()
    }

    /// A Pareto-distributed value with scale `x_m > 0` and shape `alpha > 0`.
    ///
    /// The Pareto distribution is heavy-tailed; the paper uses it to model
    /// end-to-end network delay. Its CDF is `1 - (x_m/x)^alpha` for
    /// `x >= x_m`.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are strictly positive.
    pub fn pareto(&mut self, scale: f64, shape: f64) -> f64 {
        assert!(scale > 0.0, "scale must be positive");
        assert!(shape > 0.0, "shape must be positive");
        // Inverse CDF with u in (0,1].
        let u = 1.0 - self.next_f64();
        scale / u.powf(1.0 / shape)
    }

    /// Fisher–Yates shuffle of a slice, in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        let n = slice.len();
        if n < 2 {
            return;
        }
        for i in (1..n).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// Returns `None` for an empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.next_below(slice.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should differ almost everywhere");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..10_000 {
            let x = rng.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut buckets = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            buckets[rng.next_below(10) as usize] += 1;
        }
        for &count in &buckets {
            let frac = count as f64 / n as f64;
            assert!((frac - 0.1).abs() < 0.01, "bucket fraction {frac}");
        }
    }

    #[test]
    fn bernoulli_edge_probabilities() {
        let mut rng = SimRng::seed_from_u64(6);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
        assert!(!rng.bernoulli(-0.5));
        assert!(rng.bernoulli(1.5));
    }

    #[test]
    fn bernoulli_matches_probability() {
        let mut rng = SimRng::seed_from_u64(7);
        let hits = (0..100_000).filter(|_| rng.bernoulli(0.19)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.19).abs() < 0.01, "observed {frac}");
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = SimRng::seed_from_u64(8);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(2.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "observed mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::seed_from_u64(9);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn pareto_respects_scale_and_median() {
        let mut rng = SimRng::seed_from_u64(10);
        let scale = 20.0;
        let shape = 3.0;
        let n = 100_000usize;
        let mut below_median = 0usize;
        // Median of Pareto(x_m, a) is x_m * 2^(1/a).
        let median = scale * 2f64.powf(1.0 / shape);
        for _ in 0..n {
            let x = rng.pareto(scale, shape);
            assert!(x >= scale);
            if x < median {
                below_median += 1;
            }
        }
        let frac = below_median as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "median fraction {frac}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn choose_handles_empty_and_singleton() {
        let mut rng = SimRng::seed_from_u64(12);
        let empty: [u8; 0] = [];
        assert_eq!(rng.choose(&empty), None);
        assert_eq!(rng.choose(&[9]), Some(&9));
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = SimRng::seed_from_u64(13);
        let mut child = parent.fork();
        let overlap = (0..64)
            .filter(|_| parent.next_u64() == child.next_u64())
            .count();
        assert!(overlap < 4);
    }
}
