//! Virtual time: instants ([`SimTime`]) and spans ([`SimDuration`]).
//!
//! Both are newtypes over integer microseconds so that event ordering is
//! exact. Arithmetic is saturating where underflow could occur and panics on
//! overflow in debug builds, matching the behaviour of `std::time`.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// An instant on the simulation clock, in microseconds since simulation start.
///
/// # Example
///
/// ```
/// use desim::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_millis(3);
/// assert_eq!(t.as_micros(), 3_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
///
/// # Example
///
/// ```
/// use desim::SimDuration;
/// let d = SimDuration::from_millis(250) * 4;
/// assert_eq!(d.as_secs_f64(), 1.0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `micros` microseconds after simulation start.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after simulation start.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant `secs` seconds after simulation start.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Microseconds since simulation start.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since simulation start (truncating).
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since simulation start as a float.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span from `earlier` to `self`, or [`SimDuration::ZERO`] if
    /// `earlier` is in the future.
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span of `micros` microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a span of `millis` milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a span of `secs` seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a span from fractional seconds, rounding to whole microseconds.
    ///
    /// Negative and non-finite inputs clamp to zero.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration(round_half_away(secs * 1e6))
    }

    /// The span in whole microseconds.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span in whole milliseconds (truncating).
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// The span in fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// `true` when the span is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction of spans.
    #[must_use]
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the span by a float factor, clamping negatives to zero.
    #[must_use]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// The larger of two spans.
    #[must_use]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two spans.
    #[must_use]
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.saturating_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

/// `x.round() as u64` for `x > 0` (`+∞` included), in integer arithmetic:
/// baseline x86-64 has no `roundsd`, so `f64::round` there is a call into
/// libm on a path every simulated segment and ACK takes. Below 2⁵² the
/// truncation `t` and the remainder `x − t` are both exact, so "add one iff
/// the remainder is at least a half" *is* round-half-away-from-zero; from
/// 2⁵² up `x` is already an integer, the remainder is zero until the cast
/// saturates, and past that the add saturates with it.
fn round_half_away(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({}us)", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({}us)", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_millis(10) + SimDuration::from_micros(500);
        assert_eq!(t.as_micros(), 10_500);
        assert_eq!(t - SimTime::from_millis(10), SimDuration::from_micros(500));
    }

    #[test]
    fn subtraction_saturates() {
        let early = SimTime::from_millis(1);
        let late = SimTime::from_millis(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_millis(1));
    }

    #[test]
    fn duration_from_secs_f64_clamps() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(0.001),
            SimDuration::from_millis(1)
        );
    }

    /// What `from_secs_f64` computed while it still called libm.
    fn round_by_libm(secs: f64) -> SimDuration {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((secs * 1e6).round().min(u64::MAX as f64) as u64)
    }

    /// `x`, a tie or not, with its two representable neighbours a side.
    fn neighbourhood(x: f64) -> impl Iterator<Item = f64> {
        (x.to_bits() - 2..=x.to_bits() + 2).map(f64::from_bits)
    }

    #[test]
    fn integer_rounding_equals_f64_round_at_the_edges() {
        let two52 = (1u64 << 52) as f64;
        let singles = [
            0.49999999999999994,
            two52 - 0.5,
            two52,
            (1u64 << 53) as f64 + 2.0,
            u64::MAX as f64,
            f64::MAX,
            f64::INFINITY,
            f64::MIN_POSITIVE,
        ];
        let ties = [0.5, 1.5, 2.5, 7.5, 1e6 + 0.5, two52 / 2.0 - 0.5];
        for x in singles
            .into_iter()
            .chain(ties.into_iter().flat_map(neighbourhood))
        {
            let want = x.round().min(u64::MAX as f64) as u64;
            assert_eq!(round_half_away(x), want, "{x:e} µs");
        }
        for secs in [f64::NAN, f64::NEG_INFINITY, -0.0, -1e-9, -3.5, 1e300] {
            let got = SimDuration::from_secs_f64(secs);
            assert_eq!(got, round_by_libm(secs), "{secs:e} s");
        }
    }

    proptest::proptest! {
        /// Seconds of either sign with any mantissa and an exponent from
        /// 2⁻²⁴ to 2⁴⁸, so sub-microsecond, fractional, integral-only
        /// (2³² s up) and saturating (2⁴⁴ s up) magnitudes are all drawn;
        /// and, since a random product almost never lands on one, the
        /// neighbourhood of a random tie `n + 0.5` µs.
        #[test]
        fn from_secs_f64_equals_rounding_by_libm(
            exponent in 999u64..1072,
            mantissa in 0u64..(1 << 52),
            negative in proptest::bool::ANY,
            n in 0u64..(1 << 51),
        ) {
            let secs = f64::from_bits(u64::from(negative) << 63 | exponent << 52 | mantissa);
            proptest::prop_assert_eq!(
                SimDuration::from_secs_f64(secs),
                round_by_libm(secs),
                "{:e} s", secs
            );
            for x in neighbourhood(n as f64 + 0.5) {
                proptest::prop_assert_eq!(round_half_away(x), x.round() as u64, "{:e} µs", x);
            }
        }
    }

    #[test]
    fn duration_scalar_ops() {
        let d = SimDuration::from_millis(4) / 2;
        assert_eq!(d, SimDuration::from_millis(2));
        assert_eq!(d * 3, SimDuration::from_millis(6));
        assert_eq!(d.mul_f64(0.5), SimDuration::from_millis(1));
    }

    #[test]
    fn duration_min_max_sum() {
        let a = SimDuration::from_millis(1);
        let b = SimDuration::from_millis(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let total: SimDuration = [a, b].into_iter().sum();
        assert_eq!(total, SimDuration::from_millis(3));
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(SimDuration::from_micros(5).to_string(), "5us");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
        assert_eq!(SimTime::from_secs(1).to_string(), "1.000000s");
    }
}
