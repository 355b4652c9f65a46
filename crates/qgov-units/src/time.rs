//! Simulated time.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of simulated time, stored internally in nanoseconds.
///
/// Nanosecond-resolution integers keep the simulator deterministic: two runs
/// with the same seeds produce bit-identical schedules on any platform,
/// which floating-point time cannot guarantee.
///
/// # Examples
///
/// ```
/// use qgov_units::SimTime;
///
/// let frame = SimTime::from_ms(33) + SimTime::from_us(333);
/// assert_eq!(frame.as_us(), 33_333);
/// assert!(frame < SimTime::from_ms(34));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero duration.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable duration.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time span from nanoseconds.
    #[must_use]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time span from microseconds.
    #[must_use]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time span from milliseconds.
    #[must_use]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time span from whole seconds.
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Creates a time span from fractional seconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative, got {secs} s"
        );
        SimTime((secs * 1e9).round() as u64)
    }

    /// Returns the span in whole nanoseconds.
    #[must_use]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Returns the span in whole microseconds (truncating).
    #[must_use]
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the span in whole milliseconds (truncating).
    #[must_use]
    pub const fn as_ms(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the span in fractional milliseconds.
    #[must_use]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the span in fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns `true` if the span is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction; returns [`SimTime::ZERO`] instead of
    /// underflowing.
    #[must_use]
    pub const fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction; `None` if `rhs > self`.
    #[must_use]
    pub const fn checked_sub(self, rhs: SimTime) -> Option<SimTime> {
        match self.0.checked_sub(rhs.0) {
            Some(ns) => Some(SimTime(ns)),
            None => None,
        }
    }

    /// Returns the ratio `self / other` as a float.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    #[must_use]
    pub fn ratio(self, other: SimTime) -> f64 {
        assert!(!other.is_zero(), "division by zero duration");
        self.0 as f64 / other.0 as f64
    }

    /// Scales the span by a non-negative factor, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[must_use]
    pub fn scale(self, factor: f64) -> SimTime {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        SimTime((self.0 as f64 * factor).round() as u64)
    }

    /// Returns the larger of two spans.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two spans.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

/// Saturates at [`SimTime::MAX`]: simulated time never wraps.
impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

/// Saturates at [`SimTime::MAX`], as `+` does.
impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3} s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3} ms", self.as_ms_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3} us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{} ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_ms(1_000));
        assert_eq!(SimTime::from_secs_f64(0.5), SimTime::from_ms(500));
    }

    #[test]
    fn saturating_and_checked_sub() {
        let a = SimTime::from_ms(5);
        let b = SimTime::from_ms(8);
        assert_eq!(b.saturating_sub(a), SimTime::from_ms(3));
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
        assert_eq!(a.checked_sub(b), None);
        assert_eq!(b.checked_sub(a), Some(SimTime::from_ms(3)));
    }

    #[test]
    fn ratio_scale_and_minmax() {
        let frame = SimTime::from_ms(40);
        assert_eq!(frame.ratio(SimTime::from_ms(20)), 2.0);
        assert_eq!(frame.scale(0.25), SimTime::from_ms(10));
        assert_eq!(frame.max(SimTime::from_ms(50)), SimTime::from_ms(50));
        assert_eq!(frame.min(SimTime::from_ms(50)), frame);
    }

    #[test]
    fn display_picks_readable_unit() {
        assert_eq!(SimTime::from_ns(12).to_string(), "12 ns");
        assert_eq!(SimTime::from_us(12).to_string(), "12.000 us");
        assert_eq!(SimTime::from_ms(12).to_string(), "12.000 ms");
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000 s");
    }

    #[test]
    fn mul_div_and_sum() {
        assert_eq!(SimTime::from_ms(3) * 4, SimTime::from_ms(12));
        assert_eq!(SimTime::from_ms(12) / 4, SimTime::from_ms(3));
        let s: SimTime = (1..=4).map(SimTime::from_ms).sum();
        assert_eq!(s, SimTime::from_ms(10));
    }
}
