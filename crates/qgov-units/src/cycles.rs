//! CPU cycle counts.

use crate::{Freq, SimTime};
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A count of CPU clock cycles.
///
/// Cycle counts are the paper's chosen workload parameter: the RTM's system
/// state is derived from the CPU Cycle Count (CC) read from the performance
/// monitoring unit (Section II-A of Biswas et al., DATE 2017).
///
/// # Examples
///
/// ```
/// use qgov_units::{Cycles, Freq, SimTime};
///
/// let work = Cycles::new(10_000_000);
/// // At 500 MHz, 10 M cycles take 20 ms.
/// assert_eq!(work.time_at(Freq::from_mhz(500)), SimTime::from_ms(20));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycles(u64);

/// [`Cycles::time_at`]'s u128 path, clamped at `u64::MAX` ns (passed
/// above ~3.7e18 cycles at 200 MHz). Out of line because no simulated
/// frame reaches it, while the platform's per-core frame loop inlines
/// `time_at`.
#[cold]
#[inline(never)]
fn wide_time_ns(cycles: u64, khz: u64) -> u64 {
    u64::try_from((u128::from(cycles) * 1_000_000).div_ceil(u128::from(khz))).unwrap_or(u64::MAX)
}

impl Cycles {
    /// The zero cycle count.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    #[must_use]
    pub const fn new(count: u64) -> Self {
        Cycles(count)
    }

    /// Creates a cycle count from megacycles.
    #[must_use]
    pub const fn from_mcycles(mc: u64) -> Self {
        Cycles(mc * 1_000_000)
    }

    /// Returns the raw count.
    #[must_use]
    pub const fn count(self) -> u64 {
        self.0
    }

    /// Returns the count in megacycles as a float (for reporting).
    #[must_use]
    pub fn as_mcycles(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns `true` if the count is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns the wall-clock time these cycles take at frequency `f`,
    /// rounded up to the next nanosecond (work cannot finish early) and
    /// saturating at [`SimTime::MAX`].
    ///
    /// # Panics
    ///
    /// Panics if `f` is the zero frequency while the cycle count is
    /// non-zero (a halted clock never retires work).
    #[must_use]
    pub fn time_at(self, f: Freq) -> SimTime {
        if self.0 == 0 {
            return SimTime::ZERO;
        }
        assert!(!f.is_zero(), "non-zero work cannot execute at 0 Hz");
        // ns = cycles / (kHz * 1000) * 1e9 = cycles * 1e6 / kHz, rounded up.
        // The product fits in u64 up to ~1.8e13 cycles (every frame's
        // work); only larger counts need the u128 division.
        let ns = match self.0.checked_mul(1_000_000) {
            Some(num) => num.div_ceil(f.khz()),
            None => wide_time_ns(self.0, f.khz()),
        };
        SimTime::from_ns(ns)
    }

    /// Returns the number of cycles a clock at frequency `f` retires in
    /// time `t` (truncating).
    #[must_use]
    pub fn elapsed(f: Freq, t: SimTime) -> Cycles {
        // cycles = kHz * 1000 * ns / 1e9 = kHz * ns / 1e6
        let num = f.khz() as u128 * t.as_ns() as u128;
        Cycles((num / 1_000_000) as u64)
    }

    /// Saturating subtraction; returns [`Cycles::ZERO`] instead of
    /// underflowing.
    #[must_use]
    pub const fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Returns the absolute difference between two counts.
    #[must_use]
    pub const fn abs_diff(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.abs_diff(rhs.0))
    }

    /// Returns the ratio `self / other` as a float.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    #[must_use]
    pub fn ratio(self, other: Cycles) -> f64 {
        assert!(!other.is_zero(), "division by zero cycle count");
        self.0 as f64 / other.0 as f64
    }

    /// Scales the count by a non-negative factor, rounding to the nearest
    /// cycle.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[must_use]
    pub fn scale(self, factor: f64) -> Cycles {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        Cycles((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.2} Mcycles", self.as_mcycles())
        } else {
            write!(f, "{} cycles", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_at_exact_division() {
        let c = Cycles::from_mcycles(20);
        assert_eq!(c.time_at(Freq::from_mhz(1000)), SimTime::from_ms(20));
        assert_eq!(c.time_at(Freq::from_mhz(2000)), SimTime::from_ms(10));
    }

    #[test]
    fn time_at_rounds_up() {
        // 1 cycle at 3 kHz: 1e6/3 ns = 333333.33 -> 333334 ns.
        let t = Cycles::new(1).time_at(Freq::from_khz(3));
        assert_eq!(t, SimTime::from_ns(333_334));
    }

    #[test]
    fn zero_work_takes_no_time_at_any_freq() {
        assert_eq!(Cycles::ZERO.time_at(Freq::ZERO), SimTime::ZERO);
        assert_eq!(Cycles::ZERO.time_at(Freq::from_mhz(200)), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "0 Hz")]
    fn nonzero_work_at_zero_freq_panics() {
        let _ = Cycles::new(1).time_at(Freq::ZERO);
    }

    #[test]
    fn elapsed_inverts_time_at() {
        let f = Freq::from_mhz(1400);
        let c = Cycles::from_mcycles(7);
        let t = c.time_at(f);
        let back = Cycles::elapsed(f, t);
        // Round-trip may gain at most a handful of cycles from the
        // round-up in time_at.
        assert!(back >= c);
        assert!(back.count() - c.count() < 2, "{back:?} vs {c:?}");
    }

    #[test]
    fn arithmetic_and_ratio() {
        let a = Cycles::new(300);
        let b = Cycles::new(200);
        assert_eq!(a + b, Cycles::new(500));
        assert_eq!(a - b, Cycles::new(100));
        assert_eq!(b.saturating_sub(a), Cycles::ZERO);
        assert_eq!(a.abs_diff(b), Cycles::new(100));
        assert_eq!(a.ratio(b), 1.5);
        assert_eq!(a * 2, Cycles::new(600));
        assert_eq!(a / 3, Cycles::new(100));
    }

    #[test]
    fn display_uses_natural_unit() {
        assert_eq!(Cycles::new(42).to_string(), "42 cycles");
        assert_eq!(Cycles::from_mcycles(3).to_string(), "3.00 Mcycles");
    }
}
