//! Clock frequency.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// A clock frequency, stored internally in kilohertz.
///
/// Kilohertz matches the granularity used by the Linux `cpufreq` subsystem
/// (`scaling_available_frequencies` is expressed in kHz), so every operating
/// point of a real platform is representable exactly.
///
/// # Examples
///
/// ```
/// use qgov_units::Freq;
///
/// let f = Freq::from_mhz(1400);
/// assert_eq!(f.khz(), 1_400_000);
/// assert_eq!(f.as_mhz(), 1400.0);
/// assert!(f > Freq::from_mhz(200));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Freq(u64);

impl Freq {
    /// The zero frequency (a halted clock).
    pub const ZERO: Freq = Freq(0);

    /// Creates a frequency from kilohertz.
    #[must_use]
    pub const fn from_khz(khz: u64) -> Self {
        Freq(khz)
    }

    /// Creates a frequency from megahertz.
    #[must_use]
    pub const fn from_mhz(mhz: u64) -> Self {
        Freq(mhz * 1_000)
    }

    /// Creates a frequency from gigahertz.
    #[must_use]
    pub const fn from_ghz(ghz: u64) -> Self {
        Freq(ghz * 1_000_000)
    }

    /// Returns the frequency in kilohertz.
    #[must_use]
    pub const fn khz(self) -> u64 {
        self.0
    }

    /// Returns the frequency in hertz.
    #[must_use]
    pub const fn hz(self) -> u64 {
        self.0 * 1_000
    }

    /// Returns the frequency in megahertz as a float (for reporting).
    #[must_use]
    pub fn as_mhz(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the frequency in gigahertz as a float (for power models).
    #[must_use]
    pub fn as_ghz(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns `true` if this is the zero frequency.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns the ratio `self / other` as a float.
    ///
    /// # Panics
    ///
    /// Panics if `other` is the zero frequency.
    #[must_use]
    pub fn ratio(self, other: Freq) -> f64 {
        assert!(!other.is_zero(), "division by zero frequency");
        self.0 as f64 / other.0 as f64
    }

    /// Saturating subtraction; returns [`Freq::ZERO`] instead of underflowing.
    #[must_use]
    pub const fn saturating_sub(self, rhs: Freq) -> Freq {
        Freq(self.0.saturating_sub(rhs.0))
    }

    /// Returns the absolute difference between two frequencies.
    #[must_use]
    pub const fn abs_diff(self, rhs: Freq) -> Freq {
        Freq(self.0.abs_diff(rhs.0))
    }

    /// Scales the frequency by a non-negative factor, rounding to the
    /// nearest kilohertz.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[must_use]
    pub fn scale(self, factor: f64) -> Freq {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        Freq((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for Freq {
    type Output = Freq;
    fn add(self, rhs: Freq) -> Freq {
        Freq(self.0 + rhs.0)
    }
}

impl AddAssign for Freq {
    fn add_assign(&mut self, rhs: Freq) {
        self.0 += rhs.0;
    }
}

impl Sub for Freq {
    type Output = Freq;
    fn sub(self, rhs: Freq) -> Freq {
        Freq(self.0 - rhs.0)
    }
}

impl SubAssign for Freq {
    fn sub_assign(&mut self, rhs: Freq) {
        self.0 -= rhs.0;
    }
}

impl Sum for Freq {
    fn sum<I: Iterator<Item = Freq>>(iter: I) -> Freq {
        iter.fold(Freq::ZERO, Add::add)
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1_000) {
            write!(f, "{} MHz", self.0 / 1_000)
        } else {
            write!(f, "{} kHz", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Freq::from_mhz(1), Freq::from_khz(1_000));
        assert_eq!(Freq::from_ghz(2), Freq::from_mhz(2_000));
    }

    #[test]
    fn display_uses_natural_unit() {
        assert_eq!(Freq::from_mhz(1400).to_string(), "1400 MHz");
        assert_eq!(Freq::from_khz(1_400_500).to_string(), "1400500 kHz");
    }

    #[test]
    fn ratio_and_scale() {
        let f = Freq::from_mhz(1000);
        assert_eq!(f.ratio(Freq::from_mhz(500)), 2.0);
        assert_eq!(f.scale(0.5), Freq::from_mhz(500));
        assert_eq!(f.scale(1.0), f);
    }

    #[test]
    #[should_panic(expected = "zero frequency")]
    fn ratio_by_zero_panics() {
        let _ = Freq::from_mhz(1).ratio(Freq::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Freq::from_mhz(300);
        let b = Freq::from_mhz(200);
        assert_eq!(a + b, Freq::from_mhz(500));
        assert_eq!(a - b, Freq::from_mhz(100));
        assert_eq!(b.saturating_sub(a), Freq::ZERO);
        assert_eq!(a.abs_diff(b), Freq::from_mhz(100));
        assert_eq!(b.abs_diff(a), Freq::from_mhz(100));
    }

    #[test]
    fn sum_of_freqs() {
        let total: Freq = [200, 300, 500].iter().map(|&m| Freq::from_mhz(m)).sum();
        assert_eq!(total, Freq::from_mhz(1000));
    }

    #[test]
    fn ordering_matches_magnitude() {
        assert!(Freq::from_mhz(200) < Freq::from_mhz(2000));
        assert!(Freq::ZERO.is_zero());
        assert!(!Freq::from_khz(1).is_zero());
    }
}
