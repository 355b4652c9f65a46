//! Supply voltage.

use core::fmt;
use core::ops::{Add, Sub};

/// A supply voltage, stored internally in microvolts.
///
/// Microvolt resolution covers every step of real voltage regulators (the
/// ODROID-XU3 PMIC steps in 6.25 mV increments) without rounding.
///
/// # Examples
///
/// ```
/// use qgov_units::Volt;
///
/// let v = Volt::from_mv(1362.5);
/// assert_eq!(v.uv(), 1_362_500);
/// assert!((v.as_volts() - 1.3625).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Volt(u64);

impl Volt {
    /// The zero voltage (power-gated rail).
    pub const ZERO: Volt = Volt(0);

    /// Creates a voltage from microvolts.
    #[must_use]
    pub const fn from_uv(uv: u64) -> Self {
        Volt(uv)
    }

    /// Creates a voltage from millivolts (fractional millivolts allowed).
    ///
    /// # Panics
    ///
    /// Panics if `mv` is negative or not finite.
    #[must_use]
    pub fn from_mv(mv: f64) -> Self {
        assert!(
            mv.is_finite() && mv >= 0.0,
            "voltage must be finite and non-negative, got {mv} mV"
        );
        Volt((mv * 1_000.0).round() as u64)
    }

    /// Returns the voltage in microvolts.
    #[must_use]
    pub const fn uv(self) -> u64 {
        self.0
    }

    /// Returns the voltage in millivolts as a float.
    #[must_use]
    pub fn as_mv(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the voltage in volts as a float (for power models).
    #[must_use]
    pub fn as_volts(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns `true` if the rail is at zero volts.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns the square of the voltage in volts² (the `V²` term of the
    /// dynamic-power equation `P = C·V²·f`).
    #[must_use]
    pub fn squared(self) -> f64 {
        let v = self.as_volts();
        v * v
    }
}

impl Add for Volt {
    type Output = Volt;
    fn add(self, rhs: Volt) -> Volt {
        Volt(self.0 + rhs.0)
    }
}

impl Sub for Volt {
    type Output = Volt;
    fn sub(self, rhs: Volt) -> Volt {
        Volt(self.0 - rhs.0)
    }
}

impl fmt::Display for Volt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} V", self.as_volts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(Volt::from_mv(912.5).uv(), 912_500);
        assert_eq!(Volt::from_mv(1250.0).as_volts(), 1.25);
    }

    #[test]
    fn squared_is_volts_squared() {
        let v = Volt::from_mv(2000.0);
        assert_eq!(v.squared(), 4.0);
    }

    #[test]
    fn display_in_volts() {
        assert_eq!(Volt::from_mv(1362.5).to_string(), "1.3625 V");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_voltage_panics() {
        let _ = Volt::from_mv(-1.0);
    }

    #[test]
    fn ordering_matches_magnitude() {
        assert!(Volt::from_mv(900.0) < Volt::from_mv(1350.0));
        assert!(Volt::ZERO.is_zero());
    }
}
