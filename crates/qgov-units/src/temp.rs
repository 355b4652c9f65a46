//! Die temperature.

use core::fmt;
use core::ops::{Add, Sub};

/// A die temperature in degrees Celsius.
///
/// Used by the RC thermal model and the leakage term of the power model
/// (leakage grows with temperature). Report-only, so `f64`-backed.
///
/// # Examples
///
/// ```
/// use qgov_units::Temp;
///
/// let ambient = Temp::from_celsius(25.0);
/// let hot = ambient + Temp::from_celsius(40.0);
/// assert_eq!(hot.as_celsius(), 65.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Temp(f64);

impl Temp {
    /// Creates a temperature from degrees Celsius.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not finite or below absolute zero.
    #[must_use]
    pub fn from_celsius(c: f64) -> Self {
        assert!(
            c.is_finite() && c >= -273.15,
            "temperature must be finite and above absolute zero, got {c} degC"
        );
        Temp(c)
    }

    /// Returns the temperature in degrees Celsius.
    #[must_use]
    pub const fn as_celsius(self) -> f64 {
        self.0
    }

    /// Returns the larger of two temperatures.
    #[must_use]
    pub fn max(self, other: Temp) -> Temp {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Default for Temp {
    /// Room ambient, 25 °C.
    fn default() -> Self {
        Temp(25.0)
    }
}

impl Add for Temp {
    type Output = Temp;
    fn add(self, rhs: Temp) -> Temp {
        Temp(self.0 + rhs.0)
    }
}

impl Sub for Temp {
    type Output = Temp;
    fn sub(self, rhs: Temp) -> Temp {
        Temp(self.0 - rhs.0)
    }
}

impl fmt::Display for Temp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} degC", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_room_ambient() {
        assert_eq!(Temp::default().as_celsius(), 25.0);
    }

    #[test]
    #[should_panic(expected = "absolute zero")]
    fn below_absolute_zero_panics() {
        let _ = Temp::from_celsius(-300.0);
    }

    #[test]
    fn display_formats_celsius() {
        assert_eq!(Temp::from_celsius(62.35).to_string(), "62.4 degC");
        assert_eq!(Temp::from_celsius(25.0).to_string(), "25.0 degC");
    }
}
