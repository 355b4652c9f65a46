//! Electrical power.

use crate::{Energy, SimTime};
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Mul, Sub};

/// Electrical power in watts.
///
/// Power is a derived, report-only quantity in the simulator (it never
/// gates control flow), so it is backed by `f64`.
///
/// # Examples
///
/// ```
/// use qgov_units::{Power, SimTime};
///
/// let p = Power::from_watts(2.5);
/// let e = p * SimTime::from_secs(4);
/// assert_eq!(e.as_joules(), 10.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct Power(f64);

impl Power {
    /// The zero power.
    pub const ZERO: Power = Power(0.0);

    /// Creates a power from watts.
    ///
    /// # Panics
    ///
    /// Panics if `w` is negative or not finite.
    #[must_use]
    pub fn from_watts(w: f64) -> Self {
        assert!(
            w.is_finite() && w >= 0.0,
            "power must be finite and non-negative, got {w} W"
        );
        Power(w)
    }

    /// Returns the power in watts.
    #[must_use]
    pub const fn as_watts(self) -> f64 {
        self.0
    }

    /// Returns the power in milliwatts.
    #[must_use]
    pub fn as_mw(self) -> f64 {
        self.0 * 1_000.0
    }
}

impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}

impl AddAssign for Power {
    fn add_assign(&mut self, rhs: Power) {
        self.0 += rhs.0;
    }
}

impl Sub for Power {
    type Output = Power;
    fn sub(self, rhs: Power) -> Power {
        Power((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Power {
    type Output = Power;
    fn mul(self, rhs: f64) -> Power {
        Power::from_watts(self.0 * rhs)
    }
}

/// `Power × SimTime = Energy` — the fundamental accounting identity of the
/// energy meter.
impl Mul<SimTime> for Power {
    type Output = Energy;
    fn mul(self, rhs: SimTime) -> Energy {
        Energy::from_joules(self.0 * rhs.as_secs_f64())
    }
}

impl Sum for Power {
    fn sum<I: Iterator<Item = Power>>(iter: I) -> Power {
        iter.fold(Power::ZERO, Add::add)
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1.0 {
            write!(f, "{:.1} mW", self.as_mw())
        } else {
            write!(f, "{:.3} W", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        let e = Power::from_watts(3.0) * SimTime::from_ms(500);
        assert!((e.as_joules() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn subtraction_clamps_at_zero() {
        let p = Power::from_watts(1.0) - Power::from_watts(2.0);
        assert_eq!(p, Power::ZERO);
    }

    #[test]
    fn display_uses_natural_unit() {
        assert_eq!(Power::from_watts(0.25).to_string(), "250.0 mW");
        assert_eq!(Power::from_watts(4.2).to_string(), "4.200 W");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_power_panics() {
        let _ = Power::from_watts(-0.1);
    }

    #[test]
    fn sum_accumulates() {
        let total: Power = (1..=3).map(|i| Power::from_watts(i as f64)).sum();
        assert_eq!(total.as_watts(), 6.0);
    }
}
