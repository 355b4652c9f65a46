//! Electrical energy.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Mul, Sub};

/// Electrical energy in joules.
///
/// Energy is the quantity the paper's RTM minimises; it is accumulated by
/// integrating [`Power`](crate::Power) over [`SimTime`](crate::SimTime)
/// spans and only ever compared or reported, so `f64` backing is safe.
///
/// # Examples
///
/// ```
/// use qgov_units::Energy;
///
/// let a = Energy::from_joules(1.2);
/// let b = Energy::from_joules(0.3);
/// assert!((a + b).as_joules() - 1.5 < 1e-12);
/// assert!((a.normalized_to(b) - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct Energy(f64);

impl Energy {
    /// The zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from joules.
    ///
    /// # Panics
    ///
    /// Panics if `j` is negative or not finite.
    #[must_use]
    pub fn from_joules(j: f64) -> Self {
        assert!(
            j.is_finite() && j >= 0.0,
            "energy must be finite and non-negative, got {j} J"
        );
        Energy(j)
    }

    /// Returns the energy in joules.
    #[must_use]
    pub const fn as_joules(self) -> f64 {
        self.0
    }

    /// Returns the energy in millijoules.
    #[must_use]
    pub fn as_mj(self) -> f64 {
        self.0 * 1_000.0
    }

    /// Returns this energy normalised to a reference (the paper's Table I
    /// normalises every governor's energy to the Oracle's).
    ///
    /// # Panics
    ///
    /// Panics if the reference energy is zero.
    #[must_use]
    pub fn normalized_to(self, reference: Energy) -> f64 {
        assert!(
            reference.0 > 0.0,
            "cannot normalise to a zero reference energy"
        );
        self.0 / reference.0
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy::from_joules(self.0 * rhs)
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, Add::add)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1.0 {
            write!(f, "{:.1} mJ", self.as_mj())
        } else {
            write!(f, "{:.3} J", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_matches_ratio() {
        let oracle = Energy::from_joules(10.0);
        let ours = Energy::from_joules(11.1);
        assert!((ours.normalized_to(oracle) - 1.11).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero reference")]
    fn normalising_to_zero_panics() {
        let _ = Energy::from_joules(1.0).normalized_to(Energy::ZERO);
    }

    #[test]
    fn subtraction_clamps_at_zero() {
        assert_eq!(
            Energy::from_joules(1.0) - Energy::from_joules(5.0),
            Energy::ZERO
        );
    }

    #[test]
    fn display_uses_natural_unit() {
        assert_eq!(Energy::from_joules(0.012).to_string(), "12.0 mJ");
        assert_eq!(Energy::from_joules(3.5).to_string(), "3.500 J");
    }

    #[test]
    fn sum_accumulates() {
        let total: Energy = (1..=4).map(|i| Energy::from_joules(i as f64)).sum();
        assert_eq!(total.as_joules(), 10.0);
    }
}
