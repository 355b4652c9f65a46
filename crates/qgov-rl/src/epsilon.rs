//! The exploration → exploitation transition schedule.

use crate::RlError;

/// Exponentially decaying exploration probability ε — Eq. 6 of the
/// paper:
///
/// ```text
/// εᵢ₊₁ = εᵢ · exp(−α)
/// ```
///
/// where α is "the learning factor per decision epoch". The decay
/// "accelerates the process of exploitation": after roughly `ln(ε₀/ε_min)/α`
/// epochs the agent is almost always greedy.
///
/// # Examples
///
/// ```
/// use qgov_rl::DecayingEpsilon;
///
/// let mut eps = DecayingEpsilon::new(1.0, 0.05, 0.01).unwrap();
/// assert_eq!(eps.value(), 1.0);
/// for _ in 0..200 { eps.step(); }
/// assert_eq!(eps.value(), 0.01); // clamped at the floor
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DecayingEpsilon {
    initial: f64,
    current: f64,
    decay_rate: f64,
    /// `exp(−decay_rate)`, the per-epoch factor of Eq. 6.
    factor: f64,
    floor: f64,
}

impl DecayingEpsilon {
    /// Creates a schedule starting at `initial`, decaying by
    /// `exp(-decay_rate)` per epoch, never falling below `floor`.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 ≤ floor ≤ initial ≤ 1` and
    /// `decay_rate > 0`.
    pub fn new(initial: f64, decay_rate: f64, floor: f64) -> Result<Self, RlError> {
        RlError::check_probability("initial", initial)?;
        RlError::check_probability("floor", floor)?;
        RlError::check_positive("decay_rate", decay_rate)?;
        if floor > initial {
            return Err(RlError::ProbabilityOutOfRange {
                name: "floor",
                value: format!("{floor} (exceeds initial {initial})"),
            });
        }
        Ok(DecayingEpsilon {
            initial,
            current: initial,
            decay_rate,
            factor: (-decay_rate).exp(),
            floor,
        })
    }

    /// The schedule used throughout our reproduction: start fully
    /// exploratory (ε₀ = 1), decay rate 0.05 per epoch, 1 % residual
    /// exploration floor.
    #[must_use]
    pub fn paper() -> Self {
        Self::new(1.0, 0.05, 0.01).expect("paper schedule constants are valid")
    }

    /// Current ε.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.current
    }

    /// Advances one decision epoch (applies Eq. 6 once) and returns the
    /// new ε.
    pub fn step(&mut self) -> f64 {
        self.current = (self.current * self.factor).max(self.floor);
        self.current
    }

    /// Exploration probabilities below this are treated as "at the
    /// floor" even when the configured floor is lower (a floor of
    /// exactly zero is only reached asymptotically, which would make
    /// [`is_exploitation`](Self::is_exploitation) unreachable and
    /// [`epochs_to_floor`](Self::epochs_to_floor) saturate).
    const NEGLIGIBLE: f64 = 1e-6;

    /// Returns `true` once ε has reached its floor (or decayed to a
    /// negligible value) — the agent is in the paper's "exploitation
    /// phase".
    #[must_use]
    pub fn is_exploitation(&self) -> bool {
        self.current <= self.floor.max(Self::NEGLIGIBLE)
    }

    /// How many epochs until ε first reaches the floor (analytical).
    #[must_use]
    pub fn epochs_to_floor(&self) -> u64 {
        let target = self.floor.max(Self::NEGLIGIBLE);
        if self.initial <= target {
            return 0;
        }
        ((self.initial / target).ln() / self.decay_rate).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_matches_equation_six() {
        let mut eps = DecayingEpsilon::new(1.0, 0.1, 0.0001).unwrap();
        eps.step();
        assert!((eps.value() - (-0.1f64).exp()).abs() < 1e-12);
        eps.step();
        assert!((eps.value() - (-0.2f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn floor_is_respected() {
        let mut eps = DecayingEpsilon::new(0.5, 1.0, 0.2).unwrap();
        for _ in 0..10 {
            eps.step();
        }
        assert_eq!(eps.value(), 0.2);
        assert!(eps.is_exploitation());
    }

    #[test]
    fn epochs_to_floor_is_consistent_with_stepping() {
        let mut eps = DecayingEpsilon::new(1.0, 0.05, 0.01).unwrap();
        let analytic = eps.epochs_to_floor();
        let mut steps = 0;
        while !eps.is_exploitation() {
            eps.step();
            steps += 1;
        }
        assert_eq!(steps, analytic);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(DecayingEpsilon::new(1.5, 0.1, 0.0).is_err());
        assert!(DecayingEpsilon::new(1.0, 0.0, 0.0).is_err());
        assert!(DecayingEpsilon::new(0.5, 0.1, 0.6).is_err()); // floor > initial
        assert!(DecayingEpsilon::new(1.0, -0.1, 0.0).is_err());
    }

    #[test]
    fn faster_decay_reaches_floor_sooner() {
        let slow = DecayingEpsilon::new(1.0, 0.02, 0.01).unwrap();
        let fast = DecayingEpsilon::new(1.0, 0.2, 0.01).unwrap();
        assert!(fast.epochs_to_floor() < slow.epochs_to_floor());
    }
}
