//! Workload prediction.
//!
//! "Predicting the state of the system is a key step in RL" (Section
//! II-A). The RTM proactively chooses the V-F setting for the *next*
//! decision epoch, so it must forecast the coming workload from the
//! history of observed workloads. The paper uses an Exponential Weighted
//! Moving Average (EWMA, Eq. 1).

/// Exponential Weighted Moving Average predictor — Eq. 1 of the paper:
///
/// ```text
/// CCᵢ₊₁ = γ·actualCCᵢ + (1 − γ)·predCCᵢ
/// ```
///
/// where γ is the smoothing factor (the paper experimentally determines
/// γ = 0.6 for its MPEG4 analysis, Section III-B).
///
/// The protocol is: call [`predict`](EwmaPredictor::predict) to obtain
/// the forecast for the coming epoch, then, once the epoch has elapsed,
/// feed the measured value back via
/// [`observe`](EwmaPredictor::observe).
///
/// # Examples
///
/// ```
/// use qgov_rl::EwmaPredictor;
///
/// let mut p = EwmaPredictor::new(0.6).unwrap();
/// p.observe(100.0);
/// assert_eq!(p.predict(), 100.0); // first observation seeds the state
/// p.observe(200.0);
/// assert_eq!(p.predict(), 0.6 * 200.0 + 0.4 * 100.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EwmaPredictor {
    smoothing: f64,
    prediction: Option<f64>,
}

impl EwmaPredictor {
    /// Creates an EWMA predictor with the given smoothing factor γ.
    ///
    /// # Errors
    ///
    /// Returns an error unless `0 < smoothing <= 1`.
    pub fn new(smoothing: f64) -> Result<Self, crate::RlError> {
        crate::RlError::check_probability("smoothing", smoothing)?;
        crate::RlError::check_positive("smoothing", smoothing)?;
        Ok(EwmaPredictor {
            smoothing,
            prediction: None,
        })
    }

    /// The paper's experimentally-determined smoothing factor, γ = 0.6.
    #[must_use]
    pub fn paper() -> Self {
        Self::new(0.6).expect("0.6 is a valid smoothing factor")
    }

    /// The smoothing factor γ.
    #[must_use]
    pub fn smoothing(&self) -> f64 {
        self.smoothing
    }

    /// Forecast for the next epoch given everything observed so far
    /// (zero before the first observation).
    #[must_use]
    pub fn predict(&self) -> f64 {
        self.prediction.unwrap_or(0.0)
    }

    /// Feeds the actual measurement of the epoch that just completed.
    ///
    /// # Panics
    ///
    /// Panics if `actual` is not finite.
    pub fn observe(&mut self, actual: f64) {
        assert!(actual.is_finite(), "observation must be finite");
        self.prediction = Some(match self.prediction {
            // Seed with the first observation rather than decaying from 0,
            // otherwise early predictions are systematically low.
            None => actual,
            Some(prev) => self.smoothing * actual + (1.0 - self.smoothing) * prev,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_matches_equation_one() {
        let mut p = EwmaPredictor::new(0.6).unwrap();
        p.observe(100.0);
        p.observe(50.0);
        // pred = 0.6*50 + 0.4*100 = 70
        assert!((p.predict() - 70.0).abs() < 1e-12);
        p.observe(70.0);
        // pred = 0.6*70 + 0.4*70 = 70
        assert!((p.predict() - 70.0).abs() < 1e-12);
    }

    #[test]
    fn ewma_rejects_bad_smoothing() {
        assert!(EwmaPredictor::new(0.0).is_err());
        assert!(EwmaPredictor::new(1.1).is_err());
        assert!(EwmaPredictor::new(-0.2).is_err());
        assert!(EwmaPredictor::new(1.0).is_ok());
    }

    #[test]
    fn ewma_paper_preset_uses_0_6() {
        assert_eq!(EwmaPredictor::paper().smoothing(), 0.6);
    }

    #[test]
    fn ewma_converges_to_constant_signal() {
        let mut p = EwmaPredictor::new(0.6).unwrap();
        for _ in 0..50 {
            p.observe(42.0);
        }
        assert!((p.predict() - 42.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_observation_panics() {
        let mut p = EwmaPredictor::paper();
        p.observe(f64::NAN);
    }
}
