//! Seeded stochastic building blocks for workload variation.

use rand::rngs::StdRng;
use rand::Rng;

/// Draws a standard-normal sample via Box–Muller.
pub(crate) fn gaussian(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            let u2: f64 = rng.gen::<f64>();
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// A first-order autoregressive process,
/// `x' = mean + phi·(x − mean) + sigma·N(0,1)`, clamped to a range.
///
/// Models smoothly varying workload intensity such as video motion: the
/// process is correlated frame-to-frame (persistence `phi`) with
/// Gaussian innovations.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Ar1Process {
    mean: f64,
    phi: f64,
    sigma: f64,
    min: f64,
    max: f64,
    current: f64,
}

impl Ar1Process {
    /// Creates an AR(1) process starting at its mean.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ phi < 1`, `sigma ≥ 0`, `min < max`, and the
    /// mean lies inside `[min, max]`.
    #[must_use]
    pub(crate) fn new(mean: f64, phi: f64, sigma: f64, min: f64, max: f64) -> Self {
        assert!((0.0..1.0).contains(&phi), "phi must lie in [0, 1)");
        assert!(
            sigma >= 0.0 && sigma.is_finite(),
            "sigma must be non-negative"
        );
        assert!(min < max, "min must be below max");
        assert!(
            (min..=max).contains(&mean),
            "mean {mean} must lie within [{min}, {max}]"
        );
        Ar1Process {
            mean,
            phi,
            sigma,
            min,
            max,
            current: mean,
        }
    }

    /// Advances one step and returns the new value.
    pub(crate) fn step(&mut self, rng: &mut StdRng) -> f64 {
        let innovation = self.sigma * gaussian(rng);
        let next = self.mean + self.phi * (self.current - self.mean) + innovation;
        self.current = next.clamp(self.min, self.max);
        self.current
    }

    /// Jumps the process to `value` (clamped), e.g. on a scene change.
    pub(crate) fn jump_to(&mut self, value: f64) {
        self.current = value.clamp(self.min, self.max);
    }

    /// Restarts from the mean.
    pub(crate) fn reset(&mut self) {
        self.current = self.mean;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ar1_stays_in_bounds_and_reverts_to_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut p = Ar1Process::new(10.0, 0.8, 1.0, 5.0, 15.0);
        let mut sum = 0.0;
        let n = 5000;
        for _ in 0..n {
            let v = p.step(&mut rng);
            assert!((5.0..=15.0).contains(&v));
            sum += v;
        }
        let mean = sum / f64::from(n);
        assert!((mean - 10.0).abs() < 0.5, "sample mean {mean} far from 10");
    }

    #[test]
    fn ar1_jump_and_reset() {
        let mut p = Ar1Process::new(1.0, 0.9, 0.0, 0.0, 2.0);
        p.jump_to(5.0);
        assert_eq!(p.current, 2.0, "jump clamps to range");
        p.reset();
        assert_eq!(p.current, 1.0);
    }

    #[test]
    fn ar1_zero_sigma_decays_deterministically() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut p = Ar1Process::new(0.0, 0.5, 0.0, -10.0, 10.0);
        p.jump_to(8.0);
        assert_eq!(p.step(&mut rng), 4.0);
        assert_eq!(p.step(&mut rng), 2.0);
        assert_eq!(p.step(&mut rng), 1.0);
    }

    #[test]
    #[should_panic(expected = "phi")]
    fn ar1_rejects_unstable_phi() {
        let _ = Ar1Process::new(0.0, 1.0, 0.1, -1.0, 1.0);
    }
}
