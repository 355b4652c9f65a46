//! Exploration — how the agent picks actions before it has learnt
//! their values.
//!
//! The paper's key exploration idea (Section II-B) is to replace the
//! "commonly used random selection policy based on a Uniform Probability
//! Distribution (UPD)" with a discrete **Exponential Probability
//! Distribution** (EPD, Eq. 2) that encodes the intuitive relationship
//! between slack and frequency:
//!
//! ```text
//! pᵢ(a) = λ · exp(−β · F_a · Lᵢ),   a ∈ A{V, F}
//! ```
//!
//! With positive slack (over-performance) high frequencies are damped —
//! the agent preferentially explores energy-frugal settings; with
//! negative slack (deadline misses) high frequencies are boosted. "For
//! values of L close to zero, the Exponential Probabilities guided by λ
//! are almost uniform." This focus is what cuts the number of
//! explorations roughly in half in Table II.

use rand::RngCore;

/// Draws a uniform float in `[0, 1)` from any RNG (object-safe helper).
#[must_use]
pub fn uniform_f64(rng: &mut dyn RngCore) -> f64 {
    // 53 random mantissa bits, the standard conversion.
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Samples an index proportionally to non-negative `weights`.
///
/// Degenerate inputs (all-zero or non-finite totals) fall back to a
/// uniform draw so exploration never wedges.
///
/// # Panics
///
/// Panics if `weights` is empty or any weight is negative or NaN.
#[must_use]
pub fn sample_weighted(weights: &[f64], rng: &mut dyn RngCore) -> usize {
    assert!(!weights.is_empty(), "cannot sample from zero weights");
    assert!(
        weights.iter().all(|w| w.is_finite() && *w >= 0.0),
        "weights must be finite and non-negative"
    );
    let total: f64 = weights.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        return (rng.next_u64() % weights.len() as u64) as usize;
    }
    let mut target = uniform_f64(rng) * total;
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            return i;
        }
        target -= w;
    }
    weights.len() - 1 // float round-off: last index
}

/// Which rule draws the action on an exploring epoch: the paper's EPD
/// or the UPD baseline that Table II compares it against.
///
/// # Examples
///
/// ```
/// use qgov_rl::ExplorationKind;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let epd = ExplorationKind::Epd { lambda: 1.0 / 19.0, beta: 2.0 };
/// let freqs = [0.2, 1.0, 2.0];
/// let mut rng = StdRng::seed_from_u64(1);
///
/// // Large positive slack: low-frequency actions dominate.
/// let picks: Vec<usize> = (0..100).map(|_| epd.select(&freqs, 0.8, &mut rng)).collect();
/// let low = picks.iter().filter(|&&a| a == 0).count();
/// let high = picks.iter().filter(|&&a| a == 2).count();
/// assert!(low > high);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExplorationKind {
    /// The paper's slack-aware Exponential Probability Distribution
    /// (Eq. 2).
    Epd {
        /// Uniform base probability λ (it scales all weights equally
        /// and cancels in normalisation, but is kept for fidelity).
        lambda: f64,
        /// Slack-bias sharpness β, per GHz of frequency per unit slack.
        beta: f64,
    },
    /// Uniform random exploration — the prior-work baseline \[21\]
    /// (Shen et al., TODAES 2013) that Table II compares against.
    Upd,
}

impl ExplorationKind {
    /// Draws an action index in `0..action_freqs_ghz.len()` given the
    /// average slack ratio `slack` (the `L` of Eq. 2; UPD ignores it).
    ///
    /// EPD selection is allocation-free: the Eq. 2 weights are
    /// recomputed on the fly in two passes (sum, then walk) instead of
    /// being materialised into a vector. The per-weight expression, the
    /// summation order and the walk order are identical to
    /// [`ExplorationKind::weights`] + [`sample_weighted`], so the
    /// selection is bit-for-bit the same while the steady-state
    /// decision epoch stays heap-free.
    pub fn select(&self, action_freqs_ghz: &[f64], slack: f64, rng: &mut dyn RngCore) -> usize {
        let actions = action_freqs_ghz.len();
        let (lambda, beta) = match *self {
            ExplorationKind::Epd { lambda, beta } => (lambda, beta),
            ExplorationKind::Upd => return (rng.next_u64() % actions as u64) as usize,
        };
        let weight_at = |f: f64| lambda * (-beta * f * slack).exp();
        // Pass 1: total + finiteness. Guard against exp() overflow
        // (inf) and underflow (all zero) for extreme |slack|: fall back
        // to the deterministic limit behaviour and pick the extreme
        // action the bias points at.
        let mut any_non_finite = false;
        let mut total = 0.0f64;
        for &f in action_freqs_ghz {
            let w = weight_at(f);
            any_non_finite |= !w.is_finite();
            total += w;
        }
        if any_non_finite || total <= 0.0 {
            return if slack > 0.0 {
                lowest_freq_action(action_freqs_ghz)
            } else {
                highest_freq_action(action_freqs_ghz)
            };
        }
        if !total.is_finite() {
            // Finite weights whose sum overflows: `sample_weighted`'s
            // degenerate-total fallback, preserved bit-for-bit.
            return (rng.next_u64() % actions as u64) as usize;
        }
        // Pass 2: the `sample_weighted` walk over the regenerated
        // weights.
        let mut target = uniform_f64(rng) * total;
        for (i, &f) in action_freqs_ghz.iter().enumerate() {
            let w = weight_at(f);
            if target < w {
                return i;
            }
            target -= w;
        }
        actions - 1 // float round-off: last index
    }

    /// The unnormalised selection weight of each action for slack `l`:
    /// the Eq. 2 weights for EPD, equal weights for UPD.
    #[must_use]
    pub fn weights(&self, action_freqs_ghz: &[f64], l: f64) -> Vec<f64> {
        match *self {
            ExplorationKind::Epd { lambda, beta } => action_freqs_ghz
                .iter()
                .map(|&f| lambda * (-beta * f * l).exp())
                .collect(),
            ExplorationKind::Upd => vec![1.0; action_freqs_ghz.len()],
        }
    }
}

fn lowest_freq_action(freqs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &f) in freqs.iter().enumerate() {
        if f < freqs[best] {
            best = i;
        }
    }
    best
}

fn highest_freq_action(freqs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &f) in freqs.iter().enumerate() {
        if f > freqs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EPD: ExplorationKind = ExplorationKind::Epd {
        lambda: 1.0 / 19.0,
        beta: 2.0,
    };

    fn histogram(
        kind: ExplorationKind,
        freqs: &[f64],
        slack: f64,
        n: usize,
        seed: u64,
    ) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0usize; freqs.len()];
        for _ in 0..n {
            counts[kind.select(freqs, slack, &mut rng)] += 1;
        }
        counts
    }

    #[test]
    fn uniform_spreads_evenly() {
        let f = [0.5, 1.0, 1.5, 2.0];
        let counts = histogram(ExplorationKind::Upd, &f, 0.0, 4000, 11);
        for &c in &counts {
            assert!((800..=1200).contains(&c), "skewed counts {counts:?}");
        }
    }

    #[test]
    fn epd_is_nearly_uniform_at_zero_slack() {
        let f = [0.5, 1.0, 1.5, 2.0];
        let counts = histogram(EPD, &f, 0.0, 4000, 13);
        for &c in &counts {
            assert!((800..=1200).contains(&c), "EPD at L=0 skewed: {counts:?}");
        }
    }

    #[test]
    fn epd_biases_low_freq_when_over_performing() {
        let f = [0.2, 1.0, 2.0];
        let counts = histogram(EPD, &f, 0.5, 3000, 17); // positive slack
        assert!(
            counts[0] > 2 * counts[2],
            "expected strong low-frequency bias, got {counts:?}"
        );
    }

    #[test]
    fn epd_biases_high_freq_when_missing_deadlines() {
        let f = [0.2, 1.0, 2.0];
        let counts = histogram(EPD, &f, -0.5, 3000, 19); // negative slack
        assert!(
            counts[2] > 2 * counts[0],
            "expected strong high-frequency bias, got {counts:?}"
        );
    }

    #[test]
    fn epd_extreme_slack_degrades_gracefully() {
        let f = [0.2, 1.0, 2.0];
        let mut rng = StdRng::seed_from_u64(3);
        let sharp = ExplorationKind::Epd {
            lambda: 1.0,
            beta: 500.0,
        };
        // Huge beta*|L| drives exp() to inf/0; must still return a legal
        // action deterministically.
        assert_eq!(sharp.select(&f, 1e6, &mut rng), 0);
        assert_eq!(sharp.select(&f, -1e6, &mut rng), 2);
    }

    #[test]
    fn epd_weights_match_equation_two() {
        let p = ExplorationKind::Epd {
            lambda: 0.1,
            beta: 2.0,
        };
        let w = p.weights(&[1.0, 2.0], 0.25);
        assert!((w[0] - 0.1 * (-0.5f64).exp()).abs() < 1e-12);
        assert!((w[1] - 0.1 * (-1.0f64).exp()).abs() < 1e-12);
        assert_eq!(ExplorationKind::Upd.weights(&[1.0, 2.0], 0.25), [1.0, 1.0]);
    }

    #[test]
    fn sample_weighted_respects_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[sample_weighted(&[0.0, 1.0, 3.0], &mut rng)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[2] > 2 * counts[1], "{counts:?}");
    }

    #[test]
    fn sample_weighted_all_zero_falls_back_to_uniform() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[sample_weighted(&[0.0, 0.0, 0.0], &mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s), "uniform fallback missing indices");
    }

    #[test]
    fn uniform_f64_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..10_000 {
            let v = uniform_f64(&mut rng);
            assert!((0.0..1.0).contains(&v));
        }
    }
}
