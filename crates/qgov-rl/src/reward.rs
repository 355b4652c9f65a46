//! The pay-off (reward) function.
//!
//! Eq. 4 of the paper computes the immediate pay-off at decision epoch
//! `tᵢ` from the resulting average slack ratio `Lᵢ` and its change since
//! the previous epoch:
//!
//! ```text
//! Rᵢ = a·Lᵢ + b·ΔL
//! ```
//!
//! "where a and b are predetermined constants to ensure actions improving
//! Lᵢ values are rewarded or vice-versa". *Improving* means driving the
//! slack towards zero from either side: negative slack is a deadline
//! violation (users see dropped frames), while large positive slack is
//! over-performance that wastes energy — exactly the failure mode the
//! paper attributes to the ondemand governor in Table I. [`SlackReward`]
//! therefore applies Eq. 4 with regime-dependent signs for `a` (the
//! literal single-sign reading, maximised by ever more slack, converges
//! to maximum frequency).

use crate::RlError;

/// The paper's slack pay-off (Eq. 4) with the constants' signs resolved
/// per regime so that *meeting the deadline exactly* is the maximum:
///
/// * `L < 0` (under-performance, deadline misses): `R = −miss − a·|L|`
///   — a fixed penalty for the miss itself (a dropped frame is a
///   discrete failure: "most video decoders drop frames, which miss
///   deadlines, resulting in a glitch", Section III-B) plus a penalty
///   proportional to the violation depth;
/// * `L ≥ 0` (over-performance): `R = −a·w_over·L` — a milder penalty
///   proportional to the wasted headroom (which costs energy);
/// * both regimes add `b·(|Lᵢ₋₁| − |Lᵢ|)`, rewarding epochs that moved
///   the slack towards zero (the `ΔL` term).
///
/// The fixed miss penalty keeps a marginal miss (slack −0.001) strictly
/// worse than one discrete OPP step of over-performance — without it a
/// Q-learner parks just on the wrong side of the deadline.
///
/// # Examples
///
/// ```
/// use qgov_rl::SlackReward;
///
/// let r = SlackReward::paper();
/// // Meeting the deadline exactly is the best outcome.
/// assert!(r.reward(0.0, 0.0) > r.reward(-0.3, 0.0));
/// assert!(r.reward(0.0, 0.0) > r.reward(0.5, 0.0));
/// // Deadline misses hurt more than the same amount of over-performance.
/// assert!(r.reward(-0.2, 0.0) < r.reward(0.2, 0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SlackReward {
    a: f64,
    b: f64,
    over_weight: f64,
    peak: f64,
    miss_penalty: f64,
}

impl SlackReward {
    /// Creates a slack reward with violation gain `a`, improvement gain
    /// `b` and over-performance weight `over_weight` (the fraction of `a`
    /// applied to positive slack). The reward at exactly-zero slack is
    /// `peak()` (default 1): a *positive* optimum ensures tried-and-good
    /// actions dominate never-tried ones (whose Q-value is the
    /// zero-initialisation) during exploitation.
    ///
    /// # Errors
    ///
    /// Returns an error unless `a` and `b` are finite and positive and
    /// `over_weight` lies in `(0, 1]`.
    pub fn new(a: f64, b: f64, over_weight: f64) -> Result<Self, RlError> {
        RlError::check_positive("a", a)?;
        RlError::check_positive("b", b)?;
        RlError::check_positive("over_weight", over_weight)?;
        RlError::check_probability("over_weight", over_weight)?;
        Ok(SlackReward {
            a,
            b,
            over_weight,
            peak: 1.0,
            miss_penalty: 2.0,
        })
    }

    /// The constants used throughout our reproduction: `a = 10`,
    /// `b = 2`, `over_weight = 0.4`. Deadline misses are penalised 2.5×
    /// harder than equal over-performance, matching the paper's
    /// observation that its governor settles just on the over-performing
    /// side of the deadline (normalised performance 0.96 in Table I).
    #[must_use]
    pub fn paper() -> Self {
        Self::new(10.0, 2.0, 0.4).expect("paper constants are valid")
    }

    /// The reward attained at exactly-zero steady slack.
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// The pay-off for observing slack ratio `slack` (`Lᵢ`) after the
    /// previous epoch's `prev_slack` (`Lᵢ₋₁`).
    ///
    /// # Panics
    ///
    /// Panics if either slack is not finite.
    #[must_use]
    pub fn reward(&self, slack: f64, prev_slack: f64) -> f64 {
        assert!(
            slack.is_finite() && prev_slack.is_finite(),
            "slack values must be finite"
        );
        let level = if slack < 0.0 {
            // Any miss is a discrete failure plus a depth penalty.
            -self.miss_penalty + self.a * slack
        } else {
            -self.a * self.over_weight * slack // headroom wastes energy
        };
        let improvement = self.b * (prev_slack.abs() - slack.abs());
        self.peak + level + improvement
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_slack_is_the_peak() {
        let r = SlackReward::paper();
        let peak = r.reward(0.0, 0.0);
        for l in [-0.5, -0.1, 0.1, 0.5, 1.0] {
            assert!(r.reward(l, l) < peak, "L = {l} should score below peak");
        }
    }

    #[test]
    fn peak_reward_is_positive() {
        // A positive optimum keeps tried-and-good actions above the
        // zero-initialised Q-values of never-tried actions.
        let r = SlackReward::paper();
        assert_eq!(r.reward(0.0, 0.0), r.peak());
        assert!(r.peak() > 0.0);
    }

    #[test]
    fn misses_hurt_more_than_overperformance() {
        let r = SlackReward::paper();
        assert!(r.reward(-0.3, 0.0) < r.reward(0.3, 0.0));
    }

    #[test]
    fn improvement_term_rewards_motion_towards_zero() {
        let r = SlackReward::paper();
        // Same final slack, but one epoch arrived from further away.
        assert!(r.reward(0.1, 0.6) > r.reward(0.1, 0.1));
        assert!(r.reward(-0.1, -0.6) > r.reward(-0.1, -0.1));
        // Moving away from zero is penalised.
        assert!(r.reward(0.4, 0.1) < r.reward(0.4, 0.4));
    }

    #[test]
    fn reward_is_monotone_in_violation_depth() {
        let r = SlackReward::paper();
        assert!(r.reward(-0.1, 0.0) > r.reward(-0.2, 0.0));
        assert!(r.reward(-0.2, 0.0) > r.reward(-0.4, 0.0));
    }

    #[test]
    fn constructors_validate() {
        assert!(SlackReward::new(0.0, 1.0, 0.5).is_err());
        assert!(SlackReward::new(1.0, -1.0, 0.5).is_err());
        assert!(SlackReward::new(1.0, 1.0, 0.0).is_err());
        assert!(SlackReward::new(1.0, 1.0, 1.5).is_err());
    }
}
