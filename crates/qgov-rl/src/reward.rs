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
//! paper attributes to the ondemand governor in Table I. [`slack_reward`]
//! therefore applies Eq. 4 with regime-dependent signs for `a` (the
//! literal single-sign reading, maximised by ever more slack, converges
//! to maximum frequency).

/// Eq. 4's violation gain `a`.
const A: f64 = 10.0;
/// Eq. 4's improvement gain `b`.
const B: f64 = 2.0;
/// The fraction of `a` applied to positive slack. Deadline misses are
/// penalised 2.5× harder than equal over-performance, matching the
/// paper's observation that its governor settles just on the
/// over-performing side of the deadline (normalised performance 0.96 in
/// Table I).
const OVER_WEIGHT: f64 = 0.4;
/// The fixed penalty for a deadline miss itself.
const MISS_PENALTY: f64 = 2.0;

/// The pay-off at exactly-zero steady slack. A *positive* optimum
/// ensures tried-and-good actions dominate never-tried ones (whose
/// Q-value is their initialisation) during exploitation.
pub const PEAK_REWARD: f64 = 1.0;

/// The paper's slack pay-off (Eq. 4) for observing slack ratio `slack`
/// (`Lᵢ`) after the previous epoch's `prev_slack` (`Lᵢ₋₁`), with the
/// constants' signs resolved per regime so that *meeting the deadline
/// exactly* is the maximum, [`PEAK_REWARD`]:
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
/// The constants are `a = 10`, `b = 2`, `w_over = 0.4` and `miss = 2`.
/// The fixed miss penalty keeps a marginal miss (slack −0.001) strictly
/// worse than one discrete OPP step of over-performance — without it a
/// Q-learner parks just on the wrong side of the deadline.
///
/// # Panics
///
/// Panics if either slack is not finite.
///
/// # Examples
///
/// ```
/// use qgov_rl::{slack_reward, PEAK_REWARD};
///
/// // Meeting the deadline exactly is the best outcome.
/// assert_eq!(slack_reward(0.0, 0.0), PEAK_REWARD);
/// assert!(slack_reward(0.0, 0.0) > slack_reward(-0.3, 0.0));
/// assert!(slack_reward(0.0, 0.0) > slack_reward(0.5, 0.0));
/// // Deadline misses hurt more than the same amount of over-performance.
/// assert!(slack_reward(-0.2, 0.0) < slack_reward(0.2, 0.0));
/// ```
#[must_use]
pub fn slack_reward(slack: f64, prev_slack: f64) -> f64 {
    assert!(
        slack.is_finite() && prev_slack.is_finite(),
        "slack values must be finite"
    );
    let level = if slack < 0.0 {
        // Any miss is a discrete failure plus a depth penalty.
        -MISS_PENALTY + A * slack
    } else {
        -A * OVER_WEIGHT * slack // headroom wastes energy
    };
    let improvement = B * (prev_slack.abs() - slack.abs());
    PEAK_REWARD + level + improvement
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_slack_is_the_peak() {
        let peak = slack_reward(0.0, 0.0);
        for l in [-0.5, -0.1, 0.1, 0.5, 1.0] {
            assert!(slack_reward(l, l) < peak, "L = {l} should score below peak");
        }
    }

    #[test]
    fn peak_reward_is_positive() {
        // A positive optimum keeps tried-and-good actions above the
        // initial Q-values of never-tried actions.
        let peak = slack_reward(0.0, 0.0);
        assert_eq!(peak, PEAK_REWARD);
        assert!(peak > 0.0);
    }

    #[test]
    fn misses_hurt_more_than_overperformance() {
        assert!(slack_reward(-0.3, 0.0) < slack_reward(0.3, 0.0));
    }

    #[test]
    fn improvement_term_rewards_motion_towards_zero() {
        // Same final slack, but one epoch arrived from further away.
        assert!(slack_reward(0.1, 0.6) > slack_reward(0.1, 0.1));
        assert!(slack_reward(-0.1, -0.6) > slack_reward(-0.1, -0.1));
        // Moving away from zero is penalised.
        assert!(slack_reward(0.4, 0.1) < slack_reward(0.4, 0.4));
    }

    #[test]
    fn reward_is_monotone_in_violation_depth() {
        assert!(slack_reward(-0.1, 0.0) > slack_reward(-0.2, 0.0));
        assert!(slack_reward(-0.2, 0.0) > slack_reward(-0.4, 0.0));
    }
}
