//! The average slack ratio `L` — Eq. 5 of the paper.
//!
//! ```text
//! Lᵢ = 1/(D·T_ref) · Σₜ₌₀ⁿ (T_ref − Tᵢ − T_OVH)
//! ```
//!
//! `T_ref` is the reference (deadline) execution time, `Tᵢ` the task's
//! execution time, `T_OVH` the learning/DVFS overheads, and `D` the
//! number of elapsed decision epochs "since the start of the application
//! with a given T_ref". Equivalently, `L` is the running mean of
//! per-frame slack ratios `(T_ref − Tᵢ − T_OVH)/T_ref`.

use std::collections::VecDeque;

/// Tracks the average slack ratio `L` (the slack dimension of the
/// Q-table state and the EPD's bias) over the last `window` epochs.
///
/// An average over *all* epochs since the start responds ever more
/// slowly as `D` grows; the paper's own evaluation restarts `D`
/// whenever `T_ref` changes, which bounds `D` in the same spirit as
/// the sliding window used here.
///
/// # Examples
///
/// ```
/// use qgov_governors::SlackTracker;
///
/// let mut l = SlackTracker::new(2);
/// l.observe(0.5);
/// l.observe(-0.1);
/// assert!((l.average() - 0.2).abs() < 1e-12);
/// l.observe(-0.1); // the 0.5 epoch leaves the window
/// assert!((l.average() - -0.1).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SlackTracker {
    window: usize,
    history: VecDeque<f64>,
    sum: f64,
    average: f64,
}

impl SlackTracker {
    /// A sliding-window tracker over the last `window` epochs.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "slack window must be non-zero");
        SlackTracker {
            window,
            // `observe` pushes before it pops, so the deque transiently
            // holds window + 1 entries; reserving that up front keeps
            // the steady-state path allocation-free.
            history: VecDeque::with_capacity(window + 1),
            sum: 0.0,
            average: 0.0,
        }
    }

    /// Feeds one epoch's slack ratio `(T_ref − Tᵢ − T_OVH)/T_ref`.
    ///
    /// # Panics
    ///
    /// Panics if `frame_slack` is not finite.
    pub fn observe(&mut self, frame_slack: f64) {
        assert!(frame_slack.is_finite(), "slack must be finite");
        self.history.push_back(frame_slack);
        self.sum += frame_slack;
        if self.history.len() > self.window {
            self.sum -= self.history.pop_front().expect("non-empty");
        }
        self.average = self.sum / self.history.len() as f64;
    }

    /// The current average slack ratio `Lᵢ` (zero before any
    /// observation).
    #[must_use]
    pub fn average(&self) -> f64 {
        self.average
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_is_the_running_mean_until_the_window_fills() {
        let mut l = SlackTracker::new(8);
        let xs = [0.2, -0.4, 0.6, 0.0];
        let mut sum = 0.0;
        for (i, &x) in xs.iter().enumerate() {
            l.observe(x);
            sum += x;
            assert!((l.average() - sum / (i + 1) as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn windowed_forgets_old_epochs() {
        let mut l = SlackTracker::new(2);
        l.observe(1.0);
        l.observe(0.0);
        l.observe(0.0);
        assert_eq!(l.average(), 0.0, "the 1.0 epoch left the window");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_panics() {
        let _ = SlackTracker::new(0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_slack_panics() {
        let mut l = SlackTracker::new(4);
        l.observe(f64::NAN);
    }
}
