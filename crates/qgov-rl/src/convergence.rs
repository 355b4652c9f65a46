//! Detection of the exploration → exploitation hand-over.
//!
//! The paper's Tables II and III count "explorations" and "learning
//! overhead in decision epochs", both of which require a concrete notion
//! of *when learning has converged*. We use greedy-policy stability: the
//! learnt policy is converged once the greedy action of every visited
//! state has stopped changing for a configurable window of epochs.

/// Tracks greedy-policy stability over decision epochs.
///
/// Feed one [`record_epoch`](ConvergenceTracker::record_epoch) per
/// decision epoch, passing whether that epoch's Bellman update changed
/// any greedy action. The tracker reports convergence once at most
/// `tolerance` changes fall inside the trailing `window` epochs, and
/// remembers the first epoch at which that happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ConvergenceTracker {
    window: u64,
    /// Changes tolerated inside the window before it counts as unstable.
    tolerance: u64,
    epochs: u64,
    /// Epochs (1-based) at which the policy changed, oldest first;
    /// pruned to the window.
    recent_changes: std::collections::VecDeque<u64>,
    converged_at: Option<u64>,
}

impl ConvergenceTracker {
    /// Creates a tracker that calls the policy converged once at most
    /// `tolerance` changes occurred within the trailing `window` epochs
    /// — robust against isolated late flips from stochastic rewards.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `tolerance >= window`.
    #[must_use]
    pub(crate) fn with_tolerance(window: u64, tolerance: u64) -> Self {
        assert!(window > 0, "convergence window must be non-zero");
        assert!(
            tolerance < window,
            "tolerance must be below the window length"
        );
        ConvergenceTracker {
            window,
            tolerance,
            epochs: 0,
            recent_changes: std::collections::VecDeque::new(),
            converged_at: None,
        }
    }

    /// Records one decision epoch; `policy_changed` signals that the
    /// epoch's update altered some state's greedy action.
    pub(crate) fn record_epoch(&mut self, policy_changed: bool) {
        self.epochs += 1;
        if policy_changed {
            self.recent_changes.push_back(self.epochs);
        }
        while let Some(&front) = self.recent_changes.front() {
            if self.epochs - front >= self.window {
                self.recent_changes.pop_front();
            } else {
                break;
            }
        }
        if self.converged_at.is_none()
            && self.epochs >= self.window
            && self.recent_changes.len() as u64 <= self.tolerance
        {
            self.converged_at = Some(self.epochs);
        }
    }

    /// The first epoch (1-based) at which convergence was reached, if
    /// ever. Sticky: later policy changes do not erase it, mirroring the
    /// paper's one-shot exploration phase measurement.
    #[must_use]
    pub(crate) fn converged_at(&self) -> Option<u64> {
        self.converged_at
    }

    /// Number of epochs recorded so far.
    #[must_use]
    pub(crate) fn epochs(&self) -> u64 {
        self.epochs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strict(window: u64) -> ConvergenceTracker {
        ConvergenceTracker::with_tolerance(window, 0)
    }

    #[test]
    fn converges_after_quiet_window() {
        let mut t = strict(5);
        for _ in 0..4 {
            t.record_epoch(false);
        }
        assert_eq!(t.converged_at(), None);
        t.record_epoch(false);
        assert_eq!(t.converged_at(), Some(5));
    }

    #[test]
    fn change_resets_the_window() {
        let mut t = strict(3);
        t.record_epoch(false);
        t.record_epoch(false);
        t.record_epoch(true); // reset just before the window closed
        t.record_epoch(false);
        t.record_epoch(false);
        assert_eq!(t.converged_at(), None);
        t.record_epoch(false);
        assert_eq!(t.converged_at(), Some(6));
    }

    #[test]
    fn converged_at_is_sticky() {
        let mut t = strict(2);
        t.record_epoch(false);
        t.record_epoch(false);
        assert_eq!(t.converged_at(), Some(2));
        t.record_epoch(true); // diverges again
        assert_eq!(t.converged_at(), Some(2), "first convergence is remembered");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_panics() {
        let _ = strict(0);
    }

    #[test]
    fn permanently_changing_policy_never_converges() {
        let mut t = strict(3);
        for _ in 0..100 {
            t.record_epoch(true);
        }
        assert_eq!(t.converged_at(), None);
    }
}
