//! The state × action value look-up table.

use crate::RlError;

/// A dense state × action Q-value table.
///
/// The RTM stores its decisions "in a look-up table (referred to as a
/// Q-table)" whose rows are system states (discretised workload × slack
/// levels) and whose columns are the available V-F actions (Section II of
/// the paper). The table size `|S| × |A|` governs the trade-off between
/// learning overhead and achievable energy minimisation, which is why the
/// paper limits both dimensions by discretisation.
///
/// Values are updated with Bellman's optimality equation (Eq. 3):
///
/// ```text
/// Q(sᵢ, aᵢ) ← (1 − α)·Q(sᵢ, aᵢ) + α·[Rᵢ + γ·max_a Q(sᵢ₊₁, a)]
/// ```
///
/// # Examples
///
/// ```
/// use qgov_rl::QTable;
///
/// let mut q = QTable::new(2, 3).unwrap();
/// q.update(0, 2, 1.0, 1, 0.5, 0.9);
/// assert!(q.value(0, 2) > 0.0);
/// assert_eq!(q.greedy_action(0), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QTable {
    states: usize,
    actions: usize,
    values: Vec<f64>,
    /// Each row's greedy action, as [`QTable::scan`] finds it; kept
    /// current by every write, so [`QTable::row_best`] reads no row.
    best: Vec<usize>,
}

impl QTable {
    /// Creates a zero-initialised table with `states` rows and `actions`
    /// columns.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::EmptyDimension`] if either dimension is zero.
    pub fn new(states: usize, actions: usize) -> Result<Self, RlError> {
        RlError::check_nonempty("states", states)?;
        RlError::check_nonempty("actions", actions)?;
        Ok(QTable {
            states,
            actions,
            values: vec![0.0; states * actions],
            best: vec![0; states],
        })
    }

    /// Creates a table whose every row starts with the given per-action
    /// initial values.
    ///
    /// A small bias rising with the action index makes an untouched
    /// state's greedy pick the *highest* (safest) action and crawl
    /// downward through mild over-performance penalties, instead of
    /// crawling upward through deadline misses — the learning-phase
    /// analogue of booting a governor at maximum frequency.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::EmptyDimension`] if either dimension is zero
    /// or `bias.len() != actions`, and [`RlError::NotFinite`] if any
    /// bias value is not finite.
    pub fn with_action_bias(states: usize, actions: usize, bias: &[f64]) -> Result<Self, RlError> {
        if bias.len() != actions {
            return Err(RlError::EmptyDimension {
                name: "bias (must have one entry per action)",
            });
        }
        if bias.iter().any(|b| !b.is_finite()) {
            return Err(RlError::NotFinite { name: "bias" });
        }
        let mut t = Self::new(states, actions)?;
        for s in 0..states {
            t.values[s * actions..(s + 1) * actions].copy_from_slice(bias);
            t.best[s] = t.scan(s);
        }
        Ok(t)
    }

    /// Number of states (rows).
    #[must_use]
    pub fn states(&self) -> usize {
        self.states
    }

    /// Number of actions (columns).
    #[must_use]
    pub fn actions(&self) -> usize {
        self.actions
    }

    /// Total number of state–action pairs, `|S| × |A|` — the table size
    /// the paper says must be "carefully chosen".
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `false` (a Q-table always has at least one cell).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    #[inline]
    fn idx(&self, state: usize, action: usize) -> usize {
        assert!(
            state < self.states,
            "state {state} out of range (states = {})",
            self.states
        );
        assert!(
            action < self.actions,
            "action {action} out of range (actions = {})",
            self.actions
        );
        state * self.actions + action
    }

    /// Hot-path index: range errors are programming errors on the
    /// steady-state path, so the formatted asserts of [`QTable::idx`]
    /// are debug-only here; release builds still bounds-check at the
    /// slice access itself.
    #[inline]
    fn idx_fast(&self, state: usize, action: usize) -> usize {
        debug_assert!(
            state < self.states,
            "state {state} out of range (states = {})",
            self.states
        );
        debug_assert!(
            action < self.actions,
            "action {action} out of range (actions = {})",
            self.actions
        );
        state * self.actions + action
    }

    /// The Q-value of a state–action pair.
    ///
    /// # Panics
    ///
    /// Panics if `state` or `action` is out of range.
    #[must_use]
    pub fn value(&self, state: usize, action: usize) -> f64 {
        self.values[self.idx(state, action)]
    }

    /// The full row of Q-values for a state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[must_use]
    pub fn row(&self, state: usize) -> &[f64] {
        let start = self.idx(state, 0);
        &self.values[start..start + self.actions]
    }

    /// One pass over a state's row for its argmax: the lowest action
    /// index holding the row's maximum.
    fn scan(&self, state: usize) -> usize {
        let start = self.idx_fast(state, 0);
        let row = &self.values[start..start + self.actions];
        let mut best = 0;
        let mut best_v = row[0];
        for (a, &v) in row.iter().enumerate().skip(1) {
            if v > best_v {
                best = a;
                best_v = v;
            }
        }
        best
    }

    /// The argmax action of a state's row and its value — the
    /// `(greedy_action, max_value)` pair every decision epoch needs
    /// (selection wants the argmax, the Bellman update the max).
    /// Ties break towards the lowest action index, which for a
    /// frequency-ordered action space means the lowest (most
    /// energy-frugal) frequency. The argmax is cached per row, so this
    /// reads one value, not the row, and equals a full row scan bit for
    /// bit.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range (a debug-formatted message in
    /// debug builds, the plain slice bounds check in release builds —
    /// this is the hot path).
    #[inline]
    #[must_use]
    pub fn row_best(&self, state: usize) -> (usize, f64) {
        let start = self.idx_fast(state, 0);
        let best = self.best[state];
        (best, self.values[start + best])
    }

    /// The greedy (highest-value) action for a state. Ties break towards
    /// the lowest action index, which for a frequency-ordered action space
    /// means the lowest (most energy-frugal) frequency. The cached
    /// argmax of [`QTable::row_best`].
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[must_use]
    pub fn greedy_action(&self, state: usize) -> usize {
        self.row_best(state).0
    }

    /// The maximum Q-value over all actions of a state — the
    /// `max_a Q(sᵢ₊₁, a)` term of Eq. 3: the value at the cached argmax
    /// of [`QTable::row_best`], whose scan starts from the first entry,
    /// so it is right for rows of any value range — including rows more
    /// negative than the old `f64::MIN` fold seed could have handled.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[must_use]
    pub fn max_value(&self, state: usize) -> f64 {
        self.row_best(state).1
    }

    /// Applies the Bellman update of Eq. 3 to `(state, action)` given the
    /// observed `reward` and the predicted `next_state`.
    ///
    /// `alpha` is the learning rate and `discount` the discount factor γ
    /// "for descaling the current maximum Q-value" of the next state's
    /// row.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range, if `alpha`/`discount` are
    /// outside `[0, 1]`, or if `reward` is not finite.
    pub fn update(
        &mut self,
        state: usize,
        action: usize,
        reward: f64,
        next_state: usize,
        alpha: f64,
        discount: f64,
    ) {
        assert!(
            (0.0..=1.0).contains(&alpha),
            "learning rate alpha must lie in [0, 1], got {alpha}"
        );
        assert!(
            (0.0..=1.0).contains(&discount),
            "discount factor must lie in [0, 1], got {discount}"
        );
        assert!(reward.is_finite(), "reward must be finite, got {reward}");
        // Re-assert the indices eagerly (the fast path defers them to
        // the slice bounds checks) so the checked API keeps its
        // descriptive panic messages.
        let _ = self.idx(state, action);
        let _ = self.idx(next_state, 0);
        let (_, future) = self.row_best(next_state);
        self.update_unchecked(state, action, reward, future, alpha, discount);
    }

    /// The Bellman update without the per-call range/finiteness asserts
    /// of [`QTable::update`] — the steady-state fast path for callers
    /// that validated `alpha`/`discount`/`reward` at construction time
    /// (e.g. [`AgentConfig::validate`](crate::AgentConfig::validate)).
    ///
    /// `future` is the `max_a Q(sᵢ₊₁, a)` term, read before this update
    /// (the `.1` of [`QTable::row_best`] on the next state's row). A
    /// caller that already scanned that row passes its maximum instead
    /// of scanning it again. Numerically bit-identical to
    /// [`QTable::update`] given that maximum.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index (a formatted message in debug
    /// builds, a plain slice bounds check in release). Invalid
    /// `alpha`/`discount`/`reward` are debug-only assertions here.
    #[inline]
    pub fn update_unchecked(
        &mut self,
        state: usize,
        action: usize,
        reward: f64,
        future: f64,
        alpha: f64,
        discount: f64,
    ) {
        debug_assert!(
            (0.0..=1.0).contains(&alpha),
            "learning rate alpha must lie in [0, 1], got {alpha}"
        );
        debug_assert!(
            (0.0..=1.0).contains(&discount),
            "discount factor must lie in [0, 1], got {discount}"
        );
        debug_assert!(reward.is_finite(), "reward must be finite, got {reward}");
        let i = self.idx_fast(state, action);
        let old = self.values[i];
        let new = (1.0 - alpha) * old + alpha * (reward + discount * future);
        self.values[i] = new;
        // Keep the row's cached argmax equal to what a scan finds (the
        // values stay finite, as the rewards, α and γ are): a write to
        // another action takes it when greater, or equal at a lower
        // index; lowering the argmax's own value needs a rescan; any
        // other write leaves it.
        let best = self.best[state];
        if action == best {
            if new < old {
                self.best[state] = self.scan(state);
            }
        } else {
            let lead = self.values[self.idx_fast(state, best)];
            if new > lead || (new == lead && action < best) {
                self.best[state] = action;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_empty_dimensions() {
        assert!(QTable::new(0, 3).is_err());
        assert!(QTable::new(3, 0).is_err());
        assert!(QTable::new(1, 1).is_ok());
    }

    #[test]
    fn update_moves_value_towards_target() {
        let mut q = QTable::new(2, 2).unwrap();
        // Terminal-style update: next state has all-zero row.
        q.update(0, 1, 10.0, 1, 0.5, 0.9);
        assert_eq!(q.value(0, 1), 5.0); // (1-0.5)*0 + 0.5*(10 + 0.9*0)
        q.update(0, 1, 10.0, 1, 0.5, 0.9);
        assert_eq!(q.value(0, 1), 7.5);
    }

    #[test]
    fn update_propagates_future_value() {
        let mut q = QTable::new(2, 2).unwrap();
        q.update(1, 0, 8.0, 1, 1.0, 0.0); // Q(1,0) = 8
        q.update(0, 0, 0.0, 1, 1.0, 0.5); // Q(0,0) = 0 + 0.5*8 = 4
        assert_eq!(q.value(0, 0), 4.0);
    }

    #[test]
    fn greedy_ties_break_low() {
        let q = QTable::new(1, 4).unwrap();
        // All zero: greedy must be action 0 (lowest frequency).
        assert_eq!(q.greedy_action(0), 0);
    }

    #[test]
    fn greedy_finds_max() {
        let mut q = QTable::new(1, 3).unwrap();
        q.update(0, 2, 1.0, 0, 1.0, 0.0);
        q.update(0, 1, 3.0, 0, 1.0, 0.0);
        assert_eq!(q.greedy_action(0), 1);
        assert_eq!(q.max_value(0), q.value(0, 1));
    }

    #[test]
    fn action_bias_seeds_every_row() {
        let q = QTable::with_action_bias(3, 3, &[0.0, 0.01, 0.02]).unwrap();
        for s in 0..3 {
            assert_eq!(q.greedy_action(s), 2, "fresh rows pick the safest action");
            assert_eq!(q.value(s, 1), 0.01);
        }
        assert!(QTable::with_action_bias(2, 3, &[0.0]).is_err());
        assert!(QTable::with_action_bias(2, 2, &[0.0, f64::NAN]).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_state_panics() {
        let q = QTable::new(2, 2).unwrap();
        let _ = q.value(2, 0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_panics() {
        let mut q = QTable::new(1, 1).unwrap();
        q.update(0, 0, 0.0, 0, 1.5, 0.9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_next_state_panics() {
        let mut q = QTable::new(2, 2).unwrap();
        q.update(0, 0, 0.0, 5, 0.5, 0.9);
    }

    #[test]
    fn row_best_fuses_argmax_and_max() {
        let mut q = QTable::new(2, 4).unwrap();
        q.update(1, 2, 7.0, 0, 1.0, 0.0);
        q.update(1, 0, 3.0, 0, 1.0, 0.0);
        assert_eq!(q.row_best(1), (2, 7.0));
        assert_eq!(q.row_best(0), (0, 0.0));
        // Agreement with the two split kernels by construction.
        assert_eq!(q.row_best(1).0, q.greedy_action(1));
        assert_eq!(q.row_best(1).1, q.max_value(1));
    }

    #[test]
    fn row_best_ties_break_low() {
        let q = QTable::with_action_bias(1, 5, &[3.25; 5]).unwrap();
        assert_eq!(q.row_best(0), (0, 3.25));
    }

    #[test]
    fn max_value_is_correct_for_all_negative_rows() {
        // The old fold seeded from f64::MIN, whose identity is wrong
        // for rows at or below it; the argmax scan folds from the
        // first entry, so arbitrarily negative rows report their true
        // maximum.
        let q = QTable::with_action_bias(1, 3, &[-1.0e300; 3]).unwrap();
        assert_eq!(q.max_value(0), -1.0e300);
        assert_eq!(q.greedy_action(0), 0);
        let mut q = QTable::with_action_bias(1, 3, &[f64::MIN; 3]).unwrap();
        assert_eq!(q.max_value(0), f64::MIN);
        // α = 1 and γ = 0 make the update `Q ← r`.
        q.update_unchecked(0, 1, f64::MIN / 2.0, 0.0, 1.0, 0.0);
        assert_eq!(q.max_value(0), f64::MIN / 2.0);
        assert_eq!(q.greedy_action(0), 1);
    }

    #[test]
    fn update_unchecked_matches_checked_update_bit_for_bit() {
        let mut checked = QTable::new(3, 4).unwrap();
        let mut fast = QTable::new(3, 4).unwrap();
        for i in 0..200u64 {
            let s = (i % 3) as usize;
            let a = (i % 4) as usize;
            let next = ((i + 1) % 3) as usize;
            let r = (i as f64).sin() * 5.0;
            checked.update(s, a, r, next, 0.3, 0.5);
            let future = fast.max_value(next);
            fast.update_unchecked(s, a, r, future, 0.3, 0.5);
        }
        assert_eq!(checked, fast);
    }
}
