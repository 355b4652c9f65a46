//! A ready-to-use epoch-driven Q-learning agent.

use crate::convergence::ConvergenceTracker;
use crate::{DecayingEpsilon, ExplorationKind, QTable, RlError};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The discrete set of actions available to an agent, annotated with the
/// operating frequency of each action (the `F` term of the EPD, Eq. 2).
///
/// Actions must be listed in ascending frequency order so that greedy
/// tie-breaks favour the lowest (most energy-frugal) frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionSpace {
    freqs_ghz: Vec<f64>,
}

impl ActionSpace {
    /// Creates an action space from per-action frequencies in GHz.
    ///
    /// # Panics
    ///
    /// Panics if `freqs` is empty, contains non-finite or non-positive
    /// values, or is not ascending.
    #[must_use]
    pub fn from_freqs_ghz(freqs: &[f64]) -> Self {
        assert!(!freqs.is_empty(), "action space must be non-empty");
        assert!(
            freqs.iter().all(|f| f.is_finite() && *f > 0.0),
            "action frequencies must be finite and positive"
        );
        assert!(
            freqs.windows(2).all(|w| w[0] < w[1]),
            "action frequencies must be strictly ascending"
        );
        ActionSpace {
            freqs_ghz: freqs.to_vec(),
        }
    }

    /// Number of actions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.freqs_ghz.len()
    }

    /// `false`: an action space always has at least one action.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The per-action frequencies in GHz.
    #[must_use]
    pub fn freqs_ghz(&self) -> &[f64] {
        &self.freqs_ghz
    }
}

/// The learning settings of a [`QLearningAgent`] that experiments vary:
/// the ε schedule and the exploration rule. The settings every
/// experiment shares are constants: [`ALPHA`](AgentConfig::ALPHA),
/// [`DISCOUNT`](AgentConfig::DISCOUNT),
/// [`CONVERGENCE_WINDOW`](AgentConfig::CONVERGENCE_WINDOW) and the
/// optimistic initial-Q gradient of [`QLearningAgent::new`].
#[derive(Debug, Clone, PartialEq)]
pub struct AgentConfig {
    /// The exploration probability schedule (Eq. 6).
    pub epsilon: DecayingEpsilon,
    /// The exploration rule (Eq. 2's EPD by default).
    pub exploration: ExplorationKind,
}

impl AgentConfig {
    /// Learning rate α of the Bellman update (Eq. 3).
    pub const ALPHA: f64 = 0.3;
    /// Discount factor γ of the Bellman update (Eq. 3).
    pub const DISCOUNT: f64 = 0.5;
    /// Quiet-window length for convergence detection (epochs).
    pub const CONVERGENCE_WINDOW: u64 = 20;

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if an EPD `lambda`/`beta` is not positive.
    pub fn validate(&self) -> Result<(), RlError> {
        if let ExplorationKind::Epd { lambda, beta } = self.exploration {
            RlError::check_positive("lambda", lambda)?;
            RlError::check_positive("beta", beta)?;
        }
        Ok(())
    }
}

impl Default for AgentConfig {
    /// The paper's ε schedule and EPD exploration with λ = 1/19 (the
    /// XU3's 19-action space) and β = 2.
    fn default() -> Self {
        AgentConfig {
            epsilon: DecayingEpsilon::paper(),
            exploration: ExplorationKind::Epd {
                lambda: 1.0 / 19.0,
                beta: 2.0,
            },
        }
    }
}

/// Optimistic initial-Q gradient towards the highest action: cell
/// `(s, a)` starts at `OPTIMISTIC_GRADIENT · a / (actions − 1)`. An
/// untouched state then greedily picks the safest (fastest) action and
/// crawls downward through mild energy penalties instead of upward
/// through deadline misses — the learning analogue of booting a
/// governor at maximum frequency.
const OPTIMISTIC_GRADIENT: f64 = 0.05;

/// An epoch-driven Q-learning agent: Q-table + exploration rule +
/// ε schedule + convergence tracking.
///
/// Each call to [`begin_epoch`](QLearningAgent::begin_epoch) performs the
/// three RTM steps of Section II: (1) applies the pay-off computed for
/// the completed interval, (2) updates the Q-table entry of the previous
/// state–action pair, and (3) selects an action for the coming interval
/// given the (predicted) state.
pub struct QLearningAgent {
    q: QTable,
    actions: ActionSpace,
    epsilon: DecayingEpsilon,
    exploration: ExplorationKind,
    rng: StdRng,
    last: Option<(usize, usize)>,
    explorations: u64,
    explorations_at_convergence: Option<u64>,
    tracker: ConvergenceTracker,
}

impl core::fmt::Debug for QLearningAgent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("QLearningAgent")
            .field("states", &self.q.states())
            .field("actions", &self.q.actions())
            .field("epsilon", &self.epsilon.value())
            .field("exploration", &self.exploration)
            .field("explorations", &self.explorations)
            .field("epochs", &self.tracker.epochs())
            .finish()
    }
}

impl QLearningAgent {
    /// Creates an agent exploring by `config.exploration`. Every Q-table
    /// row starts with a small optimistic bias rising towards the
    /// highest (safest) action.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid or `states` is zero (use
    /// [`AgentConfig::validate`] to check fallibly first).
    #[must_use]
    pub fn new(config: AgentConfig, states: usize, actions: ActionSpace, seed: u64) -> Self {
        config.validate().expect("invalid agent configuration");
        let n = actions.len();
        let bias: Vec<f64> = (0..n)
            .map(|a| {
                if n == 1 {
                    0.0
                } else {
                    OPTIMISTIC_GRADIENT * a as f64 / (n - 1) as f64
                }
            })
            .collect();
        QLearningAgent {
            q: QTable::with_action_bias(states, n, &bias).expect("non-zero dimensions"),
            actions,
            epsilon: config.epsilon,
            exploration: config.exploration,
            rng: StdRng::seed_from_u64(seed),
            last: None,
            explorations: 0,
            explorations_at_convergence: None,
            // One tolerated flip inside the window keeps the detector
            // robust against isolated stochastic-reward glitches.
            tracker: ConvergenceTracker::with_tolerance(AgentConfig::CONVERGENCE_WINDOW, 1),
        }
    }

    /// Runs one decision epoch.
    ///
    /// `state` is the (predicted) state for the *coming* interval,
    /// `reward` the pay-off computed for the interval that just ended,
    /// and `slack` the current average slack ratio `L` consulted by
    /// EPD exploration.
    ///
    /// Returns the selected action for the coming interval.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range or `reward`/`slack` are not
    /// finite.
    pub fn begin_epoch(&mut self, state: usize, reward: f64, slack: f64) -> usize {
        assert!(reward.is_finite(), "reward must be finite, got {reward}");
        assert!(slack.is_finite(), "slack must be finite, got {slack}");
        // (1) + (2): pay-off and Bellman update for the previous pair.
        // α and γ are valid constants, so the unchecked fast path
        // applies. The update writes only the previous state's row, so
        // its greedy pair is read before and after it; when the state
        // moves, the coming state's pair gives both the future term and
        // the selection.
        let greedy = if let Some((prev_state, prev_action)) = self.last {
            let (greedy_before, max_before) = self.q.row_best(prev_state);
            let next = (state != prev_state).then(|| self.q.row_best(state));
            let future = next.map_or(max_before, |(_, max)| max);
            self.q.update_unchecked(
                prev_state,
                prev_action,
                reward,
                future,
                AgentConfig::ALPHA,
                AgentConfig::DISCOUNT,
            );
            let (greedy_after, _) = self.q.row_best(prev_state);
            let changed = greedy_after != greedy_before;
            // A quiet greedy policy during the exploration phase is not
            // convergence — early on, updates have not yet differentiated
            // the actions, so the greedy choice sits still for trivial
            // reasons. Only a quiet window *after* ε has decayed to its
            // exploitation floor counts (this is also what freezes the
            // Table II exploration count at a meaningful moment).
            let settled = self.epsilon.is_exploitation();
            self.tracker.record_epoch(changed || !settled);
            if self.explorations_at_convergence.is_none() && self.tracker.converged_at().is_some() {
                self.explorations_at_convergence = Some(self.explorations);
            }
            next.map_or(greedy_after, |(greedy, _)| greedy)
        } else {
            self.q.row_best(state).0
        };

        // (3): action selection for the coming interval.
        let explore = crate::uniform_f64(&mut self.rng) < self.epsilon.value();
        let action = if explore {
            self.exploration
                .select(self.actions.freqs_ghz(), slack, &mut self.rng)
        } else {
            greedy
        };
        if explore && action != greedy {
            self.explorations += 1;
        }
        self.epsilon.step();
        self.last = Some((state, action));
        action
    }

    /// The underlying Q-table.
    #[must_use]
    pub fn q_table(&self) -> &QTable {
        &self.q
    }

    /// Total number of exploratory (non-greedy) selections so far.
    #[must_use]
    pub fn exploration_count(&self) -> u64 {
        self.explorations
    }

    /// The exploration count frozen at the moment of first convergence —
    /// the quantity Table II reports. `None` until converged.
    #[must_use]
    pub fn explorations_to_convergence(&self) -> Option<u64> {
        self.explorations_at_convergence
    }

    /// Epochs elapsed.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.tracker.epochs()
    }

    /// First convergence epoch, if reached (Table III's learning
    /// overhead measure).
    #[must_use]
    pub fn converged_at(&self) -> Option<u64> {
        self.tracker.converged_at()
    }

    /// Current exploration probability ε.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon.value()
    }

    /// `true` once ε has decayed to its floor (the paper's exploitation
    /// phase).
    #[must_use]
    pub fn is_exploitation(&self) -> bool {
        self.epsilon.is_exploitation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_actions() -> ActionSpace {
        ActionSpace::from_freqs_ghz(&[0.2, 1.0, 2.0])
    }

    /// A bandit where action 1 pays 1 and everything else pays -1 must be
    /// learnt quickly.
    #[test]
    fn learns_a_simple_bandit() {
        let mut agent = QLearningAgent::new(AgentConfig::default(), 1, small_actions(), 42);
        let mut action = agent.begin_epoch(0, 0.0, 0.0);
        for _ in 0..300 {
            let r = if action == 1 { 1.0 } else { -1.0 };
            action = agent.begin_epoch(0, r, 0.0);
        }
        assert_eq!(agent.q_table().greedy_action(0), 1);
        assert!(agent.is_exploitation());
    }

    #[test]
    fn exploration_count_grows_then_freezes_at_convergence() {
        let mut agent = QLearningAgent::new(AgentConfig::default(), 2, small_actions(), 7);
        let mut action = agent.begin_epoch(0, 0.0, 0.0);
        for i in 0..500 {
            let state = i % 2;
            let r = if action == 1 { 1.0 } else { -1.0 };
            action = agent.begin_epoch(state, r, 0.0);
        }
        let frozen = agent.explorations_to_convergence();
        assert!(frozen.is_some(), "agent should converge on a trivial task");
        assert!(frozen.unwrap() <= agent.exploration_count());
        assert!(agent.converged_at().is_some());
    }

    #[test]
    fn uniform_policy_explores_more_than_epd_under_slack_bias() {
        // With persistent positive slack the EPD concentrates on the
        // low-frequency action; UPD keeps bouncing across all three.
        let run = |exploration| {
            let config = AgentConfig {
                exploration,
                ..AgentConfig::default()
            };
            let mut agent = QLearningAgent::new(config, 1, small_actions(), 3);
            let mut action = agent.begin_epoch(0, 0.0, 0.6);
            for _ in 0..400 {
                // Reward the lowest frequency: with slack 0.6 the system
                // is over-performing, so the cheap action is correct.
                let r = if action == 0 { 1.0 } else { -0.5 };
                action = agent.begin_epoch(0, r, 0.6);
            }
            agent.exploration_count()
        };
        let epd = run(AgentConfig::default().exploration);
        let upd = run(ExplorationKind::Upd);
        assert!(
            epd < upd,
            "EPD should explore less than UPD (epd = {epd}, upd = {upd})"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut agent = QLearningAgent::new(AgentConfig::default(), 2, small_actions(), seed);
            let mut trace = Vec::new();
            let mut action = agent.begin_epoch(0, 0.0, 0.0);
            for i in 0..100 {
                trace.push(action);
                let r = if action == 2 { 1.0 } else { 0.0 };
                action = agent.begin_epoch(i % 2, r, 0.1);
            }
            trace
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds should diverge");
    }

    #[test]
    #[should_panic(expected = "slack must be finite")]
    fn non_finite_slack_panics_on_a_greedy_epoch() {
        // ε = 0: the agent never explores, so only the up-front check
        // can see the slack.
        let config = AgentConfig {
            epsilon: DecayingEpsilon::new(0.0, 1.0, 0.0).unwrap(),
            ..AgentConfig::default()
        };
        let mut agent = QLearningAgent::new(config, 1, small_actions(), 5);
        agent.begin_epoch(0, 0.0, f64::NAN);
    }

    #[test]
    fn action_space_validation() {
        // Not ascending.
        let r = std::panic::catch_unwind(|| ActionSpace::from_freqs_ghz(&[1.0, 0.5]));
        assert!(r.is_err());
        // Negative frequency.
        let r = std::panic::catch_unwind(|| ActionSpace::from_freqs_ghz(&[-1.0, 0.5]));
        assert!(r.is_err());
        // Empty.
        let r = std::panic::catch_unwind(|| ActionSpace::from_freqs_ghz(&[]));
        assert!(r.is_err());
    }

    #[test]
    fn config_validation() {
        let bad_lambda = AgentConfig {
            exploration: ExplorationKind::Epd {
                lambda: 0.0,
                beta: 2.0,
            },
            ..AgentConfig::default()
        };
        assert!(bad_lambda.validate().is_err());
        assert!(AgentConfig::default().validate().is_ok());
    }
}
