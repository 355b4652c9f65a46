//! A ready-to-use epoch-driven Q-learning agent.

use crate::{
    ActionContext, ConvergenceTracker, DecayingEpsilon, EpdPolicy, ExplorationPolicy, QTable,
    RlError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The discrete set of actions available to an agent, annotated with the
/// operating frequency of each action (the `F` term of the EPD, Eq. 2).
///
/// Actions must be listed in ascending frequency order so that greedy
/// tie-breaks favour the lowest (most energy-frugal) frequency.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
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

/// Learning hyper-parameters for a [`QLearningAgent`].
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AgentConfig {
    /// Learning rate α of the Bellman update (Eq. 3).
    pub alpha: f64,
    /// Discount factor γ of the Bellman update (Eq. 3).
    pub discount: f64,
    /// The exploration probability schedule (Eq. 6).
    pub epsilon: DecayingEpsilon,
    /// Quiet-window length for convergence detection (epochs).
    pub convergence_window: u64,
    /// Optimistic initial-Q gradient towards the highest action: cell
    /// `(s, a)` starts at `optimistic_gradient · a / (actions − 1)`.
    /// An untouched state then greedily picks the safest (fastest)
    /// action and crawls downward through mild energy penalties instead
    /// of upward through deadline misses. Zero disables the bias.
    pub optimistic_gradient: f64,
}

impl AgentConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if `alpha` or `discount` lies outside `[0, 1]`
    /// or the convergence window is zero.
    pub fn validate(&self) -> Result<(), RlError> {
        RlError::check_probability("alpha", self.alpha)?;
        RlError::check_probability("discount", self.discount)?;
        RlError::check_nonempty("convergence_window", self.convergence_window as usize)?;
        if !(self.optimistic_gradient.is_finite() && self.optimistic_gradient >= 0.0) {
            return Err(RlError::NotPositive {
                name: "optimistic_gradient",
                value: self.optimistic_gradient.to_string(),
            });
        }
        Ok(())
    }
}

impl Default for AgentConfig {
    /// α = 0.3, γ = 0.5, the paper's ε schedule, 20-epoch convergence
    /// window, no optimistic bias.
    fn default() -> Self {
        AgentConfig {
            alpha: 0.3,
            discount: 0.5,
            epsilon: DecayingEpsilon::paper(),
            convergence_window: 20,
            optimistic_gradient: 0.0,
        }
    }
}

/// An epoch-driven Q-learning agent: Q-table + exploration policy +
/// ε schedule + convergence tracking.
///
/// Each call to [`begin_epoch`](QLearningAgent::begin_epoch) performs the
/// three RTM steps of Section II: (1) applies the pay-off computed for
/// the completed interval, (2) updates the Q-table entry of the previous
/// state–action pair, and (3) selects an action for the coming interval
/// given the (predicted) state.
pub struct QLearningAgent {
    q: QTable,
    /// Pristine copy of the initial table (restored on reset, so the
    /// optimistic bias survives a learning restart).
    pristine: QTable,
    actions: ActionSpace,
    alpha: f64,
    discount: f64,
    epsilon: DecayingEpsilon,
    policy: Box<dyn ExplorationPolicy + Send>,
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
            .field("alpha", &self.alpha)
            .field("discount", &self.discount)
            .field("epsilon", &self.epsilon.value())
            .field("policy", &self.policy.name())
            .field("explorations", &self.explorations)
            .field("epochs", &self.tracker.epochs())
            .finish()
    }
}

impl QLearningAgent {
    /// Creates an agent with the paper's EPD exploration policy.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid or `states` is zero (use
    /// [`AgentConfig::validate`] to check fallibly first).
    #[must_use]
    pub fn new(config: AgentConfig, states: usize, actions: ActionSpace, seed: u64) -> Self {
        Self::with_policy(config, states, actions, Box::new(EpdPolicy::paper()), seed)
    }

    /// Creates an agent with an explicit exploration policy (e.g.
    /// [`UniformPolicy`](crate::UniformPolicy) for the Table II
    /// baseline).
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid or `states` is zero.
    #[must_use]
    pub fn with_policy(
        config: AgentConfig,
        states: usize,
        actions: ActionSpace,
        policy: Box<dyn ExplorationPolicy + Send>,
        seed: u64,
    ) -> Self {
        config.validate().expect("invalid agent configuration");
        let q = if config.optimistic_gradient > 0.0 {
            let n = actions.len();
            let bias: Vec<f64> = (0..n)
                .map(|a| {
                    if n == 1 {
                        0.0
                    } else {
                        config.optimistic_gradient * a as f64 / (n - 1) as f64
                    }
                })
                .collect();
            QTable::with_action_bias(states, n, &bias).expect("non-zero dimensions")
        } else {
            QTable::new(states, actions.len()).expect("non-zero dimensions")
        };
        QLearningAgent {
            pristine: q.clone(),
            q,
            actions,
            alpha: config.alpha,
            discount: config.discount,
            epsilon: config.epsilon,
            policy,
            rng: StdRng::seed_from_u64(seed),
            last: None,
            explorations: 0,
            explorations_at_convergence: None,
            // One tolerated flip inside the window keeps the detector
            // robust against isolated stochastic-reward glitches.
            tracker: ConvergenceTracker::with_tolerance(
                config.convergence_window,
                u64::from(config.convergence_window > 1),
            ),
        }
    }

    /// Runs one decision epoch.
    ///
    /// `state` is the (predicted) state for the *coming* interval,
    /// `reward` the pay-off computed for the interval that just ended,
    /// and `slack` the current average slack ratio `L` consulted by
    /// slack-aware exploration policies.
    ///
    /// Returns the selected action for the coming interval.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range or `reward`/`slack` are not
    /// finite.
    pub fn begin_epoch(&mut self, state: usize, reward: f64, slack: f64) -> usize {
        assert!(reward.is_finite(), "reward must be finite, got {reward}");
        // (1) + (2): pay-off and Bellman update for the previous pair.
        // `alpha`/`discount` were validated at construction, so the
        // unchecked fast path applies (one fused row traversal for the
        // future term instead of two index-checked passes).
        if let Some((prev_state, prev_action)) = self.last {
            let (greedy_before, _) = self.q.row_best(prev_state);
            self.q.update_unchecked(
                prev_state,
                prev_action,
                reward,
                state,
                self.alpha,
                self.discount,
            );
            let changed = self.q.row_best(prev_state).0 != greedy_before;
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
        }

        // (3): action selection for the coming interval — the fused
        // argmax scan (re-run after the update above, whose target row
        // may alias `state`).
        let (greedy, _) = self.q.row_best(state);
        let explore = crate::uniform_f64(&mut self.rng) < self.epsilon.value();
        let action = if explore {
            let ctx = ActionContext::new(self.q.row(state), self.actions.freqs_ghz(), slack);
            self.policy.select(&ctx, &mut self.rng)
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

    /// Number of actions.
    #[must_use]
    pub fn action_count(&self) -> usize {
        self.actions.len()
    }

    /// Per-action frequencies in GHz.
    #[must_use]
    pub fn action_freqs_ghz(&self) -> &[f64] {
        self.actions.freqs_ghz()
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

    /// Resets all learning state (table, ε, counters), e.g. on a
    /// performance-requirement change. The optimistic initialisation is
    /// restored, not zeroed.
    pub fn reset(&mut self) {
        self.q = self.pristine.clone();
        self.epsilon.reset();
        self.tracker.reset();
        self.last = None;
        self.explorations = 0;
        self.explorations_at_convergence = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UniformPolicy;

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
        let run = |policy: Box<dyn ExplorationPolicy + Send>| {
            let mut agent =
                QLearningAgent::with_policy(AgentConfig::default(), 1, small_actions(), policy, 3);
            let mut action = agent.begin_epoch(0, 0.0, 0.6);
            for _ in 0..400 {
                // Reward the lowest frequency: with slack 0.6 the system
                // is over-performing, so the cheap action is correct.
                let r = if action == 0 { 1.0 } else { -0.5 };
                action = agent.begin_epoch(0, r, 0.6);
            }
            agent.exploration_count()
        };
        let epd = run(Box::new(EpdPolicy::paper()));
        let upd = run(Box::new(UniformPolicy::new()));
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
    fn reset_restores_pristine_state() {
        let mut agent = QLearningAgent::new(AgentConfig::default(), 1, small_actions(), 1);
        for _ in 0..50 {
            agent.begin_epoch(0, 1.0, 0.0);
        }
        agent.reset();
        assert_eq!(agent.exploration_count(), 0);
        assert_eq!(agent.epochs(), 0);
        assert_eq!(agent.epsilon(), 1.0);
        assert_eq!(agent.q_table().update_count(), 0);
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
        let bad_alpha = AgentConfig {
            alpha: 1.5,
            ..AgentConfig::default()
        };
        assert!(bad_alpha.validate().is_err());
        let bad_discount = AgentConfig {
            discount: -0.1,
            ..AgentConfig::default()
        };
        assert!(bad_discount.validate().is_err());
        let bad_window = AgentConfig {
            convergence_window: 0,
            ..AgentConfig::default()
        };
        assert!(bad_window.validate().is_err());
        let bad_gradient = AgentConfig {
            optimistic_gradient: -1.0,
            ..AgentConfig::default()
        };
        assert!(bad_gradient.validate().is_err());
        assert!(AgentConfig::default().validate().is_ok());
    }
}
