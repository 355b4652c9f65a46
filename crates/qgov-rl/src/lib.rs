//! Model-free reinforcement-learning primitives for run-time management.
//!
//! This crate provides the learning machinery that the RTM of Biswas et
//! al. (DATE 2017) is built from, as small reusable pieces:
//!
//! * [`QTable`] — the dense state × action value table updated by
//!   Bellman's optimality equation (Eq. 3 of the paper);
//! * [`EwmaPredictor`] — the EWMA workload predictor of Eq. 1;
//! * [`UniformDiscretizer`] — maps a continuous measurement onto the N
//!   discrete levels that index the Q-table (the RTM's workload
//!   dimension is binned by `qgov_core::StateMapper` instead, at
//!   N-ths of the pre-characterised range);
//! * [`ExplorationKind`] — the paper's slack-aware discrete Exponential
//!   Probability Distribution (Eq. 2, `Epd`) and the uniform baseline of
//!   prior work (`Upd`);
//! * [`DecayingEpsilon`] — the accelerated exploration → exploitation
//!   transition of Eq. 6;
//! * [`slack_reward`] — the slack-ratio pay-off of Eq. 4;
//! * [`QLearningAgent`] — glue combining all of the above into a
//!   ready-to-use epoch-driven agent, with exploration counting and
//!   convergence detection. Its [`AgentConfig`] holds what experiments
//!   vary, the ε schedule and the exploration rule; α, γ and the
//!   convergence window are the constants [`AgentConfig::ALPHA`],
//!   [`AgentConfig::DISCOUNT`] and [`AgentConfig::CONVERGENCE_WINDOW`].
//!
//! # Example: a tiny agent learning to pick the best action
//!
//! ```
//! use qgov_rl::{ActionSpace, AgentConfig, QLearningAgent};
//!
//! // Three actions with "frequencies" 0.2, 1.0, 2.0 GHz.
//! let actions = ActionSpace::from_freqs_ghz(&[0.2, 1.0, 2.0]);
//! let mut agent = QLearningAgent::new(AgentConfig::default(), 4, actions, 7);
//!
//! // Drive the agent: state 0, reward favouring action 1.
//! let mut last_action = agent.begin_epoch(0, 0.0, 0.0);
//! for _ in 0..200 {
//!     let reward = if last_action == 1 { 1.0 } else { -1.0 };
//!     last_action = agent.begin_epoch(0, reward, 0.0);
//! }
//! assert_eq!(agent.q_table().greedy_action(0), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
mod convergence;
mod discretize;
mod epsilon;
mod error;
mod policy;
mod predictor;
mod qtable;
mod reward;

pub use agent::{ActionSpace, AgentConfig, QLearningAgent};
pub use discretize::UniformDiscretizer;
pub use epsilon::DecayingEpsilon;
pub use error::RlError;
pub use policy::{sample_weighted, uniform_f64, ExplorationKind};
pub use predictor::EwmaPredictor;
pub use qtable::QTable;
pub use reward::{slack_reward, PEAK_REWARD};
