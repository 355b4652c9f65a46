//! The "multi-core DVFS control" baseline — reference \[20\] of the
//! paper (Ge & Qiu, DAC 2011).
//!
//! Ge & Qiu manage each core with an *independent* Q-learning agent and
//! plain uniform exploration; there is no cross-core learning transfer
//! and no slack-aware exploration bias. The paper's comparison keeps the
//! scheme's thermal constraint disabled ("the thermal constraint was
//! neglected for equivalence of comparison", Section III-A). Two
//! consequences the paper measures:
//!
//! * **Table I** — it "over-performs due to poor adaptation to
//!   variations" (normalised performance 0.89, energy 1.20): each
//!   per-core agent learns against rewards corrupted by its siblings'
//!   choices (on a shared rail the fastest request wins), so agents
//!   hedge towards higher frequencies;
//! * **Table III** — convergence takes roughly twice as many decision
//!   epochs (205 vs 105), because every core must learn its own table
//!   from scratch.

use crate::{EpochObservation, Governor, GovernorContext, SlackTracker, VfDecision};
use qgov_rl::{
    slack_reward, ActionSpace, AgentConfig, DecayingEpsilon, ExplorationKind, QLearningAgent,
    UniformDiscretizer,
};
use qgov_units::SimTime;

/// Discretisation levels of each core's utilisation state.
const UTIL_LEVELS: usize = 8;

/// Epochs in the sliding window of the average slack ratio `L`.
const SLACK_WINDOW: usize = 10;

/// The per-core learner: uniform exploration on a standard ε schedule,
/// slower than the RTM's accelerated Eq. 6 decay. Every agent starts
/// with an optimistic gradient towards high frequencies, matching the
/// scheme's performance-first boot.
fn agent_config() -> AgentConfig {
    AgentConfig {
        epsilon: DecayingEpsilon::new(1.0, 0.02, 0.01).expect("valid schedule"),
        exploration: ExplorationKind::Upd,
    }
}

/// Per-core independent Q-learning DVFS control.
///
/// # Examples
///
/// ```
/// use qgov_governors::{GeQiuGovernor, Governor, GovernorContext};
/// use qgov_sim::OppTable;
/// use qgov_units::SimTime;
///
/// let mut gov = GeQiuGovernor::new(1);
/// let ctx = GovernorContext::new(OppTable::odroid_xu3_a15(), 4, SimTime::from_ms(40));
/// gov.init(&ctx);
/// assert_eq!(gov.name(), "geqiu");
/// ```
#[derive(Debug)]
pub struct GeQiuGovernor {
    /// RNG seed (each core derives its own stream).
    seed: u64,
    agents: Vec<QLearningAgent>,
    util_levels: Option<UniformDiscretizer>,
    slack: SlackTracker,
    last_frame_slack: f64,
    actions: usize,
}

impl GeQiuGovernor {
    /// Creates the governor (agents are built in
    /// [`init`](Governor::init), when the core count and action space
    /// are known). Core `c` explores on its own stream derived from
    /// `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        GeQiuGovernor {
            seed,
            agents: Vec::new(),
            util_levels: None,
            slack: SlackTracker::new(SLACK_WINDOW),
            last_frame_slack: 0.0,
            actions: 0,
        }
    }

    /// First epoch at which *all* per-core agents had converged, if they
    /// all have — the paper's Table III learning-overhead measure.
    #[must_use]
    pub fn converged_at(&self) -> Option<u64> {
        self.agents
            .iter()
            .map(QLearningAgent::converged_at)
            .collect::<Option<Vec<_>>>()
            .map(|v| v.into_iter().max().unwrap_or(0))
    }

    /// Total exploratory selections across all cores.
    #[must_use]
    pub fn exploration_count(&self) -> u64 {
        self.agents
            .iter()
            .map(QLearningAgent::exploration_count)
            .sum()
    }

    /// Length of the exploration phase in decision epochs (how long the
    /// ε schedule takes to reach its floor) — the period during which
    /// every epoch pays the full learning overhead.
    #[must_use]
    pub fn exploration_phase_epochs(&self) -> u64 {
        agent_config().epsilon.epochs_to_floor()
    }
}

impl Governor for GeQiuGovernor {
    fn name(&self) -> &str {
        "geqiu"
    }

    fn init(&mut self, ctx: &GovernorContext) -> VfDecision {
        let freqs = ctx.opp_table().freqs_ghz();
        self.actions = freqs.len();
        let action_space = ActionSpace::from_freqs_ghz(&freqs);
        let agent = agent_config();
        self.agents = (0..ctx.cores())
            .map(|core| {
                QLearningAgent::new(
                    agent.clone(),
                    UTIL_LEVELS,
                    action_space.clone(),
                    self.seed
                        .wrapping_add(core as u64)
                        .wrapping_mul(0x9E37_79B9),
                )
            })
            .collect();
        self.util_levels = Some(
            UniformDiscretizer::new(0.0, 1.0 + 1e-9, UTIL_LEVELS).expect("valid utilisation range"),
        );
        self.slack = SlackTracker::new(SLACK_WINDOW);
        self.last_frame_slack = 0.0;
        // Performance-first initialisation: start at the top.
        VfDecision::Cluster(ctx.opp_table().max_index())
    }

    fn decide(&mut self, obs: &EpochObservation<'_>) -> VfDecision {
        let levels = self
            .util_levels
            .as_ref()
            .expect("init() must be called first");
        // Instantaneous frame slack for the pay-off level term (clean
        // per-action credit); the tracker supplies the smoothed value
        // fed to the agents' (unused-by-UPD) slack input.
        let frame_slack = obs.frame.frame_slack().clamp(-1.0, 1.0);
        let prev_frame_slack = self.last_frame_slack;
        self.last_frame_slack = frame_slack;
        self.slack.observe(frame_slack);
        let reward = slack_reward(frame_slack, prev_frame_slack);

        let cores = self.agents.len();
        let mut choices = Vec::with_capacity(cores);
        for core in 0..cores {
            let state = levels.level_of(obs.frame.utilization(core));
            // UPD ignores the slack argument; pass the live value anyway.
            let action = self.agents[core].begin_epoch(state, reward, self.slack.average());
            choices.push(action);
        }
        VfDecision::PerCore(choices)
    }

    fn processing_overhead(&self) -> SimTime {
        // Four independent agents: sensor read + Bellman update + argmax
        // per core.
        SimTime::from_us(10) * self.agents.len().max(1) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgov_sim::{OppTable, Platform, PlatformConfig, WorkSlice};
    use qgov_units::Cycles;

    fn ctx() -> GovernorContext {
        GovernorContext::new(OppTable::odroid_xu3_a15(), 4, SimTime::from_ms(40))
    }

    #[test]
    fn init_builds_one_agent_per_core() {
        let mut gov = GeQiuGovernor::new(3);
        let d = gov.init(&ctx());
        assert_eq!(d, VfDecision::Cluster(18));
        assert_eq!(gov.agents.len(), 4);
        assert_eq!(gov.exploration_count(), 0);
    }

    #[test]
    fn decisions_are_per_core_and_legal() {
        let mut gov = GeQiuGovernor::new(3);
        gov.init(&ctx());
        let mut platform = Platform::new(PlatformConfig::odroid_xu3_a15()).unwrap();
        platform.set_cluster_opp(18);
        let work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(20)); 4];
        for epoch in 0..50u64 {
            let frame = platform.run_frame(&work, SimTime::from_ms(40)).unwrap();
            let d = gov.decide(&EpochObservation {
                frame: &frame,
                epoch,
            });
            match d {
                VfDecision::PerCore(choices) => {
                    assert_eq!(choices.len(), 4);
                    assert!(choices.iter().all(|&c| c < 19));
                    platform.set_cluster_opp(choices.into_iter().max().unwrap());
                }
                other => panic!("expected per-core decision, got {other:?}"),
            }
        }
        assert!(gov.exploration_count() > 0, "UPD must explore early");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed: u64| {
            let mut gov = GeQiuGovernor::new(seed);
            gov.init(&ctx());
            let mut platform = Platform::new(PlatformConfig::odroid_xu3_a15()).unwrap();
            let work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(30)); 4];
            let mut log = Vec::new();
            for epoch in 0..30u64 {
                let frame = platform.run_frame(&work, SimTime::from_ms(40)).unwrap();
                let d = gov.decide(&EpochObservation {
                    frame: &frame,
                    epoch,
                });
                let opp = d.resolve_cluster(platform.current_opp());
                platform.set_cluster_opp(opp);
                log.push(opp);
            }
            log
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn cores_use_distinct_rng_streams() {
        let mut gov = GeQiuGovernor::new(1);
        gov.init(&ctx());
        let mut platform = Platform::new(PlatformConfig::odroid_xu3_a15()).unwrap();
        // Identical per-core states must still give diverse exploratory
        // choices across cores (different streams).
        let work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(20)); 4];
        let frame = platform.run_frame(&work, SimTime::from_ms(40)).unwrap();
        let d = gov.decide(&EpochObservation {
            frame: &frame,
            epoch: 0,
        });
        if let VfDecision::PerCore(choices) = d {
            let all_same = choices.windows(2).all(|w| w[0] == w[1]);
            assert!(!all_same, "independent agents should diverge: {choices:?}");
        } else {
            panic!("expected per-core decision");
        }
    }
}
