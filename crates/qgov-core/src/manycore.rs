//! The chip-level RTM: one Q-agent per cluster plus greedy migration.
//!
//! The paper's RTM governs one V-F island. On a heterogeneous topology
//! each cluster gets its own [`RtmGovernor`] — same `StateMapper`
//! semantics, per-cluster Q-table sized to that cluster's own OPP
//! count — and a [`GreedyMigration`] policy rebalances the work shares
//! between clusters at epoch boundaries. Learning *what frequency to
//! run* stays per-cluster and model-free; *where work runs* is steered
//! by observed slack, temperature, and energy-per-cycle.

use crate::{GreedyMigration, MigrationConfig, RtmConfig, RtmGovernor};
use qgov_governors::{
    EpochObservation, Governor, GovernorContext, ManyCoreGovernor, ManyCoreObservation, VfDecision,
};
use qgov_rl::RlError;
use qgov_units::SimTime;

/// One Q-learning agent per cluster, coordinated by greedy task
/// migration — the learned-placement contender of the big.LITTLE and
/// mesh experiments.
#[derive(Debug)]
pub struct ManyCoreRtm {
    agents: Vec<RtmGovernor>,
    migration: GreedyMigration,
    /// Clusters reported dead via
    /// [`ManyCoreGovernor::notify_cluster_dead`]: their agents are
    /// frozen (no learning from garbage), their work share is drained
    /// to the survivors, and migration never routes work back to them.
    dead: Vec<bool>,
}

impl ManyCoreRtm {
    /// Builds one agent per configuration (cluster `c` runs
    /// `configs[c]`) under the greedy migration policy, which has no
    /// settings: `migration` only names it.
    ///
    /// # Errors
    ///
    /// Returns [`RlError`] if any per-cluster configuration is invalid,
    /// or [`RlError::EmptyDimension`] if `configs` is empty.
    pub fn new(configs: Vec<RtmConfig>, _migration: MigrationConfig) -> Result<Self, RlError> {
        if configs.is_empty() {
            return Err(RlError::EmptyDimension { name: "clusters" });
        }
        let agents = configs
            .into_iter()
            .map(RtmGovernor::new)
            .collect::<Result<Vec<_>, _>>()?;
        let clusters = agents.len();
        Ok(ManyCoreRtm {
            agents,
            migration: GreedyMigration::new(),
            dead: vec![false; clusters],
        })
    }

    /// The paper's configuration on every cluster, with per-cluster
    /// decorrelated exploration seeds (`seed + c`), shared workload
    /// bounds, and the greedy migration policy.
    ///
    /// The bounds should span the *chip-level* demand range: every
    /// cluster sees a migrating fraction of the total, so each agent's
    /// state mapper is given `(min × 0.05, max)` to keep small shares
    /// on-grid.
    ///
    /// # Errors
    ///
    /// Returns [`RlError`] as for [`new`](ManyCoreRtm::new).
    pub fn paper(seed: u64, clusters: usize, bounds: (f64, f64)) -> Result<Self, RlError> {
        let configs = (0..clusters)
            .map(|c| {
                RtmConfig::paper(seed.wrapping_add(c as u64))
                    .with_workload_bounds((bounds.0 * 0.05).max(1.0), bounds.1)
            })
            .collect();
        Self::new(configs, MigrationConfig::greedy())
    }

    /// Puts every per-cluster agent behind a
    /// [`PlausibilityFilter`](crate::PlausibilityFilter) — the
    /// chip-level form of [`RtmGovernor::with_hardening`].
    #[must_use]
    pub fn with_agent_hardening(mut self, hardening: crate::HardeningConfig) -> Self {
        self.agents = self
            .agents
            .into_iter()
            .map(|a| a.with_hardening(hardening))
            .collect();
        self
    }

    /// Total epochs any agent ran on substituted (quarantined) sensor
    /// data, summed over clusters. Zero without hardening.
    #[must_use]
    pub fn degraded_epochs(&self) -> u64 {
        self.agents.iter().map(RtmGovernor::degraded_epochs).sum()
    }

    /// Total epochs any agent spent in safe-state fallback, summed over
    /// clusters. Zero without hardening.
    #[must_use]
    pub fn safe_state_epochs(&self) -> u64 {
        self.agents.iter().map(RtmGovernor::safe_state_epochs).sum()
    }

    /// The agent governing one cluster.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    #[must_use]
    pub fn agent(&self, cluster: usize) -> &RtmGovernor {
        &self.agents[cluster]
    }

    /// Number of per-cluster agents.
    #[must_use]
    pub fn clusters(&self) -> usize {
        self.agents.len()
    }

    /// Share moves performed by the migration policy so far.
    #[must_use]
    pub fn migrations(&self) -> u64 {
        self.migration.migrations()
    }

    /// `true` if `cluster` has been reported dead.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    #[must_use]
    pub fn cluster_dead(&self, cluster: usize) -> bool {
        self.dead[cluster]
    }
}

impl ManyCoreGovernor for ManyCoreRtm {
    fn name(&self) -> &str {
        "rtm-migrate"
    }

    fn init(&mut self, ctxs: &[GovernorContext], decisions: &mut Vec<VfDecision>) {
        assert_eq!(ctxs.len(), self.agents.len(), "one context per cluster");
        decisions.clear();
        // A new run restarts everything: the dead flags, the migration
        // count and (below) every agent.
        self.dead.fill(false);
        self.migration = GreedyMigration::new();
        for (agent, ctx) in self.agents.iter_mut().zip(ctxs) {
            decisions.push(agent.init(ctx));
        }
    }

    fn decide_into(
        &mut self,
        obs: &ManyCoreObservation<'_>,
        decisions: &mut Vec<VfDecision>,
        shares: &mut [f64],
    ) {
        // A freshly-reported dead cluster sheds its work share first,
        // so the survivors' agents see the extra demand this epoch.
        self.migration.drain_dead(shares, &self.dead);
        decisions.clear();
        for (cluster, agent) in self.agents.iter_mut().enumerate() {
            if self.dead[cluster] {
                // Frozen agent: no learning from a dead cluster's
                // garbage, and the (unpowered) cluster parks at its
                // lowest OPP. Re-parking each epoch is free — a
                // same-index retarget has zero transition cost.
                decisions.push(VfDecision::Cluster(0));
                continue;
            }
            decisions.push(agent.decide(&EpochObservation {
                frame: &obs.frames[cluster],
                epoch: obs.epoch,
            }));
        }
        self.migration
            .rebalance_masked(obs.frames, shares, &self.dead);
    }

    fn processing_overhead(&self, cluster: usize) -> SimTime {
        self.agents[cluster].processing_overhead()
    }

    /// The chip-level ε is the maximum over the per-cluster agents —
    /// still monotone non-increasing, since every agent's schedule is.
    fn exploration_epsilon(&self) -> Option<f64> {
        self.agents
            .iter()
            .map(RtmGovernor::epsilon)
            .fold(None, |acc, e| Some(acc.map_or(e, |a: f64| a.max(e))))
    }

    /// Converged once every live per-cluster agent has converged (a
    /// dead cluster's frozen agent can never converge and no longer
    /// matters).
    fn has_converged(&self) -> Option<bool> {
        Some(
            self.agents
                .iter()
                .enumerate()
                .filter(|(c, _)| !self.dead[*c])
                .all(|(_, a)| a.converged_at().is_some()),
        )
    }

    fn notify_cluster_dead(&mut self, cluster: usize) {
        if cluster < self.dead.len() {
            self.dead[cluster] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgov_sim::OppTable;

    #[test]
    fn builds_one_agent_per_cluster() {
        let rtm = ManyCoreRtm::paper(42, 2, (1e7, 1e9)).unwrap();
        assert_eq!(rtm.clusters(), 2);
        assert_eq!(rtm.migrations(), 0);
        assert!(ManyCoreRtm::new(Vec::new(), MigrationConfig::greedy()).is_err());
    }

    #[test]
    fn init_sizes_each_agent_to_its_cluster_action_space() {
        let mut rtm = ManyCoreRtm::paper(7, 2, (1e7, 1e9)).unwrap();
        let ctxs = vec![
            GovernorContext::new(OppTable::odroid_xu3_a15(), 4, SimTime::from_ms(40)),
            GovernorContext::new(OppTable::odroid_xu3_a7(), 4, SimTime::from_ms(40)),
        ];
        let mut decisions = Vec::new();
        rtm.init(&ctxs, &mut decisions);
        assert_eq!(decisions.len(), 2);
        for (d, table) in decisions.iter().zip([19usize, 13]) {
            match d {
                VfDecision::Cluster(i) => assert!(*i < table),
                other => panic!("unexpected decision {other:?}"),
            }
        }
        // Decorrelated exploration seeds per cluster.
        assert!(rtm.agent(0).processing_overhead() > SimTime::ZERO);
    }

    #[test]
    fn dead_cluster_is_frozen_drained_and_parked() {
        use qgov_sim::FrameResult;

        let mut rtm = ManyCoreRtm::paper(3, 2, (1e7, 1e9)).unwrap();
        let ctxs = vec![
            GovernorContext::new(OppTable::odroid_xu3_a15(), 4, SimTime::from_ms(40)),
            GovernorContext::new(OppTable::odroid_xu3_a15(), 4, SimTime::from_ms(40)),
        ];
        let mut decisions = Vec::new();
        rtm.init(&ctxs, &mut decisions);
        assert!(!rtm.cluster_dead(0) && !rtm.cluster_dead(1));

        rtm.notify_cluster_dead(0);
        assert!(rtm.cluster_dead(0));
        assert!(!rtm.cluster_dead(1));

        let mut live_frame = FrameResult::empty();
        live_frame.period = SimTime::from_ms(40);
        live_frame.frame_time = SimTime::from_ms(30);
        live_frame.wall_time = SimTime::from_ms(40);
        live_frame.per_core_cycles = [qgov_units::Cycles::from_mcycles(30); 4];
        let frames = vec![live_frame.clone(), live_frame];
        let mut shares = vec![0.6, 0.4];
        rtm.decide_into(
            &ManyCoreObservation {
                frames: &frames,
                epoch: 0,
            },
            &mut decisions,
            &mut shares,
        );
        // The dead cluster parks at the lowest OPP and its share has
        // drained to the survivor.
        assert_eq!(decisions[0], VfDecision::Cluster(0));
        assert_eq!(shares[0], 0.0);
        assert!((shares[1] - 1.0).abs() < 1e-12);

        // Re-init revives everything.
        rtm.init(&ctxs, &mut decisions);
        assert!(!rtm.cluster_dead(0) && !rtm.cluster_dead(1));
    }
}
