//! Many-core governing: one coordinator over a topology of clusters.
//!
//! A [`ManyCoreGovernor`] is the chip-level analogue of [`Governor`]:
//! it observes every cluster's completed frame and picks each cluster's
//! next operating point, and it may also rebalance the *work shares* —
//! the fraction of each frame's demand placed on each cluster — which is
//! the task-migration seam. [`PerClusterGovernors`] is the baseline
//! coordinator: independent single-cluster governors with a fixed
//! placement, so classical policies stay comparable to learned ones on
//! heterogeneous topologies.

use crate::{
    EpochObservation, Governor, GovernorContext, OndemandGovernor, PerformanceGovernor, VfDecision,
};
use qgov_sim::FrameResult;
use qgov_units::SimTime;

/// Everything a many-core governor observes at the end of a decision
/// epoch: one completed [`FrameResult`] per cluster.
#[derive(Debug, Clone, Copy)]
pub struct ManyCoreObservation<'a> {
    /// Per-cluster results of the frame that just completed, in
    /// topology order.
    pub frames: &'a [FrameResult],
    /// Zero-based index of the completed frame.
    pub epoch: u64,
}

/// A chip-level governor: per-cluster V-F decisions plus optional work
/// migration between clusters.
///
/// The contract extends [`Governor`] to a topology:
///
/// 1. [`init`](ManyCoreGovernor::init) is called once with one
///    [`GovernorContext`] per cluster and fills `decisions` with the
///    starting operating point of each cluster;
/// 2. after every frame, [`decide_into`](ManyCoreGovernor::decide_into)
///    refills `decisions` (one entry per cluster) and may adjust
///    `shares` — the per-cluster work fractions the harness uses to
///    split the next frame's demand (they must stay non-negative and
///    sum to 1);
/// 3. [`processing_overhead`](ManyCoreGovernor::processing_overhead)
///    reports the per-epoch compute cost charged to one cluster.
///
/// Both decision methods write into caller-provided buffers so the
/// steady-state epoch stays allocation-free: implementations `clear`
/// and re-`push` `decisions` (cluster-level decisions are `Copy`-cheap
/// variants) and mutate `shares` in place.
pub trait ManyCoreGovernor {
    /// Short machine-readable name ("ondemand", "manycore-rtm", ...).
    fn name(&self) -> &str;

    /// Called once before the first frame with one context per cluster;
    /// fills `decisions` with each cluster's initial setting.
    fn init(&mut self, ctxs: &[GovernorContext], decisions: &mut Vec<VfDecision>);

    /// Called after every completed frame; refills `decisions` with
    /// each cluster's next setting and may rebalance `shares`
    /// (`shares.len()` equals the cluster count).
    fn decide_into(
        &mut self,
        obs: &ManyCoreObservation<'_>,
        decisions: &mut Vec<VfDecision>,
        shares: &mut [f64],
    );

    /// Per-epoch processing cost charged to `cluster`'s next frame.
    fn processing_overhead(&self, cluster: usize) -> SimTime {
        let _ = cluster;
        SimTime::ZERO
    }

    /// Chip-level exploration rate, for learned coordinators (the
    /// maximum over per-cluster agents, so it is still monotone
    /// non-increasing under each agent's decay). `None` (the default)
    /// means no such notion; temporal monitors treat the matching
    /// properties as vacuous.
    fn exploration_epsilon(&self) -> Option<f64> {
        None
    }

    /// Whether the coordinator as a whole has converged (all agents).
    /// `None` (the default) means no convergence notion.
    fn has_converged(&self) -> Option<bool> {
        None
    }

    /// Informs the coordinator that every core of `cluster` has failed
    /// permanently (fault injection or a real platform event). A
    /// hardened coordinator reacts — freezing the dead cluster's agent
    /// and redistributing its work share — while the default (a naive
    /// coordinator) ignores the notification and keeps learning from
    /// whatever the dead cluster appears to report.
    fn notify_cluster_dead(&mut self, cluster: usize) {
        let _ = cluster;
    }
}

/// Independent per-cluster governors with a static placement: cluster
/// `c` is governed by `governors[c]` exactly as it would be on a
/// single-cluster platform, and the work shares are never touched.
///
/// This is the fair heterogeneous baseline for every classical policy —
/// e.g. "ondemand on the big cluster and ondemand on the LITTLE
/// cluster" — and, with a single governor over a 1-cluster topology, the
/// bit-identity bridge back to the single-cluster harness.
pub struct PerClusterGovernors {
    name: String,
    governors: Vec<Box<dyn Governor>>,
}

impl PerClusterGovernors {
    /// Wraps one governor per cluster under a chip-level `name`.
    ///
    /// # Panics
    ///
    /// Panics if `governors` is empty.
    #[must_use]
    pub fn new(name: impl Into<String>, governors: Vec<Box<dyn Governor>>) -> Self {
        assert!(
            !governors.is_empty(),
            "a many-core governor needs at least one cluster"
        );
        PerClusterGovernors {
            name: name.into(),
            governors,
        }
    }

    /// Linux-default ondemand on every cluster.
    #[must_use]
    pub fn ondemand(clusters: usize) -> Self {
        Self::new(
            "ondemand",
            (0..clusters)
                .map(|_| Box::new(OndemandGovernor::linux_default()) as Box<dyn Governor>)
                .collect(),
        )
    }

    /// Top operating point on every cluster.
    #[must_use]
    pub fn performance(clusters: usize) -> Self {
        Self::new(
            "performance",
            (0..clusters)
                .map(|_| Box::new(PerformanceGovernor::new()) as Box<dyn Governor>)
                .collect(),
        )
    }

    /// Number of wrapped per-cluster governors.
    #[must_use]
    pub fn clusters(&self) -> usize {
        self.governors.len()
    }

    /// The governor attached to one cluster.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    #[must_use]
    pub fn governor(&self, cluster: usize) -> &dyn Governor {
        &*self.governors[cluster]
    }
}

impl core::fmt::Debug for PerClusterGovernors {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PerClusterGovernors")
            .field("name", &self.name)
            .field("clusters", &self.governors.len())
            .finish()
    }
}

impl ManyCoreGovernor for PerClusterGovernors {
    fn name(&self) -> &str {
        &self.name
    }

    fn init(&mut self, ctxs: &[GovernorContext], decisions: &mut Vec<VfDecision>) {
        assert_eq!(
            ctxs.len(),
            self.governors.len(),
            "one context per cluster governor"
        );
        decisions.clear();
        for (governor, ctx) in self.governors.iter_mut().zip(ctxs) {
            decisions.push(governor.init(ctx));
        }
    }

    fn decide_into(
        &mut self,
        obs: &ManyCoreObservation<'_>,
        decisions: &mut Vec<VfDecision>,
        _shares: &mut [f64],
    ) {
        decisions.clear();
        for (cluster, governor) in self.governors.iter_mut().enumerate() {
            decisions.push(governor.decide(&EpochObservation {
                frame: &obs.frames[cluster],
                epoch: obs.epoch,
            }));
        }
    }

    fn processing_overhead(&self, cluster: usize) -> SimTime {
        self.governors[cluster].processing_overhead()
    }

    /// The maximum ε over the per-cluster governors that report one;
    /// `None` when no wrapped governor explores.
    fn exploration_epsilon(&self) -> Option<f64> {
        self.governors
            .iter()
            .filter_map(|g| g.exploration_epsilon())
            .fold(None, |acc, e| Some(acc.map_or(e, |a: f64| a.max(e))))
    }

    /// Converged once every wrapped governor that *reports* convergence
    /// has converged; heuristic clusters (`None`) neither block nor
    /// satisfy it. `None` when no wrapped governor learns.
    fn has_converged(&self) -> Option<bool> {
        let mut any = false;
        for g in &self.governors {
            match g.has_converged() {
                Some(false) => return Some(false),
                Some(true) => any = true,
                None => {}
            }
        }
        any.then_some(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PowersaveGovernor;
    use qgov_sim::OppTable;
    use qgov_units::SimTime;

    fn contexts() -> Vec<GovernorContext> {
        vec![
            GovernorContext::new(OppTable::odroid_xu3_a15(), 4, SimTime::from_ms(40)),
            GovernorContext::new(OppTable::odroid_xu3_a7(), 4, SimTime::from_ms(40)),
        ]
    }

    #[test]
    fn per_cluster_governors_decide_independently() {
        let mut chip = PerClusterGovernors::new(
            "mixed",
            vec![
                Box::new(PerformanceGovernor::new()),
                Box::new(PowersaveGovernor::new()),
            ],
        );
        let mut decisions = Vec::new();
        chip.init(&contexts(), &mut decisions);
        assert_eq!(
            decisions,
            vec![VfDecision::Cluster(18), VfDecision::Cluster(0)]
        );
        assert_eq!(chip.name(), "mixed");
        assert_eq!(chip.clusters(), 2);
    }

    #[test]
    fn static_placement_never_touches_shares() {
        let mut chip = PerClusterGovernors::ondemand(2);
        let mut decisions = Vec::new();
        chip.init(&contexts(), &mut decisions);

        let frames = vec![
            qgov_sim::FrameResult::empty(),
            qgov_sim::FrameResult::empty(),
        ];
        let mut shares = [0.7, 0.3];
        chip.decide_into(
            &ManyCoreObservation {
                frames: &frames,
                epoch: 0,
            },
            &mut decisions,
            &mut shares,
        );
        assert_eq!(decisions.len(), 2);
        assert_eq!(shares, [0.7, 0.3]);
        // Overheads forward to the wrapped per-cluster governor.
        assert_eq!(
            chip.processing_overhead(0),
            chip.governor(0).processing_overhead()
        );
    }
}
