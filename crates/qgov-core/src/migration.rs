//! Greedy slack/temperature-driven task migration between clusters.
//!
//! At each epoch boundary the chip-level coordinator may move a small
//! fraction of the application's work share from one cluster to another.
//! The policy here is deliberately simple and deterministic — the
//! learned intelligence stays in the per-cluster Q-agents, and migration
//! only steers *where* work lands:
//!
//! 1. **Deadline rescue.** If some cluster is missing (or about to
//!    miss) its deadline, shed a share step from the worst-slack
//!    cluster onto the best-slack cluster that is thermally safe.
//! 2. **Energy consolidation.** Once every cluster has comfortable
//!    slack, drift work from the least energy-efficient cluster
//!    (highest observed J/cycle) towards the most efficient one that
//!    still has slack headroom and thermal margin — on a big.LITTLE
//!    part this is what moves steady work onto the LITTLE cores.
//!
//! Both moves are bounded by a per-epoch share step, tie-break on the
//! lowest cluster index, and read each cluster's frame slack once per
//! epoch from a scratch buffer that grows to the cluster count on the
//! first epoch and never touches the heap again.

use qgov_sim::FrameResult;

/// Fraction of the total work share moved per migration.
const STEP: f64 = 0.05;

/// A cluster only receives work while below this die temperature (°C).
const TEMP_CAP_C: f64 = 85.0;

/// A cluster with frame slack below this donates work (deadline
/// rescue); a rescue receiver must sit above it.
const SLACK_FLOOR: f64 = 0.02;

/// Energy consolidation only runs while every active cluster's slack
/// exceeds this guard, and only towards receivers that keep exceeding
/// it.
const GUARD_SLACK: f64 = 0.15;

/// Consolidation hysteresis: the donor's J/cycle must exceed the
/// receiver's by this relative margin before work moves.
const HYSTERESIS: f64 = 0.10;

/// Selects the greedy policy for
/// [`ManyCoreRtm::new`](crate::ManyCoreRtm::new). It has no settings:
/// the policy's 5 % share step, 85 °C receive cap, 2 % rescue floor,
/// 15 % consolidation guard and 10 % efficiency hysteresis are
/// constants of [`GreedyMigration`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationConfig;

impl MigrationConfig {
    /// The greedy policy the big.LITTLE, mesh and fault-storm
    /// experiments run.
    #[must_use]
    pub fn greedy() -> Self {
        MigrationConfig
    }
}

/// The greedy migration policy: inspects each epoch's per-cluster
/// [`FrameResult`]s and nudges the work-share vector.
#[derive(Debug, Clone, Default)]
pub struct GreedyMigration {
    migrations: u64,
    /// This epoch's frame slack per cluster, read once by
    /// [`rebalance_masked`](GreedyMigration::rebalance_masked).
    slack: Vec<f64>,
}

impl GreedyMigration {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of share moves performed so far.
    #[must_use]
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Rebalances `shares` from this epoch's per-cluster results.
    /// Returns `true` if a share step moved. `frames` and `shares` are
    /// indexed by cluster; shares stay non-negative and their sum is
    /// preserved.
    ///
    /// Clusters flagged in `dead` are excluded as both donors and
    /// receivers (their frames report garbage or nothing at all, and
    /// work must never migrate onto them). `dead` may be shorter than
    /// the cluster count — missing entries mean alive — so `&[]` means
    /// every cluster is alive.
    pub fn rebalance_masked(
        &mut self,
        frames: &[FrameResult],
        shares: &mut [f64],
        dead: &[bool],
    ) -> bool {
        let n = frames.len().min(shares.len());
        if n < 2 {
            return false;
        }
        self.slack.clear();
        self.slack
            .extend(frames[..n].iter().map(FrameResult::frame_slack));

        let slack = &self.slack[..];
        let pair = Self::rescue_pair(slack, &frames[..n], &shares[..n], dead)
            .or_else(|| Self::consolidation_pair(slack, &frames[..n], &shares[..n], dead));
        match pair {
            Some((donor, receiver)) => self.transfer(shares, donor, receiver),
            None => false,
        }
    }

    /// Drains the work share of every dead cluster onto the survivors
    /// (proportionally to their current shares, or evenly if the
    /// survivors hold nothing). Returns `true` if any share moved; a
    /// drain counts as one migration. No-op when nothing is dead or
    /// nothing is alive to receive.
    pub fn drain_dead(&mut self, shares: &mut [f64], dead: &[bool]) -> bool {
        let is_dead = |c: usize| dead.get(c).copied().unwrap_or(false);
        let orphaned: f64 = shares
            .iter()
            .enumerate()
            .filter(|&(c, share)| is_dead(c) && *share > 0.0)
            .map(|(_, share)| *share)
            .sum();
        let alive = shares.len() - (0..shares.len()).filter(|&c| is_dead(c)).count();
        if orphaned <= 0.0 || alive == 0 {
            return false;
        }
        let alive_total: f64 = shares
            .iter()
            .enumerate()
            .filter(|&(c, _)| !is_dead(c))
            .map(|(_, share)| *share)
            .sum();
        for (c, share) in shares.iter_mut().enumerate() {
            if is_dead(c) {
                *share = 0.0;
            } else if alive_total > 0.0 {
                *share += orphaned * (*share / alive_total);
            } else {
                *share += orphaned / alive as f64;
            }
        }
        self.migrations += 1;
        true
    }

    /// Deadline rescue: worst-slack active cluster below the floor
    /// donates to the best-slack thermally-safe cluster above it.
    /// `slack[c]` is `frames[c]`'s frame slack.
    fn rescue_pair(
        slack: &[f64],
        frames: &[FrameResult],
        shares: &[f64],
        dead: &[bool],
    ) -> Option<(usize, usize)> {
        let is_dead = |c: usize| dead.get(c).copied().unwrap_or(false);
        let mut donor: Option<usize> = None;
        for (c, &s) in slack.iter().enumerate() {
            if is_dead(c) || shares[c] <= 0.0 || s >= SLACK_FLOOR {
                continue;
            }
            if donor.is_none_or(|d| s < slack[d]) {
                donor = Some(c);
            }
        }
        let donor = donor?;

        let mut receiver: Option<usize> = None;
        for (c, frame) in frames.iter().enumerate() {
            if c == donor
                || is_dead(c)
                || slack[c] <= SLACK_FLOOR
                || frame.temperature.as_celsius() >= TEMP_CAP_C
            {
                continue;
            }
            if receiver.is_none_or(|r| slack[c] > slack[r]) {
                receiver = Some(c);
            }
        }
        receiver.map(|r| (donor, r))
    }

    /// Energy consolidation: while every active cluster has slack above
    /// the guard, the worst-J/cycle cluster donates to the best one
    /// with thermal margin and slack headroom. `slack[c]` is
    /// `frames[c]`'s frame slack.
    fn consolidation_pair(
        slack: &[f64],
        frames: &[FrameResult],
        shares: &[f64],
        dead: &[bool],
    ) -> Option<(usize, usize)> {
        let is_dead = |c: usize| dead.get(c).copied().unwrap_or(false);
        for (c, &s) in slack.iter().enumerate() {
            if !is_dead(c) && shares[c] > 0.0 && s < GUARD_SLACK {
                return None;
            }
        }

        let mut donor: Option<(usize, f64)> = None;
        let mut receiver: Option<(usize, f64)> = None;
        for (c, frame) in frames.iter().enumerate() {
            if is_dead(c) {
                continue;
            }
            let cycles = frame.total_cycles().count() as f64;
            if cycles <= 0.0 {
                continue;
            }
            let cost = frame.energy.as_joules() / cycles;
            if shares[c] > 0.0 && donor.is_none_or(|(_, worst)| cost > worst) {
                donor = Some((c, cost));
            }
            if slack[c] > GUARD_SLACK
                && frame.temperature.as_celsius() < TEMP_CAP_C
                && receiver.is_none_or(|(_, best)| cost < best)
            {
                receiver = Some((c, cost));
            }
        }
        let (donor, donor_cost) = donor?;
        let (receiver, receiver_cost) = receiver?;
        if receiver == donor || donor_cost <= receiver_cost * (1.0 + HYSTERESIS) {
            return None;
        }
        Some((donor, receiver))
    }

    fn transfer(&mut self, shares: &mut [f64], donor: usize, receiver: usize) -> bool {
        let delta = STEP.min(shares[donor]);
        if delta <= 0.0 {
            return false;
        }
        shares[donor] -= delta;
        shares[receiver] += delta;
        self.migrations += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgov_units::{Energy, SimTime, Temp};

    fn frame(slack: f64, joules_per_cycle: f64, temp_c: f64) -> FrameResult {
        let period = SimTime::from_ms(40);
        let mut f = FrameResult::empty();
        f.period = period;
        f.frame_time = SimTime::from_secs_f64(period.as_secs_f64() * (1.0 - slack));
        f.per_core_cycles[0] = qgov_units::Cycles::new(1_000_000);
        f.energy = Energy::from_joules(joules_per_cycle * 1_000_000.0);
        f.temperature = Temp::from_celsius(temp_c);
        f
    }

    #[test]
    fn rescue_moves_share_from_missing_to_slack_cluster() {
        let mut policy = GreedyMigration::new();
        let frames = [frame(-0.2, 1e-9, 60.0), frame(0.5, 1e-9, 60.0)];
        let mut shares = [0.5, 0.5];
        assert!(policy.rebalance_masked(&frames, &mut shares, &[]));
        assert!((shares[0] - 0.45).abs() < 1e-12);
        assert!((shares[1] - 0.55).abs() < 1e-12);
        assert_eq!(policy.migrations(), 1);
    }

    #[test]
    fn rescue_respects_the_thermal_cap() {
        let mut policy = GreedyMigration::new();
        let frames = [frame(-0.2, 1e-9, 60.0), frame(0.5, 1e-9, 95.0)];
        let mut shares = [0.5, 0.5];
        assert!(!policy.rebalance_masked(&frames, &mut shares, &[]));
        assert_eq!(shares, [0.5, 0.5]);
    }

    #[test]
    fn consolidation_drifts_work_to_the_efficient_cluster() {
        let mut policy = GreedyMigration::new();
        // Both comfortably slack; cluster 0 burns 4x the J/cycle.
        let frames = [frame(0.4, 4e-9, 60.0), frame(0.4, 1e-9, 60.0)];
        let mut shares = [0.6, 0.4];
        assert!(policy.rebalance_masked(&frames, &mut shares, &[]));
        assert!((shares[0] - 0.55).abs() < 1e-12);
        assert!((shares[1] - 0.45).abs() < 1e-12);
    }

    #[test]
    fn consolidation_waits_for_slack_everywhere() {
        let mut policy = GreedyMigration::new();
        // Cluster 1 is efficient but tight on slack: nothing moves.
        let frames = [frame(0.4, 4e-9, 60.0), frame(0.05, 1e-9, 60.0)];
        let mut shares = [0.6, 0.4];
        assert!(!policy.rebalance_masked(&frames, &mut shares, &[]));
    }

    #[test]
    fn hysteresis_blocks_near_tie_shuffling() {
        let mut policy = GreedyMigration::new();
        let frames = [frame(0.4, 1.05e-9, 60.0), frame(0.4, 1e-9, 60.0)];
        let mut shares = [0.5, 0.5];
        assert!(!policy.rebalance_masked(&frames, &mut shares, &[]));
    }

    #[test]
    fn shares_stay_normalised_and_non_negative() {
        let mut policy = GreedyMigration::new();
        let frames = [frame(-0.5, 1e-9, 60.0), frame(0.6, 1e-9, 60.0)];
        let mut shares = [0.03, 0.97];
        // Donor only has 0.03 to give, under the 5 % step: the step
        // clamps.
        assert!(policy.rebalance_masked(&frames, &mut shares, &[]));
        assert!((shares[0] - 0.0).abs() < 1e-12);
        assert!((shares[1] - 1.0).abs() < 1e-12);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Fully drained: nothing left to donate.
        assert!(!policy.rebalance_masked(&frames, &mut shares, &[]));
    }

    #[test]
    fn dead_clusters_neither_donate_nor_receive() {
        let mut policy = GreedyMigration::new();
        // Cluster 1 is the obvious rescue receiver — unless it is dead.
        let frames = [frame(-0.2, 1e-9, 60.0), frame(0.5, 1e-9, 60.0)];
        let mut shares = [0.5, 0.5];
        assert!(!policy.rebalance_masked(&frames, &mut shares, &[false, true]));
        assert_eq!(shares, [0.5, 0.5]);

        // A dead cluster's garbage frame cannot make it a donor either.
        let frames = [frame(-0.9, 1e-9, 60.0), frame(0.5, 1e-9, 60.0)];
        let mut shares = [0.5, 0.5];
        assert!(!policy.rebalance_masked(&frames, &mut shares, &[true, false]));
        assert_eq!(shares, [0.5, 0.5]);
    }

    #[test]
    fn drain_dead_moves_share_to_survivors_proportionally() {
        let mut policy = GreedyMigration::new();
        let mut shares = [0.4, 0.3, 0.3];
        assert!(policy.drain_dead(&mut shares, &[true, false, false]));
        assert_eq!(shares[0], 0.0);
        assert!((shares[1] - 0.5).abs() < 1e-12);
        assert!((shares[2] - 0.5).abs() < 1e-12);
        assert_eq!(policy.migrations(), 1);
        // Already drained: no further moves.
        assert!(!policy.drain_dead(&mut shares, &[true, false, false]));
        assert_eq!(policy.migrations(), 1);

        // Survivors with zero share split the orphaned work evenly.
        let mut shares = [1.0, 0.0, 0.0];
        assert!(policy.drain_dead(&mut shares, &[true, false, false]));
        assert!((shares[1] - 0.5).abs() < 1e-12);
        assert!((shares[2] - 0.5).abs() < 1e-12);

        // Nothing alive: the share has nowhere to go.
        let mut shares = [1.0];
        assert!(!policy.drain_dead(&mut shares, &[true]));
        assert_eq!(shares, [1.0]);
    }

    #[test]
    fn single_cluster_never_migrates() {
        let mut policy = GreedyMigration::new();
        let frames = [frame(-0.5, 1e-9, 60.0)];
        let mut shares = [1.0];
        assert!(!policy.rebalance_masked(&frames, &mut shares, &[]));
        assert_eq!(policy.migrations(), 0);
    }
}
