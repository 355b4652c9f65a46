//! The many-core outcome: chip-level coordinator × application ×
//! topology → chip and per-cluster reports.
//!
//! [`run_manycore_experiment`] is the epoch kernel of
//! [`crate::harness`] itself, the loop the flat
//! [`run_experiment`](crate::run_experiment) runs on a one-cluster
//! chip. Each epoch the frame's demand is split across clusters by the
//! coordinator's work-share vector
//! ([`split_demand_into`](qgov_workloads::split_demand_into)), every
//! cluster runs its slice to the chip-wide frame barrier, and the
//! coordinator observes all per-cluster
//! [`FrameResult`](qgov_sim::FrameResult)s at once — the seam where
//! per-cluster Q-agents learn frequencies and the migration policy
//! rebalances placement. A run returns a [`ManyCoreOutcome`].
//!
//! # Bit-identity bridge
//!
//! On a 1-cluster [`Topology`] with the whole share on that cluster,
//! the split is thread-preserving and the cluster steps through the
//! *unchanged* single-cluster [`Platform`](qgov_sim::Platform) kernel,
//! so a [`PerClusterGovernors`](qgov_governors::PerClusterGovernors)
//! wrapping one governor reproduces
//! [`run_experiment`](crate::run_experiment) frame-for-frame,
//! bit-for-bit (`tests/harness_golden.rs` pins it).
//!
//! ```
//! use qgov_bench::{run_manycore_experiment, EpochOptions};
//! use qgov_governors::PerClusterGovernors;
//! use qgov_sim::{PlatformConfig, Topology};
//! use qgov_units::{Cycles, SimTime};
//! use qgov_workloads::SyntheticWorkload;
//!
//! let topology = Topology::homogeneous_mesh(2, PlatformConfig::odroid_xu3_a15());
//! let mut gov = PerClusterGovernors::performance(2);
//! let mut app = SyntheticWorkload::constant(
//!     "demo", Cycles::from_mcycles(80), SimTime::from_ms(40), 30, 8, 0,
//! );
//! let options = EpochOptions {
//!     cluster_reports: true,
//!     ..EpochOptions::default()
//! };
//! let outcome = run_manycore_experiment(&mut gov, &mut app, topology, 30, &[0.5, 0.5], options);
//! assert_eq!(outcome.report.frames(), 30);
//! assert_eq!(outcome.cluster_reports.len(), 2);
//! assert_eq!(outcome.report.deadline_misses(), 0);
//! ```

use crate::harness::{run_manycore_experiment, EpochOptions};
use qgov_governors::ManyCoreGovernor;
use qgov_metrics::{MonitorSample, PropertySet, RunReport};
use qgov_sim::{ManyCorePlatform, Topology};
use qgov_workloads::Application;

/// Everything a finished many-core run yields: the chip-level report,
/// one report per cluster, the platform in its final state, and the
/// final work-share vector.
#[derive(Debug)]
pub struct ManyCoreOutcome {
    /// Chip-level metrics: per-frame values are the barrier aggregates
    /// (slowest cluster's frame time, summed energy); the recorded OPP
    /// index is cluster 0's (a multi-cluster chip has no single OPP).
    pub report: RunReport,
    /// Per-cluster metrics, indexed like the topology. Frame times and
    /// deadlines are each cluster's own; run totals (energy,
    /// transitions, peak temperature) are per-cluster too.
    pub cluster_reports: Vec<RunReport>,
    /// The platform after the run.
    pub platform: ManyCorePlatform,
    /// The work-share vector after the last epoch (what migration
    /// converged to).
    pub shares: Vec<f64>,
}

/// [`run_manycore_experiment`] with `monitors` riding along and one
/// report per cluster kept. Its only caller is `perfbench/src/mesh.rs`,
/// which the next change to the benchmark repoints at
/// [`run_manycore_experiment`] before deleting this function.
pub fn run_manycore_experiment_monitored(
    coordinator: &mut dyn ManyCoreGovernor,
    app: &mut dyn Application,
    topology: Topology,
    frames: u64,
    initial_shares: &[f64],
    monitors: &mut PropertySet<MonitorSample>,
) -> ManyCoreOutcome {
    run_manycore_experiment(
        coordinator,
        app,
        topology,
        frames,
        initial_shares,
        EpochOptions {
            faults: None,
            monitors: Some(monitors),
            cluster_reports: true,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_experiment;
    use qgov_core::ManyCoreRtm;
    use qgov_governors::{OndemandGovernor, PerClusterGovernors};
    use qgov_sim::PlatformConfig;
    use qgov_units::{Cycles, SimTime};
    use qgov_workloads::SyntheticWorkload;

    fn medium_app(frames: u64, threads: usize) -> SyntheticWorkload {
        SyntheticWorkload::constant(
            "medium",
            Cycles::from_mcycles(100),
            SimTime::from_ms(40),
            frames,
            threads,
            3,
        )
    }

    /// Per-cluster reports kept, no faults, no monitors.
    fn cluster_reports() -> EpochOptions<'static> {
        EpochOptions {
            cluster_reports: true,
            ..EpochOptions::default()
        }
    }

    #[test]
    fn single_cluster_run_is_bit_identical_to_the_flat_harness() {
        let mut flat_gov = OndemandGovernor::linux_default();
        let flat = run_experiment(
            &mut flat_gov,
            &mut medium_app(60, 4),
            PlatformConfig::odroid_xu3_a15(),
            60,
        );

        let mut chip_gov = PerClusterGovernors::new(
            "ondemand",
            vec![Box::new(OndemandGovernor::linux_default())],
        );
        let chip = run_manycore_experiment(
            &mut chip_gov,
            &mut medium_app(60, 4),
            Topology::single(PlatformConfig::odroid_xu3_a15()),
            60,
            &[1.0],
            cluster_reports(),
        );

        assert_eq!(flat.report, chip.report);
        assert_eq!(
            flat.report.total_energy().as_joules().to_bits(),
            chip.cluster_reports[0].total_energy().as_joules().to_bits()
        );
        assert_eq!(chip.shares, vec![1.0]);
    }

    #[test]
    fn two_cluster_split_meets_what_one_cluster_can_also_meet() {
        let topology = Topology::homogeneous_mesh(2, PlatformConfig::odroid_xu3_a15());
        let mut gov = PerClusterGovernors::performance(2);
        let outcome = run_manycore_experiment(
            &mut gov,
            &mut medium_app(40, 8),
            topology,
            40,
            &[0.5, 0.5],
            cluster_reports(),
        );
        assert_eq!(outcome.report.deadline_misses(), 0);
        assert_eq!(outcome.cluster_reports.len(), 2);
        // Both clusters carried work and report energy.
        for r in &outcome.cluster_reports {
            assert!(r.total_energy().as_joules() > 0.0);
        }
        // Chip energy is the sum of the cluster energies.
        let sum: f64 = outcome
            .cluster_reports
            .iter()
            .map(|r| r.total_energy().as_joules())
            .sum();
        assert!((outcome.report.total_energy().as_joules() - sum).abs() < 1e-9);
    }

    #[test]
    fn learned_coordinator_runs_and_may_migrate() {
        let topology = Topology::odroid_xu3_biglittle();
        let mut rtm = ManyCoreRtm::paper(42, 2, (1e7, 5e8)).unwrap();
        let outcome = run_manycore_experiment(
            &mut rtm,
            &mut medium_app(80, 8),
            topology,
            80,
            &[0.6, 0.4],
            cluster_reports(),
        );
        assert_eq!(outcome.report.frames(), 80);
        let share_sum: f64 = outcome.shares.iter().sum();
        assert!((share_sum - 1.0).abs() < 1e-9, "{:?}", outcome.shares);
        assert!(outcome.shares.iter().all(|s| *s >= 0.0));
    }
}
