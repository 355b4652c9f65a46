//! The many-core entry points: chip-level coordinator × application ×
//! topology → chip and per-cluster reports.
//!
//! [`run_manycore_experiment`] and its monitored and faulted forms are
//! one-line wrappers over the epoch kernel of [`crate::harness`], the
//! loop the flat [`run_experiment`](crate::run_experiment) runs on a
//! one-cluster chip. Each epoch the frame's demand is split across
//! clusters by the coordinator's work-share vector
//! ([`split_demand_into`](qgov_workloads::split_demand_into)), every
//! cluster runs its slice to the chip-wide frame barrier, and the
//! coordinator observes all per-cluster
//! [`FrameResult`](qgov_sim::FrameResult)s at once — the seam where
//! per-cluster Q-agents learn frequencies and the migration policy
//! rebalances placement. These entry points keep one report per
//! cluster.
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
//! use qgov_bench::manycore::run_manycore_experiment;
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
//! let outcome = run_manycore_experiment(&mut gov, &mut app, topology, 30, &[0.5, 0.5]);
//! assert_eq!(outcome.report.frames(), 30);
//! assert_eq!(outcome.cluster_reports.len(), 2);
//! assert_eq!(outcome.report.deadline_misses(), 0);
//! ```

use crate::harness::{run_epochs, EpochOptions};
use qgov_governors::ManyCoreGovernor;
use qgov_metrics::{MonitorSample, PropertySet, RunReport};
use qgov_sim::{FaultPlan, ManyCorePlatform, Topology};
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

/// Runs `coordinator` against `app` for `frames` epochs (capped at the
/// application's own length) on a chip built from `topology`, starting
/// from the `initial_shares` placement.
///
/// The loop per decision epoch:
/// 1. split the frame's demand across clusters by the current share
///    vector and execute every slice to the chip-wide barrier;
/// 2. record chip-level and per-cluster metrics;
/// 3. let the coordinator observe all per-cluster frame results,
///    decide each cluster's next operating point, and rebalance the
///    share vector (task migration);
/// 4. charge each cluster its own processing overhead and V-F
///    transition latency.
///
/// Steady state is allocation-free: the demand slots, work-slice
/// buffers, frame result, decision vector and share vector are all
/// reused across epochs (`tests/alloc_steady_state.rs` counts a whole
/// monitored run).
///
/// # Panics
///
/// Panics if the topology is invalid, `initial_shares` is not one
/// share per cluster, or a decision is out of range — programming
/// errors in the experiment setup. Debug builds additionally panic if
/// the application does not rewind deterministically on `reset()`.
pub fn run_manycore_experiment(
    coordinator: &mut dyn ManyCoreGovernor,
    app: &mut dyn Application,
    topology: Topology,
    frames: u64,
    initial_shares: &[f64],
) -> ManyCoreOutcome {
    run_epochs(
        coordinator,
        app,
        topology,
        frames,
        initial_shares,
        EpochOptions {
            cluster_reports: true,
            ..EpochOptions::default()
        },
    )
}

/// [`run_manycore_experiment`] with a streaming temporal-property
/// monitor riding along on the *chip-level* epoch stream: after every
/// coordinator decision the loop fills one [`MonitorSample`] from the
/// barrier aggregates (slowest cluster's frame time, summed energy,
/// chip-wide peak temperature, cluster 0's OPP) plus the coordinator's
/// ε/convergence state, and feeds it to `monitors`.
///
/// Monitoring never perturbs the run — the chip report equals the
/// unmonitored run's except for the attached
/// [`monitor_report`](RunReport::monitor_report) — and adds no heap
/// allocations to the steady-state epoch.
pub fn run_manycore_experiment_monitored(
    coordinator: &mut dyn ManyCoreGovernor,
    app: &mut dyn Application,
    topology: Topology,
    frames: u64,
    initial_shares: &[f64],
    monitors: &mut PropertySet<MonitorSample>,
) -> ManyCoreOutcome {
    run_epochs(
        coordinator,
        app,
        topology,
        frames,
        initial_shares,
        EpochOptions {
            monitors: Some(monitors),
            cluster_reports: true,
            ..EpochOptions::default()
        },
    )
}

/// [`run_manycore_experiment`] under a deterministic fault schedule —
/// the chip-level sibling of
/// [`run_experiment_faulted`](crate::harness::run_experiment_faulted).
///
/// Per epoch, for every cluster, the loop:
/// 1. moves any dead core's work slice onto that cluster's survivors
///    ([`FaultInjector::redistribute_dead`](qgov_sim::FaultInjector::redistribute_dead));
///    a fully dead cluster's slices all go idle — its assigned share
///    simply does not execute until the coordinator drains it away;
/// 2. executes the chip frame and records **truth** in the chip and
///    per-cluster reports;
/// 3. hands the coordinator a *sensed copy* of the per-cluster frame
///    results, perturbed by
///    [`FaultInjector::perturb_sensing`](qgov_sim::FaultInjector::perturb_sensing);
/// 4. rewrites each cluster's decision through its actuation fault
///    before applying it.
///
/// The first epoch on which a cluster's cores are all dead
/// ([`FaultInjector::cluster_dead`](qgov_sim::FaultInjector::cluster_dead))
/// is reported once to the coordinator via
/// [`ManyCoreGovernor::notify_cluster_dead`] — the hardened RTM freezes
/// that agent and drains its share; a naive coordinator ignores the
/// call and keeps feeding the corpse.
///
/// With an empty `plan` every injector step is a no-op and the run is
/// bit-identical to [`run_manycore_experiment`]
/// (`tests/fault_injection.rs` pins this).
///
/// # Panics
///
/// Panics as [`run_manycore_experiment`] does, and if `plan` names a
/// cluster or core outside the topology.
pub fn run_manycore_experiment_faulted(
    coordinator: &mut dyn ManyCoreGovernor,
    app: &mut dyn Application,
    topology: Topology,
    frames: u64,
    initial_shares: &[f64],
    plan: &FaultPlan,
) -> ManyCoreOutcome {
    run_epochs(
        coordinator,
        app,
        topology,
        frames,
        initial_shares,
        EpochOptions {
            faults: Some(plan),
            cluster_reports: true,
            ..EpochOptions::default()
        },
    )
}

/// [`run_manycore_experiment_faulted`] with a streaming
/// temporal-property monitor riding along on the chip-level epoch
/// stream. The monitors observe **ground truth**, never the sensed
/// copy — a thermal-cap property checks the real die even while the
/// coordinator is fed a stuck sensor.
pub fn run_manycore_experiment_faulted_monitored(
    coordinator: &mut dyn ManyCoreGovernor,
    app: &mut dyn Application,
    topology: Topology,
    frames: u64,
    initial_shares: &[f64],
    plan: &FaultPlan,
    monitors: &mut PropertySet<MonitorSample>,
) -> ManyCoreOutcome {
    run_epochs(
        coordinator,
        app,
        topology,
        frames,
        initial_shares,
        EpochOptions {
            faults: Some(plan),
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
        let outcome =
            run_manycore_experiment(&mut gov, &mut medium_app(40, 8), topology, 40, &[0.5, 0.5]);
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
        let outcome =
            run_manycore_experiment(&mut rtm, &mut medium_app(80, 8), topology, 80, &[0.6, 0.4]);
        assert_eq!(outcome.report.frames(), 80);
        let share_sum: f64 = outcome.shares.iter().sum();
        assert!((share_sum - 1.0).abs() < 1e-9, "{:?}", outcome.shares);
        assert!(outcome.shares.iter().all(|s| *s >= 0.0));
    }
}
