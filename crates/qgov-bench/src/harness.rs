//! The experiment loop: coordinator × application × chip → report.
//!
//! One epoch kernel, [`run_manycore_experiment`], steps a
//! [`ManyCoreGovernor`] over a freshly built [`ManyCorePlatform`]. It
//! has three options and no others, the public fields of
//! [`EpochOptions`]: a fault plan, a monitor set, and whether
//! per-cluster reports are kept. [`run_experiment`] is its flat
//! convenience: one borrowed [`Governor`] on a one-cluster
//! [`Topology`], no option set, and that cluster's [`Platform`]
//! returned. A flat run that needs an option wraps its governor in a
//! [`PerClusterGovernors`](qgov_governors::PerClusterGovernors) over
//! [`Topology::single`] with the whole share on cluster 0, which
//! reproduces [`run_experiment`] bit for bit
//! (`tests/harness_golden.rs` pins it for six governor families).
//!
//! [`run_experiment`] is the single-cell run most batched sweeps in
//! [`crate::runner`] bottom out in: one governor driving one
//! application on one freshly built platform. It takes `&mut` to both
//! the governor and the application, and [`precharacterize`] likewise
//! **mutates the application in place** (recording resets it and
//! drains its frame iterator). A batch cell must therefore own a fresh
//! application instance — in practice a [`WorkloadTrace`] clone —
//! rather than share one across cells; debug builds assert that the
//! application rewinds deterministically on `reset()`, which is the
//! property that makes per-cell clones equivalent to reruns.
//!
//! ```
//! use qgov_bench::harness::run_experiment;
//! use qgov_governors::PerformanceGovernor;
//! use qgov_sim::PlatformConfig;
//! use qgov_units::{Cycles, SimTime};
//! use qgov_workloads::SyntheticWorkload;
//!
//! let mut gov = PerformanceGovernor::new();
//! let mut app = SyntheticWorkload::constant(
//!     "demo", Cycles::from_mcycles(40), SimTime::from_ms(40), 30, 4, 0,
//! );
//! let outcome = run_experiment(&mut gov, &mut app, PlatformConfig::odroid_xu3_a15(), 30);
//! assert_eq!(outcome.report.frames(), 30);
//! assert_eq!(outcome.report.deadline_misses(), 0);
//! ```

use crate::manycore::ManyCoreOutcome;
use qgov_governors::{
    EpochObservation, Governor, GovernorContext, ManyCoreGovernor, ManyCoreObservation, VfDecision,
};
use qgov_metrics::{MonitorSample, PropertySet, RunReport};
use qgov_sim::{
    Actuation, FaultInjector, FaultPlan, ManyCoreFrameResult, ManyCorePlatform, Platform,
    PlatformConfig, SimError, Topology, WorkSlice,
};
use qgov_units::{Cycles, SimTime, Temp};
use qgov_workloads::{split_demand_into, Application, FrameDemand, WorkloadTrace};

/// Everything a finished run yields: the metrics report plus the
/// platform in its final state (for inspecting V-F transitions, energy
/// and temperatures).
#[derive(Debug)]
pub struct ExperimentOutcome {
    /// Accumulated per-run metrics.
    pub report: RunReport,
    /// The platform after the run.
    pub platform: Platform,
}

/// Applies a governor decision to the platform's shared rail, resolving
/// per-core requests to their maximum (the same arbitration `cpufreq`
/// applies within a frequency policy).
fn apply_decision(platform: &mut Platform, decision: &VfDecision) -> Result<(), SimError> {
    match decision {
        VfDecision::NoChange => Ok(()),
        VfDecision::Cluster(i) => platform.try_set_cluster_opp(*i),
        VfDecision::PerCore(_) => {
            platform.try_set_cluster_opp(decision.resolve_cluster(platform.current_opp()))
        }
    }
}

/// Maps a frame's per-thread demands onto per-core work slices (thread
/// `i` runs on core `i`; surplus threads fold onto the last core, idle
/// cores receive nothing). In-place form: `work` must already be sized
/// to the core count; its previous contents are overwritten — this is
/// the scratch buffer the frame loop reuses every epoch.
fn to_work_slices_into(demand: &FrameDemand, work: &mut [WorkSlice]) {
    work.fill(WorkSlice::IDLE);
    let cores = work.len();
    for (i, t) in demand.threads.iter().enumerate() {
        let core = i.min(cores - 1);
        work[core] = WorkSlice::new(
            work[core].cpu_cycles + t.cpu_cycles,
            work[core].mem_time + t.mem_time,
        );
    }
}

/// Allocating convenience wrapper over [`to_work_slices_into`].
#[cfg(test)]
fn to_work_slices(demand: &FrameDemand, cores: usize) -> Vec<WorkSlice> {
    let mut work = vec![WorkSlice::IDLE; cores];
    to_work_slices_into(demand, &mut work);
    work
}

/// Rewrites a governor decision through the injector's actuation fault
/// for this epoch — the seam where a faulty voltage regulator sits
/// between the RTM's request and the hardware:
///
/// * `Honest` — the request goes through unchanged. If a latched-fault
///   window just closed with a request still buffered, that delayed
///   request lands now *unless* the governor issued a newer one this
///   epoch (the newer request supersedes the stale buffer).
/// * `Ignored` — the request is dropped; the platform keeps its OPP.
/// * `Clamped(max)` — a real request is resolved to a cluster index and
///   capped at `max`; `NoChange` stays `NoChange` (nothing to clamp).
/// * `Latched` — a real request is buffered and the *previous* buffered
///   request (if any) is applied instead: every request lands one epoch
///   late for the duration of the fault window.
///
/// With an [empty plan](FaultPlan::is_empty) the actuation is always
/// `Honest` with no buffered request, so the decision passes through
/// untouched.
fn faulted_decision(
    injector: &mut FaultInjector,
    epoch: u64,
    cluster: usize,
    current_opp: usize,
    decision: VfDecision,
) -> VfDecision {
    match injector.actuation(epoch, cluster) {
        Actuation::Honest => {
            if let Some(delayed) = injector.take_latched(cluster) {
                if matches!(decision, VfDecision::NoChange) {
                    return VfDecision::Cluster(delayed);
                }
            }
            decision
        }
        Actuation::Ignored => VfDecision::NoChange,
        Actuation::Clamped(max_opp) => match decision {
            VfDecision::NoChange => VfDecision::NoChange,
            other => VfDecision::Cluster(other.resolve_cluster(current_opp).min(max_opp)),
        },
        Actuation::Latched => match decision {
            VfDecision::NoChange => injector
                .take_latched(cluster)
                .map_or(VfDecision::NoChange, VfDecision::Cluster),
            other => {
                let requested = other.resolve_cluster(current_opp);
                injector
                    .exchange_latched(cluster, requested)
                    .map_or(VfDecision::NoChange, VfDecision::Cluster)
            }
        },
    }
}

/// The options of [`run_manycore_experiment`] — the only knobs the
/// epoch kernel has. The default sets none of them: no faults, no
/// monitors, no per-cluster reports.
#[derive(Debug, Default)]
pub struct EpochOptions<'a> {
    /// The fault schedule. With a plan, an injector perturbs what the
    /// coordinator *senses*, rewrites what it *actuates* and moves dead
    /// cores' work, while every report and monitor keeps seeing ground
    /// truth:
    /// * sensing faults lie only in the copy of each cluster's frame
    ///   result the coordinator observes
    ///   ([`FaultInjector::perturb_sensing`]), and only in its
    ///   temperature and PMU channels. Timing channels (`frame_time`,
    ///   `wall_time`, slack) are never faulted: the frame barrier is
    ///   scheduler-observable, not a sensor;
    /// * actuation faults rewrite each cluster's decision before it is
    ///   applied: dropped, clamped to a ceiling, or latched one epoch
    ///   late;
    /// * a dead core's work moves onto its cluster's survivors
    ///   ([`FaultInjector::redistribute_dead`]). A wholly dead
    ///   cluster's work never executes, so its share misses every
    ///   deadline until the coordinator drains it.
    ///
    /// An empty plan makes every injector step a no-op, so the run is
    /// bit-identical to `None` (`tests/fault_injection.rs` pins this
    /// for every governor family).
    pub faults: Option<&'a FaultPlan>,
    /// Streaming monitors fed one chip-level [`MonitorSample`] per
    /// epoch, after the coordinator's decision: the barrier aggregates
    /// (slowest cluster's frame time, summed energy, chip-wide peak
    /// temperature, cluster 0's OPP) plus the coordinator's
    /// ε/convergence state. Samples are ground truth, never the sensed
    /// copy, so a thermal-cap property checks the real die even while
    /// the coordinator is fed a stuck sensor. Their verdicts are
    /// attached to the chip report
    /// ([`monitor_report`](RunReport::monitor_report)), and the caller
    /// keeps the set for further inspection.
    ///
    /// Monitoring never perturbs the run: the report equals the
    /// unmonitored run's bit for bit except for the attached verdicts,
    /// and the steady-state epoch stays allocation-free.
    pub monitors: Option<&'a mut PropertySet<MonitorSample>>,
    /// Keep one report per cluster. [`run_experiment`] keeps none: at
    /// long horizons a second report would double a run's resident
    /// frame stats.
    pub cluster_reports: bool,
}

/// Runs `coordinator` against `app` for `frames` epochs (capped at the
/// application's own length) on a chip built from `topology`, starting
/// from the `initial_shares` placement — the one epoch kernel every run
/// goes through.
///
/// The loop per decision epoch:
/// 1. split the frame's demand across clusters by the current share
///    vector, move dead cores' work onto their cluster's survivors, and
///    execute every slice to the chip-wide barrier;
/// 2. record the chip report, and the per-cluster reports when kept,
///    from ground truth;
/// 3. let the coordinator observe every cluster's frame result — a copy
///    perturbed by the injector's sensing faults when faults are
///    scheduled — decide each cluster's next operating point, and
///    rebalance the share vector;
/// 4. feed the monitors one chip-level sample of ground truth, taken
///    after the decision so ε/convergence reflect this epoch's
///    selection;
/// 5. rewrite each decision through its cluster's actuation fault,
///    apply it, and charge the cluster the coordinator's processing
///    overhead (the paper's `T_OVH`).
///
/// Work whose every candidate core is dead never executes, so such a
/// frame is a missed deadline however fast the survivors cross the
/// barrier. The first epoch on which a whole cluster is dead is
/// reported once to the coordinator
/// ([`ManyCoreGovernor::notify_cluster_dead`]): the hardened RTM
/// freezes that agent and drains its share, a naive coordinator keeps
/// feeding the corpse.
///
/// The application is mutated in place (reset, then driven to the
/// frame cap), so a batched sweep must hand every cell its own
/// instance — see the module docs and [`crate::runner`]. Steady state
/// is allocation-free: every buffer is built before the first epoch and
/// refilled in place, and every report pre-reserves its frame stats
/// (`tests/alloc_steady_state.rs`).
///
/// # Panics
///
/// Panics if the topology is invalid, `initial_shares` is not one share
/// per cluster, the fault plan names a cluster or core outside the
/// topology, or a decision is out of range — programming errors in the
/// experiment setup. Debug builds additionally panic if the application
/// does not rewind deterministically on `reset()`.
pub fn run_manycore_experiment(
    coordinator: &mut dyn ManyCoreGovernor,
    app: &mut dyn Application,
    topology: Topology,
    frames: u64,
    initial_shares: &[f64],
    options: EpochOptions<'_>,
) -> ManyCoreOutcome {
    let EpochOptions {
        faults,
        mut monitors,
        cluster_reports: keep_cluster_reports,
    } = options;
    let mut chip = ManyCorePlatform::new(topology).expect("valid topology");
    let n = chip.cluster_count();
    assert_eq!(initial_shares.len(), n, "one initial share per cluster");
    let period = app.period();

    let cores: Vec<usize> = (0..n).map(|c| chip.cores(c)).collect();
    let ctxs: Vec<GovernorContext> = (0..n)
        .map(|c| GovernorContext::new(chip.opp_table(c).clone(), cores[c], period))
        .collect();
    let mut injector = faults.map(|plan| FaultInjector::new(plan, 0, &cores));
    let mut notified = vec![false; n];

    app.reset();
    let pristine_first = debug_probe_reset_determinism(app);
    let mut decisions: Vec<VfDecision> = Vec::with_capacity(n);
    coordinator.init(&ctxs, &mut decisions);
    assert_eq!(decisions.len(), n, "one initial decision per cluster");
    for (c, decision) in decisions.iter().enumerate() {
        apply_decision(chip.cluster_mut(c), decision).expect("initial decision in range");
    }

    let total = frames.min(app.frames());
    let reserve = usize::try_from(total).unwrap_or(usize::MAX);
    let mut report = RunReport::new(coordinator.name(), app.name(), period);
    report.reserve_frames(reserve);
    let kept = if keep_cluster_reports { n } else { 0 };
    let mut cluster_reports: Vec<RunReport> = (0..kept)
        .map(|c| {
            let mut r = RunReport::new(coordinator.name(), chip.cluster_name(c), period);
            r.reserve_frames(reserve);
            r
        })
        .collect();

    let mut shares = initial_shares.to_vec();
    let mut demand = FrameDemand::default();
    let mut cluster_demands = vec![FrameDemand::default(); n];
    let mut work: Vec<Vec<WorkSlice>> = cores.iter().map(|&k| vec![WorkSlice::IDLE; k]).collect();
    let mut frame = ManyCoreFrameResult::empty();
    let mut sensed = ManyCoreFrameResult::empty();
    let mut lost = vec![Cycles::ZERO; n];

    for epoch in 0..total {
        if let Some(injector) = injector.as_mut() {
            injector.begin_epoch(epoch);
            for (c, seen) in notified.iter_mut().enumerate() {
                if !*seen && injector.cluster_dead(c) {
                    *seen = true;
                    coordinator.notify_cluster_dead(c);
                }
            }
        }
        app.next_frame_into(&mut demand);
        split_demand_into(&demand, &shares, &cores, &mut cluster_demands);
        for (c, (slices, slice_demand)) in work.iter_mut().zip(&cluster_demands).enumerate() {
            to_work_slices_into(slice_demand, slices);
            if let Some(injector) = &injector {
                lost[c] = injector.redistribute_dead(c, slices);
            }
        }
        chip.run_frame_into(&work, period, &mut frame)
            .expect("work buffers sized to the topology");
        let chip_met = frame.met_deadline() && lost.iter().all(|l| l.is_zero());
        report.record_frame(
            frame.frame_time,
            frame.wall_time,
            frame.energy,
            frame.clusters[0].cluster_opp,
            chip_met,
        );
        for (c, cluster_report) in cluster_reports.iter_mut().enumerate() {
            let f = &frame.clusters[c];
            cluster_report.record_frame(
                f.frame_time,
                f.wall_time,
                f.energy,
                f.cluster_opp,
                f.met_deadline() && lost[c].is_zero(),
            );
        }
        let observed = match &injector {
            Some(injector) => {
                sensed.copy_from(&frame);
                for (c, cluster_frame) in sensed.clusters.iter_mut().enumerate() {
                    injector.perturb_sensing(epoch, c, cluster_frame);
                }
                &sensed.clusters
            }
            None => &frame.clusters,
        };
        coordinator.decide_into(
            &ManyCoreObservation {
                frames: observed,
                epoch,
            },
            &mut decisions,
            &mut shares,
        );
        assert_eq!(decisions.len(), n, "one decision per cluster");
        if let Some(monitors) = monitors.as_deref_mut() {
            let peak = frame
                .clusters
                .iter()
                .map(|f| f.temperature)
                .fold(frame.clusters[0].temperature, Temp::max);
            monitors.observe(&MonitorSample {
                epoch,
                frame_time_ratio: frame.frame_time.ratio(period),
                met_deadline: chip_met,
                opp: frame.clusters[0].cluster_opp,
                temperature_c: peak.as_celsius(),
                energy_j: frame.energy.as_joules(),
                epsilon: coordinator.exploration_epsilon().unwrap_or(f64::NAN),
                converged: coordinator.has_converged().unwrap_or(false),
            });
        }
        for (c, decision) in decisions.iter_mut().enumerate() {
            if let Some(injector) = injector.as_mut() {
                let requested = std::mem::replace(decision, VfDecision::NoChange);
                *decision = faulted_decision(injector, epoch, c, chip.current_opp(c), requested);
            }
            apply_decision(chip.cluster_mut(c), decision).expect("decision in range");
            chip.add_overhead(c, coordinator.processing_overhead(c));
        }
    }

    report.set_run_totals(
        chip.total_energy(),
        chip.total_transitions(),
        chip.total_transition_latency(),
        chip.peak_temperature(),
    );
    for (c, cluster_report) in cluster_reports.iter_mut().enumerate() {
        let cluster = chip.cluster(c);
        cluster_report.set_run_totals(
            cluster.total_energy(),
            cluster.vf().transitions(),
            cluster.vf().total_latency(),
            cluster.peak_temperature(),
        );
    }
    if let Some(monitors) = monitors {
        report.set_monitor_report(monitors.report());
    }
    debug_assert_no_run_state_bleed(app, pristine_first.as_ref(), total);
    ManyCoreOutcome {
        report,
        cluster_reports,
        platform: chip,
        shares,
    }
}

/// A borrowed single-cluster [`Governor`] as the coordinator of a
/// one-cluster chip.
struct OneCluster<'a>(&'a mut dyn Governor);

impl ManyCoreGovernor for OneCluster<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn init(&mut self, ctxs: &[GovernorContext], decisions: &mut Vec<VfDecision>) {
        decisions.clear();
        decisions.push(self.0.init(&ctxs[0]));
    }

    fn decide_into(
        &mut self,
        obs: &ManyCoreObservation<'_>,
        decisions: &mut Vec<VfDecision>,
        _shares: &mut [f64],
    ) {
        decisions.clear();
        decisions.push(self.0.decide(&EpochObservation {
            frame: &obs.frames[0],
            epoch: obs.epoch,
        }));
    }

    fn processing_overhead(&self, _cluster: usize) -> SimTime {
        self.0.processing_overhead()
    }

    fn exploration_epsilon(&self) -> Option<f64> {
        self.0.exploration_epsilon()
    }

    fn has_converged(&self) -> Option<bool> {
        self.0.has_converged()
    }
}

/// Runs `governor` against `app` for `frames` epochs (capped at the
/// application's own length) on a one-cluster chip built from
/// `platform_config`, with no [`EpochOptions`] set, and returns that
/// cluster's platform. The cluster holds the whole share, so the demand
/// split passes every thread through and each frame runs the unchanged
/// [`Platform`] kernel; [`run_manycore_experiment`] documents the loop.
///
/// # Panics
///
/// Panics as [`run_manycore_experiment`] does.
pub fn run_experiment(
    governor: &mut dyn Governor,
    app: &mut dyn Application,
    platform_config: PlatformConfig,
    frames: u64,
) -> ExperimentOutcome {
    let outcome = run_manycore_experiment(
        &mut OneCluster(governor),
        app,
        Topology::single(platform_config),
        frames,
        &[1.0],
        EpochOptions::default(),
    );
    let platform = outcome.platform.into_clusters().pop().expect("one cluster");
    ExperimentOutcome {
        report: outcome.report,
        platform,
    }
}

/// Debug-build guard for the serial/parallel seam: every batch cell
/// must own a fresh application (or trace clone), and that only
/// substitutes for a rerun when `reset()` rewinds to the identical
/// frame sequence. Probes the first frame twice across a reset,
/// leaves the application reset, and returns the probed frame (debug
/// builds only) so [`debug_assert_no_run_state_bleed`] can re-check it
/// after the run.
fn debug_probe_reset_determinism(app: &mut dyn Application) -> Option<FrameDemand> {
    if cfg!(debug_assertions) && app.frames() > 0 {
        let first = app.next_frame();
        app.reset();
        let again = app.next_frame();
        app.reset();
        assert_eq!(
            first,
            again,
            "{}: Application::reset() must rewind deterministically; \
             hand each batch cell a fresh app/trace instance instead of \
             sharing one (see qgov_bench::runner)",
            app.name()
        );
        Some(first)
    } else {
        None
    }
}

/// Debug-build guard for the cross-seed seam of a multi-seed batch:
/// after a full run, `reset()` must still rewind to the *pristine*
/// frame sequence probed before the run. An application that passes
/// the entry probe but fails here carries state its runs mutate and
/// its `reset()` does not clear — exactly the mechanism by which one
/// seed's cell would bleed into a later cell handed the same instance
/// (a sweep aggregating such an app would depend on cell scheduling).
/// Leaves the application where the release path leaves it: advanced
/// by `total` frames.
fn debug_assert_no_run_state_bleed(
    app: &mut dyn Application,
    pristine_first: Option<&FrameDemand>,
    total: u64,
) {
    // `pristine_first` is `Some` only in debug builds (see
    // `debug_probe_reset_determinism`).
    if let Some(pristine) = pristine_first {
        app.reset();
        let after_run = app.next_frame();
        assert_eq!(
            pristine,
            &after_run,
            "{}: a full run perturbed the reset() frame sequence — the \
             application carries cross-run state, which would bleed \
             between the seeds of one batch; give each cell a fresh \
             instance whose runs leave reset() pristine (see \
             qgov_bench::experiments::Experiment::run)",
            app.name()
        );
        // Restore the release-path cursor position.
        app.reset();
        for _ in 0..total {
            let _ = app.next_frame();
        }
    }
}

/// Records `app` into a trace and returns `(trace, (min, max))` total
/// cycles per frame ([`WorkloadTrace::workload_bounds`]) — the offline
/// pre-characterisation every learning governor and the Oracle receive
/// (Section II-A's "design space exploration").
///
/// Recording **mutates `app` in place**: it is reset, fully drained and
/// reset again. Call this once per experiment and give every batch
/// cell its own clone of the returned trace — never the live `app` —
/// so parallel cells cannot observe each other's cursor state. Debug
/// builds assert the application rewinds deterministically on
/// `reset()`, the property that makes trace clones equivalent to
/// reruns.
#[must_use]
pub fn precharacterize(app: &mut dyn Application) -> (WorkloadTrace, (f64, f64)) {
    let _ = debug_probe_reset_determinism(app);
    let trace = WorkloadTrace::record(app);
    let bounds = trace.workload_bounds();
    (trace, bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgov_governors::{
        OndemandGovernor, PerClusterGovernors, PerformanceGovernor, PowersaveGovernor,
    };
    use qgov_units::{Cycles, SimTime};
    use qgov_workloads::SyntheticWorkload;

    fn medium_app(frames: u64) -> SyntheticWorkload {
        // 25 Mc/core in 40 ms: needs >= ~640 MHz.
        SyntheticWorkload::constant(
            "medium",
            Cycles::from_mcycles(100),
            SimTime::from_ms(40),
            frames,
            4,
            3,
        )
    }

    #[test]
    fn performance_governor_always_meets_feasible_deadlines() {
        let mut gov = PerformanceGovernor::new();
        let outcome = run_experiment(
            &mut gov,
            &mut medium_app(50),
            PlatformConfig::odroid_xu3_a15(),
            50,
        );
        assert_eq!(outcome.report.deadline_misses(), 0);
        assert_eq!(outcome.report.frames(), 50);
        assert!(outcome.report.normalized_performance() < 0.5);
    }

    #[test]
    fn powersave_misses_what_performance_meets() {
        let mut gov = PowersaveGovernor::new();
        let outcome = run_experiment(
            &mut gov,
            &mut medium_app(50),
            PlatformConfig::odroid_xu3_a15(),
            50,
        );
        assert!(
            outcome.report.miss_rate() > 0.9,
            "200 MHz cannot hold 640 MHz of work"
        );
        assert!(outcome.report.normalized_performance() > 1.0);
    }

    #[test]
    fn powersave_uses_less_energy_than_performance() {
        let run = |gov: &mut dyn Governor| {
            run_experiment(
                gov,
                &mut medium_app(50),
                PlatformConfig::odroid_xu3_a15(),
                50,
            )
            .report
            .total_energy()
        };
        let hi = run(&mut PerformanceGovernor::new());
        let lo = run(&mut PowersaveGovernor::new());
        assert!(lo < hi);
    }

    #[test]
    fn frame_cap_respects_app_length() {
        let mut gov = PerformanceGovernor::new();
        let outcome = run_experiment(
            &mut gov,
            &mut medium_app(10),
            PlatformConfig::odroid_xu3_a15(),
            1_000,
        );
        assert_eq!(outcome.report.frames(), 10);
    }

    #[test]
    fn ondemand_tracks_load_between_extremes() {
        let mut gov = OndemandGovernor::linux_default();
        let outcome = run_experiment(
            &mut gov,
            &mut medium_app(200),
            PlatformConfig::odroid_xu3_a15(),
            200,
        );
        let mean_opp = outcome.report.mean_opp();
        assert!(
            mean_opp > 1.0,
            "ondemand should leave the bottom ({mean_opp:.1})"
        );
        // Proportional scaling on a 60 %-utilisation workload must not
        // pin the top.
        assert!(
            mean_opp < 18.0,
            "ondemand should not pin the top ({mean_opp:.1})"
        );
    }

    #[test]
    fn surplus_threads_fold_onto_last_core() {
        let demand =
            qgov_workloads::FrameDemand::split_evenly(Cycles::from_mcycles(60), 6, SimTime::ZERO);
        let work = to_work_slices(&demand, 4);
        assert_eq!(work.len(), 4);
        let total: u64 = work.iter().map(|w| w.cpu_cycles.count()).sum();
        assert_eq!(total, 60_000_000, "no cycles lost in folding");
        assert!(work[3].cpu_cycles > work[0].cpu_cycles);
    }

    #[test]
    fn precharacterize_reports_bounds() {
        let mut app = medium_app(30);
        let (trace, (min, max)) = precharacterize(&mut app);
        assert_eq!(trace.len(), 30);
        assert!(min < max);
        assert!(min > 0.0);
        // Constant workload: bounds are the widened +-10 %.
        assert!((max / min - 1.1 / 0.9).abs() < 0.03);
    }

    /// An application whose `reset()` does not rewind — the failure
    /// mode of sharing one live app across batch cells.
    #[cfg(debug_assertions)]
    struct NonRewindingApp {
        counter: u64,
    }

    #[cfg(debug_assertions)]
    impl qgov_workloads::Application for NonRewindingApp {
        fn name(&self) -> &str {
            "non-rewinding"
        }
        fn period(&self) -> SimTime {
            SimTime::from_ms(40)
        }
        fn frames(&self) -> u64 {
            5
        }
        fn next_frame(&mut self) -> qgov_workloads::FrameDemand {
            self.counter += 1;
            qgov_workloads::FrameDemand::split_evenly(
                Cycles::from_mcycles(self.counter),
                2,
                SimTime::ZERO,
            )
        }
        fn reset(&mut self) {
            // Deliberately keeps its cursor: replaying diverges.
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "rewind deterministically")]
    fn non_rewinding_app_is_caught_in_debug_builds() {
        let mut gov = PerformanceGovernor::new();
        let mut app = NonRewindingApp { counter: 0 };
        let _ = run_experiment(&mut gov, &mut app, PlatformConfig::odroid_xu3_a15(), 5);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "rewind deterministically")]
    fn precharacterize_catches_non_rewinding_app() {
        let mut app = NonRewindingApp { counter: 0 };
        let _ = precharacterize(&mut app);
    }

    /// An application that *passes* the entry probe (reset rewinds the
    /// cursor) but whose runs mutate state reset does not clear: the
    /// last frame of every full run bumps `drift`, shifting all
    /// subsequent frame demands. This is the cross-seed bleed shape —
    /// one seed's completed cell changing what a later cell replaying
    /// the same instance observes.
    #[cfg(debug_assertions)]
    struct DriftingApp {
        cursor: u64,
        drift: u64,
    }

    #[cfg(debug_assertions)]
    impl qgov_workloads::Application for DriftingApp {
        fn name(&self) -> &str {
            "drifting"
        }
        fn period(&self) -> SimTime {
            SimTime::from_ms(40)
        }
        fn frames(&self) -> u64 {
            5
        }
        fn next_frame(&mut self) -> qgov_workloads::FrameDemand {
            let demand = qgov_workloads::FrameDemand::split_evenly(
                Cycles::from_mcycles(10 + self.drift * 100 + self.cursor),
                2,
                SimTime::ZERO,
            );
            self.cursor += 1;
            if self.cursor == self.frames() {
                self.drift += 1; // survives reset(): cross-run state
            }
            demand
        }
        fn reset(&mut self) {
            self.cursor = 0;
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "bleed")]
    fn cross_run_state_bleed_is_caught_in_debug_builds() {
        let mut gov = PerformanceGovernor::new();
        let mut app = DriftingApp {
            cursor: 0,
            drift: 0,
        };
        let _ = run_experiment(&mut gov, &mut app, PlatformConfig::odroid_xu3_a15(), 5);
    }

    #[test]
    fn post_run_guard_leaves_the_cursor_where_release_does() {
        // A second run_experiment on the same (well-behaved) app must
        // see the identical sequence: the debug-only post-run probe
        // re-advances the cursor so debug and release paths leave the
        // same state behind.
        let mut app = medium_app(20);
        let run = |app: &mut SyntheticWorkload| {
            let mut gov = PerformanceGovernor::new();
            run_experiment(&mut gov, app, PlatformConfig::odroid_xu3_a15(), 20)
                .report
                .total_energy()
                .as_joules()
                .to_bits()
        };
        assert_eq!(run(&mut app), run(&mut app));
    }

    #[test]
    fn identical_runs_are_identical() {
        let run = || {
            let mut gov = OndemandGovernor::linux_default();
            let outcome = run_experiment(
                &mut gov,
                &mut medium_app(80),
                PlatformConfig::odroid_xu3_a15(),
                80,
            );
            outcome.report.total_energy().as_joules().to_bits()
        };
        assert_eq!(run(), run());
    }

    /// Linux-default ondemand on a one-cluster chip through the entry,
    /// under `faults`.
    fn ondemand_on_one_cluster(frames: u64, faults: &FaultPlan) -> ManyCoreOutcome {
        let mut gov = PerClusterGovernors::new(
            "ondemand",
            vec![Box::new(OndemandGovernor::linux_default())],
        );
        run_manycore_experiment(
            &mut gov,
            &mut medium_app(frames),
            Topology::single(PlatformConfig::odroid_xu3_a15()),
            frames,
            &[1.0],
            EpochOptions {
                faults: Some(faults),
                ..EpochOptions::default()
            },
        )
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_fault_free() {
        let plain = {
            let mut gov = OndemandGovernor::linux_default();
            run_experiment(
                &mut gov,
                &mut medium_app(80),
                PlatformConfig::odroid_xu3_a15(),
                80,
            )
        };
        let faulted = ondemand_on_one_cluster(80, &FaultPlan::none());
        assert_eq!(
            plain.report.total_energy().as_joules().to_bits(),
            faulted.report.total_energy().as_joules().to_bits()
        );
        assert_eq!(plain.report.mean_opp(), faulted.report.mean_opp());
        assert_eq!(
            plain.platform.vf().transitions(),
            faulted.platform.cluster(0).vf().transitions()
        );
    }

    #[test]
    fn ignored_actuation_pins_the_governor_out_of_the_loop() {
        use qgov_sim::{Fault, FaultKind};
        let plan = FaultPlan::none().with(Fault::permanent(FaultKind::ActuationIgnored, 0, 0));
        let outcome = ondemand_on_one_cluster(100, &plan);
        // Only the (pre-fault) init decision can ever land: the
        // platform's OPP is frozen for the whole run.
        let transitions = outcome.platform.cluster(0).vf().transitions();
        assert!(
            transitions <= 1,
            "ignored actuation must freeze the OPP ({transitions} transitions)"
        );
    }

    #[test]
    fn latched_actuation_delays_requests_one_epoch() {
        use qgov_sim::{Fault, FaultKind};
        let plan = FaultPlan::none().with(Fault::window(FaultKind::ActuationLatched, 0, 0, 10));
        let mut inj = FaultInjector::single(&plan, 4);
        inj.begin_epoch(0);
        // The first request is buffered; nothing lands yet.
        assert_eq!(
            faulted_decision(&mut inj, 0, 0, 5, VfDecision::Cluster(7)),
            VfDecision::NoChange
        );
        // The next request swaps with the buffer: epoch 0's lands now.
        assert_eq!(
            faulted_decision(&mut inj, 1, 0, 5, VfDecision::Cluster(9)),
            VfDecision::Cluster(7)
        );
        // After the window a silent epoch flushes the leftover buffer…
        assert_eq!(
            faulted_decision(&mut inj, 10, 0, 5, VfDecision::NoChange),
            VfDecision::Cluster(9)
        );
        // …and then service is honest again.
        assert_eq!(
            faulted_decision(&mut inj, 11, 0, 5, VfDecision::NoChange),
            VfDecision::NoChange
        );
    }
}
