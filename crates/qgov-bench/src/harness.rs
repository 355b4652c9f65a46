//! The experiment loop: governor × application × platform → report.
//!
//! Every public `run_*` entry point of this crate is a one-line wrapper
//! over one private epoch kernel, which steps a [`ManyCoreGovernor`]
//! over a freshly built [`ManyCorePlatform`]. The kernel has three
//! options and no others: a fault plan, a monitor set, and whether
//! per-cluster reports are kept. The flat entry points here
//! ([`run_experiment`], [`run_experiment_monitored`],
//! [`run_experiment_faulted`]) run a one-cluster [`Topology`] through an
//! adapter over the borrowed [`Governor`] and return that cluster's
//! [`Platform`]; the chip-level entry points live in
//! [`crate::manycore`].
//!
//! [`run_experiment`] is the single-cell kernel every batched sweep in
//! [`crate::runner`] bottoms out in: one governor driving one
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
    PlatformConfig, SimError, Topology, VfDomain, WorkSlice,
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

/// Applies a governor decision to the platform, resolving per-core
/// requests to the cluster maximum on shared-rail hardware (the same
/// arbitration `cpufreq` applies within a frequency policy).
fn apply_decision(platform: &mut Platform, decision: &VfDecision) -> Result<(), SimError> {
    match (platform.vf().domain(), decision) {
        (_, VfDecision::NoChange) => Ok(()),
        (_, VfDecision::Cluster(i)) => platform.try_set_cluster_opp(*i),
        (VfDomain::PerCore, VfDecision::PerCore(per)) => {
            for (core, &opp) in per.iter().enumerate() {
                platform.try_set_core_opp(core, opp)?;
            }
            Ok(())
        }
        (VfDomain::PerCluster, VfDecision::PerCore(_)) => {
            let resolved = decision.resolve_cluster(platform.current_opp());
            platform.try_set_cluster_opp(resolved)
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

/// The epoch kernel's options — the only knobs it has.
#[derive(Default)]
pub(crate) struct EpochOptions<'a> {
    /// The fault schedule. `None` runs without an injector; an empty
    /// plan runs bit-identically to `None` (`tests/fault_injection.rs`).
    pub(crate) faults: Option<&'a FaultPlan>,
    /// Streaming monitors fed one chip-level [`MonitorSample`] of ground
    /// truth per epoch; their verdicts are attached to the chip report.
    pub(crate) monitors: Option<&'a mut PropertySet<MonitorSample>>,
    /// Keep one report per cluster. The flat entry points do not: at
    /// long horizons a second report would double a run's resident
    /// frame stats.
    pub(crate) cluster_reports: bool,
}

/// The epoch kernel behind every public `run_*` entry point: runs
/// `coordinator` against `app` for `frames` epochs (capped at the
/// application's own length) on a chip built from `topology`, starting
/// from the `initial_shares` placement.
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
/// ([`ManyCoreGovernor::notify_cluster_dead`]).
///
/// Steady state is allocation-free: every buffer is built before the
/// first epoch and refilled in place, and every report pre-reserves its
/// frame stats (`tests/alloc_steady_state.rs`).
///
/// # Panics
///
/// Panics if the topology is invalid, `initial_shares` is not one share
/// per cluster, the fault plan names a cluster or core outside the
/// topology, or a decision is out of range — programming errors in the
/// experiment setup. Debug builds additionally panic if the application
/// does not rewind deterministically on `reset()`.
pub(crate) fn run_epochs(
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

/// Runs the epoch kernel on a one-cluster chip built from
/// `platform_config` and returns that cluster's platform. The cluster
/// holds the whole share, so the demand split passes every thread
/// through and each frame runs the unchanged [`Platform`] kernel.
fn run_flat(
    governor: &mut dyn Governor,
    app: &mut dyn Application,
    platform_config: PlatformConfig,
    frames: u64,
    options: EpochOptions<'_>,
) -> ExperimentOutcome {
    let outcome = run_epochs(
        &mut OneCluster(governor),
        app,
        Topology::single(platform_config),
        frames,
        &[1.0],
        options,
    );
    let platform = outcome.platform.into_clusters().pop().expect("one cluster");
    ExperimentOutcome {
        report: outcome.report,
        platform,
    }
}

/// Runs `governor` against `app` for `frames` epochs (capped at the
/// application's own length if shorter than requested) on a platform
/// built from `platform_config`.
///
/// The loop per decision epoch:
/// 1. fetch the frame's work demand and execute it to the barrier;
/// 2. record metrics;
/// 3. let the governor observe the completed frame and decide the next
///    operating point;
/// 4. charge the governor's processing overhead and the V-F transition
///    latency to the next frame (the paper's `T_OVH`).
///
/// The application is mutated in place (reset, then driven to the
/// frame cap), so a batched sweep must hand every cell its own
/// instance — see the module docs and [`crate::runner`].
///
/// # Panics
///
/// Panics if the platform configuration is invalid or a decision is out
/// of range — both indicate programming errors in the experiment setup.
/// Debug builds additionally panic if the application does not rewind
/// deterministically on `reset()` (the symptom of a cell sharing — or
/// having inherited dirty state from — another cell's application).
pub fn run_experiment(
    governor: &mut dyn Governor,
    app: &mut dyn Application,
    platform_config: PlatformConfig,
    frames: u64,
) -> ExperimentOutcome {
    run_flat(
        governor,
        app,
        platform_config,
        frames,
        EpochOptions::default(),
    )
}

/// [`run_experiment`] with a streaming temporal-property monitor riding
/// along: after every epoch's decision the loop fills one
/// [`MonitorSample`] in place (frame timing, OPP, temperature, energy,
/// plus the governor's ε/convergence state via
/// [`Governor::exploration_epsilon`] /
/// [`Governor::has_converged`]) and feeds it to `monitors`.
///
/// Monitoring never perturbs the run — the returned report equals the
/// unmonitored run's bit-for-bit except for the attached
/// [`monitor_report`](RunReport::monitor_report) — and adds no heap
/// allocations to the steady-state epoch (`tests/alloc_steady_state.rs`
/// pins this). The caller keeps `monitors` for further inspection; the
/// verdicts at end of run are also folded into the report.
pub fn run_experiment_monitored(
    governor: &mut dyn Governor,
    app: &mut dyn Application,
    platform_config: PlatformConfig,
    frames: u64,
    monitors: &mut PropertySet<MonitorSample>,
) -> ExperimentOutcome {
    run_flat(
        governor,
        app,
        platform_config,
        frames,
        EpochOptions {
            monitors: Some(monitors),
            ..EpochOptions::default()
        },
    )
}

/// [`run_experiment`] under a deterministic fault schedule: the
/// injector perturbs what the governor *senses*, rewrites what it
/// *actuates*, and redistributes the work of dropped cores — while the
/// report keeps observing ground truth.
///
/// Per epoch the loop:
/// 1. builds the frame's work slices, then moves any dead core's work
///    onto the survivors ([`FaultInjector::redistribute_dead`] — the
///    scheduler sees the drop-out, so its cycles land elsewhere);
/// 2. executes the frame and records **truth** in the report;
/// 3. copies the frame result and perturbs the copy
///    ([`FaultInjector::perturb_sensing`]) — the governor decides on
///    the faulted view;
/// 4. rewrites the decision through the actuation fault before
///    applying it.
///
/// Timing channels (`frame_time`, `wall_time`, slack) are never
/// faulted: the frame barrier is scheduler-observable, not a sensor.
/// Only the sensed copy's temperature and PMU channels can lie.
///
/// With an empty `plan` every injector step is a no-op and the run is
/// bit-identical to [`run_experiment`] (`tests/fault_injection.rs` pins
/// this property across governor families).
///
/// # Panics
///
/// Panics as [`run_experiment`] does, and if `plan` names a cluster
/// other than 0 or a core outside the platform (flat harness = one
/// cluster).
pub fn run_experiment_faulted(
    governor: &mut dyn Governor,
    app: &mut dyn Application,
    platform_config: PlatformConfig,
    frames: u64,
    plan: &FaultPlan,
) -> ExperimentOutcome {
    run_flat(
        governor,
        app,
        platform_config,
        frames,
        EpochOptions {
            faults: Some(plan),
            ..EpochOptions::default()
        },
    )
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
    use qgov_governors::{OndemandGovernor, PerformanceGovernor, PowersaveGovernor};
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
        let faulted = {
            let mut gov = OndemandGovernor::linux_default();
            run_experiment_faulted(
                &mut gov,
                &mut medium_app(80),
                PlatformConfig::odroid_xu3_a15(),
                80,
                &FaultPlan::none(),
            )
        };
        assert_eq!(
            plain.report.total_energy().as_joules().to_bits(),
            faulted.report.total_energy().as_joules().to_bits()
        );
        assert_eq!(plain.report.mean_opp(), faulted.report.mean_opp());
        assert_eq!(
            plain.platform.vf().transitions(),
            faulted.platform.vf().transitions()
        );
    }

    #[test]
    fn ignored_actuation_pins_the_governor_out_of_the_loop() {
        use qgov_sim::{Fault, FaultKind};
        let plan = FaultPlan::none().with(Fault::permanent(FaultKind::ActuationIgnored, 0, 0));
        let mut gov = OndemandGovernor::linux_default();
        let outcome = run_experiment_faulted(
            &mut gov,
            &mut medium_app(100),
            PlatformConfig::odroid_xu3_a15(),
            100,
            &plan,
        );
        // Only the (pre-fault) init decision can ever land: the
        // platform's OPP is frozen for the whole run.
        assert!(
            outcome.platform.vf().transitions() <= 1,
            "ignored actuation must freeze the OPP ({} transitions)",
            outcome.platform.vf().transitions()
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
