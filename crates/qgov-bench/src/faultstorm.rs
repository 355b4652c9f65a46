//! The fault-storm experiment: hardened, self-healing RTM vs naive RTM
//! vs ondemand under one identical deterministic fault schedule.
//!
//! The paper's RTM assumes its sensors tell the truth and its cores
//! stay alive. This experiment drops both assumptions at once, on a
//! two-cluster chip:
//!
//! * early in the run, cluster 0's PMUs stick at a garbage cycle count
//!   and its thermal sensor spikes — transient sensor lies aimed
//!   straight at the workload predictor;
//! * at mid-run, **every core of cluster 1 drops out permanently**.
//!   Work routed to the dead cluster never executes, so every frame
//!   with a non-zero share there is a missed deadline — and only task
//!   migration can stop the bleeding.
//!
//! Three coordinators face the identical storm on the identical
//! recorded workload:
//!
//! * **rtm-hardened** — [`ManyCoreRtm`] with every per-cluster agent
//!   behind a [`PlausibilityFilter`](qgov_core::PlausibilityFilter):
//!   implausible sensor frames are quarantined (last-good
//!   substitution, safe-state fallback after a run of rejections), and
//!   the dead-cluster notification drains the corpse's work share to
//!   the survivor. It degrades gracefully and recovers.
//! * **rtm-naive** — the same per-cluster Q-learning RTM agents on a
//!   static placement ([`PerClusterGovernors`]): no plausibility
//!   filter, no migration, dead-cluster notifications ignored. Half
//!   the work is routed into the void forever; it never recovers.
//! * **ondemand** — the classic reactive baseline on the same static
//!   placement; equally unable to reroute the dead cluster's share.
//!
//! Each run carries the [`recovery_pack`] temporal monitors (on ground
//! truth — the thermal cap is checked on the die, not on a lying
//! sensor) plus a [`RecoveryTracker`] folding the deadline stream into
//! time-to-recover / worst-excursion stats. `tests/fault_recovery.rs`
//! pins the headline: the hardened RTM's properties all hold while the
//! naive RTM's recovery property is violated.

use crate::experiments::{Experiment, TracePrep};
use crate::harness::{run_manycore_experiment, EpochOptions};
use crate::plan::RunPlan;
use crate::worklist::{slug, CellMetrics};
use qgov_core::{HardeningConfig, ManyCoreRtm, RtmConfig, RtmGovernor};
use qgov_governors::{Governor, ManyCoreGovernor, PerClusterGovernors};
use qgov_metrics::{
    recovery_pack, ComparisonTable, MonitorReport, PackConfig, RecoveryConfig, RecoveryStats,
    RecoveryTracker, RunReport,
};
use qgov_sim::{Fault, FaultKind, FaultPlan, PlatformConfig, Topology};
use qgov_units::{Cycles, SimTime};
use qgov_workloads::SyntheticWorkload;

/// Clusters on the fault-storm chip (cluster 1 is the one that dies).
const FAULTSTORM_CLUSTERS: usize = 2;

/// Epochs after the mid-run cluster drop before the recovery property
/// starts gating (time granted to drain the dead cluster's share and
/// re-learn the survivor's operating point).
pub const FAULTSTORM_GRACE: u64 = 50;

/// The epoch the permanent cluster drop lands: mid-run.
#[must_use]
pub fn fault_storm_drop_epoch(frames: u64) -> u64 {
    frames / 2
}

/// The standard fault schedule every fault-storm cell replays:
///
/// * cluster 0's PMUs stuck at 1000 cycles for 40 epochs starting at
///   10 % of the run — the workload predictor's input becomes garbage
///   (a hardened agent quarantines the frames; a naive agent learns
///   around the lie through its slack signal);
/// * a +25 °C thermal spike on cluster 0 for 30 epochs starting at
///   20 % of the run (out-of-rate, so a hardened agent substitutes
///   last-good);
/// * at mid-run, **permanently**: all four cores of cluster 1 drop
///   out. Work still routed there never executes — only a coordinator
///   that drains the dead cluster's share recovers.
#[must_use]
pub fn standard_fault_schedule(frames: u64) -> FaultPlan {
    let drop = fault_storm_drop_epoch(frames);
    let mut plan = FaultPlan::none()
        .with(Fault::window(
            FaultKind::PmuStuck { cycles: 1_000 },
            0,
            frames / 10,
            frames / 10 + 40,
        ))
        .with(Fault::window(
            FaultKind::TempSpike { delta_c: 25.0 },
            0,
            frames / 5,
            frames / 5 + 30,
        ));
    for core in 0..4 {
        plan.push(Fault::permanent(FaultKind::CoreDrop { core }, 1, drop));
    }
    plan
}

/// The fault-storm workload: 200 Mcycles over four threads per 40 ms
/// frame, with 5 % noise. Four threads — one quad's worth — so that
/// after the cluster drop the pass-through placement still packs one
/// thread per surviving core. Sized so ONE A15 quad can hold the whole
/// demand (50 Mc per core against an 80 Mc budget at 2 GHz): the
/// post-drop chip is recoverable, and failing to recover is a
/// coordinator defect, not physics.
#[must_use]
pub fn fault_storm_app(seed: u64, frames: u64) -> SyntheticWorkload {
    SyntheticWorkload::constant(
        "fault-storm",
        Cycles::from_mcycles(200),
        SimTime::from_ms(40),
        frames,
        4,
        seed,
    )
    .with_noise(0.05)
}

/// One coordinator's run through the storm, as raw data (batch-cell
/// friendly: no platform handle).
#[derive(Debug, Clone)]
pub struct FaultStormCell {
    pub(crate) report: RunReport,
    pub(crate) recovery: RecoveryStats,
    pub(crate) safe_state_epochs: u64,
}

/// One coordinator's outcome under the storm.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultStormRow {
    /// Coordinator label (`rtm-hardened`, `rtm-naive`, `ondemand`).
    pub governor: String,
    /// Absolute chip energy in joules.
    pub energy_joules: f64,
    /// Whole-run deadline miss rate (dropped work counts as a miss).
    pub miss_rate: f64,
    /// Miss rate over the post-drop half of the run only — where the
    /// permanent cluster drop separates the coordinators.
    pub post_drop_miss_rate: f64,
    /// Recovery stats folded from the deadline stream.
    pub recovery: RecoveryStats,
    /// Epochs spent in safe-state fallback, summed over hardened
    /// agents (zero for the unhardened contenders).
    pub safe_state_epochs: u64,
    /// Verdicts of the [`recovery_pack`] temporal monitors.
    pub monitor: Option<MonitorReport>,
}

/// The fault-storm comparison bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultStormResult {
    /// One row per coordinator: hardened RTM, naive RTM, ondemand.
    pub rows: Vec<FaultStormRow>,
    /// The epoch the permanent cluster drop landed.
    pub drop_epoch: u64,
    /// Rendered comparison table.
    pub table: ComparisonTable,
}

/// **Fault storm**: all three coordinators replay the identical
/// recorded trace under the identical fault schedule — the
/// [standard schedule](standard_fault_schedule), or the empty plan when
/// the run plan turns faults off. Each cell carries the recovery
/// monitors ([`PackConfig::paper`]) and folds its deadline stream into
/// [`RecoveryStats`].
#[derive(Debug, Clone, Copy)]
pub struct FaultStorm;

impl Experiment for FaultStorm {
    const LABELS: &'static [&'static str] = &["rtm-hardened", "rtm-naive", "ondemand"];
    type Prep = TracePrep;
    type Cell = FaultStormCell;
    type Output = FaultStormResult;

    fn prepare(plan: &RunPlan, seed: u64) -> TracePrep {
        TracePrep::record(&mut fault_storm_app(seed, plan.frames))
    }

    fn cell(plan: &RunPlan, label: &str, prep: &TracePrep, seed: u64) -> FaultStormCell {
        let frames = plan.frames;
        let faults = if plan.faults {
            standard_fault_schedule(frames)
        } else {
            FaultPlan::none()
        };
        let pack = PackConfig::paper();
        let drop = fault_storm_drop_epoch(frames);
        let topology =
            Topology::homogeneous_mesh(FAULTSTORM_CLUSTERS, PlatformConfig::odroid_xu3_a15());
        let shares = vec![1.0 / FAULTSTORM_CLUSTERS as f64; FAULTSTORM_CLUSTERS];
        let mut replay = prep.trace.clone();
        let mut monitors = recovery_pack(drop, FAULTSTORM_GRACE, &pack);
        let run = |gov: &mut dyn ManyCoreGovernor| {
            run_manycore_experiment(
                gov,
                &mut replay,
                topology,
                frames,
                &shares,
                EpochOptions {
                    faults: Some(&faults),
                    monitors: Some(&mut monitors),
                    cluster_reports: true,
                },
            )
        };
        let (outcome, degraded, safe_state) = match label {
            "rtm-hardened" => {
                let mut gov = ManyCoreRtm::paper(seed, FAULTSTORM_CLUSTERS, prep.bounds)
                    .expect("paper config is valid")
                    .with_agent_hardening(HardeningConfig::paper());
                let outcome = run(&mut gov);
                (outcome, gov.degraded_epochs(), gov.safe_state_epochs())
            }
            "rtm-naive" => {
                // Each naive agent owns a static half-share, so its
                // workload grid spans half the chip-level demand range.
                let agents = (0..FAULTSTORM_CLUSTERS)
                    .map(|c| {
                        let config = RtmConfig::paper(seed.wrapping_add(c as u64))
                            .with_workload_bounds(
                                (prep.bounds.0 / FAULTSTORM_CLUSTERS as f64).max(1.0),
                                prep.bounds.1,
                            );
                        Box::new(RtmGovernor::new(config).expect("paper config is valid"))
                            as Box<dyn Governor>
                    })
                    .collect();
                (run(&mut PerClusterGovernors::new(label, agents)), 0, 0)
            }
            "ondemand" => (
                run(&mut PerClusterGovernors::ondemand(FAULTSTORM_CLUSTERS)),
                0,
                0,
            ),
            other => unreachable!("unknown fault-storm cell {other}"),
        };
        let mut tracker = RecoveryTracker::new(RecoveryConfig {
            fault_epoch: drop,
            window: 50,
            bound: pack.miss_bound,
        });
        for (epoch, stat) in outcome.report.frame_stats().iter().enumerate() {
            tracker.observe(epoch as u64, stat.met_deadline);
        }
        FaultStormCell {
            report: outcome.report,
            recovery: tracker.stats(degraded),
            safe_state_epochs: safe_state,
        }
    }

    fn assemble(plan: &RunPlan, _: &TracePrep, cells: Vec<FaultStormCell>) -> FaultStormResult {
        let drop = fault_storm_drop_epoch(plan.frames);
        let rows: Vec<FaultStormRow> = Self::LABELS
            .iter()
            .zip(&cells)
            .map(|(label, cell)| {
                let stats = cell.report.frame_stats();
                let post: Vec<_> = stats.iter().skip(drop as usize).collect();
                let post_misses = post.iter().filter(|s| !s.met_deadline).count();
                FaultStormRow {
                    governor: (*label).into(),
                    energy_joules: cell.report.total_energy().as_joules(),
                    miss_rate: cell.report.miss_rate(),
                    post_drop_miss_rate: post_misses as f64 / post.len().max(1) as f64,
                    recovery: cell.recovery,
                    safe_state_epochs: cell.safe_state_epochs,
                    monitor: cell.report.monitor_report().cloned(),
                }
            })
            .collect();

        let mut table = ComparisonTable::new(vec![
            "Coordinator",
            "Energy (J)",
            "Miss rate",
            "Post-drop misses",
            "Recovery (epochs)",
            "Worst excursion",
            "Degraded epochs",
            "Monitors",
        ]);
        for row in &rows {
            let verdicts = row.monitor.as_ref().map_or_else(
                || "-".to_string(),
                |m| {
                    let total = m.verdicts().len();
                    format!("{}/{} clean", total - m.violation_count(), total)
                },
            );
            table.add_row(vec![
                row.governor.clone(),
                format!("{:.1}", row.energy_joules),
                format!("{:.1}%", row.miss_rate * 100.0),
                format!("{:.1}%", row.post_drop_miss_rate * 100.0),
                row.recovery
                    .time_to_recover
                    .map_or_else(|| "never".into(), |t| t.to_string()),
                format!("{:.2}", row.recovery.worst_excursion),
                row.recovery.degraded_epochs.to_string(),
                verdicts,
            ]);
        }
        FaultStormResult {
            rows,
            drop_epoch: drop,
            table,
        }
    }

    fn metrics(r: &FaultStormResult) -> CellMetrics {
        r.rows
            .iter()
            .flat_map(|row| {
                let key = slug(&row.governor);
                [
                    (format!("energy_joules/{key}"), row.energy_joules),
                    (format!("miss_rate/{key}"), row.miss_rate),
                    (
                        format!("post_drop_miss_rate/{key}"),
                        row.post_drop_miss_rate,
                    ),
                    (
                        format!("degraded_epochs/{key}"),
                        row.recovery.degraded_epochs as f64,
                    ),
                    (
                        format!("safe_state_epochs/{key}"),
                        row.safe_state_epochs as f64,
                    ),
                    (
                        format!("worst_excursion/{key}"),
                        row.recovery.worst_excursion,
                    ),
                ]
                .into_iter()
                .chain(
                    row.recovery
                        .time_to_recover
                        .map(|e| (format!("time_to_recover/{key}"), e as f64)),
                )
                .chain(row.monitor.as_ref().map(|m| {
                    (
                        format!("monitor_violations/{key}"),
                        m.violation_count() as f64,
                    )
                }))
            })
            .collect()
    }

    fn table(r: &FaultStormResult) -> String {
        r.table.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunnerConfig;

    #[test]
    fn standard_schedule_is_deterministic_and_mid_run() {
        let plan = standard_fault_schedule(600);
        assert_eq!(plan.faults().len(), 6);
        assert!(!plan.is_empty());
        assert_eq!(fault_storm_drop_epoch(600), 300);
        // The permanent core drops all land on cluster 1 at mid-run.
        let drops: Vec<_> = plan.faults().iter().filter(|f| f.end.is_none()).collect();
        assert_eq!(drops.len(), 4);
        assert!(drops.iter().all(|f| f.start == 300 && f.cluster == 1));
    }

    #[test]
    fn storm_separates_hardened_from_naive() {
        let plan = RunPlan {
            runner: RunnerConfig::serial(),
            ..RunPlan::new(vec![11], 400)
        };
        let result = FaultStorm::run(&plan).remove(0);
        assert_eq!(result.rows.len(), 3);
        let hardened = &result.rows[0];
        let naive = &result.rows[1];
        // The naive placement keeps routing half the work into the dead
        // cluster; the hardened coordinator drains the corpse and keeps
        // meeting deadlines on the survivor.
        assert!(
            hardened.post_drop_miss_rate < 0.3,
            "hardened post-drop miss rate {}",
            hardened.post_drop_miss_rate
        );
        assert!(
            naive.post_drop_miss_rate > 0.7,
            "naive post-drop miss rate {}",
            naive.post_drop_miss_rate
        );
        assert!(hardened.recovery.time_to_recover.is_some());
        assert_eq!(naive.recovery.time_to_recover, None);
        // The PMU window put the hardened agents on substituted data.
        assert!(hardened.recovery.degraded_epochs > 0);
        assert!(hardened.safe_state_epochs > 0);
        assert!(result.table.render().contains("rtm-hardened"));
    }

    #[test]
    fn faults_off_replays_the_fault_free_control() {
        let plan = RunPlan {
            runner: RunnerConfig::serial(),
            faults: false,
            ..RunPlan::new(vec![11], 400)
        };
        let result = FaultStorm::run(&plan).remove(0);
        // No cluster dies, so every coordinator, the naive placement
        // included, keeps meeting deadlines after mid-run.
        for row in &result.rows {
            assert!(
                row.post_drop_miss_rate < 0.1,
                "{} post-drop miss rate {}",
                row.governor,
                row.post_drop_miss_rate
            );
            assert!(row.recovery.time_to_recover.is_some(), "{}", row.governor);
        }
        assert_ne!(result, FaultStorm::run(&RunPlan::new(vec![11], 400))[0]);
    }
}
