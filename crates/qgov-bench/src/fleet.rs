//! Fleets: many independent RTM instances in one campaign cell.
//!
//! [`Fleet`] is the experiment family behind `family = "fleet"`: each
//! plan seed `s` runs [`RunPlan::fleet`] RTM instances of the noisy
//! synthetic decode ([`fleet_cell_app`]) on seeds `s, s + 1, …`, one
//! [`run_experiment`] call each. Instances never interact, so every
//! instance's report is the one `run_experiment` gives for it alone
//! (`tests/fleet_determinism.rs`); across seeds the cells batch like
//! any other family's.

use crate::experiments::Experiment;
use crate::harness::run_experiment;
use crate::plan::RunPlan;
use crate::worklist::CellMetrics;
use qgov_core::{RtmConfig, RtmGovernor};
use qgov_metrics::{MetricSummary, RunReport};
use qgov_sim::{PlatformConfig, SensorConfig};
use qgov_units::{Cycles, SimTime};
use qgov_workloads::SyntheticWorkload;

/// The fleet campaign cell's platform: the paper's A15 cluster with an
/// ideal sensor (matching the recorded fleet baselines).
#[must_use]
pub fn fleet_cell_platform() -> PlatformConfig {
    PlatformConfig {
        sensor: SensorConfig::ideal(),
        ..PlatformConfig::odroid_xu3_a15()
    }
}

/// The fleet campaign cell's per-instance RTM configuration.
#[must_use]
pub fn fleet_cell_config(seed: u64) -> RtmConfig {
    RtmConfig::paper(seed).with_workload_bounds(1e8, 1e9)
}

/// The fleet campaign cell's per-instance workload: the noisy
/// synthetic decode the fleet determinism suite pins.
#[must_use]
pub fn fleet_cell_app(seed: u64, frames: u64) -> SyntheticWorkload {
    SyntheticWorkload::constant(
        "campaign-fleet",
        Cycles::from_mcycles(120),
        SimTime::from_ms(40),
        frames,
        4,
        seed,
    )
    .with_noise(0.15)
}

/// Mean miss rate across a fleet's instances.
fn mean_miss_rate(reports: &[RunReport]) -> f64 {
    let samples: Vec<f64> = reports.iter().map(RunReport::miss_rate).collect();
    MetricSummary::from_samples(&samples).mean
}

/// Decision epochs executed across a fleet's instances.
fn total_frames(reports: &[RunReport]) -> u64 {
    reports.iter().map(RunReport::frames).sum()
}

/// **Fleet**: per plan seed `s`, one fleet of [`RunPlan::fleet`]
/// independent RTM instances on seeds `s, s + 1, …`, run serially
/// inside the cell. The result is one report per instance, in instance
/// order.
#[derive(Debug, Clone, Copy)]
pub struct Fleet;

impl Experiment for Fleet {
    const LABELS: &'static [&'static str] = &["fleet"];
    type Prep = ();
    type Cell = Vec<RunReport>;
    type Output = Vec<RunReport>;

    fn prepare(_: &RunPlan, _: u64) {}

    fn cell(plan: &RunPlan, _: &str, (): &(), seed: u64) -> Vec<RunReport> {
        (0..plan.fleet as u64)
            .map(|i| {
                let seed = seed.wrapping_add(i);
                let mut rtm =
                    RtmGovernor::new(fleet_cell_config(seed)).expect("valid RTM configuration");
                run_experiment(
                    &mut rtm,
                    &mut fleet_cell_app(seed, plan.frames),
                    fleet_cell_platform(),
                    plan.frames,
                )
                .report
            })
            .collect()
    }

    fn assemble(_: &RunPlan, (): &(), mut cells: Vec<Vec<RunReport>>) -> Vec<RunReport> {
        cells.pop().expect("one fleet cell")
    }

    fn metrics(reports: &Vec<RunReport>) -> CellMetrics {
        let mut out: CellMetrics = reports
            .iter()
            .enumerate()
            .flat_map(|(i, report)| {
                [
                    (format!("miss_rate/i{i}"), report.miss_rate()),
                    (
                        format!("normalized_performance/i{i}"),
                        report.normalized_performance(),
                    ),
                    (format!("mean_opp/i{i}"), report.mean_opp()),
                    (
                        format!("energy_joules/i{i}"),
                        report.total_energy().as_joules(),
                    ),
                ]
            })
            .collect();
        out.push(("fleet_mean_miss_rate".into(), mean_miss_rate(reports)));
        out.push(("fleet_total_frames".into(), total_frames(reports) as f64));
        out
    }

    fn table(reports: &Vec<RunReport>) -> String {
        format!(
            "{} instances, {} frames, mean miss rate {:.1}%\n",
            reports.len(),
            total_frames(reports),
            mean_miss_rate(reports) * 100.0
        )
    }
}
