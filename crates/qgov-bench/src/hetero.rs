//! Heterogeneous-platform experiments: big.LITTLE placement and mesh
//! scaling.
//!
//! The paper's evaluation runs on one V-F island of the ODROID-XU3.
//! These experiments extend it to the *chip*: the same Q-learning RTM,
//! instantiated per cluster and coordinated by greedy task migration
//! ([`ManyCoreRtm`]), against static placements on the full
//! big.LITTLE part, and a weak-scaling study on synthetic homogeneous
//! meshes.
//!
//! * [`BigLittle`] — a scaled H.264 decode (too heavy for the A7 quad
//!   alone; its mean fits the A15 quad, yet big-only misses
//!   28.5 % ± 1.8 % of deadlines, EXPERIMENTS.md) under three
//!   placements: everything on big, everything on LITTLE, and the
//!   learned migrating placement. The headline: learned migration
//!   matches big-only's deadline behaviour at lower energy, because
//!   steady frames drift to the LITTLE cores.
//! * [`MeshScaling`] — one [`ManyCoreRtm`] across 4/8/16 identical
//!   clusters with a workload scaled to the cluster count: per-cluster
//!   energy should stay flat as the chip grows (weak scaling of the
//!   per-cluster learning loop).
//!
//! Both are [`Experiment`]s like every family in
//! [`crate::experiments`]; a plan's monitor pack rides every cell as a
//! chip-level monitor. Recorded baselines live in `EXPERIMENTS.md`.

use crate::experiments::{fmt2, fmt_pct, index_of, Experiment, TracePrep};
use crate::harness::{run_manycore_experiment, EpochOptions};
use crate::manycore::ManyCoreOutcome;
use crate::plan::RunPlan;
use crate::worklist::{slug, CellMetrics};
use qgov_core::{ManyCoreRtm, RtmConfig};
use qgov_governors::{Governor, ManyCoreGovernor, PerClusterGovernors, PowersaveGovernor};
use qgov_metrics::{standard_pack, ComparisonTable, MonitorReport, RunReport};
use qgov_sim::{ClusterConfig, Platform, PlatformConfig, Topology};
use qgov_units::{Cycles, SimTime};
use qgov_workloads::{capacity_shares, SyntheticWorkload, VideoDecoderModel};

/// One cell of a many-core experiment grid: the chip-level report plus
/// the coordinator's migration count and final work shares.
#[derive(Debug, Clone)]
pub struct ManyCoreCell {
    pub(crate) report: RunReport,
    pub(crate) migrations: u64,
    pub(crate) shares: Vec<f64>,
}

/// Runs one many-core cell from a fresh clone of `prep`'s trace, with
/// the plan's monitor pack (keyed by `label`) riding along.
fn run_chip(
    plan: &RunPlan,
    label: &str,
    gov: &mut dyn ManyCoreGovernor,
    prep: &TracePrep,
    topology: Topology,
    shares: &[f64],
) -> ManyCoreOutcome {
    let mut monitors = plan.pack.as_ref().map(|cfg| standard_pack(label, cfg));
    run_manycore_experiment(
        gov,
        &mut prep.trace.clone(),
        topology,
        plan.frames,
        shares,
        EpochOptions {
            faults: None,
            monitors: monitors.as_mut(),
            cluster_reports: true,
        },
    )
}

/// Per-cluster compute capacities (cores × top frequency in GHz) — the
/// seed for [`capacity_shares`] on a heterogeneous topology.
fn cluster_capacities(clusters: &[ClusterConfig]) -> Vec<f64> {
    clusters
        .iter()
        .map(|c| Platform::CORES as f64 * c.platform.opp_table.max_freq().as_ghz())
        .collect()
}

// ---------------------------------------------------------------------------
// big.LITTLE placement
// ---------------------------------------------------------------------------

/// The big.LITTLE workload: the H.264 football sequence scaled up to a
/// chip-sized decode (135 Mcycles per slot × 3 slots ≈ 410 Mcycles per
/// 66.7 ms epoch). Sized so the A7 quad alone cannot hold the deadline
/// (mean demand exceeds its 373 Mcycle top-frequency capacity) while
/// the mean fits the A15 quad (533 Mcycles) — the regime where
/// placement actually matters.
#[must_use]
pub fn biglittle_app(seed: u64, frames: u64) -> VideoDecoderModel {
    let mut params = VideoDecoderModel::h264_football_15fps(seed)
        .params()
        .clone();
    params.name = "h264-chip".into();
    params.base_cycles = Cycles::from_mcycles(135);
    params.frames = frames;
    VideoDecoderModel::new(params).expect("scaled preset is valid")
}

/// One placement's outcome in the big.LITTLE comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct BigLittleRow {
    /// Placement label.
    pub placement: String,
    /// Absolute chip energy in joules.
    pub energy_joules: f64,
    /// Energy normalised to the big-only run.
    pub normalized_energy: f64,
    /// Deadline miss rate.
    pub miss_rate: f64,
    /// Joules per deadline-met frame (energy divided by met frames; the
    /// divisor clamps at one so an all-missing run reports its total
    /// energy rather than dividing by zero).
    pub energy_per_met_frame: f64,
    /// Share moves the coordinator performed (zero for static
    /// placements).
    pub migrations: u64,
    /// Final share of the work on the big cluster.
    pub final_big_share: f64,
    /// Temporal-property verdicts when the plan carried a monitor pack;
    /// `None` otherwise.
    pub monitor: Option<MonitorReport>,
}

/// The big.LITTLE placement comparison bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct BigLittleResult {
    /// One row per placement, in big-only, LITTLE-only, learned order.
    pub rows: Vec<BigLittleRow>,
    /// Rendered comparison table.
    pub table: ComparisonTable,
}

fn placement_label(name: &str) -> String {
    match name {
        "big-only" => "Big-only (A15 quad)".into(),
        "little-only" => "LITTLE-only (A7 quad)".into(),
        "rtm-migrate" => "Learned migration (proposed)".into(),
        other => other.into(),
    }
}

/// **big.LITTLE placement**: all three placements replay the identical
/// recorded trace on the same two-cluster topology; energy is
/// normalised to the big-only run.
#[derive(Debug, Clone, Copy)]
pub struct BigLittle;

impl Experiment for BigLittle {
    /// `big-only` is the normalisation reference.
    const LABELS: &'static [&'static str] = &["big-only", "little-only", "rtm-migrate"];
    type Prep = TracePrep;
    type Cell = ManyCoreCell;
    type Output = BigLittleResult;

    fn prepare(plan: &RunPlan, seed: u64) -> TracePrep {
        TracePrep::record(&mut biglittle_app(seed, plan.frames))
    }

    fn cell(plan: &RunPlan, label: &str, prep: &TracePrep, seed: u64) -> ManyCoreCell {
        let topology = Topology::odroid_xu3_biglittle();
        let rtm = || -> Box<dyn Governor> { Box::new(prep.rtm(RtmConfig::paper(seed))) };
        let (agents, shares): (Vec<Box<dyn Governor>>, [f64; 2]) = match label {
            "big-only" => (vec![rtm(), Box::new(PowersaveGovernor::new())], [1.0, 0.0]),
            "little-only" => (vec![Box::new(PowersaveGovernor::new()), rtm()], [0.0, 1.0]),
            "rtm-migrate" => {
                let mut shares = vec![0.0; topology.cluster_count()];
                capacity_shares(&cluster_capacities(&topology.clusters), &mut shares);
                let mut gov = ManyCoreRtm::paper(seed, topology.cluster_count(), prep.bounds)
                    .expect("paper config is valid");
                let out = run_chip(plan, label, &mut gov, prep, topology, &shares);
                return ManyCoreCell {
                    report: out.report,
                    migrations: gov.migrations(),
                    shares: out.shares,
                };
            }
            other => unreachable!("unknown big.LITTLE cell {other}"),
        };
        let mut gov = PerClusterGovernors::new(label, agents);
        let out = run_chip(plan, label, &mut gov, prep, topology, &shares);
        ManyCoreCell {
            report: out.report,
            migrations: 0,
            shares: out.shares,
        }
    }

    fn assemble(_: &RunPlan, _: &TracePrep, cells: Vec<ManyCoreCell>) -> BigLittleResult {
        let reference = &cells.first().expect("big-only cell present").report;
        let rows: Vec<BigLittleRow> = cells
            .iter()
            .map(|cell| {
                let r = &cell.report;
                let met = (r.frames() - r.deadline_misses()).max(1);
                BigLittleRow {
                    placement: placement_label(r.governor()),
                    energy_joules: r.total_energy().as_joules(),
                    normalized_energy: r.normalized_energy(reference),
                    miss_rate: r.miss_rate(),
                    energy_per_met_frame: r.total_energy().as_joules() / met as f64,
                    migrations: cell.migrations,
                    final_big_share: cell.shares.first().copied().unwrap_or(0.0),
                    monitor: r.monitor_report().cloned(),
                }
            })
            .collect();

        let mut table = ComparisonTable::new(vec![
            "Placement",
            "Energy (J)",
            "Normalized energy",
            "Miss rate",
            "J / met frame",
            "Migrations",
            "Final big share",
        ]);
        for row in &rows {
            table.add_row(vec![
                row.placement.clone(),
                format!("{:.1}", row.energy_joules),
                fmt2(row.normalized_energy),
                fmt_pct(row.miss_rate),
                format!("{:.3}", row.energy_per_met_frame),
                row.migrations.to_string(),
                fmt2(row.final_big_share),
            ]);
        }
        BigLittleResult { rows, table }
    }

    fn metrics(r: &BigLittleResult) -> CellMetrics {
        Self::LABELS
            .iter()
            .zip(&r.rows)
            .flat_map(|(label, row)| {
                let key = slug(label);
                [
                    (format!("normalized_energy/{key}"), row.normalized_energy),
                    (format!("miss_rate/{key}"), row.miss_rate),
                    (format!("energy_joules/{key}"), row.energy_joules),
                    (
                        format!("energy_per_met_frame/{key}"),
                        row.energy_per_met_frame,
                    ),
                    (format!("migrations/{key}"), row.migrations as f64),
                    (format!("final_big_share/{key}"), row.final_big_share),
                ]
            })
            .collect()
    }

    fn table(r: &BigLittleResult) -> String {
        r.table.render()
    }
}

// ---------------------------------------------------------------------------
// Mesh weak scaling
// ---------------------------------------------------------------------------

/// Clusters per mesh size, in [`MeshScaling::LABELS`] order.
const MESH_SIZES: [usize; 3] = [4, 8, 16];

/// The mesh workload for `clusters` A15 quads: one thread per core,
/// ≈ 130 Mcycles per cluster per 40 ms frame (≈ 40 % utilisation at
/// the top OPP — room for the per-cluster agents to scale down), with
/// 10 % multiplicative noise.
#[must_use]
pub fn mesh_app(clusters: usize, seed: u64, frames: u64) -> SyntheticWorkload {
    SyntheticWorkload::constant(
        "mesh",
        Cycles::from_mcycles(130 * clusters as u64),
        SimTime::from_ms(40),
        frames,
        4 * clusters,
        seed,
    )
    .with_noise(0.1)
}

/// One mesh size's outcome in the scaling study.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshRow {
    /// Number of clusters.
    pub clusters: usize,
    /// Total cores on the chip.
    pub cores: usize,
    /// Absolute chip energy in joules.
    pub energy_joules: f64,
    /// Chip energy divided by the cluster count — flat under ideal
    /// weak scaling.
    pub energy_per_cluster: f64,
    /// Deadline miss rate.
    pub miss_rate: f64,
    /// Share moves performed by the coordinator.
    pub migrations: u64,
    /// Temporal-property verdicts when the plan carried a monitor pack;
    /// `None` otherwise.
    pub monitor: Option<MonitorReport>,
}

/// The mesh scaling bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshScalingResult {
    /// One row per mesh size, in mesh-size order (4, 8, 16).
    pub rows: Vec<MeshRow>,
    /// Rendered comparison table.
    pub table: ComparisonTable,
}

/// **Mesh weak scaling**: one [`ManyCoreRtm`] per mesh size, with an
/// initially uniform placement, against a workload scaled to the
/// cluster count.
#[derive(Debug, Clone, Copy)]
pub struct MeshScaling;

impl Experiment for MeshScaling {
    const LABELS: &'static [&'static str] = &["mesh-4", "mesh-8", "mesh-16"];
    /// Each mesh size's workload, in label order.
    type Prep = Vec<TracePrep>;
    type Cell = ManyCoreCell;
    type Output = MeshScalingResult;

    fn prepare(plan: &RunPlan, seed: u64) -> Vec<TracePrep> {
        MESH_SIZES
            .iter()
            .map(|&clusters| TracePrep::record(&mut mesh_app(clusters, seed, plan.frames)))
            .collect()
    }

    fn cell(plan: &RunPlan, label: &str, preps: &Vec<TracePrep>, seed: u64) -> ManyCoreCell {
        let index = index_of(Self::LABELS, label);
        let (prep, clusters) = (&preps[index], MESH_SIZES[index]);
        let topology = Topology::homogeneous_mesh(clusters, PlatformConfig::odroid_xu3_a15());
        let mut gov =
            ManyCoreRtm::paper(seed, clusters, prep.bounds).expect("paper config is valid");
        let shares = vec![1.0 / clusters as f64; clusters];
        let out = run_chip(plan, label, &mut gov, prep, topology, &shares);
        ManyCoreCell {
            report: out.report,
            migrations: gov.migrations(),
            shares: out.shares,
        }
    }

    fn assemble(_: &RunPlan, _: &Vec<TracePrep>, cells: Vec<ManyCoreCell>) -> MeshScalingResult {
        let rows: Vec<MeshRow> = MESH_SIZES
            .iter()
            .zip(&cells)
            .map(|(&clusters, cell)| {
                let r = &cell.report;
                MeshRow {
                    clusters,
                    cores: 4 * clusters,
                    energy_joules: r.total_energy().as_joules(),
                    energy_per_cluster: r.total_energy().as_joules() / clusters as f64,
                    miss_rate: r.miss_rate(),
                    migrations: cell.migrations,
                    monitor: r.monitor_report().cloned(),
                }
            })
            .collect();

        let mut table = ComparisonTable::new(vec![
            "Mesh",
            "Cores",
            "Energy (J)",
            "J / cluster",
            "Miss rate",
            "Migrations",
        ]);
        for row in &rows {
            table.add_row(vec![
                format!("{} clusters", row.clusters),
                row.cores.to_string(),
                format!("{:.1}", row.energy_joules),
                format!("{:.1}", row.energy_per_cluster),
                fmt_pct(row.miss_rate),
                row.migrations.to_string(),
            ]);
        }
        MeshScalingResult { rows, table }
    }

    fn metrics(r: &MeshScalingResult) -> CellMetrics {
        Self::LABELS
            .iter()
            .zip(&r.rows)
            .flat_map(|(label, row)| {
                let key = slug(label);
                [
                    (format!("energy_joules/{key}"), row.energy_joules),
                    (format!("energy_per_cluster/{key}"), row.energy_per_cluster),
                    (format!("miss_rate/{key}"), row.miss_rate),
                    (format!("migrations/{key}"), row.migrations as f64),
                ]
            })
            .collect()
    }

    fn table(r: &MeshScalingResult) -> String {
        r.table.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunnerConfig;

    fn serial(seed: u64, frames: u64) -> RunPlan {
        RunPlan {
            runner: RunnerConfig::serial(),
            ..RunPlan::new(vec![seed], frames)
        }
    }

    #[test]
    fn biglittle_rows_are_structured_and_static_placements_stay_put() {
        let result = BigLittle::run(&serial(7, 90)).remove(0);
        assert_eq!(result.rows.len(), 3);
        let big = &result.rows[0];
        let little = &result.rows[1];
        let learned = &result.rows[2];
        assert_eq!(big.normalized_energy, 1.0);
        assert_eq!(big.final_big_share, 1.0);
        assert_eq!(big.migrations, 0);
        assert_eq!(little.final_big_share, 0.0);
        // The A7 quad cannot hold the scaled decode's deadlines.
        assert!(little.miss_rate > big.miss_rate);
        // Learned placement keeps a valid share split.
        assert!((0.0..=1.0).contains(&learned.final_big_share));
        assert!(learned.energy_joules > 0.0);
        assert!(result.table.render().contains("Learned migration"));
    }

    #[test]
    fn mesh_scaling_runs_every_size() {
        let result = MeshScaling::run(&serial(5, 40)).remove(0);
        assert_eq!(result.rows.len(), 3);
        assert_eq!(
            result.rows.iter().map(|r| r.clusters).collect::<Vec<_>>(),
            vec![4, 8, 16]
        );
        // Bigger chips burn more total energy on the scaled workload...
        assert!(result.rows[2].energy_joules > result.rows[0].energy_joules);
        // ...while per-cluster energy stays the same order of magnitude
        // (weak scaling; exploration noise keeps this loose).
        let ratio = result.rows[2].energy_per_cluster / result.rows[0].energy_per_cluster;
        assert!(ratio > 0.3 && ratio < 3.0, "ratio {ratio}");
    }
}
