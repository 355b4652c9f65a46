//! Journalable experiment work lists with stable cell identities.
//!
//! Every experiment family already expands into independent
//! (governor × seed × frames) cells through
//! [`ExperimentBatch`](crate::runner::ExperimentBatch) and folds seed
//! sweeps through [`Aggregate`](crate::sweep::Aggregate) — but those
//! enumerations live inside each `run_*` function, invisible to an
//! operator who wants to checkpoint a campaign. This module turns the
//! same enumeration into a **public, journalable work list**: a
//! [`WorkList`] names every campaign cell with a stable, re-derivable
//! ID (`"<family>/seed=<s>/frames=<f>"`, mirroring the batch labels of
//! [`ExperimentBatch::expand_cells`](crate::runner::ExperimentBatch::expand_cells)),
//! and [`WorkList::run_cell`] computes one cell's flat metric vector
//! deterministically and independently of every other cell.
//!
//! That pair of properties — stable IDs and independent, bit-reproducible
//! cells — is the resume seam the `qgov` campaign CLI builds on: a
//! journal only has to record *which IDs finished and what bits they
//! produced*, and a killed campaign can re-derive the remaining cells
//! from the config alone.
//!
//! Each cell runs its inner experiment **serially**
//! ([`RunnerConfig::serial`]); campaign-level parallelism fans out
//! *across* cells instead, so any worker count reproduces the serial
//! bits (the guarantee `tests/campaign_resume.rs` enforces end to end).
//!
//! ```
//! use qgov_bench::worklist::{Family, WorkList};
//!
//! let list = WorkList::new(Family::Table3, vec![1, 2], 80);
//! let cells = list.cells();
//! assert_eq!(cells.len(), 2);
//! assert_eq!(cells[0].id, "table3/seed=1/frames=80");
//! let metrics = list.run_cell(&cells[0]);
//! assert!(metrics.iter().any(|(name, _)| name == "exploration_epochs/rtm"));
//! ```

use crate::experiments::{
    run_fig3_with, run_long_horizon_monitored_with, run_long_horizon_with,
    run_shared_table_ablation_with, run_smoothing_ablation_with, run_state_levels_ablation_with,
    run_table1_with, run_table2_with, run_table3_with, AblationResult, FIG3_LABELS, GAMMA_LABELS,
    LEVELS_LABELS, LONG_HORIZON_LABELS, SHARED_LABELS, TABLE1_LABELS, TABLE2_LABELS, TABLE3_LABELS,
};
use crate::faultstorm::{run_fault_storm_with, standard_fault_schedule, FAULTSTORM_LABELS};
use crate::fleet::{run_fleet, FleetSpec};
use crate::hetero::{run_biglittle_with, run_mesh_scaling_with, BIGLITTLE_LABELS, MESH_LABELS};
use crate::runner::RunnerConfig;
use qgov_core::RtmConfig;
use qgov_metrics::PackConfig;
use qgov_sim::{PlatformConfig, SensorConfig};
use qgov_units::{Cycles, SimTime};
use qgov_workloads::SyntheticWorkload;

/// An experiment family a campaign can sweep — one variant per
/// `run_*` experiment bundle in [`crate::experiments`], plus fleets of
/// independent RTM runs ([`crate::fleet`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Table I: normalised energy/performance per methodology.
    Table1,
    /// Table II: exploration counts per application × policy.
    Table2,
    /// Table III: learning overhead per methodology.
    Table3,
    /// Fig. 3: misprediction and slack for the proposed RTM.
    Fig3,
    /// N-levels state-discretisation ablation.
    StateLevels,
    /// EWMA-γ smoothing ablation.
    Smoothing,
    /// Shared-table ablation.
    SharedTable,
    /// Long-horizon streamed comparison (optionally monitored).
    LongHorizon,
    /// big.LITTLE placement comparison (static vs learned migration).
    BigLittle,
    /// Homogeneous-mesh weak scaling (4/8/16 clusters).
    MeshScaling,
    /// Fault storm: hardened vs naive RTM vs ondemand under the
    /// standard deterministic fault schedule.
    FaultStorm,
    /// Fleet: N independent RTM instances per cell.
    Fleet,
}

impl Family {
    /// Every family, in the order `qgov sweep` documents them.
    pub const ALL: &'static [Family] = &[
        Family::Table1,
        Family::Table2,
        Family::Table3,
        Family::Fig3,
        Family::StateLevels,
        Family::Smoothing,
        Family::SharedTable,
        Family::LongHorizon,
        Family::BigLittle,
        Family::MeshScaling,
        Family::FaultStorm,
        Family::Fleet,
    ];

    /// The family's stable name — the first component of every cell ID
    /// and the `family =` value in campaign configs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Family::Table1 => "table1",
            Family::Table2 => "table2",
            Family::Table3 => "table3",
            Family::Fig3 => "fig3",
            Family::StateLevels => "state_levels",
            Family::Smoothing => "smoothing",
            Family::SharedTable => "shared_table",
            Family::LongHorizon => "long_horizon",
            Family::BigLittle => "biglittle",
            Family::MeshScaling => "mesh_scaling",
            Family::FaultStorm => "fault_storm",
            Family::Fleet => "fleet",
        }
    }

    /// Parses a family name (as produced by [`Family::name`],
    /// case-insensitive, surrounding whitespace ignored).
    #[must_use]
    pub fn parse(name: &str) -> Option<Family> {
        let name = name.trim().to_ascii_lowercase();
        Family::ALL.iter().copied().find(|f| f.name() == name)
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One schedulable campaign cell: its stable ID (journal key) and the
/// seed it runs under. The ID is a pure function of the work list's
/// configuration, so an interrupted campaign re-derives the same IDs
/// on resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkCell {
    /// Stable identity: `"<family>/seed=<s>/frames=<f>[/fleet=<n>]"`.
    pub id: String,
    /// The campaign seed this cell runs under.
    pub seed: u64,
}

/// A cell's result: `(metric name, value)` pairs in a deterministic,
/// family-defined order. Names are stable across runs (they derive
/// from the experiment label constants, not display strings) and never
/// contain whitespace or `=` — the journal line grammar relies on
/// that.
pub type CellMetrics = Vec<(String, f64)>;

/// The enumerated cells of one experiment campaign: an experiment
/// [`Family`] crossed with a seed set at a fixed frame horizon. See
/// the [module docs](self) for the resume-seam contract.
#[derive(Debug, Clone)]
pub struct WorkList {
    family: Family,
    seeds: Vec<u64>,
    frames: u64,
    fleet: usize,
    pack: Option<PackConfig>,
}

impl WorkList {
    /// A work list over `seeds` at a `frames` horizon.
    ///
    /// # Panics
    ///
    /// Panics when `seeds` is empty or contains duplicates (duplicate
    /// seeds would collide on one journal ID), or when `frames` is
    /// zero.
    #[must_use]
    pub fn new(family: Family, seeds: Vec<u64>, frames: u64) -> Self {
        assert!(!seeds.is_empty(), "a work list needs at least one seed");
        assert!(frames > 0, "a work list needs a positive frame horizon");
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert!(
            unique.len() == seeds.len(),
            "duplicate seeds would collide on one cell ID"
        );
        WorkList {
            family,
            seeds,
            frames,
            fleet: 1,
            pack: None,
        }
    }

    /// Sets the fleet size (instances per cell) for [`Family::Fleet`];
    /// other families ignore it.
    ///
    /// # Panics
    ///
    /// Panics when `fleet` is zero.
    #[must_use]
    pub fn with_fleet(mut self, fleet: usize) -> Self {
        assert!(fleet >= 1, "a fleet cell needs at least one instance");
        self.fleet = fleet;
        self
    }

    /// Attaches the standard temporal-property pack to every
    /// [`Family::LongHorizon`] cell, adding `monitor_violations/...`
    /// metrics; other families ignore it. Monitoring never perturbs
    /// the measured metrics.
    #[must_use]
    pub fn with_monitor_pack(mut self, pack: PackConfig) -> Self {
        self.pack = Some(pack);
        self
    }

    /// The experiment family.
    #[must_use]
    pub fn family(&self) -> Family {
        self.family
    }

    /// The campaign seeds, in configuration order.
    #[must_use]
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// The frame horizon every cell runs to.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Instances per [`Family::Fleet`] cell.
    #[must_use]
    pub fn fleet(&self) -> usize {
        self.fleet
    }

    /// The attached monitor pack, if any.
    #[must_use]
    pub fn pack(&self) -> Option<&PackConfig> {
        self.pack.as_ref()
    }

    /// Number of cells ( = number of seeds: each campaign cell runs a
    /// whole experiment bundle for one seed).
    #[must_use]
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// `true` when the list has no cells (unreachable through
    /// [`WorkList::new`], which rejects empty seed sets).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// The stable ID of this list's cell for `seed`.
    #[must_use]
    pub fn cell_id(&self, seed: u64) -> String {
        let base = format!("{}/seed={seed}/frames={}", self.family.name(), self.frames);
        if self.family == Family::Fleet {
            format!("{base}/fleet={}", self.fleet)
        } else {
            base
        }
    }

    /// Every cell, in seed order — the canonical campaign ordering
    /// reports and journals share.
    #[must_use]
    pub fn cells(&self) -> Vec<WorkCell> {
        self.seeds
            .iter()
            .map(|&seed| WorkCell {
                id: self.cell_id(seed),
                seed,
            })
            .collect()
    }

    /// Runs one cell to completion and returns its flat metrics, in
    /// the family's canonical order. The inner experiment always runs
    /// serially, so the result is bit-identical however the *campaign*
    /// schedules cells — the property the journal's bit-exact resume
    /// contract rests on.
    #[must_use]
    pub fn run_cell(&self, cell: &WorkCell) -> CellMetrics {
        debug_assert_eq!(cell.id, self.cell_id(cell.seed), "foreign cell");
        let serial = RunnerConfig::serial();
        let (seed, frames) = (cell.seed, self.frames);
        let mut out: CellMetrics = Vec::new();
        let mut push = |name: String, value: f64| out.push((name, value));
        match self.family {
            Family::Table1 => {
                let result = run_table1_with(seed, frames, &serial);
                for (label, row) in TABLE1_LABELS.iter().zip(&result.rows) {
                    push(format!("normalized_energy/{label}"), row.normalized_energy);
                    push(
                        format!("normalized_performance/{label}"),
                        row.normalized_performance,
                    );
                    push(format!("miss_rate/{label}"), row.miss_rate);
                    push(format!("mean_opp/{label}"), row.mean_opp);
                    push(format!("energy_joules/{label}"), row.energy_joules);
                }
            }
            Family::Table2 => {
                let result = run_table2_with(seed, frames, &serial);
                // TABLE2_LABELS pairs (app/upd, app/epd) fold into one
                // row per app; recover the short app key from the pair.
                let apps: Vec<&str> = TABLE2_LABELS
                    .iter()
                    .step_by(2)
                    .map(|label| label.split('/').next().expect("app/policy label"))
                    .collect();
                for (app, row) in apps.iter().zip(&result.rows) {
                    push(
                        format!("upd_explorations/{app}"),
                        row.upd_explorations as f64,
                    );
                    push(
                        format!("epd_explorations/{app}"),
                        row.epd_explorations as f64,
                    );
                }
            }
            Family::Table3 => {
                let result = run_table3_with(seed, frames, &serial);
                for (label, row) in TABLE3_LABELS.iter().zip(&result.rows) {
                    push(
                        format!("exploration_epochs/{label}"),
                        row.exploration_epochs as f64,
                    );
                    if let Some(epochs) = row.convergence_epochs {
                        push(format!("convergence_epochs/{label}"), epochs as f64);
                    }
                }
            }
            Family::Fig3 => {
                let result = run_fig3_with(seed, frames, &serial);
                debug_assert_eq!(FIG3_LABELS, ["rtm"]);
                push("early_misprediction".into(), result.early_misprediction);
                push("late_misprediction".into(), result.late_misprediction);
                push(
                    "mispredicted_frames".into(),
                    result.mispredicted_frames.len() as f64,
                );
            }
            Family::StateLevels => {
                ablation_metrics(
                    &run_state_levels_ablation_with(seed, frames, &serial),
                    LEVELS_LABELS,
                    &mut push,
                );
            }
            Family::Smoothing => {
                ablation_metrics(
                    &run_smoothing_ablation_with(seed, frames, &serial),
                    GAMMA_LABELS,
                    &mut push,
                );
            }
            Family::SharedTable => {
                ablation_metrics(
                    &run_shared_table_ablation_with(seed, frames, &serial),
                    SHARED_LABELS,
                    &mut push,
                );
            }
            Family::LongHorizon => {
                let result = match &self.pack {
                    Some(pack) => run_long_horizon_monitored_with(seed, frames, &serial, pack),
                    None => run_long_horizon_with(seed, frames, &serial),
                };
                for (label, row) in LONG_HORIZON_LABELS.iter().zip(&result.rows) {
                    push(format!("normalized_energy/{label}"), row.normalized_energy);
                    push(
                        format!("normalized_performance/{label}"),
                        row.normalized_performance,
                    );
                    push(format!("miss_rate/{label}"), row.miss_rate);
                    push(format!("mean_opp/{label}"), row.mean_opp);
                    push(format!("energy_joules/{label}"), row.energy_joules);
                    push(format!("early_miss_rate/{label}"), row.early_miss_rate);
                    push(format!("late_miss_rate/{label}"), row.late_miss_rate);
                    if let Some(monitor) = &row.monitor {
                        push(
                            format!("monitor_violations/{label}"),
                            monitor.violation_count() as f64,
                        );
                    }
                }
            }
            Family::BigLittle => {
                let result = run_biglittle_with(seed, frames, &serial);
                for (label, row) in BIGLITTLE_LABELS.iter().zip(&result.rows) {
                    let key = slug(label);
                    push(format!("normalized_energy/{key}"), row.normalized_energy);
                    push(format!("miss_rate/{key}"), row.miss_rate);
                    push(format!("energy_joules/{key}"), row.energy_joules);
                    push(
                        format!("energy_per_met_frame/{key}"),
                        row.energy_per_met_frame,
                    );
                    push(format!("migrations/{key}"), row.migrations as f64);
                    push(format!("final_big_share/{key}"), row.final_big_share);
                }
            }
            Family::MeshScaling => {
                let result = run_mesh_scaling_with(seed, frames, &serial);
                for (label, row) in MESH_LABELS.iter().zip(&result.rows) {
                    let key = slug(label);
                    push(format!("energy_joules/{key}"), row.energy_joules);
                    push(format!("energy_per_cluster/{key}"), row.energy_per_cluster);
                    push(format!("miss_rate/{key}"), row.miss_rate);
                    push(format!("migrations/{key}"), row.migrations as f64);
                }
            }
            Family::FaultStorm => {
                // Always the standard schedule, never the env override:
                // journal cells must re-derive bit-identically.
                let plan = standard_fault_schedule(frames);
                let result = run_fault_storm_with(seed, frames, &plan, &serial);
                for (label, row) in FAULTSTORM_LABELS.iter().zip(&result.rows) {
                    let key = slug(label);
                    push(format!("energy_joules/{key}"), row.energy_joules);
                    push(format!("miss_rate/{key}"), row.miss_rate);
                    push(
                        format!("post_drop_miss_rate/{key}"),
                        row.post_drop_miss_rate,
                    );
                    push(
                        format!("degraded_epochs/{key}"),
                        row.recovery.degraded_epochs as f64,
                    );
                    push(
                        format!("safe_state_epochs/{key}"),
                        row.safe_state_epochs as f64,
                    );
                    push(
                        format!("worst_excursion/{key}"),
                        row.recovery.worst_excursion,
                    );
                    if let Some(epochs) = row.recovery.time_to_recover {
                        push(format!("time_to_recover/{key}"), epochs as f64);
                    }
                    if let Some(monitor) = &row.monitor {
                        push(
                            format!("monitor_violations/{key}"),
                            monitor.violation_count() as f64,
                        );
                    }
                }
            }
            Family::Fleet => {
                let instance_seeds: Vec<u64> = (0..self.fleet as u64)
                    .map(|i| seed.wrapping_add(i))
                    .collect();
                let spec = FleetSpec::uniform(
                    &fleet_cell_config(0),
                    &instance_seeds,
                    &fleet_cell_platform(),
                    frames,
                    |s| Box::new(fleet_cell_app(s, frames)),
                );
                let outcome = run_fleet(spec, &serial);
                for (i, report) in outcome.reports.iter().enumerate() {
                    push(format!("miss_rate/i{i}"), report.miss_rate());
                    push(
                        format!("normalized_performance/i{i}"),
                        report.normalized_performance(),
                    );
                    push(format!("mean_opp/i{i}"), report.mean_opp());
                    push(
                        format!("energy_joules/i{i}"),
                        report.total_energy().as_joules(),
                    );
                }
                push(
                    "fleet_mean_miss_rate".into(),
                    outcome.summarize(qgov_metrics::RunReport::miss_rate).mean,
                );
                push("fleet_total_frames".into(), outcome.total_frames as f64);
            }
        }
        debug_assert!(
            out.iter()
                .all(|(name, _)| !name.contains(['=', ' ', '\t', '\n'])),
            "metric names must stay journal-token safe"
        );
        out
    }
}

/// Folds an ablation bundle (rows in `labels` order, Oracle first)
/// into flat metrics.
fn ablation_metrics(result: &AblationResult, labels: &[&str], push: &mut impl FnMut(String, f64)) {
    debug_assert_eq!(result.rows.len(), labels.len());
    for (label, row) in labels.iter().zip(&result.rows) {
        let key = slug(label);
        push(format!("normalized_energy/{key}"), row.normalized_energy);
        push(
            format!("normalized_performance/{key}"),
            row.normalized_performance,
        );
        push(format!("miss_rate/{key}"), row.miss_rate);
        push(format!("explorations/{key}"), row.explorations as f64);
        if let Some(epochs) = row.convergence_epochs {
            push(format!("convergence_epochs/{key}"), epochs as f64);
        }
    }
}

/// Reduces a label to a journal-safe metric key: ASCII-lowercased,
/// every run of non-alphanumeric characters collapsed to one `_`, and
/// leading/trailing `_` trimmed (`"gamma=0.2"` → `"gamma_0_2"`,
/// `"per-core-share"` → `"per_core_share"`).
#[must_use]
pub fn slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_matches('_').to_owned()
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_names_round_trip() {
        for &family in Family::ALL {
            assert_eq!(Family::parse(family.name()), Some(family));
            assert_eq!(Family::parse(&family.name().to_uppercase()), Some(family));
        }
        assert_eq!(Family::parse("  fig3 "), Some(Family::Fig3));
        assert_eq!(Family::parse("table9"), None);
    }

    #[test]
    fn cell_ids_are_stable_and_in_seed_order() {
        let list = WorkList::new(Family::Table1, vec![7, 3, 11], 250);
        let cells = list.cells();
        let ids: Vec<&str> = cells.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "table1/seed=7/frames=250",
                "table1/seed=3/frames=250",
                "table1/seed=11/frames=250"
            ]
        );
        let fleet = WorkList::new(Family::Fleet, vec![5], 100).with_fleet(3);
        assert_eq!(fleet.cells()[0].id, "fleet/seed=5/frames=100/fleet=3");
    }

    #[test]
    fn slug_collapses_to_token_safe_keys() {
        assert_eq!(slug("gamma=0.2"), "gamma_0_2");
        assert_eq!(slug("per-core-share"), "per_core_share");
        assert_eq!(slug("n=3"), "n_3");
        assert_eq!(slug("Oracle (reference)"), "oracle_reference");
        assert_eq!(slug("__x__"), "x");
    }

    #[test]
    #[should_panic(expected = "duplicate seeds")]
    fn duplicate_seeds_are_rejected() {
        let _ = WorkList::new(Family::Table3, vec![1, 2, 1], 100);
    }

    #[test]
    fn fig3_cell_metrics_are_deterministic_and_named_stably() {
        let list = WorkList::new(Family::Fig3, vec![4], 120);
        let cell = &list.cells()[0];
        let a = list.run_cell(cell);
        let b = list.run_cell(cell);
        let names: Vec<&str> = a.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "early_misprediction",
                "late_misprediction",
                "mispredicted_frames"
            ]
        );
        for ((_, x), (_, y)) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits(), "cell rerun must be bit-identical");
        }
    }

    #[test]
    fn fault_storm_cell_reports_recovery_metrics() {
        let list = WorkList::new(Family::FaultStorm, vec![11], 120);
        let metrics = list.run_cell(&list.cells()[0]);
        assert!(metrics
            .iter()
            .any(|(n, _)| n == "energy_joules/rtm_hardened"));
        assert!(metrics
            .iter()
            .any(|(n, _)| n == "post_drop_miss_rate/rtm_naive"));
        assert!(metrics
            .iter()
            .any(|(n, _)| n == "monitor_violations/ondemand"));
    }

    #[test]
    fn table3_cell_reports_per_method_metrics() {
        let list = WorkList::new(Family::Table3, vec![2], 120);
        let metrics = list.run_cell(&list.cells()[0]);
        assert!(metrics.iter().any(|(n, _)| n == "exploration_epochs/geqiu"));
        assert!(metrics.iter().any(|(n, _)| n == "exploration_epochs/rtm"));
    }
}
