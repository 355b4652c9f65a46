//! Journalable experiment work lists with stable cell identities.
//!
//! Every experiment family is an [`Experiment`]
//! run from a [`RunPlan`]. This module turns one family and plan into a
//! **public, journalable work list**: a [`WorkList`] names every
//! campaign cell with a stable, re-derivable ID
//! (`"<family>/seed=<s>/frames=<f>"`), and [`WorkList::run_cell`]
//! computes one cell's flat metric vector deterministically and
//! independently of every other cell.
//!
//! That pair of properties — stable IDs and independent, bit-reproducible
//! cells — is the resume seam the `qgov` campaign CLI builds on: a
//! journal only has to record *which IDs finished and what bits they
//! produced*, and a killed campaign can re-derive the remaining cells
//! from the config alone. [`fold_metrics`] folds cells into per-metric
//! `mean ± σ (n)` summaries by name and [`metric_table`] prints them —
//! for campaign reports and bench targets alike.
//!
//! Each cell runs its inner experiment **serially**
//! ([`RunnerConfig::serial`]); campaign-level parallelism fans out
//! *across* cells instead, so any worker count reproduces the serial
//! bits (the guarantee `tests/campaign_resume.rs` enforces end to end).
//! Cells read no environment: a fault-storm cell always replays the
//! standard fault schedule.
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
    Experiment, Fig3, LongHorizon, SharedTable, Smoothing, StateLevels, Table1, Table2, Table3,
};
use crate::faultstorm::FaultStorm;
use crate::hetero::{BigLittle, MeshScaling};
use crate::plan::RunPlan;
use crate::runner::RunnerConfig;
use qgov_metrics::{ComparisonTable, MetricSummary, PackConfig};
use std::collections::HashMap;

/// An experiment family a campaign can sweep — one variant per
/// [`Experiment`] implementation.
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
        }
    }

    /// Parses a family name (as produced by [`Family::name`],
    /// case-insensitive, surrounding whitespace ignored).
    #[must_use]
    pub fn parse(name: &str) -> Option<Family> {
        let name = name.trim().to_ascii_lowercase();
        Family::ALL.iter().copied().find(|f| f.name() == name)
    }

    /// Runs `plan` through this family's [`Experiment`] and returns one
    /// metric vector per plan seed, in seed order.
    #[must_use]
    pub fn run(self, plan: &RunPlan) -> Vec<CellMetrics> {
        (self.entry().run)(plan)
    }

    /// The shortest horizon this family's cells run to completion
    /// ([`Experiment::MIN_FRAMES`]): 2 for [`Family::Fig3`] and
    /// [`Family::Smoothing`], whose misprediction series skips epoch 0,
    /// and 1 for every other family.
    #[must_use]
    pub fn min_frames(self) -> u64 {
        self.entry().min_frames
    }

    fn entry(self) -> Entry {
        match self {
            Family::Table1 => Entry::of::<Table1>(),
            Family::Table2 => Entry::of::<Table2>(),
            Family::Table3 => Entry::of::<Table3>(),
            Family::Fig3 => Entry::of::<Fig3>(),
            Family::StateLevels => Entry::of::<StateLevels>(),
            Family::Smoothing => Entry::of::<Smoothing>(),
            Family::SharedTable => Entry::of::<SharedTable>(),
            Family::LongHorizon => Entry::of::<LongHorizon>(),
            Family::BigLittle => Entry::of::<BigLittle>(),
            Family::MeshScaling => Entry::of::<MeshScaling>(),
            Family::FaultStorm => Entry::of::<FaultStorm>(),
        }
    }
}

/// What a [`Family`] dispatches to: its [`Experiment`]'s metric runner
/// and minimum horizon.
struct Entry {
    run: fn(&RunPlan) -> Vec<CellMetrics>,
    min_frames: u64,
}

impl Entry {
    fn of<E: Experiment>() -> Entry {
        Entry {
            run: |plan| E::run(plan).iter().map(E::metrics).collect(),
            min_frames: E::MIN_FRAMES,
        }
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
    /// Stable identity: `"<family>/seed=<s>/frames=<f>"`.
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

/// Folds cells' metrics into per-metric summaries by name: metric
/// order is first appearance scanning `cells` in order, samples per
/// metric likewise (a metric a cell lacks — e.g. a convergence epoch a
/// seed never reached — simply contributes no sample).
/// [`MetricSummary::from_samples`] sorts its samples, so each summary
/// is independent of cell order.
pub fn fold_metrics<'a>(
    cells: impl IntoIterator<Item = &'a CellMetrics>,
) -> Vec<(String, MetricSummary)> {
    let mut order: Vec<&str> = Vec::new();
    let mut samples: HashMap<&str, Vec<f64>> = HashMap::new();
    for (name, value) in cells.into_iter().flatten() {
        samples
            .entry(name)
            .or_insert_with(|| {
                order.push(name);
                Vec::new()
            })
            .push(*value);
    }
    order
        .into_iter()
        .map(|name| (name.to_owned(), MetricSummary::from_samples(&samples[name])))
        .collect()
}

/// Renders folded summaries as the `Metric | mean ± σ (n)` table that
/// campaign reports and bench targets print, four fraction digits per
/// cell.
#[must_use]
pub fn metric_table(summaries: &[(String, MetricSummary)]) -> ComparisonTable {
    let mut table = ComparisonTable::new(vec!["Metric", "Value"]);
    for (name, summary) in summaries {
        table.add_row(vec![name.clone(), summary.cell(4)]);
    }
    table
}

/// The enumerated cells of one experiment campaign: an experiment
/// [`Family`] and the plan it runs, one cell per plan seed. See the
/// [module docs](self) for the resume-seam contract.
#[derive(Debug, Clone)]
pub struct WorkList {
    family: Family,
    plan: RunPlan,
}

impl WorkList {
    /// A work list over `seeds` at a `frames` horizon.
    ///
    /// # Panics
    ///
    /// Panics when `seeds` is empty or contains duplicates (duplicate
    /// seeds would collide on one journal ID), or when `frames` is
    /// below [`Family::min_frames`].
    #[must_use]
    pub fn new(family: Family, seeds: Vec<u64>, frames: u64) -> Self {
        assert!(!seeds.is_empty(), "a work list needs at least one seed");
        assert!(
            frames >= family.min_frames(),
            "a {family} work list needs at least {} frames",
            family.min_frames()
        );
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert!(
            unique.len() == seeds.len(),
            "duplicate seeds would collide on one cell ID"
        );
        WorkList {
            family,
            plan: RunPlan {
                runner: RunnerConfig::serial(),
                ..RunPlan::new(seeds, frames)
            },
        }
    }

    /// Attaches the standard temporal-property pack to every
    /// [`Family::LongHorizon`] cell, adding `monitor_violations/...`
    /// metrics; other families add no metrics for it. Monitoring never
    /// perturbs the measured metrics.
    #[must_use]
    pub fn with_monitor_pack(mut self, pack: PackConfig) -> Self {
        self.plan.pack = Some(pack);
        self
    }

    /// The frame horizon every cell runs to.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.plan.frames
    }

    /// The attached monitor pack, if any.
    #[must_use]
    pub fn pack(&self) -> Option<&PackConfig> {
        self.plan.pack.as_ref()
    }

    /// Number of cells ( = number of seeds: each campaign cell runs a
    /// whole experiment bundle for one seed).
    #[must_use]
    pub fn len(&self) -> usize {
        self.plan.seeds.len()
    }

    /// `true` when the list has no cells (unreachable through
    /// [`WorkList::new`], which rejects empty seed sets).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.plan.seeds.is_empty()
    }

    /// The stable ID of this list's cell for `seed`.
    #[must_use]
    pub fn cell_id(&self, seed: u64) -> String {
        format!(
            "{}/seed={seed}/frames={}",
            self.family.name(),
            self.plan.frames
        )
    }

    /// Every cell, in seed order — the canonical campaign ordering
    /// reports and journals share.
    #[must_use]
    pub fn cells(&self) -> Vec<WorkCell> {
        self.plan
            .seeds
            .iter()
            .map(|&seed| WorkCell {
                id: self.cell_id(seed),
                seed,
            })
            .collect()
    }

    /// Runs one cell to completion and returns its flat metrics, in
    /// the family's canonical order: the list's plan narrowed to the
    /// cell's seed, through [`Family::run`]. The inner experiment
    /// always runs serially, so the result is bit-identical however
    /// the *campaign* schedules cells — the property the journal's
    /// bit-exact resume contract rests on.
    #[must_use]
    pub fn run_cell(&self, cell: &WorkCell) -> CellMetrics {
        debug_assert_eq!(cell.id, self.cell_id(cell.seed), "foreign cell");
        let plan = RunPlan {
            seeds: vec![cell.seed],
            ..self.plan.clone()
        };
        let out = self
            .family
            .run(&plan)
            .pop()
            .expect("a one-seed plan yields one result");
        debug_assert!(
            out.iter()
                .all(|(name, _)| !name.contains(['=', ' ', '\t', '\n'])),
            "metric names must stay journal-token safe"
        );
        out
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
    }

    #[test]
    fn metric_table_renders_one_summary_cell_per_metric() {
        let cells: Vec<CellMetrics> = vec![
            vec![("energy".into(), 1.18), ("misses".into(), 2.0)],
            vec![("energy".into(), 1.20)],
        ];
        let text = metric_table(&fold_metrics(&cells)).render();
        assert_eq!(
            text,
            "Metric  Value\n\
             ------------------------------\n\
             energy  1.1900 ± 0.0141 (n=2)\n\
             misses  2.0000 (n=1)\n"
        );
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
    fn every_family_cell_names_its_metrics_uniquely() {
        for &family in Family::ALL {
            let list = WorkList::new(family, vec![3], 60);
            let metrics = list.run_cell(&list.cells()[0]);
            assert!(!metrics.is_empty(), "{family}: no metrics");
            let mut names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(names.len(), before, "{family}: duplicate metric names");
        }
    }

    #[test]
    fn ablation_cells_name_each_configuration_and_skip_the_oracle() {
        let list = WorkList::new(Family::StateLevels, vec![1], 60);
        let metrics = list.run_cell(&list.cells()[0]);
        assert!(metrics.iter().all(|(n, _)| !n.contains("oracle")));
        for key in ["n_3", "n_4", "n_5", "n_7", "n_9"] {
            assert!(
                metrics
                    .iter()
                    .any(|(n, _)| *n == format!("normalized_energy/{key}")),
                "missing {key}"
            );
        }
        let list = WorkList::new(Family::SharedTable, vec![1], 60);
        let metrics = list.run_cell(&list.cells()[0]);
        assert!(metrics.iter().any(|(n, _)| n == "explorations/geqiu"));
    }

    #[test]
    fn table3_cell_reports_per_method_metrics() {
        let list = WorkList::new(Family::Table3, vec![2], 120);
        let metrics = list.run_cell(&list.cells()[0]);
        assert!(metrics.iter().any(|(n, _)| n == "exploration_epochs/geqiu"));
        assert!(metrics.iter().any(|(n, _)| n == "exploration_epochs/rtm"));
    }
}
