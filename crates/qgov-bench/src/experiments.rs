//! The experiment registry: one [`Experiment`] per table, figure and
//! ablation of the paper's evaluation section (plus the long-horizon
//! extension), every one driven by a [`RunPlan`].
//!
//! An experiment records one workload trace per seed
//! ([`Experiment::prepare`]), replays it under each methodology cell
//! ([`Experiment::cell`] — so comparisons are frame-for-frame fair),
//! folds one seed's cells into its typed result
//! ([`Experiment::assemble`], e.g. [`Table1Result`] with its rendered
//! [`ComparisonTable`]) and flattens that result into named metrics
//! ([`Experiment::metrics`] — the campaign cell metrics, which
//! [`fold_metrics`](crate::worklist::fold_metrics) aggregates across
//! seeds).
//!
//! [`Experiment::run`] expands the plan's seed × cell grid into one
//! [`ExperimentBatch`] job queue. Every cell builds its own governor
//! and platform from its own trace clone, so results are
//! bit-identical on any worker count and for any seed order (see
//! [`crate::runner`]).
//!
//! ```
//! use qgov_bench::experiments::{Experiment, Table2};
//! use qgov_bench::plan::RunPlan;
//! use qgov_bench::runner::RunnerConfig;
//!
//! // Table II's six cells (3 applications × {UPD, EPD}) on 2 workers.
//! let plan = RunPlan {
//!     runner: RunnerConfig::with_workers(2),
//!     ..RunPlan::new(vec![1], 80)
//! };
//! let result = &Table2::run(&plan)[0];
//! assert_eq!(result.rows.len(), 3);
//! ```

use crate::harness::{precharacterize, run_experiment, run_experiment_monitored};
use crate::plan::RunPlan;
use crate::runner::ExperimentBatch;
use crate::worklist::{slug, CellMetrics};
use qgov_core::{EpochRecord, HistoryMode, RtmConfig, RtmGovernor, StateKind};
use qgov_governors::{
    ConservativeGovernor, GeQiuGovernor, Governor, OndemandGovernor, OracleGovernor,
};
use qgov_metrics::{
    standard_pack, ComparisonTable, MispredictionStats, MonitorReport, RunReport, Series,
    WindowSummary, WindowedStats,
};
use qgov_sim::{OppTable, PlatformConfig};
use qgov_workloads::shard::ScratchDir;
use qgov_workloads::{Application, FftModel, ShardedTrace, VideoDecoderModel, WorkloadTrace};

pub(crate) fn fmt2(v: f64) -> String {
    format!("{v:.2}")
}

pub(crate) fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// One experiment family: its methodology cells, how one seed's
/// workload is recorded, how one cell runs, how a seed's cells fold
/// into the typed result and how that result flattens into named
/// metrics.
///
/// Every step is a pure function of its inputs, which is what makes
/// [`Experiment::run`] bit-identical under any worker count.
pub trait Experiment {
    /// The methodology or configuration cells, in row order.
    const LABELS: &'static [&'static str];
    /// The shortest frame horizon a cell runs to completion. Campaign
    /// configs, `qgov run --frames` and the bench targets reject a
    /// shorter one.
    const MIN_FRAMES: u64 = 1;
    /// One seed's recorded workload, shared read-only by its cells.
    type Prep: Send + Sync;
    /// What one cell returns.
    type Cell: Send;
    /// The typed per-seed result.
    type Output;

    /// Records the workload for `seed`.
    fn prepare(plan: &RunPlan, seed: u64) -> Self::Prep;

    /// Runs the cell `label` for `seed` against its preparation.
    fn cell(plan: &RunPlan, label: &str, prep: &Self::Prep, seed: u64) -> Self::Cell;

    /// Folds one seed's cells, in [`Experiment::LABELS`] order, into
    /// the typed result.
    fn assemble(plan: &RunPlan, prep: &Self::Prep, cells: Vec<Self::Cell>) -> Self::Output;

    /// One seed's result as `(metric, value)` pairs in the family's
    /// canonical order — the metrics a campaign cell journals. Names
    /// derive from the cell labels, never from display strings.
    fn metrics(output: &Self::Output) -> CellMetrics;

    /// One seed's rendered comparison table.
    fn table(output: &Self::Output) -> String;

    /// Runs every plan seed and returns the typed results in seed
    /// order, in three phases:
    ///
    /// 1. [`Experiment::prepare`] once per **distinct** seed (duplicate
    ///    seeds share one deterministic recording), batched under the
    ///    plan's runner;
    /// 2. [`Experiment::cell`] for the whole label × seed cross product
    ///    in **one** job queue, so a plan of `s` seeds over `m` cells
    ///    keeps up to `s × m` workers busy;
    /// 3. [`Experiment::assemble`] per seed, with that seed's cells in
    ///    label order.
    ///
    /// Every cell derives from `(label, seed)` and its seed's
    /// preparation alone, so each result equals the same seed run
    /// alone, on any worker count (`tests/sweep_determinism.rs`).
    fn run(plan: &RunPlan) -> Vec<Self::Output>
    where
        Self: Sized,
    {
        let mut unique: Vec<u64> = Vec::new();
        for &seed in &plan.seeds {
            if !unique.contains(&seed) {
                unique.push(seed);
            }
        }
        let mut prep_batch = ExperimentBatch::new();
        for &seed in &unique {
            prep_batch.push(move || Self::prepare(plan, seed));
        }
        let preps = prep_batch.run(&plan.runner);
        let prep_of = |seed: u64| -> &Self::Prep {
            &preps[unique
                .iter()
                .position(|&s| s == seed)
                .expect("every plan seed was prepared")]
        };

        let mut batch = ExperimentBatch::new();
        for &label in Self::LABELS {
            for &seed in &plan.seeds {
                let prep = prep_of(seed);
                batch.push(move || Self::cell(plan, label, prep, seed));
            }
        }
        let results = batch.run(&plan.runner);

        // Cells were pushed labels outermost: regroup into per-seed
        // bundles, each in label order.
        let n = plan.seeds.len();
        let mut cells_by_seed: Vec<Vec<Self::Cell>> = (0..n)
            .map(|_| Vec::with_capacity(Self::LABELS.len()))
            .collect();
        for (i, cell) in results.into_iter().enumerate() {
            cells_by_seed[i % n].push(cell);
        }
        plan.seeds
            .iter()
            .zip(cells_by_seed)
            .map(|(&seed, cells)| Self::assemble(plan, prep_of(seed), cells))
            .collect()
    }
}

/// The position of `label` in `labels` (a cell label the family
/// itself enumerated).
pub(crate) fn index_of(labels: &[&str], label: &str) -> usize {
    labels
        .iter()
        .position(|&l| l == label)
        .unwrap_or_else(|| unreachable!("unknown cell {label}"))
}

/// A pre-characterised per-seed workload: the recorded trace every
/// methodology cell of one experiment family replays, plus its
/// `(min, max)` total-cycle bounds.
#[derive(Debug, Clone)]
pub struct TracePrep {
    pub(crate) trace: WorkloadTrace,
    pub(crate) bounds: (f64, f64),
}

impl TracePrep {
    /// Records `app` and its workload bounds.
    pub(crate) fn record(app: &mut dyn Application) -> Self {
        let (trace, bounds) = precharacterize(app);
        TracePrep { trace, bounds }
    }

    /// An RTM under `config`, bounded by this trace's workload range.
    pub(crate) fn rtm(&self, config: RtmConfig) -> RtmGovernor {
        RtmGovernor::new(config.with_workload_bounds(self.bounds.0, self.bounds.1))
            .expect("paper config is valid")
    }

    /// The Oracle that knows this trace in advance.
    fn oracle(&self) -> OracleGovernor {
        OracleGovernor::from_trace(&self.trace, &OppTable::odroid_xu3_a15(), 0.02)
    }

    /// Replays a fresh clone of the trace under `gov` on the paper's
    /// A15 quad.
    fn replay(&self, gov: &mut dyn Governor, frames: u64) -> RunReport {
        let mut replay = self.trace.clone();
        run_experiment(gov, &mut replay, PlatformConfig::odroid_xu3_a15(), frames).report
    }
}

fn explorations_of(rtm: &RtmGovernor) -> u64 {
    rtm.explorations_to_convergence()
        .unwrap_or_else(|| rtm.exploration_count())
}

/// One methodology's outcome in the Table I comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Methodology name.
    pub method: String,
    /// Energy normalised to the Oracle's (paper: ondemand 1.29,
    /// multi-core DVFS 1.20, proposed 1.11).
    pub normalized_energy: f64,
    /// Mean `Tᵢ/T_ref` (paper: 0.77 / 0.89 / 0.96).
    pub normalized_performance: f64,
    /// Fraction of missed deadlines (not in the paper's table; useful
    /// context).
    pub miss_rate: f64,
    /// Mean OPP index over the run.
    pub mean_opp: f64,
    /// Absolute ground-truth energy in joules.
    pub energy_joules: f64,
}

/// The Table I experiment bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Result {
    /// One row per methodology (ondemand, multi-core DVFS \[20\],
    /// proposed, oracle).
    pub rows: Vec<Table1Row>,
    /// Rendered comparison table.
    pub table: ComparisonTable,
}

/// **Table I** — comparative normalised energy and performance on the
/// H.264 football sequence (paper Section III-A). All methodologies
/// replay the identical recorded trace; energy is normalised to the
/// Oracle run, performance to `T_ref`.
#[derive(Debug, Clone, Copy)]
pub struct Table1;

impl Experiment for Table1 {
    const LABELS: &'static [&'static str] = &["ondemand", "geqiu", "rtm", "oracle"];
    type Prep = TracePrep;
    type Cell = RunReport;
    type Output = Table1Result;

    fn prepare(plan: &RunPlan, seed: u64) -> TracePrep {
        TracePrep::record(
            &mut VideoDecoderModel::h264_football_15fps(seed).with_frames(plan.frames),
        )
    }

    fn cell(plan: &RunPlan, label: &str, prep: &TracePrep, seed: u64) -> RunReport {
        let mut gov: Box<dyn Governor> = match label {
            "ondemand" => Box::new(OndemandGovernor::linux_default()),
            "geqiu" => Box::new(GeQiuGovernor::new(seed)),
            "rtm" => Box::new(prep.rtm(RtmConfig::paper(seed))),
            "oracle" => Box::new(prep.oracle()),
            other => unreachable!("unknown Table I cell {other}"),
        };
        prep.replay(gov.as_mut(), plan.frames)
    }

    fn assemble(_: &RunPlan, _: &TracePrep, reports: Vec<RunReport>) -> Table1Result {
        let oracle_report = reports.last().expect("oracle cell present");
        let label = |name: &str| -> String {
            match name {
                "ondemand" => "Linux Ondemand [5]".into(),
                "geqiu" => "Multi-core DVFS control [20]".into(),
                "rtm" => "Proposed".into(),
                "oracle" => "Oracle (reference)".into(),
                other => other.into(),
            }
        };
        let rows: Vec<Table1Row> = reports
            .iter()
            .map(|r| Table1Row {
                method: label(r.governor()),
                normalized_energy: r.normalized_energy(oracle_report),
                normalized_performance: r.normalized_performance(),
                miss_rate: r.miss_rate(),
                mean_opp: r.mean_opp(),
                energy_joules: r.total_energy().as_joules(),
            })
            .collect();

        let mut table = ComparisonTable::new(vec![
            "Methodology",
            "Normalized energy",
            "Normalized performance",
            "Miss rate",
            "Mean OPP",
        ]);
        for row in &rows {
            table.add_row(vec![
                row.method.clone(),
                fmt2(row.normalized_energy),
                fmt2(row.normalized_performance),
                fmt_pct(row.miss_rate),
                format!("{:.1}", row.mean_opp),
            ]);
        }
        Table1Result { rows, table }
    }

    fn metrics(r: &Table1Result) -> CellMetrics {
        Self::LABELS
            .iter()
            .zip(&r.rows)
            .flat_map(|(label, row)| {
                [
                    (format!("normalized_energy/{label}"), row.normalized_energy),
                    (
                        format!("normalized_performance/{label}"),
                        row.normalized_performance,
                    ),
                    (format!("miss_rate/{label}"), row.miss_rate),
                    (format!("mean_opp/{label}"), row.mean_opp),
                    (format!("energy_joules/{label}"), row.energy_joules),
                ]
            })
            .collect()
    }

    fn table(r: &Table1Result) -> String {
        r.table.render()
    }
}

/// One application's outcome in the Table II comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Row {
    /// Application label, e.g. "MPEG4 (30 fps)".
    pub app: String,
    /// Explorations to convergence with uniform exploration (\[21\];
    /// paper: 144 / 149 / 119).
    pub upd_explorations: u64,
    /// Explorations to convergence with the EPD (ours; paper: 83 / 90 /
    /// 74).
    pub epd_explorations: u64,
}

/// The Table II experiment bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Result {
    /// One row per application.
    pub rows: Vec<Table2Row>,
    /// Rendered comparison table.
    pub table: ComparisonTable,
}

/// Table II's application display names, in row order.
const TABLE2_APPS: &[&str] = &["MPEG4 (30 fps)", "H.264 (15 fps)", "FFT (32 fps)"];

/// **Table II** — number of explorations until convergence, EPD
/// (Eq. 2) versus the uniform-probability baseline \[21\] (Section
/// III-C): the paper's three applications × {UPD, EPD} are six cells.
/// The horizon caps each replay, not the recording — every application
/// keeps its own length.
#[derive(Debug, Clone, Copy)]
pub struct Table2;

impl Experiment for Table2 {
    /// Each application × {UPD, EPD}, in application order with UPD
    /// first (the paper's column order).
    const LABELS: &'static [&'static str] = &[
        "mpeg4/upd",
        "mpeg4/epd",
        "h264/upd",
        "h264/epd",
        "fft/upd",
        "fft/epd",
    ];
    type Prep = Vec<TracePrep>;
    type Cell = u64;
    type Output = Table2Result;

    fn prepare(_: &RunPlan, seed: u64) -> Vec<TracePrep> {
        let mut apps: Vec<Box<dyn Application>> = vec![
            Box::new(VideoDecoderModel::mpeg4_30fps(seed)),
            Box::new(VideoDecoderModel::h264_football_15fps(seed)),
            Box::new(FftModel::fft_32fps(seed)),
        ];
        apps.iter_mut()
            .map(|app| TracePrep::record(app.as_mut()))
            .collect()
    }

    fn cell(plan: &RunPlan, label: &str, prep: &Vec<TracePrep>, seed: u64) -> u64 {
        let index = index_of(Self::LABELS, label);
        let app = &prep[index / 2];
        let mut rtm = app.rtm(if index.is_multiple_of(2) {
            RtmConfig::upd_baseline(seed)
        } else {
            RtmConfig::paper(seed)
        });
        app.replay(&mut rtm, plan.frames);
        explorations_of(&rtm)
    }

    fn assemble(_: &RunPlan, _: &Vec<TracePrep>, counts: Vec<u64>) -> Table2Result {
        let rows: Vec<Table2Row> = TABLE2_APPS
            .iter()
            .zip(counts.chunks_exact(2))
            .map(|(app, pair)| Table2Row {
                app: (*app).into(),
                upd_explorations: pair[0],
                epd_explorations: pair[1],
            })
            .collect();

        let mut table = ComparisonTable::new(vec![
            "Application",
            "Explorations [21] (UPD)",
            "Our approach (EPD)",
        ]);
        for row in &rows {
            table.add_row(vec![
                row.app.clone(),
                row.upd_explorations.to_string(),
                row.epd_explorations.to_string(),
            ]);
        }
        Table2Result { rows, table }
    }

    /// Per application (the short key before the label's `/`): UPD and
    /// EPD explorations and their per-seed ratio.
    fn metrics(r: &Table2Result) -> CellMetrics {
        Self::LABELS
            .iter()
            .step_by(2)
            .map(|label| label.split('/').next().expect("app/policy label"))
            .zip(&r.rows)
            .flat_map(|(app, row)| {
                [
                    (
                        format!("upd_explorations/{app}"),
                        row.upd_explorations as f64,
                    ),
                    (
                        format!("epd_explorations/{app}"),
                        row.epd_explorations as f64,
                    ),
                    (
                        format!("epd_upd_ratio/{app}"),
                        row.epd_explorations as f64 / row.upd_explorations as f64,
                    ),
                ]
            })
            .collect()
    }

    fn table(r: &Table2Result) -> String {
        r.table.render()
    }
}

/// One methodology's outcome in the Table III comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table3Row {
    /// Methodology name.
    pub method: String,
    /// Decision epochs of the exploration phase — the period that pays
    /// full learning overhead every epoch (paper: 205 for \[20\], 105
    /// for the proposed approach).
    pub exploration_epochs: u64,
    /// Decision epochs until the learnt greedy policy stabilised
    /// (secondary, measurement-based view of the same quantity).
    pub convergence_epochs: Option<u64>,
}

/// The Table III experiment bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Result {
    /// One row per methodology.
    pub rows: Vec<Table3Row>,
    /// Rendered comparison table.
    pub table: ComparisonTable,
}

/// **Table III** — worst-case learning overhead in decision epochs
/// (Section III-D): per-core \[20\] versus the shared-table proposed
/// RTM on an ffmpeg-style decode with `T_ref` = 31 ms. The shared
/// Q-table converges roughly twice as fast.
#[derive(Debug, Clone, Copy)]
pub struct Table3;

impl Experiment for Table3 {
    const LABELS: &'static [&'static str] = &["geqiu", "rtm"];
    type Prep = TracePrep;
    /// `(exploration_epochs, converged_at)`.
    type Cell = (u64, Option<u64>);
    type Output = Table3Result;

    /// The paper's overhead workload: an ffmpeg decode at `T_ref` =
    /// 31 ms (~32 fps MPEG4).
    fn prepare(_: &RunPlan, seed: u64) -> TracePrep {
        let mut params = VideoDecoderModel::mpeg4_svga_24fps(seed).params().clone();
        params.name = "mpeg4-31ms".into();
        params.fps = 1.0 / 0.031;
        params.forced_scene_frames.clear();
        TracePrep::record(&mut VideoDecoderModel::new(params).expect("valid params"))
    }

    fn cell(plan: &RunPlan, label: &str, prep: &TracePrep, seed: u64) -> (u64, Option<u64>) {
        match label {
            "geqiu" => {
                let mut geqiu = GeQiuGovernor::new(seed);
                prep.replay(&mut geqiu, plan.frames);
                (geqiu.exploration_phase_epochs(), geqiu.converged_at())
            }
            "rtm" => {
                let mut rtm = prep.rtm(RtmConfig::paper(seed));
                prep.replay(&mut rtm, plan.frames);
                (rtm.exploration_phase_epochs(), rtm.converged_at())
            }
            other => unreachable!("unknown Table III cell {other}"),
        }
    }

    fn assemble(_: &RunPlan, _: &TracePrep, results: Vec<(u64, Option<u64>)>) -> Table3Result {
        let rows: Vec<Table3Row> = ["Multi-core DVFS control [20]", "Our approach"]
            .iter()
            .zip(&results)
            .map(
                |(method, &(exploration_epochs, convergence_epochs))| Table3Row {
                    method: (*method).into(),
                    exploration_epochs,
                    convergence_epochs,
                },
            )
            .collect();
        let mut table = ComparisonTable::new(vec![
            "Methodology",
            "Time overhead (decision epochs)",
            "Greedy policy stable at",
        ]);
        for row in &rows {
            table.add_row(vec![
                row.method.clone(),
                row.exploration_epochs.to_string(),
                row.convergence_epochs
                    .map_or_else(|| "not converged".into(), |e| e.to_string()),
            ]);
        }
        Table3Result { rows, table }
    }

    fn metrics(r: &Table3Result) -> CellMetrics {
        Self::LABELS
            .iter()
            .zip(&r.rows)
            .flat_map(|(label, row)| {
                std::iter::once((
                    format!("exploration_epochs/{label}"),
                    row.exploration_epochs as f64,
                ))
                .chain(
                    row.convergence_epochs
                        .map(|e| (format!("convergence_epochs/{label}"), e as f64)),
                )
            })
            .collect()
    }

    fn table(r: &Table3Result) -> String {
        r.table.render()
    }
}

/// The Fig. 3 experiment bundle: series plus headline statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Result {
    /// Predicted workload per frame (cycles).
    pub predicted: Series,
    /// Actual workload per frame (cycles).
    pub actual: Series,
    /// Average slack ratio `L` per frame.
    pub avg_slack: Series,
    /// Raw per-frame slack.
    pub frame_slack: Series,
    /// Mean relative misprediction over the first 100 frames (paper:
    /// ≈ 8 %).
    pub early_misprediction: f64,
    /// Mean relative misprediction after frame 100 (paper: ≈ 3 %).
    pub late_misprediction: f64,
    /// Frames whose error exceeds 15 % (the visible mispredictions).
    pub mispredicted_frames: Vec<usize>,
    /// The aligned CSV document for plotting.
    pub csv: String,
}

/// **Fig. 3** — workload misprediction for MPEG4 at 24 fps (γ = 0.6)
/// and the learning impact on average slack (Section III-B): one RTM
/// cell. The preset scripts a scene change at frame 90, reproducing
/// the paper's mid-exploitation misprediction burst.
#[derive(Debug, Clone, Copy)]
pub struct Fig3;

impl Experiment for Fig3 {
    const LABELS: &'static [&'static str] = &["rtm"];
    /// Epoch 0 makes no prediction, so the misprediction series starts
    /// at epoch 1 and needs a second frame.
    const MIN_FRAMES: u64 = 2;
    type Prep = TracePrep;
    /// The RTM's full epoch history (needs [`HistoryMode::Full`], the
    /// config default).
    type Cell = Vec<EpochRecord>;
    type Output = Fig3Result;

    fn prepare(plan: &RunPlan, seed: u64) -> TracePrep {
        TracePrep::record(&mut VideoDecoderModel::mpeg4_svga_24fps(seed).with_frames(plan.frames))
    }

    fn cell(plan: &RunPlan, label: &str, prep: &TracePrep, seed: u64) -> Vec<EpochRecord> {
        assert_eq!(label, "rtm", "unknown Fig. 3 cell {label}");
        let mut rtm = prep.rtm(RtmConfig::paper(seed));
        prep.replay(&mut rtm, plan.frames);
        rtm.history().to_vec()
    }

    fn assemble(_: &RunPlan, _: &TracePrep, cells: Vec<Vec<EpochRecord>>) -> Fig3Result {
        let history = cells.into_iter().next().expect("one cell");

        // Epoch 0 has no prediction yet; start the series at epoch 1.
        let predicted: Vec<f64> = history[1..]
            .iter()
            .map(|r| r.predicted_total_cycles)
            .collect();
        let actual: Vec<f64> = history[1..].iter().map(|r| r.actual_total_cycles).collect();
        let avg_slack: Vec<f64> = history[1..].iter().map(|r| r.avg_slack).collect();
        let frame_slack: Vec<f64> = history[1..].iter().map(|r| r.frame_slack).collect();

        let stats = MispredictionStats::from_series(&predicted, &actual);
        let split = 100.min(stats.len().saturating_sub(1)).max(1);
        let early = stats.windowed_relative_error(0, split);
        let late = if stats.len() > split {
            stats.windowed_relative_error(split, stats.len())
        } else {
            early
        };

        let predicted = Series::from_ys("predicted_cc", &predicted);
        let actual = Series::from_ys("actual_cc", &actual);
        let avg_slack_s = Series::from_ys("avg_slack", &avg_slack);
        let frame_slack_s = Series::from_ys("frame_slack", &frame_slack);
        let csv = Series::to_csv_aligned(
            "frame",
            &[&predicted, &actual, &avg_slack_s, &frame_slack_s],
        );
        Fig3Result {
            predicted,
            actual,
            avg_slack: avg_slack_s,
            frame_slack: frame_slack_s,
            early_misprediction: early,
            late_misprediction: late,
            mispredicted_frames: stats.mispredicted_frames(0.15),
            csv,
        }
    }

    fn metrics(r: &Fig3Result) -> CellMetrics {
        vec![
            ("early_misprediction".into(), r.early_misprediction),
            ("late_misprediction".into(), r.late_misprediction),
            (
                "mispredicted_frames".into(),
                r.mispredicted_frames.len() as f64,
            ),
        ]
    }

    fn table(r: &Fig3Result) -> String {
        format!(
            "misprediction: {} over frames 1-100, {} after; frames with >15% \
             misprediction: {:?}\n",
            fmt_pct(r.early_misprediction),
            fmt_pct(r.late_misprediction),
            r.mispredicted_frames
        )
    }
}

/// One configuration's outcome in an ablation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Configuration label.
    pub label: String,
    /// Energy normalised to the Oracle on the same trace.
    pub normalized_energy: f64,
    /// Mean `Tᵢ/T_ref`.
    pub normalized_performance: f64,
    /// Deadline miss rate.
    pub miss_rate: f64,
    /// Convergence epoch, if reached.
    pub convergence_epochs: Option<u64>,
    /// Explorations until convergence (or total if never converged).
    pub explorations: u64,
}

/// An ablation sweep bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// One row per configuration.
    pub rows: Vec<AblationRow>,
    /// Rendered comparison table.
    pub table: ComparisonTable,
}

/// What one learning-governor ablation cell reports back: the run
/// report, the convergence epoch (if reached) and the exploration
/// count.
pub type AblationCell = (RunReport, Option<u64>, u64);

impl AblationResult {
    /// Folds the configuration cells (the Oracle reference first) into
    /// rows, the `i`-th configuration named `row_label(i)`.
    fn assemble(
        label_header: &str,
        mut cells: Vec<AblationCell>,
        row_label: impl Fn(usize) -> String,
    ) -> Self {
        let (oracle, _, _) = cells.remove(0);
        let rows: Vec<AblationRow> = cells
            .iter()
            .enumerate()
            .map(|(i, (report, converged, explorations))| AblationRow {
                label: row_label(i),
                normalized_energy: report.normalized_energy(&oracle),
                normalized_performance: report.normalized_performance(),
                miss_rate: report.miss_rate(),
                convergence_epochs: *converged,
                explorations: *explorations,
            })
            .collect();
        let mut table = ComparisonTable::new(vec![
            label_header,
            "Normalized energy",
            "Normalized performance",
            "Miss rate",
            "Convergence (epochs)",
            "Explorations",
        ]);
        for row in &rows {
            table.add_row(vec![
                row.label.clone(),
                fmt2(row.normalized_energy),
                fmt2(row.normalized_performance),
                fmt_pct(row.miss_rate),
                row.convergence_epochs
                    .map_or_else(|| "-".into(), |e| e.to_string()),
                row.explorations.to_string(),
            ]);
        }
        AblationResult { rows, table }
    }

    /// Flat metrics per configuration. `labels` lists the family's
    /// cells Oracle first; the Oracle is only the normalisation
    /// reference and has no row, so each row takes the label after it.
    fn metrics(&self, labels: &[&str]) -> CellMetrics {
        debug_assert_eq!(labels[0], "oracle");
        debug_assert_eq!(self.rows.len(), labels.len() - 1);
        labels[1..]
            .iter()
            .zip(&self.rows)
            .flat_map(|(label, row)| {
                let key = slug(label);
                [
                    (format!("normalized_energy/{key}"), row.normalized_energy),
                    (
                        format!("normalized_performance/{key}"),
                        row.normalized_performance,
                    ),
                    (format!("miss_rate/{key}"), row.miss_rate),
                    (format!("explorations/{key}"), row.explorations as f64),
                ]
                .into_iter()
                .chain(
                    row.convergence_epochs
                        .map(|e| (format!("convergence_epochs/{key}"), e as f64)),
                )
            })
            .collect()
    }
}

impl TracePrep {
    /// The Oracle reference cell every ablation normalises against.
    fn oracle_cell(&self, frames: u64) -> AblationCell {
        (self.replay(&mut self.oracle(), frames), None, 0)
    }

    /// An RTM cell under `config`.
    fn rtm_cell(&self, config: RtmConfig, frames: u64) -> AblationCell {
        let mut rtm = self.rtm(config);
        let report = self.replay(&mut rtm, frames);
        (report, rtm.converged_at(), explorations_of(&rtm))
    }
}

const LEVELS: [usize; 5] = [3, 4, 5, 7, 9];

/// **Ablation** — the state discretisation level count N (the paper
/// fixes N = 5 from pre-characterisation): more levels give finer
/// control but a larger Q-table that takes longer to learn. The Oracle
/// reference and the five N configurations are six cells.
#[derive(Debug, Clone, Copy)]
pub struct StateLevels;

impl Experiment for StateLevels {
    const LABELS: &'static [&'static str] = &["oracle", "n=3", "n=4", "n=5", "n=7", "n=9"];
    type Prep = TracePrep;
    type Cell = AblationCell;
    type Output = AblationResult;

    fn prepare(plan: &RunPlan, seed: u64) -> TracePrep {
        TracePrep::record(
            &mut VideoDecoderModel::h264_football_15fps(seed).with_frames(plan.frames),
        )
    }

    fn cell(plan: &RunPlan, label: &str, prep: &TracePrep, seed: u64) -> AblationCell {
        if label == "oracle" {
            return prep.oracle_cell(plan.frames);
        }
        let n = LEVELS[index_of(Self::LABELS, label) - 1];
        let mut config = RtmConfig::paper(seed);
        config.levels = n;
        prep.rtm_cell(config, plan.frames)
    }

    fn assemble(_: &RunPlan, _: &TracePrep, cells: Vec<AblationCell>) -> AblationResult {
        AblationResult::assemble("State levels", cells, |i| {
            let n = LEVELS[i];
            format!("N = {n} ({} states)", n * n)
        })
    }

    fn metrics(r: &AblationResult) -> CellMetrics {
        r.metrics(Self::LABELS)
    }

    fn table(r: &AblationResult) -> String {
        r.table.render()
    }
}

const GAMMAS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 0.95];

/// **Ablation** — the EWMA smoothing factor γ (the paper determines
/// γ = 0.6 experimentally): small γ lags workload changes, large γ
/// chases noise. The Oracle reference and the five γ configurations
/// are six cells; each γ cell also reports its mean relative
/// misprediction, shown in its row label.
#[derive(Debug, Clone, Copy)]
pub struct Smoothing;

impl Experiment for Smoothing {
    const LABELS: &'static [&'static str] = &[
        "oracle",
        "gamma=0.2",
        "gamma=0.4",
        "gamma=0.6",
        "gamma=0.8",
        "gamma=0.95",
    ];
    /// Epoch 0 makes no prediction, so the misprediction series starts
    /// at epoch 1 and needs a second frame.
    const MIN_FRAMES: u64 = 2;
    type Prep = TracePrep;
    /// The ablation cell plus its mean relative misprediction.
    type Cell = (AblationCell, f64);
    type Output = AblationResult;

    fn prepare(plan: &RunPlan, seed: u64) -> TracePrep {
        TracePrep::record(&mut VideoDecoderModel::mpeg4_svga_24fps(seed).with_frames(plan.frames))
    }

    /// γ cells need [`HistoryMode::Full`] (the config default) for the
    /// misprediction.
    fn cell(plan: &RunPlan, label: &str, prep: &TracePrep, seed: u64) -> (AblationCell, f64) {
        if label == "oracle" {
            return (prep.oracle_cell(plan.frames), 0.0);
        }
        let mut config = RtmConfig::paper(seed);
        config.smoothing = GAMMAS[index_of(Self::LABELS, label) - 1];
        let mut rtm = prep.rtm(config);
        let report = prep.replay(&mut rtm, plan.frames);
        // Misprediction over the whole run (epoch 0 has none).
        let history = rtm.history();
        let predicted: Vec<f64> = history[1..]
            .iter()
            .map(|r| r.predicted_total_cycles)
            .collect();
        let actual: Vec<f64> = history[1..].iter().map(|r| r.actual_total_cycles).collect();
        let stats = MispredictionStats::from_series(&predicted, &actual);
        let cell = (report, rtm.converged_at(), explorations_of(&rtm));
        (cell, stats.mean_relative_error())
    }

    fn assemble(_: &RunPlan, _: &TracePrep, cells: Vec<(AblationCell, f64)>) -> AblationResult {
        let (cells, mispredictions): (Vec<AblationCell>, Vec<f64>) = cells.into_iter().unzip();
        AblationResult::assemble("EWMA smoothing", cells, |i| {
            format!(
                "gamma = {:.2} (misprediction {:.1}%)",
                GAMMAS[i],
                mispredictions[i + 1] * 100.0
            )
        })
    }

    fn metrics(r: &AblationResult) -> CellMetrics {
        r.metrics(Self::LABELS)
    }

    fn table(r: &AblationResult) -> String {
        r.table.render()
    }
}

/// **Ablation** — the Section II-D claim that sharing one Q-table
/// across cores converges faster: the Oracle reference, the two
/// shared-table formulations and Ge & Qiu's per-core independent
/// tables are four cells.
#[derive(Debug, Clone, Copy)]
pub struct SharedTable;

impl Experiment for SharedTable {
    const LABELS: &'static [&'static str] = &["oracle", "cluster", "per-core-share", "geqiu"];
    type Prep = TracePrep;
    type Cell = AblationCell;
    type Output = AblationResult;

    fn prepare(plan: &RunPlan, seed: u64) -> TracePrep {
        TracePrep::record(
            &mut VideoDecoderModel::h264_football_15fps(seed).with_frames(plan.frames),
        )
    }

    fn cell(plan: &RunPlan, label: &str, prep: &TracePrep, seed: u64) -> AblationCell {
        match label {
            "oracle" => prep.oracle_cell(plan.frames),
            "cluster" => prep.rtm_cell(RtmConfig::paper(seed), plan.frames),
            "per-core-share" => {
                let mut config = RtmConfig::paper(seed);
                config.state_kind = StateKind::PerCoreShare;
                prep.rtm_cell(config, plan.frames)
            }
            "geqiu" => {
                let mut gov = GeQiuGovernor::new(seed);
                let report = prep.replay(&mut gov, plan.frames);
                (report, gov.converged_at(), gov.exploration_count())
            }
            other => unreachable!("unknown shared-table cell {other}"),
        }
    }

    fn assemble(_: &RunPlan, _: &TracePrep, cells: Vec<AblationCell>) -> AblationResult {
        let labels = [
            "Shared Q-table, cluster state",
            "Shared Q-table, round-robin per-core (Eq. 7)",
            "Per-core independent tables [20]",
        ];
        AblationResult::assemble("Formulation", cells, |i| labels[i].into())
    }

    fn metrics(r: &AblationResult) -> CellMetrics {
        r.metrics(Self::LABELS)
    }

    fn table(r: &AblationResult) -> String {
        r.table.render()
    }
}

/// Number of convergence windows a long-horizon run is folded into.
pub const LONG_HORIZON_WINDOWS: u64 = 10;

/// Shard length the long-horizon experiment records with for a given
/// horizon: a quarter of the run, clamped to `[64, 4096]` frames —
/// small runs still cross shard boundaries (exercising the streaming
/// path), long runs stay bounded at ~4096 resident frames however far
/// the horizon extends.
#[must_use]
pub fn long_horizon_shard_frames(frames: u64) -> usize {
    usize::try_from((frames / 4).clamp(64, 4096)).expect("clamped to 4096")
}

/// One governor's outcome in the long-horizon streaming comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct LongHorizonRow {
    /// Methodology name.
    pub method: String,
    /// Energy normalised to the Linux ondemand run on the identical
    /// streamed trace (the Oracle needs the whole trace in memory, so
    /// it cannot referee a horizon whose point is never materialising
    /// one).
    pub normalized_energy: f64,
    /// Mean `Tᵢ/T_ref` over the whole run.
    pub normalized_performance: f64,
    /// Whole-run deadline miss rate.
    pub miss_rate: f64,
    /// Mean OPP index over the run.
    pub mean_opp: f64,
    /// Absolute ground-truth energy in joules.
    pub energy_joules: f64,
    /// Miss rate over the first convergence window (the learning
    /// phase, for the Q-governor).
    pub early_miss_rate: f64,
    /// Miss rate over the last convergence window (the exploited
    /// policy).
    pub late_miss_rate: f64,
    /// Windowed deadline-miss folds ([`LONG_HORIZON_WINDOWS`] windows;
    /// each mean is that window's miss rate).
    pub windowed_miss: Vec<WindowSummary>,
    /// Windowed `Tᵢ/T_ref` folds over the same windows.
    pub windowed_frame_time: Vec<WindowSummary>,
    /// Temporal-property verdicts, when the plan carried a monitor
    /// pack; `None` otherwise.
    pub monitor: Option<MonitorReport>,
}

/// The long-horizon experiment bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct LongHorizonResult {
    /// One row per methodology (ondemand, conservative, proposed).
    pub rows: Vec<LongHorizonRow>,
    /// Rendered whole-run comparison table.
    pub table: ComparisonTable,
    /// Rendered convergence-over-time table: per window, each
    /// methodology's miss rate plus the proposed governor's mean
    /// `Tᵢ/T_ref`.
    pub windows_table: ComparisonTable,
    /// Frames replayed.
    pub frames: u64,
    /// Shard length the trace was streamed at.
    pub shard_frames: usize,
    /// Shard files the recording produced.
    pub shard_count: usize,
}

/// How many recent [`EpochRecord`]s the long-horizon RTM retains:
/// nothing reads its history, so the run keeps only a bounded
/// diagnostic tail instead of growing O(frames) memory — the
/// [`HistoryMode::LastN`] path CI's 20k-frame smoke exercises.
const LONG_HORIZON_HISTORY: usize = 1024;

/// **Long horizon** — the Q-learning governor versus the Linux
/// ondemand and conservative heuristics over a horizon streamed from
/// disk ([`ShardedTrace`]). Designed for ≥ 100k frames: the trace
/// never materialises in memory.
///
/// The workload (the H.264 football model looped to the horizon) is
/// recorded once per seed into binary shards on a scratch directory;
/// every methodology cell streams its own [`ShardedTrace`] clone, so
/// memory stays bounded by one shard per live cell while the replay is
/// frame-identical across methodologies (and bit-identical to an
/// in-memory replay of the same recording — the streaming contract
/// `tests/long_horizon_streaming.rs` pins). Convergence over time is
/// reported as [`LONG_HORIZON_WINDOWS`] windowed miss-rate and
/// frame-time folds per methodology. A plan's monitor pack rides every
/// cell ([`standard_pack`], keyed by the cell label) without perturbing
/// any metric.
///
/// # Panics
///
/// Panics if the scratch directory cannot be written — a long-horizon
/// experiment without disk is meaningless.
#[derive(Debug, Clone, Copy)]
pub struct LongHorizon;

/// The long-horizon experiment's per-seed preparation: the workload
/// recorded once into binary shards on a private scratch directory, which
/// lives as long as this value (dropping it removes the directory).
#[derive(Debug)]
pub struct LongHorizonPrep {
    /// Keeps the scratch directory alive for the replaying cells; the
    /// field is the RAII guard itself, never read.
    _dir: ScratchDir,
    trace: ShardedTrace,
    bounds: (f64, f64),
    shard_frames: usize,
    shard_count: usize,
}

impl Experiment for LongHorizon {
    const LABELS: &'static [&'static str] = &["ondemand", "conservative", "rtm"];
    type Prep = LongHorizonPrep;
    type Cell = RunReport;
    type Output = LongHorizonResult;

    fn prepare(plan: &RunPlan, seed: u64) -> LongHorizonPrep {
        let frames = plan.frames;
        let shard_frames = long_horizon_shard_frames(frames);
        // A scratch recording unique to this preparation (results never
        // depend on the directory name), removed when the prep drops.
        let dir = ScratchDir::unique(&format!("qgov-long-horizon-{seed}-{frames}"));
        let mut app = VideoDecoderModel::h264_football_15fps(seed).with_frames(frames);
        let trace = ShardedTrace::record(&mut app, dir.path(), frames, shard_frames)
            .expect("long-horizon scratch recording must be writable");
        LongHorizonPrep {
            _dir: dir,
            bounds: trace.workload_bounds(),
            shard_count: trace.shard_count(),
            trace,
            shard_frames,
        }
    }

    fn cell(plan: &RunPlan, label: &str, prep: &LongHorizonPrep, seed: u64) -> RunReport {
        let config = PlatformConfig::odroid_xu3_a15();
        let mut replay = prep.trace.clone();
        let mut gov: Box<dyn Governor> = match label {
            "ondemand" => Box::new(OndemandGovernor::linux_default()),
            "conservative" => Box::new(ConservativeGovernor::linux_default()),
            "rtm" => Box::new(
                RtmGovernor::new(
                    RtmConfig::paper(seed)
                        .with_workload_bounds(prep.bounds.0, prep.bounds.1)
                        .with_history(HistoryMode::LastN(LONG_HORIZON_HISTORY)),
                )
                .expect("paper config is valid"),
            ),
            other => unreachable!("unknown long-horizon cell {other}"),
        };
        match &plan.pack {
            Some(cfg) => {
                let mut monitors = standard_pack(label, cfg);
                run_experiment_monitored(
                    gov.as_mut(),
                    &mut replay,
                    config,
                    plan.frames,
                    &mut monitors,
                )
                .report
            }
            None => run_experiment(gov.as_mut(), &mut replay, config, plan.frames).report,
        }
    }

    fn assemble(
        plan: &RunPlan,
        prep: &LongHorizonPrep,
        reports: Vec<RunReport>,
    ) -> LongHorizonResult {
        let frames = plan.frames;
        let baseline = reports.first().expect("ondemand cell present");
        let labels = [
            "Linux Ondemand [5]",
            "Linux Conservative",
            "Proposed (Q-learning RTM)",
        ];
        let rows: Vec<LongHorizonRow> = labels
            .iter()
            .zip(&reports)
            .map(|(method, report)| {
                let mut miss = WindowedStats::spanning(frames, LONG_HORIZON_WINDOWS);
                let mut frame_time = WindowedStats::spanning(frames, LONG_HORIZON_WINDOWS);
                for stat in report.frame_stats() {
                    miss.push(if stat.met_deadline { 0.0 } else { 1.0 });
                    frame_time.push(stat.frame_time.ratio(report.period()));
                }
                let windowed_miss = miss.into_windows();
                let windowed_frame_time = frame_time.into_windows();
                LongHorizonRow {
                    method: (*method).into(),
                    normalized_energy: report.normalized_energy(baseline),
                    normalized_performance: report.normalized_performance(),
                    miss_rate: report.miss_rate(),
                    mean_opp: report.mean_opp(),
                    energy_joules: report.total_energy().as_joules(),
                    early_miss_rate: windowed_miss.first().map_or(0.0, |w| w.mean),
                    late_miss_rate: windowed_miss.last().map_or(0.0, |w| w.mean),
                    windowed_miss,
                    windowed_frame_time,
                    monitor: report.monitor_report().cloned(),
                }
            })
            .collect();

        let mut table = ComparisonTable::new(vec![
            "Methodology",
            "Normalized energy",
            "Normalized performance",
            "Miss rate",
            "Early miss (first window)",
            "Late miss (last window)",
            "Mean OPP",
        ]);
        for row in &rows {
            table.add_row(vec![
                row.method.clone(),
                fmt2(row.normalized_energy),
                fmt2(row.normalized_performance),
                fmt_pct(row.miss_rate),
                fmt_pct(row.early_miss_rate),
                fmt_pct(row.late_miss_rate),
                format!("{:.1}", row.mean_opp),
            ]);
        }

        let mut window_headers = vec!["Window (frames)".to_owned()];
        window_headers.extend(rows.iter().map(|r| format!("{} miss", r.method)));
        window_headers.push("Proposed T/T_ref".to_owned());
        let mut windows_table = ComparisonTable::new(window_headers);
        let window_count = rows.first().map_or(0, |r| r.windowed_miss.len());
        for w in 0..window_count {
            let span = &rows[0].windowed_miss[w];
            let mut cells = vec![format!("{}..{}", span.start, span.start + span.len)];
            cells.extend(rows.iter().map(|r| fmt_pct(r.windowed_miss[w].mean)));
            let rtm = rows.last().expect("three rows");
            cells.push(fmt2(rtm.windowed_frame_time[w].mean));
            windows_table.add_row(cells);
        }

        LongHorizonResult {
            rows,
            table,
            windows_table,
            frames,
            shard_frames: prep.shard_frames,
            shard_count: prep.shard_count,
        }
    }

    fn metrics(r: &LongHorizonResult) -> CellMetrics {
        Self::LABELS
            .iter()
            .zip(&r.rows)
            .flat_map(|(label, row)| {
                [
                    (format!("normalized_energy/{label}"), row.normalized_energy),
                    (
                        format!("normalized_performance/{label}"),
                        row.normalized_performance,
                    ),
                    (format!("miss_rate/{label}"), row.miss_rate),
                    (format!("mean_opp/{label}"), row.mean_opp),
                    (format!("energy_joules/{label}"), row.energy_joules),
                    (format!("early_miss_rate/{label}"), row.early_miss_rate),
                    (format!("late_miss_rate/{label}"), row.late_miss_rate),
                ]
                .into_iter()
                .chain(row.monitor.as_ref().map(|m| {
                    (
                        format!("monitor_violations/{label}"),
                        m.violation_count() as f64,
                    )
                }))
            })
            .collect()
    }

    fn table(r: &LongHorizonResult) -> String {
        r.table.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunnerConfig;

    // Short-run smoke tests; the full-length shape assertions live in
    // the workspace integration tests and the bench targets, and the
    // serial/parallel bit-identity in `tests/runner_determinism.rs`.

    fn serial(seed: u64, frames: u64) -> RunPlan {
        RunPlan {
            runner: RunnerConfig::serial(),
            ..RunPlan::new(vec![seed], frames)
        }
    }

    #[test]
    fn table1_rows_are_complete_and_normalised() {
        let result = Table1::run(&serial(1, 300)).remove(0);
        assert_eq!(result.rows.len(), 4);
        let oracle = result
            .rows
            .iter()
            .find(|r| r.method.contains("Oracle"))
            .unwrap();
        assert!((oracle.normalized_energy - 1.0).abs() < 1e-9);
        for row in &result.rows {
            assert!(row.normalized_energy >= 0.99, "{row:?}");
            assert!(row.normalized_performance > 0.0, "{row:?}");
        }
        assert!(Table1::table(&result).contains("Proposed"));
    }

    #[test]
    fn table2_reports_all_three_apps() {
        let result = Table2::run(&serial(1, 400)).remove(0);
        assert_eq!(result.rows.len(), 3);
        for row in &result.rows {
            assert!(row.epd_explorations > 0, "{row:?}");
            assert!(row.upd_explorations > 0, "{row:?}");
        }
    }

    #[test]
    fn fig3_produces_aligned_series() {
        let result = Fig3::run(&serial(1, 150)).remove(0);
        assert_eq!(result.predicted.len(), result.actual.len());
        assert_eq!(result.predicted.len(), 149);
        assert!(result.early_misprediction > 0.0);
        assert!(result.csv.starts_with("frame,predicted_cc,actual_cc"));
    }

    #[test]
    fn table3_produces_both_methods() {
        let result = Table3::run(&serial(1, 300)).remove(0);
        assert_eq!(result.rows.len(), 2);
        assert!(Table3::table(&result).contains("Our approach"));
    }

    #[test]
    fn smoothing_rows_carry_their_misprediction() {
        let result = Smoothing::run(&serial(1, 100)).remove(0);
        assert_eq!(result.rows.len(), GAMMAS.len());
        assert!(
            result
                .rows
                .iter()
                .all(|r| r.label.contains("misprediction")),
            "{:?}",
            result.rows.iter().map(|r| &r.label).collect::<Vec<_>>()
        );
    }

    #[test]
    fn long_horizon_rows_windows_and_normalisation() {
        let result = LongHorizon::run(&serial(1, 400)).remove(0);
        assert_eq!(result.rows.len(), 3);
        assert_eq!(result.frames, 400);
        // 400 frames at 100 per shard: the streaming path crossed
        // shard boundaries.
        assert_eq!(result.shard_frames, 100);
        assert_eq!(result.shard_count, 4);
        let ondemand = &result.rows[0];
        assert!((ondemand.normalized_energy - 1.0).abs() < 1e-9);
        for row in &result.rows {
            assert_eq!(row.windowed_miss.len(), LONG_HORIZON_WINDOWS as usize);
            assert_eq!(row.windowed_frame_time.len(), LONG_HORIZON_WINDOWS as usize);
            let total: u64 = row.windowed_miss.iter().map(|w| w.len).sum();
            assert_eq!(total, 400, "windows must tile the run exactly");
            assert!(row.normalized_performance > 0.0, "{row:?}");
        }
        assert!(result.table.render().contains("Proposed"));
        assert!(result.windows_table.render().contains("0..40"));
    }

    #[test]
    fn long_horizon_shard_frames_is_clamped() {
        assert_eq!(long_horizon_shard_frames(100), 64);
        assert_eq!(long_horizon_shard_frames(400), 100);
        assert_eq!(long_horizon_shard_frames(100_000), 4096);
        assert_eq!(long_horizon_shard_frames(10_000_000), 4096);
    }
}
