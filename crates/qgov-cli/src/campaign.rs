//! Campaign state directories: init, kill-safe execution, resume, and
//! the bit-exact report.
//!
//! A state dir holds two files:
//!
//! * `campaign.toml` — the config's canonical rendering, written at
//!   init so `resume`/`report` need no original config path;
//! * `journal.log` — the append-only completed-cell journal
//!   ([`crate::journal`]), the campaign's only record of progress.
//!
//! A completed cell costs one rendered journal line and one
//! `write_all`, however many cells are already done. A `snapshot.log`
//! left by an older build is ignored: every cell it lists was
//! journaled first.
//!
//! # The bit-identity argument
//!
//! [`render_report`] reads **only** journaled bits: every `f64` in the
//! report comes from a journal line's bit pattern, cells are
//! enumerated in work-list order (never journal order), and
//! [`MetricSummary::from_samples`] sorts its samples. So the report is
//! a pure function of {config, set of completed cells}. Since
//! [`qgov_bench::worklist::WorkList::run_cell`] is bit-deterministic
//! and scheduling-independent,
//! an interrupted campaign that reruns its missing cells lands on the
//! same completed set — and therefore the byte-identical report — as a
//! campaign that was never killed, under any worker count. That is the
//! property `tests/campaign_resume.rs` enforces with real kills.

use crate::config::{CampaignConfig, ConfigError, MonitorChoice};
use crate::journal::{self, CellRecord, JournalError, JournalWriter};
use qgov_bench::perf::BenchRecord;
use qgov_bench::worklist::{fold_metrics, metric_table};
use qgov_bench::{ExperimentBatch, RunnerConfig};
use qgov_metrics::MetricSummary;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// File name of the canonical config inside a state dir.
pub const CONFIG_FILE: &str = "campaign.toml";
/// File name of the append-only journal inside a state dir.
pub const JOURNAL_FILE: &str = "journal.log";
/// File name of the full-set snapshot older builds rewrote into a state
/// dir. No campaign reads or writes it any more; its only user is
/// perfbench's traced `storm_campaign` mirror, and it is deleted
/// together with that mirror (ROADMAP.md, item 3).
pub const SNAPSHOT_FILE: &str = "snapshot.log";

/// Why a campaign operation failed.
#[derive(Debug)]
pub enum CampaignError {
    /// The config file was invalid (CLI exit code 3).
    Config(ConfigError),
    /// Journal rejected (CLI exit code 4).
    Journal(JournalError),
    /// Any other state-dir problem (CLI exit code 4).
    State(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Config(e) => e.fmt(f),
            CampaignError::Journal(e) => e.fmt(f),
            CampaignError::State(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<ConfigError> for CampaignError {
    fn from(e: ConfigError) -> Self {
        CampaignError::Config(e)
    }
}

impl From<JournalError> for CampaignError {
    fn from(e: JournalError) -> Self {
        CampaignError::Journal(e)
    }
}

fn config_path(dir: &Path) -> PathBuf {
    dir.join(CONFIG_FILE)
}
fn journal_path(dir: &Path) -> PathBuf {
    dir.join(JOURNAL_FILE)
}

/// Initialises a state dir for `config`: creates the directory, writes
/// the canonical config, and creates the journal with its header.
/// Refuses a directory that already holds a journal — that is what
/// `resume` is for.
///
/// # Errors
///
/// [`CampaignError::State`] on an already-initialised dir or
/// filesystem failure.
pub fn init(dir: &Path, config: &CampaignConfig) -> Result<(), CampaignError> {
    std::fs::create_dir_all(dir).map_err(|e| {
        CampaignError::State(format!("cannot create state dir {}: {e}", dir.display()))
    })?;
    let journal = journal_path(dir);
    if journal.exists() {
        return Err(CampaignError::State(format!(
            "{} already holds a campaign journal — use `qgov resume {}` to continue it, \
             or point --state at a fresh directory",
            dir.display(),
            dir.display()
        )));
    }
    std::fs::write(config_path(dir), config.canonical()).map_err(|e| {
        CampaignError::State(format!("cannot write {}: {e}", config_path(dir).display()))
    })?;
    // Creates the header (and honours QGOV_CAMPAIGN_KILL_AFTER=0).
    let _writer = JournalWriter::create(&journal, config.fingerprint())?;
    Ok(())
}

/// Loads the canonical config a state dir was initialised with.
///
/// # Errors
///
/// [`CampaignError::State`] when the dir or its `campaign.toml` is
/// missing; [`CampaignError::Config`] when the file no longer parses.
pub fn load(dir: &Path) -> Result<CampaignConfig, CampaignError> {
    let path = config_path(dir);
    if !path.exists() {
        return Err(CampaignError::State(format!(
            "{} is not a campaign state dir (no {CONFIG_FILE}); \
             run `qgov sweep --state {}` first",
            dir.display(),
            dir.display()
        )));
    }
    Ok(CampaignConfig::from_file(&path)?)
}

/// The durable progress of a campaign: its completed cells (from the
/// journal alone, validated and deduplicated), scan diagnostics, and
/// the journal's clean byte length for tail repair.
#[derive(Debug)]
pub struct Progress {
    /// Completed cells by ID.
    pub cells: HashMap<String, CellRecord>,
    /// Diagnostics from the journal scan.
    pub warnings: Vec<String>,
    /// Parseable journal prefix length (see [`journal::ScanOutcome`]).
    pub journal_clean_len: u64,
}

/// Reads a campaign's durable progress from its journal.
///
/// # Errors
///
/// Propagates journal rejections ([`CampaignError::Journal`]),
/// including conflicting entries for one cell.
pub fn progress(dir: &Path, config: &CampaignConfig) -> Result<Progress, CampaignError> {
    let fingerprint = config.fingerprint();
    let ids: HashSet<String> = config
        .worklist()
        .cells()
        .into_iter()
        .map(|c| c.id)
        .collect();
    let scan = journal::scan(&journal_path(dir), fingerprint, |id| ids.contains(id))?;
    let cells: HashMap<String, CellRecord> = scan
        .cells
        .into_iter()
        .map(|record| (record.id.clone(), record))
        .collect();
    let mut warnings = scan.warnings;
    if cells.len() == ids.len() {
        warnings.retain(|w| !w.contains("torn")); // nothing left to rerun
    }
    Ok(Progress {
        cells,
        warnings,
        journal_clean_len: scan.clean_len,
    })
}

/// What a [`run`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Total cells in the work list.
    pub total: usize,
    /// Cells executed by this invocation.
    pub ran: usize,
    /// Cells already durable before this invocation.
    pub skipped: usize,
}

/// Runs every not-yet-journaled cell of the campaign under `runner`,
/// journaling each completion with one append. Per-cell completions
/// are logged to stderr; stdout stays clean for report piping.
///
/// # Errors
///
/// Propagates journal failures; a cell whose journal append fails
/// stops the campaign with [`CampaignError::State`] (its result is
/// lost, but the journal is still consistent and resumable).
pub fn run(
    dir: &Path,
    config: &CampaignConfig,
    runner: &RunnerConfig,
) -> Result<RunSummary, CampaignError> {
    let worklist = config.worklist();
    let fingerprint = config.fingerprint();
    let before = progress(dir, config)?;
    for warning in &before.warnings {
        eprintln!("warning: {warning}");
    }
    let writer =
        JournalWriter::open_append(&journal_path(dir), fingerprint, before.journal_clean_len)?;

    let total = worklist.len();
    let skipped = before.cells.len();
    let remaining: Vec<_> = worklist
        .cells()
        .into_iter()
        .filter(|cell| !before.cells.contains_key(&cell.id))
        .collect();
    let ran = remaining.len();

    // Completion lock: journal appends are serialised; the cell
    // computations themselves run outside it.
    let writer = Mutex::new(writer);
    let mut batch = ExperimentBatch::new();
    let worklist_ref = &worklist;
    let writer_ref = &writer;
    for cell in remaining {
        batch.push(move || -> Result<(), String> {
            let metrics = worklist_ref.run_cell(&cell);
            let record = CellRecord::new(cell.id.clone(), metrics);
            let mut writer = writer_ref.lock().expect("completion lock poisoned");
            writer.append(&record).map_err(|e| e.to_string())?;
            let completed = skipped as u64 + writer.appends();
            eprintln!("cell {} done ({completed}/{total})", cell.id);
            Ok(())
        });
    }
    let results = batch.run(runner);
    if let Some(Err(message)) = results.into_iter().find(Result::is_err) {
        return Err(CampaignError::State(format!(
            "campaign cell failed to journal: {message}"
        )));
    }
    Ok(RunSummary {
        total,
        ran,
        skipped,
    })
}

/// A campaign report assembled purely from journaled bits (see the
/// module docs for why this makes resumed and uninterrupted campaigns
/// byte-identical). Returns the report text; incomplete campaigns
/// report the cells done so far and say so.
///
/// # Errors
///
/// Propagates journal rejections.
pub fn render_report(dir: &Path, config: &CampaignConfig) -> Result<String, CampaignError> {
    let (summaries, completed, total) = fold_summaries(dir, config)?;
    let mut out = String::new();
    out.push_str(&format!("campaign {} ({})\n", config.name, config.family));
    out.push_str(&format!(
        "config fingerprint: {:016x}\n",
        config.fingerprint()
    ));
    let seeds: Vec<String> = config.seeds.iter().map(u64::to_string).collect();
    out.push_str(&format!("seeds: [{}]\n", seeds.join(", ")));
    out.push_str(&format!("frames: {}\n", config.frames));
    if config.monitors != MonitorChoice::Off {
        out.push_str(&format!("monitors: {}\n", config.monitors.name()));
    }
    out.push_str(&format!("cells complete: {completed}/{total}\n"));
    out.push('\n');
    if summaries.is_empty() {
        out.push_str("no completed cells yet — run `qgov resume` to continue\n");
    } else {
        out.push_str(&metric_table(&summaries).render());
    }
    Ok(out)
}

/// The report's aggregates as machine-readable [`BenchRecord`]s
/// (target `campaign/<name>`), for `qgov report --bench-json`.
///
/// # Errors
///
/// Propagates journal rejections.
pub fn bench_records(
    dir: &Path,
    config: &CampaignConfig,
) -> Result<Vec<BenchRecord>, CampaignError> {
    let (summaries, _, _) = fold_summaries(dir, config)?;
    let target = format!("campaign/{}", config.name);
    Ok(summaries
        .into_iter()
        .map(|(metric, summary)| BenchRecord::from_summary(&target, metric, &summary))
        .collect())
}

/// Outcome of diffing one campaign's journaled metrics against another
/// state dir's ([`diff_against`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DiffOutcome {
    /// Human-readable per-cell diff; byte-stable for identical inputs.
    pub text: String,
    /// `(cell, metric)` pairs that deviated beyond the tolerance —
    /// including metrics present on only one side of a shared cell.
    pub regressions: usize,
}

/// Symmetric relative deviation between two journaled metric values:
/// `|new − old| / max(|old|, |new|)`, i.e. 0 for bit-identical values
/// and at most 1 for same-sign values. A NaN on either side (that is
/// not bit-identical to the other) is never comparable and reports
/// `∞`, so it always exceeds any finite tolerance.
fn relative_delta(old: f64, new: f64) -> f64 {
    if old.to_bits() == new.to_bits() {
        return 0.0;
    }
    if old.is_nan() || new.is_nan() {
        return f64::INFINITY;
    }
    let base = old.abs().max(new.abs());
    if base == 0.0 {
        0.0
    } else {
        (new - old).abs() / base
    }
}

/// Diffs this campaign's journaled cells against another state dir
/// (`qgov report --against`). Cells are matched by their stable IDs, so
/// the baseline may come from an older campaign with a different seed
/// set or family — only the shared cells are compared. Within a shared
/// cell, every metric whose symmetric relative deviation
/// (`|new − old| / max(|old|, |new|)`) exceeds `tolerance` (and every
/// metric present on only one side) counts as a regression and is
/// listed with both values.
///
/// The text is a pure function of the two journals, rendered in
/// work-list order — byte-stable like the report itself.
///
/// # Errors
///
/// Propagates config/journal rejections from either state dir.
pub fn diff_against(
    dir: &Path,
    config: &CampaignConfig,
    against: &Path,
    tolerance: f64,
) -> Result<DiffOutcome, CampaignError> {
    let against_config = load(against)?;
    let ours = progress(dir, config)?;
    let theirs = progress(against, &against_config)?;

    let mut out = String::new();
    out.push_str(&format!(
        "diff against {} (tolerance {tolerance})\n",
        against.display()
    ));
    let mut regressions = 0usize;
    let mut shared = 0usize;
    let mut compared = 0usize;
    let mut only_here = 0usize;
    for cell in config.worklist().cells() {
        let Some(a) = ours.cells.get(&cell.id) else {
            continue; // not journaled here yet — nothing to compare
        };
        let Some(b) = theirs.cells.get(&cell.id) else {
            only_here += 1;
            continue;
        };
        shared += 1;
        let baseline: HashMap<&str, f64> =
            b.metrics.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let mut lines: Vec<String> = Vec::new();
        for (name, value) in &a.metrics {
            match baseline.get(name.as_str()) {
                None => {
                    regressions += 1;
                    lines.push(format!("  {name}: {value} (missing in baseline)"));
                }
                Some(&old) => {
                    compared += 1;
                    let delta = relative_delta(old, *value);
                    if delta > tolerance {
                        regressions += 1;
                        if delta.is_finite() {
                            lines.push(format!(
                                "  {name}: {old} -> {value} ({:+.3}%)",
                                (*value - old) / old.abs().max(value.abs()) * 100.0
                            ));
                        } else {
                            lines.push(format!("  {name}: {old} -> {value} (not comparable)"));
                        }
                    }
                }
            }
        }
        for (name, value) in &b.metrics {
            if !a.metrics.iter().any(|(n, _)| n == name) {
                regressions += 1;
                lines.push(format!("  {name}: {value} (present only in baseline)"));
            }
        }
        if !lines.is_empty() {
            out.push_str(&format!("cell {}\n", cell.id));
            for line in lines {
                out.push_str(&line);
                out.push('\n');
            }
        }
    }
    let only_there = theirs.cells.len().saturating_sub(shared);
    out.push_str(&format!(
        "{shared} shared cell(s), {compared} compared metric(s), {regressions} beyond tolerance\n"
    ));
    if only_here > 0 || only_there > 0 {
        out.push_str(&format!(
            "{only_here} cell(s) only in this campaign, {only_there} only in the baseline\n"
        ));
    }
    Ok(DiffOutcome {
        text: out,
        regressions,
    })
}

/// Per-metric summaries in deterministic order, plus
/// (completed, total) cell counts.
type FoldedSummaries = (Vec<(String, MetricSummary)>, usize, usize);

/// Folds the journaled cells, in **work-list order** (never journal
/// order), through [`fold_metrics`] — deterministic however the journal
/// was laid down.
fn fold_summaries(dir: &Path, config: &CampaignConfig) -> Result<FoldedSummaries, CampaignError> {
    let done = progress(dir, config)?;
    let cells = config.worklist().cells();
    let journaled: Vec<&CellRecord> = cells
        .iter()
        .filter_map(|cell| done.cells.get(&cell.id))
        .collect();
    let summaries = fold_metrics(journaled.iter().map(|record| &record.metrics));
    Ok((summaries, journaled.len(), cells.len()))
}
