//! Machine-readable performance trajectories.
//!
//! Every bench target can append its headline numbers as JSON lines to
//! the file named by the `QGOV_BENCH_JSON` environment variable — one
//! record per metric, named as the campaign cell metrics are:
//!
//! ```json
//! {"target":"table1_energy","metric":"normalized_energy/rtm","mean":1.11,"sigma":0.02,"n":5}
//! ```
//!
//! The schema is deliberately flat (`target`, `metric`, `mean`,
//! `sigma`, `n`) so successive CI runs can be concatenated into a
//! `BENCH_*.json` trajectory and diffed/plotted without bespoke
//! parsing. When the variable is unset the whole module is a no-op, so
//! interactive `cargo bench` runs stay file-free. The vendored
//! `criterion` stand-in emits the same schema for the `micro` timing
//! target (`Criterion::with_json_target`).
//!
//! [`bench_target`] is the shared main of the experiment bench targets.

use crate::experiments::Experiment;
use crate::plan::RunPlan;
use crate::worklist::{fold_metrics, metric_table, CellMetrics};
use qgov_metrics::MetricSummary;
use std::io::Write as _;
use std::path::PathBuf;

/// One benchmark measurement: `metric` (within `target`) observed with
/// `mean` ± `sigma` over `n` samples. Units are metric-specific — ns
/// per iteration for timing records, the metric's natural unit for
/// experiment aggregates, seconds for wall clocks.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Bench target name (e.g. `table1_energy`).
    pub target: String,
    /// Metric name within the target (e.g.
    /// `normalized_energy/rtm`).
    pub metric: String,
    /// Mean value across the samples.
    pub mean: f64,
    /// Sample standard deviation (zero for a single sample).
    pub sigma: f64,
    /// Number of samples aggregated.
    pub n: u64,
    /// Source revision the measurement was taken at (the git short
    /// hash CI exports as `QGOV_BENCH_REV`); `None` when unknown, and
    /// then omitted from the JSON line so pre-existing trajectories
    /// keep parsing.
    pub rev: Option<String>,
}

impl BenchRecord {
    /// A record from a scalar observation (`sigma` 0, `n` 1).
    #[must_use]
    pub fn scalar(target: &str, metric: impl Into<String>, value: f64) -> Self {
        BenchRecord {
            target: target.to_owned(),
            metric: metric.into(),
            mean: value,
            sigma: 0.0,
            n: 1,
            rev: None,
        }
    }

    /// A record from a sweep's [`MetricSummary`] aggregate.
    #[must_use]
    pub fn from_summary(target: &str, metric: impl Into<String>, summary: &MetricSummary) -> Self {
        BenchRecord {
            target: target.to_owned(),
            metric: metric.into(),
            mean: summary.mean,
            sigma: summary.std_dev,
            n: summary.n,
            rev: None,
        }
    }

    /// A record folding raw per-pass samples into `mean ± σ (n)` —
    /// what the wall-clock loops record instead of a single-pass
    /// scalar, so the trajectory carries real run-to-run spread.
    #[must_use]
    pub fn from_samples(target: &str, metric: impl Into<String>, samples: &[f64]) -> Self {
        Self::from_summary(target, metric, &MetricSummary::from_samples(samples))
    }

    /// The record as one JSON line (no trailing newline). Non-finite
    /// values (e.g. an `x/0` ratio from a degenerate smoke run) render
    /// as JSON `null` — `f64`'s `inf`/`NaN` display forms are not
    /// valid JSON and would corrupt the trajectory file.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let num = |v: f64| {
            if v.is_finite() {
                v.to_string()
            } else {
                "null".to_owned()
            }
        };
        let rev = self
            .rev
            .as_deref()
            .map(|r| format!(",\"rev\":\"{}\"", escape(r)))
            .unwrap_or_default();
        format!(
            "{{\"target\":\"{}\",\"metric\":\"{}\",\"mean\":{},\"sigma\":{},\"n\":{}{rev}}}",
            escape(&self.target),
            escape(&self.metric),
            num(self.mean),
            num(self.sigma),
            self.n
        )
    }
}

/// The source revision to stamp onto appended records, if the
/// `QGOV_BENCH_REV` environment variable names one (CI exports the git
/// short hash; whitespace-only values count as unset).
#[must_use]
pub fn bench_rev() -> Option<String> {
    std::env::var("QGOV_BENCH_REV")
        .ok()
        .map(|v| v.trim().to_owned())
        .filter(|v| !v.is_empty())
}

/// Times `passes` repetitions of `body` and returns the last pass's
/// result together with the per-pass wall clocks in seconds.
///
/// The experiments are deterministic for a fixed seed set, so repeat
/// passes are pure timing replicates: every pass returns bit-identical
/// results, and the per-pass seconds are real samples of the same
/// measurement — what [`BenchRecord::from_samples`] folds into an
/// honest `mean ± σ (n)` wall-clock record instead of a single-pass
/// scalar masquerading as `σ = 0`.
///
/// # Panics
///
/// Panics when `passes` is zero.
pub fn timed_passes<R>(passes: usize, mut body: impl FnMut() -> R) -> (R, Vec<f64>) {
    assert!(passes > 0, "need at least one timed pass");
    let mut secs = Vec::with_capacity(passes);
    let mut result = None;
    for pass in 0..passes {
        let start = std::time::Instant::now();
        result = Some(body());
        let elapsed = start.elapsed().as_secs_f64();
        if passes > 1 {
            println!("timing pass {}/{passes}: {elapsed:.3} s", pass + 1);
        }
        secs.push(elapsed);
    }
    (result.expect("at least one pass ran"), secs)
}

/// The configured trajectory file, if `QGOV_BENCH_JSON` names one.
#[must_use]
pub fn json_path() -> Option<PathBuf> {
    std::env::var_os("QGOV_BENCH_JSON")
        .filter(|p| !p.is_empty())
        .map(PathBuf::from)
}

/// Appends `records` to `path` as JSON lines, stamping each with the
/// `QGOV_BENCH_REV` revision when set (records that already carry a
/// `rev` keep it). This is the explicit-path write the `qgov report
/// --bench-json` command drives directly; [`append_records`] is the
/// `QGOV_BENCH_JSON`-driven wrapper the bench targets use.
///
/// # Errors
///
/// Returns the underlying I/O error when the file cannot be opened or
/// appended to.
pub fn append_records_to(path: &std::path::Path, records: &[BenchRecord]) -> std::io::Result<()> {
    let rev = bench_rev();
    let mut body = String::new();
    for r in records {
        if r.rev.is_none() && rev.is_some() {
            let mut stamped = r.clone();
            stamped.rev.clone_from(&rev);
            body.push_str(&stamped.to_json_line());
        } else {
            body.push_str(&r.to_json_line());
        }
        body.push('\n');
    }
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(body.as_bytes()))
}

/// Appends `records` to the `QGOV_BENCH_JSON` file as JSON lines via
/// [`append_records_to`].
///
/// A no-op when the variable is unset. Write failures are reported on
/// stderr and swallowed — a bench run must not die on a read-only
/// filesystem. Returns how many records were appended.
pub fn append_records(records: &[BenchRecord]) -> usize {
    let Some(path) = json_path() else {
        return 0;
    };
    match append_records_to(&path, records) {
        Ok(()) => {
            println!(
                "appended {} bench record(s) to {}",
                records.len(),
                path.display()
            );
            records.len()
        }
        Err(e) => {
            eprintln!(
                "warning: QGOV_BENCH_JSON append to {} failed: {e}",
                path.display()
            );
            0
        }
    }
}

/// What one [`bench_target`] run measured: the plan it ran, the last pass's
/// per-seed results and every pass's wall clock in seconds.
#[derive(Debug)]
pub struct BenchRun<O> {
    /// The plan, after the `QGOV_*` overrides.
    pub plan: RunPlan,
    /// One typed result per plan seed, in seed order.
    pub outputs: Vec<O>,
    /// Wall-clock seconds of each timed pass.
    pub secs: Vec<f64>,
}

/// The shared main of every experiment bench target: applies the
/// `QGOV_*` overrides to `defaults` ([`RunPlan::from_env`]), times
/// [`RunPlan::passes`] runs of `E`, prints the first seed's comparison
/// table and the per-metric `mean ± σ (n)` fold over the seeds — the
/// metric names a campaign journals — and appends `wall_clock_s` plus
/// one record per folded metric to the `QGOV_BENCH_JSON` trajectory.
///
/// An invalid `QGOV_*` value prints the [`PlanError`](crate::plan::PlanError)
/// and exits with status 2, and so does a horizon below
/// [`Experiment::MIN_FRAMES`].
pub fn bench_target<E: Experiment>(
    target: &str,
    title: &str,
    workload: &str,
    defaults: RunPlan,
) -> BenchRun<E::Output> {
    let plan = RunPlan::from_env(defaults).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    });
    if plan.frames < E::MIN_FRAMES {
        eprintln!(
            "error: {target} needs at least {} frames, got QGOV_FRAMES={}",
            E::MIN_FRAMES,
            plan.frames
        );
        std::process::exit(2)
    }
    println!("== {title} ==");
    println!("   {workload}");
    println!("   {}\n", plan.describe());
    let (outputs, secs) = timed_passes(plan.passes, || E::run(&plan));

    println!("seed {}:", plan.seeds[0]);
    println!("{}", E::table(&outputs[0]));
    let metrics: Vec<CellMetrics> = outputs.iter().map(E::metrics).collect();
    let summaries = fold_metrics(&metrics);
    println!("{}", metric_table(&summaries).render());
    let wall_clock = BenchRecord::from_samples(target, "wall_clock_s", &secs);
    println!(
        "wall-clock: {:.3} s ± {:.3} over {} pass(es) ({})",
        wall_clock.mean,
        wall_clock.sigma,
        plan.passes,
        plan.runner.describe()
    );
    let mut records = vec![wall_clock];
    records.extend(
        summaries
            .iter()
            .map(|(metric, summary)| BenchRecord::from_summary(target, metric.clone(), summary)),
    );
    append_records(&records);
    BenchRun {
        plan,
        outputs,
        secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_follow_the_flat_schema() {
        let r = BenchRecord::scalar("t1", "wall_clock_s", 2.5);
        assert_eq!(
            r.to_json_line(),
            "{\"target\":\"t1\",\"metric\":\"wall_clock_s\",\"mean\":2.5,\"sigma\":0,\"n\":1}"
        );
        let s = MetricSummary::from_samples(&[1.0, 2.0, 3.0]);
        let r = BenchRecord::from_summary("t2", "m", &s);
        assert_eq!(r.n, 3);
        assert_eq!(r.mean, 2.0);
        assert!(r.to_json_line().starts_with("{\"target\":\"t2\""));
    }

    #[test]
    fn metric_names_are_escaped() {
        let r = BenchRecord::scalar("t", "odd\"name\\x", 1.0);
        assert!(r.to_json_line().contains("odd\\\"name\\\\x"));
    }

    #[test]
    fn non_finite_values_render_as_json_null() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let r = BenchRecord::scalar("t", "ratio", bad);
            assert!(
                r.to_json_line().contains("\"mean\":null"),
                "{}",
                r.to_json_line()
            );
        }
        let r = BenchRecord {
            target: "t".into(),
            metric: "m".into(),
            mean: 1.0,
            sigma: f64::NAN,
            n: 2,
            rev: None,
        };
        assert!(r.to_json_line().contains("\"sigma\":null"));
    }

    #[test]
    fn from_samples_folds_per_pass_wall_clocks() {
        let r = BenchRecord::from_samples("t", "wall_clock_s", &[1.0, 2.0, 3.0]);
        assert_eq!(r.mean, 2.0);
        assert_eq!(r.n, 3);
        assert!(r.sigma > 0.9 && r.sigma < 1.1);
    }

    #[test]
    fn rev_field_appends_to_the_json_line_only_when_present() {
        let mut r = BenchRecord::scalar("t1", "wall_clock_s", 2.5);
        assert!(!r.to_json_line().contains("rev"));
        r.rev = Some("abc1234".into());
        assert_eq!(
            r.to_json_line(),
            "{\"target\":\"t1\",\"metric\":\"wall_clock_s\",\"mean\":2.5,\"sigma\":0,\"n\":1,\"rev\":\"abc1234\"}"
        );
    }

    // `append_records` env behaviour is exercised end-to-end by the CI
    // capture step (and the vendored criterion's unit test covers the
    // same append path); unit tests here avoid mutating process-global
    // environment state under the parallel test runner.
}
