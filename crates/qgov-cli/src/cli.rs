//! The `qgov` command-line interface: argument parsing, subcommand
//! dispatch, and the exit-code contract.
//!
//! | exit code | meaning |
//! |---|---|
//! | 0 | success |
//! | [`EXIT_USAGE`] (2) | unknown subcommand / flag / missing argument |
//! | [`EXIT_CONFIG`] (3) | campaign config rejected (bad TOML, bad values) |
//! | [`EXIT_STATE`] (4) | state dir / journal / runtime I-O rejected |
//! | [`EXIT_REGRESSION`] (5) | `report --against` found metrics beyond the tolerance |
//!
//! Campaign reports go to **stdout** and are byte-stable (the
//! kill/resume oracle diffs them); progress and warnings go to stderr.

use crate::campaign::{self, CampaignError};
use crate::config::{CampaignConfig, MonitorChoice};
use qgov_bench::harness::run_experiment;
use qgov_bench::perf::append_records_to;
use qgov_bench::worklist::{Family, WorkList};
use qgov_bench::RunnerConfig;
use qgov_core::{RtmConfig, RtmGovernor};
use qgov_governors::{ConservativeGovernor, OndemandGovernor};
use qgov_sim::PlatformConfig;
use qgov_workloads::shard::shard_file_name;
use qgov_workloads::{Application, ShardedTrace, VideoDecoderModel};
use std::path::{Path, PathBuf};

/// Success.
pub const EXIT_OK: i32 = 0;
/// Usage error: unknown subcommand/flag, missing/unparseable argument.
pub const EXIT_USAGE: i32 = 2;
/// Config error: the campaign TOML was rejected.
pub const EXIT_CONFIG: i32 = 3;
/// State error: state dir, journal or runtime I/O rejected.
pub const EXIT_STATE: i32 = 4;
/// Regression: `report --against` found journaled metrics deviating
/// beyond `--tolerance` from the baseline campaign.
pub const EXIT_REGRESSION: i32 = 5;

const USAGE: &str = "\
qgov — operator CLI for journaled, kill-and-resume experiment campaigns

USAGE:
    qgov sweep --state <dir> [--dry-run] [--workers <n>] <config.toml>
    qgov resume [--workers <n>] <state-dir>
    qgov report [--bench-json <path>] [--against <state-dir> [--tolerance <fraction>]] <state-dir>
    qgov run --family <family> --seed <n> --frames <n> [--monitors <pack>]
    qgov record --out <dir> --frames <n> [--seed <n>] [--shard-frames <n>]
    qgov replay --trace <dir> --governor <ondemand|conservative|rtm> [--frames <n>] [--seed <n>]
    qgov help

Campaigns: `sweep` initialises a state dir (campaign.toml + journal)
and runs every cell; kill it at any point and `resume` continues from
the last durable cell, with `report` output byte-identical to a run
that was never killed; `report --against` diffs the journaled metrics
of two campaigns cell by cell and exits 5 when any shared metric
deviates beyond --tolerance (default 0: bit-identity). Families:
table1, table2, table3, fig3, state_levels, smoothing, shared_table,
long_horizon, biglittle, mesh_scaling, fault_storm. Fig3 and smoothing
need at least 2 frames, every other family 1.";

/// Runs the CLI on `args` (without the executable name) and returns
/// the process exit code.
pub fn run(args: &[String]) -> i32 {
    let mut args = args.iter().map(String::as_str);
    match args.next() {
        None | Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            EXIT_OK
        }
        Some("sweep") => cmd_sweep(args.collect()),
        Some("resume") => cmd_resume(args.collect()),
        Some("report") => cmd_report(args.collect()),
        Some("run") => cmd_run(args.collect()),
        Some("record") => cmd_record(args.collect()),
        Some("replay") => cmd_replay(args.collect()),
        Some(other) => usage_error(&format!("unknown subcommand {other:?}")),
    }
}

fn usage_error(message: &str) -> i32 {
    eprintln!("error: {message}\n\n{USAGE}");
    EXIT_USAGE
}

fn campaign_exit(e: &CampaignError) -> i32 {
    eprintln!("error: {e}");
    match e {
        CampaignError::Config(_) => EXIT_CONFIG,
        _ => EXIT_STATE,
    }
}

/// A minimal flag parser: `--flag value` options, `--switch` booleans,
/// and positional arguments.
struct Flags<'a> {
    options: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
    positional: Vec<&'a str>,
}

impl<'a> Flags<'a> {
    fn parse(
        args: &[&'a str],
        option_names: &[&str],
        switch_names: &[&str],
    ) -> Result<Flags<'a>, String> {
        let mut flags = Flags {
            options: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut iter = args.iter();
        while let Some(&arg) = iter.next() {
            if switch_names.contains(&arg) {
                flags.switches.push(arg);
            } else if option_names.contains(&arg) {
                let Some(&value) = iter.next() else {
                    return Err(format!("{arg} needs a value"));
                };
                flags.options.push((arg, value));
            } else if arg.starts_with('-') {
                return Err(format!("unknown flag {arg:?}"));
            } else {
                flags.positional.push(arg);
            }
        }
        Ok(flags)
    }

    fn option(&self, name: &str) -> Option<&'a str> {
        self.options
            .iter()
            .find(|(flag, _)| *flag == name)
            .map(|&(_, value)| value)
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    fn parsed_option<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.option(name) {
            None => Ok(None),
            Some(text) => text
                .parse()
                .map(Some)
                .map_err(|_| format!("{name} value {text:?} is not valid")),
        }
    }
}

/// The campaign runner: the config's policy unless `--workers`
/// overrides it (the override never changes results, only wall-clock,
/// so it does not touch the state dir or fingerprint).
fn campaign_runner(flags: &Flags<'_>, config: &CampaignConfig) -> Result<RunnerConfig, String> {
    match flags.parsed_option::<usize>("--workers")? {
        None => Ok(config.runner()),
        Some(0) => Ok(RunnerConfig::serial()),
        Some(n) => Ok(RunnerConfig::with_workers(n)),
    }
}

fn cmd_sweep(args: Vec<&str>) -> i32 {
    let flags = match Flags::parse(&args, &["--state", "--workers"], &["--dry-run"]) {
        Ok(flags) => flags,
        Err(message) => return usage_error(&message),
    };
    let [config_path] = flags.positional[..] else {
        return usage_error("sweep needs exactly one <config.toml> argument");
    };
    let dry_run = flags.switch("--dry-run");
    let state = flags.option("--state");
    if state.is_none() && !dry_run {
        return usage_error("sweep needs --state <dir> (or --dry-run)");
    }

    let config = match CampaignConfig::from_file(Path::new(config_path)) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_CONFIG;
        }
    };
    let worklist = config.worklist();
    println!(
        "campaign {}: {} cells (fingerprint {:016x})",
        config.name,
        worklist.len(),
        config.fingerprint()
    );
    if dry_run {
        for cell in worklist.cells() {
            println!("{}", cell.id);
        }
        return EXIT_OK;
    }
    let dir = Path::new(state.expect("checked above"));
    let runner = match campaign_runner(&flags, &config) {
        Ok(runner) => runner,
        Err(message) => return usage_error(&message),
    };
    if let Err(e) = campaign::init(dir, &config) {
        return campaign_exit(&e);
    }
    eprintln!("state dir: {} ({})", dir.display(), runner.describe());
    run_cells(dir, &config, &runner)
}

fn cmd_resume(args: Vec<&str>) -> i32 {
    let flags = match Flags::parse(&args, &["--workers"], &[]) {
        Ok(flags) => flags,
        Err(message) => return usage_error(&message),
    };
    let [dir] = flags.positional[..] else {
        return usage_error("resume needs exactly one <state-dir> argument");
    };
    let dir = Path::new(dir);
    let config = match campaign::load(dir) {
        Ok(config) => config,
        Err(e) => return campaign_exit(&e),
    };
    let runner = match campaign_runner(&flags, &config) {
        Ok(runner) => runner,
        Err(message) => return usage_error(&message),
    };
    eprintln!(
        "resuming campaign {} in {} ({})",
        config.name,
        dir.display(),
        runner.describe()
    );
    run_cells(dir, &config, &runner)
}

fn run_cells(dir: &Path, config: &CampaignConfig, runner: &RunnerConfig) -> i32 {
    match campaign::run(dir, config, runner) {
        Ok(summary) => {
            eprintln!(
                "campaign complete: {} ran, {} already journaled, {} total",
                summary.ran, summary.skipped, summary.total
            );
            EXIT_OK
        }
        Err(e) => campaign_exit(&e),
    }
}

fn cmd_report(args: Vec<&str>) -> i32 {
    let flags = match Flags::parse(&args, &["--bench-json", "--against", "--tolerance"], &[]) {
        Ok(flags) => flags,
        Err(message) => return usage_error(&message),
    };
    let [dir] = flags.positional[..] else {
        return usage_error("report needs exactly one <state-dir> argument");
    };
    let tolerance = match flags.parsed_option::<f64>("--tolerance") {
        Ok(None) => 0.0,
        Ok(Some(t)) if t.is_finite() && t >= 0.0 => t,
        Ok(Some(_)) => return usage_error("--tolerance must be a finite fraction >= 0"),
        Err(message) => return usage_error(&message),
    };
    if flags.option("--tolerance").is_some() && flags.option("--against").is_none() {
        return usage_error("--tolerance needs --against <state-dir>");
    }
    let dir = Path::new(dir);
    let config = match campaign::load(dir) {
        Ok(config) => config,
        Err(e) => return campaign_exit(&e),
    };
    let report = match campaign::render_report(dir, &config) {
        Ok(report) => report,
        Err(e) => return campaign_exit(&e),
    };
    print!("{report}");
    if let Some(path) = flags.option("--bench-json") {
        let records = match campaign::bench_records(dir, &config) {
            Ok(records) => records,
            Err(e) => return campaign_exit(&e),
        };
        if let Err(e) = append_records_to(Path::new(path), &records) {
            eprintln!("error: cannot append bench records to {path}: {e}");
            return EXIT_STATE;
        }
        eprintln!("appended {} bench record(s) to {path}", records.len());
    }
    if let Some(against) = flags.option("--against") {
        let diff = match campaign::diff_against(dir, &config, Path::new(against), tolerance) {
            Ok(diff) => diff,
            Err(e) => return campaign_exit(&e),
        };
        print!("{}", diff.text);
        if diff.regressions > 0 {
            eprintln!(
                "error: {} metric(s) beyond tolerance {tolerance}",
                diff.regressions
            );
            return EXIT_REGRESSION;
        }
    }
    EXIT_OK
}

fn cmd_run(args: Vec<&str>) -> i32 {
    let flags = match Flags::parse(
        &args,
        &["--family", "--seed", "--frames", "--monitors"],
        &[],
    ) {
        Ok(flags) => flags,
        Err(message) => return usage_error(&message),
    };
    if !flags.positional.is_empty() {
        return usage_error("run takes no positional arguments");
    }
    let Some(family_text) = flags.option("--family") else {
        return usage_error("run needs --family <family>");
    };
    let Some(family) = Family::parse(family_text) else {
        return usage_error(&format!("unknown family {family_text:?}"));
    };
    let min = family.min_frames();
    let (seed, frames) = match (
        flags.parsed_option::<u64>("--seed"),
        flags.parsed_option::<u64>("--frames"),
    ) {
        (Ok(seed), Ok(Some(frames))) if frames >= min => (seed.unwrap_or(1), frames),
        (Ok(_), Ok(_)) => {
            return usage_error(&format!(
                "run needs --frames <n> (at least {min} for family {family})"
            ))
        }
        (Err(message), _) | (_, Err(message)) => return usage_error(&message),
    };
    let mut list = WorkList::new(family, vec![seed], frames);
    match flags.option("--monitors").map(MonitorChoice::parse) {
        None | Some(Some(MonitorChoice::Off)) => {}
        Some(Some(choice)) if family == Family::LongHorizon => {
            list = list.with_monitor_pack(choice.pack().expect("non-off choice"));
        }
        Some(Some(_)) => return usage_error("--monitors needs family `long_horizon`"),
        Some(None) => return usage_error("--monitors must be off, paper or short"),
    }
    let cell = &list.cells()[0];
    println!("cell {}", cell.id);
    for (name, value) in list.run_cell(cell) {
        println!("{name} = {value}");
    }
    EXIT_OK
}

fn cmd_record(args: Vec<&str>) -> i32 {
    let flags = match Flags::parse(
        &args,
        &["--out", "--frames", "--seed", "--shard-frames"],
        &[],
    ) {
        Ok(flags) => flags,
        Err(message) => return usage_error(&message),
    };
    let Some(out) = flags.option("--out") else {
        return usage_error("record needs --out <dir>");
    };
    let frames = match flags.parsed_option::<u64>("--frames") {
        Ok(Some(frames)) if frames > 0 => frames,
        Ok(_) => return usage_error("record needs --frames <n> (at least 1)"),
        Err(message) => return usage_error(&message),
    };
    let seed = match flags.parsed_option::<u64>("--seed") {
        Ok(seed) => seed.unwrap_or(1),
        Err(message) => return usage_error(&message),
    };
    let shard_frames = match flags.parsed_option::<usize>("--shard-frames") {
        Ok(Some(n)) if n > 0 => n,
        Ok(Some(_)) => return usage_error("--shard-frames must be at least 1"),
        Ok(None) => qgov_bench::experiments::long_horizon_shard_frames(frames),
        Err(message) => return usage_error(&message),
    };
    let mut app = VideoDecoderModel::h264_football_15fps(seed).with_frames(frames);
    match ShardedTrace::record(&mut app, PathBuf::from(out), frames, shard_frames) {
        Ok(trace) => {
            println!(
                "recorded {} frames of {} (seed {seed}) into {out} ({} shards of {} frames)",
                trace.len(),
                app.name(),
                trace.shard_count(),
                trace.frames_per_shard()
            );
            EXIT_OK
        }
        Err(e) => {
            eprintln!("error: cannot record trace into {out}: {e}");
            EXIT_STATE
        }
    }
}

fn cmd_replay(args: Vec<&str>) -> i32 {
    let flags = match Flags::parse(&args, &["--trace", "--governor", "--frames", "--seed"], &[]) {
        Ok(flags) => flags,
        Err(message) => return usage_error(&message),
    };
    let Some(trace_dir) = flags.option("--trace") else {
        return usage_error("replay needs --trace <dir>");
    };
    let Some(governor) = flags.option("--governor") else {
        return usage_error("replay needs --governor <ondemand|conservative|rtm>");
    };
    if !["ondemand", "conservative", "rtm"].contains(&governor) {
        return usage_error(&format!(
            "unknown governor {governor:?} (one of: ondemand, conservative, rtm)"
        ));
    }
    let seed = match flags.parsed_option::<u64>("--seed") {
        Ok(seed) => seed.unwrap_or(1),
        Err(message) => return usage_error(&message),
    };
    // The shard manifest reader is the whole point: replay streams the
    // recorded trace shard by shard, exactly as the long-horizon
    // experiments do.
    let mut trace = match ShardedTrace::open(trace_dir) {
        Ok(trace) => trace,
        Err(e) => {
            eprintln!("error: cannot open sharded trace {trace_dir}: {e}");
            return EXIT_STATE;
        }
    };
    let frames = match flags.parsed_option::<u64>("--frames") {
        Ok(Some(frames)) if frames > 0 => frames.min(trace.len()),
        Ok(Some(_)) => return usage_error("--frames must be at least 1"),
        Ok(None) => trace.len(),
        Err(message) => return usage_error(&message),
    };
    // Streaming replay has no error channel, so validate every shard
    // the run will read up front, one at a time.
    for index in 0..=trace.shard_index_of(frames - 1) {
        if let Err(e) = trace.load_shard(index) {
            let shard = trace.dir().join(shard_file_name(index));
            eprintln!("error: cannot replay {}: {e}", shard.display());
            return EXIT_STATE;
        }
    }
    let platform = PlatformConfig::odroid_xu3_a15();
    let outcome = match governor {
        "ondemand" => {
            let mut gov = OndemandGovernor::linux_default();
            run_experiment(&mut gov, &mut trace, platform, frames)
        }
        "conservative" => {
            let mut gov = ConservativeGovernor::linux_default();
            run_experiment(&mut gov, &mut trace, platform, frames)
        }
        "rtm" => {
            let (low, high) = trace.workload_bounds();
            let config = RtmConfig::paper(seed).with_workload_bounds(low, high);
            let mut gov = match RtmGovernor::new(config) {
                Ok(gov) => gov,
                Err(e) => {
                    eprintln!("error: invalid RTM config: {e}");
                    return EXIT_STATE;
                }
            };
            run_experiment(&mut gov, &mut trace, platform, frames)
        }
        _ => unreachable!("governor validated above"),
    };
    let report = &outcome.report;
    println!(
        "replayed {frames} frames from {trace_dir} ({} shards)",
        trace.shard_count()
    );
    println!("governor = {governor}");
    println!("energy_joules = {}", report.total_energy().as_joules());
    println!("miss_rate = {}", report.miss_rate());
    println!(
        "normalized_performance = {}",
        report.normalized_performance()
    );
    println!("mean_opp = {}", report.mean_opp());
    EXIT_OK
}
