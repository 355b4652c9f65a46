//! **Long-horizon streaming experiment**: the Q-learning RTM versus
//! the Linux ondemand and conservative heuristics over a horizon far
//! beyond the paper's ~3000-frame clips, streamed from binary shards on
//! disk (`qgov_workloads::ShardedTrace`) so the trace never
//! materialises in memory. Reports convergence over time as windowed
//! miss-rate and frame-time folds.
//!
//! Run with `cargo bench -p qgov-bench --bench long_horizon` (default
//! horizon 100 000 frames). `QGOV_FRAMES`, `QGOV_SEEDS`, `QGOV_WORKERS`
//! and `QGOV_BENCH_PASSES` override the plan
//! (`qgov_bench::plan::RunPlan::from_env`; an invalid value exits with
//! status 2). The default is one seed, matching the recorded baselines
//! in EXPERIMENTS.md.
//!
//! Every run carries the standard temporal property pack
//! ([`PackConfig::paper`]) as an always-on oracle: the first seed's
//! verdict table is printed alongside the metrics, and **any violated
//! property fails the target** — this is CI's monitored long-horizon
//! smoke (`QGOV_FRAMES=20000`). The `frames_per_sec` record counts
//! every replayed frame: each pass replays the horizon once per
//! methodology and seed.

use qgov_bench::experiments::{Experiment, LongHorizon};
use qgov_bench::perf::{append_records, bench_target, BenchRecord};
use qgov_bench::plan::RunPlan;
use qgov_metrics::monitor::{MISS_WINDOW, THERMAL_CAP_C};
use qgov_metrics::PackConfig;

const TARGET: &str = "long_horizon";

fn main() {
    let pack = PackConfig::paper();
    let run = bench_target::<LongHorizon>(
        TARGET,
        "Long horizon: streamed traces, convergence over time",
        "workload: H.264 football model looped to the horizon at 15 fps",
        RunPlan {
            pack: Some(pack),
            ..RunPlan::new(vec![2017], 100_000)
        },
    );
    let (seeds, first) = (&run.plan.seeds, &run.outputs[0]);
    println!(
        "\nstreamed from {} binary shards of {} frames (≤ {} frames resident per replay)",
        first.shard_count, first.shard_frames, first.shard_frames
    );
    println!(
        "convergence over time (seed {}, miss rate per window, proposed mean T/T_ref):",
        seeds[0]
    );
    println!("{}", first.windows_table.render());

    // The always-on temporal oracle: print the verdicts for the first
    // seed, fail the target if any seed's run violated a property.
    let mut violations = 0usize;
    for (seed, per_seed) in seeds.iter().zip(&run.outputs) {
        for row in &per_seed.rows {
            if let Some(monitor) = &row.monitor {
                violations += monitor.violation_count();
                if !monitor.is_clean() {
                    eprintln!("seed {seed} {}: {}", row.method, monitor.summary());
                }
            }
        }
    }
    println!(
        "temporal properties (seed {}, thermal cap {:.0} °C, miss bound {:.0}% per {}-epoch window):",
        seeds[0],
        THERMAL_CAP_C,
        pack.miss_bound * 100.0,
        MISS_WINDOW
    );
    for row in &first.rows {
        if let Some(monitor) = &row.monitor {
            println!("-- {}: {}", row.method, monitor.summary());
            println!("{}", monitor.render().render());
        }
    }

    let replayed = run.plan.frames * (LongHorizon::LABELS.len() * seeds.len()) as u64;
    let rates: Vec<f64> = run
        .secs
        .iter()
        .map(|s| replayed as f64 / s.max(f64::MIN_POSITIVE))
        .collect();
    let throughput = BenchRecord::from_samples(TARGET, "frames_per_sec", &rates);
    println!(
        "throughput: {:.0} ± {:.0} replayed frames/s",
        throughput.mean, throughput.sigma
    );
    append_records(&[throughput]);
    assert_eq!(
        violations, 0,
        "temporal property violations detected — see stderr above"
    );
}
