//! Regenerates **Table I** of Biswas et al., DATE 2017: comparative
//! normalised energy and performance of Linux ondemand [5], multi-core
//! DVFS control [20], the proposed RTM and the Oracle reference on the
//! H.264 football sequence (~3000 frames).
//!
//! Run with `cargo bench -p qgov-bench --bench table1_energy`.
//! `QGOV_FRAMES`, `QGOV_SEEDS`, `QGOV_WORKERS` and `QGOV_BENCH_PASSES`
//! override the plan (`qgov_bench::plan::RunPlan::from_env`; an invalid
//! value exits with status 2). The default is one seed, matching the
//! recorded single-run baselines.

use qgov_bench::experiments::Table1;
use qgov_bench::perf::bench_target;
use qgov_bench::plan::RunPlan;

fn main() {
    bench_target::<Table1>(
        "table1_energy",
        "Table I: comparative normalised energy and performance",
        "workload: H.264 football sequence at 15 fps",
        RunPlan::new(vec![2017], 3_000),
    );
    println!("paper reference (measured on ODROID-XU3), energy / performance:");
    println!("  Linux Ondemand [5]            1.29  0.77");
    println!("  Multi-core DVFS control [20]  1.20  0.89");
    println!("  Proposed                      1.11  0.96");
}
