//! Regenerates **Table III** of Biswas et al., DATE 2017: worst-case
//! learning overhead in decision epochs — the shared Q-table of the
//! proposed RTM versus the per-core independent learners of the
//! multi-core DVFS control baseline [20], on an ffmpeg-style decode
//! with T_ref = 31 ms.
//!
//! Run with `cargo bench -p qgov-bench --bench table3_overhead`.
//! `QGOV_FRAMES`, `QGOV_SEEDS`, `QGOV_WORKERS` and `QGOV_BENCH_PASSES`
//! override the plan (`qgov_bench::plan::RunPlan::from_env`; an invalid
//! value exits with status 2). The default is one seed, matching the
//! recorded single-run baselines.

use qgov_bench::experiments::Table3;
use qgov_bench::perf::bench_target;
use qgov_bench::plan::RunPlan;

fn main() {
    bench_target::<Table3>(
        "table3_overhead",
        "Table III: comparative worst-case learning overhead",
        "workload: ffmpeg-style MPEG4 decode, T_ref = 31 ms",
        RunPlan::new(vec![2017], 3_000),
    );
    println!("paper reference (measured on ODROID-XU3):");
    println!("  Multi-core DVFS control [20]  205 decision epochs");
    println!("  Our approach                  105 decision epochs");
}
