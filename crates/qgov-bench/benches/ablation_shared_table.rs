//! Ablation: the Section II-D claim that sharing one Q-table across
//! cores (with one round-robin update per epoch) converges faster than
//! per-core independent learning.
//!
//! Run with `cargo bench -p qgov-bench --bench ablation_shared_table`.
//! `QGOV_FRAMES`, `QGOV_SEEDS`, `QGOV_WORKERS` and `QGOV_BENCH_PASSES`
//! override the plan (`qgov_bench::plan::RunPlan::from_env`; an invalid
//! value exits with status 2). The default is one seed, matching the
//! recorded single-run baselines.

use qgov_bench::experiments::SharedTable;
use qgov_bench::perf::bench_target;
use qgov_bench::plan::RunPlan;

fn main() {
    bench_target::<SharedTable>(
        "ablation_shared_table",
        "Ablation: shared Q-table vs per-core independent tables",
        "workload: H.264 football",
        RunPlan::new(vec![2017], 3_000),
    );
    println!("expectation: the shared-table formulations converge in fewer epochs and");
    println!("save more energy than per-core independent tables [20].");
}
