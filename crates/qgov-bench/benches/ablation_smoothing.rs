//! Ablation: sweep of the EWMA smoothing factor γ (Eq. 1).
//!
//! The paper determines γ = 0.6 experimentally (Section III-B): small γ
//! lags genuine workload changes, large γ chases frame-to-frame noise.
//!
//! Run with `cargo bench -p qgov-bench --bench ablation_smoothing`.
//! `QGOV_FRAMES`, `QGOV_SEEDS`, `QGOV_WORKERS` and `QGOV_BENCH_PASSES`
//! override the plan (`qgov_bench::plan::RunPlan::from_env`; an invalid
//! value exits with status 2). The default is one seed, matching the
//! recorded single-run baselines.

use qgov_bench::experiments::Smoothing;
use qgov_bench::perf::bench_target;
use qgov_bench::plan::RunPlan;

fn main() {
    bench_target::<Smoothing>(
        "ablation_smoothing",
        "Ablation: EWMA smoothing factor gamma",
        "workload: MPEG4 SVGA at 24 fps",
        RunPlan::new(vec![2017], 3_000),
    );
    println!("expectation: misprediction is minimised near gamma = 0.6, the paper's choice.");
}
