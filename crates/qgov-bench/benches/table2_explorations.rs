//! Regenerates **Table II** of Biswas et al., DATE 2017: the number of
//! explorations needed until convergence with the paper's slack-aware
//! EPD exploration (Eq. 2) versus the uniform-probability baseline of
//! Shen et al. [21], on MPEG4 (30 fps), H.264 (15 fps) and FFT (32 fps).
//!
//! Run with `cargo bench -p qgov-bench --bench table2_explorations`.
//! `QGOV_FRAMES`, `QGOV_SEEDS`, `QGOV_WORKERS` and `QGOV_BENCH_PASSES`
//! override the plan (`qgov_bench::plan::RunPlan::from_env`; an invalid
//! value exits with status 2). The default is one seed, matching the
//! recorded single-run baselines.

use qgov_bench::experiments::Table2;
use qgov_bench::perf::bench_target;
use qgov_bench::plan::RunPlan;

fn main() {
    bench_target::<Table2>(
        "table2_explorations",
        "Table II: comparative number of explorations",
        "workload: MPEG4 (30 fps), H.264 (15 fps) and FFT (32 fps)",
        RunPlan::new(vec![2017], 3_000),
    );
    println!("paper reference (measured on ODROID-XU3), UPD -> EPD:");
    println!("  MPEG4 (30 fps)   144 -> 83");
    println!("  H.264 (15 fps)   149 -> 90");
    println!("  FFT (32 fps)     119 -> 74");
}
