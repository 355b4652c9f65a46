//! **big.LITTLE placement experiment**: the scaled H.264 decode on the
//! ODROID-XU3's heterogeneous two-cluster chip under three placements —
//! everything on the A15 quad, everything on the A7 quad, and one
//! Q-agent per cluster with greedy task migration.
//!
//! Run with `cargo bench -p qgov-bench --bench biglittle` (default
//! horizon 3000 frames, the paper's clip length).
//! `QGOV_FRAMES`, `QGOV_SEEDS`, `QGOV_WORKERS` and `QGOV_BENCH_PASSES`
//! override the plan (`qgov_bench::plan::RunPlan::from_env`; an invalid
//! value exits with status 2). The default is one seed;
//! `QGOV_SEEDS=5` reproduces the EXPERIMENTS.md baselines.

use qgov_bench::hetero::BigLittle;
use qgov_bench::perf::bench_target;
use qgov_bench::plan::RunPlan;

fn main() {
    bench_target::<BigLittle>(
        "biglittle",
        "big.LITTLE placement: static vs learned migration",
        "workload: chip-scaled H.264 football at 15 fps on the ODROID-XU3 (A15 quad + A7 quad)",
        RunPlan::new(vec![2017], 3_000),
    );
}
