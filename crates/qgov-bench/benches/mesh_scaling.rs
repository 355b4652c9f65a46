//! **Mesh weak-scaling experiment**: one chip-level RTM (per-cluster
//! Q-agents + greedy migration) across synthetic homogeneous meshes of
//! 4, 8, and 16 A15 quads, with the workload scaled to the cluster
//! count. Under ideal weak scaling the per-cluster energy stays flat
//! as the chip grows.
//!
//! Run with `cargo bench -p qgov-bench --bench mesh_scaling` (default
//! horizon 1500 frames).
//! `QGOV_FRAMES`, `QGOV_SEEDS`, `QGOV_WORKERS` and `QGOV_BENCH_PASSES`
//! override the plan (`qgov_bench::plan::RunPlan::from_env`; an invalid
//! value exits with status 2). The default is one seed;
//! `QGOV_SEEDS=5` reproduces the EXPERIMENTS.md baselines.

use qgov_bench::hetero::MeshScaling;
use qgov_bench::perf::bench_target;
use qgov_bench::plan::RunPlan;

fn main() {
    bench_target::<MeshScaling>(
        "mesh_scaling",
        "Mesh weak scaling: per-cluster RTM on 4/8/16 clusters",
        "workload: ~40% per-core utilisation scaled to the mesh",
        RunPlan::new(vec![2017], 1_500),
    );
}
