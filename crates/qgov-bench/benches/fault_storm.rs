//! **Fault-storm experiment**: the hardened two-quad RTM versus a naive
//! per-cluster RTM and ondemand, all driven through an identical
//! deterministic fault schedule (stuck PMU, thermal spike, then a full
//! cluster drop-out at mid-run).
//!
//! Run with `cargo bench -p qgov-bench --bench fault_storm` (default
//! horizon 400 frames: long enough for the post-drop recovery window to
//! gate; default seed 11). `QGOV_FRAMES`, `QGOV_SEEDS`, `QGOV_WORKERS`
//! and `QGOV_BENCH_PASSES` override the plan
//! (`qgov_bench::plan::RunPlan::from_env`; an invalid value exits with
//! status 2). `QGOV_FAULTS=off` swaps in the empty fault plan (every
//! coordinator must then be bit-identical to its fault-free run — the
//! contract `tests/fault_injection.rs` pins).

use qgov_bench::faultstorm::{fault_storm_drop_epoch, FaultStorm};
use qgov_bench::perf::bench_target;
use qgov_bench::plan::RunPlan;

fn main() {
    let run = bench_target::<FaultStorm>(
        "fault_storm",
        "fault storm: hardened RTM vs naive RTM vs ondemand",
        "workload: constant 4-thread frame stream on two A15 quads",
        RunPlan::new(vec![11], 400),
    );
    println!(
        "faults: {} (cluster drop at epoch {})",
        if run.plan.faults {
            "standard schedule"
        } else {
            "off"
        },
        fault_storm_drop_epoch(run.plan.frames)
    );
}
