//! Ablation: sweep of the Q-table discretisation level count N.
//!
//! The paper fixes N = 5 "in view of a pre-characterisation of the
//! applications" (Section II-A): the Q-table size `|A|x|S|` trades
//! learning overhead against achievable energy minimisation. This
//! sweep regenerates that trade-off.
//!
//! Run with `cargo bench -p qgov-bench --bench ablation_state_levels`.
//! `QGOV_FRAMES`, `QGOV_SEEDS`, `QGOV_WORKERS` and `QGOV_BENCH_PASSES`
//! override the plan (`qgov_bench::plan::RunPlan::from_env`; an invalid
//! value exits with status 2). The default is one seed, matching the
//! recorded single-run baselines.

use qgov_bench::experiments::StateLevels;
use qgov_bench::perf::bench_target;
use qgov_bench::plan::RunPlan;

fn main() {
    bench_target::<StateLevels>(
        "ablation_state_levels",
        "Ablation: state discretisation levels N",
        "workload: H.264 football",
        RunPlan::new(vec![2017], 3_000),
    );
    println!("expectation: small N converges fast but controls coarsely;");
    println!("large N controls finely but explores/converges slowly — N = 5 balances.");
}
