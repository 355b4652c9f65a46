//! Experiment harness and regeneration targets for every table and
//! figure of Biswas et al., DATE 2017.
//!
//! The [`harness`] module drives any [`Governor`](qgov_governors::Governor)
//! against any [`Application`](qgov_workloads::Application) on the
//! simulated platform and produces a
//! [`RunReport`](qgov_metrics::RunReport). The [`experiments`] module
//! implements one function per table/figure; the `benches/` targets are
//! thin wrappers that print the results (`cargo bench -p qgov-bench`
//! regenerates everything).
//!
//! | Paper artefact | Function | Bench target |
//! |---|---|---|
//! | Table I (normalised energy/performance) | [`experiments::run_table1`] | `table1_energy` |
//! | Table II (number of explorations) | [`experiments::run_table2`] | `table2_explorations` |
//! | Table III (learning overhead) | [`experiments::run_table3`] | `table3_overhead` |
//! | Fig. 3 (misprediction & slack) | [`experiments::run_fig3`] | `fig3_misprediction` |
//! | N-levels ablation | [`experiments::run_state_levels_ablation`] | `ablation_state_levels` |
//! | EWMA-γ ablation | [`experiments::run_smoothing_ablation`] | `ablation_smoothing` |
//! | Shared-table ablation | [`experiments::run_shared_table_ablation`] | `ablation_shared_table` |
//! | Long horizon (beyond the paper) | [`experiments::run_long_horizon`] | `long_horizon` |
//!
//! The long-horizon experiment goes beyond the paper's ~3000-frame
//! clips: it streams its workload from CSV shards on disk
//! ([`ShardedTrace`](qgov_workloads::ShardedTrace)), so horizons of
//! 100k+ frames replay in bounded memory, and reports convergence over
//! time as windowed [`qgov_metrics::WindowedStats`] folds.
//!
//! # Batched execution
//!
//! Experiment grids are embarrassingly parallel across their
//! (governor × seed × frames) cells, so every experiment function
//! expresses its cells through [`runner::ExperimentBatch`] and takes a
//! [`runner::RunnerConfig`] (via its `*_with` variant) choosing serial
//! or parallel execution. The runner returns results in push order and
//! every cell owns its state, so **the parallel and serial paths are
//! bit-identical for identical seeds** — the guarantee the recorded
//! baselines in `EXPERIMENTS.md` rely on, enforced by
//! `tests/runner_determinism.rs`.
//!
//! ```
//! use qgov_bench::experiments::{run_table1, run_table1_with};
//! use qgov_bench::runner::RunnerConfig;
//!
//! let serial = run_table1_with(7, 60, &RunnerConfig::serial());
//! let parallel = run_table1_with(7, 60, &RunnerConfig::with_workers(2));
//! assert_eq!(serial.rows, parallel.rows); // bit-identical cells
//!
//! // The seed-only form reads QGOV_WORKERS (default: parallel).
//! assert_eq!(run_table1(7, 60).rows.len(), 4);
//! ```
//!
//! # Multi-seed sweeps
//!
//! Exploration is stochastic in the seed, so every experiment also has
//! a `*_sweep` variant ([`sweep`]) that fans the run across a
//! [`sweep::SeedSweep`] and folds each metric into
//! `mean ± σ (n)` aggregates with 95 % confidence intervals. The bench
//! targets read the seed set from `QGOV_SEEDS` (default: one seed,
//! preserving the single-run baselines in `EXPERIMENTS.md`).
//!
//! ```
//! use qgov_bench::runner::RunnerConfig;
//! use qgov_bench::sweep::{run_table3_sweep_with, SeedSweep};
//!
//! let result = run_table3_sweep_with(&SeedSweep::base(1, 2), 80, &RunnerConfig::serial());
//! assert_eq!(result.rows[0].exploration_epochs.n, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod faultstorm;
pub mod fleet;
pub mod harness;
pub mod hetero;
pub mod manycore;
pub mod perf;
pub mod runner;
pub mod sweep;
pub mod worklist;

pub use faultstorm::{
    fault_plan_from_env, fault_storm_app, fault_storm_drop_epoch, run_fault_storm,
    run_fault_storm_with, standard_fault_schedule, FaultStormResult, FaultStormRow,
    FAULTSTORM_GRACE,
};
pub use fleet::{run_fleet, FleetOutcome, FleetSpec};
pub use harness::{
    run_experiment, run_experiment_faulted, run_experiment_monitored, ExperimentOutcome,
};
pub use hetero::{
    run_biglittle, run_biglittle_monitored, run_biglittle_monitored_with, run_biglittle_sweep,
    run_biglittle_sweep_with, run_biglittle_with, run_mesh_scaling, run_mesh_scaling_monitored,
    run_mesh_scaling_monitored_with, run_mesh_scaling_sweep, run_mesh_scaling_sweep_with,
    run_mesh_scaling_with, BigLittleResult, BigLittleRow, BigLittleSweep, BigLittleSweepRow,
    MeshRow, MeshScalingResult, MeshSweep, MeshSweepRow,
};
pub use manycore::{
    run_manycore_experiment, run_manycore_experiment_faulted,
    run_manycore_experiment_faulted_monitored, run_manycore_experiment_monitored, ManyCoreOutcome,
};
pub use perf::BenchRecord;
pub use runner::{ExperimentBatch, RunnerConfig, RunnerMode};
pub use sweep::{Aggregate, SeedSweep};
pub use worklist::{CellMetrics, Family, WorkCell, WorkList};
