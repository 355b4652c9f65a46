//! Experiment harness and regeneration targets for every table and
//! figure of Biswas et al., DATE 2017.
//!
//! The [`harness`] module drives any [`Governor`](qgov_governors::Governor)
//! against any [`Application`](qgov_workloads::Application) on the
//! simulated platform and produces a
//! [`RunReport`](qgov_metrics::RunReport). Every table, figure and
//! extension is one [`Experiment`] (the registry in [`experiments`],
//! plus [`hetero`] and [`faultstorm`]) driven by one
//! [`RunPlan`]; the `benches/` targets are one call each to the shared
//! [`perf::bench_target`] driver (`cargo bench -p qgov-bench` regenerates
//! everything).
//!
//! | Paper artefact | Experiment | Bench target |
//! |---|---|---|
//! | Table I (normalised energy/performance) | [`experiments::Table1`] | `table1_energy` |
//! | Table II (number of explorations) | [`experiments::Table2`] | `table2_explorations` |
//! | Table III (learning overhead) | [`experiments::Table3`] | `table3_overhead` |
//! | Fig. 3 (misprediction & slack) | [`experiments::Fig3`] | `fig3_misprediction` |
//! | N-levels ablation | [`experiments::StateLevels`] | `ablation_state_levels` |
//! | EWMA-γ ablation | [`experiments::Smoothing`] | `ablation_smoothing` |
//! | Shared-table ablation | [`experiments::SharedTable`] | `ablation_shared_table` |
//! | Long horizon (beyond the paper) | [`experiments::LongHorizon`] | `long_horizon` |
//! | big.LITTLE placement (beyond the paper) | [`hetero::BigLittle`] | `biglittle` |
//! | Mesh weak scaling (beyond the paper) | [`hetero::MeshScaling`] | `mesh_scaling` |
//! | Fault storm (beyond the paper) | [`faultstorm::FaultStorm`] | `fault_storm` |
//!
//! The long-horizon experiment goes beyond the paper's ~3000-frame
//! clips: it streams its workload from binary shards on disk
//! ([`ShardedTrace`](qgov_workloads::ShardedTrace)), so horizons of
//! 100k+ frames replay in bounded memory, and reports convergence over
//! time as windowed [`qgov_metrics::WindowedStats`] folds.
//!
//! # Plans, seeds and workers
//!
//! A [`RunPlan`] names the seeds, horizon, worker policy, monitor pack,
//! fault schedule and bench pass count.
//! [`Experiment::run`] expands its seed × methodology grid into one
//! [`ExperimentBatch`] job queue and returns one typed result
//! per seed. The runner returns results in push order and every cell
//! owns its state, so **the parallel and serial paths are bit-identical
//! for identical seeds** — the guarantee the recorded baselines in
//! `EXPERIMENTS.md` rely on, enforced by `tests/runner_determinism.rs`.
//! Exploration is stochastic in the seed, so multi-seed plans fold each
//! metric into `mean ± σ (n)` summaries by name.
//!
//! One batch, one fold, one table: every experiment, bench target and
//! campaign queues its runs in an [`ExperimentBatch`], folds them with
//! [`worklist::fold_metrics`] (through
//! [`MetricSummary::from_samples`](qgov_metrics::MetricSummary::from_samples))
//! and prints them with [`worklist::metric_table`] (a
//! [`ComparisonTable`](qgov_metrics::ComparisonTable)).
//!
//! ```
//! use qgov_bench::experiments::{Experiment, Table1};
//! use qgov_bench::plan::RunPlan;
//! use qgov_bench::runner::RunnerConfig;
//! use qgov_bench::worklist::fold_metrics;
//!
//! let plan = RunPlan::new(vec![7, 8], 60);
//! let serial = Table1::run(&RunPlan { runner: RunnerConfig::serial(), ..plan.clone() });
//! let parallel = Table1::run(&RunPlan { runner: RunnerConfig::with_workers(2), ..plan });
//! assert_eq!(serial, parallel); // bit-identical cells
//!
//! let metrics: Vec<_> = serial.iter().map(Table1::metrics).collect();
//! let folded = fold_metrics(&metrics);
//! assert_eq!(folded[0].0, "normalized_energy/ondemand");
//! assert_eq!(folded[0].1.n, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod faultstorm;
pub mod harness;
pub mod hetero;
pub mod manycore;
pub mod perf;
pub mod plan;
pub mod runner;
pub mod worklist;

pub use experiments::Experiment;
pub use faultstorm::{
    fault_storm_app, fault_storm_drop_epoch, standard_fault_schedule, FaultStorm, FaultStormResult,
    FaultStormRow, FAULTSTORM_GRACE,
};
pub use harness::{
    run_experiment, run_experiment_faulted, run_experiment_monitored, ExperimentOutcome,
};
pub use hetero::{
    BigLittle, BigLittleResult, BigLittleRow, MeshRow, MeshScaling, MeshScalingResult,
};
pub use manycore::{
    run_manycore_experiment, run_manycore_experiment_faulted,
    run_manycore_experiment_faulted_monitored, run_manycore_experiment_monitored, ManyCoreOutcome,
};
pub use perf::BenchRecord;
pub use plan::{PlanError, RunPlan};
pub use runner::{ExperimentBatch, RunnerConfig};
pub use worklist::{CellMetrics, Family, WorkCell, WorkList};
