//! # qgov — machine learning for run-time energy optimisation in many-core systems
//!
//! A full Rust reproduction of **Biswas, Balagopal, Shafik, Al-Hashimi,
//! Merrett, "Machine Learning for Run-Time Energy Optimisation in
//! Many-Core Systems", DATE 2017**: a Q-learning run-time manager (RTM)
//! that picks voltage–frequency settings per decision epoch from EWMA
//! workload prediction and slack feedback, together with everything it
//! runs on — a deterministic many-core platform simulator standing in
//! for the paper's ODROID-XU3, frame-based application workload models,
//! the baseline governors it is compared against, and the measurement
//! plumbing that regenerates every table and figure of the paper's
//! evaluation.
//!
//! This crate is a facade: it re-exports the workspace's crates under
//! stable module names and offers a [`prelude`] for experiments.
//!
//! ## Quick start
//!
//! ```
//! use qgov::prelude::*;
//!
//! // The paper's platform: 4 A15 cores, 19 operating points.
//! let platform_config = PlatformConfig::odroid_xu3_a15();
//!
//! // A video workload and the proposed RTM.
//! let mut app = VideoDecoderModel::h264_football_15fps(42).with_frames(120);
//! let mut rtm = RtmGovernor::new(RtmConfig::paper(42)).unwrap();
//!
//! // Run the experiment loop and inspect the outcome.
//! let outcome = run_experiment(&mut rtm, &mut app, platform_config, 120);
//! assert_eq!(outcome.report.frames(), 120);
//! assert!(outcome.report.total_energy().as_joules() > 0.0);
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`units`] | `Freq`, `Volt`, `Power`, `Energy`, `SimTime`, `Cycles`, `Temp` newtypes |
//! | [`rl`] | Q-table, predictors, discretisers, exploration policies, rewards, agent |
//! | [`sim`] | OPP tables, CMOS power model, PMUs, sensors, DVFS, thermal RC, platform |
//! | [`workloads`] | video / FFT / PARSEC-like / SPLASH-2-like / synthetic workloads, traces |
//! | [`governors`] | the `Governor` trait, ondemand, conservative, oracle, Ge&Qiu, … |
//! | [`core`] | the paper's RTM: `RtmGovernor` + `RtmConfig` |
//! | [`metrics`] | run reports, misprediction stats, tables, series |
//! | [`mod@bench`] | the experiment harness, batched parallel runner, per-table experiment functions |
//! | [`cli`] | the `qgov` operator binary: journaled, kill-and-resume campaigns |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use qgov_bench as bench;
pub use qgov_cli as cli;
pub use qgov_core as core;
pub use qgov_governors as governors;
pub use qgov_metrics as metrics;
pub use qgov_rl as rl;
pub use qgov_sim as sim;
pub use qgov_units as units;
pub use qgov_workloads as workloads;

pub mod prelude {
    //! The types almost every experiment needs.

    pub use qgov_bench::experiments::{
        run_fig3, run_fig3_with, run_long_horizon, run_long_horizon_monitored,
        run_long_horizon_monitored_with, run_long_horizon_with, run_shared_table_ablation,
        run_shared_table_ablation_with, run_smoothing_ablation, run_smoothing_ablation_with,
        run_state_levels_ablation, run_state_levels_ablation_with, run_table1, run_table1_with,
        run_table2, run_table2_with, run_table3, run_table3_with,
    };
    pub use qgov_bench::faultstorm::{
        fault_plan_from_env, fault_storm_app, fault_storm_drop_epoch, run_fault_storm,
        run_fault_storm_with, standard_fault_schedule, FaultStormResult, FaultStormRow,
        FAULTSTORM_GRACE,
    };
    pub use qgov_bench::fleet::{run_fleet, FleetOutcome, FleetSpec};
    pub use qgov_bench::harness::{
        precharacterize, run_experiment, run_experiment_faulted, run_experiment_monitored,
        ExperimentOutcome,
    };
    pub use qgov_bench::hetero::{
        run_biglittle, run_biglittle_monitored, run_biglittle_monitored_with, run_biglittle_sweep,
        run_biglittle_sweep_with, run_biglittle_with, run_mesh_scaling, run_mesh_scaling_monitored,
        run_mesh_scaling_monitored_with, run_mesh_scaling_sweep, run_mesh_scaling_sweep_with,
        run_mesh_scaling_with, BigLittleResult, BigLittleRow, BigLittleSweep, BigLittleSweepRow,
        MeshRow, MeshScalingResult, MeshSweep, MeshSweepRow,
    };
    pub use qgov_bench::manycore::{
        run_manycore_experiment, run_manycore_experiment_faulted,
        run_manycore_experiment_faulted_monitored, run_manycore_experiment_monitored,
        ManyCoreOutcome,
    };
    pub use qgov_bench::runner::{frames_from_env, ExperimentBatch, RunnerConfig, RunnerMode};
    pub use qgov_bench::sweep::{
        run_fig3_sweep, run_fig3_sweep_with, run_long_horizon_monitored_sweep_with,
        run_long_horizon_sweep, run_long_horizon_sweep_with, run_shared_table_ablation_sweep,
        run_shared_table_ablation_sweep_with, run_smoothing_ablation_sweep,
        run_smoothing_ablation_sweep_with, run_state_levels_ablation_sweep,
        run_state_levels_ablation_sweep_with, run_table1_sweep, run_table1_sweep_with,
        run_table2_sweep, run_table2_sweep_with, run_table3_sweep, run_table3_sweep_with,
        Aggregate, SeedSweep,
    };
    pub use qgov_bench::worklist::{
        fleet_cell_app, fleet_cell_config, fleet_cell_platform, slug, CellMetrics, Family,
        WorkCell, WorkList,
    };
    pub use qgov_core::{
        EpochRecord, ExplorationKind, GreedyMigration, HardeningConfig, HistoryMode, ManyCoreRtm,
        MigrationConfig, PlausibilityFilter, RtmConfig, RtmGovernor, StateKind,
    };
    pub use qgov_governors::{
        ConservativeGovernor, EpochObservation, GeQiuConfig, GeQiuGovernor, Governor,
        GovernorContext, ManyCoreGovernor, ManyCoreObservation, OndemandGovernor, OracleGovernor,
        PerClusterGovernors, PerformanceGovernor, PowersaveGovernor, SchedutilGovernor,
        SlackTracker, UserspaceGovernor, VfDecision,
    };
    pub use qgov_metrics::{
        converged_miss_rate, epsilon_monotone, epsilon_reaches_floor, opp_step_bound,
        recovery_pack, standard_pack, thermal_cap, ComparisonTable, MetricSummary,
        MispredictionStats, MonitorReport, MonitorSample, OnlineStats, PackConfig, Property,
        PropertySet, PropertyVerdict, RecoveryConfig, RecoveryStats, RecoveryTracker, RunReport,
        SampleStats, Series, SweepFormat, SweepTable, Verdict, WindowSummary, WindowedStats,
    };
    pub use qgov_rl::{DecayingEpsilon, EpdPolicy, EwmaPredictor, Predictor, QTable, SlackReward};
    pub use qgov_sim::{
        Actuation, ClusterConfig, DvfsConfig, Fault, FaultInjector, FaultKind, FaultPlan,
        FrameResult, ManyCoreFrameResult, ManyCorePlatform, Opp, OppTable, Platform,
        PlatformConfig, SensorConfig, ThermalConfig, Topology, VfDomain, WorkSlice,
    };
    pub use qgov_units::{Cycles, Energy, Freq, Power, SimTime, Temp, Volt};
    pub use qgov_workloads::{
        capacity_shares, split_demand_into, suites, Application, CompositeWorkload, FftModel,
        FrameDemand, PhasedBenchmarkModel, ScratchDir, ShardWriter, ShardedTrace,
        SyntheticWorkload, ThreadDemand, TraceShard, VideoDecoderModel, WorkloadTrace,
    };
}
