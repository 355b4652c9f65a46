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
//! // A video workload, pre-characterised offline for its workload
//! // bounds (Section II-A), and the proposed RTM.
//! let mut app = VideoDecoderModel::h264_football_15fps(42).with_frames(120);
//! let (_, bounds) = precharacterize(&mut app);
//! let mut rtm =
//!     RtmGovernor::new(RtmConfig::paper(42).with_workload_bounds(bounds.0, bounds.1)).unwrap();
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
//! | [`rl`] | Q-table, EWMA predictor, discretisers, EPD/UPD exploration, slack reward, agent |
//! | [`sim`] | OPP tables, CMOS power model, DVFS, thermal RC, platform, fault injection |
//! | [`workloads`] | video / FFT / synthetic workloads, traces, demand splitting |
//! | [`governors`] | the `Governor` trait, ondemand, conservative, oracle, Ge&Qiu, … |
//! | [`core`] | the paper's RTM: `RtmGovernor` + `RtmConfig` |
//! | [`metrics`] | run reports, misprediction stats, the cross-run `MetricSummary` fold, `ComparisonTable`, temporal monitors |
//! | [`mod@bench`] | the experiment harness (one run entry, `run_manycore_experiment` with `EpochOptions`, and the flat `run_experiment`), the `ExperimentBatch` runner, the experiment registry and run plans |
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
        AblationResult, AblationRow, Experiment, Fig3, Fig3Result, LongHorizon, LongHorizonResult,
        LongHorizonRow, SharedTable, Smoothing, StateLevels, Table1, Table1Result, Table1Row,
        Table2, Table2Result, Table2Row, Table3, Table3Result, Table3Row,
    };
    pub use qgov_bench::faultstorm::{
        fault_storm_app, fault_storm_drop_epoch, standard_fault_schedule, FaultStorm,
        FaultStormResult, FaultStormRow, FAULTSTORM_GRACE,
    };
    pub use qgov_bench::harness::{
        precharacterize, run_experiment, run_manycore_experiment, EpochOptions, ExperimentOutcome,
    };
    pub use qgov_bench::hetero::{
        BigLittle, BigLittleResult, BigLittleRow, MeshRow, MeshScaling, MeshScalingResult,
    };
    pub use qgov_bench::manycore::{run_manycore_experiment_monitored, ManyCoreOutcome};
    pub use qgov_bench::plan::{PlanError, RunPlan};
    pub use qgov_bench::runner::{ExperimentBatch, RunnerConfig};
    pub use qgov_bench::worklist::{
        fold_metrics, metric_table, slug, CellMetrics, Family, WorkCell, WorkList,
    };
    pub use qgov_core::{
        EpochRecord, ExplorationKind, GreedyMigration, HardeningConfig, HistoryMode, ManyCoreRtm,
        MigrationConfig, PlausibilityFilter, RtmConfig, RtmGovernor, StateKind,
    };
    pub use qgov_governors::{
        ConservativeGovernor, EpochObservation, GeQiuGovernor, Governor, GovernorContext,
        ManyCoreGovernor, ManyCoreObservation, OndemandGovernor, OracleGovernor,
        PerClusterGovernors, PerformanceGovernor, PowersaveGovernor, SlackTracker,
        UserspaceGovernor, VfDecision,
    };
    pub use qgov_metrics::{
        recovery_pack, standard_pack, ComparisonTable, MetricSummary, MispredictionStats,
        MonitorReport, MonitorSample, PackConfig, Property, PropertySet, PropertyVerdict,
        RecoveryConfig, RecoveryStats, RecoveryTracker, RunReport, Verdict, WindowSummary,
        WindowedStats,
    };
    pub use qgov_rl::{DecayingEpsilon, EwmaPredictor, QTable};
    pub use qgov_sim::{
        Actuation, ClusterConfig, Fault, FaultInjector, FaultKind, FaultPlan, FrameResult,
        ManyCoreFrameResult, ManyCorePlatform, Opp, OppTable, Platform, PlatformConfig, Topology,
        WorkSlice,
    };
    pub use qgov_units::{Cycles, Energy, Freq, Power, SimTime, Temp, Volt};
    pub use qgov_workloads::{
        capacity_shares, split_demand_into, Application, FftModel, FrameDemand, ScratchDir,
        ShardWriter, ShardedTrace, SyntheticWorkload, ThreadDemand, TraceShard, VideoDecoderModel,
        WorkloadTrace,
    };
}
