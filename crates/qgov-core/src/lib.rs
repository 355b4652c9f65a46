//! The Q-learning run-time manager (RTM) of Biswas et al., DATE 2017.
//!
//! This crate is the paper's primary contribution: a power governor that
//! learns, online and model-free, which voltage–frequency setting meets
//! an application's performance requirement at minimum energy. Per
//! decision epoch (one application frame) the RTM:
//!
//! 1. computes the pay-off for the interval that just ended (Eq. 4,
//!    from the average slack ratio of Eq. 5 including learning/DVFS
//!    overhead);
//! 2. updates the shared Q-table entry of the previous state–action
//!    pair with Bellman's optimality equation (Eq. 3);
//! 3. predicts the next state — EWMA workload prediction (Eq. 1)
//!    crossed with the current slack level — and selects the V-F action
//!    for the coming interval: by the slack-aware Exponential
//!    Probability Distribution (Eq. 2) while exploring, greedily once
//!    the decaying ε (Eq. 6) hands over to exploitation.
//!
//! The many-core formulation (Section II-D) shares one Q-table among
//! all cores with one core's update per epoch in round-robin order,
//! using per-core workloads normalised by the system total (Eq. 7).
//!
//! # Example
//!
//! ```
//! use qgov_core::{RtmConfig, RtmGovernor};
//! use qgov_governors::{Governor, GovernorContext};
//! use qgov_sim::OppTable;
//! use qgov_units::SimTime;
//!
//! let mut rtm = RtmGovernor::new(RtmConfig::paper(42)).unwrap();
//! let ctx = GovernorContext::new(OppTable::odroid_xu3_a15(), 4, SimTime::from_ms(40));
//! let first = rtm.init(&ctx);
//! assert!(matches!(first, qgov_governors::VfDecision::Cluster(_)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod degrade;
mod manycore;
mod migration;
mod overhead;
mod rtm;
mod state;

pub use config::{ExplorationKind, HistoryMode, RtmConfig, StateKind};
pub use degrade::{HardeningConfig, PlausibilityFilter};
pub use manycore::ManyCoreRtm;
pub use migration::{GreedyMigration, MigrationConfig};
pub use overhead::OverheadModel;
pub use rtm::{EpochRecord, RtmGovernor};
pub use state::StateMapper;
