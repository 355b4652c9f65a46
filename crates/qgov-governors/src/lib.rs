//! DVFS governor framework and baseline governors.
//!
//! A *governor* observes each completed frame (decision epoch) and picks
//! the operating point(s) for the next one — exactly the role of a
//! `cpufreq` power governor in the Linux kernel, where the paper's RTM
//! is implemented. This crate defines the [`Governor`] trait plus the
//! baselines the paper compares against:
//!
//! * [`OndemandGovernor`] — the Linux ondemand heuristic \[5\] of
//!   Table I;
//! * [`GeQiuGovernor`] — "multi-core DVFS control" \[20\]: independent
//!   per-core Q-learners with uniform exploration and no cross-core
//!   learning transfer (Table I and Table III baseline);
//! * [`OracleGovernor`] — offline-optimal V-F per observed workload,
//!   the energy normalisation reference of Table I;
//! * [`ConservativeGovernor`] — the Linux conservative heuristic, the
//!   third methodology of the long-horizon comparison and of
//!   `qgov replay`;
//! * [`PerformanceGovernor`], [`PowersaveGovernor`],
//!   [`UserspaceGovernor`] — fixed-OPP governors: the energy and
//!   performance bounds the tests hold every governor to, and the
//!   parked idle cluster of the single-cluster big.LITTLE cells;
//! * [`SlackTracker`] — the average slack ratio `L` of Eq. 5, shared by
//!   the learning governors and the RTM in `qgov-core`.
//!
//! # Example
//!
//! ```
//! use qgov_governors::{Governor, GovernorContext, OndemandGovernor};
//! use qgov_sim::OppTable;
//! use qgov_units::SimTime;
//!
//! let ctx = GovernorContext::new(OppTable::odroid_xu3_a15(), 4, SimTime::from_ms(40));
//! let mut gov = OndemandGovernor::linux_default();
//! let first = gov.init(&ctx);
//! assert!(format!("{first:?}").contains("Cluster"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conservative;
mod ge_qiu;
mod multi;
mod ondemand;
mod oracle;
mod simple;
mod slack;
mod traits;

pub use conservative::ConservativeGovernor;
pub use ge_qiu::GeQiuGovernor;
pub use multi::{ManyCoreGovernor, ManyCoreObservation, PerClusterGovernors};
pub use ondemand::OndemandGovernor;
pub use oracle::OracleGovernor;
pub use simple::{PerformanceGovernor, PowersaveGovernor, UserspaceGovernor};
pub use slack::SlackTracker;
pub use traits::{EpochObservation, Governor, GovernorContext, VfDecision};
