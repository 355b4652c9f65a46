//! Accounting and reporting for run-time management experiments.
//!
//! The paper's evaluation reports normalised energy and performance
//! (Table I), workload misprediction statistics (Fig. 3), exploration
//! counts (Table II) and learning overhead (Table III). This crate
//! provides the measurement plumbing those tables and figures are built
//! from:
//!
//! * [`RunReport`] — per-run energy/performance accounting with the
//!   paper's normalisation conventions;
//! * [`MispredictionStats`] — predicted-vs-actual workload error
//!   analysis (whole-run and windowed, as Fig. 3 quotes);
//! * [`MetricSummary`] — the one cross-run fold: order-invariant
//!   mean, sample σ and extrema, rendered as `mean ± σ (n)` cells;
//! * [`WindowedStats`] — fixed-length windowed folds in O(windows)
//!   memory, the convergence-over-time view long-horizon streamed
//!   experiments report;
//! * [`ComparisonTable`] — the one table type: aligned ASCII tables
//!   matching the paper's layout;
//! * [`Property`] / [`PropertySet`] — streaming LTL-style temporal
//!   monitors (`always` / `eventually` / `after`) evaluated
//!   online over epoch streams in O(1) state per property, with the
//!   [`standard_pack`] encoding the paper's temporal claims;
//! * [`RecoveryTracker`] / [`recovery_pack`] — recovery accounting for
//!   fault-injected runs: time-to-recover, worst miss-rate excursion,
//!   and the "miss rate returns under the bound within the grace
//!   period" / "thermal cap holds even under sensor faults" temporal
//!   obligations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod misprediction;
pub mod monitor;
mod recovery;
mod report;
mod stats;
mod table;
mod window;

pub use misprediction::MispredictionStats;
pub use monitor::{
    recovery_pack, standard_pack, MonitorReport, MonitorSample, PackConfig, Property, PropertySet,
    PropertyVerdict, Verdict,
};
pub use recovery::{RecoveryConfig, RecoveryStats, RecoveryTracker};
pub use report::{FrameStat, RunReport};
pub use stats::MetricSummary;
pub use table::ComparisonTable;
pub use window::{WindowSummary, WindowedStats};
