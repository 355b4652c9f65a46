//! `qgov-cli` — the `qgov` operator command-line interface.
//!
//! Campaigns are the unit of operation: a TOML config names an
//! experiment family, seeds, frames and a worker policy; `qgov sweep`
//! materialises a state directory with an append-only journal of
//! completed cells, its only record; `qgov resume` continues a
//! killed campaign from the last durable cell; and `qgov report`
//! renders the aggregate — byte-identical whether or not the campaign
//! was ever interrupted, at any worker count.
//!
//! The crate is a library so tests (and the facade's `src/bin/qgov.rs`
//! shim) can drive [`run`] directly; every module is public for the
//! same reason.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod cli;
pub mod config;
pub mod journal;
pub mod minitoml;

pub use campaign::{CampaignError, Progress, RunSummary};
pub use cli::{run, EXIT_CONFIG, EXIT_OK, EXIT_STATE, EXIT_USAGE};
pub use config::{CampaignConfig, ConfigError, MonitorChoice};
pub use journal::{CellRecord, JournalError};
