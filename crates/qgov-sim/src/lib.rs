//! Deterministic many-core platform simulator.
//!
//! This crate stands in for the ODROID-XU3 board the paper evaluates on
//! (four ARM Cortex-A15 cores, 19 V-F operating points, per-core
//! performance monitoring units). A run-time manager only ever
//! *observes* cycle counts, execution times and temperature, and
//! *actuates* operating-point changes — so a simulator exposing the same
//! observation/actuation surface with realistic magnitudes exercises the
//! full governor code path. Energy is the model's ground truth: the
//! board's INA231 power sensors served only the paper's evaluation, and
//! the simulator counts the energy itself.
//!
//! The pieces:
//!
//! * [`OppTable`] / [`Opp`] — voltage–frequency operating points, with
//!   the XU3 A15 table as a preset ([`OppTable::odroid_xu3_a15`]);
//! * [`CmosPowerModel`] — dynamic `C·V²·f` switching power plus
//!   temperature-dependent leakage, calibrated against published XU3
//!   A15 measurements;
//! * a lumped RC thermal node per cluster, with the board's passive
//!   cooling (8 °C/W, τ = 4 s, 25 °C ambient) as constants;
//! * [`VfController`] — the cluster's one shared V-F rail, as on the
//!   XU3's A15 and A7 quads: applies OPP changes with a fixed
//!   transition latency (30 µs PLL relock plus 100 ns/mV of
//!   voltage-regulator slew);
//! * [`Platform`] — ties everything together with frame-synchronous
//!   execution on [`Platform::CORES`] cores: the governor assigns
//!   per-core [`WorkSlice`]s, the platform runs them to the barrier and
//!   returns a [`FrameResult`];
//! * [`FaultPlan`] / [`FaultInjector`] — deterministic, seeded fault
//!   injection between the platform and the governor: sensor
//!   corruption, actuation faults, and permanent core drop-outs.
//!
//! # Example
//!
//! ```
//! use qgov_sim::{Platform, PlatformConfig, WorkSlice};
//! use qgov_units::{Cycles, SimTime};
//!
//! let mut platform = Platform::new(PlatformConfig::odroid_xu3_a15()).unwrap();
//! let top = platform.opp_table().len() - 1;
//! platform.set_cluster_opp(top);
//!
//! // Run one 40 ms frame with 10 Mcycles of work on each core.
//! let work = vec![WorkSlice::cpu_only(qgov_units::Cycles::from_mcycles(10)); 4];
//! let frame = platform.run_frame(&work, SimTime::from_ms(40)).unwrap();
//! assert!(frame.frame_time < SimTime::from_ms(40)); // 2 GHz is plenty
//! assert!(frame.energy.as_joules() > 0.0);
//! # let _ = Cycles::ZERO;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod dvfs;
mod error;
mod fault;
mod opp;
mod platform;
mod power;
mod thermal;

pub use cluster::{ClusterConfig, ManyCoreFrameResult, ManyCorePlatform, Topology};
pub use dvfs::{VfController, VfDomain};
pub use error::SimError;
pub use fault::{Actuation, Fault, FaultInjector, FaultKind, FaultPlan};
pub use opp::{Opp, OppTable};
pub use platform::{FrameResult, Platform, PlatformConfig, WorkSlice};
pub use power::{CmosPowerModel, PowerBreakdown};
