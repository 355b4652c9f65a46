//! The Linux ondemand governor.
//!
//! Reimplementation of the classic `cpufreq` ondemand heuristic
//! (Pallipadi & Starikovskiy, OLS 2006 — reference \[5\] of the paper):
//! sample CPU load every period; if any CPU's load exceeds the
//! up-threshold, jump straight to the maximum frequency; otherwise set
//! the frequency proportional to load. The paper's Table I finds it
//! "agnostic of application performance requirements and hence consumes
//! the most energy" — it reacts to *utilisation*, not to deadlines.

use crate::{EpochObservation, Governor, GovernorContext, VfDecision};
use qgov_sim::OppTable;
use qgov_units::SimTime;

/// The load fraction at or above which ondemand jumps straight to the
/// maximum frequency (the kernel default, 80 %).
const UP_THRESHOLD: f64 = 0.80;

/// The ondemand governor at the kernel defaults: an 80 % up-threshold
/// and a sampling-down factor of 1, so a maximum-frequency decision is
/// re-evaluated at the very next sample.
///
/// # Examples
///
/// ```
/// use qgov_governors::{Governor, GovernorContext, OndemandGovernor, VfDecision};
/// use qgov_sim::OppTable;
/// use qgov_units::SimTime;
///
/// let mut gov = OndemandGovernor::linux_default();
/// let ctx = GovernorContext::new(OppTable::odroid_xu3_a15(), 4, SimTime::from_ms(40));
/// // Like the kernel, it starts at the top and lets load drag it down.
/// assert_eq!(gov.init(&ctx), VfDecision::Cluster(18));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OndemandGovernor {
    table: Option<OppTable>,
}

impl OndemandGovernor {
    /// The governor at the kernel's default tunables (`up_threshold`
    /// 80, `sampling_down_factor` 1).
    #[must_use]
    pub fn linux_default() -> Self {
        OndemandGovernor { table: None }
    }
}

impl Governor for OndemandGovernor {
    fn name(&self) -> &str {
        "ondemand"
    }

    fn init(&mut self, ctx: &GovernorContext) -> VfDecision {
        self.table = Some(ctx.opp_table().clone());
        // Like the kernel: start at the highest frequency and let load
        // drag it down.
        VfDecision::Cluster(ctx.opp_table().max_index())
    }

    fn decide(&mut self, obs: &EpochObservation<'_>) -> VfDecision {
        let table = self.table.as_ref().expect("init() must be called first");
        // Policy-wide load: the busiest CPU decides (kernel behaviour).
        let cores = obs.frame.per_core_busy.len();
        let load = (0..cores)
            .map(|c| obs.frame.utilization(c))
            .fold(0.0f64, f64::max);

        if load >= UP_THRESHOLD {
            return VfDecision::Cluster(table.max_index());
        }
        // freq_next = max_freq * load, mapped up onto the table
        // (CPUFREQ_RELATION_L: lowest frequency at or above target).
        let target = table.max_freq().scale(load);
        VfDecision::Cluster(table.index_at_or_above(target))
    }

    fn processing_overhead(&self) -> SimTime {
        // A utilisation read and a multiply: effectively free next to a
        // learning governor, but not zero (kernel work + timer).
        SimTime::from_us(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgov_sim::{FrameResult, OppTable};
    use qgov_units::{Cycles, Energy, SimTime, Temp};

    fn frame_with_utils(utils: [f64; 4], period_ms: u64) -> FrameResult {
        let period = SimTime::from_ms(period_ms);
        let busy = utils.map(|u| period.scale(u));
        let frame_time = busy.iter().copied().fold(SimTime::ZERO, SimTime::max);
        FrameResult {
            frame_time,
            wall_time: period,
            period,
            overhead: SimTime::ZERO,
            per_core_busy: busy,
            per_core_cycles: [Cycles::from_mcycles(1); 4],
            energy: Energy::from_joules(0.1),
            temperature: Temp::default(),
            cluster_opp: 0,
        }
    }

    fn ctx() -> GovernorContext {
        GovernorContext::new(OppTable::odroid_xu3_a15(), 4, SimTime::from_ms(40))
    }

    #[test]
    fn init_starts_at_max() {
        let mut g = OndemandGovernor::linux_default();
        assert_eq!(g.init(&ctx()), VfDecision::Cluster(18));
    }

    #[test]
    fn high_load_jumps_to_max() {
        let mut g = OndemandGovernor::linux_default();
        g.init(&ctx());
        let f = frame_with_utils([0.2, 0.95, 0.1, 0.3], 40);
        assert_eq!(
            g.decide(&EpochObservation {
                frame: &f,
                epoch: 0
            }),
            VfDecision::Cluster(18),
            "busiest CPU above threshold must max out"
        );
    }

    #[test]
    fn moderate_load_scales_proportionally() {
        let mut g = OndemandGovernor::linux_default();
        g.init(&ctx());
        let f = frame_with_utils([0.5, 0.4, 0.3, 0.2], 40);
        // target = 2000 MHz * 0.5 = 1000 MHz -> index 8.
        assert_eq!(
            g.decide(&EpochObservation {
                frame: &f,
                epoch: 0
            }),
            VfDecision::Cluster(8)
        );
    }

    #[test]
    fn tiny_load_goes_to_bottom() {
        let mut g = OndemandGovernor::linux_default();
        g.init(&ctx());
        let f = frame_with_utils([0.01, 0.0, 0.0, 0.0], 40);
        // target = 20 MHz -> lowest point (200 MHz).
        assert_eq!(
            g.decide(&EpochObservation {
                frame: &f,
                epoch: 0
            }),
            VfDecision::Cluster(0)
        );
    }
}
