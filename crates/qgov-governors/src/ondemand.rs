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

/// The ondemand governor.
///
/// # Examples
///
/// ```
/// use qgov_governors::OndemandGovernor;
///
/// let gov = OndemandGovernor::linux_default();
/// assert_eq!(gov.up_threshold(), 0.80);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OndemandGovernor {
    up_threshold: f64,
    sampling_down_factor: u32,
    table: Option<OppTable>,
    /// Remaining epochs to hold max frequency (sampling_down_factor).
    hold: u32,
}

impl OndemandGovernor {
    /// Creates an ondemand governor.
    ///
    /// `up_threshold` is the load fraction above which the governor
    /// jumps to maximum frequency; `sampling_down_factor` is the number
    /// of sampling periods the governor stays at maximum before
    /// re-evaluating (kernel default 1).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < up_threshold <= 1` and
    /// `sampling_down_factor >= 1`.
    #[must_use]
    pub fn new(up_threshold: f64, sampling_down_factor: u32) -> Self {
        assert!(
            up_threshold.is_finite() && up_threshold > 0.0 && up_threshold <= 1.0,
            "up_threshold must lie in (0, 1], got {up_threshold}"
        );
        assert!(
            sampling_down_factor >= 1,
            "sampling_down_factor must be >= 1"
        );
        OndemandGovernor {
            up_threshold,
            sampling_down_factor,
            table: None,
            hold: 0,
        }
    }

    /// The kernel defaults: `up_threshold = 80 %`,
    /// `sampling_down_factor = 1`.
    #[must_use]
    pub fn linux_default() -> Self {
        Self::new(0.80, 1)
    }

    /// The configured up-threshold.
    #[must_use]
    pub fn up_threshold(&self) -> f64 {
        self.up_threshold
    }
}

impl Governor for OndemandGovernor {
    fn name(&self) -> &str {
        "ondemand"
    }

    fn init(&mut self, ctx: &GovernorContext) -> VfDecision {
        self.table = Some(ctx.opp_table().clone());
        self.hold = 0;
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

        if load >= self.up_threshold {
            self.hold = self.sampling_down_factor;
            return VfDecision::Cluster(table.max_index());
        }
        if self.hold > 1 {
            // Recently maxed: hold before scaling down.
            self.hold -= 1;
            return VfDecision::Cluster(table.max_index());
        }
        self.hold = 0;
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

    fn frame_with_utils(utils: &[f64], period_ms: u64) -> FrameResult {
        let period = SimTime::from_ms(period_ms);
        let busy: Vec<SimTime> = utils.iter().map(|&u| period.scale(u)).collect();
        let frame_time = busy.iter().copied().fold(SimTime::ZERO, SimTime::max);
        FrameResult {
            frame_time,
            wall_time: period,
            period,
            overhead: SimTime::ZERO,
            per_core_busy: busy,
            per_core_cycles: vec![Cycles::from_mcycles(1); utils.len()],
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
        let f = frame_with_utils(&[0.2, 0.95, 0.1, 0.3], 40);
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
        let f = frame_with_utils(&[0.5, 0.4, 0.3, 0.2], 40);
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
        let f = frame_with_utils(&[0.01, 0.0, 0.0, 0.0], 40);
        // target = 20 MHz -> lowest point (200 MHz).
        assert_eq!(
            g.decide(&EpochObservation {
                frame: &f,
                epoch: 0
            }),
            VfDecision::Cluster(0)
        );
    }

    #[test]
    fn sampling_down_factor_holds_max() {
        let mut g = OndemandGovernor::new(0.8, 3);
        g.init(&ctx());
        let hot = frame_with_utils(&[1.0, 1.0, 1.0, 1.0], 40);
        let cold = frame_with_utils(&[0.1, 0.1, 0.1, 0.1], 40);
        assert_eq!(
            g.decide(&EpochObservation {
                frame: &hot,
                epoch: 0
            }),
            VfDecision::Cluster(18)
        );
        // Two more epochs of holding despite low load...
        assert_eq!(
            g.decide(&EpochObservation {
                frame: &cold,
                epoch: 1
            }),
            VfDecision::Cluster(18)
        );
        assert_eq!(
            g.decide(&EpochObservation {
                frame: &cold,
                epoch: 2
            }),
            VfDecision::Cluster(18)
        );
        // ...then scaling down resumes.
        let down = g.decide(&EpochObservation {
            frame: &cold,
            epoch: 3,
        });
        assert_ne!(down, VfDecision::Cluster(18));
    }

    #[test]
    #[should_panic(expected = "up_threshold")]
    fn bad_threshold_panics() {
        let _ = OndemandGovernor::new(1.5, 1);
    }
}
