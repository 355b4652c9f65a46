//! The Linux conservative governor.
//!
//! Like ondemand but "gracefully increases and decreases the CPU speed
//! rather than jumping to max speed" — it moves by a fixed frequency
//! step when the load crosses the up/down thresholds. Included for
//! completeness of the stock-governor family; not part of the paper's
//! comparison tables.

use crate::{EpochObservation, Governor, GovernorContext, VfDecision};
use qgov_sim::OppTable;
use qgov_units::{Freq, SimTime};

/// Load fraction at or above which the frequency steps up (kernel
/// default 80 %).
const UP_THRESHOLD: f64 = 0.80;

/// Load fraction at or below which the frequency steps down (kernel
/// default 20 %).
const DOWN_THRESHOLD: f64 = 0.20;

/// One step as a fraction of the maximum frequency (kernel default 5 %).
const FREQ_STEP: f64 = 0.05;

/// The conservative governor.
#[derive(Debug, Clone, PartialEq)]
pub struct ConservativeGovernor {
    table: Option<OppTable>,
    current: usize,
}

impl ConservativeGovernor {
    /// Kernel defaults: up 80 %, down 20 %, step 5 % of max frequency.
    #[must_use]
    pub fn linux_default() -> Self {
        ConservativeGovernor {
            table: None,
            current: 0,
        }
    }
}

impl Governor for ConservativeGovernor {
    fn name(&self) -> &str {
        "conservative"
    }

    fn init(&mut self, ctx: &GovernorContext) -> VfDecision {
        self.table = Some(ctx.opp_table().clone());
        // Conservative starts low and works its way up.
        self.current = 0;
        VfDecision::Cluster(0)
    }

    fn decide(&mut self, obs: &EpochObservation<'_>) -> VfDecision {
        let table = self.table.as_ref().expect("init() must be called first");
        let cores = obs.frame.per_core_busy.len();
        let load = (0..cores)
            .map(|c| obs.frame.utilization(c))
            .fold(0.0f64, f64::max);

        let step_khz = (table.max_freq().khz() as f64 * FREQ_STEP) as u64;
        let cur_freq = table.get(self.current).expect("current index valid").freq;

        if load >= UP_THRESHOLD {
            let target = Freq::from_khz(cur_freq.khz() + step_khz);
            self.current = table.index_at_or_above(target);
        } else if load <= DOWN_THRESHOLD {
            let target = Freq::from_khz(cur_freq.khz().saturating_sub(step_khz));
            self.current = table.index_at_or_below(target);
        }
        VfDecision::Cluster(self.current)
    }

    fn processing_overhead(&self) -> SimTime {
        SimTime::from_us(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgov_sim::{FrameResult, OppTable};
    use qgov_units::{Cycles, Energy, SimTime, Temp};

    fn frame_with_load(load: f64) -> FrameResult {
        let period = SimTime::from_ms(40);
        FrameResult {
            frame_time: period.scale(load),
            wall_time: period,
            period,
            overhead: SimTime::ZERO,
            per_core_busy: [period.scale(load); 4],
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
    fn climbs_gradually_under_load() {
        let mut g = ConservativeGovernor::linux_default();
        g.init(&ctx());
        let hot = frame_with_load(0.95);
        let first = g.decide(&EpochObservation {
            frame: &hot,
            epoch: 0,
        });
        // One 5 % step of 2000 MHz = 100 MHz: from 200 to 300 MHz (idx 1).
        assert_eq!(first, VfDecision::Cluster(1));
        let second = g.decide(&EpochObservation {
            frame: &hot,
            epoch: 1,
        });
        assert_eq!(second, VfDecision::Cluster(2));
    }

    #[test]
    fn descends_gradually_when_idle() {
        let mut g = ConservativeGovernor::linux_default();
        g.init(&ctx());
        let hot = frame_with_load(0.95);
        for e in 0..18 {
            g.decide(&EpochObservation {
                frame: &hot,
                epoch: e,
            });
        }
        let cold = frame_with_load(0.05);
        let d = g.decide(&EpochObservation {
            frame: &cold,
            epoch: 20,
        });
        // 18 hot epochs climbed 100 MHz each: 200 -> 2000 MHz (index 18);
        // one cold epoch steps 100 MHz back down to 1900 MHz.
        assert_eq!(d, VfDecision::Cluster(17), "one step down from 18");
    }

    #[test]
    fn holds_in_the_comfort_band() {
        let mut g = ConservativeGovernor::linux_default();
        g.init(&ctx());
        let mid = frame_with_load(0.5);
        assert_eq!(
            g.decide(&EpochObservation {
                frame: &mid,
                epoch: 0
            }),
            VfDecision::Cluster(0)
        );
    }

    #[test]
    fn saturates_at_table_ends() {
        let mut g = ConservativeGovernor::linux_default();
        g.init(&ctx());
        let cold = frame_with_load(0.01);
        assert_eq!(
            g.decide(&EpochObservation {
                frame: &cold,
                epoch: 0
            }),
            VfDecision::Cluster(0),
            "cannot go below the bottom"
        );
        let hot = frame_with_load(1.0);
        for e in 0..40 {
            g.decide(&EpochObservation {
                frame: &hot,
                epoch: e,
            });
        }
        assert_eq!(
            g.decide(&EpochObservation {
                frame: &hot,
                epoch: 41
            }),
            VfDecision::Cluster(18),
            "cannot go above the top"
        );
    }
}
