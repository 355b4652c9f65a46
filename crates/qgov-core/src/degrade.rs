//! Governor-side graceful degradation: sensor plausibility filtering
//! and the quarantine / safe-state fallback.
//!
//! The RTM's learning loop trusts two sensed quantities — per-core
//! PMU cycle counts (feeding the EWMA demand predictor) and the die
//! temperature. A faulty platform can feed it garbage on both (see
//! `qgov_sim::FaultInjector`), and a naive governor will happily learn
//! from it: a stuck-at-low PMU collapses the demand prediction, the
//! agent drops to a low OPP, and the application misses deadlines for
//! as long as the fault lasts.
//!
//! The hardened path ([`RtmGovernor::with_hardening`]) routes every
//! observation through a [`PlausibilityFilter`] first:
//!
//! * **range gates** — temperature and cycle readings outside
//!   physically plausible bounds are rejected outright;
//! * **rate-of-change gates** — readings that jump implausibly fast
//!   relative to the last accepted value are rejected (a real die does
//!   not heat 20 °C in one 40 ms frame; real demand does not move 4×
//!   between adjacent frames of a smooth workload);
//! * **last-good substitution** — a rejected reading is replaced by the
//!   last accepted one, so the predictor keeps seeing a sane signal
//!   through a transient glitch;
//! * **quarantine → safe state** — after five *consecutive* rejections
//!   the filter declares the sensors untrustworthy; the governor stops
//!   learning and parks the cluster at its top OPP (the
//!   deadline-conservative operating point) until a plausible reading
//!   arrives again.
//!
//! Frame timing (`frame_time`, and therefore slack and the reward) is
//! *not* filtered: the barrier time is scheduler-observable ground
//! truth, not a sensor reading, so it stays trustworthy even when
//! every sensor lies.
//!
//! [`RtmGovernor::with_hardening`]: crate::RtmGovernor::with_hardening

use qgov_sim::{FrameResult, Platform};
use qgov_units::{Cycles, Temp};

/// Temperature readings above this (°C) are implausible.
const MAX_TEMPERATURE_C: f64 = 110.0;

/// Temperature readings below this (°C) are implausible.
const MIN_TEMPERATURE_C: f64 = -10.0;

/// Largest credible temperature change (°C) between adjacent epochs.
const MAX_TEMP_STEP_C: f64 = 15.0;

/// Largest credible ratio between adjacent epochs' total cycle counts
/// (checked both ways: growth and collapse).
const MAX_CYCLE_RATIO: f64 = 4.0;

/// Consecutive implausible epochs before the sensors are quarantined
/// and the governor drops to the safe state.
const QUARANTINE_THRESHOLD: u32 = 5;

/// Consecutive rejections after which the filter re-anchors its
/// last-good reference to the next *range*-plausible reading even if
/// the rate gates still fail. A rate gate compares against the last
/// accepted reading; once that reference is many epochs stale the
/// comparison is meaningless, and without re-anchoring a genuine
/// persistent shift (a die that warmed 20 °C across a long quarantine)
/// would be rejected forever. This bounds how long any single fault
/// can hold the governor in the safe state.
const REBASELINE_AFTER: u32 = 20;

/// Selects the hardened RTM in
/// [`RtmGovernor::with_hardening`](crate::RtmGovernor::with_hardening)
/// and
/// [`ManyCoreRtm::with_agent_hardening`](crate::ManyCoreRtm::with_agent_hardening).
/// It has no settings: the filter's gates are sized for the paper's
/// platform — a 110 °C / −10 °C absolute temperature range, ≤ 15 °C
/// per-epoch step, ≤ 4× cycle-count movement per epoch, quarantine
/// after 5 consecutive rejections, re-anchoring after 20 — and are
/// constants of [`PlausibilityFilter`]; the safe state is the top OPP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HardeningConfig;

impl HardeningConfig {
    /// The gates sized for the paper's platform.
    #[must_use]
    pub fn paper() -> Self {
        HardeningConfig
    }
}

/// Stateful plausibility gate over a stream of sensed [`FrameResult`]s.
///
/// [`admit`](PlausibilityFilter::admit) either accepts a frame
/// (recording it as the new last-good reference) or patches its sensor
/// fields with last-good substitutes. Counters track how often and how
/// long the governor ran degraded; they feed the recovery metrics in
/// `qgov-metrics`.
#[derive(Debug, Clone, Default)]
pub struct PlausibilityFilter {
    last_good_cycles: Option<[Cycles; Platform::CORES]>,
    last_good_temp: Option<Temp>,
    consecutive_rejections: u32,
    degraded_epochs: u64,
    quarantine_entries: u64,
    rebaselines: u64,
}

impl PlausibilityFilter {
    /// A fresh filter (no last-good history yet; the first reading is
    /// range-checked only).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The absolute gates alone: values a healthy sensor could never
    /// report, regardless of history.
    fn range_plausible(&self, frame: &FrameResult) -> bool {
        let temp_c = frame.temperature.as_celsius();
        if !temp_c.is_finite() || !(MIN_TEMPERATURE_C..=MAX_TEMPERATURE_C).contains(&temp_c) {
            return false;
        }
        let total: u64 = frame.per_core_cycles.iter().map(|c| c.count()).sum();
        // Zero retired cycles while the barrier took real time means
        // the PMUs dropped out, not that the chip did nothing.
        if total == 0 && !frame.frame_time.is_zero() {
            return false;
        }
        true
    }

    fn plausible(&self, frame: &FrameResult) -> bool {
        if !self.range_plausible(frame) {
            return false;
        }
        if let Some(last) = self.last_good_temp {
            let step = frame.temperature.as_celsius() - last.as_celsius();
            if step.abs() > MAX_TEMP_STEP_C {
                return false;
            }
        }
        if let Some(last_good) = &self.last_good_cycles {
            let last_total: u64 = last_good.iter().map(|c| c.count()).sum();
            let total: u64 = frame.per_core_cycles.iter().map(|c| c.count()).sum();
            if last_total > 0 && total > 0 {
                let ratio = total as f64 / last_total as f64;
                if !(1.0 / MAX_CYCLE_RATIO..=MAX_CYCLE_RATIO).contains(&ratio) {
                    return false;
                }
            }
        }
        true
    }

    /// Gates one sensed frame. Accepted frames update the last-good
    /// reference and return `true`. Rejected frames get their PMU and
    /// temperature fields overwritten with the last-good values (when
    /// any exist) and return `false`; timing fields are left alone.
    ///
    /// After 20 consecutive rejections the next range-plausible reading
    /// is accepted as a fresh baseline even if the rate gates still fail —
    /// the stale reference, not the reading, is presumed wrong.
    pub fn admit(&mut self, frame: &mut FrameResult) -> bool {
        let rebaseline =
            self.consecutive_rejections >= REBASELINE_AFTER && self.range_plausible(frame);
        if rebaseline || self.plausible(frame) {
            if rebaseline {
                self.rebaselines += 1;
            }
            self.last_good_cycles = Some(frame.per_core_cycles);
            self.last_good_temp = Some(frame.temperature);
            self.consecutive_rejections = 0;
            return true;
        }
        self.degraded_epochs += 1;
        self.consecutive_rejections = self.consecutive_rejections.saturating_add(1);
        if self.consecutive_rejections == QUARANTINE_THRESHOLD {
            self.quarantine_entries += 1;
        }
        if let Some(last_good) = self.last_good_cycles {
            frame.per_core_cycles = last_good;
        }
        if let Some(last) = self.last_good_temp {
            frame.temperature = last;
        }
        false
    }

    /// `true` once five consecutive readings have been rejected;
    /// cleared by the next accepted reading.
    #[must_use]
    pub fn quarantined(&self) -> bool {
        self.consecutive_rejections >= QUARANTINE_THRESHOLD
    }

    /// Total epochs that ran on substituted (or safe-state) data.
    #[must_use]
    pub fn degraded_epochs(&self) -> u64 {
        self.degraded_epochs
    }

    /// How many times the filter escalated to the quarantined safe
    /// state.
    #[must_use]
    pub fn quarantine_entries(&self) -> u64 {
        self.quarantine_entries
    }

    /// Rejections in the current consecutive run (0 when healthy).
    #[must_use]
    pub fn consecutive_rejections(&self) -> u32 {
        self.consecutive_rejections
    }

    /// How many times a stale reference was abandoned for a fresh
    /// range-plausible baseline.
    #[must_use]
    pub fn rebaselines(&self) -> u64 {
        self.rebaselines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgov_units::SimTime;

    fn healthy_frame() -> FrameResult {
        let mut f = FrameResult::empty();
        f.frame_time = SimTime::from_ms(30);
        f.wall_time = SimTime::from_ms(40);
        f.period = SimTime::from_ms(40);
        f.per_core_cycles = [Cycles::from_mcycles(30); Platform::CORES];
        f.temperature = Temp::from_celsius(55.0);
        f
    }

    #[test]
    fn healthy_stream_is_admitted_untouched() {
        let mut filter = PlausibilityFilter::new();
        for _ in 0..10 {
            let mut f = healthy_frame();
            let before = f.clone();
            assert!(filter.admit(&mut f));
            assert_eq!(f, before);
        }
        assert_eq!(filter.degraded_epochs(), 0);
        assert!(!filter.quarantined());
    }

    #[test]
    fn stuck_pmu_is_rejected_and_substituted() {
        let mut filter = PlausibilityFilter::new();
        let mut good = healthy_frame();
        assert!(filter.admit(&mut good));

        let mut bad = healthy_frame();
        bad.per_core_cycles.fill(Cycles::new(1000)); // stuck-at-low
        assert!(!filter.admit(&mut bad));
        // Last-good cycles were substituted in.
        assert_eq!(bad.per_core_cycles, good.per_core_cycles);
        // Timing is never touched.
        assert_eq!(bad.frame_time, SimTime::from_ms(30));
        assert_eq!(filter.degraded_epochs(), 1);
    }

    #[test]
    fn thermal_spike_and_out_of_range_are_rejected() {
        let mut filter = PlausibilityFilter::new();
        let mut good = healthy_frame();
        assert!(filter.admit(&mut good));

        let mut spike = healthy_frame();
        spike.temperature = Temp::from_celsius(80.0); // +25 °C in one epoch
        assert!(!filter.admit(&mut spike));
        assert_eq!(spike.temperature.as_celsius(), 55.0);

        let mut wild = healthy_frame();
        wild.temperature = Temp::from_celsius(400.0);
        assert!(!filter.admit(&mut wild));
    }

    #[test]
    fn quarantine_engages_after_k_consecutive_and_clears_on_recovery() {
        let k = QUARANTINE_THRESHOLD;
        let mut filter = PlausibilityFilter::new();
        let mut good = healthy_frame();
        assert!(filter.admit(&mut good));

        for i in 0..k {
            assert!(!filter.quarantined(), "not yet at rejection {i}");
            let mut bad = healthy_frame();
            bad.temperature = Temp::from_celsius(400.0);
            filter.admit(&mut bad);
        }
        assert!(filter.quarantined());
        assert_eq!(filter.quarantine_entries(), 1);

        // Staying quarantined does not re-count entries.
        let mut bad = healthy_frame();
        bad.temperature = Temp::from_celsius(400.0);
        filter.admit(&mut bad);
        assert!(filter.quarantined());
        assert_eq!(filter.quarantine_entries(), 1);

        let mut fine = healthy_frame();
        assert!(filter.admit(&mut fine));
        assert!(!filter.quarantined());
        assert_eq!(filter.consecutive_rejections(), 0);
    }

    #[test]
    fn persistent_genuine_shift_rebaselines_after_stale_window() {
        let mut filter = PlausibilityFilter::new();
        let mut good = healthy_frame();
        assert!(filter.admit(&mut good));

        // The die genuinely warmed 20 °C — every reading now fails the
        // rate gate against the stale 55 °C reference...
        let mut rejected = 0;
        loop {
            let mut warm = healthy_frame();
            warm.temperature = Temp::from_celsius(75.0);
            if filter.admit(&mut warm) {
                break;
            }
            rejected += 1;
            assert!(rejected <= REBASELINE_AFTER, "filter latched forever");
        }
        // ...until the stale window elapses and the filter re-anchors.
        assert_eq!(rejected, REBASELINE_AFTER);
        assert_eq!(filter.rebaselines(), 1);
        assert!(!filter.quarantined());

        // The new baseline is live: the same reading is now plausible.
        let mut warm = healthy_frame();
        warm.temperature = Temp::from_celsius(75.0);
        assert!(filter.admit(&mut warm));

        // A range-implausible reading can never become a baseline.
        let mut wild = healthy_frame();
        wild.temperature = Temp::from_celsius(400.0);
        for _ in 0..=REBASELINE_AFTER {
            assert!(!filter.admit(&mut wild.clone()));
        }
    }

    #[test]
    fn first_reading_is_range_checked_only() {
        let mut filter = PlausibilityFilter::new();
        // No history: a zero-cycle frame with real frame time is still
        // implausible by the range gate...
        let mut silent = healthy_frame();
        silent.per_core_cycles.fill(Cycles::ZERO);
        assert!(!filter.admit(&mut silent));
        // ...but an otherwise-sane first frame passes with no last-good
        // reference to compare against.
        let mut f = healthy_frame();
        assert!(filter.admit(&mut f));
    }
}
