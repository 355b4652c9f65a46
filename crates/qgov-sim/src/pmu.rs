//! Per-core performance monitoring unit.

use qgov_units::{Cycles, SimTime};

/// A simulated performance monitoring unit, mirroring the subset of ARM
/// PMU counters the paper's RTM samples each decision epoch.
///
/// The RTM chose the CPU Cycle Count "over other parameters such as
/// memory accesses, cache misses, or instruction rate" because "it
/// directly presents a measure of CPU activity" (Section II-A); we keep
/// the companion counters so baselines and ablations can consult them.
///
/// Counters accumulate monotonically like real PMU registers; governors
/// read-and-remember them to form per-epoch deltas.
///
/// # Examples
///
/// ```
/// use qgov_sim::Pmu;
/// use qgov_units::{Cycles, SimTime};
///
/// let mut pmu = Pmu::new();
/// pmu.record(Cycles::from_mcycles(5), SimTime::from_ms(10), SimTime::from_ms(2));
/// assert_eq!(pmu.cycles(), Cycles::from_mcycles(5));
/// assert!((pmu.utilization() - 10.0 / 12.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pmu {
    cycles: Cycles,
    busy_time: SimTime,
    idle_time: SimTime,
}

impl Pmu {
    /// Creates a PMU with all counters at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates one epoch of activity: retired `cycles`, time spent
    /// busy and time spent idle.
    pub fn record(&mut self, cycles: Cycles, busy: SimTime, idle: SimTime) {
        self.cycles += cycles;
        self.busy_time += busy;
        self.idle_time += idle;
    }

    /// Total cycles retired since reset (the monotone CCNT register).
    #[must_use]
    pub fn cycles(&self) -> Cycles {
        self.cycles
    }

    /// Total busy time since reset.
    #[must_use]
    pub fn busy_time(&self) -> SimTime {
        self.busy_time
    }

    /// Total idle time since reset.
    #[must_use]
    pub fn idle_time(&self) -> SimTime {
        self.idle_time
    }

    /// Busy fraction of total elapsed time in `[0, 1]` — the CPU
    /// utilisation the ondemand governor samples.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let total = self.busy_time + self.idle_time;
        if total.is_zero() {
            0.0
        } else {
            self.busy_time.ratio(total)
        }
    }

    /// Clears all counters.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut pmu = Pmu::new();
        pmu.record(Cycles::new(100), SimTime::from_ms(1), SimTime::from_ms(1));
        pmu.record(Cycles::new(50), SimTime::from_ms(2), SimTime::ZERO);
        assert_eq!(pmu.cycles(), Cycles::new(150));
        assert_eq!(pmu.busy_time(), SimTime::from_ms(3));
        assert_eq!(pmu.idle_time(), SimTime::from_ms(1));
    }

    #[test]
    fn utilization_is_busy_fraction() {
        let mut pmu = Pmu::new();
        assert_eq!(pmu.utilization(), 0.0);
        pmu.record(Cycles::new(1), SimTime::from_ms(3), SimTime::from_ms(1));
        assert!((pmu.utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_every_counter() {
        let mut pmu = Pmu::new();
        pmu.record(Cycles::new(10), SimTime::from_ms(1), SimTime::ZERO);
        pmu.reset();
        assert_eq!(pmu, Pmu::new());
        assert_eq!(pmu.cycles(), Cycles::ZERO);
        assert_eq!(pmu.utilization(), 0.0);
    }
}
