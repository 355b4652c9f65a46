//! Per-run accounting.

use crate::monitor::MonitorReport;
use crate::OnlineStats;
use qgov_units::{Energy, Power, SimTime, Temp};

/// Minimal per-frame record kept by a run for downstream analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameStat {
    /// Execution time of the frame (including overheads).
    pub frame_time: SimTime,
    /// Wall-clock span of the epoch.
    pub wall_time: SimTime,
    /// Ground-truth energy of the epoch.
    pub energy: Energy,
    /// Cluster OPP index the frame ran at.
    pub opp: usize,
    /// Whether the deadline was met.
    pub met_deadline: bool,
}

/// Accumulated results of one governor × application run.
///
/// Normalisation follows the paper's Table I conventions:
/// *performance* is normalised to the required per-frame time `T_ref`
/// (values < 1 mean over-performance, > 1 mean under-performance), and
/// *energy* is normalised to the Oracle's consumption on the identical
/// workload.
///
/// # Examples
///
/// ```
/// use qgov_metrics::RunReport;
/// use qgov_units::{Energy, SimTime};
///
/// let mut report = RunReport::new("mygov", "myapp", SimTime::from_ms(40));
/// report.record_frame(
///     SimTime::from_ms(30), SimTime::from_ms(40),
///     Energy::from_joules(0.1), 7, true,
/// );
/// assert_eq!(report.frames(), 1);
/// assert!((report.normalized_performance() - 0.75).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    governor: String,
    app: String,
    period: SimTime,
    frames: Vec<FrameStat>,
    frame_time_ratio: OnlineStats,
    total_energy: Energy,
    total_measured_energy: Energy,
    total_wall: SimTime,
    misses: u64,
    transitions: u64,
    total_overhead: SimTime,
    peak_temp: Temp,
    /// Temporal-property verdicts, when the run was monitored. `None`
    /// for unmonitored runs, so monitored and plain reports of the same
    /// run differ only here.
    monitor: Option<MonitorReport>,
}

impl RunReport {
    /// Creates an empty report.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    #[must_use]
    pub fn new(governor: impl Into<String>, app: impl Into<String>, period: SimTime) -> Self {
        assert!(!period.is_zero(), "period must be non-zero");
        RunReport {
            governor: governor.into(),
            app: app.into(),
            period,
            frames: Vec::new(),
            frame_time_ratio: OnlineStats::new(),
            total_energy: Energy::ZERO,
            total_measured_energy: Energy::ZERO,
            total_wall: SimTime::ZERO,
            misses: 0,
            transitions: 0,
            total_overhead: SimTime::ZERO,
            peak_temp: Temp::default(),
            monitor: None,
        }
    }

    /// Pre-reserves capacity for `frames` further
    /// [`record_frame`](RunReport::record_frame) calls, so a run of
    /// known length records every frame without reallocating (the
    /// harness's zero-allocation steady-state loop).
    pub fn reserve_frames(&mut self, frames: usize) {
        self.frames.reserve(frames);
    }

    /// Records one frame's outcome.
    pub fn record_frame(
        &mut self,
        frame_time: SimTime,
        wall_time: SimTime,
        energy: Energy,
        opp: usize,
        met_deadline: bool,
    ) {
        self.frames.push(FrameStat {
            frame_time,
            wall_time,
            energy,
            opp,
            met_deadline,
        });
        self.frame_time_ratio.push(frame_time.ratio(self.period));
        self.total_energy += energy;
        self.total_wall += wall_time;
        if !met_deadline {
            self.misses += 1;
        }
    }

    /// Records run-wide extras not visible per frame.
    pub fn set_run_totals(
        &mut self,
        measured_energy: Energy,
        transitions: u64,
        total_overhead: SimTime,
        peak_temp: Temp,
    ) {
        self.total_measured_energy = measured_energy;
        self.transitions = transitions;
        self.total_overhead = total_overhead;
        self.peak_temp = peak_temp;
    }

    /// Governor name.
    #[must_use]
    pub fn governor(&self) -> &str {
        &self.governor
    }

    /// Application name.
    #[must_use]
    pub fn app(&self) -> &str {
        &self.app
    }

    /// The per-frame deadline `T_ref`.
    #[must_use]
    pub fn period(&self) -> SimTime {
        self.period
    }

    /// Number of frames recorded.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.frames.len() as u64
    }

    /// The per-frame records.
    #[must_use]
    pub fn frame_stats(&self) -> &[FrameStat] {
        &self.frames
    }

    /// Ground-truth energy of the whole run.
    #[must_use]
    pub fn total_energy(&self) -> Energy {
        self.total_energy
    }

    /// Sensor-measured energy of the whole run (the paper's
    /// measurement).
    #[must_use]
    pub fn measured_energy(&self) -> Energy {
        self.total_measured_energy
    }

    /// Mean ground-truth power over the run.
    #[must_use]
    pub fn avg_power(&self) -> Power {
        if self.total_wall.is_zero() {
            Power::ZERO
        } else {
            Power::from_watts(self.total_energy.as_joules() / self.total_wall.as_secs_f64())
        }
    }

    /// The paper's normalised performance: mean `Tᵢ / T_ref`. Values
    /// below 1 are over-performance, above 1 under-performance.
    #[must_use]
    pub fn normalized_performance(&self) -> f64 {
        self.frame_time_ratio.mean()
    }

    /// The paper's normalised energy with respect to a reference run
    /// (the Oracle in Table I).
    ///
    /// # Panics
    ///
    /// Panics if the reference consumed zero energy.
    #[must_use]
    pub fn normalized_energy(&self, reference: &RunReport) -> f64 {
        self.total_energy.normalized_to(reference.total_energy)
    }

    /// Number of missed deadlines.
    #[must_use]
    pub fn deadline_misses(&self) -> u64 {
        self.misses
    }

    /// Fraction of frames that missed their deadline.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.frames.is_empty() {
            0.0
        } else {
            self.misses as f64 / self.frames.len() as f64
        }
    }

    /// Number of V-F transitions performed.
    #[must_use]
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Total learning/DVFS overhead time charged (`ΣT_OVH`).
    #[must_use]
    pub fn total_overhead(&self) -> SimTime {
        self.total_overhead
    }

    /// Peak die temperature of the run.
    #[must_use]
    pub fn peak_temp(&self) -> Temp {
        self.peak_temp
    }

    /// Attaches the temporal-monitor verdicts of a monitored run.
    pub fn set_monitor_report(&mut self, monitor: MonitorReport) {
        self.monitor = Some(monitor);
    }

    /// The temporal-monitor verdicts, when the run was monitored.
    #[must_use]
    pub fn monitor_report(&self) -> Option<&MonitorReport> {
        self.monitor.as_ref()
    }

    /// Strips the monitor verdicts, restoring the exact report an
    /// unmonitored run produces — the form the bit-identity seams
    /// compare.
    #[must_use]
    pub fn without_monitor_report(mut self) -> Self {
        self.monitor = None;
        self
    }

    /// Mean OPP index over the run (a quick energy-behaviour summary).
    #[must_use]
    pub fn mean_opp(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.frames.iter().map(|f| f.opp as f64).sum();
        sum / self.frames.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(ratios: &[f64], energies_j: &[f64], met: &[bool]) -> RunReport {
        let period = SimTime::from_ms(100);
        let mut r = RunReport::new("g", "a", period);
        for ((&ratio, &e), &m) in ratios.iter().zip(energies_j).zip(met) {
            r.record_frame(
                period.scale(ratio),
                period.max(period.scale(ratio)),
                Energy::from_joules(e),
                5,
                m,
            );
        }
        r
    }

    #[test]
    fn normalized_performance_is_mean_ratio() {
        let r = report_with(&[0.5, 1.0, 1.5], &[1.0; 3], &[true, true, false]);
        assert!((r.normalized_performance() - 1.0).abs() < 1e-12);
        let over = report_with(&[0.5, 0.9], &[1.0; 2], &[true, true]);
        assert!((over.normalized_performance() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn normalized_energy_uses_reference() {
        let ours = report_with(&[1.0], &[11.1], &[true]);
        let oracle = report_with(&[1.0], &[10.0], &[true]);
        assert!((ours.normalized_energy(&oracle) - 1.11).abs() < 1e-12);
    }

    #[test]
    fn miss_accounting() {
        let r = report_with(&[1.0; 4], &[1.0; 4], &[true, false, true, false]);
        assert_eq!(r.deadline_misses(), 2);
        assert!((r.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn avg_power_is_energy_over_wall() {
        let r = report_with(&[1.0, 1.0], &[2.0, 4.0], &[true, true]);
        // 6 J over 200 ms = 30 W.
        assert!((r.avg_power().as_watts() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = RunReport::new("g", "a", SimTime::from_ms(10));
        assert_eq!(r.frames(), 0);
        assert_eq!(r.normalized_performance(), 0.0);
        assert_eq!(r.miss_rate(), 0.0);
        assert_eq!(r.avg_power(), Power::ZERO);
        assert_eq!(r.mean_opp(), 0.0);
    }

    #[test]
    fn monitor_report_attaches_and_strips_cleanly() {
        use crate::{Property, PropertySet};
        let plain = report_with(&[1.0], &[1.0], &[true]);
        let mut monitored = plain.clone();
        let mut set = PropertySet::new().with("ok", Property::always(|_: &u64| true));
        set.observe(&0);
        monitored.set_monitor_report(set.report());
        assert_ne!(monitored, plain);
        assert!(monitored.monitor_report().unwrap().is_clean());
        assert_eq!(monitored.without_monitor_report(), plain);
    }

    #[test]
    fn run_totals_are_stored() {
        let mut r = report_with(&[1.0], &[1.0], &[true]);
        r.set_run_totals(
            Energy::from_joules(1.02),
            7,
            SimTime::from_ms(3),
            Temp::from_celsius(71.0),
        );
        assert_eq!(r.transitions(), 7);
        assert_eq!(r.total_overhead(), SimTime::from_ms(3));
        assert_eq!(r.peak_temp(), Temp::from_celsius(71.0));
        assert!((r.measured_energy().as_joules() - 1.02).abs() < 1e-12);
    }
}
