//! The offline Oracle governor — Table I's normalisation reference.
//!
//! "Energy normalization is carried out with respect to Oracle (through
//! offline determination of optimized V-F for the observed CPU
//! workloads)" (Section III-A). Given the full workload trace in
//! advance, the Oracle picks, for every frame, the lowest operating
//! point that still meets the deadline — the minimum-energy choice under
//! a convex power model.

use crate::{EpochObservation, Governor, GovernorContext, VfDecision};
use qgov_sim::OppTable;
use qgov_units::SimTime;
use qgov_workloads::{Application, FrameDemand, WorkloadTrace};

/// The clairvoyant minimum-energy governor.
///
/// # Examples
///
/// ```
/// use qgov_governors::OracleGovernor;
/// use qgov_sim::OppTable;
/// use qgov_workloads::{SyntheticWorkload, WorkloadTrace};
/// use qgov_units::{Cycles, SimTime};
///
/// let mut app = SyntheticWorkload::constant(
///     "c", Cycles::from_mcycles(40), SimTime::from_ms(40), 10, 4, 0,
/// );
/// let trace = WorkloadTrace::record(&mut app);
/// let oracle = OracleGovernor::from_trace(&trace, &OppTable::odroid_xu3_a15(), 0.02);
/// // 10 Mcycles/thread in 40 ms needs only ~256 MHz: the oracle picks a
/// // low operating point for every frame.
/// assert!(oracle.schedule().iter().all(|&opp| opp <= 2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleGovernor {
    schedule: Vec<usize>,
    cursor: usize,
}

impl OracleGovernor {
    /// Precomputes the per-frame schedule from a recorded trace.
    ///
    /// `margin` is the fraction of the period reserved as headroom for
    /// V-F transition latency and timer jitter (2 % is plenty for the
    /// XU3's ≈ 50 µs transitions against ≥ 30 ms frames).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ margin < 1`.
    #[must_use]
    pub fn from_trace(trace: &WorkloadTrace, table: &OppTable, margin: f64) -> Self {
        assert!(
            margin.is_finite() && (0.0..1.0).contains(&margin),
            "margin must lie in [0, 1), got {margin}"
        );
        let raw = trace.period();
        let margined = raw.scale(1.0 - margin);
        // Two budgets per frame: the raw deadline (what a miss is measured
        // against) and the margined one (headroom for V-F transition
        // latency and timer jitter). Prefer the margined choice, but never
        // exceed the raw-minimal peak: the margin must not inflate the
        // schedule's busiest choice past what the deadline itself demands,
        // otherwise the Oracle stops being the minimal sufficient schedule
        // (an OPP one below its peak could still meet every deadline).
        // Frames capped this way run with less than the requested margin —
        // acceptable because the real transition cost (~50 µs) is far
        // below the margins in practical use (2 % of a ≥ 30 ms period).
        let cap = trace
            .frame_demands()
            .iter()
            .map(|frame| Self::min_opp_for(frame, table, raw))
            .max()
            .unwrap_or(0);
        let schedule = trace
            .frame_demands()
            .iter()
            .map(|frame| Self::min_opp_for(frame, table, margined).min(cap))
            .collect();
        OracleGovernor {
            schedule,
            cursor: 0,
        }
    }

    /// The lowest OPP index whose barrier time fits in `budget`, or the
    /// top index if none does.
    fn min_opp_for(frame: &FrameDemand, table: &OppTable, budget: SimTime) -> usize {
        for (i, opp) in table.iter().enumerate() {
            let barrier = frame
                .threads
                .iter()
                .map(|t| t.cpu_cycles.time_at(opp.freq) + t.mem_time)
                .fold(SimTime::ZERO, SimTime::max);
            if barrier <= budget {
                return i;
            }
        }
        table.max_index()
    }

    /// The precomputed per-frame OPP schedule.
    #[must_use]
    pub fn schedule(&self) -> &[usize] {
        &self.schedule
    }
}

impl Governor for OracleGovernor {
    fn name(&self) -> &str {
        "oracle"
    }

    fn init(&mut self, _ctx: &GovernorContext) -> VfDecision {
        self.cursor = 0;
        VfDecision::Cluster(self.schedule.first().copied().unwrap_or(0))
    }

    fn decide(&mut self, obs: &EpochObservation<'_>) -> VfDecision {
        // Frame `epoch` completed; set up for frame `epoch + 1`.
        let next = (obs.epoch as usize + 1).min(self.schedule.len().saturating_sub(1));
        self.cursor = next;
        VfDecision::Cluster(self.schedule[next])
    }

    // The Oracle is free at run time: all work happened offline.
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgov_units::Cycles;
    use qgov_workloads::{SyntheticWorkload, ThreadDemand};

    fn table() -> OppTable {
        OppTable::odroid_xu3_a15()
    }

    fn demand(mcycles_per_thread: u64) -> FrameDemand {
        FrameDemand::new(vec![
            ThreadDemand::cpu_only(Cycles::from_mcycles(
                mcycles_per_thread
            ));
            4
        ])
    }

    #[test]
    fn picks_minimum_sufficient_opp() {
        // 20 Mcycles in <= 40 ms needs >= 500 MHz: index 3.
        let opp = OracleGovernor::min_opp_for(&demand(20), &table(), SimTime::from_ms(40));
        assert_eq!(opp, 3);
        // 2 Mcycles in 40 ms: 50 MHz would do, lowest point (200 MHz) wins.
        let opp = OracleGovernor::min_opp_for(&demand(2), &table(), SimTime::from_ms(40));
        assert_eq!(opp, 0);
    }

    #[test]
    fn infeasible_frames_get_the_top_point() {
        // 200 Mcycles in 40 ms needs 5 GHz: impossible, so top index.
        let opp = OracleGovernor::min_opp_for(&demand(200), &table(), SimTime::from_ms(40));
        assert_eq!(opp, 18);
    }

    #[test]
    fn memory_time_is_counted_against_the_budget() {
        let frame = FrameDemand::new(vec![
            ThreadDemand::new(
                Cycles::from_mcycles(20),
                SimTime::from_ms(20)
            );
            4
        ]);
        // 20 ms memory + 20 Mcycles CPU in 40 ms => CPU must fit in
        // 20 ms => >= 1000 MHz (index 8).
        let opp = OracleGovernor::min_opp_for(&frame, &table(), SimTime::from_ms(40));
        assert_eq!(opp, 8);
    }

    #[test]
    fn schedule_tracks_varying_workload() {
        let mut app = SyntheticWorkload::square(
            "sq",
            Cycles::from_mcycles(16), // 4 Mc/thread low, 16 Mc/thread high
            4.0,
            5,
            SimTime::from_ms(40),
            20,
            4,
            0,
        );
        let oracle = OracleGovernor::from_trace(&WorkloadTrace::record(&mut app), &table(), 0.0);
        let schedule = oracle.schedule();
        assert_eq!(schedule.len(), 20);
        // Low phase needs 100 MHz -> index 0; high phase needs 400 MHz.
        assert!(schedule[0] < schedule[7], "{schedule:?}");
        assert_eq!(&schedule[0..5], &[0; 5]);
    }

    #[test]
    fn margin_pushes_the_choice_up() {
        // 39.9 ms of work at index 3 in a 40 ms period: fits with no
        // margin, not with 5 %.
        let tight = demand(20); // at 500 MHz: exactly 40 ms
        let none = OracleGovernor::min_opp_for(&tight, &table(), SimTime::from_ms(40));
        let with_margin =
            OracleGovernor::min_opp_for(&tight, &table(), SimTime::from_ms(40).scale(0.95));
        assert!(with_margin > none);
    }

    #[test]
    fn governor_walks_the_schedule() {
        use qgov_sim::{Platform, PlatformConfig, WorkSlice};
        let mut app = SyntheticWorkload::square(
            "sq",
            Cycles::from_mcycles(16),
            4.0,
            3,
            SimTime::from_ms(40),
            12,
            4,
            0,
        );
        let mut oracle =
            OracleGovernor::from_trace(&WorkloadTrace::record(&mut app), &table(), 0.02);
        let expected: Vec<usize> = oracle.schedule().to_vec();
        let ctx = GovernorContext::new(table(), 4, SimTime::from_ms(40));
        let first = oracle.init(&ctx);
        assert_eq!(first, VfDecision::Cluster(expected[0]));

        // Drive with real frames and check the walk.
        let mut platform = Platform::new(PlatformConfig::odroid_xu3_a15()).unwrap();
        let work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(1)); 4];
        for epoch in 0..11u64 {
            let frame = platform.run_frame(&work, SimTime::from_ms(40)).unwrap();
            let d = oracle.decide(&EpochObservation {
                frame: &frame,
                epoch,
            });
            assert_eq!(d, VfDecision::Cluster(expected[epoch as usize + 1]));
        }
    }

    #[test]
    #[should_panic(expected = "margin")]
    fn bad_margin_panics() {
        let mut app = SyntheticWorkload::constant(
            "c",
            Cycles::from_mcycles(1),
            SimTime::from_ms(40),
            2,
            1,
            0,
        );
        let trace = WorkloadTrace::record(&mut app);
        let _ = OracleGovernor::from_trace(&trace, &table(), 1.0);
    }
}
