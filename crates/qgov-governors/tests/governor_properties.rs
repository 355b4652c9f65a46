//! Property-based tests on the baseline governors and the slack
//! tracker.

use proptest::prelude::*;
use qgov_governors::{GovernorContext, OracleGovernor, SlackTracker, VfDecision};
use qgov_sim::OppTable;
use qgov_units::{Cycles, SimTime};
use qgov_workloads::{FrameDemand, ThreadDemand, WorkloadTrace};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Oracle minimality: the chosen OPP meets the deadline, and the
    /// next-lower OPP (if any) would not.
    #[test]
    fn oracle_choice_is_minimal_sufficient(
        per_thread_mc in proptest::collection::vec(1u64..120, 1..5),
        mem_ms in 0u64..10,
        period_ms in 20u64..120,
    ) {
        let table = OppTable::odroid_xu3_a15();
        let period = SimTime::from_ms(period_ms);
        let demand = FrameDemand::new(
            per_thread_mc
                .iter()
                .map(|&mc| ThreadDemand::new(Cycles::from_mcycles(mc), SimTime::from_ms(mem_ms)))
                .collect(),
        );
        let trace = WorkloadTrace::from_frames("probe", period, vec![demand.clone()]);
        let oracle = OracleGovernor::from_trace(&trace, &table, 0.0);
        let chosen = oracle.schedule()[0];

        let barrier_at = |idx: usize| -> SimTime {
            let f = table.get(idx).unwrap().freq;
            demand
                .threads
                .iter()
                .map(|t| t.cpu_cycles.time_at(f) + t.mem_time)
                .fold(SimTime::ZERO, SimTime::max)
        };
        let fits = barrier_at(chosen) <= period;
        if chosen < table.max_index() {
            prop_assert!(fits, "chosen OPP must fit unless even the top cannot");
        }
        if fits && chosen > 0 {
            prop_assert!(
                barrier_at(chosen - 1) > period,
                "one OPP lower must not fit (minimality)"
            );
        }
    }

    /// The slack tracker's average always lies within the convex hull
    /// of the observations.
    #[test]
    fn slack_average_stays_in_hull(
        xs in proptest::collection::vec(-1.0f64..1.0, 1..100),
        window in 1usize..20,
    ) {
        let mut tracker = SlackTracker::new(window);
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for &x in &xs {
            tracker.observe(x);
            prop_assert!(tracker.average() >= lo - 1e-12);
            prop_assert!(tracker.average() <= hi + 1e-12);
        }
    }

    /// VfDecision::resolve_cluster never leaves the table range for
    /// in-range inputs.
    #[test]
    fn resolve_cluster_stays_in_range(
        current in 0usize..19,
        per_core in proptest::collection::vec(0usize..19, 0..8),
    ) {
        for d in [
            VfDecision::NoChange,
            VfDecision::Cluster(current),
            VfDecision::PerCore(per_core.clone()),
        ] {
            prop_assert!(d.resolve_cluster(current) < 19);
        }
    }
}

/// The oracle governor's init + decide walk never emits an out-of-table
/// decision for any trace.
#[test]
fn oracle_decisions_always_in_range() {
    let table = OppTable::odroid_xu3_a15();
    for seed in 0..5u64 {
        let mut app = qgov_workloads::VideoDecoderModel::mpeg4_svga_24fps(seed).with_frames(30);
        let trace = WorkloadTrace::record(&mut app);
        let oracle = OracleGovernor::from_trace(&trace, &table, 0.02);
        for &opp in oracle.schedule() {
            assert!(opp < table.len());
        }
    }
}

/// GovernorContext accessors round-trip their inputs.
#[test]
fn governor_context_accessors() {
    let ctx = GovernorContext::new(OppTable::odroid_xu3_a15(), 4, SimTime::from_ms(40));
    assert_eq!(ctx.cores(), 4);
    assert_eq!(ctx.period(), SimTime::from_ms(40));
    assert_eq!(ctx.opp_table().len(), 19);
}
