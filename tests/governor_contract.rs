//! Property tests on the governor contract: every governor must produce
//! legal decisions for arbitrary (feasible and infeasible) workloads,
//! never panic, and keep the platform invariants intact; the chip
//! coordinator's migration policy must keep the work shares a valid
//! split.

use proptest::prelude::*;
use qgov::prelude::*;

fn arbitrary_workload() -> impl Strategy<Value = SyntheticWorkload> {
    (
        1u64..400,    // base Mcycles
        1u64..5,      // pattern selector
        10u64..120,   // period ms
        0u64..3,      // noise selector
        0u64..10_000, // seed
    )
        .prop_map(|(mc, pattern, period_ms, noise, seed)| {
            let base = Cycles::from_mcycles(mc);
            let period = SimTime::from_ms(period_ms);
            let frames = 60;
            let app = match pattern {
                1 => SyntheticWorkload::ramp("w", base, 2.5, period, frames, 4, seed),
                2 => SyntheticWorkload::square("w", base, 2.0, 5, period, frames, 4, seed),
                3 => SyntheticWorkload::sine("w", base, 0.5, 16, period, frames, 4, seed),
                _ => SyntheticWorkload::constant("w", base, period, frames, 4, seed),
            };
            match noise {
                0 => app,
                1 => app.with_noise(0.1),
                _ => app.with_noise(0.3).with_mem_time(SimTime::from_ms(2)),
            }
        })
}

fn check_governor(gov: &mut dyn Governor, app: &mut SyntheticWorkload) {
    let outcome = run_experiment(gov, app, PlatformConfig::odroid_xu3_a15(), 60);
    let report = outcome.report;
    assert_eq!(report.frames(), 60);
    assert!(report.total_energy().as_joules() > 0.0);
    assert!(report.total_energy().as_joules().is_finite());
    assert!(report.normalized_performance() > 0.0);
    assert!(report.miss_rate() >= 0.0 && report.miss_rate() <= 1.0);
    // Mean OPP must stay inside the 19-point table.
    assert!(report.mean_opp() >= 0.0 && report.mean_opp() <= 18.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ondemand_survives_any_workload(mut app in arbitrary_workload()) {
        check_governor(&mut OndemandGovernor::linux_default(), &mut app);
    }

    #[test]
    fn conservative_survives_any_workload(mut app in arbitrary_workload()) {
        check_governor(&mut ConservativeGovernor::linux_default(), &mut app);
    }

    #[test]
    fn rtm_survives_any_workload(mut app in arbitrary_workload()) {
        // Bounds from the workload's own offline pre-characterisation.
        let (_, bounds) = precharacterize(&mut app);
        let mut rtm =
            RtmGovernor::new(RtmConfig::paper(1).with_workload_bounds(bounds.0, bounds.1)).unwrap();
        check_governor(&mut rtm, &mut app);
    }

    #[test]
    fn geqiu_survives_any_workload(mut app in arbitrary_workload()) {
        let mut gov = GeQiuGovernor::new(1);
        check_governor(&mut gov, &mut app);
    }

    #[test]
    fn oracle_survives_any_workload(mut app in arbitrary_workload()) {
        let (trace, _) = precharacterize(&mut app);
        let mut gov = OracleGovernor::from_trace(&trace, &OppTable::odroid_xu3_a15(), 0.02);
        check_governor(&mut gov, &mut app);
    }

    /// The oracle never uses more energy than the performance governor
    /// on any workload (it could always copy it).
    #[test]
    fn oracle_never_beaten_by_racing(mut app in arbitrary_workload()) {
        let (trace, _) = precharacterize(&mut app);
        let mut oracle = OracleGovernor::from_trace(&trace, &OppTable::odroid_xu3_a15(), 0.0);
        let o = run_experiment(&mut oracle, &mut trace.clone(),
                               PlatformConfig::odroid_xu3_a15(), 60).report;
        let p = run_experiment(&mut PerformanceGovernor::new(), &mut trace.clone(),
                               PlatformConfig::odroid_xu3_a15(), 60).report;
        prop_assert!(o.total_energy().as_joules() <= p.total_energy().as_joules() * 1.001,
            "oracle {} must not exceed performance {}", o.total_energy(), p.total_energy());
    }

    /// Feasible constant workloads: the oracle meets every deadline.
    #[test]
    fn oracle_meets_feasible_deadlines(
        mc in 1u64..150, period_ms in 40u64..120, seed in 0u64..100,
    ) {
        // <= 150 Mc over 4 threads in >= 40 ms is always feasible at 2 GHz
        // (37.5 Mc/thread = 18.75 ms).
        let mut app = SyntheticWorkload::constant(
            "feasible", Cycles::from_mcycles(mc), SimTime::from_ms(period_ms), 40, 4, seed,
        );
        let (trace, _) = precharacterize(&mut app);
        let mut oracle = OracleGovernor::from_trace(&trace, &OppTable::odroid_xu3_a15(), 0.02);
        let report = run_experiment(&mut oracle, &mut trace.clone(),
                                    PlatformConfig::odroid_xu3_a15(), 40).report;
        prop_assert_eq!(report.deadline_misses(), 0);
    }
}

/// Epochs of `drain_dead` + `rebalance_masked` per migration case.
const MIGRATION_EPOCHS: usize = 6;

/// The most clusters a migration case places work on.
const MAX_CLUSTERS: usize = 16;

/// One cluster in one epoch as the migration policy sees it: a frame
/// with slack in [−1, 1), some J/cycle and die temperature, zero or
/// non-zero retired cycles, and whether the cluster is dead.
fn cluster_epoch() -> impl Strategy<Value = (FrameResult, bool)> {
    (-1.0f64..1.0, 1e-10f64..1e-8, 20.0f64..110.0, 0u8..2, 0u8..2).prop_map(
        |(slack, joules_per_cycle, temp_c, busy, dead)| {
            let mut frame = FrameResult::empty();
            frame.period = SimTime::from_ms(40);
            frame.frame_time = SimTime::from_secs_f64(0.040 * (1.0 - slack));
            frame.per_core_cycles = [Cycles::new(u64::from(busy) * 1_000_000); 4];
            frame.energy = Energy::from_joules(joules_per_cycle * 4e6);
            frame.temperature = Temp::from_celsius(temp_c);
            (frame, dead == 1)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// Whatever the clusters report, migration keeps the shares a
    /// split of the same work: non-negative, summing to what they
    /// summed to, never growing on a dead cluster while any cluster
    /// lives, and moved at most twice per epoch (one drain, one step).
    #[test]
    fn greedy_migration_keeps_shares_a_valid_split(
        clusters in 1usize..MAX_CLUSTERS + 1,
        weights in proptest::collection::vec(0u32..1001, MAX_CLUSTERS),
        epochs in proptest::collection::vec(cluster_epoch(), MAX_CLUSTERS * MIGRATION_EPOCHS),
    ) {
        let total: u32 = weights[..clusters].iter().sum();
        let mut shares: Vec<f64> = weights[..clusters]
            .iter()
            .map(|&w| if total == 0 { 1.0 / clusters as f64 } else { f64::from(w) / f64::from(total) })
            .collect();
        let sum: f64 = shares.iter().sum();
        let mut policy = GreedyMigration::new();
        for epoch in epochs.chunks(MAX_CLUSTERS) {
            let (frames, dead): (Vec<FrameResult>, Vec<bool>) =
                epoch[..clusters].iter().cloned().unzip();
            let before = shares.clone();
            let migrations = policy.migrations();
            policy.drain_dead(&mut shares, &dead);
            policy.rebalance_masked(&frames, &mut shares, &dead);

            prop_assert!(policy.migrations() - migrations <= 2, "{} moves", policy.migrations() - migrations);
            prop_assert!(shares.iter().all(|&s| s >= 0.0), "negative share: {shares:?}");
            let now: f64 = shares.iter().sum();
            prop_assert!((now - sum).abs() <= 1e-12, "share sum {sum} became {now}");
            if dead.contains(&false) {
                for c in (0..clusters).filter(|&c| dead[c]) {
                    prop_assert!(shares[c] <= before[c], "dead cluster {c} grew: {before:?} -> {shares:?}");
                }
            }
        }
    }
}
