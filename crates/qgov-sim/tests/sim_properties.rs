//! Property-based tests on the platform simulator: physical invariants
//! that must hold for arbitrary workloads and operating points.

use proptest::prelude::*;
use qgov_sim::{DvfsConfig, Platform, PlatformConfig, VfDomain, WorkSlice};
use qgov_units::{Cycles, SimTime};

fn platform() -> Platform {
    Platform::new(PlatformConfig {
        dvfs: DvfsConfig::free(),
        ..PlatformConfig::odroid_xu3_a15()
    })
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Higher operating points never make a frame slower.
    #[test]
    fn frame_time_monotone_in_opp(
        mcycles in 1u64..100,
        opp_lo in 0usize..19,
        opp_hi in 0usize..19,
    ) {
        prop_assume!(opp_lo < opp_hi);
        let work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(mcycles)); 4];
        let period = SimTime::from_ms(1_000);

        let mut p_lo = platform();
        p_lo.set_cluster_opp(opp_lo);
        let slow = p_lo.run_frame(&work, period).unwrap();

        let mut p_hi = platform();
        p_hi.set_cluster_opp(opp_hi);
        let fast = p_hi.run_frame(&work, period).unwrap();

        prop_assert!(fast.frame_time <= slow.frame_time,
            "opp {opp_hi} slower than opp {opp_lo}");
    }

    /// Energy over a fixed wall window rises with operating point for
    /// fully-busy frames (racing costs more when there is no idle to
    /// harvest).
    #[test]
    fn busy_energy_monotone_in_opp(opp in 0usize..18) {
        let period = SimTime::from_ms(100);
        // Enough work to keep even 2 GHz busy the whole period.
        let work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(250)); 4];

        let run = |idx: usize| {
            let mut p = platform();
            p.set_cluster_opp(idx);
            let r = p.run_frame(&work, period).unwrap();
            // Normalise to energy per unit time (frames last different spans).
            r.energy.as_joules() / r.wall_time.as_secs_f64()
        };
        prop_assert!(run(opp + 1) > run(opp), "avg power must rise with OPP");
    }

    /// Energy is always positive and finite; wall time always covers the
    /// period.
    #[test]
    fn frame_results_are_physical(
        mcycles in proptest::collection::vec(0u64..200, 4),
        mem_us in proptest::collection::vec(0u64..10_000, 4),
        opp in 0usize..19,
        period_ms in 1u64..200,
    ) {
        let mut p = platform();
        p.set_cluster_opp(opp);
        let work: Vec<WorkSlice> = mcycles
            .iter()
            .zip(&mem_us)
            .map(|(&mc, &us)| WorkSlice::new(Cycles::from_mcycles(mc), SimTime::from_us(us)))
            .collect();
        let r = p.run_frame(&work, SimTime::from_ms(period_ms)).unwrap();
        prop_assert!(r.energy.as_joules() > 0.0);
        prop_assert!(r.energy.as_joules().is_finite());
        prop_assert!(r.wall_time >= SimTime::from_ms(period_ms));
        prop_assert!(r.wall_time >= r.frame_time);
        prop_assert!(r.frame_time >= *r.per_core_busy.iter().max().unwrap());
        for c in 0..4 {
            let u = r.utilization(c);
            prop_assert!((0.0..=1.0).contains(&u));
        }
    }

    /// The simulator is deterministic: identical command sequences give
    /// identical results.
    #[test]
    fn identical_runs_are_bit_identical(
        opps in proptest::collection::vec(0usize..19, 1..20),
        mcycles in 1u64..100,
    ) {
        let run = || {
            let mut p = Platform::new(PlatformConfig::odroid_xu3_a15()).unwrap();
            let work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(mcycles)); 4];
            let mut log = Vec::new();
            for &opp in &opps {
                p.set_cluster_opp(opp);
                let r = p.run_frame(&work, SimTime::from_ms(40)).unwrap();
                log.push((r.frame_time, r.energy.as_joules().to_bits()));
            }
            log
        };
        prop_assert_eq!(run(), run());
    }

    /// Per-core busy time equals cycles/f + mem for every core.
    #[test]
    fn busy_time_matches_two_component_model(
        mcycles in 1u64..500,
        mem_us in 0u64..20_000,
        opp in 0usize..19,
    ) {
        let mut p = platform();
        p.set_cluster_opp(opp);
        let slice = WorkSlice::new(Cycles::from_mcycles(mcycles), SimTime::from_us(mem_us));
        let work = vec![slice; 4];
        let r = p.run_frame(&work, SimTime::from_ms(1)).unwrap();
        let freq = p.opp_table().get(opp).unwrap().freq;
        let expect = Cycles::from_mcycles(mcycles).time_at(freq) + SimTime::from_us(mem_us);
        for c in 0..4 {
            prop_assert_eq!(r.per_core_busy[c], expect);
        }
    }

    /// Under a per-core V-F domain, a faster sibling never slows the
    /// barrier.
    #[test]
    fn per_core_speedup_never_hurts(base_opp in 0usize..18) {
        let work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(50)); 4];
        let period = SimTime::from_ms(1_000);
        let make = |boost: bool| {
            let mut p = Platform::new(PlatformConfig {
                vf_domain: VfDomain::PerCore,
                dvfs: DvfsConfig::free(),
                ..PlatformConfig::odroid_xu3_a15()
            })
            .unwrap();
            for c in 0..4 {
                p.try_set_core_opp(c, base_opp).unwrap();
            }
            if boost {
                p.try_set_core_opp(2, 18).unwrap();
            }
            p.run_frame(&work, period).unwrap().frame_time
        };
        prop_assert!(make(true) <= make(false));
    }
}
