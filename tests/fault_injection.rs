//! Property tests on the fault-injection subsystem's zero-cost
//! contract: an **empty** [`FaultPlan`] must leave every harness —
//! single-cluster and many-core, under every governor family —
//! bit-identical to the plain no-injector path, for arbitrary seeds
//! and workloads. The injector earns its always-on wiring by being
//! provably invisible when nothing is scheduled.

use proptest::prelude::*;
use qgov::prelude::*;

/// Everything bit-relevant a single-cluster run produces.
fn flat_fingerprint(outcome: &ExperimentOutcome) -> Vec<u64> {
    vec![
        outcome.report.total_energy().as_joules().to_bits(),
        outcome.report.platform_energy().as_joules().to_bits(),
        outcome.report.deadline_misses(),
        outcome.report.transitions(),
        outcome.report.mean_opp().to_bits(),
        outcome.platform.now().as_ns(),
    ]
}

/// Everything bit-relevant a many-core run produces, chip plus every
/// cluster.
fn manycore_fingerprint(outcome: &ManyCoreOutcome) -> Vec<u64> {
    let mut fp = vec![
        outcome.report.total_energy().as_joules().to_bits(),
        outcome.report.deadline_misses(),
        outcome.report.transitions(),
        outcome.report.mean_opp().to_bits(),
    ];
    for report in &outcome.cluster_reports {
        fp.push(report.total_energy().as_joules().to_bits());
        fp.push(report.deadline_misses());
        fp.push(report.transitions());
    }
    fp
}

fn arbitrary_workload() -> impl Strategy<Value = SyntheticWorkload> {
    (
        20u64..300,   // base Mcycles
        0u64..3,      // pattern selector
        20u64..80,    // period ms
        0u64..10_000, // seed
    )
        .prop_map(|(mc, pattern, period_ms, seed)| {
            let base = Cycles::from_mcycles(mc);
            let period = SimTime::from_ms(period_ms);
            match pattern {
                1 => SyntheticWorkload::ramp("fi", base, 2.0, period, 60, 4, seed),
                2 => SyntheticWorkload::sine("fi", base, 0.5, 16, period, 60, 4, seed),
                _ => SyntheticWorkload::constant("fi", base, period, 60, 4, seed).with_noise(0.1),
            }
        })
}

/// One flat governor per family, rebuilt fresh for every run (all are
/// stateful).
fn flat_governor(family: usize, seed: u64, bounds: (f64, f64)) -> Box<dyn Governor> {
    match family {
        0 => Box::new(OndemandGovernor::linux_default()),
        1 => Box::new(ConservativeGovernor::linux_default()),
        _ => Box::new(
            RtmGovernor::new(RtmConfig::paper(seed).with_workload_bounds(bounds.0, bounds.1))
                .expect("paper config is valid"),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn empty_plan_is_bit_identical_on_flat_harness(
        app in arbitrary_workload(),
        family in 0usize..3,
    ) {
        let mut probe = app.clone();
        let (trace, bounds) = precharacterize(&mut probe);
        let seed = 7;
        let frames = 60;

        let mut plain_gov = flat_governor(family, seed, bounds);
        let plain = run_experiment(
            plain_gov.as_mut(),
            &mut trace.clone(),
            PlatformConfig::odroid_xu3_a15(),
            frames,
        );

        let mut faulted_gov = flat_governor(family, seed, bounds);
        let faulted = run_experiment_faulted(
            faulted_gov.as_mut(),
            &mut trace.clone(),
            PlatformConfig::odroid_xu3_a15(),
            frames,
            &FaultPlan::none(),
        );

        prop_assert_eq!(flat_fingerprint(&plain), flat_fingerprint(&faulted));
    }

    #[test]
    fn empty_plan_is_bit_identical_on_manycore_harness(
        app in arbitrary_workload(),
        family in 0usize..3,
    ) {
        let mut probe = app.clone();
        let (trace, bounds) = precharacterize(&mut probe);
        let seed = 7;
        let frames = 60;
        let clusters = 2;
        let shares = vec![0.5; clusters];
        let topology = || Topology::homogeneous_mesh(clusters, PlatformConfig::odroid_xu3_a15());
        let coordinator = || -> Box<dyn ManyCoreGovernor> {
            match family {
                0 => Box::new(
                    ManyCoreRtm::paper(seed, clusters, bounds)
                        .expect("paper config is valid")
                        .with_agent_hardening(HardeningConfig::paper()),
                ),
                1 => Box::new(PerClusterGovernors::new(
                    "rtm-naive",
                    (0..clusters)
                        .map(|c| -> Box<dyn Governor> {
                            let config = RtmConfig::paper(seed.wrapping_add(c as u64))
                                .with_workload_bounds((bounds.0 / 2.0).max(1.0), bounds.1);
                            Box::new(RtmGovernor::new(config).expect("paper config is valid"))
                        })
                        .collect(),
                )),
                _ => Box::new(PerClusterGovernors::new(
                    "ondemand",
                    (0..clusters)
                        .map(|_| -> Box<dyn Governor> {
                            Box::new(OndemandGovernor::linux_default())
                        })
                        .collect(),
                )),
            }
        };

        let mut plain_gov = coordinator();
        let plain = run_manycore_experiment(
            plain_gov.as_mut(),
            &mut trace.clone(),
            topology(),
            frames,
            &shares,
        );

        let mut faulted_gov = coordinator();
        let faulted = run_manycore_experiment_faulted(
            faulted_gov.as_mut(),
            &mut trace.clone(),
            topology(),
            frames,
            &shares,
            &FaultPlan::none(),
        );

        prop_assert_eq!(manycore_fingerprint(&plain), manycore_fingerprint(&faulted));
    }

    #[test]
    fn nonempty_plan_actually_perturbs_the_run(app in arbitrary_workload()) {
        // Sanity companion to the bit-identity property: a scheduled
        // sensor fault must change SOMETHING for a sensing governor —
        // otherwise the identity above would be vacuous.
        let mut probe = app.clone();
        let (trace, bounds) = precharacterize(&mut probe);
        let frames = 60;
        let plan = FaultPlan::none().with(Fault::window(
            FaultKind::PmuStuck { cycles: 1 },
            0,
            5,
            frames,
        ));

        let mut plain_gov = flat_governor(2, 7, bounds);
        let plain = run_experiment(
            plain_gov.as_mut(),
            &mut trace.clone(),
            PlatformConfig::odroid_xu3_a15(),
            frames,
        );
        let mut faulted_gov = flat_governor(2, 7, bounds);
        let faulted = run_experiment_faulted(
            faulted_gov.as_mut(),
            &mut trace.clone(),
            PlatformConfig::odroid_xu3_a15(),
            frames,
            &plan,
        );
        prop_assert_ne!(flat_fingerprint(&plain), flat_fingerprint(&faulted));
    }
}
