//! Property tests on the fault-injection subsystem's zero-cost
//! contract: an **empty** [`FaultPlan`] passed to the one run entry,
//! `run_manycore_experiment`, must leave its run bit-identical to the
//! no-injector path — on a one-cluster chip against `run_experiment`,
//! and on a many-core chip against the entry without a plan — under
//! every governor family, for arbitrary seeds and workloads. The
//! injector earns its always-on wiring by being provably invisible
//! when nothing is scheduled.

use proptest::prelude::*;
use qgov::prelude::*;

/// Everything bit-relevant a single-cluster run produces.
fn flat_fingerprint(report: &RunReport, platform: &Platform) -> Vec<u64> {
    vec![
        report.total_energy().as_joules().to_bits(),
        report.platform_energy().as_joules().to_bits(),
        report.deadline_misses(),
        report.transitions(),
        report.mean_opp().to_bits(),
        platform.now().as_ns(),
    ]
}

/// A flat governor through the one entry: a one-governor coordinator on
/// a one-cluster chip (the bridge `harness_golden` pins bit for bit to
/// `run_experiment`), under `faults`, keeping no cluster report.
fn flat_through_the_entry(
    gov: Box<dyn Governor>,
    trace: &WorkloadTrace,
    frames: u64,
    faults: Option<&FaultPlan>,
) -> Vec<u64> {
    let mut coordinator = PerClusterGovernors::new(gov.name().to_owned(), vec![gov]);
    let outcome = run_manycore_experiment(
        &mut coordinator,
        &mut trace.clone(),
        Topology::single(PlatformConfig::odroid_xu3_a15()),
        frames,
        &[1.0],
        EpochOptions {
            faults,
            ..EpochOptions::default()
        },
    );
    flat_fingerprint(&outcome.report, outcome.platform.cluster(0))
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
        2 => Box::new(GeQiuGovernor::new(seed)),
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
        family in 0usize..4,
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

        let faulted = flat_through_the_entry(
            flat_governor(family, seed, bounds),
            &trace,
            frames,
            Some(&FaultPlan::none()),
        );

        prop_assert_eq!(flat_fingerprint(&plain.report, &plain.platform), faulted);
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

        let run = |faults: Option<&FaultPlan>| {
            run_manycore_experiment(
                coordinator().as_mut(),
                &mut trace.clone(),
                topology(),
                frames,
                &shares,
                EpochOptions {
                    faults,
                    monitors: None,
                    cluster_reports: true,
                },
            )
        };
        let plain = run(None);
        let faulted = run(Some(&FaultPlan::none()));

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

        let plain = flat_through_the_entry(flat_governor(3, 7, bounds), &trace, frames, None);
        let faulted =
            flat_through_the_entry(flat_governor(3, 7, bounds), &trace, frames, Some(&plan));
        prop_assert_ne!(plain, faulted);
    }
}
