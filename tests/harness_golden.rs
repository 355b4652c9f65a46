//! Golden seam test for the zero-allocation harness refactor: the
//! scratch-buffer experiment loop (`run_experiment` over
//! `next_frame_into` / `run_frame_into` / reused work slices) must be
//! **bit-identical** to a naive reference loop written against the
//! allocating public APIs (`next_frame`, `run_frame`, a fresh work
//! vector per frame) — for every governor family and for both
//! generated and trace-replayed workloads.
//!
//! The many-core and faulted outputs have no such independent reference
//! here, so one test pins them to bit patterns recorded before the flat,
//! faulted and many-core loops were merged into one epoch kernel.

use qgov::prelude::*;

/// The allocating reference implementation of the experiment loop,
/// step-for-step the documented `run_experiment` contract.
fn reference_run(
    governor: &mut dyn Governor,
    app: &mut dyn Application,
    platform_config: PlatformConfig,
    frames: u64,
) -> (RunReport, u64) {
    let mut platform = Platform::new(platform_config).expect("valid platform config");
    let period = app.period();
    let cores = platform.cores();
    let ctx = GovernorContext::new(platform.opp_table().clone(), cores, period);

    app.reset();
    let first = governor.init(&ctx);
    apply(&mut platform, &first);

    let total = frames.min(app.frames());
    let mut report = RunReport::new(governor.name(), app.name(), period);
    for epoch in 0..total {
        let demand = app.next_frame();
        let mut work = vec![WorkSlice::IDLE; cores];
        for (i, t) in demand.threads.iter().enumerate() {
            let core = i.min(cores - 1);
            work[core] = WorkSlice::new(
                work[core].cpu_cycles + t.cpu_cycles,
                work[core].mem_time + t.mem_time,
            );
        }
        let frame = platform.run_frame(&work, period).expect("work sized");
        report.record_frame(
            frame.frame_time,
            frame.wall_time,
            frame.energy,
            frame.cluster_opp,
            frame.met_deadline(),
        );
        let decision = governor.decide(&EpochObservation {
            frame: &frame,
            epoch,
        });
        apply(&mut platform, &decision);
        platform.add_overhead(governor.processing_overhead());
    }
    report.set_run_totals(
        platform.total_energy(),
        platform.vf().transitions(),
        platform.vf().total_latency(),
        platform.peak_temperature(),
    );
    (report, platform.total_energy().as_joules().to_bits())
}

fn quiet_config() -> PlatformConfig {
    PlatformConfig {
        sensor: SensorConfig::ideal(),
        ..PlatformConfig::odroid_xu3_a15()
    }
}

fn apply(platform: &mut Platform, decision: &VfDecision) {
    match decision {
        VfDecision::NoChange => {}
        other => platform.set_cluster_opp(other.resolve_cluster(platform.current_opp())),
    }
}

fn noisy_app(frames: u64) -> SyntheticWorkload {
    SyntheticWorkload::constant(
        "golden",
        Cycles::from_mcycles(120),
        SimTime::from_ms(40),
        frames,
        4,
        9,
    )
    .with_noise(0.15)
}

fn assert_bit_identical(gov_a: &mut dyn Governor, gov_b: &mut dyn Governor, frames: u64) {
    let mut app_a = noisy_app(frames);
    let mut app_b = noisy_app(frames);
    let (reference, ref_energy_bits) = reference_run(gov_a, &mut app_a, quiet_config(), frames);
    let outcome = run_experiment(gov_b, &mut app_b, quiet_config(), frames);
    assert_eq!(
        outcome.report,
        reference,
        "{} diverged",
        reference.governor()
    );
    assert_eq!(
        outcome.platform.total_energy().as_joules().to_bits(),
        ref_energy_bits,
        "{} platform energy diverged",
        reference.governor()
    );
}

#[test]
fn heuristic_governors_are_bit_identical_to_the_reference_loop() {
    assert_bit_identical(
        &mut OndemandGovernor::linux_default(),
        &mut OndemandGovernor::linux_default(),
        150,
    );
    assert_bit_identical(
        &mut ConservativeGovernor::linux_default(),
        &mut ConservativeGovernor::linux_default(),
        150,
    );
    assert_bit_identical(
        &mut PerformanceGovernor::new(),
        &mut PerformanceGovernor::new(),
        80,
    );
    assert_bit_identical(
        &mut PowersaveGovernor::new(),
        &mut PowersaveGovernor::new(),
        80,
    );
}

#[test]
fn learning_governors_are_bit_identical_to_the_reference_loop() {
    let config = || RtmConfig::paper(7).with_workload_bounds(1e8, 1e9);
    assert_bit_identical(
        &mut RtmGovernor::new(config()).unwrap(),
        &mut RtmGovernor::new(config()).unwrap(),
        400,
    );
    assert_bit_identical(
        &mut GeQiuGovernor::new(GeQiuConfig::paper(7)),
        &mut GeQiuGovernor::new(GeQiuConfig::paper(7)),
        300,
    );
}

/// A single-cluster [`Topology`] routed through the many-core harness
/// must be bit-identical to the flat single-platform harness: same
/// work-slice packing, same platform kernel, same governor decisions.
fn assert_manycore_bridge_identical(
    flat: &mut dyn Governor,
    inner: Box<dyn Governor>,
    frames: u64,
) {
    let name = flat.name().to_string();
    let mut app_flat = noisy_app(frames);
    let mut app_chip = noisy_app(frames);

    let flat_outcome = run_experiment(flat, &mut app_flat, quiet_config(), frames);
    let mut coordinator = PerClusterGovernors::new(name.clone(), vec![inner]);
    let chip_outcome = run_manycore_experiment(
        &mut coordinator,
        &mut app_chip,
        Topology::single(quiet_config()),
        frames,
        &[1.0],
    );

    assert_eq!(
        chip_outcome.report, flat_outcome.report,
        "{name}: 1-cluster topology diverged from the flat harness"
    );
    assert_eq!(chip_outcome.cluster_reports.len(), 1);
    assert_eq!(
        chip_outcome.platform.total_energy().as_joules().to_bits(),
        flat_outcome.platform.total_energy().as_joules().to_bits(),
        "{name}: chip energy diverged from the flat platform"
    );
    assert_eq!(chip_outcome.shares, vec![1.0]);
}

#[test]
fn single_cluster_topology_is_bit_identical_to_the_flat_harness() {
    assert_manycore_bridge_identical(
        &mut OndemandGovernor::linux_default(),
        Box::new(OndemandGovernor::linux_default()),
        150,
    );
    assert_manycore_bridge_identical(
        &mut ConservativeGovernor::linux_default(),
        Box::new(ConservativeGovernor::linux_default()),
        150,
    );
    assert_manycore_bridge_identical(
        &mut PerformanceGovernor::new(),
        Box::new(PerformanceGovernor::new()),
        80,
    );
    assert_manycore_bridge_identical(
        &mut PowersaveGovernor::new(),
        Box::new(PowersaveGovernor::new()),
        80,
    );
    let config = || RtmConfig::paper(7).with_workload_bounds(1e8, 1e9);
    assert_manycore_bridge_identical(
        &mut RtmGovernor::new(config()).unwrap(),
        Box::new(RtmGovernor::new(config()).unwrap()),
        400,
    );
    assert_manycore_bridge_identical(
        &mut GeQiuGovernor::new(GeQiuConfig::paper(7)),
        Box::new(GeQiuGovernor::new(GeQiuConfig::paper(7))),
        300,
    );
}

#[test]
fn single_cluster_trace_replay_matches_the_flat_harness() {
    // The precharacterised-trace path — the configuration every recorded
    // experiment uses — through the 1-cluster topology bridge.
    let mut source = VideoDecoderModel::mpeg4_svga_24fps(3).with_frames(200);
    let (trace, bounds) = precharacterize(&mut source);

    let mut replay_flat = trace.clone();
    let mut replay_chip = trace;
    let config = || RtmConfig::paper(3).with_workload_bounds(bounds.0, bounds.1);
    let mut flat_rtm = RtmGovernor::new(config()).unwrap();

    let flat_outcome = run_experiment(&mut flat_rtm, &mut replay_flat, quiet_config(), 200);
    let mut coordinator = PerClusterGovernors::new(
        flat_rtm.name().to_string(),
        vec![Box::new(RtmGovernor::new(config()).unwrap())],
    );
    let chip_outcome = run_manycore_experiment(
        &mut coordinator,
        &mut replay_chip,
        Topology::single(quiet_config()),
        200,
        &[1.0],
    );
    assert_eq!(chip_outcome.report, flat_outcome.report);
    // The per-cluster report is named after the cluster, not the app,
    // but its telemetry must agree bit-for-bit with the flat run.
    let cluster = &chip_outcome.cluster_reports[0];
    assert_eq!(cluster.frames(), flat_outcome.report.frames());
    assert_eq!(
        cluster.deadline_misses(),
        flat_outcome.report.deadline_misses()
    );
    assert_eq!(
        cluster.total_energy().as_joules().to_bits(),
        flat_outcome.report.total_energy().as_joules().to_bits()
    );
}

/// The monitored harness is a pure observer: with the standard
/// temporal property pack attached, the run's report equals the
/// reference loop's bit-for-bit once the verdicts are stripped — and
/// the pack itself is violation-free.
#[test]
fn monitored_harness_is_bit_identical_modulo_verdicts() {
    let frames = 400;
    let config = || RtmConfig::paper(7).with_workload_bounds(1e8, 1e9);
    let mut rtm_ref = RtmGovernor::new(config()).unwrap();
    let mut rtm_mon = RtmGovernor::new(config()).unwrap();
    let mut app_ref = noisy_app(frames);
    let mut app_mon = noisy_app(frames);

    let (reference, ref_energy_bits) =
        reference_run(&mut rtm_ref, &mut app_ref, quiet_config(), frames);
    let mut pack = standard_pack("rtm", &PackConfig::paper());
    let outcome = run_experiment_monitored(
        &mut rtm_mon,
        &mut app_mon,
        quiet_config(),
        frames,
        &mut pack,
    );

    let verdicts = outcome.report.monitor_report().expect("verdicts attached");
    assert!(verdicts.is_clean(), "{}", verdicts.summary());
    assert_eq!(verdicts.epochs(), frames);
    assert!(reference.monitor_report().is_none());
    assert_eq!(
        outcome.report.clone().without_monitor_report(),
        reference,
        "monitoring perturbed the harness"
    );
    assert_eq!(
        outcome.platform.total_energy().as_joules().to_bits(),
        ref_energy_bits
    );
}

#[test]
fn trace_replay_is_bit_identical_to_the_reference_loop() {
    // The trace path exercises `WorkloadTrace::next_frame_into` (the
    // clone-free replay) against the cloning `next_frame`.
    let mut source = VideoDecoderModel::mpeg4_svga_24fps(3).with_frames(200);
    let (trace, bounds) = precharacterize(&mut source);

    let mut replay_a = trace.clone();
    let mut replay_b = trace;
    let mut rtm_a =
        RtmGovernor::new(RtmConfig::paper(3).with_workload_bounds(bounds.0, bounds.1)).unwrap();
    let mut rtm_b =
        RtmGovernor::new(RtmConfig::paper(3).with_workload_bounds(bounds.0, bounds.1)).unwrap();

    let (reference, _) = reference_run(&mut rtm_a, &mut replay_a, quiet_config(), 200);
    let outcome = run_experiment(&mut rtm_b, &mut replay_b, quiet_config(), 200);
    assert_eq!(outcome.report, reference);

    // The RTM-visible telemetry agrees frame-for-frame as well.
    assert_eq!(rtm_a.history().len(), rtm_b.history().len());
    for (a, b) in rtm_a.history().iter().zip(rtm_b.history()) {
        assert_eq!(a, b);
    }
}

/// `(metric, f64::to_bits)` in `WorkList::run_cell` order for one short
/// cell of each chip-level family (seed 11, 120 frames), recorded before
/// the flat, faulted and many-core loops were merged into one kernel.
const PINNED_CELLS: &[(Family, &[(&str, u64)])] = &[
    (
        Family::BigLittle,
        &[
            ("normalized_energy/big_only", 0x3ff0000000000000),
            ("miss_rate/big_only", 0x3fdb333333333333),
            ("energy_joules/big_only", 0x40425e3584e64410),
            ("energy_per_met_frame/big_only", 0x3fe109782239c0fc),
            ("migrations/big_only", 0x0000000000000000),
            ("final_big_share/big_only", 0x3ff0000000000000),
            ("normalized_energy/little_only", 0x3fcec28cced3e43d),
            ("miss_rate/little_only", 0x3fed555555555555),
            ("energy_joules/little_only", 0x4021a7fe23efd1f6),
            ("energy_per_met_frame/little_only", 0x3fec3ffd064c8323),
            ("migrations/little_only", 0x0000000000000000),
            ("final_big_share/little_only", 0x0000000000000000),
            ("normalized_energy/rtm_migrate", 0x3fdca7b06450fdfa),
            ("miss_rate/rtm_migrate", 0x3fddddddddddddde),
            ("energy_joules/rtm_migrate", 0x403072afbb524cc1),
            ("energy_per_met_frame/rtm_migrate", 0x3fd072afbb524cc1),
            ("migrations/rtm_migrate", 0x4054800000000000),
            ("final_big_share/rtm_migrate", 0x3fd2727272727273),
        ],
    ),
    (
        Family::MeshScaling,
        &[
            ("energy_joules/mesh_4", 0x404431457494ec42),
            ("energy_per_cluster/mesh_4", 0x402431457494ec42),
            ("miss_rate/mesh_4", 0x3fe1ddddddddddde),
            ("migrations/mesh_4", 0x4056400000000000),
            ("energy_joules/mesh_8", 0x405355441bca2264),
            ("energy_per_cluster/mesh_8", 0x402355441bca2264),
            ("miss_rate/mesh_8", 0x3fe8000000000000),
            ("migrations/mesh_8", 0x4059400000000000),
            ("energy_joules/mesh_16", 0x4062fccd513cc738),
            ("energy_per_cluster/mesh_16", 0x4022fccd513cc738),
            ("miss_rate/mesh_16", 0x3feb333333333333),
            ("migrations/mesh_16", 0x405b000000000000),
        ],
    ),
    (
        Family::FaultStorm,
        &[
            ("energy_joules/rtm_hardened", 0x4034adcda8e533ff),
            ("miss_rate/rtm_hardened", 0x3fc0000000000000),
            ("post_drop_miss_rate/rtm_hardened", 0x3fa1111111111111),
            ("degraded_epochs/rtm_hardened", 0x4044000000000000),
            ("safe_state_epochs/rtm_hardened", 0x4040000000000000),
            ("worst_excursion/rtm_hardened", 0x3fc47ae147ae147b),
            ("time_to_recover/rtm_hardened", 0x0000000000000000),
            ("monitor_violations/rtm_hardened", 0x0000000000000000),
            ("energy_joules/rtm_naive", 0x40297d36b7c4c30c),
            ("miss_rate/rtm_naive", 0x3fe4cccccccccccd),
            ("post_drop_miss_rate/rtm_naive", 0x3ff0000000000000),
            ("degraded_epochs/rtm_naive", 0x0000000000000000),
            ("safe_state_epochs/rtm_naive", 0x0000000000000000),
            ("worst_excursion/rtm_naive", 0x3ff0000000000000),
            ("monitor_violations/rtm_naive", 0x0000000000000000),
            ("energy_joules/ondemand", 0x402e44733d2240ce),
            ("miss_rate/ondemand", 0x3fe1ddddddddddde),
            ("post_drop_miss_rate/ondemand", 0x3ff0000000000000),
            ("degraded_epochs/ondemand", 0x0000000000000000),
            ("safe_state_epochs/ondemand", 0x0000000000000000),
            ("worst_excursion/ondemand", 0x3ff0000000000000),
            ("monitor_violations/ondemand", 0x0000000000000000),
        ],
    ),
];

/// `(energy bits, misses, transitions)` of the faulted flat run below,
/// recorded with the cells above.
const PINNED_FAULTED: (u64, u64, u64) = (0x403218320861d5c3, 35, 116);

/// The bridge and empty-plan tests compare the one kernel with itself;
/// this pins its chip-level and faulted outputs to fixed bits.
#[test]
fn chip_and_faulted_outputs_match_their_recorded_bits() {
    for &(family, pinned) in PINNED_CELLS {
        let list = WorkList::new(family, vec![11], 120);
        let got: Vec<(String, u64)> = list
            .run_cell(&list.cells()[0])
            .into_iter()
            .map(|(name, value)| (name, value.to_bits()))
            .collect();
        let want: Vec<(String, u64)> = pinned
            .iter()
            .map(|&(name, bits)| (name.to_owned(), bits))
            .collect();
        assert_eq!(got, want, "{family} cell drifted from its recorded bits");
    }

    // A stuck PMU window, a latched-actuation window, then a permanent
    // core drop.
    let plan = FaultPlan::none()
        .with(Fault::window(
            FaultKind::PmuStuck { cycles: 1_000 },
            0,
            20,
            60,
        ))
        .with(Fault::window(FaultKind::ActuationLatched, 0, 80, 120))
        .with(Fault::permanent(FaultKind::CoreDrop { core: 3 }, 0, 150));
    let mut rtm = RtmGovernor::new(RtmConfig::paper(7).with_workload_bounds(1e8, 1e9)).unwrap();
    let outcome = run_experiment_faulted(
        &mut rtm,
        &mut noisy_app(240),
        quiet_config(),
        240,
        &plan,
        0xFA17,
    );
    let report = &outcome.report;
    assert_eq!(
        (
            report.total_energy().as_joules().to_bits(),
            report.deadline_misses(),
            report.transitions(),
        ),
        PINNED_FAULTED,
        "faulted flat run drifted from its recorded bits"
    );
}
