//! End-to-end integration: the full stack (workload → platform →
//! governor → metrics) must reproduce the qualitative physics the paper
//! relies on.

use qgov::prelude::*;

/// Runs one governor on the given recorded trace.
fn run_on(gov: &mut dyn Governor, trace: &WorkloadTrace, frames: u64) -> qgov::metrics::RunReport {
    run_experiment(
        gov,
        &mut trace.clone(),
        PlatformConfig::odroid_xu3_a15(),
        frames,
    )
    .report
}

#[test]
fn energy_ordering_matches_physics() {
    let frames = 500;
    let mut app = VideoDecoderModel::h264_football_15fps(9).with_frames(frames);
    let (trace, bounds) = precharacterize(&mut app);
    let table = OppTable::odroid_xu3_a15();

    let perf = run_on(&mut PerformanceGovernor::new(), &trace, frames);
    let save = run_on(&mut PowersaveGovernor::new(), &trace, frames);
    let mut oracle_gov = OracleGovernor::from_trace(&trace, &table, 0.02);
    let oracle = run_on(&mut oracle_gov, &trace, frames);
    let mut rtm_gov =
        RtmGovernor::new(RtmConfig::paper(9).with_workload_bounds(bounds.0, bounds.1)).unwrap();
    let rtm = run_on(&mut rtm_gov, &trace, frames);

    // Race-to-idle burns the most energy; the oracle can only save
    // energy relative to it.
    assert!(oracle.total_energy() < perf.total_energy());
    assert!(rtm.total_energy() < perf.total_energy());
    // The oracle is the energy floor among deadline-meeting strategies.
    assert!(oracle.normalized_energy(&oracle) <= rtm.normalized_energy(&oracle));
    // Powersave misses essentially everything on this tight workload.
    assert!(save.miss_rate() > 0.9);
    assert_eq!(perf.deadline_misses(), 0);
    assert_eq!(oracle.deadline_misses(), 0);
}

#[test]
fn rtm_beats_ondemand_on_energy_while_performing_closer_to_deadline() {
    let frames = 1_200;
    let mut app = VideoDecoderModel::h264_football_15fps(21).with_frames(frames);
    let (trace, bounds) = precharacterize(&mut app);

    let ondemand = run_on(&mut OndemandGovernor::linux_default(), &trace, frames);
    let mut rtm_gov =
        RtmGovernor::new(RtmConfig::paper(21).with_workload_bounds(bounds.0, bounds.1)).unwrap();
    let rtm = run_on(&mut rtm_gov, &trace, frames);

    assert!(
        rtm.total_energy() < ondemand.total_energy(),
        "the paper's headline: RTM saves energy vs ondemand ({} vs {})",
        rtm.total_energy(),
        ondemand.total_energy()
    );
    assert!(
        rtm.normalized_performance() > ondemand.normalized_performance(),
        "RTM runs closer to the deadline (less over-performance)"
    );
}

#[test]
fn oracle_meets_deadlines_at_minimum_sufficient_opp() {
    let frames = 200;
    let mut app = VideoDecoderModel::mpeg4_svga_24fps(3).with_frames(frames);
    let (trace, _) = precharacterize(&mut app);
    let table = OppTable::odroid_xu3_a15();
    let mut oracle_gov = OracleGovernor::from_trace(&trace, &table, 0.02);
    let report = run_on(&mut oracle_gov, &trace, frames);
    assert_eq!(report.deadline_misses(), 0);

    // Any uniformly slower schedule must miss at least one frame: pin
    // one OPP below the oracle's busiest choice.
    let max_opp = oracle_gov.schedule().iter().copied().max().unwrap();
    assert!(max_opp > 0, "workload must exercise DVFS range");
    let mut pinned = UserspaceGovernor::pinned(max_opp - 1);
    let pinned_report = run_on(&mut pinned, &trace, frames);
    assert!(
        pinned_report.deadline_misses() > 0,
        "one OPP below the oracle's peak must miss"
    );
}

#[test]
fn overheads_lengthen_frames_and_are_accounted() {
    let frames = 100;
    let mut app = VideoDecoderModel::mpeg4_svga_24fps(5).with_frames(frames);
    let (trace, bounds) = precharacterize(&mut app);

    let mut rtm =
        RtmGovernor::new(RtmConfig::paper(5).with_workload_bounds(bounds.0, bounds.1)).unwrap();
    let outcome = run_experiment(
        &mut rtm,
        &mut trace.clone(),
        PlatformConfig::odroid_xu3_a15(),
        frames,
    );
    // The governor switched V-F at least once, so transition latency
    // must be visible in the totals.
    assert!(outcome.report.transitions() > 0);
    assert!(!outcome.report.transition_latency().is_zero());
    assert!(outcome.platform.vf().total_latency() > SimTime::ZERO);
}

#[test]
fn thermal_trajectory_reflects_governor_aggressiveness() {
    let frames = 400;
    let mut app = VideoDecoderModel::h264_football_15fps(13).with_frames(frames);
    let (trace, _) = precharacterize(&mut app);

    let hot = run_experiment(
        &mut PerformanceGovernor::new(),
        &mut trace.clone(),
        PlatformConfig::odroid_xu3_a15(),
        frames,
    );
    let cold = run_experiment(
        &mut PowersaveGovernor::new(),
        &mut trace.clone(),
        PlatformConfig::odroid_xu3_a15(),
        frames,
    );
    assert!(
        hot.platform.peak_temperature() > cold.platform.peak_temperature(),
        "racing at 2 GHz must run hotter than crawling at 200 MHz"
    );
    assert!(
        hot.platform.peak_temperature().as_celsius() < 95.0,
        "no thermal runaway"
    );
}

/// Energy conservation: a run's report sums its frames' energies, and
/// the platform counts the same energy on its own counter. Flat runs
/// and every cluster of a chip add the same numbers in the same order,
/// so they agree bit for bit; the chip report adds per-frame chip
/// totals while the chip's counter adds per-cluster totals, so the two
/// differ only by summation order.
#[test]
fn per_frame_energies_sum_to_the_platform_counter() {
    let same_bits = |report: &RunReport, what: &str| {
        assert_eq!(report.total_energy(), report.platform_energy(), "{what}");
    };
    let within_rounding = |report: &RunReport, what: &str| {
        let (frames, platform) = (
            report.total_energy().as_joules(),
            report.platform_energy().as_joules(),
        );
        assert!(
            (frames - platform).abs() <= 1e-12 * platform,
            "{what}: frames sum to {frames} J, platform counted {platform} J"
        );
    };

    // The paper's flat RTM on the A15 quad.
    let frames = 300;
    let mut app = VideoDecoderModel::h264_football_15fps(2017).with_frames(frames);
    let (_, bounds) = precharacterize(&mut app);
    let mut rtm =
        RtmGovernor::new(RtmConfig::paper(2017).with_workload_bounds(bounds.0, bounds.1)).unwrap();
    let flat = run_experiment(&mut rtm, &mut app, PlatformConfig::odroid_xu3_a15(), frames);
    same_bits(&flat.report, "flat RTM");
    assert_eq!(flat.report.platform_energy(), flat.platform.total_energy());

    // A 4-cluster mesh under the migrating chip-level RTM.
    let clusters = 4;
    let mut app = qgov::bench::hetero::mesh_app(clusters, 2017, frames);
    let (_, bounds) = precharacterize(&mut app);
    let mut rtm = ManyCoreRtm::paper(2017, clusters, bounds).unwrap();
    let mesh = run_manycore_experiment(
        &mut rtm,
        &mut app,
        Topology::homogeneous_mesh(clusters, PlatformConfig::odroid_xu3_a15()),
        frames,
        &vec![1.0 / clusters as f64; clusters],
        EpochOptions {
            cluster_reports: true,
            ..EpochOptions::default()
        },
    );
    assert_eq!(mesh.cluster_reports.len(), clusters);
    for (c, report) in mesh.cluster_reports.iter().enumerate() {
        same_bits(report, &format!("mesh-4 cluster {c}"));
    }
    within_rounding(&mesh.report, "mesh-4 chip");

    // A fault-storm-shaped run: the hardened chip-level RTM on two
    // clusters under the standard schedule, cluster 1 dropping mid-run.
    let clusters = 2;
    let mut app = fault_storm_app(11, frames);
    let (_, bounds) = precharacterize(&mut app);
    let mut rtm = ManyCoreRtm::paper(11, clusters, bounds)
        .unwrap()
        .with_agent_hardening(HardeningConfig::paper());
    let storm = run_manycore_experiment(
        &mut rtm,
        &mut app,
        Topology::homogeneous_mesh(clusters, PlatformConfig::odroid_xu3_a15()),
        frames,
        &[0.5, 0.5],
        EpochOptions {
            faults: Some(&standard_fault_schedule(frames)),
            monitors: None,
            cluster_reports: true,
        },
    );
    assert!(rtm.degraded_epochs() > 0, "the storm must hit the run");
    for (c, report) in storm.cluster_reports.iter().enumerate() {
        same_bits(report, &format!("storm cluster {c}"));
    }
    within_rounding(&storm.report, "storm chip");
}
