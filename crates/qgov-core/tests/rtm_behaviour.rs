//! Behavioural scenario tests for the RTM: adaptation to workload
//! changes, performance-requirement sensitivity, and telemetry
//! integrity.

use qgov_core::{ManyCoreRtm, MigrationConfig, RtmConfig, RtmGovernor, StateKind};
use qgov_governors::{
    EpochObservation, Governor, GovernorContext, ManyCoreGovernor, ManyCoreObservation,
};
use qgov_rl::RlError;
use qgov_sim::{ManyCorePlatform, Platform, PlatformConfig, Topology, WorkSlice};
use qgov_units::{Cycles, SimTime};
use qgov_workloads::{
    split_demand_into, Application, FrameDemand, SyntheticWorkload, WorkloadTrace,
};

/// Drives an RTM against a live platform; returns per-epoch (opp, met)
/// pairs.
fn drive(rtm: &mut RtmGovernor, app: &mut dyn Application, frames: u64) -> Vec<(usize, bool)> {
    let mut platform = Platform::new(PlatformConfig::odroid_xu3_a15()).unwrap();
    let ctx = GovernorContext::new(platform.opp_table().clone(), platform.cores(), app.period());
    let first = rtm.init(&ctx);
    platform.set_cluster_opp(first.resolve_cluster(platform.current_opp()));
    app.reset();

    let mut log = Vec::new();
    for epoch in 0..frames {
        let demand = app.next_frame();
        let work: Vec<WorkSlice> = (0..platform.cores())
            .map(|c| {
                demand.threads.get(c).map_or(WorkSlice::IDLE, |t| {
                    WorkSlice::new(t.cpu_cycles, t.mem_time)
                })
            })
            .collect();
        let frame = platform.run_frame(&work, app.period()).unwrap();
        log.push((frame.cluster_opp, frame.met_deadline()));
        let d = rtm.decide(&EpochObservation {
            frame: &frame,
            epoch,
        });
        platform.set_cluster_opp(d.resolve_cluster(platform.current_opp()));
        platform.add_overhead(rtm.processing_overhead());
    }
    log
}

#[test]
fn adapts_to_a_step_workload_change() {
    // Workload doubles at frame 150: the RTM must track upward and keep
    // meeting deadlines after re-adapting.
    let mut app = SyntheticWorkload::step(
        "step",
        Cycles::from_mcycles(80),
        2.0,
        150,
        SimTime::from_ms(40),
        400,
        4,
        3,
    );
    let mut rtm = RtmGovernor::new(RtmConfig::paper(5).with_workload_bounds(5e7, 2.5e8)).unwrap();
    let log = drive(&mut rtm, &mut app, 400);

    let mean_opp = |range: std::ops::Range<usize>| -> f64 {
        log[range.clone()]
            .iter()
            .map(|&(o, _)| o as f64)
            .sum::<f64>()
            / range.len() as f64
    };
    let before = mean_opp(100..150);
    let after = mean_opp(300..400);
    assert!(
        after > before + 1.0,
        "post-step OPP ({after:.1}) must exceed pre-step ({before:.1})"
    );
    let late_misses = log[300..400].iter().filter(|&&(_, met)| !met).count();
    assert!(
        late_misses <= 10,
        "after re-adaptation deadlines should mostly hold ({late_misses} misses)"
    );
}

#[test]
fn tighter_deadlines_demand_higher_opps() {
    let run_with_period = |period_ms: u64| -> f64 {
        let mut app = SyntheticWorkload::constant(
            "fixed",
            Cycles::from_mcycles(120),
            SimTime::from_ms(period_ms),
            300,
            4,
            7,
        );
        let mut rtm =
            RtmGovernor::new(RtmConfig::paper(7).with_workload_bounds(1e8, 1.4e8)).unwrap();
        let log = drive(&mut rtm, &mut app, 300);
        log[200..].iter().map(|&(o, _)| o as f64).sum::<f64>() / 100.0
    };
    let relaxed = run_with_period(80);
    let tight = run_with_period(25);
    assert!(
        tight > relaxed + 2.0,
        "a 25 ms deadline needs higher OPPs than an 80 ms one ({tight:.1} vs {relaxed:.1})"
    );
}

#[test]
fn history_is_complete_and_internally_consistent() {
    let frames = 200u64;
    let mut app = SyntheticWorkload::constant(
        "c",
        Cycles::from_mcycles(100),
        SimTime::from_ms(40),
        frames,
        4,
        1,
    )
    .with_noise(0.1);
    let mut rtm = RtmGovernor::new(RtmConfig::paper(1).with_workload_bounds(5e7, 1.5e8)).unwrap();
    drive(&mut rtm, &mut app, frames);

    let history = rtm.history();
    assert_eq!(history.len(), frames as usize);
    for (i, r) in history.iter().enumerate() {
        assert_eq!(r.epoch, i as u64);
        assert!(r.action < 19);
        assert!(r.state < 25);
        assert!((0.0..=1.0).contains(&r.epsilon));
        assert!(r.actual_total_cycles > 0.0);
        assert!(r.avg_slack.is_finite());
    }
    // Epsilon is non-increasing; explorations are non-decreasing.
    for pair in history.windows(2) {
        assert!(pair[1].epsilon <= pair[0].epsilon + 1e-12);
        assert!(pair[1].explorations >= pair[0].explorations);
    }
}

#[test]
fn both_state_formulations_learn_the_same_steady_workload() {
    for kind in [StateKind::TotalWorkload, StateKind::PerCoreShare] {
        let mut app = SyntheticWorkload::constant(
            "c",
            Cycles::from_mcycles(120),
            SimTime::from_ms(40),
            300,
            4,
            9,
        );
        let mut config = RtmConfig::paper(9).with_workload_bounds(1e8, 1.4e8);
        config.state_kind = kind;
        let mut rtm = RtmGovernor::new(config).unwrap();
        let log = drive(&mut rtm, &mut app, 300);
        let misses = log[200..].iter().filter(|&&(_, met)| !met).count();
        assert!(
            misses <= 15,
            "{kind:?}: converged policy should hold deadlines ({misses} misses)"
        );
    }
}

#[test]
fn rtm_without_offline_bounds_is_a_typed_error() {
    // Every RTM starts from offline pre-characterisation (Section
    // II-A): a configuration without workload bounds is refused at
    // construction, flat and chip-level alike.
    let expect_bounds_error = |err: RlError| {
        assert!(
            matches!(
                err,
                RlError::NotPositive {
                    name: "workload_bounds width",
                    ..
                }
            ),
            "{err}"
        );
    };
    expect_bounds_error(RtmGovernor::new(RtmConfig::paper(2)).unwrap_err());
    let configs = vec![
        RtmConfig::paper(2).with_workload_bounds(1e8, 1.4e8),
        RtmConfig::paper(3),
    ];
    expect_bounds_error(ManyCoreRtm::new(configs, MigrationConfig::greedy()).unwrap_err());
}

#[test]
fn second_init_fully_resets_learning() {
    let mut app = SyntheticWorkload::constant(
        "c",
        Cycles::from_mcycles(100),
        SimTime::from_ms(40),
        150,
        4,
        3,
    );
    let mut rtm = RtmGovernor::new(RtmConfig::paper(3).with_workload_bounds(5e7, 1.5e8)).unwrap();
    let first = drive(&mut rtm, &mut app, 150);
    let explorations_after_first = rtm.exploration_count();
    assert!(explorations_after_first > 0);

    // Re-init (new application arrives): everything restarts.
    let second = drive(&mut rtm, &mut app, 150);
    assert_eq!(rtm.history().len(), 150, "history restarted");
    assert_eq!(first, second, "identical app + fresh init = identical run");
}

/// Drives a chip-level RTM on the big.LITTLE chip from even shares;
/// returns the bits of every frame's chip energy and frame time, then
/// of the final shares.
fn drive_chip(rtm: &mut ManyCoreRtm, app: &mut dyn Application, frames: u64) -> Vec<u64> {
    let mut chip = ManyCorePlatform::new(Topology::odroid_xu3_biglittle()).unwrap();
    let clusters = chip.cluster_count();
    let cores: Vec<usize> = (0..clusters).map(|c| chip.cores(c)).collect();
    let ctxs: Vec<GovernorContext> = (0..clusters)
        .map(|c| GovernorContext::new(chip.opp_table(c).clone(), cores[c], app.period()))
        .collect();
    let mut decisions = Vec::new();
    rtm.init(&ctxs, &mut decisions);
    app.reset();

    let mut shares = vec![1.0 / clusters as f64; clusters];
    let mut split = vec![FrameDemand::new(Vec::new()); clusters];
    let mut log = Vec::new();
    for epoch in 0..frames {
        for (c, d) in decisions.iter().enumerate() {
            chip.set_cluster_opp(c, d.resolve_cluster(chip.current_opp(c)));
        }
        split_demand_into(&app.next_frame(), &shares, &cores, &mut split);
        let work: Vec<Vec<WorkSlice>> = split
            .iter()
            .zip(&cores)
            .map(|(demand, &n)| {
                (0..n)
                    .map(|core| {
                        demand.threads.get(core).map_or(WorkSlice::IDLE, |t| {
                            WorkSlice::new(t.cpu_cycles, t.mem_time)
                        })
                    })
                    .collect()
            })
            .collect();
        let frame = chip.run_frame(&work, app.period()).unwrap();
        log.push(frame.energy.as_joules().to_bits());
        log.push(frame.frame_time.as_ns());
        rtm.decide_into(
            &ManyCoreObservation {
                frames: &frame.clusters,
                epoch,
            },
            &mut decisions,
            &mut shares,
        );
        for c in 0..clusters {
            chip.add_overhead(c, rtm.processing_overhead(c));
        }
    }
    log.extend(shares.iter().map(|s| s.to_bits()));
    log
}

#[test]
fn second_init_fully_resets_the_chip_coordinator() {
    let mut app = SyntheticWorkload::constant(
        "c",
        Cycles::from_mcycles(300),
        SimTime::from_ms(40),
        300,
        4,
        2017,
    )
    .with_noise(0.1);
    let mut rtm = ManyCoreRtm::paper(2017, 2, (2.4e8, 3.6e8)).unwrap();
    let first = drive_chip(&mut rtm, &mut app, 300);
    let migrations = rtm.migrations();
    assert!(migrations > 0, "the run must migrate work");

    // Re-init: the agents, the dead flags and the migration policy all
    // restart.
    let second = drive_chip(&mut rtm, &mut app, 300);
    assert_eq!(first, second, "identical app + fresh init = identical run");
    assert_eq!(rtm.migrations(), migrations, "the migration count restarts");
}

/// Two 2-thread applications sharing the 4-core cluster, each frame
/// their threads side by side: a steady filter pipeline on cores 0–1
/// and a bursty tracker on cores 2–3.
fn concurrent_pair(seed: u64, frames: u64) -> WorkloadTrace {
    let period = SimTime::from_ms(40);
    let mut steady =
        SyntheticWorkload::constant("filter", Cycles::from_mcycles(70), period, frames, 2, seed)
            .with_noise(0.03);
    let mut bursty = SyntheticWorkload::square(
        "tracker",
        Cycles::from_mcycles(40),
        2.2,
        25,
        period,
        frames,
        2,
        seed + 1,
    )
    .with_noise(0.08);
    let demands = (0..frames)
        .map(|_| {
            let mut threads = steady.next_frame().threads;
            threads.extend(bursty.next_frame().threads);
            FrameDemand::new(threads)
        })
        .collect();
    WorkloadTrace::from_frames("filter+tracker", period, demands)
}

#[test]
fn per_core_share_state_distinguishes_asymmetric_members() {
    // With clearly asymmetric members, the Eq. 7 normalised-share state
    // must visit more than one workload level.
    let frames = 300;
    let mut app = concurrent_pair(11, frames);
    let totals: Vec<f64> = (0..app.len())
        .map(|i| app.total_cycles(i).count() as f64)
        .collect();
    let min = totals.iter().copied().fold(f64::INFINITY, f64::min);
    let max = totals.iter().copied().fold(0.0, f64::max);
    let mut config = RtmConfig::paper(11).with_workload_bounds(min, max);
    config.state_kind = StateKind::PerCoreShare;
    let mut rtm = RtmGovernor::new(config).unwrap();
    drive(&mut rtm, &mut app, frames);
    let mapper = rtm.state_mapper().expect("mapper built");
    let workload_levels: std::collections::BTreeSet<usize> = rtm
        .history()
        .iter()
        .map(|r| r.state / mapper.levels())
        .collect();
    assert!(
        workload_levels.len() > 1,
        "asymmetric members must exercise several share levels: {workload_levels:?}"
    );
}
