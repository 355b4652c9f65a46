//! The temporal-monitor acceptance suite: the standard property pack
//! holds — with the *expected* verdicts, not merely without
//! violations — across multi-seed sweeps of every harnessed
//! experiment, and the monitors' edge semantics survive the trip
//! through the real harness (violation on the final epoch, never-fired
//! `after`).

use qgov::bench::hetero::biglittle_app;
use qgov::prelude::*;

/// The seeds of the acceptance sweep (n = 5), serially, under `pack`.
fn sweep(frames: u64, pack: PackConfig) -> RunPlan {
    RunPlan {
        runner: RunnerConfig::serial(),
        pack: Some(pack),
        ..RunPlan::new((2017..2022).collect(), frames)
    }
}

fn verdict<'a>(m: &'a MonitorReport, name: &str) -> &'a Verdict {
    &m.verdicts()
        .iter()
        .find(|v| v.name == name)
        .unwrap_or_else(|| panic!("missing property {name}"))
        .verdict
}

/// The standard pack is clean over the full n = 5 seed sweep of the
/// long-horizon experiment, and the learning governor's properties
/// hold *non-vacuously*: the RTM's ε really decayed monotonically to
/// its floor and the post-convergence windowed miss rate stayed
/// bounded.
#[test]
fn long_horizon_sweep_is_clean_under_the_standard_pack() {
    let plan = sweep(400, PackConfig::paper());
    for (seed, result) in plan.seeds.iter().zip(LongHorizon::run(&plan)) {
        assert_eq!(result.rows.len(), 3);
        for row in &result.rows {
            let m = row
                .monitor
                .as_ref()
                .expect("monitored run attaches verdicts");
            assert!(m.is_clean(), "seed {seed} {}: {}", row.method, m.summary());
            assert_eq!(m.epochs(), 400);
            assert_eq!(*verdict(m, "thermal-cap"), Verdict::Holds);
        }
        // The learning governor's ε/convergence properties are real,
        // not vacuous.
        let rtm = &result.rows[2];
        let m = rtm.monitor.as_ref().unwrap();
        assert_eq!(*verdict(m, "epsilon-monotone"), Verdict::Holds);
        assert_eq!(*verdict(m, "epsilon-reaches-floor"), Verdict::Holds);
        assert_eq!(*verdict(m, "post-convergence-miss"), Verdict::Holds);
        // The heuristics expose no ε, so their ε properties gate
        // themselves off as vacuous rather than failing spuriously.
        let ondemand = result.rows[0].monitor.as_ref().unwrap();
        assert_eq!(*verdict(ondemand, "epsilon-monotone"), Verdict::Vacuous);
        // Only the conservative governor carries the one-OPP-step
        // contract, and it holds.
        let conservative = result.rows[1].monitor.as_ref().unwrap();
        assert_eq!(*verdict(conservative, "opp-step-bound"), Verdict::Holds);
        assert!(ondemand
            .verdicts()
            .iter()
            .all(|v| v.name != "opp-step-bound"));
    }
}

/// The standard pack is clean over the n = 5 big.LITTLE placement
/// sweep — every placement, including the chip-level learned-migration
/// coordinator whose ε is the max over its per-cluster agents.
#[test]
fn biglittle_sweep_is_clean_under_the_standard_pack() {
    let plan = sweep(240, PackConfig::paper());
    for (seed, result) in plan.seeds.iter().zip(BigLittle::run(&plan)) {
        assert_eq!(result.rows.len(), 3);
        for row in &result.rows {
            let m = row
                .monitor
                .as_ref()
                .expect("monitored run attaches verdicts");
            assert!(
                m.is_clean(),
                "seed {seed} {}: {}",
                row.placement,
                m.summary()
            );
            assert_eq!(*verdict(m, "thermal-cap"), Verdict::Holds);
            // Every placement embeds at least one Q-agent (static
            // placements run the RTM on their active cluster), so the
            // ε decay contract binds everywhere.
            assert_eq!(*verdict(m, "epsilon-monotone"), Verdict::Holds);
            assert_eq!(*verdict(m, "epsilon-reaches-floor"), Verdict::Holds);
        }
    }
}

/// The standard pack is clean over the n = 5 mesh weak-scaling sweep:
/// one chip-level monitor per mesh size, ε aggregated over 4/8/16
/// per-cluster agents.
#[test]
fn mesh_scaling_sweep_is_clean_under_the_standard_pack() {
    let plan = sweep(120, PackConfig::paper());
    for (seed, result) in plan.seeds.iter().zip(MeshScaling::run(&plan)) {
        assert_eq!(result.rows.len(), 3);
        for row in &result.rows {
            let m = row
                .monitor
                .as_ref()
                .expect("monitored run attaches verdicts");
            assert!(
                m.is_clean(),
                "seed {seed} mesh-{}: {}",
                row.clusters,
                m.summary()
            );
            assert_eq!(m.epochs(), 120);
            assert_eq!(*verdict(m, "epsilon-reaches-floor"), Verdict::Holds);
        }
    }
}

/// A horizon too short for ε to decay to its floor: the
/// `eventually`-style floor property **violates on the final epoch**
/// (end-of-stream obligation), while [`PackConfig::short_run`] drops
/// that property so short smoke runs stay clean — and the
/// `after(convergence, ...)` miss property is vacuous because
/// convergence never happened.
#[test]
fn short_horizons_violate_the_floor_and_leave_convergence_vacuous() {
    let frames = 30u64; // far below the ~92-epoch ε decay horizon
    let run = |pack| {
        LongHorizon::run(&RunPlan {
            seeds: vec![3],
            ..sweep(frames, pack)
        })
        .remove(0)
    };
    let strict = run(PackConfig::paper());
    let rtm = strict.rows[2].monitor.as_ref().unwrap();
    assert_eq!(
        *verdict(rtm, "epsilon-reaches-floor"),
        Verdict::Violated { epoch: frames - 1 },
        "an unmet eventually must violate on the last observed epoch"
    );
    assert_eq!(
        *verdict(rtm, "post-convergence-miss"),
        Verdict::Vacuous,
        "convergence never occurred, so the after() gate never fired"
    );
    assert_eq!(rtm.violation_count(), 1);

    let lenient = run(PackConfig::short_run());
    let rtm = lenient.rows[2].monitor.as_ref().unwrap();
    assert!(rtm.is_clean(), "{}", rtm.summary());
    assert!(rtm
        .verdicts()
        .iter()
        .all(|v| v.name != "epsilon-reaches-floor"));
}

/// Custom properties attach alongside (or instead of) the standard
/// pack: a vacuous `after` (its trigger never fires) and a
/// trivially-holding `always`, fed by the real harness loop.
#[test]
fn custom_property_sets_ride_the_harness() {
    let mut app = VideoDecoderModel::h264_football_15fps(5).with_frames(60);
    let (_, bounds) = precharacterize(&mut app);
    let mut gov =
        RtmGovernor::new(RtmConfig::paper(5).with_workload_bounds(bounds.0, bounds.1)).unwrap();
    let mut set = PropertySet::new()
        .with(
            "after-never-triggered",
            Property::after(
                |s: &MonitorSample| s.epoch > 60,
                Property::always(|s: &MonitorSample| s.met_deadline),
            ),
        )
        .with(
            "energy-is-positive",
            Property::always(|s: &MonitorSample| s.energy_j >= 0.0),
        );
    let outcome = run_experiment_monitored(
        &mut gov,
        &mut app,
        PlatformConfig::odroid_xu3_a15(),
        60,
        &mut set,
    );
    let m = outcome.report.monitor_report().expect("verdicts attached");
    assert_eq!(
        *verdict(m, "after-never-triggered"),
        Verdict::Vacuous,
        "an after whose trigger never fires holds only vacuously"
    );
    assert_eq!(*verdict(m, "energy-is-positive"), Verdict::Holds);
    assert_eq!(m.epochs(), 60);
}

/// Monitoring is a pure observation: the monitored run's report equals
/// the unmonitored run's except for the attached verdicts.
#[test]
fn monitored_manycore_run_is_bit_identical_modulo_verdicts() {
    let topology = Topology::odroid_xu3_biglittle();
    let mut app = biglittle_app(21, 120);
    let (trace, bounds) = precharacterize(&mut app);

    let mut plain_gov = ManyCoreRtm::paper(21, 2, bounds).unwrap();
    let mut replay = trace.clone();
    let plain = run_manycore_experiment(
        &mut plain_gov,
        &mut replay,
        topology.clone(),
        120,
        &[0.5, 0.5],
    );

    let mut monitored_gov = ManyCoreRtm::paper(21, 2, bounds).unwrap();
    let mut replay = trace;
    let mut pack = standard_pack("rtm-migrate", &PackConfig::paper());
    let monitored = run_manycore_experiment_monitored(
        &mut monitored_gov,
        &mut replay,
        topology,
        120,
        &[0.5, 0.5],
        &mut pack,
    );

    assert!(monitored.report.monitor_report().is_some());
    assert!(plain.report.monitor_report().is_none());
    assert_eq!(
        monitored.report.clone().without_monitor_report(),
        plain.report,
        "monitoring must not perturb the run"
    );
    assert_eq!(monitored.shares, plain.shares);
    assert_eq!(monitored.cluster_reports, plain.cluster_reports);
}
