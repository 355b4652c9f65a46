//! Workspace smoke test: every governor the `qgov::prelude` exports must
//! instantiate and survive a short run, so re-export drift (a renamed
//! type, a changed constructor, a dropped trait impl) breaks CI here
//! instead of breaking users.

use qgov::prelude::*;

/// Ten decision epochs of the paper's primary workload.
const EPOCHS: u64 = 10;

fn smoke(gov: &mut dyn Governor) {
    let mut app = VideoDecoderModel::h264_football_15fps(42).with_frames(EPOCHS);
    let outcome = run_experiment(gov, &mut app, PlatformConfig::odroid_xu3_a15(), EPOCHS);
    assert_eq!(outcome.report.frames(), EPOCHS, "{}", gov.name());
    let joules = outcome.report.total_energy().as_joules();
    assert!(
        joules.is_finite() && joules > 0.0,
        "{}: bad energy {joules}",
        gov.name()
    );
    let mean_opp = outcome.report.mean_opp();
    assert!(
        (0.0..=18.0).contains(&mean_opp),
        "{}: OPP out of table ({mean_opp})",
        gov.name()
    );
}

#[test]
fn every_prelude_governor_runs_ten_epochs() {
    let mut app = VideoDecoderModel::h264_football_15fps(42).with_frames(EPOCHS);
    let (trace, bounds) = precharacterize(&mut app);

    let mut governors: Vec<Box<dyn Governor>> = vec![
        Box::new(OndemandGovernor::linux_default()),
        Box::new(ConservativeGovernor::linux_default()),
        Box::new(PerformanceGovernor::new()),
        Box::new(PowersaveGovernor::new()),
        Box::new(UserspaceGovernor::pinned(9)),
        Box::new(GeQiuGovernor::new(42)),
        Box::new(OracleGovernor::from_trace(
            &trace,
            &OppTable::odroid_xu3_a15(),
            0.02,
        )),
        Box::new(
            RtmGovernor::new(RtmConfig::paper(42).with_workload_bounds(bounds.0, bounds.1))
                .expect("paper config is valid"),
        ),
    ];
    for gov in &mut governors {
        smoke(gov.as_mut());
    }
}

/// The facade's prelude must also expose the experiment functions and
/// metric types by their stable names (a compile-time check, but run one
/// for good measure).
#[test]
fn prelude_experiment_surface_is_reachable() {
    let result = Table1::run(&RunPlan::new(vec![1], 40)).remove(0);
    assert_eq!(result.rows.len(), 4);
    let _: &ComparisonTable = &result.table;
}
