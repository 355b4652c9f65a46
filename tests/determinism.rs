//! Whole-stack determinism: every experiment is a pure function of its
//! seeds, so tables and figures regenerate bit-identically.

use qgov::prelude::*;

fn fingerprint(seed: u64) -> Vec<u64> {
    let frames = 300;
    let mut app = VideoDecoderModel::h264_football_15fps(seed).with_frames(frames);
    let (trace, bounds) = precharacterize(&mut app);
    let mut rtm =
        RtmGovernor::new(RtmConfig::paper(seed).with_workload_bounds(bounds.0, bounds.1)).unwrap();
    let outcome = run_experiment(
        &mut rtm,
        &mut trace.clone(),
        PlatformConfig::odroid_xu3_a15(),
        frames,
    );
    let mut fp = vec![
        outcome.report.total_energy().as_joules().to_bits(),
        outcome.report.platform_energy().as_joules().to_bits(),
        outcome.report.deadline_misses(),
        outcome.report.transitions(),
        outcome.platform.now().as_ns(),
    ];
    fp.extend(rtm.history().iter().map(|r| r.action as u64));
    fp
}

#[test]
fn identical_seeds_give_bit_identical_runs() {
    assert_eq!(fingerprint(1), fingerprint(1));
    assert_eq!(fingerprint(77), fingerprint(77));
}

#[test]
fn different_seeds_give_different_runs() {
    assert_ne!(fingerprint(1), fingerprint(2));
}

#[test]
fn experiment_functions_are_deterministic() {
    let plan = RunPlan::new(vec![5], 250);
    assert_eq!(Table1::run(&plan), Table1::run(&plan));

    let plan = RunPlan::new(vec![5], 120);
    assert_eq!(Fig3::run(&plan)[0].csv, Fig3::run(&plan)[0].csv);
}

#[test]
fn trace_recording_is_stable_across_replays() {
    let mut app = VideoDecoderModel::mpeg4_svga_24fps(9).with_frames(60);
    let t1 = WorkloadTrace::record(&mut app);
    let t2 = WorkloadTrace::record(&mut app);
    assert_eq!(t1, t2, "recording twice from the same app is identical");
}
