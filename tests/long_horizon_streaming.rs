//! The long-horizon streaming contract, end to end: an experiment
//! driven by a [`ShardedTrace`] produces **bit-identical** reports to
//! the same experiment driven by the in-memory [`WorkloadTrace`] of
//! the same recording, while never materialising the full frame
//! vector.

use qgov::prelude::*;
use qgov::workloads::shard::ScratchDir;

/// A unique scratch directory per test, removed on drop.
fn test_dir(tag: &str) -> ScratchDir {
    ScratchDir::unique(&format!("qgov-lh-it-{tag}"))
}

const FRAMES: u64 = 2_000;
const SHARD: usize = 128;

fn recorded_traces(seed: u64, tag: &str) -> (ScratchDir, ShardedTrace, WorkloadTrace) {
    let dir = test_dir(tag);
    let mut app = VideoDecoderModel::h264_football_15fps(seed).with_frames(FRAMES);
    let streamed = ShardedTrace::record(&mut app, dir.path(), FRAMES, SHARD).unwrap();
    let whole = WorkloadTrace::record(&mut app);
    (dir, streamed, whole)
}

/// The tentpole contract: for every governor class, the full
/// experiment loop over a streamed trace reproduces the in-memory run
/// bit-for-bit (identical `RunReport`s, identical energy bit
/// patterns).
#[test]
fn streamed_experiment_is_bit_identical_to_in_memory() {
    let (_dir, streamed, whole) = recorded_traces(11, "bitident");
    let bounds = streamed.workload_bounds();

    let run = |app: &mut dyn Application, gov: &mut dyn Governor| -> RunReport {
        run_experiment(gov, app, PlatformConfig::odroid_xu3_a15(), FRAMES).report
    };

    // A heuristic governor and the learning governor: both paths must
    // agree bit-for-bit.
    let mut on_streamed = streamed.clone();
    let mut on_whole = whole.clone();
    let a = run(&mut on_streamed, &mut OndemandGovernor::linux_default());
    let b = run(&mut on_whole, &mut OndemandGovernor::linux_default());
    assert_eq!(a, b, "ondemand diverged between streamed and in-memory");
    assert_eq!(
        a.total_energy().as_joules().to_bits(),
        b.total_energy().as_joules().to_bits()
    );

    let mut rtm_streamed =
        RtmGovernor::new(RtmConfig::paper(11).with_workload_bounds(bounds.0, bounds.1)).unwrap();
    let mut rtm_whole =
        RtmGovernor::new(RtmConfig::paper(11).with_workload_bounds(bounds.0, bounds.1)).unwrap();
    let mut on_streamed = streamed.clone();
    let mut on_whole = whole;
    let a = run(&mut on_streamed, &mut rtm_streamed);
    let b = run(&mut on_whole, &mut rtm_whole);
    assert_eq!(a, b, "RTM diverged between streamed and in-memory");
    assert_eq!(
        a.total_energy().as_joules().to_bits(),
        b.total_energy().as_joules().to_bits()
    );
}

/// The streamed pre-characterisation bounds equal what
/// `precharacterize` derives from the materialised trace — the
/// learning governors see identical configuration either way — for a
/// varying workload and for a constant one, whose range both widen.
#[test]
fn streamed_bounds_match_precharacterize() {
    let (_dir, streamed, _whole) = recorded_traces(13, "bounds");
    let mut app = VideoDecoderModel::h264_football_15fps(13).with_frames(FRAMES);
    let (_trace, (min, max)) = precharacterize(&mut app);
    let (smin, smax) = streamed.workload_bounds();
    assert_eq!(smin.to_bits(), min.to_bits());
    assert_eq!(smax.to_bits(), max.to_bits());

    let dir = test_dir("bounds-constant");
    let mut constant = SyntheticWorkload::constant(
        "constant",
        Cycles::from_mcycles(160),
        SimTime::from_ms(40),
        300,
        4,
        5,
    );
    let streamed = ShardedTrace::record(&mut constant, dir.path(), 300, SHARD).unwrap();
    let (_trace, (min, max)) = precharacterize(&mut constant);
    let (smin, smax) = streamed.workload_bounds();
    assert_eq!(min.to_bits(), (1.6e8 * 0.9f64).to_bits(), "widened");
    assert_eq!(smin.to_bits(), min.to_bits());
    assert_eq!(smax.to_bits(), max.to_bits());
}

/// Memory stays bounded through the whole experiment loop: the replay
/// never holds more than one shard of frames, even though the horizon
/// is orders of magnitude longer.
#[test]
fn experiment_never_materialises_the_frame_vector() {
    let (_dir, mut streamed, _whole) = recorded_traces(17, "bounded");
    let mut gov = OndemandGovernor::linux_default();
    let outcome = run_experiment(
        &mut gov,
        &mut streamed,
        PlatformConfig::odroid_xu3_a15(),
        FRAMES,
    );
    assert_eq!(outcome.report.frames(), FRAMES);
    assert!(
        streamed.resident_frames() <= SHARD,
        "replay held {} frames resident (shard size {SHARD})",
        streamed.resident_frames()
    );
    // One sequential pass loads each shard exactly once. Debug builds
    // re-advance the cursor through a full second pass (the harness's
    // post-run state-bleed probe), so allow up to two passes plus the
    // probe's shard-0 reloads; the point is that loads scale with
    // *passes over shards*, never with frames.
    let shards = streamed.shard_loads();
    let bound = 2 * streamed.shard_count() as u64 + 2;
    assert!(
        shards >= streamed.shard_count() as u64 && shards <= bound,
        "expected between {} and {bound} shard loads, saw {shards}",
        streamed.shard_count()
    );
}

/// The experiment-level wrapper: rows are complete, the windowed folds
/// tile the horizon, and the run is deterministic in the seed.
#[test]
fn long_horizon_experiment_is_deterministic() {
    let plan = RunPlan::new(vec![23], 600);
    let a = LongHorizon::run(&RunPlan {
        runner: RunnerConfig::serial(),
        ..plan.clone()
    })
    .remove(0);
    let b = LongHorizon::run(&RunPlan {
        runner: RunnerConfig::with_workers(2),
        ..plan
    })
    .remove(0);
    assert_eq!(a.rows, b.rows, "serial and parallel must agree");
    assert_eq!(a.rows.len(), 3);
    for row in &a.rows {
        let tiled: u64 = row.windowed_miss.iter().map(|w| w.len).sum();
        assert_eq!(tiled, 600);
    }
}

/// The monitored wrapper over the same streamed horizon: the standard
/// temporal property pack rides every governor's run with zero
/// violations, and the monitors never perturb the metrics — every
/// non-monitor field equals the unmonitored run's.
#[test]
fn monitored_long_horizon_is_clean_and_does_not_perturb_the_run() {
    let plain = RunPlan {
        runner: RunnerConfig::serial(),
        ..RunPlan::new(vec![23], 600)
    };
    let monitored = LongHorizon::run(&RunPlan {
        pack: Some(PackConfig::paper()),
        ..plain.clone()
    })
    .remove(0);
    let plain = LongHorizon::run(&plain).remove(0);
    assert_eq!(monitored.rows.len(), plain.rows.len());
    for (m, p) in monitored.rows.iter().zip(&plain.rows) {
        let report = m.monitor.as_ref().expect("monitored rows carry verdicts");
        assert!(report.is_clean(), "{}: {}", m.method, report.summary());
        assert_eq!(report.epochs(), 600);
        assert!(p.monitor.is_none(), "unmonitored rows stay bare");
        // Strip the verdicts: everything else is bit-identical.
        let mut stripped = m.clone();
        stripped.monitor = None;
        assert_eq!(&stripped, p, "{}: monitoring perturbed the run", m.method);
    }
}
