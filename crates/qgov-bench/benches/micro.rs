//! Criterion micro-benchmarks of the learning-overhead components the
//! paper decomposes in Section III-D: sensor sampling, processing
//! (prediction, state mapping, Bellman update, action selection) and a
//! full simulated decision epoch; plus the trace CSV codec that feeds
//! long-horizon replay.
//!
//! Run with `cargo bench -p qgov-bench --bench micro`. `QGOV_SEEDS`
//! sets the number of measurement passes: timings have no RNG seed to
//! sweep, so the seed count maps to timed repetitions and the output
//! reports `mean ± σ ns/iter` across them — the same spread-aware
//! surface the experiment sweeps expose.

use criterion::Criterion;
use qgov_bench::plan::RunPlan;
use qgov_rl::{AgentConfig, EwmaPredictor, QTable, UniformDiscretizer};
use qgov_sim::{FrameResult, Platform, PlatformConfig, SensorConfig, WorkSlice};
use qgov_units::{Cycles, SimTime};
use qgov_workloads::{VideoDecoderModel, WorkloadTrace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_q_update(c: &mut Criterion) {
    c.bench_function("qtable_bellman_update_25x19", |b| {
        let mut q = QTable::new(25, 19).unwrap();
        let mut i = 0u64;
        b.iter(|| {
            let s = (i % 25) as usize;
            let a = (i % 19) as usize;
            q.update(s, a, 0.5, (s + 1) % 25, 0.3, 0.5);
            i += 1;
            black_box(q.value(s, a))
        });
    });
}

fn bench_greedy_scan(c: &mut Criterion) {
    c.bench_function("qtable_greedy_scan_19_actions", |b| {
        let mut q = QTable::new(25, 19).unwrap();
        for a in 0..19 {
            q.update(3, a, a as f64 * 0.1, 3, 1.0, 0.0);
        }
        b.iter(|| black_box(q.greedy_action(black_box(3))));
    });
}

fn bench_row_best(c: &mut Criterion) {
    // The fused (argmax, max) kernel one decision epoch calls where the
    // split path needed a greedy scan AND a max fold.
    c.bench_function("qtable_row_best_19_actions", |b| {
        let mut q = QTable::new(25, 19).unwrap();
        for a in 0..19 {
            q.update(3, a, a as f64 * 0.1, 3, 1.0, 0.0);
        }
        b.iter(|| black_box(q.row_best(black_box(3))));
    });
}

fn bench_update_unchecked(c: &mut Criterion) {
    // The Bellman fast path: construction-validated hyper-parameters,
    // debug-only asserts, fused future-term scan.
    c.bench_function("qtable_bellman_update_unchecked", |b| {
        let mut q = QTable::new(25, 19).unwrap();
        let mut i = 0u64;
        b.iter(|| {
            let s = (i % 25) as usize;
            let a = (i % 19) as usize;
            q.update_unchecked(s, a, 0.5, (s + 1) % 25, 0.3, 0.5);
            i += 1;
            black_box(q.value(s, a))
        });
    });
}

fn bench_epd_selection(c: &mut Criterion) {
    c.bench_function("epd_action_selection_19_actions", |b| {
        let epd = AgentConfig::default().exploration;
        let freqs: Vec<f64> = (2..21).map(|i| i as f64 / 10.0).collect();
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| black_box(epd.select(&freqs, black_box(0.2), &mut rng)));
    });
}

fn bench_ewma(c: &mut Criterion) {
    c.bench_function("ewma_observe_predict", |b| {
        let mut p = EwmaPredictor::paper();
        let mut x = 1.0e8;
        b.iter(|| {
            x = x * 0.999 + 1.0e5;
            p.observe(black_box(x));
            black_box(p.predict())
        });
    });
}

fn bench_discretize(c: &mut Criterion) {
    c.bench_function("uniform_discretizer_level_of", |b| {
        let d = UniformDiscretizer::new(0.0, 1e9, 5).unwrap();
        let mut x = 0.0f64;
        b.iter(|| {
            x += 1.3e7;
            if x > 1e9 {
                x = 0.0;
            }
            black_box(d.level_of(black_box(x)))
        });
    });
}

fn bench_platform_frame(c: &mut Criterion) {
    // One frame per iteration through the in-place kernel every harness
    // epoch calls, on a platform that stays warm across iterations.
    c.bench_function("platform_run_frame_4_cores", |b| {
        let mut p = Platform::new(PlatformConfig {
            sensor: SensorConfig::ideal(),
            ..PlatformConfig::odroid_xu3_a15()
        })
        .unwrap();
        p.set_cluster_opp(10);
        let work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(20)); 4];
        let mut frame = FrameResult::empty();
        b.iter(|| {
            p.run_frame_into(&work, SimTime::from_ms(40), &mut frame)
                .unwrap();
            black_box(frame.energy)
        });
    });
}

fn bench_full_decision_epoch(c: &mut Criterion) {
    use qgov_core::{RtmConfig, RtmGovernor};
    use qgov_governors::{EpochObservation, Governor, GovernorContext};

    c.bench_function("rtm_full_decision_epoch", |b| {
        let mut rtm = RtmGovernor::new(RtmConfig::paper(1).with_workload_bounds(1e7, 1e9)).unwrap();
        let mut platform = Platform::new(PlatformConfig {
            sensor: SensorConfig::ideal(),
            ..PlatformConfig::odroid_xu3_a15()
        })
        .unwrap();
        let ctx = GovernorContext::new(
            platform.opp_table().clone(),
            platform.cores(),
            SimTime::from_ms(40),
        );
        rtm.init(&ctx);
        let work = vec![WorkSlice::cpu_only(Cycles::from_mcycles(20)); 4];
        let frame = platform.run_frame(&work, SimTime::from_ms(40)).unwrap();
        let mut epoch = 0u64;
        b.iter(|| {
            let d = rtm.decide(&EpochObservation {
                frame: black_box(&frame),
                epoch,
            });
            epoch += 1;
            black_box(d)
        });
    });
}

fn bench_harness_throughput(c: &mut Criterion) {
    use qgov_bench::harness::run_experiment;
    use qgov_core::{HistoryMode, RtmConfig, RtmGovernor};

    // Whole-harness throughput: one 256-frame RTM experiment per
    // iteration over the scratch-buffer loop. Divide the reported
    // ns/iter by 256 for ns/frame, or invert for frames/sec — the
    // number EXPERIMENTS.md tracks for the 100k-frame horizons.
    const FRAMES: u64 = 256;
    c.bench_function("harness_rtm_experiment_256_frames", |b| {
        let config = PlatformConfig {
            sensor: SensorConfig::ideal(),
            ..PlatformConfig::odroid_xu3_a15()
        };
        let mut app = qgov_workloads::SyntheticWorkload::constant(
            "throughput",
            Cycles::from_mcycles(160),
            SimTime::from_ms(40),
            FRAMES,
            4,
            5,
        );
        b.iter(|| {
            let mut rtm = RtmGovernor::new(
                RtmConfig::paper(1)
                    .with_workload_bounds(1e7, 1e9)
                    .with_history(HistoryMode::LastN(64)),
            )
            .unwrap();
            black_box(run_experiment(&mut rtm, &mut app, config.clone(), FRAMES).report)
        });
    });
}

/// One shard of the long-horizon recordings, in memory: 4096 frames of
/// the H.264 football model.
fn h264_shard() -> WorkloadTrace {
    WorkloadTrace::record(&mut VideoDecoderModel::h264_football_15fps(1).with_frames(4096))
}

fn bench_trace_csv_parse(c: &mut Criterion) {
    // The codec's reader on one shard's CSV document, no disk access.
    // `from_csv` also splits the flat rows into one `Vec` per frame,
    // which a streamed shard load does not.
    let csv = h264_shard().to_csv();
    c.bench_function("trace_csv_parse_4096_frames", |b| {
        b.iter(|| black_box(WorkloadTrace::from_csv(black_box(&csv)).unwrap().len()));
    });
}

fn bench_trace_csv_write(c: &mut Criterion) {
    // The codec's writer on the same shard: what recording pays to
    // format one shard file, no disk access.
    let trace = h264_shard();
    c.bench_function("trace_csv_write_4096_frames", |b| {
        b.iter(|| black_box(black_box(&trace).to_csv().len()));
    });
}

fn main() {
    // QGOV_SEEDS=n -> n timed passes per benchmark (one pass, today's
    // single-number output, when unset). QGOV_BENCH_JSON=<path> ->
    // every benchmark appends a {target, metric, mean, sigma, n} JSON
    // line (the perf trajectory CI captures).
    let plan = RunPlan::from_env(RunPlan::new(vec![0], 1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    });
    let passes = plan.seeds.len() as u64;
    if passes > 1 {
        println!("== micro: {passes} measurement passes per benchmark (QGOV_SEEDS) ==\n");
    }
    let mut criterion = Criterion::default()
        .configure_from_args()
        .with_repeats(passes)
        .with_json_target("micro");
    for bench in [
        bench_q_update,
        bench_update_unchecked,
        bench_greedy_scan,
        bench_row_best,
        bench_epd_selection,
        bench_ewma,
        bench_discretize,
        bench_platform_frame,
        bench_full_decision_epoch,
        bench_harness_throughput,
        bench_trace_csv_parse,
        bench_trace_csv_write,
    ] {
        bench(&mut criterion);
    }
}
