//! Property-based tests on the workload models: invariants every
//! application implementation must uphold.

use proptest::prelude::*;
use qgov_units::{Cycles, SimTime};
use qgov_workloads::{
    Application, FftModel, FrameDemand, SyntheticWorkload, VideoDecoderModel, WorkloadTrace,
};

/// Builds one of the library's applications from a compact selector.
fn make_app(kind: u8, seed: u64) -> Box<dyn Application> {
    match kind % 4 {
        0 => Box::new(VideoDecoderModel::mpeg4_svga_24fps(seed).with_frames(40)),
        1 => Box::new(VideoDecoderModel::h264_football_15fps(seed).with_frames(40)),
        2 => Box::new(FftModel::fft_32fps(seed)),
        _ => Box::new(
            SyntheticWorkload::constant(
                "c",
                Cycles::from_mcycles(10),
                SimTime::from_ms(40),
                40,
                4,
                seed,
            )
            .with_noise(0.2),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every application produces frames with positive work, consistent
    /// thread counts, and a positive period.
    #[test]
    fn applications_emit_wellformed_frames(kind in 0u8..4, seed in 0u64..500) {
        let mut app = make_app(kind, seed);
        prop_assert!(!app.period().is_zero());
        prop_assert!(app.frames() > 0);
        let first = app.next_frame();
        let threads = first.thread_count();
        prop_assert!(threads > 0);
        for _ in 0..20 {
            let f = app.next_frame();
            prop_assert_eq!(f.thread_count(), threads, "thread count must be stable");
            prop_assert!(f.total_cycles().count() > 0, "frames must carry work");
        }
    }

    /// reset() rewinds to an identical sequence for every model.
    #[test]
    fn reset_is_a_true_rewind(kind in 0u8..4, seed in 0u64..500) {
        let mut app = make_app(kind, seed);
        let a: Vec<FrameDemand> = (0..15).map(|_| app.next_frame()).collect();
        app.reset();
        let b: Vec<FrameDemand> = (0..15).map(|_| app.next_frame()).collect();
        prop_assert_eq!(a, b);
    }

    /// Two instances with the same seed emit identical sequences; with
    /// different seeds the stochastic models diverge.
    #[test]
    fn seeding_controls_the_sequence(kind in 0u8..4, seed in 0u64..500) {
        let mut a = make_app(kind, seed);
        let mut b = make_app(kind, seed);
        for _ in 0..10 {
            prop_assert_eq!(a.next_frame(), b.next_frame());
        }
    }

    /// Traces replay exactly what they recorded, for every model.
    #[test]
    fn trace_roundtrip_for_all_models(kind in 0u8..4, seed in 0u64..200) {
        let mut app = make_app(kind, seed);
        let mut trace = WorkloadTrace::record(app.as_mut());
        app.reset();
        for _ in 0..trace.frames().min(25) {
            prop_assert_eq!(trace.next_frame(), app.next_frame());
        }
    }

    /// split_evenly conserves total cycles for any inputs.
    #[test]
    fn split_evenly_conserves(total in 0u64..u64::MAX / 2, threads in 1usize..64) {
        let f = FrameDemand::split_evenly(Cycles::new(total), threads, SimTime::ZERO);
        prop_assert_eq!(f.total_cycles().count(), total);
        prop_assert_eq!(f.thread_count(), threads);
    }
}

/// Cross-model statistics: the paper's workload-variability ordering
/// (video varies, FFT does not) holds for any seed.
#[test]
fn variability_ordering_holds_across_seeds() {
    for seed in [1u64, 17, 99] {
        let cv = |app: &mut dyn Application, n: usize| -> f64 {
            let xs: Vec<f64> = (0..n)
                .map(|_| app.next_frame().total_cycles().count() as f64)
                .collect();
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
            var.sqrt() / mean
        };
        let mut video = VideoDecoderModel::h264_football_15fps(seed);
        let mut fft = FftModel::fft_32fps(seed);
        let video_cv = cv(&mut video, 400);
        let fft_cv = cv(&mut fft, 400);
        assert!(
            video_cv > 2.0 * fft_cv,
            "seed {seed}: video (cv {video_cv:.3}) must vary far more than FFT (cv {fft_cv:.3})"
        );
    }
}
