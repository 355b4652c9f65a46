//! Property-based tests on the workload models: invariants every
//! application implementation must uphold.

use proptest::prelude::*;
use qgov_units::{Cycles, SimTime};
use qgov_workloads::{
    suites, Application, FftModel, FrameDemand, SyntheticWorkload, ThreadDemand, VideoDecoderModel,
    WorkloadError, WorkloadTrace,
};

/// Builds one of the library's applications from a compact selector.
fn make_app(kind: u8, seed: u64) -> Box<dyn Application> {
    match kind % 8 {
        0 => Box::new(VideoDecoderModel::mpeg4_svga_24fps(seed).with_frames(40)),
        1 => Box::new(VideoDecoderModel::h264_football_15fps(seed).with_frames(40)),
        2 => Box::new(FftModel::fft_32fps(seed)),
        3 => Box::new(suites::blackscholes(seed)),
        4 => Box::new(suites::bodytrack(seed)),
        5 => Box::new(suites::ocean(seed)),
        6 => Box::new(suites::lu(seed)),
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

/// The characters trace CSV documents are made of, plus a few that
/// never belong in one.
const CSV_ALPHABET: &[char] = &[
    '#', ' ', '=', ',', '\n', '0', '1', '7', '9', '-', 'a', 'e', 'f', 'm', 'n', 'r', 's', '_',
    '\t', 'é',
];

/// A header value: a well-formed `n` most of the time, otherwise zero,
/// the largest `u64`, an overflowing, negative or non-numeric token.
fn header_value(choice: u8, n: u64) -> String {
    match choice % 8 {
        0 => "0".into(),
        1 => u64::MAX.to_string(),
        2 => "18446744073709551616".into(),
        3 => "-1".into(),
        4 => "x".into(),
        _ => n.to_string(),
    }
}

/// A `u64` from the whole range, with 0, `u64::MAX` and short values
/// each drawn about a quarter of the time.
fn full_u64() -> impl Strategy<Value = u64> {
    (0u8..4, 0u64..=u64::MAX).prop_map(|(kind, n)| match kind {
        0 => 0,
        1 => u64::MAX,
        2 => n % 1000,
        _ => n,
    })
}

/// `from_csv` is total: any text yields a trace no longer than the
/// document or a located `ParseTraceError`, never a panic or an abort.
fn assert_parse_is_total(text: &str) -> Result<(), TestCaseError> {
    match WorkloadTrace::from_csv(text) {
        Ok(trace) => prop_assert!(
            (1..=text.lines().count()).contains(&trace.len()),
            "{} frames parsed from {:?}",
            trace.len(),
            text
        ),
        Err(WorkloadError::ParseTraceError { .. }) => {}
        Err(e) => prop_assert!(false, "unexpected error {e} for {text:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary text over the CSV alphabet never panics the parser.
    #[test]
    fn from_csv_is_total_on_arbitrary_text(
        chars in proptest::collection::vec(0usize..CSV_ALPHABET.len(), 0..160)
    ) {
        let text: String = chars.iter().map(|&i| CSV_ALPHABET[i]).collect();
        assert_parse_is_total(&text)?;
    }

    /// Near-valid documents: arbitrary header values (zero, huge and
    /// overflowing frame counts included), missing, unknown or
    /// mis-prefixed header fields, and rows of two threads per frame
    /// with arbitrary values, some corrupted.
    #[test]
    fn from_csv_is_total_on_near_valid_documents(
        header in (0u8..16, 0u8..16, 0u64..2_000_000, 0u8..5),
        rows in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 0u8..16), 0..24),
    ) {
        let (frames_choice, period_choice, period_ns, layout) = header;
        let frames = header_value(frames_choice, rows.len().div_ceil(2) as u64);
        let period = header_value(period_choice, period_ns);
        let mut text = match layout {
            0 => format!("# name=t frames={frames}\n"),
            1 => format!("# name=t period_ns={period} frames={frames} bogus=1\n"),
            2 => format!("name=t period_ns={period} frames={frames}\n"),
            _ => format!("# name=t period_ns={period} frames={frames}\n"),
        };
        text.push_str(if layout == 3 { "frame,thread\n" } else { "frame,thread,cpu_cycles,mem_ns\n" });
        for (k, &(cycles, mem_ns, corrupt)) in rows.iter().enumerate() {
            let (frame, thread) = (k / 2, k % 2);
            text.push_str(&match corrupt {
                0 => format!("{frame},{thread},notanumber,{mem_ns}\n"),
                1 => format!("{frame},{thread},{cycles}\n"),
                2 => "\n".to_owned(),
                3 => format!("{frame},{thread},{cycles},{mem_ns},9\n"),
                4 => format!("{},{thread},{cycles},{mem_ns}\n", u64::MAX),
                5 => format!("{frame},{},{cycles},{mem_ns}\n", thread + 1),
                _ => format!("{frame},{thread},{cycles},{mem_ns}\n"),
            });
        }
        assert_parse_is_total(&text)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every application produces frames with positive work, consistent
    /// thread counts, and a positive period.
    #[test]
    fn applications_emit_wellformed_frames(kind in 0u8..8, seed in 0u64..500) {
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
    fn reset_is_a_true_rewind(kind in 0u8..8, seed in 0u64..500) {
        let mut app = make_app(kind, seed);
        let a: Vec<FrameDemand> = (0..15).map(|_| app.next_frame()).collect();
        app.reset();
        let b: Vec<FrameDemand> = (0..15).map(|_| app.next_frame()).collect();
        prop_assert_eq!(a, b);
    }

    /// Two instances with the same seed emit identical sequences; with
    /// different seeds the stochastic models diverge.
    #[test]
    fn seeding_controls_the_sequence(kind in 0u8..8, seed in 0u64..500) {
        let mut a = make_app(kind, seed);
        let mut b = make_app(kind, seed);
        for _ in 0..10 {
            prop_assert_eq!(a.next_frame(), b.next_frame());
        }
    }

    /// Traces replay exactly what they recorded, and survive the CSV
    /// round trip bit-exactly, for every model.
    #[test]
    fn trace_roundtrip_for_all_models(kind in 0u8..8, seed in 0u64..200) {
        let mut app = make_app(kind, seed);
        let mut trace = WorkloadTrace::record(app.as_mut());
        app.reset();
        for _ in 0..trace.frames().min(25) {
            prop_assert_eq!(trace.next_frame(), app.next_frame());
        }
        let back = WorkloadTrace::from_csv(&trace.to_csv()).unwrap();
        prop_assert_eq!(&back, &{ trace });
    }

    /// The codec against a reference built with `format!`, in both
    /// directions and over the whole `u64` range: `to_csv` writes the
    /// reference byte for byte, and `from_csv` reads back exactly the
    /// demands the reference was built from. Checking each direction
    /// against the reference, not only the round trip, catches a writer
    /// and a reader that drift together.
    #[test]
    fn csv_codec_matches_the_format_reference(
        frames in proptest::collection::vec(
            proptest::collection::vec((full_u64(), full_u64()), 1..6),
            1..20,
        ),
        period_ns in full_u64(),
    ) {
        let period_ns = period_ns.max(1);
        let mut reference = format!(
            "# name=prop period_ns={period_ns} frames={}\nframe,thread,cpu_cycles,mem_ns\n",
            frames.len()
        );
        for (fi, threads) in frames.iter().enumerate() {
            for (ti, (cycles, mem_ns)) in threads.iter().enumerate() {
                reference.push_str(&format!("{fi},{ti},{cycles},{mem_ns}\n"));
            }
        }
        let demands: Vec<FrameDemand> = frames
            .iter()
            .map(|threads| {
                FrameDemand::new(
                    threads
                        .iter()
                        .map(|&(c, m)| ThreadDemand::new(Cycles::new(c), SimTime::from_ns(m)))
                        .collect(),
                )
            })
            .collect();
        let trace = WorkloadTrace::from_frames("prop", SimTime::from_ns(period_ns), demands);
        prop_assert_eq!(trace.to_csv(), reference.clone());
        let back = WorkloadTrace::from_csv(&reference).unwrap();
        prop_assert_eq!(back.frame_demands(), trace.frame_demands());
        prop_assert_eq!(back.period(), SimTime::from_ns(period_ns));
        prop_assert_eq!(back.name(), "prop");
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
