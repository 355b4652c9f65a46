//! Streaming edge cases and the replay-equality contract of the
//! sharded trace layer.
//!
//! The load-bearing property: for any recorded application,
//! [`ShardedTrace`] replay is **frame-for-frame identical** to
//! [`WorkloadTrace`] replay — across shard boundaries, across the
//! wrap-around, after resets at arbitrary cursor positions — while
//! never holding more than one shard of frames resident. The edge
//! cases (truncated final shard, header-only shard file, corrupted
//! geometry, bytes that are not UTF-8) are pinned alongside, and the
//! manifest reader is checked total on arbitrary and near-valid input.

use proptest::prelude::*;
use qgov_units::{Cycles, SimTime};
use qgov_workloads::shard::{shard_file_name, ScratchDir, MANIFEST_FILE};
use qgov_workloads::{
    Application, FftModel, ShardedTrace, SyntheticWorkload, VideoDecoderModel, WorkloadError,
    WorkloadTrace,
};
use std::path::Path;

/// A unique scratch directory per test case, removed on drop.
fn test_dir(tag: &str) -> ScratchDir {
    ScratchDir::unique(&format!("qgov-shard-it-{tag}"))
}

/// Builds one of the library's applications from a compact selector
/// (mirrors `workload_properties.rs`).
fn make_app(kind: u8, seed: u64) -> Box<dyn Application> {
    match kind % 4 {
        0 => Box::new(VideoDecoderModel::mpeg4_svga_24fps(seed).with_frames(60)),
        1 => Box::new(VideoDecoderModel::h264_football_15fps(seed).with_frames(60)),
        2 => Box::new(FftModel::fft_32fps(seed)),
        _ => Box::new(
            SyntheticWorkload::constant(
                "c",
                Cycles::from_mcycles(10),
                SimTime::from_ms(40),
                60,
                4,
                seed,
            )
            .with_noise(0.2),
        ),
    }
}

/// The characters manifests are made of, plus a few that never belong
/// in one.
const CSV_ALPHABET: &[char] = &[
    '#', ' ', '=', ',', '\n', '0', '1', '7', '9', '-', 'a', 'e', 'f', 'm', 'n', 'r', 's', '_',
    '\t', 'é',
];

/// A manifest value: `valid` most of the time, otherwise zero, the
/// largest `u64`, an overflowing, negative, signed or non-numeric token.
fn manifest_value(choice: u8, valid: &str) -> String {
    match choice {
        0 => "0".into(),
        1 => u64::MAX.to_string(),
        2 => "18446744073709551616".into(),
        3 => "-1".into(),
        4 => "x".into(),
        5 => format!("+{valid}"),
        _ => valid.into(),
    }
}

/// `ShardedTrace::open` on `manifest` in `dir` is total: a trace with a
/// consistent geometry, an I/O error or a line-1 parse error, never a
/// panic.
fn assert_open_is_total(dir: &Path, manifest: &[u8]) -> Result<(), TestCaseError> {
    std::fs::write(dir.join(MANIFEST_FILE), manifest).unwrap();
    let shown = String::from_utf8_lossy(manifest);
    match ShardedTrace::open(dir) {
        Ok(trace) => prop_assert_eq!(
            trace.shard_count() as u64,
            trace.len().div_ceil(trace.frames_per_shard() as u64),
            "{}",
            shown
        ),
        Err(WorkloadError::Io { .. } | WorkloadError::ParseTraceError { line: 1, .. }) => {}
        Err(e) => prop_assert!(false, "unexpected error {e} for {shown:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary text over the CSV alphabet never panics the manifest
    /// reader.
    #[test]
    fn open_is_total_on_arbitrary_manifests(
        chars in proptest::collection::vec(0usize..CSV_ALPHABET.len(), 0..160)
    ) {
        let dir = test_dir("manifest-text");
        std::fs::create_dir_all(dir.path()).unwrap();
        let text: String = chars.iter().map(|&i| CSV_ALPHABET[i]).collect();
        assert_open_is_total(dir.path(), text.as_bytes())?;
    }

    /// Near-valid manifests over a real three-shard recording: any key's
    /// value zero, `u64::MAX`, overflowing, signed or non-numeric; a key
    /// missing, duplicated or unknown; a `shards` count that disagrees
    /// with the geometry.
    #[test]
    fn open_is_total_on_near_valid_manifests(
        choices in proptest::collection::vec(0u8..40, 7),
        layout in 0u8..8,
        key in 0usize..7,
    ) {
        let dir = test_dir("manifest-near");
        let mut app = make_app(3, 1);
        ShardedTrace::record(app.as_mut(), dir.path(), 12, 4).unwrap();
        let valid = std::fs::read_to_string(dir.path().join(MANIFEST_FILE)).unwrap();
        let mut fields: Vec<(String, String)> = valid
            .trim_start_matches("# ")
            .split_whitespace()
            .zip(&choices)
            .map(|(field, &choice)| {
                let (k, v) = field.split_once('=').unwrap();
                (k.to_owned(), manifest_value(choice, v))
            })
            .collect();
        prop_assert_eq!(fields.len(), 7);
        match layout {
            0 => {
                fields.remove(key);
            }
            1 => fields.push(fields[key].clone()),
            2 => fields.insert(key, ("bogus".into(), "1".into())),
            3 => fields[4].1 = (key + 4).to_string(),
            _ => {}
        }
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let manifest = format!("# {}\n", body.join(" "));
        assert_open_is_total(dir.path(), manifest.as_bytes())?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Streamed replay equals in-memory replay frame-for-frame, for
    /// any model, seed, shard size and horizon — including one full
    /// wrap-around past the end.
    #[test]
    fn sharded_replay_equals_in_memory_replay(
        kind in 0u8..4,
        seed in 0u64..200,
        frames in 1u64..80,
        frames_per_shard in 1usize..20,
    ) {
        let dir = test_dir("prop");
        let mut app = make_app(kind, seed);
        let mut streamed =
            ShardedTrace::record(app.as_mut(), dir.path(), frames, frames_per_shard).unwrap();

        // The in-memory reference over the same horizon:
        // WorkloadTrace::record() uses app.frames(), so capture the
        // same `frames`-frame sequence into a WorkloadTrace directly.
        app.reset();
        let reference: Vec<_> = (0..frames).map(|_| app.next_frame()).collect();
        let mut whole = WorkloadTrace::from_frames(streamed.name(), streamed.period(), reference);

        // Two full passes: WorkloadTrace and ShardedTrace replay —
        // including the wrap-around — must agree frame-for-frame.
        for pass in 0..2u64 {
            for i in 0..frames {
                let got = streamed.next_frame();
                prop_assert_eq!(
                    got, whole.next_frame(),
                    "pass {} frame {} diverged", pass, i
                );
                prop_assert!(streamed.resident_frames() <= frames_per_shard);
            }
        }
        prop_assert_eq!(streamed.len(), frames);
        prop_assert_eq!(
            streamed.shard_count() as u64,
            frames.div_ceil(frames_per_shard as u64)
        );
    }

    /// reset() at an arbitrary cursor position — mid-shard, on a shard
    /// boundary, past a wrap — always rewinds to the identical
    /// sequence (the shard-boundary cursor-resume contract).
    #[test]
    fn reset_resumes_identically_from_any_cursor(
        seed in 0u64..100,
        frames in 2u64..50,
        frames_per_shard in 1usize..12,
        advance in 0u64..120,
    ) {
        let dir = test_dir("resume");
        let mut app = make_app(3, seed);
        let mut streamed =
            ShardedTrace::record(app.as_mut(), dir.path(), frames, frames_per_shard).unwrap();

        let head: Vec<_> = (0..frames.min(10)).map(|_| streamed.next_frame()).collect();
        streamed.reset();
        for _ in 0..advance {
            streamed.next_frame();
        }
        streamed.reset();
        for (i, expected) in head.iter().enumerate() {
            prop_assert_eq!(&streamed.next_frame(), expected, "frame {} after reset", i);
        }
    }
}

#[test]
fn truncated_final_shard_round_trips() {
    // 50 frames in shards of 16: three full shards + a 2-frame tail.
    let dir = test_dir("tail");
    let mut app = VideoDecoderModel::mpeg4_svga_24fps(5).with_frames(50);
    let mut streamed = ShardedTrace::record(&mut app, dir.path(), 50, 16).unwrap();
    assert_eq!(streamed.shard_count(), 4);
    assert_eq!(streamed.load_shard(3).unwrap().len(), 2);

    let mut whole = WorkloadTrace::record(&mut app);
    for i in 0..100 {
        assert_eq!(streamed.next_frame(), whole.next_frame(), "frame {i}");
    }
    // The wrap from the short tail shard back to shard 0 kept the
    // resident set bounded.
    assert!(streamed.resident_frames() <= 16);
}

#[test]
fn truncated_shard_file_is_rejected_at_load() {
    let dir = test_dir("truncated-file");
    let mut app = VideoDecoderModel::mpeg4_svga_24fps(5).with_frames(30);
    let streamed = ShardedTrace::record(&mut app, dir.path(), 30, 10).unwrap();

    // Chop the last frame's rows off shard 1: its header still
    // declares 10 frames, so the CSV parser itself rejects it.
    let path = dir.path().join(shard_file_name(1));
    let text = std::fs::read_to_string(&path).unwrap();
    let truncated: Vec<&str> = text.lines().filter(|l| !l.starts_with("9,")).collect();
    std::fs::write(&path, truncated.join("\n")).unwrap();
    assert!(matches!(
        streamed.load_shard(1),
        Err(WorkloadError::ParseTraceError { .. })
    ));

    // A shard that parses but disagrees with the manifest geometry —
    // rewrite shard 1 as a valid 3-frame document — is rejected by the
    // geometry check instead.
    let mut short = VideoDecoderModel::mpeg4_svga_24fps(5).with_frames(3);
    let replacement = WorkloadTrace::record(&mut short);
    std::fs::write(&path, replacement.to_csv()).unwrap();
    let err = streamed.load_shard(1).unwrap_err();
    assert!(
        err.to_string().contains("truncated or padded"),
        "unexpected error: {err}"
    );
}

#[test]
fn non_utf8_shard_bytes_are_a_located_parse_error() {
    let dir = test_dir("non-utf8");
    let mut app = VideoDecoderModel::mpeg4_svga_24fps(5).with_frames(30);
    let streamed = ShardedTrace::record(&mut app, dir.path(), 30, 10).unwrap();

    // Overwrite the last digit of line 5, a data row, with 0xFF.
    let path = dir.path().join(shard_file_name(1));
    let mut bytes = std::fs::read(&path).unwrap();
    let line_5_end = bytes
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .nth(4)
        .unwrap()
        .0;
    bytes[line_5_end - 1] = 0xFF;
    std::fs::write(&path, bytes).unwrap();
    match streamed.load_shard(1) {
        Err(WorkloadError::ParseTraceError { line: 5, reason }) => {
            assert_eq!(reason, "mem_ns is not an integer");
        }
        other => panic!("expected a parse error at line 5, got {other:?}"),
    }
}

#[test]
fn header_only_shard_file_is_rejected() {
    let dir = test_dir("header-only");
    let mut app = VideoDecoderModel::mpeg4_svga_24fps(7).with_frames(20);
    let streamed = ShardedTrace::record(&mut app, dir.path(), 20, 8).unwrap();

    // A header-only CSV: metadata + column header, zero data rows.
    let path = dir.path().join(shard_file_name(0));
    std::fs::write(
        &path,
        "# name=mpeg4 period_ns=41666666 frames=8\nframe,thread,cpu_cycles,mem_ns\n",
    )
    .unwrap();
    assert!(matches!(
        streamed.load_shard(0),
        Err(WorkloadError::ParseTraceError { .. })
    ));
}

#[test]
fn header_only_manifest_is_rejected() {
    let dir = test_dir("empty-manifest");
    std::fs::create_dir_all(dir.path()).unwrap();
    std::fs::write(dir.path().join(MANIFEST_FILE), "").unwrap();
    assert!(matches!(
        ShardedTrace::open(dir.path()),
        Err(WorkloadError::ParseTraceError { .. })
    ));
}

#[test]
fn shard_boundary_cursor_positions_are_exact() {
    // Deterministic boundary walk: frames 0..=11 with shard size 4;
    // check the frames straddling every boundary (3→4, 7→8, 11→0).
    let dir = test_dir("boundary");
    let mut app = SyntheticWorkload::constant(
        "ramp",
        Cycles::from_mcycles(20),
        SimTime::from_ms(40),
        12,
        2,
        9,
    )
    .with_noise(0.3);
    let mut streamed = ShardedTrace::record(&mut app, dir.path(), 12, 4).unwrap();
    let whole = WorkloadTrace::record(&mut app);
    let demands = whole.frame_demands();

    for _ in 0..3 {
        streamed.next_frame();
    }
    let loads_before = streamed.shard_loads();
    assert_eq!(streamed.next_frame(), demands[3], "last frame of shard 0");
    assert_eq!(streamed.next_frame(), demands[4], "first frame of shard 1");
    assert_eq!(
        streamed.shard_loads(),
        loads_before + 1,
        "crossing one boundary loads exactly one shard"
    );
    for demand in &demands[5..12] {
        assert_eq!(&streamed.next_frame(), demand);
    }
    // Wrap-around boundary: 11 → 0.
    assert_eq!(streamed.next_frame(), demands[0]);
}

#[test]
fn bounded_memory_over_a_long_streamed_horizon() {
    // 20k frames in 256-frame shards: a horizon whose full frame vector
    // would hold 20 000 × 4 thread demands, streamed with ≤ 256 frames
    // resident at any instant.
    let dir = test_dir("long");
    let mut app = VideoDecoderModel::h264_football_15fps(3).with_frames(20_000);
    let mut streamed = ShardedTrace::record(&mut app, dir.path(), 20_000, 256).unwrap();
    assert_eq!(streamed.shard_count(), 79);

    let mut max_resident = 0;
    let mut total_cycles = 0u64;
    for _ in 0..20_000 {
        total_cycles += streamed.next_frame().total_cycles().count();
        max_resident = max_resident.max(streamed.resident_frames());
    }
    assert!(max_resident <= 256, "resident {max_resident} frames");
    assert_eq!(streamed.shard_loads(), 79, "one load per shard per pass");
    assert!(total_cycles > 0);
}
