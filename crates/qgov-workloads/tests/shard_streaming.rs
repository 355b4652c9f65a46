//! Streaming edge cases and the replay-equality contract of the
//! sharded trace layer.
//!
//! The load-bearing property: for any recorded application,
//! [`ShardedTrace`] replay is **frame-for-frame identical** to
//! [`WorkloadTrace`] replay — across shard boundaries, across the
//! wrap-around, after resets at arbitrary cursor positions — while
//! never holding more than one shard of frames resident. The edge
//! cases (truncated final shard, header-only shard file, corrupted
//! geometry, a header that is not UTF-8, a zero thread count) are
//! pinned alongside; the manifest reader and the shard decoder are
//! checked total on arbitrary and near-valid input, and the shard codec
//! round-trips edge values.

use proptest::prelude::*;
use qgov_units::{Cycles, SimTime};
use qgov_workloads::shard::{shard_file_name, ScratchDir, MANIFEST_FILE};
use qgov_workloads::{
    Application, FftModel, FrameDemand, ShardWriter, ShardedTrace, SyntheticWorkload, ThreadDemand,
    VideoDecoderModel, WorkloadError, WorkloadTrace,
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
const MANIFEST_ALPHABET: &[char] = &[
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

/// The byte offset of every frame's thread count in a shard file, then
/// the offset where the frames end.
fn frame_offsets(bytes: &[u8]) -> Vec<usize> {
    let mut at = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    let mut offsets = vec![at];
    while at < bytes.len() {
        let threads = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        at += 8 + 16 * threads as usize;
        offsets.push(at);
    }
    offsets
}

/// `load_shard(index)` is total: a shard with the manifest's geometry,
/// a line-1 parse error or a corrupt-shard error, never a panic.
fn assert_load_is_total(trace: &ShardedTrace, index: usize) -> Result<(), TestCaseError> {
    match trace.load_shard(index) {
        Ok(shard) => {
            let start = index as u64 * trace.frames_per_shard() as u64;
            prop_assert_eq!(shard.start_frame(), start);
            prop_assert_eq!(
                shard.len() as u64,
                (trace.len() - start).min(trace.frames_per_shard() as u64)
            );
        }
        Err(
            WorkloadError::CorruptShard { .. } | WorkloadError::ParseTraceError { line: 1, .. },
        ) => {}
        Err(e) => prop_assert!(false, "unexpected error {e}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary text over the manifest alphabet never panics the manifest
    /// reader.
    #[test]
    fn open_is_total_on_arbitrary_manifests(
        chars in proptest::collection::vec(0usize..MANIFEST_ALPHABET.len(), 0..160)
    ) {
        let dir = test_dir("manifest-text");
        std::fs::create_dir_all(dir.path()).unwrap();
        let text: String = chars.iter().map(|&i| MANIFEST_ALPHABET[i]).collect();
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

    /// A valid header line followed by arbitrary bytes never panics the
    /// shard decoder. The body's words lean towards small thread
    /// counts, 0 and `u64::MAX`, so every decoder check is reached, and
    /// a tail of loose bytes leaves the body's length arbitrary.
    #[test]
    fn load_shard_is_total_on_arbitrary_bodies(
        frames in 0u64..7,
        words in proptest::collection::vec((0u8..4, 0u64..=u64::MAX), 0..48),
        tail in proptest::collection::vec(0u8..=255, 0..12),
    ) {
        let dir = test_dir("arbitrary-body");
        let mut app = make_app(3, 1);
        let trace = ShardedTrace::record(app.as_mut(), dir.path(), 8, 4).unwrap();
        let frames = if frames == 6 { u64::MAX } else { frames };
        let mut bytes = format!(
            "# name={} period_ns={} frames={frames}\n",
            trace.name(),
            trace.period().as_ns()
        )
        .into_bytes();
        for (kind, value) in words {
            let word = [value % 6, 0, u64::MAX, value][usize::from(kind)];
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        bytes.extend(tail);
        std::fs::write(dir.path().join(shard_file_name(0)), &bytes).unwrap();
        assert_load_is_total(&trace, 0)?;
    }

    /// One edit to a real recorded shard: truncated at any offset, any
    /// one byte replaced, a thread count set to 0, `u64::MAX` or one
    /// more than the body holds, bytes appended, or the header's
    /// `frames` changed. The decoder never panics, and any shard it
    /// accepts has the manifest's geometry. A truncated shard is always
    /// refused, and an edited thread count or appended bytes are a
    /// corrupt shard at their offset.
    #[test]
    fn load_shard_is_total_on_near_valid_shards(
        kind in 0u8..4,
        seed in 0u64..50,
        index in 0usize..3,
        edit in 0u8..7,
        at in 0usize..=usize::MAX,
        value in 0u64..=u64::MAX,
    ) {
        let dir = test_dir("near-valid-shard");
        let mut app = make_app(kind, seed);
        // Shards of 5, 5 and 2 frames.
        let trace = ShardedTrace::record(app.as_mut(), dir.path(), 12, 5).unwrap();
        let path = dir.path().join(shard_file_name(index));
        let mut bytes = std::fs::read(&path).unwrap();
        let offsets = frame_offsets(&bytes);
        let corrupt_at = match edit {
            0 => {
                bytes.truncate(at % bytes.len());
                None
            }
            1 => {
                let i = at % bytes.len();
                bytes[i] = value as u8;
                None
            }
            2..=4 => {
                let count_at = offsets[at % (offsets.len() - 1)];
                let count = match edit {
                    2 => 0,
                    3 => u64::MAX,
                    _ => ((bytes.len() - count_at - 8) / 16 + 1) as u64,
                };
                bytes[count_at..count_at + 8].copy_from_slice(&count.to_le_bytes());
                Some(count_at)
            }
            5 => {
                let end = bytes.len();
                bytes.extend(&value.to_le_bytes()[..at % 8 + 1]);
                Some(end)
            }
            _ => {
                let header = std::str::from_utf8(&bytes[..offsets[0]]).unwrap();
                let (head, _) = header.split_once(" frames=").unwrap();
                let frames = [0, 1, value % 8, u64::MAX][at % 4];
                let mut edited = format!("{head} frames={frames}\n").into_bytes();
                edited.extend_from_slice(&bytes[offsets[0]..]);
                bytes = edited;
                None
            }
        };
        std::fs::write(&path, &bytes).unwrap();
        assert_load_is_total(&trace, index)?;
        let loaded = trace.load_shard(index);
        if edit == 0 {
            prop_assert!(loaded.is_err(), "a truncated shard loaded");
        }
        if let Some(offset) = corrupt_at {
            match loaded {
                Err(WorkloadError::CorruptShard { offset: got, .. }) => {
                    prop_assert_eq!(got, offset as u64);
                }
                other => prop_assert!(false, "expected a corrupt shard at byte {offset}, got {other:?}"),
            }
        }
    }

    /// Frames of 1–8 threads whose fields are 0, 1, `u64::MAX` or any
    /// value, clamped so each frame's totals fit in a `u64`, record
    /// through `ShardWriter` and load back through `load_shard` equal
    /// to the input.
    #[test]
    fn shard_codec_round_trips_edge_values(
        frames in proptest::collection::vec(
            proptest::collection::vec((0u8..4, 0u64..=u64::MAX, 0u8..4, 0u64..=u64::MAX), 1..=8),
            1..24,
        ),
        frames_per_shard in 1usize..8,
    ) {
        let edge = |kind: u8, value: u64| [0, 1, u64::MAX, value][usize::from(kind)];
        let input: Vec<FrameDemand> = frames
            .iter()
            .map(|threads| {
                let (mut cycles, mut mem_ns) = (0u64, 0u64);
                FrameDemand::new(
                    threads
                        .iter()
                        .map(|&(ck, c, mk, m)| {
                            let c = edge(ck, c).min(u64::MAX - cycles);
                            let m = edge(mk, m).min(u64::MAX - mem_ns);
                            (cycles, mem_ns) = (cycles + c, mem_ns + m);
                            ThreadDemand::new(Cycles::new(c), SimTime::from_ns(m))
                        })
                        .collect(),
                )
            })
            .collect();
        let dir = test_dir("edge-values");
        let mut writer =
            ShardWriter::create(dir.path(), "edge", SimTime::from_ms(40), frames_per_shard)
                .unwrap();
        for frame in &input {
            writer.push(frame).unwrap();
        }
        let trace = writer.finish().unwrap();
        for index in 0..trace.shard_count() {
            let shard = trace.load_shard(index).unwrap();
            for i in shard.start_frame()..shard.start_frame() + shard.len() as u64 {
                prop_assert_eq!(shard.frame(i), &input[i as usize].threads[..], "frame {}", i);
            }
        }
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

    // Cut the last frame's bytes off shard 1: its header still
    // declares 10 frames, so the decoder itself rejects it where the
    // body ends.
    let path = dir.path().join(shard_file_name(1));
    let bytes = std::fs::read(&path).unwrap();
    let last = frame_offsets(&bytes)[9];
    std::fs::write(&path, &bytes[..last]).unwrap();
    match streamed.load_shard(1) {
        Err(WorkloadError::CorruptShard { offset, reason }) => {
            assert_eq!(offset, last as u64);
            assert!(reason.starts_with("frame 9:"), "{reason}");
        }
        other => panic!("expected a corrupt shard, got {other:?}"),
    }

    // A shard that decodes but disagrees with the manifest geometry —
    // the shard file of a 3-frame recording of the same model — is
    // rejected by the geometry check instead.
    let short_dir = test_dir("truncated-file-short");
    let mut short = VideoDecoderModel::mpeg4_svga_24fps(5).with_frames(3);
    ShardedTrace::record(&mut short, short_dir.path(), 3, 10).unwrap();
    std::fs::copy(short_dir.path().join(shard_file_name(0)), &path).unwrap();
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
    let path = dir.path().join(shard_file_name(1));
    let bytes = std::fs::read(&path).unwrap();

    // A 0xFF byte in the header line is a parse error at line 1.
    let mut bad = bytes.clone();
    bad[7] = 0xFF;
    std::fs::write(&path, &bad).unwrap();
    match streamed.load_shard(1) {
        Err(WorkloadError::ParseTraceError { line: 1, reason }) => {
            assert_eq!(reason, "metadata header is not UTF-8");
        }
        other => panic!("expected a parse error at line 1, got {other:?}"),
    }

    // A zero thread count in the body is a corrupt shard at its offset.
    let count_at = frame_offsets(&bytes)[4];
    let mut bad = bytes;
    bad[count_at..count_at + 8].copy_from_slice(&0u64.to_le_bytes());
    std::fs::write(&path, &bad).unwrap();
    match streamed.load_shard(1) {
        Err(WorkloadError::CorruptShard { offset, reason }) => {
            assert_eq!(offset, count_at as u64);
            assert!(reason.starts_with("frame 4: thread count 0"), "{reason}");
        }
        other => panic!("expected a corrupt shard at byte {count_at}, got {other:?}"),
    }
}

#[test]
fn header_only_shard_file_is_rejected() {
    let dir = test_dir("header-only");
    let mut app = VideoDecoderModel::mpeg4_svga_24fps(7).with_frames(20);
    let streamed = ShardedTrace::record(&mut app, dir.path(), 20, 8).unwrap();

    // A header line with no body: the first frame is missing.
    let header = "# name=mpeg4 period_ns=41666666 frames=8\n";
    std::fs::write(dir.path().join(shard_file_name(0)), header).unwrap();
    match streamed.load_shard(0) {
        Err(WorkloadError::CorruptShard { offset, reason }) => {
            assert_eq!(offset, header.len() as u64);
            assert_eq!(reason, "frame 0: the body ends before its thread count");
        }
        other => panic!("expected a corrupt shard, got {other:?}"),
    }
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
