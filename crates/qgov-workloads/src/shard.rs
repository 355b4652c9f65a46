//! Sharded streaming trace record and replay.
//!
//! [`WorkloadTrace`](crate::WorkloadTrace) materialises every frame of
//! a recording in one `Vec`, which caps experiments at horizons that fit
//! in memory. The paper's Q-learning governor, however, is pitched for
//! *run-time* operation: long-horizon evaluation — hundreds of thousands
//! of decision epochs — is exactly where a learned policy separates from
//! the static heuristics it is compared against. This module provides
//! the bounded-memory counterpart:
//!
//! * [`ShardWriter`] — records a frame stream to a directory of binary
//!   *shard files*, flushing every `frames_per_shard` frames, so the
//!   writer never holds more than one shard of frames;
//! * [`TraceShard`] — one loaded shard: a contiguous slice of the
//!   recorded sequence, stored flat, with its global frame offset;
//! * [`ShardedTrace`] — the streamed reader: implements
//!   [`Application`] by lazily pulling the shard containing its cursor
//!   from disk, so replay holds at most `frames_per_shard` frames
//!   resident however long the trace is.
//!
//! # File format
//!
//! A shard file, `shard-NNNNNN.bin`, opens with a metadata line (the
//! trace's name and period, and the shard's frame count), followed by a
//! binary body: for each frame, its thread count (at least 1), then
//! that many `(cpu_cycles, mem_ns)` pairs, every field a little-endian
//! `u64`.
//!
//! ```text
//! # name=h264 period_ns=66666666 frames=4096\n
//! <threads> <cpu_cycles> <mem_ns> <cpu_cycles> <mem_ns> ...    frame 0
//! <threads> <cpu_cycles> <mem_ns> ...                          frame 1
//! ```
//!
//! One encoder ([`ShardWriter::push`]) and one decoder
//! ([`ShardedTrace::load_shard`]) handle the format; a load is a
//! bounds-checked copy into a flat [`TraceShard`], not a decimal parse.
//! The metadata line is `key=value` fields after `# `, each key exactly
//! once, the numbers ASCII digits (no sign, no spaces) of a `u64`; a
//! header problem is a [`WorkloadError::ParseTraceError`] at line 1.
//! A body that ends early, a thread count of 0 or past the bytes left,
//! a frame whose `cpu_cycles` or `mem_ns` total overflows `u64` and
//! trailing bytes are a [`WorkloadError::CorruptShard`] at their byte
//! offset. Shard directories are a derived cache, regenerated bit for
//! bit by recording the same workload again; directories of CSV shards
//! (`shard-NNNNNN.csv`) are no longer read and must be re-recorded.
//!
//! A `manifest.csv` header line ties the shards together and carries
//! the pre-characterisation workload bounds measured during recording,
//! so the learning governors can be configured without a second pass
//! over the data:
//!
//! ```text
//! # name=h264 period_ns=66666666 frames=100000 frames_per_shard=4096 shards=25 min_cycles=... max_cycles=...
//! ```
//!
//! # Replay contract
//!
//! Streamed replay is **bit-identical** to in-memory replay: for the
//! same recorded application, [`ShardedTrace`] and
//! [`WorkloadTrace`](crate::WorkloadTrace) yield the same
//! [`FrameDemand`] sequence frame-for-frame, including the wrap-around
//! past the end (`tests/shard_streaming.rs` pins this with a property
//! test; the workspace-level `tests/long_horizon_streaming.rs` pins
//! bit-identical *experiment reports* through the full harness).
//!
//! # Examples
//!
//! Record a workload into shards, then stream it back:
//!
//! ```
//! use qgov_units::{Cycles, SimTime};
//! use qgov_workloads::{Application, ShardedTrace, SyntheticWorkload, WorkloadTrace};
//!
//! let dir = std::env::temp_dir().join(format!("qgov-shard-doc-{}", std::process::id()));
//! let mut app = SyntheticWorkload::constant(
//!     "c", Cycles::from_mcycles(8), SimTime::from_ms(40), 100, 4, 7,
//! )
//! .with_noise(0.2);
//!
//! // 100 frames in shards of 32: three full shards + a 4-frame tail.
//! let mut streamed = ShardedTrace::record(&mut app, &dir, 100, 32).unwrap();
//! assert_eq!(streamed.shard_count(), 4);
//!
//! // Streamed replay equals in-memory replay frame-for-frame...
//! let mut whole = WorkloadTrace::record(&mut app);
//! for _ in 0..100 {
//!     assert_eq!(streamed.next_frame(), whole.next_frame());
//! }
//! // ...while holding at most one shard of frames resident.
//! assert!(streamed.resident_frames() <= 32);
//!
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

use crate::frame::frame_cycles;
use crate::trace::widen_degenerate;
use crate::{Application, FrameDemand, ThreadDemand, WorkloadError};
use qgov_units::{Cycles, SimTime};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// File name of the manifest inside a sharded-trace directory.
pub const MANIFEST_FILE: &str = "manifest.csv";

/// The keys of the manifest's one header line, each exactly once.
const MANIFEST_KEYS: [&str; 7] = [
    "name",
    "period_ns",
    "frames",
    "frames_per_shard",
    "shards",
    "min_cycles",
    "max_cycles",
];

/// A uniquely named scratch directory for throwaway sharded-trace
/// recordings, removed (best-effort) on drop.
///
/// Concurrent recorders — parallel sweep cells, concurrent test
/// threads — must never share shard files, so the path combines the
/// caller's prefix with the process id and a process-wide counter.
/// The directory itself is *not* created here;
/// [`ShardWriter::create`] / [`ShardedTrace::record`] do that.
/// Experiment results never depend on the directory name.
///
/// # Examples
///
/// ```
/// use qgov_units::{Cycles, SimTime};
/// use qgov_workloads::{shard::ScratchDir, ShardedTrace, SyntheticWorkload};
///
/// let scratch = ScratchDir::unique("qgov-scratch-doc");
/// let mut app = SyntheticWorkload::constant(
///     "c", Cycles::from_mcycles(1), SimTime::from_ms(40), 10, 2, 0,
/// );
/// let trace = ShardedTrace::record(&mut app, scratch.path(), 10, 4).unwrap();
/// assert_eq!(trace.shard_count(), 3);
/// drop(scratch); // recording removed from disk
/// ```
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A process-unique path under the system temp directory:
    /// `<tmp>/<prefix>-<pid>-<counter>`.
    #[must_use]
    pub fn unique(prefix: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        ScratchDir(std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id())))
    }

    /// The scratch path (may not exist yet).
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// File name of shard `index` inside a sharded-trace directory.
#[must_use]
pub fn shard_file_name(index: usize) -> String {
    format!("shard-{index:06}.bin")
}

/// A metadata-line problem, which is always on line 1.
fn parse_error(reason: impl Into<String>) -> WorkloadError {
    WorkloadError::ParseTraceError {
        line: 1,
        reason: reason.into(),
    }
}

/// Splits `bytes` after its first line: the line without its LF or
/// CRLF ending, and everything after the ending.
fn split_line(bytes: &[u8]) -> (&[u8], &[u8]) {
    match bytes.iter().position(|&b| b == b'\n') {
        Some(end) => {
            let line = &bytes[..end];
            (line.strip_suffix(b"\r").unwrap_or(line), &bytes[end + 1..])
        }
        None => (bytes, &[]),
    }
}

/// Parses a `# key=value key=value …` metadata line, the first line of
/// a shard file and of a manifest, into the values of `keys` in that
/// order. Every key must appear exactly once and no other key may
/// appear; errors point at line 1.
fn header_values<'a, const N: usize>(
    line: &'a [u8],
    keys: [&str; N],
) -> Result<[&'a str; N], WorkloadError> {
    let header = std::str::from_utf8(line)
        .map_err(|_| parse_error("metadata header is not UTF-8"))?
        .strip_prefix("# ")
        .ok_or_else(|| parse_error("missing `# ` metadata header"))?;
    let mut found = [None; N];
    for field in header.split_whitespace() {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| parse_error("metadata field without `=`"))?;
        let slot = keys
            .iter()
            .position(|&k| k == key)
            .ok_or_else(|| parse_error(format!("unknown metadata key `{key}`")))?;
        if found[slot].replace(value).is_some() {
            return Err(parse_error(format!("duplicate metadata key `{key}`")));
        }
    }
    let mut values = [""; N];
    for ((value, found), key) in values.iter_mut().zip(found).zip(keys) {
        *value = found.ok_or_else(|| parse_error(format!("missing {key}")))?;
    }
    Ok(values)
}

/// A header value as a `u64`: ASCII digits only (no sign, no spaces),
/// at most `u64::MAX`.
fn header_u64(key: &str, value: &str) -> Result<u64, WorkloadError> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(parse_error(format!("{key} is not an integer")));
    }
    value
        .parse()
        .map_err(|_| parse_error(format!("{key} overflows u64")))
}

/// The metadata line that opens a shard file, ending in LF.
fn header_line(name: &str, period: SimTime, frames: usize) -> String {
    format!(
        "# name={name} period_ns={} frames={frames}\n",
        period.as_ns()
    )
}

/// Parses a [`header_line`] (without its line ending) into the name,
/// the non-zero period and the declared frame count.
fn read_header(line: &[u8]) -> Result<(&str, SimTime, u64), WorkloadError> {
    let [name, period_ns, frames] = header_values(line, ["name", "period_ns", "frames"])?;
    let period = SimTime::from_ns(header_u64("period_ns", period_ns)?);
    let frames = header_u64("frames", frames)?;
    if period.is_zero() {
        return Err(parse_error("period must be non-zero"));
    }
    Ok((name, period, frames))
}

/// The little-endian `u64` of an 8-byte field.
fn le_u64(field: &[u8]) -> u64 {
    u64::from_le_bytes(field.try_into().expect("callers pass 8-byte fields"))
}

/// Decodes a shard file ([format](self#file-format)) into the header's
/// name and period and the frames, stored flat, with O(1) allocations.
/// Error offsets count from the start of the file.
fn decode_shard(bytes: &[u8]) -> Result<(&str, SimTime, FlatFrames), WorkloadError> {
    let (header, body) = split_line(bytes);
    let (name, period, frame_count) = read_header(header)?;
    let corrupt = |at: &[u8], reason: String| WorkloadError::CorruptShard {
        offset: (bytes.len() - at.len()) as u64,
        reason,
    };
    // A frame takes at least 24 bytes, its thread count and one thread,
    // so the body's length bounds what the header can make this
    // allocate; a valid body fills both buffers exactly.
    let frames = usize::try_from(frame_count)
        .unwrap_or(usize::MAX)
        .min(body.len() / 24);
    let mut flat = FlatFrames {
        threads: Vec::with_capacity((body.len() / 8).saturating_sub(frames) / 2),
        ends: Vec::with_capacity(frames),
    };
    let mut rest = body;
    for frame in 0..frame_count {
        let Some((count, records)) = rest.split_first_chunk::<8>() else {
            return Err(corrupt(
                rest,
                format!("frame {frame}: the body ends before its thread count"),
            ));
        };
        let count = u64::from_le_bytes(*count);
        let max = records.len() / 16;
        let Some(len) = usize::try_from(count)
            .ok()
            .filter(|&n| (1..=max).contains(&n))
            .map(|n| n * 16)
        else {
            return Err(corrupt(
                rest,
                format!(
                    "frame {frame}: thread count {count} outside 1..={max}, \
                     the range the bytes left allow"
                ),
            ));
        };
        let (records, tail) = records.split_at(len);
        let start = flat.threads.len();
        flat.threads.extend(records.chunks_exact(16).map(|record| {
            let (cycles, mem_ns) = record.split_at(8);
            ThreadDemand::new(
                Cycles::new(le_u64(cycles)),
                SimTime::from_ns(le_u64(mem_ns)),
            )
        }));
        frame_cycles(&flat.threads[start..])
            .map_err(|reason| corrupt(rest, format!("frame {frame}: {reason}")))?;
        flat.ends.push(flat.threads.len());
        rest = tail;
    }
    if !rest.is_empty() {
        return Err(corrupt(
            rest,
            format!(
                "{} trailing bytes after the {frame_count} frames the header declares",
                rest.len()
            ),
        ));
    }
    Ok((name, period, flat))
}

/// Frames stored flat, as the shard loader fills them: every thread
/// demand in one buffer, frame `i` spanning `threads[ends[i - 1]..ends[i]]`
/// (from 0 for frame 0). A whole shard takes O(1) allocations, not one
/// per frame.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FlatFrames {
    threads: Vec<ThreadDemand>,
    ends: Vec<usize>,
}

impl FlatFrames {
    /// Number of frames.
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// The thread demands of frame `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    fn frame(&self, index: usize) -> &[ThreadDemand] {
        let start = index.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.threads[start..self.ends[index]]
    }
}

/// One loaded shard: a contiguous run of recorded frames together with
/// its position in the global sequence.
///
/// The frames are stored flat, every thread demand in one buffer, so a
/// load makes O(1) allocations however many frames the shard holds.
/// Shards are produced by [`ShardedTrace::load_shard`]; the streaming
/// reader holds at most one at a time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceShard {
    index: usize,
    start_frame: u64,
    frames: FlatFrames,
}

impl TraceShard {
    /// The shard's index within the trace.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Global index of the shard's first frame.
    #[must_use]
    pub fn start_frame(&self) -> u64 {
        self.start_frame
    }

    /// Number of frames in the shard (every shard holds
    /// `frames_per_shard` frames except possibly the last).
    #[must_use]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `false`: shards are non-empty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `true` when the shard covers global frame index `frame`.
    #[must_use]
    pub fn contains(&self, frame: u64) -> bool {
        frame >= self.start_frame && frame < self.start_frame + self.frames.len() as u64
    }

    /// The thread demands of the frame at global index `frame`.
    ///
    /// # Panics
    ///
    /// Panics if the shard does not [`contain`](TraceShard::contains)
    /// `frame`.
    #[must_use]
    pub fn frame(&self, frame: u64) -> &[ThreadDemand] {
        assert!(
            self.contains(frame),
            "shard {} covers frames {}..{}, not {frame}",
            self.index,
            self.start_frame,
            self.start_frame + self.frames.len() as u64
        );
        self.frames.frame((frame - self.start_frame) as usize)
    }
}

/// Incremental writer for a sharded trace: encodes each frame into the
/// binary body of the open shard and flushes a shard file every
/// `frames_per_shard` frames, so recording a million-frame trace never
/// holds more than one shard's bytes in memory.
///
/// [`ShardWriter::finish`] flushes the (possibly shorter) final shard,
/// writes the manifest and reopens the directory as a [`ShardedTrace`].
/// The writer also tracks the min/max total cycles per frame while
/// streaming — the pre-characterisation bounds the learning governors
/// need — and persists them in the manifest, so no second pass over
/// the recording is required.
#[derive(Debug)]
pub struct ShardWriter {
    dir: PathBuf,
    name: String,
    period: SimTime,
    frames_per_shard: usize,
    /// The encoded frames of the open shard: its file's body.
    body: Vec<u8>,
    /// Frames encoded in `body`.
    buffered: usize,
    frames_written: u64,
    shards_written: usize,
    min_cycles: u64,
    max_cycles: u64,
}

impl ShardWriter {
    /// Creates the shard directory (and parents) and an empty writer.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Io`] if the directory cannot be
    /// created.
    ///
    /// # Panics
    ///
    /// Panics if `frames_per_shard` is zero, `period` is zero, or
    /// `name` is empty or contains whitespace — all programming
    /// errors, caught *before* any shard I/O happens. (The name is
    /// embedded in the space-delimited metadata lines of the shard
    /// files and the manifest, where whitespace would corrupt them.)
    pub fn create(
        dir: impl Into<PathBuf>,
        name: impl Into<String>,
        period: SimTime,
        frames_per_shard: usize,
    ) -> Result<Self, WorkloadError> {
        assert!(frames_per_shard > 0, "a shard needs at least one frame");
        assert!(!period.is_zero(), "period must be non-zero");
        let name = name.into();
        assert!(
            !name.is_empty() && !name.chars().any(char::is_whitespace),
            "workload name {name:?} must be non-empty without whitespace: \
             it is embedded in space-delimited metadata lines"
        );
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| WorkloadError::io(&dir, &e))?;
        Ok(ShardWriter {
            dir,
            name,
            period,
            frames_per_shard,
            body: Vec::new(),
            buffered: 0,
            frames_written: 0,
            shards_written: 0,
            min_cycles: u64::MAX,
            max_cycles: 0,
        })
    }

    /// Appends one frame to the open shard's body, flushing a shard
    /// file when the shard is full.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidFrame`], before anything is
    /// buffered, if the frame has no threads or its `cpu_cycles` or
    /// `mem_ns` total overflows `u64` (a frame the shard loader would
    /// refuse), and [`WorkloadError::Io`] if a full shard fails to
    /// write.
    pub fn push(&mut self, frame: &FrameDemand) -> Result<(), WorkloadError> {
        let cycles =
            frame_cycles(&frame.threads).map_err(|reason| WorkloadError::InvalidFrame {
                frame: self.frames_written,
                reason: reason.to_owned(),
            })?;
        self.min_cycles = self.min_cycles.min(cycles);
        self.max_cycles = self.max_cycles.max(cycles);
        self.body
            .extend_from_slice(&(frame.threads.len() as u64).to_le_bytes());
        for t in &frame.threads {
            self.body
                .extend_from_slice(&t.cpu_cycles.count().to_le_bytes());
            self.body
                .extend_from_slice(&t.mem_time.as_ns().to_le_bytes());
        }
        self.buffered += 1;
        self.frames_written += 1;
        if self.buffered == self.frames_per_shard {
            self.flush_shard()?;
        }
        Ok(())
    }

    fn flush_shard(&mut self) -> Result<(), WorkloadError> {
        let path = self.dir.join(shard_file_name(self.shards_written));
        let header = header_line(&self.name, self.period, self.buffered);
        fs::File::create(&path)
            .and_then(|mut file| {
                file.write_all(header.as_bytes())?;
                file.write_all(&self.body)
            })
            .map_err(|e| WorkloadError::io(&path, &e))?;
        self.body.clear();
        self.buffered = 0;
        self.shards_written += 1;
        Ok(())
    }

    /// Flushes the final (possibly short) shard, writes the manifest
    /// and reopens the directory as a streamed [`ShardedTrace`].
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Io`] on any write failure.
    ///
    /// # Panics
    ///
    /// Panics if no frames were pushed — a trace needs at least one
    /// frame, matching
    /// [`WorkloadTrace::from_frames`](crate::WorkloadTrace::from_frames).
    pub fn finish(mut self) -> Result<ShardedTrace, WorkloadError> {
        assert!(
            self.frames_written > 0,
            "a sharded trace needs at least one frame"
        );
        if self.buffered > 0 {
            self.flush_shard()?;
        }
        let manifest = format!(
            "# name={} period_ns={} frames={} frames_per_shard={} shards={} \
             min_cycles={} max_cycles={}\n",
            self.name,
            self.period.as_ns(),
            self.frames_written,
            self.frames_per_shard,
            self.shards_written,
            self.min_cycles,
            self.max_cycles,
        );
        let path = self.dir.join(MANIFEST_FILE);
        fs::write(&path, manifest).map_err(|e| WorkloadError::io(&path, &e))?;
        ShardedTrace::open(&self.dir)
    }
}

/// A recorded trace streamed from binary shards on disk: replayable as an
/// [`Application`] while holding at most one shard of frames in
/// memory, however many frames the trace spans.
///
/// Obtained from [`ShardedTrace::record`] (record an application in
/// bounded memory), [`ShardWriter::finish`] (incremental recording) or
/// [`ShardedTrace::open`] (an existing directory).
///
/// # Replay
///
/// [`next_frame`](Application::next_frame) pulls the shard containing
/// the cursor lazily and wraps around at the end, exactly like
/// [`WorkloadTrace`](crate::WorkloadTrace); `reset()` rewinds the
/// cursor without touching disk (the resident shard is re-used if it
/// covers frame zero).
/// Cloning is cheap — metadata plus the resident shard — and each
/// clone streams independently, which is what lets parallel experiment
/// cells share one recording on disk without sharing any mutable
/// state.
#[derive(Debug, Clone)]
pub struct ShardedTrace {
    dir: PathBuf,
    name: String,
    period: SimTime,
    total_frames: u64,
    frames_per_shard: usize,
    shard_count: usize,
    min_cycles: u64,
    max_cycles: u64,
    cursor: u64,
    current: Option<TraceShard>,
    shard_loads: u64,
}

/// Equality compares the recorded *identity* (directory, name, period,
/// frame geometry); the replay cursor, the resident shard and the
/// load counter are iteration state, not content — mirroring
/// [`WorkloadTrace`](crate::WorkloadTrace)'s cursor-blind equality.
impl PartialEq for ShardedTrace {
    fn eq(&self, other: &Self) -> bool {
        self.dir == other.dir
            && self.name == other.name
            && self.period == other.period
            && self.total_frames == other.total_frames
            && self.frames_per_shard == other.frames_per_shard
            && self.shard_count == other.shard_count
    }
}

impl Eq for ShardedTrace {}

impl ShardedTrace {
    /// Records exactly `frames` frames of `app` into `dir` (resetting
    /// `app` first, and leaving it reset afterwards, like
    /// [`WorkloadTrace::record`](crate::WorkloadTrace::record)) and
    /// returns the streamed reader. Memory stays bounded by one shard
    /// throughout, so horizons far beyond what fits in memory record
    /// safely.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidFrame`] for a frame a shard
    /// cannot hold (see [`ShardWriter::push`]) and
    /// [`WorkloadError::Io`] on any filesystem failure.
    ///
    /// # Panics
    ///
    /// Panics if `frames` or `frames_per_shard` is zero.
    pub fn record(
        app: &mut dyn Application,
        dir: impl Into<PathBuf>,
        frames: u64,
        frames_per_shard: usize,
    ) -> Result<Self, WorkloadError> {
        assert!(frames > 0, "a sharded trace needs at least one frame");
        app.reset();
        let mut writer = ShardWriter::create(dir, app.name(), app.period(), frames_per_shard)?;
        let mut frame = FrameDemand::default();
        for _ in 0..frames {
            app.next_frame_into(&mut frame);
            writer.push(&frame)?;
        }
        app.reset();
        writer.finish()
    }

    /// Opens an existing sharded-trace directory by parsing its
    /// manifest and checking every declared shard file exists (frame
    /// contents are validated lazily, shard by shard, as replay
    /// reaches them — opening a million-frame trace reads only the
    /// manifest).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Io`] if the manifest is unreadable or
    /// a shard file is missing (as in a directory of CSV shards, which
    /// must be re-recorded), and [`WorkloadError::ParseTraceError`]
    /// if the manifest is malformed or internally inconsistent.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, WorkloadError> {
        let dir = dir.into();
        let path = dir.join(MANIFEST_FILE);
        let bytes = fs::read(&path).map_err(|e| WorkloadError::io(&path, &e))?;
        let [name, period_ns, total_frames, frames_per_shard, shard_count, min_cycles, max_cycles] =
            header_values(split_line(&bytes).0, MANIFEST_KEYS)?;
        let name = name.to_owned();
        let period = SimTime::from_ns(header_u64("period_ns", period_ns)?);
        let total_frames = header_u64("frames", total_frames)?;
        let frames_per_shard =
            usize::try_from(header_u64("frames_per_shard", frames_per_shard)?)
                .map_err(|_| parse_error("frames_per_shard exceeds the address space"))?;
        let shard_count = usize::try_from(header_u64("shards", shard_count)?)
            .map_err(|_| parse_error("shards exceeds the address space"))?;
        let min_cycles = header_u64("min_cycles", min_cycles)?;
        let max_cycles = header_u64("max_cycles", max_cycles)?;

        if period.is_zero() {
            return Err(parse_error("period must be non-zero"));
        }
        if total_frames == 0 {
            return Err(parse_error("a sharded trace needs at least one frame"));
        }
        if frames_per_shard == 0 {
            return Err(parse_error("frames_per_shard must be non-zero"));
        }
        let expected_shards = total_frames.div_ceil(frames_per_shard as u64) as usize;
        if shard_count != expected_shards {
            return Err(parse_error(format!(
                "manifest declares {shard_count} shards but \
                 {total_frames} frames at {frames_per_shard} per shard \
                 need {expected_shards}"
            )));
        }
        for index in 0..shard_count {
            let shard = dir.join(shard_file_name(index));
            if !shard.exists() {
                let missing = "shard file declared in the manifest is missing";
                // A CSV shard in its place marks a directory an older
                // release wrote: say how to regenerate it.
                let reason = if shard.with_extension("csv").exists() {
                    format!(
                        "{missing} (CSV shards are no longer read: re-record \
                         the trace with `qgov record`)"
                    )
                } else {
                    missing.to_owned()
                };
                return Err(WorkloadError::Io {
                    path: shard.display().to_string(),
                    reason,
                });
            }
        }

        Ok(ShardedTrace {
            dir,
            name,
            period,
            total_frames,
            frames_per_shard,
            shard_count,
            min_cycles,
            max_cycles,
            cursor: 0,
            current: None,
            shard_loads: 0,
        })
    }

    /// The directory the shards live in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total recorded frames.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.total_frames
    }

    /// `false`: sharded traces are non-empty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Frames per full shard (the final shard may be shorter).
    #[must_use]
    pub fn frames_per_shard(&self) -> usize {
        self.frames_per_shard
    }

    /// Number of shard files.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Frames currently resident in memory — at most
    /// [`frames_per_shard`](ShardedTrace::frames_per_shard), the
    /// bounded-memory guarantee tests assert.
    #[must_use]
    pub fn resident_frames(&self) -> usize {
        self.current.as_ref().map_or(0, TraceShard::len)
    }

    /// Shard files loaded from disk so far (a replay diagnostic: one
    /// sequential pass loads each shard exactly once).
    #[must_use]
    pub fn shard_loads(&self) -> u64 {
        self.shard_loads
    }

    /// Pre-characterisation workload bounds `(min, max)` in cycles —
    /// the values
    /// [`WorkloadTrace::workload_bounds`](crate::WorkloadTrace::workload_bounds)
    /// gives for the same recording, including its widening of a
    /// constant workload, but computed during recording so no second
    /// pass over the frames is needed.
    #[must_use]
    pub fn workload_bounds(&self) -> (f64, f64) {
        widen_degenerate(self.min_cycles as f64, self.max_cycles as f64)
    }

    /// Index of the shard covering global frame `frame`.
    #[must_use]
    pub fn shard_index_of(&self, frame: u64) -> usize {
        (frame / self.frames_per_shard as u64) as usize
    }

    /// Loads shard `index` from disk, decoding its
    /// [binary body](self#file-format) and validating it against the
    /// manifest (name, period and the exact frame count the geometry
    /// demands — a truncated or padded shard file is rejected here).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Io`] if the file is unreadable,
    /// [`WorkloadError::ParseTraceError`] at line 1 if its header is
    /// malformed or inconsistent with the manifest, and
    /// [`WorkloadError::CorruptShard`] if its body is.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn load_shard(&self, index: usize) -> Result<TraceShard, WorkloadError> {
        assert!(
            index < self.shard_count,
            "shard {index} out of range ({} shards)",
            self.shard_count
        );
        let path = self.dir.join(shard_file_name(index));
        let bytes = fs::read(&path).map_err(|e| WorkloadError::io(&path, &e))?;
        let (name, period, frames) = decode_shard(&bytes)?;
        if name != self.name || period != self.period {
            return Err(parse_error(format!(
                "shard {index} metadata ({name}, {} ns) does not match the \
                 manifest ({}, {} ns)",
                period.as_ns(),
                self.name,
                self.period.as_ns()
            )));
        }
        let start_frame = index as u64 * self.frames_per_shard as u64;
        let expected = (self.total_frames - start_frame).min(self.frames_per_shard as u64);
        if frames.len() as u64 != expected {
            return Err(parse_error(format!(
                "shard {index} holds {} frames but the manifest geometry \
                 expects {expected} (truncated or padded shard file?)",
                frames.len()
            )));
        }
        Ok(TraceShard {
            index,
            start_frame,
            frames,
        })
    }
}

impl Application for ShardedTrace {
    fn name(&self) -> &str {
        &self.name
    }

    fn period(&self) -> SimTime {
        self.period
    }

    fn frames(&self) -> u64 {
        self.total_frames
    }

    /// Replays the recorded frames in order, streaming the shard that
    /// covers the cursor from disk on demand; wraps around at the end
    /// like [`WorkloadTrace`](crate::WorkloadTrace).
    ///
    /// # Panics
    ///
    /// Panics if the shard covering the cursor cannot be loaded
    /// (deleted, truncated or corrupted since
    /// [`open`](ShardedTrace::open) validated the directory) — the
    /// [`Application`] contract has no error channel, and a trace that
    /// changes mid-replay is unrecoverable for a deterministic
    /// experiment anyway. Use [`load_shard`](ShardedTrace::load_shard)
    /// directly to handle shard errors as values.
    fn next_frame(&mut self) -> FrameDemand {
        let mut out = FrameDemand::default();
        self.next_frame_into(&mut out);
        out
    }

    /// Allocation-free streaming replay within a resident shard:
    /// copies the covering frame's thread slice into `out` in place.
    /// Heap activity is confined to shard-boundary loads, O(1)
    /// allocations each; [`next_frame`](Application::next_frame)
    /// delegates here.
    fn next_frame_into(&mut self, out: &mut FrameDemand) {
        let index = self.shard_index_of(self.cursor);
        if self.current.as_ref().is_none_or(|s| s.index() != index) {
            let shard = self.load_shard(index).unwrap_or_else(|e| {
                panic!(
                    "streaming replay of {} failed at frame {}: {e}",
                    self.dir.display(),
                    self.cursor
                )
            });
            self.current = Some(shard);
            self.shard_loads += 1;
        }
        let shard = self.current.as_ref().expect("shard just loaded");
        out.threads.clear();
        out.threads.extend_from_slice(shard.frame(self.cursor));
        self.cursor = (self.cursor + 1) % self.total_frames;
    }

    /// Rewinds to frame zero without touching disk: the resident shard
    /// is kept and simply re-used if it covers the start.
    fn reset(&mut self) {
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SyntheticWorkload, WorkloadTrace};
    use qgov_units::Cycles;

    fn test_dir(tag: &str) -> ScratchDir {
        ScratchDir::unique(&format!("qgov-shard-test-{tag}"))
    }

    fn sample_app(frames: u64) -> SyntheticWorkload {
        SyntheticWorkload::constant(
            "sample",
            Cycles::from_mcycles(5),
            SimTime::from_ms(40),
            frames,
            2,
            3,
        )
        .with_noise(0.1)
        .with_mem_time(SimTime::from_us(500))
    }

    /// A two-frame application whose second frame may break the frame
    /// rule: the built-in models never produce one, but any
    /// [`Application`] can.
    struct BadSecondFrame {
        frames: [FrameDemand; 2],
        cursor: usize,
    }

    impl Application for BadSecondFrame {
        fn name(&self) -> &str {
            "bad"
        }

        fn period(&self) -> SimTime {
            SimTime::from_ms(40)
        }

        fn frames(&self) -> u64 {
            2
        }

        fn next_frame(&mut self) -> FrameDemand {
            let frame = self.frames[self.cursor % 2].clone();
            self.cursor += 1;
            frame
        }

        fn reset(&mut self) {
            self.cursor = 0;
        }
    }

    #[test]
    fn record_creates_expected_geometry() {
        let dir = test_dir("geometry");
        let mut app = sample_app(25);
        let trace = ShardedTrace::record(&mut app, dir.path(), 25, 10).unwrap();
        assert_eq!(trace.len(), 25);
        assert_eq!(trace.frames_per_shard(), 10);
        assert_eq!(trace.shard_count(), 3);
        assert_eq!(trace.load_shard(0).unwrap().len(), 10);
        assert_eq!(trace.load_shard(2).unwrap().len(), 5); // truncated tail
        assert_eq!(trace.load_shard(2).unwrap().start_frame(), 20);
        assert!(dir.path().join(MANIFEST_FILE).exists());
        assert!(dir.path().join(shard_file_name(2)).exists());
        assert!(!dir.path().join(shard_file_name(3)).exists());
    }

    #[test]
    fn streamed_replay_matches_in_memory_replay() {
        let dir = test_dir("replay");
        let mut app = sample_app(23);
        let mut streamed = ShardedTrace::record(&mut app, dir.path(), 23, 7).unwrap();
        let mut whole = WorkloadTrace::record(&mut app);
        // Two full wraps: equality must survive the wrap-around.
        for i in 0..46 {
            assert_eq!(streamed.next_frame(), whole.next_frame(), "frame {i}");
        }
        assert!(streamed.resident_frames() <= 7);
    }

    #[test]
    fn reset_rewinds_and_reuses_resident_shard() {
        let dir = test_dir("reset");
        let mut app = sample_app(12);
        let mut trace = ShardedTrace::record(&mut app, dir.path(), 12, 12).unwrap();
        let first = trace.next_frame();
        for _ in 1..5 {
            trace.next_frame();
        }
        let loads = trace.shard_loads();
        trace.reset();
        assert_eq!(trace.next_frame(), first);
        // Single shard: the reset replay must not reload it.
        assert_eq!(trace.shard_loads(), loads);
    }

    #[test]
    fn sequential_pass_loads_each_shard_once() {
        let dir = test_dir("loads");
        let mut app = sample_app(40);
        let mut trace = ShardedTrace::record(&mut app, dir.path(), 40, 8).unwrap();
        for _ in 0..40 {
            trace.next_frame();
        }
        assert_eq!(trace.shard_loads(), 5);
        assert!(trace.resident_frames() <= 8);
    }

    #[test]
    fn clones_stream_independently() {
        let dir = test_dir("clone");
        let mut app = sample_app(20);
        let mut a = ShardedTrace::record(&mut app, dir.path(), 20, 6).unwrap();
        let mut b = a.clone();
        let first = a.next_frame();
        for _ in 1..15 {
            a.next_frame();
        }
        // b's cursor is untouched by a's replay.
        assert_eq!(b.next_frame(), first);
        assert_eq!(a, b); // identity equality ignores cursors
    }

    #[test]
    fn workload_bounds_widen_degenerate_constant_workloads() {
        let dir = test_dir("bounds");
        let mut app = sample_app(10); // noisy: genuine spread
        let trace = ShardedTrace::record(&mut app, dir.path(), 10, 4).unwrap();
        let (min, max) = trace.workload_bounds();
        let (raw_min, raw_max) = (trace.min_cycles, trace.max_cycles);
        assert!(min < max);
        assert_eq!(min, raw_min as f64);
        assert_eq!(max, raw_max as f64);

        let dir = test_dir("bounds-const");
        let mut constant = SyntheticWorkload::constant(
            "c",
            Cycles::from_mcycles(5),
            SimTime::from_ms(40),
            10,
            2,
            0,
        );
        let trace = ShardedTrace::record(&mut constant, dir.path(), 10, 4).unwrap();
        let (min, max) = trace.workload_bounds();
        let (raw_min, raw_max) = (trace.min_cycles, trace.max_cycles);
        assert_eq!(raw_min, raw_max);
        assert!((min - raw_min as f64 * 0.9).abs() < 1e-6);
        assert!(max > raw_max as f64 * 1.1 - 1e-6);
    }

    #[test]
    fn record_resets_the_app_like_workload_trace() {
        let dir = test_dir("reset-app");
        let mut app = sample_app(8);
        app.next_frame();
        app.next_frame();
        let mut trace = ShardedTrace::record(&mut app, dir.path(), 8, 3).unwrap();
        // App was left reset: its next frame equals the trace's first.
        assert_eq!(app.next_frame(), trace.next_frame());
    }

    #[test]
    fn open_round_trips_the_manifest() {
        let dir = test_dir("open");
        let mut app = sample_app(15);
        let recorded = ShardedTrace::record(&mut app, dir.path(), 15, 4).unwrap();
        let opened = ShardedTrace::open(dir.path()).unwrap();
        assert_eq!(recorded, opened);
        assert_eq!(opened.name(), "sample");
        assert_eq!(opened.period(), SimTime::from_ms(40));
        assert_eq!(
            (opened.min_cycles, opened.max_cycles),
            (recorded.min_cycles, recorded.max_cycles)
        );
    }

    #[test]
    fn open_rejects_missing_and_malformed_manifests() {
        let dir = test_dir("bad-manifest");
        // No directory at all.
        assert!(matches!(
            ShardedTrace::open(dir.path()),
            Err(WorkloadError::Io { .. })
        ));

        fs::create_dir_all(dir.path()).unwrap();
        let manifest = dir.path().join(MANIFEST_FILE);

        // Garbage header.
        fs::write(&manifest, "garbage\n").unwrap();
        assert!(matches!(
            ShardedTrace::open(dir.path()),
            Err(WorkloadError::ParseTraceError { .. })
        ));

        // Zero frames.
        fs::write(
            &manifest,
            "# name=x period_ns=1000 frames=0 frames_per_shard=4 shards=0 \
             min_cycles=0 max_cycles=0\n",
        )
        .unwrap();
        assert!(ShardedTrace::open(dir.path()).is_err());

        // Inconsistent geometry: 10 frames at 4 per shard is 3 shards.
        fs::write(
            &manifest,
            "# name=x period_ns=1000 frames=10 frames_per_shard=4 shards=2 \
             min_cycles=1 max_cycles=2\n",
        )
        .unwrap();
        assert!(ShardedTrace::open(dir.path()).is_err());
    }

    #[test]
    fn headers_take_each_key_once_with_digit_values() {
        let dir = test_dir("header-grammar");
        let mut app = sample_app(1);
        let trace = ShardedTrace::record(&mut app, dir.path(), 1, 4).unwrap();
        let path = dir.path().join(shard_file_name(0));
        let bytes = fs::read(&path).unwrap();
        let (valid, body) = split_line(&bytes);
        assert_eq!(valid, &b"# name=sample period_ns=40000000 frames=1"[..]);
        let mut non_utf8 = valid.to_vec();
        non_utf8[7] = 0xFF;
        for (header, reason) in [
            (
                &b"# name=sample period_ns=40000000 frames=1 frames=1"[..],
                "duplicate metadata key `frames`",
            ),
            (
                &b"# name=sample period_ns=+40000000 frames=1"[..],
                "period_ns is not an integer",
            ),
            (
                &b"# name=sample period_ns=40000000 frames=1 extra=2"[..],
                "unknown metadata key `extra`",
            ),
            (&b"# name=sample frames=1"[..], "missing period_ns"),
            (&non_utf8[..], "metadata header is not UTF-8"),
            (
                &b"# name=sample period_ns=0 frames=1"[..],
                "period must be non-zero",
            ),
        ] {
            let file = [header, b"\n", body].concat();
            fs::write(&path, &file).unwrap();
            match trace.load_shard(0) {
                Err(WorkloadError::ParseTraceError {
                    line: 1,
                    reason: got,
                }) => {
                    assert_eq!(got, reason);
                }
                other => panic!(
                    "{:?}: expected a parse error at line 1, got {other:?}",
                    String::from_utf8_lossy(header)
                ),
            }
        }
    }

    #[test]
    fn open_rejects_missing_shard_files() {
        let dir = test_dir("missing-shard");
        let mut app = sample_app(12);
        let _ = ShardedTrace::record(&mut app, dir.path(), 12, 4).unwrap();
        fs::remove_file(dir.path().join(shard_file_name(1))).unwrap();
        assert!(matches!(
            ShardedTrace::open(dir.path()),
            Err(WorkloadError::Io { .. })
        ));
    }

    #[test]
    fn csv_shard_directories_must_be_re_recorded() {
        // The layout older releases wrote: a manifest and CSV shards.
        let dir = test_dir("csv-layout");
        let mut app = sample_app(4);
        let _ = ShardedTrace::record(&mut app, dir.path(), 4, 4).unwrap();
        let bin = dir.path().join(shard_file_name(0));
        fs::rename(&bin, dir.path().join("shard-000000.csv")).unwrap();
        match ShardedTrace::open(dir.path()) {
            Err(WorkloadError::Io { path, reason }) => {
                assert_eq!(path, bin.display().to_string());
                assert!(reason.contains("re-record the trace"), "{reason}");
            }
            other => panic!("expected an I/O error, got {other:?}"),
        }
    }

    #[test]
    fn a_lost_binary_shard_is_named_without_the_csv_hint() {
        let dir = test_dir("lost-shard");
        let mut app = sample_app(50);
        let _ = ShardedTrace::record(&mut app, dir.path(), 50, 20).unwrap();
        let lost = dir.path().join(shard_file_name(1));
        fs::remove_file(&lost).unwrap();
        match ShardedTrace::open(dir.path()) {
            Err(WorkloadError::Io { path, reason }) => {
                assert_eq!(path, lost.display().to_string());
                assert_eq!(reason, "shard file declared in the manifest is missing");
            }
            other => panic!("expected an I/O error, got {other:?}"),
        }
    }

    #[test]
    fn writer_and_loader_refuse_the_same_frames() {
        let cpu = |cycles: &[u64]| {
            FrameDemand::new(
                cycles
                    .iter()
                    .map(|&c| ThreadDemand::cpu_only(Cycles::new(c)))
                    .collect(),
            )
        };
        let mem = |ns: &[u64]| {
            FrameDemand::new(
                ns.iter()
                    .map(|&n| ThreadDemand::new(Cycles::new(1), SimTime::from_ns(n)))
                    .collect(),
            )
        };
        for (bad, reason) in [
            (cpu(&[u64::MAX, 1]), "cpu_cycles total overflows u64"),
            (mem(&[u64::MAX, 1]), "mem_ns total overflows u64"),
            (FrameDemand::default(), "no threads"),
        ] {
            // Recording stops at the frame with a typed error naming it.
            let dir = test_dir("bad-frame");
            let mut app = BadSecondFrame {
                frames: [cpu(&[7, 3]), bad.clone()],
                cursor: 0,
            };
            match ShardedTrace::record(&mut app, dir.path(), 2, 4) {
                Err(WorkloadError::InvalidFrame {
                    frame: 1,
                    reason: got,
                }) => {
                    assert!(got.contains(reason), "{got}");
                }
                other => panic!("{bad:?}: expected InvalidFrame, got {other:?}"),
            }

            // The writer refuses the frame with a typed error naming it,
            // and leaves the buffer and the bounds as they were: the
            // shard holds the good frame alone.
            let mut writer =
                ShardWriter::create(dir.path(), "bad", SimTime::from_ms(40), 4).unwrap();
            writer.push(&cpu(&[7, 3])).unwrap();
            match writer.push(&bad) {
                Err(WorkloadError::InvalidFrame {
                    frame: 1,
                    reason: got,
                }) => {
                    assert!(got.contains(reason), "{got}");
                }
                other => panic!("{bad:?}: expected InvalidFrame, got {other:?}"),
            }
            assert_eq!(writer.frames_written, 1);
            let trace = writer.finish().unwrap();
            assert_eq!((trace.min_cycles, trace.max_cycles), (10, 10));
            assert_eq!(trace.load_shard(0).unwrap().frame(0), cpu(&[7, 3]).threads);

            // The loader refuses the same frame, encoded by hand, at
            // its thread count's offset.
            let mut bytes = header_line("bad", SimTime::from_ms(40), 1).into_bytes();
            let offset = bytes.len() as u64;
            bytes.extend_from_slice(&(bad.threads.len() as u64).to_le_bytes());
            for t in &bad.threads {
                bytes.extend_from_slice(&t.cpu_cycles.count().to_le_bytes());
                bytes.extend_from_slice(&t.mem_time.as_ns().to_le_bytes());
            }
            fs::write(dir.path().join(shard_file_name(0)), bytes).unwrap();
            match trace.load_shard(0) {
                Err(WorkloadError::CorruptShard {
                    offset: at,
                    reason: got,
                }) => {
                    assert_eq!(at, offset);
                    assert!(got.starts_with("frame 0: "), "{got}");
                    assert!(bad.threads.is_empty() || got.contains(reason), "{got}");
                }
                other => panic!("{bad:?}: expected CorruptShard, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frame_record_panics() {
        let dir = test_dir("zero");
        let mut app = sample_app(5);
        let _ = ShardedTrace::record(&mut app, dir.path(), 0, 4);
    }

    #[test]
    #[should_panic(expected = "without whitespace")]
    fn whitespace_in_workload_name_is_rejected_before_any_io() {
        // The name is embedded in space-delimited metadata lines: a name
        // like "my app" would corrupt the manifest the writer is about
        // to produce, so it must fail up front, not after shard I/O.
        let _ = ShardWriter::create(
            std::env::temp_dir().join("qgov-shard-bad-name"),
            "my app",
            SimTime::from_ms(1),
            4,
        );
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_shard_size_panics() {
        let _ = ShardWriter::create(
            std::env::temp_dir().join("qgov-shard-zero-size"),
            "x",
            SimTime::from_ms(1),
            0,
        );
    }

    #[test]
    #[should_panic(expected = "streaming replay")]
    fn replay_panics_when_a_shard_vanishes_mid_run() {
        let dir = test_dir("vanish");
        let mut app = sample_app(12);
        let mut trace = ShardedTrace::record(&mut app, dir.path(), 12, 4).unwrap();
        trace.next_frame();
        fs::remove_file(dir.path().join(shard_file_name(1))).unwrap();
        for _ in 0..8 {
            trace.next_frame();
        }
    }
}
