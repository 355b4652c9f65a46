//! Workload trace record and replay, and the trace CSV document codec.
//!
//! The Oracle baseline of Table I requires "offline determination of
//! optimized V-F for the observed CPU workloads": it must see the exact
//! per-frame demands before choosing operating points. Recording any
//! [`Application`] into a [`WorkloadTrace`] provides that offline view,
//! and replaying the trace guarantees every governor is evaluated on the
//! *identical* frame sequence.
//!
//! This module also holds the trace CSV codec, the human-readable
//! whole-trace interchange: [`read_csv`] and [`write_csv`] sit behind
//! [`WorkloadTrace::from_csv`] and [`WorkloadTrace::to_csv`]. The shard
//! files of [`crate::shard`] share its metadata header line
//! ([`read_header`], [`header_line`]) and store their frames in binary.

use crate::{Application, FrameDemand, ThreadDemand, WorkloadError};
use qgov_units::{Cycles, SimTime};

/// The column header, line 2 of every trace document.
const COLUMNS: &str = "frame,thread,cpu_cycles,mem_ns";
/// The row fields, in column order.
const FIELDS: [&str; 4] = ["frame index", "thread index", "cpu_cycles", "mem_ns"];

fn parse_error(line: usize, reason: impl Into<String>) -> WorkloadError {
    WorkloadError::ParseTraceError {
        line,
        reason: reason.into(),
    }
}

/// Reads the run of ASCII digits at `bytes[*pos..]` as a `u64` and
/// advances `pos` past it. The error completes "<field> …": an empty
/// run "is not an integer", a value above `u64::MAX` "overflows u64".
fn read_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, &'static str> {
    let start = *pos;
    let mut value = 0u64;
    while let Some(&byte) = bytes.get(*pos) {
        let digit = byte.wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        value = value
            .checked_mul(10)
            .and_then(|v| v.checked_add(u64::from(digit)))
            .ok_or("overflows u64")?;
        *pos += 1;
    }
    if *pos == start {
        Err("is not an integer")
    } else {
        Ok(value)
    }
}

/// Splits `bytes` after its first line: the line without its LF or
/// CRLF ending, and everything after the ending.
pub(crate) fn split_line(bytes: &[u8]) -> (&[u8], &[u8]) {
    match bytes.iter().position(|&b| b == b'\n') {
        Some(end) => {
            let line = &bytes[..end];
            (line.strip_suffix(b"\r").unwrap_or(line), &bytes[end + 1..])
        }
        None => (bytes, &[]),
    }
}

/// Parses a `# key=value key=value …` metadata line, the first line of
/// a trace document, a shard file and a shard manifest, into the values
/// of `keys` in that order. Every key must appear exactly once and no
/// other key may appear; errors point at line 1.
pub(crate) fn header_values<'a, const N: usize>(
    line: &'a [u8],
    keys: [&str; N],
) -> Result<[&'a str; N], WorkloadError> {
    let header = std::str::from_utf8(line)
        .map_err(|_| parse_error(1, "metadata header is not UTF-8"))?
        .strip_prefix("# ")
        .ok_or_else(|| parse_error(1, "missing `# ` metadata header"))?;
    let mut found = [None; N];
    for field in header.split_whitespace() {
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| parse_error(1, "metadata field without `=`"))?;
        let slot = keys
            .iter()
            .position(|&k| k == key)
            .ok_or_else(|| parse_error(1, format!("unknown metadata key `{key}`")))?;
        if found[slot].replace(value).is_some() {
            return Err(parse_error(1, format!("duplicate metadata key `{key}`")));
        }
    }
    let mut values = [""; N];
    for ((value, found), key) in values.iter_mut().zip(found).zip(keys) {
        *value = found.ok_or_else(|| parse_error(1, format!("missing {key}")))?;
    }
    Ok(values)
}

/// A header value as a `u64`, by the same digit grammar as the rows.
pub(crate) fn header_u64(key: &str, value: &str) -> Result<u64, WorkloadError> {
    let mut pos = 0;
    match read_u64(value.as_bytes(), &mut pos) {
        Ok(n) if pos == value.len() => Ok(n),
        Ok(_) => Err(parse_error(1, format!("{key} is not an integer"))),
        Err(reason) => Err(parse_error(1, format!("{key} {reason}"))),
    }
}

/// The metadata line that opens a trace document and a shard file,
/// ending in LF.
pub(crate) fn header_line(name: &str, period: SimTime, frames: usize) -> String {
    format!(
        "# name={name} period_ns={} frames={frames}\n",
        period.as_ns()
    )
}

/// Parses a [`header_line`] (without its line ending) into the name,
/// the non-zero period and the declared frame count.
pub(crate) fn read_header(line: &[u8]) -> Result<(&str, SimTime, u64), WorkloadError> {
    let [name, period_ns, frames] = header_values(line, ["name", "period_ns", "frames"])?;
    let period = SimTime::from_ns(header_u64("period_ns", period_ns)?);
    let frames = header_u64("frames", frames)?;
    if period.is_zero() {
        return Err(parse_error(1, "period must be non-zero"));
    }
    Ok((name, period, frames))
}

/// Reads one row at `rows[*pos..]`, advancing `pos` past its line
/// ending, into its four field values.
fn read_row(rows: &[u8], pos: &mut usize) -> Result<[u64; 4], String> {
    let mut values = [0u64; 4];
    for (i, (value, what)) in values.iter_mut().zip(FIELDS).enumerate() {
        *value = read_u64(rows, pos).map_err(|reason| format!("{what} {reason}"))?;
        let last = i + 1 == FIELDS.len();
        match rows.get(*pos) {
            Some(b',') if !last => *pos += 1,
            Some(b',') => return Err("a row has more than four fields".to_owned()),
            Some(b'\n' | b'\r') | None if !last => {
                return Err(format!("missing {}", FIELDS[i + 1]));
            }
            Some(b'\n') => *pos += 1,
            Some(b'\r') if rows.get(*pos + 1) == Some(&b'\n') => *pos += 2,
            None => {}
            Some(_) => return Err(format!("{what} is not an integer")),
        }
    }
    Ok(values)
}

/// Reads a trace CSV document ([grammar](WorkloadTrace#csv-format)) in
/// one pass over its bytes: the header's name and period, and the frames.
pub(crate) fn read_csv(bytes: &[u8]) -> Result<(&str, SimTime, Vec<FrameDemand>), WorkloadError> {
    if bytes.is_empty() {
        return Err(parse_error(1, "empty document"));
    }
    let (header, rest) = split_line(bytes);
    let (name, period, frame_count) = read_header(header)?;
    if rest.is_empty() {
        return Err(parse_error(2, "missing column header"));
    }
    let (columns, rows) = split_line(rest);
    if columns != COLUMNS.as_bytes() {
        return Err(parse_error(2, "unexpected column header"));
    }
    if frame_count == 0 {
        return Err(parse_error(1, "a trace needs at least one frame"));
    }
    // Every frame needs a data row of at least eight bytes (`0,0,0,0`
    // and its newline), so the document's length bounds the allocation
    // a header may ask for without a second pass.
    let frame_count = usize::try_from(frame_count)
        .ok()
        .filter(|&n| n <= bytes.len() / 8)
        .ok_or_else(|| parse_error(1, "frames exceeds what the document can hold"))?;

    let mut frames: Vec<FrameDemand> = Vec::with_capacity(frame_count);
    // The running cycle and memory-time totals of the last frame.
    let (mut open_cycles, mut open_mem_ns) = (0u64, 0u64);
    let (mut pos, mut line) = (0, 3);
    while pos < rows.len() {
        let [frame, thread, cycles, mem_ns] =
            read_row(rows, &mut pos).map_err(|reason| parse_error(line, reason))?;
        if frame >= frame_count as u64 {
            return Err(parse_error(line, "frame index beyond declared frame count"));
        }
        // A row either opens the next frame or continues the last one.
        let started = frames.len() as u64;
        if frame == started {
            frames.push(FrameDemand::default());
            (open_cycles, open_mem_ns) = (0, 0);
        } else if frame + 1 != started {
            return Err(parse_error(line, "frame index out of order"));
        }
        let threads = &mut frames[frame as usize].threads;
        if thread != threads.len() as u64 {
            return Err(parse_error(
                line,
                "thread indices must be consecutive from 0",
            ));
        }
        // Replay sums a frame's threads onto its cores, so the frame's
        // totals must fit in a `u64` as well as each row.
        open_cycles = open_cycles
            .checked_add(cycles)
            .ok_or_else(|| parse_error(line, "the frame's cpu_cycles total overflows u64"))?;
        open_mem_ns = open_mem_ns
            .checked_add(mem_ns)
            .ok_or_else(|| parse_error(line, "the frame's mem_ns total overflows u64"))?;
        threads.push(ThreadDemand::new(
            Cycles::new(cycles),
            SimTime::from_ns(mem_ns),
        ));
        line += 1;
    }
    if frames.len() != frame_count {
        return Err(parse_error(
            1,
            format!(
                "header declares {frame_count} frames but the document holds {}",
                frames.len()
            ),
        ));
    }
    Ok((name, period, frames))
}

/// Number of decimal digits in `n`.
fn decimal_len(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |log| log as usize + 1)
}

/// The decimal digit pairs "00", "01", …, "99", back to back.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Appends `n` in decimal, two digits per division.
fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    while n >= 10 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        start -= 2;
        digits[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n > 0 || start == digits.len() {
        start -= 1;
        digits[start] = b'0' + n as u8;
    }
    out.extend_from_slice(&digits[start..]);
}

/// Writes `frames` as a trace CSV document, behind
/// [`WorkloadTrace::to_csv`]. The integers go straight into one buffer,
/// sized exactly before the first byte.
pub(crate) fn write_csv(name: &str, period: SimTime, frames: &[FrameDemand]) -> Vec<u8> {
    let header = header_line(name, period, frames.len()) + COLUMNS + "\n";
    let rows = frames.iter().enumerate().flat_map(|(fi, frame)| {
        frame
            .threads
            .iter()
            .enumerate()
            .map(move |(ti, t)| (fi as u64, ti as u64, t))
    });
    let len = rows
        .clone()
        .map(|(fi, ti, t)| {
            decimal_len(fi)
                + decimal_len(ti)
                + decimal_len(t.cpu_cycles.count())
                + decimal_len(t.mem_time.as_ns())
                + 4
        })
        .sum::<usize>();
    let mut out = Vec::with_capacity(header.len() + len);
    out.extend_from_slice(header.as_bytes());
    for (fi, ti, t) in rows {
        for (value, end) in [
            (fi, b','),
            (ti, b','),
            (t.cpu_cycles.count(), b','),
            (t.mem_time.as_ns(), b'\n'),
        ] {
            push_u64(&mut out, value);
            out.push(end);
        }
    }
    out
}

/// A fully materialised frame sequence with its deadline, replayable as
/// an [`Application`] and round-trippable through CSV.
///
/// # CSV format
///
/// The human-readable whole-trace interchange, written by
/// [`to_csv`](WorkloadTrace::to_csv) and read by
/// [`from_csv`](WorkloadTrace::from_csv). (The shard files of
/// [`ShardedTrace`](crate::ShardedTrace) open with the same header line
/// and store their frames in [binary](crate::shard#file-format).)
///
/// ```text
/// # name=<name> period_ns=<u64> frames=<u64>
/// frame,thread,cpu_cycles,mem_ns
/// <frame>,<thread>,<cpu_cycles>,<mem_ns>
/// ...
/// ```
///
/// A row is four fields of ASCII digits, each a `u64` (no sign, no
/// spaces), separated by commas and ended by LF, CRLF or the end of the
/// document. Rows come in frame-major order: frame indices run 0, 1, 2,
/// … with no gap, and within a frame the thread indices run from 0.
/// Each header key appears exactly once, and the numeric header values
/// use the same digit grammar. Anything else is a
/// [`WorkloadError::ParseTraceError`] at its line.
///
/// # Examples
///
/// ```
/// use qgov_workloads::{Application, SyntheticWorkload, WorkloadTrace};
/// use qgov_units::{Cycles, SimTime};
///
/// let mut app = SyntheticWorkload::constant(
///     "c", Cycles::from_mcycles(8), SimTime::from_ms(40), 20, 4, 0,
/// );
/// let trace = WorkloadTrace::record(&mut app);
/// assert_eq!(trace.len(), 20);
///
/// // CSV round-trip preserves everything.
/// let csv = trace.to_csv();
/// let back = WorkloadTrace::from_csv(&csv).unwrap();
/// assert_eq!(trace, back);
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadTrace {
    name: String,
    period: SimTime,
    frames: Vec<FrameDemand>,
    cursor: usize,
}

/// Trace equality compares the recorded *data* (name, period, frames);
/// the replay cursor is iteration state, not content, so a partially
/// replayed trace still equals its freshly parsed CSV round-trip.
impl PartialEq for WorkloadTrace {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.period == other.period && self.frames == other.frames
    }
}

impl Eq for WorkloadTrace {}

impl WorkloadTrace {
    /// Creates a trace from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty or `period` is zero.
    #[must_use]
    pub fn from_frames(name: impl Into<String>, period: SimTime, frames: Vec<FrameDemand>) -> Self {
        assert!(!frames.is_empty(), "a trace needs at least one frame");
        assert!(!period.is_zero(), "period must be non-zero");
        WorkloadTrace {
            name: name.into(),
            period,
            frames,
            cursor: 0,
        }
    }

    /// Records the full run of `app` (resetting it first so the trace
    /// starts at frame zero; the application is left reset afterwards,
    /// ready for a live run on the same sequence).
    #[must_use]
    pub fn record(app: &mut dyn Application) -> Self {
        app.reset();
        let frames = (0..app.frames()).map(|_| app.next_frame()).collect();
        let trace = WorkloadTrace {
            name: app.name().to_owned(),
            period: app.period(),
            frames,
            cursor: 0,
        };
        app.reset();
        trace
    }

    /// Number of frames in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `false`: traces are non-empty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The recorded frames.
    #[must_use]
    pub fn frame_demands(&self) -> &[FrameDemand] {
        &self.frames
    }

    /// Total cycles of frame `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn total_cycles(&self, index: usize) -> Cycles {
        self.frames[index].total_cycles()
    }

    /// Pre-characterisation workload bounds `(min, max)`: the smallest
    /// and largest total cycles of any frame. A constant workload
    /// (`min == max`) is widened to `(0.9·min, (1.1 + 10⁻⁹)·max)`, so
    /// the range a learning governor bins is never empty.
    #[must_use]
    pub fn workload_bounds(&self) -> (f64, f64) {
        let mut min = f64::INFINITY;
        let mut max: f64 = 0.0;
        for frame in &self.frames {
            let c = frame.total_cycles().count() as f64;
            min = min.min(c);
            max = max.max(c);
        }
        widen_degenerate(min, max)
    }

    /// Serialises to a self-describing CSV document in the
    /// [CSV format](WorkloadTrace#csv-format).
    #[must_use]
    pub fn to_csv(&self) -> String {
        String::from_utf8(write_csv(&self.name, self.period, &self.frames))
            .expect("the writer emits the UTF-8 name and ASCII otherwise")
    }

    /// Parses a document produced by [`to_csv`](WorkloadTrace::to_csv).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::ParseTraceError`] with a line number on
    /// any input outside the [CSV format](WorkloadTrace#csv-format),
    /// including a header that declares zero frames or more frames than
    /// the document is long enough to hold.
    pub fn from_csv(text: &str) -> Result<Self, WorkloadError> {
        let (name, period, frames) = read_csv(text.as_bytes())?;
        Ok(WorkloadTrace {
            name: name.to_owned(),
            period,
            frames,
            cursor: 0,
        })
    }
}

/// The workload-bounds rule shared by [`WorkloadTrace::workload_bounds`]
/// and [`ShardedTrace::workload_bounds`](crate::ShardedTrace::workload_bounds):
/// a degenerate range (`min >= max`, a constant workload) widens to
/// `(0.9·min, (1.1 + 10⁻⁹)·max)`.
pub(crate) fn widen_degenerate(min: f64, max: f64) -> (f64, f64) {
    if min >= max {
        (min * 0.9, max * (1.1 + 1e-9))
    } else {
        (min, max)
    }
}

impl Application for WorkloadTrace {
    fn name(&self) -> &str {
        &self.name
    }

    fn period(&self) -> SimTime {
        self.period
    }

    fn frames(&self) -> u64 {
        self.frames.len() as u64
    }

    /// Replays the recorded frames in order; wraps around at the end
    /// (replay beyond the recorded length repeats the sequence).
    fn next_frame(&mut self) -> FrameDemand {
        let mut out = FrameDemand::default();
        self.next_frame_into(&mut out);
        out
    }

    /// Allocation-free replay: refills `out` from the current frame in
    /// place (the harness's steady-state path);
    /// [`next_frame`](Application::next_frame) delegates here.
    fn next_frame_into(&mut self, out: &mut FrameDemand) {
        out.copy_from(&self.frames[self.cursor]);
        self.cursor = (self.cursor + 1) % self.frames.len();
    }

    fn reset(&mut self) {
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SyntheticWorkload, VideoDecoderModel};

    fn sample_app() -> SyntheticWorkload {
        SyntheticWorkload::constant(
            "sample",
            Cycles::from_mcycles(5),
            SimTime::from_ms(40),
            6,
            2,
            3,
        )
        .with_noise(0.1)
        .with_mem_time(SimTime::from_us(500))
    }

    #[test]
    fn record_captures_whole_run_and_resets_app() {
        let mut app = sample_app();
        // Burn a few frames first: record must rewind to frame 0.
        app.next_frame();
        app.next_frame();
        let trace = WorkloadTrace::record(&mut app);
        assert_eq!(trace.len(), 6);
        // App was reset: its next frame equals the trace's first.
        assert_eq!(app.next_frame(), trace.frame_demands()[0]);
    }

    #[test]
    fn replay_matches_live_run_exactly() {
        let mut app = sample_app();
        let mut trace = WorkloadTrace::record(&mut app);
        app.reset();
        for _ in 0..6 {
            assert_eq!(trace.next_frame(), app.next_frame());
        }
    }

    #[test]
    fn replay_wraps_around() {
        let mut app = sample_app();
        let mut trace = WorkloadTrace::record(&mut app);
        let first = trace.next_frame();
        for _ in 1..6 {
            trace.next_frame();
        }
        assert_eq!(trace.next_frame(), first);
    }

    #[test]
    fn csv_round_trip_is_lossless() {
        let mut app = sample_app();
        let trace = WorkloadTrace::record(&mut app);
        let back = WorkloadTrace::from_csv(&trace.to_csv()).unwrap();
        assert_eq!(trace, back);
        assert_eq!(back.period(), SimTime::from_ms(40));
        assert_eq!(back.name(), "sample");
    }

    #[test]
    fn csv_round_trip_on_video_workload() {
        let mut app = VideoDecoderModel::mpeg4_svga_24fps(1).with_frames(25);
        let trace = WorkloadTrace::record(&mut app);
        let back = WorkloadTrace::from_csv(&trace.to_csv()).unwrap();
        assert_eq!(trace, back);
    }

    /// The located error `from_csv` gives a document declaring `frames`
    /// frames with data rows `rows`.
    fn row_error(frames: usize, rows: &str) -> (usize, String) {
        let text = format!(
            "# name=x period_ns=1000000 frames={frames}\n\
             frame,thread,cpu_cycles,mem_ns\n{rows}"
        );
        match WorkloadTrace::from_csv(&text) {
            Err(WorkloadError::ParseTraceError { line, reason }) => (line, reason),
            other => panic!("{rows:?}: expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        // Bad metadata.
        let e = WorkloadTrace::from_csv("garbage").unwrap_err();
        assert!(matches!(e, WorkloadError::ParseTraceError { line: 1, .. }));

        // One row, line 3 of a one-frame document, and why it fails.
        for (row, reason) in [
            ("0,0,notanumber,0", "cpu_cycles is not an integer"),
            ("0,0,18446744073709551616,0", "cpu_cycles overflows u64"),
            ("0,0,10,18446744073709551616", "mem_ns overflows u64"),
            ("0,0,10,0,9", "a row has more than four fields"),
            ("0,0,10,0,", "a row has more than four fields"),
            ("0,0, 10,0", "cpu_cycles is not an integer"),
            ("0,0,10 ,0", "cpu_cycles is not an integer"),
            ("0,0,+10,0", "cpu_cycles is not an integer"),
            ("0,0,10", "missing mem_ns"),
            ("5,0,10,0", "frame index beyond declared frame count"),
            ("1,0,10,0", "frame index beyond declared frame count"),
        ] {
            let got = row_error(1, &format!("{row}\n"));
            assert_eq!(got, (3, reason.to_owned()), "{row:?}");
        }
        // A bare CR is no line ending.
        let got = row_error(1, "0,0,10,0\r");
        assert_eq!(got, (3, "mem_ns is not an integer".to_owned()));
        // Rows of a three-frame document: the error sits on the first
        // bad one.
        for (rows, line, reason) in [
            ("1,0,1,0\n", 3, "frame index out of order"),
            ("0,0,1,0\n1,0,1,0\n0,1,1,0\n", 5, "out of order"),
            ("0,0,1,0\n2,0,1,0\n", 4, "frame index out of order"),
            ("0,0,1,0\n0,2,1,0\n", 4, "consecutive from 0"),
            ("0,0,1,0\n\n", 4, "frame index is not an integer"),
            // A row that pushes its frame's total past u64::MAX.
            (
                "0,0,1,0\n0,1,18446744073709551615,0\n",
                4,
                "cpu_cycles total overflows",
            ),
            (
                "0,0,1,0\n1,0,1,18446744073709551615\n1,1,0,1\n",
                5,
                "mem_ns total overflows",
            ),
            ("0,0,1,0\n", 1, "declares 3 frames but the document holds 1"),
        ] {
            let (got_line, got_reason) = row_error(3, rows);
            assert!(
                got_line == line && got_reason.contains(reason),
                "{rows:?}: line {got_line}: {got_reason}"
            );
        }
    }

    #[test]
    fn crlf_documents_parse_equal_to_their_lf_twins() {
        let lf = WorkloadTrace::record(&mut sample_app()).to_csv();
        let crlf = lf.replace('\n', "\r\n");
        let expected = WorkloadTrace::from_csv(&lf).unwrap();
        assert_eq!(WorkloadTrace::from_csv(&crlf).unwrap(), expected);
        // The last row's line ending is optional.
        for text in [&lf, &crlf] {
            let unterminated = text.trim_end_matches(['\r', '\n']);
            assert_eq!(WorkloadTrace::from_csv(unterminated).unwrap(), expected);
        }
    }

    #[test]
    fn headers_take_each_key_once_with_digit_values() {
        for header in [
            "# name=x period_ns=1000000 frames=1 frames=1",
            "# name=x period_ns=+1000000 frames=1",
            "# name=x period_ns=1000000 frames=1 extra=2",
            "# name=x frames=1",
        ] {
            let text = format!("{header}\nframe,thread,cpu_cycles,mem_ns\n0,0,10,0\n");
            let e = WorkloadTrace::from_csv(&text).unwrap_err();
            assert!(
                matches!(e, WorkloadError::ParseTraceError { line: 1, .. }),
                "{header}: {e}"
            );
        }
        // A byte that is not UTF-8 in the header is located, too.
        let mut bytes = b"# name=x period_ns=1000000 frames=1\n".to_vec();
        bytes[7] = 0xFF;
        let e = read_csv(&bytes).unwrap_err();
        assert!(matches!(e, WorkloadError::ParseTraceError { line: 1, .. }));
    }

    #[test]
    fn writer_sizes_its_buffer_exactly() {
        let trace = WorkloadTrace::record(&mut sample_app());
        let csv = write_csv(&trace.name, trace.period, &trace.frames);
        assert_eq!(csv.len(), csv.capacity());
        for n in [0, 9, 10, 99, 100, 12_345, u64::MAX] {
            let mut out = Vec::new();
            push_u64(&mut out, n);
            assert_eq!(out, n.to_string().as_bytes());
            assert_eq!(decimal_len(n), out.len());
        }
    }

    #[test]
    fn header_frame_counts_are_bounded_by_the_document() {
        // Counts the document is too short to hold are rejected at the
        // header line before anything is allocated: the largest `usize`
        // would overflow the frame vector's capacity, and a large count
        // that fits would abort the process when the allocation fails.
        for frames in [u64::MAX, 1 << 40, 12] {
            let text = format!(
                "# name=x period_ns=1000000 frames={frames}\n\
                 frame,thread,cpu_cycles,mem_ns\n\
                 0,0,10,0\n"
            );
            let e = WorkloadTrace::from_csv(&text).unwrap_err();
            assert!(
                matches!(e, WorkloadError::ParseTraceError { line: 1, .. }),
                "frames={frames}: {e}"
            );
        }
        let e = WorkloadTrace::from_csv(
            "# name=x period_ns=1000000 frames=0\nframe,thread,cpu_cycles,mem_ns\n",
        )
        .unwrap_err();
        assert!(matches!(e, WorkloadError::ParseTraceError { line: 1, .. }));
        // Two threads of one frame: more rows than frames is fine.
        let text = "# name=x period_ns=1000000 frames=1\n\
                    frame,thread,cpu_cycles,mem_ns\n\
                    0,0,10,0\n\
                    0,1,20,0\n";
        assert_eq!(WorkloadTrace::from_csv(text).unwrap().len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn empty_trace_panics() {
        let _ = WorkloadTrace::from_frames("x", SimTime::from_ms(1), vec![]);
    }
}
