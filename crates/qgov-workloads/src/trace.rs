//! Workload trace record and replay.
//!
//! The Oracle baseline of Table I requires "offline determination of
//! optimized V-F for the observed CPU workloads": it must see the exact
//! per-frame demands before choosing operating points. Recording any
//! [`Application`] into a [`WorkloadTrace`] provides that offline view,
//! and replaying the trace guarantees every governor is evaluated on the
//! *identical* frame sequence.

use crate::{Application, FrameDemand, ThreadDemand, WorkloadError};
use qgov_units::{Cycles, SimTime};

/// Splits a `# key=value key=value …` metadata header line into its
/// fields — the one parser behind both the per-trace CSV header
/// ([`WorkloadTrace::from_csv`]) and the sharded-trace manifest
/// (`crate::shard`). `err` wraps a reason into the caller's error
/// (carrying its own line-number context).
pub(crate) fn header_fields<'a>(
    line: Option<&'a str>,
    err: &dyn Fn(&str) -> WorkloadError,
) -> Result<Vec<(&'a str, &'a str)>, WorkloadError> {
    let header = line
        .and_then(|l| l.strip_prefix("# "))
        .ok_or_else(|| err("missing `# ` metadata header"))?;
    header
        .split_whitespace()
        .map(|field| {
            field
                .split_once('=')
                .ok_or_else(|| err("metadata field without `=`"))
        })
        .collect()
}

/// A fully materialised frame sequence with its deadline, replayable as
/// an [`Application`] and round-trippable through CSV.
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

    /// Consumes the trace into its recorded frames (the sharded
    /// streaming layer parses each shard file through
    /// [`WorkloadTrace::from_csv`] and keeps only the frames).
    #[must_use]
    pub fn into_frames(self) -> Vec<FrameDemand> {
        self.frames
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

    /// Serialises to a self-describing CSV document.
    #[must_use]
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# name={} period_ns={} frames={}",
            self.name,
            self.period.as_ns(),
            self.frames.len()
        );
        let _ = writeln!(out, "frame,thread,cpu_cycles,mem_ns");
        for (fi, frame) in self.frames.iter().enumerate() {
            for (ti, t) in frame.threads.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{fi},{ti},{},{}",
                    t.cpu_cycles.count(),
                    t.mem_time.as_ns()
                );
            }
        }
        out
    }

    /// Parses a document produced by [`to_csv`](WorkloadTrace::to_csv).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::ParseTraceError`] with a line number on
    /// any malformed input, including a header that declares zero
    /// frames or more frames than the document is long enough to hold.
    pub fn from_csv(text: &str) -> Result<Self, WorkloadError> {
        let err = |line: usize, reason: &str| WorkloadError::ParseTraceError {
            line,
            reason: reason.to_owned(),
        };
        let mut lines = text.lines().enumerate();

        // Header line: "# name=<..> period_ns=<..> frames=<..>".
        let (hno, header) = lines.next().ok_or_else(|| err(1, "empty document"))?;
        let mut name = None;
        let mut period = None;
        let mut frame_count = None;
        for (key, value) in
            crate::trace::header_fields(Some(header), &|reason| err(hno + 1, reason))?
        {
            match key {
                "name" => name = Some(value.to_owned()),
                "period_ns" => {
                    period = Some(SimTime::from_ns(
                        value
                            .parse()
                            .map_err(|_| err(hno + 1, "period_ns is not an integer"))?,
                    ));
                }
                "frames" => {
                    frame_count = Some(
                        value
                            .parse::<usize>()
                            .map_err(|_| err(hno + 1, "frames is not an integer"))?,
                    );
                }
                _ => return Err(err(hno + 1, "unknown metadata key")),
            }
        }
        let name = name.ok_or_else(|| err(hno + 1, "missing name"))?;
        let period = period.ok_or_else(|| err(hno + 1, "missing period_ns"))?;
        let frame_count = frame_count.ok_or_else(|| err(hno + 1, "missing frames"))?;
        if period.is_zero() {
            return Err(err(hno + 1, "period must be non-zero"));
        }

        // Column header.
        let (cno, columns) = lines
            .next()
            .ok_or_else(|| err(2, "missing column header"))?;
        if columns != "frame,thread,cpu_cycles,mem_ns" {
            return Err(err(cno + 1, "unexpected column header"));
        }

        if frame_count == 0 {
            return Err(err(hno + 1, "a trace needs at least one frame"));
        }
        // Every frame needs a data row of at least eight bytes
        // (`0,0,0,0` and its newline), so the document's length bounds
        // the allocation a header may ask for without a second pass.
        if frame_count > text.len() / 8 {
            return Err(err(hno + 1, "frames exceeds what the document can hold"));
        }
        let mut frames: Vec<FrameDemand> = vec![FrameDemand::default(); frame_count];
        for (lno, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            let mut parts = line.split(',');
            let mut next_u64 = |what: &str| -> Result<u64, WorkloadError> {
                parts
                    .next()
                    .ok_or_else(|| err(lno + 1, &format!("missing {what}")))?
                    .trim()
                    .parse()
                    .map_err(|_| err(lno + 1, &format!("{what} is not an integer")))
            };
            let frame = next_u64("frame index")? as usize;
            let thread = next_u64("thread index")? as usize;
            let cycles = next_u64("cpu_cycles")?;
            let mem_ns = next_u64("mem_ns")?;
            if frame >= frame_count {
                return Err(err(lno + 1, "frame index beyond declared frame count"));
            }
            let threads = &mut frames[frame].threads;
            if thread != threads.len() {
                return Err(err(lno + 1, "thread indices must be consecutive from 0"));
            }
            threads.push(ThreadDemand::new(
                Cycles::new(cycles),
                SimTime::from_ns(mem_ns),
            ));
        }
        if frames.iter().any(|f| f.threads.is_empty()) {
            return Err(err(0, "trace is missing frames declared in the header"));
        }
        Ok(WorkloadTrace {
            name,
            period,
            frames,
            cursor: 0,
        })
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

    #[test]
    fn parse_errors_carry_line_numbers() {
        // Bad metadata.
        let e = WorkloadTrace::from_csv("garbage").unwrap_err();
        assert!(matches!(e, WorkloadError::ParseTraceError { line: 1, .. }));

        // Bad integer on a data line.
        let text = "# name=x period_ns=1000000 frames=1\n\
                    frame,thread,cpu_cycles,mem_ns\n\
                    0,0,notanumber,0\n";
        let e = WorkloadTrace::from_csv(text).unwrap_err();
        assert!(matches!(e, WorkloadError::ParseTraceError { line: 3, .. }));

        // Frame index out of declared range.
        let text = "# name=x period_ns=1000000 frames=1\n\
                    frame,thread,cpu_cycles,mem_ns\n\
                    5,0,10,0\n";
        assert!(WorkloadTrace::from_csv(text).is_err());

        // Missing frames.
        let text = "# name=x period_ns=1000000 frames=2\n\
                    frame,thread,cpu_cycles,mem_ns\n\
                    0,0,10,0\n";
        assert!(WorkloadTrace::from_csv(text).is_err());
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
