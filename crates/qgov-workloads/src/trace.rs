//! Workload trace record and replay.
//!
//! The Oracle baseline of Table I requires "offline determination of
//! optimized V-F for the observed CPU workloads": it must see the exact
//! per-frame demands before choosing operating points. Recording any
//! [`Application`] into a [`WorkloadTrace`] provides that offline view,
//! and replaying the trace guarantees every governor is evaluated on the
//! *identical* frame sequence. The one trace file format is the binary
//! shard of [`crate::shard`].

use crate::frame::frame_cycles;
use crate::{Application, FrameDemand, WorkloadError};
use qgov_units::{Cycles, SimTime};

/// A fully materialised frame sequence with its deadline, replayable as
/// an [`Application`].
///
/// Every frame has at least one thread, and its `cpu_cycles` and
/// `mem_ns` totals fit in a `u64`: the rule a
/// [shard](crate::shard#file-format) applies to the frames it holds.
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
/// let mut trace = WorkloadTrace::record(&mut app);
/// assert_eq!(trace.len(), 20);
///
/// // Replay yields the recorded sequence.
/// assert_eq!(trace.next_frame(), app.next_frame());
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadTrace {
    name: String,
    period: SimTime,
    frames: Vec<FrameDemand>,
    /// [`WorkloadTrace::workload_bounds`], measured as the frames were
    /// checked.
    bounds: (f64, f64),
    cursor: usize,
}

/// Trace equality compares the recorded *data* (name, period, frames);
/// the replay cursor is iteration state, not content, so a partially
/// replayed trace still equals a fresh recording of the same run.
impl PartialEq for WorkloadTrace {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.period == other.period && self.frames == other.frames
    }
}

impl Eq for WorkloadTrace {}

/// Collects `frames`, checking each one as it arrives and measuring the
/// workload bounds on the way, so neither takes a second pass over a
/// trace that may not fit in cache.
///
/// # Panics
///
/// Panics, naming the frame, on a frame with no threads or a
/// `cpu_cycles` or `mem_ns` total that overflows `u64`.
fn checked_frames(frames: impl Iterator<Item = FrameDemand>) -> (Vec<FrameDemand>, (f64, f64)) {
    let mut min = f64::INFINITY;
    let mut max: f64 = 0.0;
    let frames = frames
        .enumerate()
        .map(|(index, frame)| {
            let cycles = frame_cycles(&frame.threads).unwrap_or_else(|reason| {
                panic!(
                    "{}",
                    WorkloadError::InvalidFrame {
                        frame: index as u64,
                        reason: reason.to_owned(),
                    }
                )
            });
            min = min.min(cycles as f64);
            max = max.max(cycles as f64);
            frame
        })
        .collect();
    (frames, widen_degenerate(min, max))
}

impl WorkloadTrace {
    /// Creates a trace from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty, `period` is zero, or a frame has no
    /// threads or a `cpu_cycles` or `mem_ns` total that overflows `u64`
    /// (naming that frame).
    #[must_use]
    pub fn from_frames(name: impl Into<String>, period: SimTime, frames: Vec<FrameDemand>) -> Self {
        assert!(!frames.is_empty(), "a trace needs at least one frame");
        assert!(!period.is_zero(), "period must be non-zero");
        let (frames, bounds) = checked_frames(frames.into_iter());
        WorkloadTrace {
            name: name.into(),
            period,
            frames,
            bounds,
            cursor: 0,
        }
    }

    /// Records the full run of `app` (resetting it first so the trace
    /// starts at frame zero; the application is left reset afterwards,
    /// ready for a live run on the same sequence).
    ///
    /// # Panics
    ///
    /// Panics, naming the frame, if `app` emits a frame with no threads
    /// or a `cpu_cycles` or `mem_ns` total that overflows `u64`
    /// ([`Application`] has no error channel; the built-in models never
    /// do).
    #[must_use]
    pub fn record(app: &mut dyn Application) -> Self {
        app.reset();
        let (frames, bounds) = checked_frames((0..app.frames()).map(|_| app.next_frame()));
        let trace = WorkloadTrace {
            name: app.name().to_owned(),
            period: app.period(),
            frames,
            bounds,
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
    /// and largest total cycles of any frame, measured when the trace
    /// was built. A constant workload (`min == max`) is widened to
    /// `(0.9·min, (1.1 + 10⁻⁹)·max)`, so the range a learning governor
    /// bins is never empty.
    #[must_use]
    pub fn workload_bounds(&self) -> (f64, f64) {
        self.bounds
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
    use crate::{SyntheticWorkload, ThreadDemand};

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
    #[should_panic(expected = "at least one frame")]
    fn empty_trace_panics() {
        let _ = WorkloadTrace::from_frames("x", SimTime::from_ms(1), vec![]);
    }

    #[test]
    fn from_frames_refuses_the_frames_a_shard_refuses() {
        let good = FrameDemand::new(vec![ThreadDemand::cpu_only(Cycles::new(7))]);
        let overflowing = |cycles: u64, mem_ns: u64| {
            FrameDemand::new(vec![
                ThreadDemand::new(Cycles::new(cycles), SimTime::from_ns(mem_ns)),
                ThreadDemand::new(Cycles::new(1), SimTime::from_ns(1)),
            ])
        };
        for (bad, reason) in [
            (
                overflowing(u64::MAX, 0),
                "frame 1 cannot be recorded: the frame's cpu_cycles total overflows u64",
            ),
            (
                overflowing(0, u64::MAX),
                "frame 1 cannot be recorded: the frame's mem_ns total overflows u64",
            ),
            (
                FrameDemand::default(),
                "frame 1 cannot be recorded: the frame has no threads",
            ),
        ] {
            let frames = vec![good.clone(), bad];
            let panic = std::panic::catch_unwind(|| {
                WorkloadTrace::from_frames("bad", SimTime::from_ms(40), frames)
            })
            .expect_err("the trace must be refused");
            assert_eq!(
                panic.downcast_ref::<String>().map(String::as_str),
                Some(reason)
            );
        }
    }
}
