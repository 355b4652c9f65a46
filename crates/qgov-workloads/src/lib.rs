//! Frame-based application workload models.
//!
//! The paper's results (Tables I–III, Fig. 3) run its RTM on two kinds
//! of application — MPEG4/H.264 video decoding of a ~3000-frame
//! football sequence, and an FFT kernel — each "transformed to a
//! periodic structure" of frames with deadlines (Section III). What a DVFS governor actually
//! observes from an application is its *per-frame cycle-demand process*;
//! this crate provides seeded stochastic models reproducing the
//! statistics of those applications, plus record/replay traces so the
//! Oracle baseline can pre-characterise a run offline.
//!
//! * [`Application`] — the trait all workload models implement: a
//!   periodic frame source with a deadline (`T_ref = 1/fps`);
//! * [`VideoDecoderModel`] — GOP-structured video decoding with I/P/B
//!   frame classes, AR(1) motion intensity and random or scripted scene
//!   changes (presets: [`VideoDecoderModel::mpeg4_svga_24fps`],
//!   [`VideoDecoderModel::h264_football_15fps`], ...);
//! * [`FftModel`] — radix-2 FFT frames whose `N/2 · log₂N` butterfly
//!   operations drive the cycle demands (near-constant workload, as the
//!   paper observes);
//! * [`SyntheticWorkload`] — constant/ramp/square/sine + noise patterns
//!   for targeted tests and ablations;
//! * [`WorkloadTrace`] — in-memory record/replay;
//! * [`ShardedTrace`] / [`ShardWriter`] — the streaming counterpart:
//!   record and replay in bounded-memory binary shards on disk, for
//!   long-horizon experiments whose traces must never materialise in
//!   memory (see [`shard`]).
//!
//! # Example
//!
//! ```
//! use qgov_workloads::{Application, VideoDecoderModel};
//!
//! let mut app = VideoDecoderModel::h264_football_15fps(42);
//! assert!((app.fps() - 15.0).abs() < 1e-4);
//! let frame = app.next_frame();
//! assert!(!frame.threads.is_empty());
//! assert!(frame.total_cycles().count() > 0);
//! ```
//!
//! # Streaming example: record → shard to disk → stream-replay
//!
//! A recording streamed through [`ShardedTrace`] replays bit-identically
//! to the in-memory [`WorkloadTrace`] while holding at most one shard
//! of frames resident:
//!
//! ```
//! use qgov_workloads::{Application, ShardedTrace, VideoDecoderModel, WorkloadTrace};
//!
//! let dir = std::env::temp_dir().join(format!("qgov-stream-doc-{}", std::process::id()));
//! let mut app = VideoDecoderModel::mpeg4_svga_24fps(7).with_frames(90);
//!
//! // Record 90 frames into shards of 25 frames (4 shard files on disk)...
//! let mut streamed = ShardedTrace::record(&mut app, &dir, 90, 25).unwrap();
//! assert_eq!(streamed.shard_count(), 4);
//!
//! // ...and stream-replay: frame-for-frame equal to the in-memory trace.
//! let mut whole = WorkloadTrace::record(&mut app);
//! for _ in 0..90 {
//!     assert_eq!(streamed.next_frame(), whole.next_frame());
//! }
//! assert!(streamed.resident_frames() <= 25);
//!
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
mod error;
mod fft;
mod frame;
mod process;
pub mod shard;
mod split;
mod synthetic;
mod trace;
mod video;

pub use app::Application;
pub use error::WorkloadError;
pub use fft::FftModel;
pub use frame::{FrameDemand, ThreadDemand};
pub use shard::{ScratchDir, ShardWriter, ShardedTrace, TraceShard};
pub use split::{capacity_shares, split_demand_into};
pub use synthetic::SyntheticWorkload;
pub use trace::WorkloadTrace;
pub use video::{VideoDecoderModel, VideoParams};
