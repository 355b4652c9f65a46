//! GOP-structured video-decoder workload models.
//!
//! Video decoding is the paper's primary workload (an MPEG4/H.264
//! decoder playing a ~3000-frame football sequence). Its per-frame cycle
//! demand has three well-known statistical components, all modelled
//! here:
//!
//! 1. **Frame classes** — GOPs interleave expensive intra-coded
//!    I-frames, medium predicted P-frames and cheap bidirectional
//!    B-frames;
//! 2. **Motion intensity** — a slowly-varying AR(1) multiplier (a
//!    football match has sustained high-motion passages);
//! 3. **Scene changes** — abrupt Markov-style jumps that reset motion
//!    and force an I-frame, exactly the events that defeat lagging
//!    filter predictors (Fig. 3's mispredictions).

use crate::process::{gaussian, Ar1Process};
use crate::{Application, FrameDemand, ThreadDemand, WorkloadError};
use qgov_units::{Cycles, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The coding class of a video frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameClass {
    /// Intra-coded frame (most expensive to decode).
    I,
    /// Predicted frame.
    P,
    /// Bidirectionally predicted frame (cheapest).
    B,
}

/// The classic 12-frame `IBBPBBPBBPBB` GOP, repeated over the sequence.
const GOP: [FrameClass; 12] = {
    use FrameClass::{B, I, P};
    [I, B, B, P, B, B, P, B, B, P, B, B]
};

/// B-frame cost multiplier relative to P.
const B_FACTOR: f64 = 0.9;

/// Decoder threads spawned per frame (slice-parallel decode).
const THREADS: usize = 4;

/// Video frames decoded per iteration (decision epoch). The paper's own
/// overhead experiment runs "ffmpeg decoding three frames" per 31 ms
/// iteration; batching a GOP-aligned chunk per epoch is what makes the
/// workload EWMA-predictable at the 3–8 % error levels Fig. 3 reports.
const FRAMES_PER_ITERATION: usize = 3;

/// Full parameterisation of a [`VideoDecoderModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct VideoParams {
    /// Application name for reports.
    pub name: String,
    /// Frame rate (determines the deadline `T_ref = 1/fps`).
    pub fps: f64,
    /// Total frames in the sequence.
    pub frames: u64,
    /// Decode cost of a nominal P-frame, summed over all threads.
    pub base_cycles: Cycles,
    /// I-frame cost multiplier relative to P.
    pub i_factor: f64,
    /// AR(1) persistence of the motion-intensity multiplier.
    pub motion_phi: f64,
    /// AR(1) innovation scale of the motion multiplier.
    pub motion_sigma: f64,
    /// Per-frame probability of a random scene change.
    pub scene_change_prob: f64,
    /// Frames at which a scene change is forced (deterministically), in
    /// addition to random ones — used to script Fig. 3's mid-run burst.
    pub forced_scene_frames: Vec<u64>,
    /// Memory-stall time of a nominal P-frame (scales with complexity).
    pub base_mem_time: SimTime,
    /// Relative imbalance between decoder threads (std-dev of weights).
    pub thread_imbalance: f64,
    /// RNG seed.
    pub seed: u64,
}

impl VideoParams {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] for zero frames, a
    /// non-positive rate, cost or I-frame factor, or invalid
    /// probabilities.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let fail = |reason: String| Err(WorkloadError::InvalidConfig { reason });
        if self.frames == 0 {
            return fail("sequence needs at least one frame".into());
        }
        if !(self.fps.is_finite() && self.fps > 0.0) {
            return fail(format!("fps must be positive, got {}", self.fps));
        }
        if self.base_cycles.is_zero() {
            return fail("base cycles must be non-zero".into());
        }
        if !(self.i_factor.is_finite() && self.i_factor > 0.0) {
            return fail("the I-frame factor must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.scene_change_prob) {
            return fail(format!(
                "scene-change probability must lie in [0, 1], got {}",
                self.scene_change_prob
            ));
        }
        if !(0.0..1.0).contains(&self.motion_phi) {
            return fail(format!(
                "motion phi must lie in [0, 1), got {}",
                self.motion_phi
            ));
        }
        if !(self.thread_imbalance.is_finite() && self.thread_imbalance >= 0.0) {
            return fail("thread imbalance must be non-negative".into());
        }
        Ok(())
    }
}

/// A seeded, GOP-structured video-decoder workload.
///
/// # Examples
///
/// ```
/// use qgov_workloads::{Application, VideoDecoderModel};
///
/// let mut app = VideoDecoderModel::mpeg4_svga_24fps(7);
/// let a = app.next_frame();
/// app.reset();
/// let b = app.next_frame();
/// assert_eq!(a, b, "reset reproduces the identical sequence");
/// ```
#[derive(Debug, Clone)]
pub struct VideoDecoderModel {
    params: VideoParams,
    rng: StdRng,
    motion: Ar1Process,
    frame_index: u64,
    /// Extra I-frame pending because of a scene change.
    pending_scene_iframe: bool,
}

impl VideoDecoderModel {
    /// Builds a model from explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] if `params` fail
    /// validation.
    pub fn new(params: VideoParams) -> Result<Self, WorkloadError> {
        params.validate()?;
        let motion = Ar1Process::new(1.0, params.motion_phi, params.motion_sigma, 0.6, 1.35);
        let rng = StdRng::seed_from_u64(params.seed);
        Ok(VideoDecoderModel {
            params,
            rng,
            motion,
            frame_index: 0,
            pending_scene_iframe: false,
        })
    }

    /// MPEG4 SVGA decoding at 24 iterations/s — the Fig. 3 workload.
    /// Scene changes are scripted inside the first 25 frames and at
    /// frame 90, reproducing the paper's early-exploration and
    /// mid-exploitation misprediction bursts.
    #[must_use]
    pub fn mpeg4_svga_24fps(seed: u64) -> Self {
        Self::new(VideoParams {
            name: "mpeg4".into(),
            fps: 24.0,
            frames: 3_000,
            base_cycles: Cycles::from_mcycles(57),
            i_factor: 1.2,
            motion_phi: 0.97,
            motion_sigma: 0.025,
            scene_change_prob: 0.001,
            forced_scene_frames: vec![3, 7, 11, 16, 21, 90],
            base_mem_time: SimTime::from_us(1_800),
            thread_imbalance: 0.08,
            seed,
        })
        .expect("built-in preset is valid")
    }

    /// MPEG4 decoding at 30 fps — the Table II exploration workload.
    #[must_use]
    pub fn mpeg4_30fps(seed: u64) -> Self {
        let mut params = Self::mpeg4_svga_24fps(seed).params;
        params.name = "mpeg4-30".into();
        params.fps = 30.0;
        params.forced_scene_frames.clear();
        Self::new(params).expect("built-in preset is valid")
    }

    /// H.264 decoding of the ~3000-frame football sequence at 15
    /// iterations/s — the Table I / Table II workload. H.264 decode is
    /// ≈ 1.4× the MPEG4 cost, and a football broadcast has frequent
    /// cuts and sustained motion (higher innovation variance).
    #[must_use]
    pub fn h264_football_15fps(seed: u64) -> Self {
        Self::new(VideoParams {
            name: "h264".into(),
            fps: 15.0,
            frames: 3_000,
            base_cycles: Cycles::from_mcycles(90),
            i_factor: 1.25,
            motion_phi: 0.96,
            motion_sigma: 0.045,
            scene_change_prob: 0.01,
            forced_scene_frames: vec![],
            base_mem_time: SimTime::from_us(2_800),
            thread_imbalance: 0.05,
            seed,
        })
        .expect("built-in preset is valid")
    }

    /// Returns a copy of this model truncated/extended to `frames`
    /// frames (other parameters unchanged, sequence restarted).
    #[must_use]
    pub fn with_frames(&self, frames: u64) -> Self {
        let mut params = self.params.clone();
        params.frames = frames;
        Self::new(params).expect("only the frame count changed")
    }

    /// The model's parameters.
    #[must_use]
    pub fn params(&self) -> &VideoParams {
        &self.params
    }
}

impl Application for VideoDecoderModel {
    fn name(&self) -> &str {
        &self.params.name
    }

    fn period(&self) -> SimTime {
        SimTime::from_secs_f64(1.0 / self.params.fps)
    }

    fn frames(&self) -> u64 {
        self.params.frames
    }

    fn next_frame(&mut self) -> FrameDemand {
        // Scene-change process: random cuts plus scripted ones, checked
        // once per iteration.
        let forced = self.params.forced_scene_frames.contains(&self.frame_index);
        let random_cut = self.rng.gen::<f64>() < self.params.scene_change_prob;
        if forced || random_cut {
            // A cut jumps motion to a fresh level and forces an I-frame
            // at the next slot. The new level is what defeats the EWMA —
            // it cannot be predicted from history. Scripted cuts land on
            // action (replays, close-ups: the high-motion band), so the
            // burst they exist to produce is guaranteed regardless of the
            // level the AR(1) process happens to be tracking; random cuts
            // draw from the full range.
            let level = if forced {
                1.15 + 0.2 * self.rng.gen::<f64>()
            } else {
                0.9 + 0.45 * self.rng.gen::<f64>()
            };
            self.motion.jump_to(level);
            self.pending_scene_iframe = true;
        }

        // Decode `FRAMES_PER_ITERATION` consecutive video-frame slots.
        let chunk = FRAMES_PER_ITERATION as u64;
        let gop_len = GOP.len() as u64;
        let start_slot = self.frame_index * chunk;
        let mut complexity_sum = 0.0;
        for k in 0..chunk {
            let gop_class = GOP[((start_slot + k) % gop_len) as usize];
            let class = if self.pending_scene_iframe {
                self.pending_scene_iframe = false;
                FrameClass::I
            } else {
                gop_class
            };
            let class_factor = match class {
                FrameClass::I => self.params.i_factor,
                FrameClass::P => 1.0,
                FrameClass::B => B_FACTOR,
            };
            let motion = self.motion.step(&mut self.rng);
            complexity_sum += class_factor * motion;
        }
        let total = self.params.base_cycles.scale(complexity_sum);
        let mem = self
            .params
            .base_mem_time
            .scale(complexity_sum.min(1.3 * chunk as f64));

        // Slice-parallel split with mild imbalance.
        let mut weights: Vec<f64> = (0..THREADS)
            .map(|_| (1.0 + self.params.thread_imbalance * gaussian(&mut self.rng)).max(0.3))
            .collect();
        let wsum: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= wsum;
        }
        let threads = weights
            .iter()
            .map(|&w| ThreadDemand::new(total.scale(w), mem))
            .collect();

        self.frame_index += 1;
        FrameDemand::new(threads)
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.params.seed);
        self.motion.reset();
        self.frame_index = 0;
        self.pending_scene_iframe = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_rates() {
        // fps round-trips through integer nanoseconds, so compare with a
        // tolerance.
        let close = |a: f64, b: f64| (a - b).abs() < 1e-5 * b;
        assert!(close(VideoDecoderModel::mpeg4_svga_24fps(0).fps(), 24.0));
        assert!(close(VideoDecoderModel::mpeg4_30fps(0).fps(), 30.0));
        assert!(close(VideoDecoderModel::h264_football_15fps(0).fps(), 15.0));
        assert_eq!(VideoDecoderModel::h264_football_15fps(0).frames(), 3_000);
    }

    #[test]
    fn iframe_chunks_cost_more_than_plain_chunks() {
        // Deterministic model: no motion noise, no imbalance, no cuts.
        let mut params = VideoDecoderModel::mpeg4_svga_24fps(1).params().clone();
        params.motion_sigma = 0.0;
        params.scene_change_prob = 0.0;
        params.forced_scene_frames.clear();
        params.thread_imbalance = 0.0;
        let mut app = VideoDecoderModel::new(params).unwrap();
        // GOP IBBPBBPBBPBB with 3-slot chunks: iteration 0 = IBB,
        // iterations 1-3 = PBB.
        let ibb = app.next_frame().total_cycles().count();
        let pbb = app.next_frame().total_cycles().count();
        assert!(
            ibb > pbb,
            "chunk with the I-frame must cost more ({ibb} vs {pbb})"
        );
        // Per the class factors: IBB/PBB = 3.0/2.8.
        let ratio = ibb as f64 / pbb as f64;
        assert!((ratio - 3.0 / 2.8).abs() < 0.01, "ratio {ratio:.3}");
    }

    #[test]
    fn workload_has_substantial_variance() {
        let mut app = VideoDecoderModel::h264_football_15fps(3);
        let cycles: Vec<f64> = (0..500)
            .map(|_| app.next_frame().total_cycles().count() as f64)
            .collect();
        let mean = cycles.iter().sum::<f64>() / cycles.len() as f64;
        let var = cycles.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / cycles.len() as f64;
        let cv = var.sqrt() / mean;
        assert!(
            cv > 0.08,
            "football video should vary noticeably (cv > 0.08), got {cv:.3}"
        );
        assert!(cv < 0.5, "variation should stay plausible, got {cv:.3}");
    }

    #[test]
    fn forced_scene_change_spikes_the_iteration() {
        // Compare the same seeded sequence with and without the cut: the
        // promoted I-slot must make the iteration visibly dearer than
        // its no-cut twin.
        let mut params = VideoDecoderModel::mpeg4_svga_24fps(5).params().clone();
        params.scene_change_prob = 0.0;
        params.thread_imbalance = 0.0;
        params.motion_sigma = 0.0;

        params.forced_scene_frames = vec![7];
        let mut with_cut = VideoDecoderModel::new(params.clone()).unwrap();
        params.forced_scene_frames = vec![];
        let mut without_cut = VideoDecoderModel::new(params).unwrap();

        let run = |app: &mut VideoDecoderModel| -> Vec<u64> {
            (0..12)
                .map(|_| app.next_frame().total_cycles().count())
                .collect()
        };
        let a = run(&mut with_cut);
        let b = run(&mut without_cut);
        assert_eq!(a[..7], b[..7], "identical before the cut");
        // The promoted I-slot alone adds 7% (class sum 3.0 vs 2.8) and
        // the motion jump lands in [0.9, 1.35].
        assert!(
            a[7] as f64 > 1.02 * b[7] as f64,
            "cut iteration should cost more: {} vs {}",
            a[7],
            b[7]
        );
    }

    #[test]
    fn reset_reproduces_sequence_exactly() {
        let mut app = VideoDecoderModel::h264_football_15fps(11);
        let first: Vec<FrameDemand> = (0..50).map(|_| app.next_frame()).collect();
        app.reset();
        let second: Vec<FrameDemand> = (0..50).map(|_| app.next_frame()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = VideoDecoderModel::h264_football_15fps(1);
        let mut b = VideoDecoderModel::h264_football_15fps(2);
        let fa: Vec<u64> = (0..20)
            .map(|_| a.next_frame().total_cycles().count())
            .collect();
        let fb: Vec<u64> = (0..20)
            .map(|_| b.next_frame().total_cycles().count())
            .collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn with_frames_overrides_length() {
        let app = VideoDecoderModel::mpeg4_svga_24fps(0).with_frames(120);
        assert_eq!(app.frames(), 120);
    }

    #[test]
    fn thread_split_conserves_total() {
        let mut app = VideoDecoderModel::mpeg4_svga_24fps(9);
        for _ in 0..20 {
            let f = app.next_frame();
            assert_eq!(f.thread_count(), 4);
            let total = f.total_cycles().count();
            let max = f
                .threads
                .iter()
                .map(|t| t.cpu_cycles.count())
                .max()
                .unwrap();
            // With 8 % imbalance no thread should carry more than half.
            assert!(max < total / 2 + total / 10, "extreme imbalance");
        }
    }

    #[test]
    fn validation_rejects_bad_params() {
        let good = VideoDecoderModel::mpeg4_svga_24fps(0).params().clone();
        for (mutate, _desc) in [
            (
                Box::new(|p: &mut VideoParams| p.frames = 0) as Box<dyn Fn(&mut VideoParams)>,
                "no frames",
            ),
            (Box::new(|p: &mut VideoParams| p.fps = 0.0), "zero fps"),
            (
                Box::new(|p: &mut VideoParams| p.scene_change_prob = 1.5),
                "bad prob",
            ),
            (Box::new(|p: &mut VideoParams| p.motion_phi = 1.0), "phi 1"),
            (
                Box::new(|p: &mut VideoParams| p.base_cycles = Cycles::ZERO),
                "zero cycles",
            ),
        ] {
            let mut p = good.clone();
            mutate(&mut p);
            assert!(VideoDecoderModel::new(p).is_err());
        }
    }
}
