//! The FFT streaming workload model.
//!
//! The paper's FFT application "exhibits less workload variations
//! resulting in faster learning by the algorithm" (Section III-C). The
//! cycle demand of [`FftModel`] follows the structure of an iterative
//! radix-2 Cooley–Tukey FFT: an `N`-point transform performs exactly
//! `N/2 · log₂N` butterfly operations.

use crate::process::gaussian;
use crate::{Application, FrameDemand};
use qgov_units::{Cycles, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Points per transform.
const FFT_SIZE: u64 = 1 << 20;
/// Butterflies per transform: `FFT_SIZE/2 · log₂(FFT_SIZE)`.
const BUTTERFLIES: u64 = FFT_SIZE / 2 * FFT_SIZE.trailing_zeros() as u64;
/// A complex butterfly on an in-order A15 costs ~12 cycles including
/// twiddle loads.
const CYCLES_PER_BUTTERFLY: f64 = 12.0;
/// Coefficient of variation of the per-frame cache-effect jitter.
const JITTER_CV: f64 = 0.02;
/// Transforms per second.
const FPS: f64 = 32.0;
/// Frames in one run.
const FRAMES: u64 = 1_000;
/// Worker threads per transform.
const THREADS: usize = 4;
/// Frequency-invariant memory time of each thread.
const MEM_TIME: SimTime = SimTime::from_ms(2);

/// The paper's FFT streaming workload at 32 fps: each frame transforms
/// one buffer of 2²⁰ samples on four threads.
///
/// Cycle demand per frame is `butterflies × cycles_per_butterfly`
/// (≈ 126 Mcycles at 12 cycles per butterfly), with a small jitter
/// representing cache effects — the near-constant profile the paper
/// reports (FFT needed the fewest explorations, Table II).
///
/// # Examples
///
/// ```
/// use qgov_workloads::{Application, FftModel};
///
/// let mut app = FftModel::fft_32fps(1);
/// assert_eq!(app.fps(), 32.0);
/// let f = app.next_frame();
/// assert_eq!(f.thread_count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct FftModel {
    seed: u64,
    rng: StdRng,
}

impl FftModel {
    /// The paper's FFT workload, seeded with `seed`.
    #[must_use]
    pub fn fft_32fps(seed: u64) -> Self {
        FftModel {
            seed,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Application for FftModel {
    fn name(&self) -> &str {
        "fft"
    }

    fn period(&self) -> SimTime {
        SimTime::from_secs_f64(1.0 / FPS)
    }

    fn frames(&self) -> u64 {
        FRAMES
    }

    fn next_frame(&mut self) -> FrameDemand {
        let nominal = BUTTERFLIES as f64 * CYCLES_PER_BUTTERFLY;
        let jitter = 1.0 + JITTER_CV * gaussian(&mut self.rng);
        let total = Cycles::new((nominal * jitter.max(0.5)) as u64);
        let mut frame = FrameDemand::split_evenly(total, THREADS, MEM_TIME);
        // The final recombination stage is serial-ish: thread 0 carries a
        // small extra share.
        frame.threads[0].cpu_cycles += total.scale(0.03);
        frame
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_has_low_variance() {
        let mut app = FftModel::fft_32fps(5);
        let cycles: Vec<f64> = (0..300)
            .map(|_| app.next_frame().total_cycles().count() as f64)
            .collect();
        let mean = cycles.iter().sum::<f64>() / cycles.len() as f64;
        let var = cycles.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / cycles.len() as f64;
        let cv = var.sqrt() / mean;
        assert!(cv < 0.05, "FFT should be near-constant, cv = {cv:.4}");
    }

    #[test]
    fn model_cycles_match_butterfly_budget() {
        let mut app = FftModel::fft_32fps(5);
        let expect = BUTTERFLIES as f64 * 12.0;
        let got = app.next_frame().total_cycles().count() as f64;
        // within jitter + serial share
        assert!(
            (got / expect - 1.0).abs() < 0.15,
            "got {got}, expected ~{expect}"
        );
    }

    #[test]
    fn reset_reproduces_sequence() {
        let mut app = FftModel::fft_32fps(9);
        let a: Vec<u64> = (0..10)
            .map(|_| app.next_frame().total_cycles().count())
            .collect();
        app.reset();
        let b: Vec<u64> = (0..10)
            .map(|_| app.next_frame().total_cycles().count())
            .collect();
        assert_eq!(a, b);
    }
}
