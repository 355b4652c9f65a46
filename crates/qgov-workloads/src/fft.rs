//! The FFT streaming workload model.
//!
//! The paper's FFT application "exhibits less workload variations
//! resulting in faster learning by the algorithm" (Section III-C). The
//! cycle demand of [`FftModel`] follows the structure of an iterative
//! radix-2 Cooley–Tukey FFT: an `N`-point transform performs exactly
//! `N/2 · log₂N` butterfly operations.

use crate::process::gaussian;
use crate::{Application, FrameDemand, WorkloadError};
use qgov_units::{Cycles, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An FFT streaming workload: each frame transforms one buffer of
/// samples, split across worker threads.
///
/// Cycle demand per frame is `butterflies × cycles_per_butterfly`, with
/// a small jitter representing cache effects — the near-constant profile
/// the paper reports (FFT needed the fewest explorations, Table II).
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
    name: String,
    fft_size: usize,
    butterflies: u64,
    cycles_per_butterfly: f64,
    jitter_cv: f64,
    fps: f64,
    frames: u64,
    threads: usize,
    mem_time: SimTime,
    seed: u64,
    rng: StdRng,
}

impl FftModel {
    /// Creates an FFT workload transforming `fft_size`-point buffers of
    /// `fft_size/2 · log₂(fft_size)` butterflies each.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] if `fft_size` is not a
    /// power of two, its butterfly count overflows `u64`, or any
    /// count/rate is zero.
    #[allow(clippy::too_many_arguments)] // mirrors the preset's full parameter surface
    pub fn new(
        name: impl Into<String>,
        fft_size: usize,
        cycles_per_butterfly: f64,
        jitter_cv: f64,
        fps: f64,
        frames: u64,
        threads: usize,
        mem_time: SimTime,
        seed: u64,
    ) -> Result<Self, WorkloadError> {
        let fail = |reason: String| Err(WorkloadError::InvalidConfig { reason });
        if !fft_size.is_power_of_two() || fft_size < 2 {
            return fail(format!(
                "FFT size must be a power of two >= 2, got {fft_size}"
            ));
        }
        let Some(butterflies) =
            (fft_size as u64 / 2).checked_mul(u64::from(fft_size.trailing_zeros()))
        else {
            return fail(format!(
                "an FFT of size {fft_size} has more butterflies than a u64 counts"
            ));
        };
        if !(cycles_per_butterfly.is_finite() && cycles_per_butterfly > 0.0) {
            return fail("cycles per butterfly must be positive".into());
        }
        if !(jitter_cv.is_finite() && (0.0..0.5).contains(&jitter_cv)) {
            return fail("jitter cv must lie in [0, 0.5)".into());
        }
        if !(fps.is_finite() && fps > 0.0) {
            return fail("fps must be positive".into());
        }
        if frames == 0 || threads == 0 {
            return fail("frames and threads must be non-zero".into());
        }

        Ok(FftModel {
            name: name.into(),
            fft_size,
            butterflies,
            cycles_per_butterfly,
            jitter_cv,
            fps,
            frames,
            threads,
            mem_time,
            seed,
            rng: StdRng::seed_from_u64(seed),
        })
    }

    /// The paper's FFT workload at 32 fps: 2²⁰-point transforms on four
    /// threads (≈ 126 Mcycles/frame at 12 cycles per butterfly — a
    /// complex butterfly on an in-order A15 costs ~12 cycles including
    /// twiddle loads).
    #[must_use]
    pub fn fft_32fps(seed: u64) -> Self {
        Self::new(
            "fft",
            1 << 20,
            12.0,
            0.02,
            32.0,
            1_000,
            4,
            SimTime::from_ms(2),
            seed,
        )
        .expect("built-in preset is valid")
    }

    /// Transform size (points).
    #[must_use]
    pub fn fft_size(&self) -> usize {
        self.fft_size
    }

    /// Butterflies per transform: `fft_size/2 · log₂(fft_size)`.
    #[must_use]
    pub fn butterflies(&self) -> u64 {
        self.butterflies
    }
}

impl Application for FftModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn period(&self) -> SimTime {
        SimTime::from_secs_f64(1.0 / self.fps)
    }

    fn frames(&self) -> u64 {
        self.frames
    }

    fn next_frame(&mut self) -> FrameDemand {
        let nominal = self.butterflies as f64 * self.cycles_per_butterfly;
        let jitter = 1.0 + self.jitter_cv * gaussian(&mut self.rng);
        let total = Cycles::new((nominal * jitter.max(0.5)) as u64);
        let mut frame = FrameDemand::split_evenly(total, self.threads, self.mem_time);
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
    fn butterflies_follow_the_closed_form_or_the_size_is_rejected() {
        for bits in 1..usize::BITS {
            let n = 1usize << bits;
            let expect = u128::from(n as u64 / 2) * u128::from(bits);
            match FftModel::new("x", n, 12.0, 0.0, 30.0, 10, 4, SimTime::ZERO, 0) {
                Ok(app) => assert_eq!(u128::from(app.butterflies()), expect, "n = 2^{bits}"),
                Err(WorkloadError::InvalidConfig { .. }) => {
                    assert!(
                        expect > u128::from(u64::MAX),
                        "n = 2^{bits} wrongly rejected"
                    );
                }
                Err(e) => panic!("n = 2^{bits}: unexpected error {e}"),
            }
        }
    }

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
        let expect = app.butterflies() as f64 * 12.0;
        let got = app.next_frame().total_cycles().count() as f64;
        // within jitter + serial share
        assert!(
            (got / expect - 1.0).abs() < 0.15,
            "got {got}, expected ~{expect}"
        );
    }

    #[test]
    fn butterfly_scaling_matches_formula_for_large_sizes() {
        let app = FftModel::fft_32fps(0);
        let n = app.fft_size() as u64;
        assert_eq!(app.butterflies(), n / 2 * 20); // log2(2^20) = 20
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

    #[test]
    fn invalid_configs_rejected() {
        assert!(FftModel::new("x", 6, 9.0, 0.0, 30.0, 10, 4, SimTime::ZERO, 0).is_err());
        assert!(FftModel::new("x", 8, 0.0, 0.0, 30.0, 10, 4, SimTime::ZERO, 0).is_err());
        assert!(FftModel::new("x", 8, 9.0, 0.9, 30.0, 10, 4, SimTime::ZERO, 0).is_err());
        assert!(FftModel::new("x", 8, 9.0, 0.0, 0.0, 10, 4, SimTime::ZERO, 0).is_err());
        assert!(FftModel::new("x", 8, 9.0, 0.0, 30.0, 0, 4, SimTime::ZERO, 0).is_err());
    }
}
