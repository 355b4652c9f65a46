//! Synthetic workload patterns for targeted tests and ablations.

use crate::process::gaussian;
use crate::{Application, FrameDemand};
use qgov_units::{Cycles, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The deterministic shape of a synthetic workload's per-frame demand.
#[derive(Debug, Clone, PartialEq)]
enum Pattern {
    /// The same demand every frame.
    Constant,
    /// Linear interpolation from 1× at frame 0 to `to` at the last frame.
    Ramp {
        /// Final multiplier.
        to: f64,
    },
    /// Alternates between 1× and `hi` every `half_period` frames.
    Square {
        /// High-phase multiplier.
        hi: f64,
        /// Frames per half period.
        half_period: u64,
    },
    /// `1 + amp·sin(2π·frame/period)`.
    Sine {
        /// Amplitude (must be < 1 so demand stays positive).
        amp: f64,
        /// Frames per full period.
        period: u64,
    },
    /// Constant with a single step to `to` at `at_frame` (the canonical
    /// step-response probe for predictors).
    Step {
        /// Multiplier after the step.
        to: f64,
        /// Frame index of the step.
        at_frame: u64,
    },
}

/// A synthetic frame-based workload with a deterministic base pattern
/// and optional multiplicative Gaussian noise.
///
/// # Examples
///
/// ```
/// use qgov_workloads::{Application, SyntheticWorkload};
/// use qgov_units::{Cycles, SimTime};
///
/// let mut app = SyntheticWorkload::step(
///     "step", Cycles::from_mcycles(10), 2.0, 50,
///     SimTime::from_ms(40), 100, 4, 7,
/// );
/// let before = app.next_frame().total_cycles();
/// for _ in 1..60 { app.next_frame(); }
/// let after = app.next_frame().total_cycles();
/// assert!(after.count() > 18 * before.count() / 10);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    name: String,
    base: Cycles,
    pattern: Pattern,
    noise_cv: f64,
    mem_time: SimTime,
    period: SimTime,
    frames: u64,
    threads: usize,
    seed: u64,
    rng: StdRng,
    frame_index: u64,
}

impl SyntheticWorkload {
    #[allow(clippy::too_many_arguments)]
    fn build(
        name: impl Into<String>,
        base: Cycles,
        pattern: Pattern,
        period: SimTime,
        frames: u64,
        threads: usize,
        seed: u64,
    ) -> Self {
        assert!(!base.is_zero(), "base cycles must be non-zero");
        assert!(!period.is_zero(), "period must be non-zero");
        assert!(frames > 0, "frames must be non-zero");
        assert!(threads > 0, "threads must be non-zero");
        SyntheticWorkload {
            name: name.into(),
            base,
            pattern,
            noise_cv: 0.0,
            mem_time: SimTime::ZERO,
            period,
            frames,
            threads,
            seed,
            rng: StdRng::seed_from_u64(seed),
            frame_index: 0,
        }
    }

    /// A constant workload of `base` total cycles per frame.
    ///
    /// # Panics
    ///
    /// Panics if any count or the period is zero.
    #[must_use]
    pub fn constant(
        name: impl Into<String>,
        base: Cycles,
        period: SimTime,
        frames: u64,
        threads: usize,
        seed: u64,
    ) -> Self {
        Self::build(name, base, Pattern::Constant, period, frames, threads, seed)
    }

    /// A workload ramping linearly from `base` to `base × to`.
    ///
    /// # Panics
    ///
    /// Panics if any count or the period is zero, or `to` is not
    /// positive/finite.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn ramp(
        name: impl Into<String>,
        base: Cycles,
        to: f64,
        period: SimTime,
        frames: u64,
        threads: usize,
        seed: u64,
    ) -> Self {
        assert!(to.is_finite() && to > 0.0, "ramp target must be positive");
        Self::build(
            name,
            base,
            Pattern::Ramp { to },
            period,
            frames,
            threads,
            seed,
        )
    }

    /// A square wave alternating between `base` and `base × hi` every
    /// `half_period` frames.
    ///
    /// # Panics
    ///
    /// Panics if any count or the period is zero, `hi` is not
    /// positive/finite, or `half_period` is zero.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn square(
        name: impl Into<String>,
        base: Cycles,
        hi: f64,
        half_period: u64,
        period: SimTime,
        frames: u64,
        threads: usize,
        seed: u64,
    ) -> Self {
        assert!(
            hi.is_finite() && hi > 0.0,
            "square high level must be positive"
        );
        assert!(half_period > 0, "half period must be non-zero");
        Self::build(
            name,
            base,
            Pattern::Square { hi, half_period },
            period,
            frames,
            threads,
            seed,
        )
    }

    /// A sinusoidal workload `base × (1 + amp·sin)`.
    ///
    /// # Panics
    ///
    /// Panics if any count or the period is zero, `amp` is not in
    /// `(0, 1)`, or `sine_period` is zero.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn sine(
        name: impl Into<String>,
        base: Cycles,
        amp: f64,
        sine_period: u64,
        period: SimTime,
        frames: u64,
        threads: usize,
        seed: u64,
    ) -> Self {
        assert!(
            amp.is_finite() && amp > 0.0 && amp < 1.0,
            "amplitude must lie in (0, 1)"
        );
        assert!(sine_period > 0, "sine period must be non-zero");
        Self::build(
            name,
            base,
            Pattern::Sine {
                amp,
                period: sine_period,
            },
            period,
            frames,
            threads,
            seed,
        )
    }

    /// A single step from `base` to `base × to` at `at_frame`.
    ///
    /// # Panics
    ///
    /// Panics if any count or the period is zero, or `to` is not
    /// positive/finite.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn step(
        name: impl Into<String>,
        base: Cycles,
        to: f64,
        at_frame: u64,
        period: SimTime,
        frames: u64,
        threads: usize,
        seed: u64,
    ) -> Self {
        assert!(to.is_finite() && to > 0.0, "step target must be positive");
        Self::build(
            name,
            base,
            Pattern::Step { to, at_frame },
            period,
            frames,
            threads,
            seed,
        )
    }

    /// Adds multiplicative Gaussian noise with coefficient of variation
    /// `cv` to every frame.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ cv < 1`.
    #[must_use]
    pub fn with_noise(mut self, cv: f64) -> Self {
        assert!(
            cv.is_finite() && (0.0..1.0).contains(&cv),
            "cv must lie in [0, 1)"
        );
        self.noise_cv = cv;
        self
    }

    /// Adds a frequency-invariant memory component to every thread.
    #[must_use]
    pub fn with_mem_time(mut self, mem_time: SimTime) -> Self {
        self.mem_time = mem_time;
        self
    }

    fn multiplier_at(&self, frame: u64) -> f64 {
        match self.pattern {
            Pattern::Constant => 1.0,
            Pattern::Ramp { to } => {
                if self.frames <= 1 {
                    1.0
                } else {
                    1.0 + (to - 1.0) * frame as f64 / (self.frames - 1) as f64
                }
            }
            Pattern::Square { hi, half_period } => {
                if (frame / half_period) % 2 == 1 {
                    hi
                } else {
                    1.0
                }
            }
            Pattern::Sine { amp, period } => {
                1.0 + amp * (std::f64::consts::TAU * frame as f64 / period as f64).sin()
            }
            Pattern::Step { to, at_frame } => {
                if frame >= at_frame {
                    to
                } else {
                    1.0
                }
            }
        }
    }
}

impl Application for SyntheticWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn period(&self) -> SimTime {
        self.period
    }

    fn frames(&self) -> u64 {
        self.frames
    }

    fn next_frame(&mut self) -> FrameDemand {
        let mut out = FrameDemand::default();
        self.next_frame_into(&mut out);
        out
    }

    fn next_frame_into(&mut self, out: &mut FrameDemand) {
        let mut m = self.multiplier_at(self.frame_index);
        if self.noise_cv > 0.0 {
            m *= (1.0 + self.noise_cv * gaussian(&mut self.rng)).max(0.1);
        }
        self.frame_index += 1;
        out.fill_split_evenly(self.base.scale(m), self.threads, self.mem_time);
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
        self.frame_index = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PERIOD: SimTime = SimTime::from_ms(40);

    #[test]
    fn constant_is_constant() {
        let mut app = SyntheticWorkload::constant("c", Cycles::from_mcycles(10), PERIOD, 50, 4, 0);
        let first = app.next_frame();
        for _ in 1..50 {
            assert_eq!(app.next_frame(), first);
        }
    }

    #[test]
    fn ramp_reaches_target() {
        let mut app =
            SyntheticWorkload::ramp("r", Cycles::from_mcycles(10), 3.0, PERIOD, 100, 1, 0);
        let first = app.next_frame().total_cycles().count();
        for _ in 1..99 {
            app.next_frame();
        }
        let last = app.next_frame().total_cycles().count();
        assert_eq!(first, 10_000_000);
        assert_eq!(last, 30_000_000);
    }

    #[test]
    fn square_alternates() {
        let mut app =
            SyntheticWorkload::square("s", Cycles::from_mcycles(10), 2.0, 3, PERIOD, 12, 1, 0);
        let cycles: Vec<u64> = (0..12)
            .map(|_| app.next_frame().total_cycles().count())
            .collect();
        assert_eq!(&cycles[0..3], &[10_000_000; 3]);
        assert_eq!(&cycles[3..6], &[20_000_000; 3]);
        assert_eq!(&cycles[6..9], &[10_000_000; 3]);
    }

    #[test]
    fn sine_oscillates_around_base() {
        let mut app =
            SyntheticWorkload::sine("w", Cycles::from_mcycles(10), 0.5, 20, PERIOD, 40, 1, 0);
        let cycles: Vec<f64> = (0..40)
            .map(|_| app.next_frame().total_cycles().count() as f64)
            .collect();
        let mean = cycles.iter().sum::<f64>() / cycles.len() as f64;
        assert!((mean / 1e7 - 1.0).abs() < 0.02, "mean {mean}");
        let max = cycles.iter().copied().fold(0.0f64, f64::max);
        let min = cycles.iter().copied().fold(f64::MAX, f64::min);
        assert!(max > 1.45e7 && min < 0.55e7);
    }

    #[test]
    fn noise_is_seeded_and_reproducible() {
        let make = |seed| {
            SyntheticWorkload::constant("n", Cycles::from_mcycles(10), PERIOD, 30, 2, seed)
                .with_noise(0.2)
        };
        let run = |mut app: SyntheticWorkload| -> Vec<u64> {
            (0..30)
                .map(|_| app.next_frame().total_cycles().count())
                .collect()
        };
        assert_eq!(run(make(5)), run(make(5)));
        assert_ne!(run(make(5)), run(make(6)));
    }

    #[test]
    fn mem_time_is_applied_to_all_threads() {
        let mut app = SyntheticWorkload::constant("m", Cycles::from_mcycles(4), PERIOD, 5, 4, 0)
            .with_mem_time(SimTime::from_ms(3));
        let f = app.next_frame();
        for t in &f.threads {
            assert_eq!(t.mem_time, SimTime::from_ms(3));
        }
    }

    #[test]
    fn reset_restarts_pattern_and_noise() {
        let mut app = SyntheticWorkload::ramp("r", Cycles::from_mcycles(10), 2.0, PERIOD, 50, 1, 1)
            .with_noise(0.1);
        let a: Vec<u64> = (0..20)
            .map(|_| app.next_frame().total_cycles().count())
            .collect();
        app.reset();
        let b: Vec<u64> = (0..20)
            .map(|_| app.next_frame().total_cycles().count())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn sine_amplitude_validated() {
        let _ = SyntheticWorkload::sine("w", Cycles::from_mcycles(1), 1.5, 10, PERIOD, 10, 1, 0);
    }

    #[test]
    #[should_panic(expected = "cv")]
    fn noise_cv_validated() {
        let _ = SyntheticWorkload::constant("n", Cycles::from_mcycles(1), PERIOD, 10, 1, 0)
            .with_noise(1.0);
    }
}
