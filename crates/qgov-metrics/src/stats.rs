//! Streaming moments and the cross-run fold.
//!
//! [`MetricSummary::from_samples`] is the one fold every cross-run
//! aggregate goes through: an experiment runs once per seed and each
//! metric's per-seed samples fold into one summary (mean, sample
//! standard deviation, extrema).
//! Summaries are **invariant to sample order**: the fold sorts by [`f64::total_cmp`] first, so
//! aggregating seeds `[5, 77]` is bit-identical to aggregating
//! `[77, 5]` — the property `tests/sweep_determinism.rs` pins.

/// Numerically-stable streaming mean/variance/extrema (Welford's
/// algorithm) — the accumulator under [`MetricSummary`], the windowed
/// folds and the per-run frame-time ratio.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub(crate) fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    pub(crate) fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "samples must be finite, got {x}");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (zero when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample (Bessel-corrected, `n − 1` denominator) variance. Zero
    /// below two samples: with one seed there is no spread to
    /// estimate, and [`MetricSummary`] renders that case as a bare
    /// mean.
    pub(crate) fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation (zero below two samples).
    pub(crate) fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest sample (`None` when empty).
    pub(crate) fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub(crate) fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

/// One metric's cross-run aggregate: sample count, mean, sample
/// standard deviation and extrema.
///
/// Construction sorts the samples by [`f64::total_cmp`] before
/// folding, so a summary is **bit-identical under any permutation of
/// its samples** — what makes sweep aggregates invariant to seed-list
/// order. With a single sample (`n = 1`) σ is zero and
/// [`MetricSummary::cell`] renders a bare mean: σ of one observation
/// is undefined, not small.
///
/// # Examples
///
/// ```
/// use qgov_metrics::MetricSummary;
///
/// let s = MetricSummary::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
/// assert_eq!(s.n, 5);
/// assert_eq!(s.mean, 3.0);
/// assert_eq!((s.min, s.max), (1.0, 5.0));
/// assert_eq!(s.cell(1), "3.0 ± 1.6 (n=5)");
/// assert_eq!(MetricSummary::from_samples(&[2.5]).cell(2), "2.50 (n=1)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSummary {
    /// Number of samples aggregated.
    pub n: u64,
    /// Sample mean (zero when empty).
    pub mean: f64,
    /// Sample (`n − 1`) standard deviation; zero when `n < 2`.
    pub std_dev: f64,
    /// Smallest sample (zero when empty).
    pub min: f64,
    /// Largest sample (zero when empty).
    pub max: f64,
}

impl MetricSummary {
    /// Aggregates `samples` (any order; the fold sorts first).
    ///
    /// An empty slice yields the all-zero `n = 0` summary, which
    /// renders as `—`.
    ///
    /// # Panics
    ///
    /// Panics if any sample is not finite.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let stats: OnlineStats = sorted.iter().copied().collect();
        MetricSummary {
            n: stats.count(),
            mean: stats.mean(),
            std_dev: stats.sample_std_dev(),
            min: stats.min().unwrap_or(0.0),
            max: stats.max().unwrap_or(0.0),
        }
    }

    /// `true` when no samples were aggregated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Renders the `mean ± σ (n)` cell with `decimals` fraction
    /// digits: `"1.19 ± 0.02 (n=5)"`, a bare `"1.19 (n=1)"` when σ is
    /// undefined, `"—"` when empty.
    #[must_use]
    pub fn cell(&self, decimals: usize) -> String {
        match self.n {
            0 => "—".into(),
            1 => format!("{:.decimals$} (n=1)", self.mean),
            n => format!(
                "{:.decimals$} ± {:.decimals$} (n={n})",
                self.mean, self.std_dev
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn matches_two_pass_computation() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let s: OnlineStats = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.sample_variance() - var).abs() < 1e-10);
    }

    #[test]
    fn extrema_are_tracked() {
        let s: OnlineStats = [3.0, -1.0, 7.0, 2.0].into_iter().collect();
        assert_eq!(s.min(), Some(-1.0));
        assert_eq!(s.max(), Some(7.0));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_sample_panics() {
        let mut s = OnlineStats::new();
        s.push(f64::NAN);
    }

    #[test]
    fn sample_variance_uses_bessel_correction() {
        let s: OnlineStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        // Population variance 4.0 over 8 samples -> sample variance
        // 4.0 * 8 / 7.
        assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let s: OnlineStats = [3.5].into_iter().collect();
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.sample_std_dev(), 0.0);
    }

    #[test]
    fn constant_series_has_zero_sigma() {
        let s: OnlineStats = std::iter::repeat_n(7.25, 12).collect();
        assert_eq!(s.mean(), 7.25);
        assert_eq!(s.sample_std_dev(), 0.0);
    }

    #[test]
    fn summary_matches_two_pass_reference() {
        let xs = [1.0, 4.0, 2.0, 8.0, 5.0];
        let s = MetricSummary::from_samples(&xs);
        let mean = xs.iter().sum::<f64>() / 5.0;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / 4.0;
        assert!((s.mean - mean).abs() < 1e-12);
        assert!((s.std_dev - var.sqrt()).abs() < 1e-12);
        assert_eq!((s.min, s.max, s.n), (1.0, 8.0, 5));
    }

    #[test]
    fn summary_is_bit_identical_under_permutation() {
        let a = MetricSummary::from_samples(&[0.1 + 0.2, 0.3, 1e-9, -7.5]);
        let b = MetricSummary::from_samples(&[-7.5, 0.3, 0.1 + 0.2, 1e-9]);
        assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        assert_eq!(a.std_dev.to_bits(), b.std_dev.to_bits());
        assert_eq!(
            (a.min.to_bits(), a.max.to_bits()),
            (b.min.to_bits(), b.max.to_bits())
        );
    }

    #[test]
    fn n1_renders_bare_mean_and_zero_spread() {
        let s = MetricSummary::from_samples(&[1.19]);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.cell(2), "1.19 (n=1)");
    }

    #[test]
    fn empty_summary_renders_dash() {
        let s = MetricSummary::from_samples(&[]);
        assert!(s.is_empty());
        assert_eq!(s.cell(2), "—");
    }

    #[test]
    fn constant_series_has_zero_sigma_but_full_cell() {
        let s = MetricSummary::from_samples(&[3.0; 6]);
        assert_eq!(s.cell(1), "3.0 ± 0.0 (n=6)");
        assert_eq!(s.min, s.max);
    }
}
