//! Workload misprediction analysis — the statistics Fig. 3 quotes.

use crate::stats::OnlineStats;

/// Predicted-vs-actual workload error analysis.
///
/// The paper reports "the highest average misprediction with respect to
/// the average workload was approximately 8 %, evident for the first
/// 100 frames, with a lowest misprediction value of 3 % following it"
/// (Section III-B) — i.e. *windowed* mean absolute error relative to
/// the window's mean workload.
///
/// # Examples
///
/// ```
/// use qgov_metrics::MispredictionStats;
///
/// let predicted = [100.0, 110.0, 100.0];
/// let actual = [100.0, 100.0, 125.0];
/// let m = MispredictionStats::from_series(&predicted, &actual);
/// // errors: 0, 10, 25 -> mean 35/3 relative to mean actual 108.33
/// assert!((m.mean_relative_error() - (35.0 / 3.0) / (325.0 / 3.0)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MispredictionStats {
    predicted: Vec<f64>,
    actual: Vec<f64>,
}

impl MispredictionStats {
    /// Creates the analysis from aligned prediction/actual series.
    ///
    /// # Panics
    ///
    /// Panics if the series differ in length, are empty, or contain
    /// non-finite values.
    #[must_use]
    pub fn from_series(predicted: &[f64], actual: &[f64]) -> Self {
        assert_eq!(
            predicted.len(),
            actual.len(),
            "series must be aligned frame by frame"
        );
        assert!(!predicted.is_empty(), "series must be non-empty");
        assert!(
            predicted.iter().chain(actual).all(|v| v.is_finite()),
            "series values must be finite"
        );
        MispredictionStats {
            predicted: predicted.to_vec(),
            actual: actual.to_vec(),
        }
    }

    /// Number of frames analysed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.actual.len()
    }

    /// `false`: construction requires a non-empty series.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Mean absolute error over a frame range, relative to the range's
    /// mean actual workload — the paper's "average misprediction with
    /// respect to the average workload".
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or empty.
    #[must_use]
    pub fn windowed_relative_error(&self, start: usize, end: usize) -> f64 {
        assert!(
            start < end && end <= self.len(),
            "invalid window [{start}, {end})"
        );
        let mut abs_err = OnlineStats::new();
        let mut workload = OnlineStats::new();
        for i in start..end {
            abs_err.push((self.predicted[i] - self.actual[i]).abs());
            workload.push(self.actual[i]);
        }
        if workload.mean() == 0.0 {
            0.0
        } else {
            abs_err.mean() / workload.mean()
        }
    }

    /// Whole-run relative error.
    #[must_use]
    pub fn mean_relative_error(&self) -> f64 {
        self.windowed_relative_error(0, self.len())
    }

    /// Frames whose relative error exceeds `threshold` (the paper's
    /// "mispredictions" in Fig. 3).
    #[must_use]
    pub fn mispredicted_frames(&self, threshold: f64) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| {
                self.actual[i] > 0.0
                    && (self.predicted[i] - self.actual[i]).abs() / self.actual[i] > threshold
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_has_zero_error() {
        let xs = [5.0, 6.0, 7.0];
        let m = MispredictionStats::from_series(&xs, &xs);
        assert_eq!(m.mean_relative_error(), 0.0);
        assert!(m.mispredicted_frames(0.01).is_empty());
    }

    #[test]
    fn windowed_error_localises_bursts() {
        // Accurate for 10 frames, then a burst of error.
        let actual = vec![100.0; 20];
        let mut predicted = vec![100.0; 20];
        for p in predicted.iter_mut().skip(10) {
            *p = 130.0;
        }
        let m = MispredictionStats::from_series(&predicted, &actual);
        assert_eq!(m.windowed_relative_error(0, 10), 0.0);
        assert!((m.windowed_relative_error(10, 20) - 0.3).abs() < 1e-12);
        assert!((m.mean_relative_error() - 0.15).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn mismatched_lengths_panic() {
        let _ = MispredictionStats::from_series(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "invalid window")]
    fn bad_window_panics() {
        let m = MispredictionStats::from_series(&[1.0, 2.0], &[1.0, 2.0]);
        let _ = m.windowed_relative_error(1, 1);
    }
}
