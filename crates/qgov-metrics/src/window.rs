//! Windowed streaming folds: convergence-over-time summaries for
//! long-horizon runs.
//!
//! A 100k-frame experiment cannot report a single mean and call it a
//! learning curve — the whole point of a long horizon is to see the
//! governor's behaviour *change* as the Q-table converges. A
//! [`WindowedStats`] fold splits the sample stream into fixed-length
//! windows and keeps one [`WindowSummary`] (mean / σ / extrema) per
//! window, in O(windows) memory however long the stream: the streaming
//! complement to the whole-run [`OnlineStats`] accumulator, the same
//! way `ShardedTrace` complements `WorkloadTrace` on the workload
//! side.

use crate::stats::OnlineStats;

/// One completed window's aggregate: its position in the stream plus
/// the moments of its samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSummary {
    /// Zero-based window index.
    pub index: usize,
    /// Stream index of the window's first sample.
    pub start: u64,
    /// Number of samples in the window (every window holds the
    /// configured length except possibly the last).
    pub len: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample (`n − 1`) standard deviation; zero when `len < 2`.
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl WindowSummary {
    fn from_stats(index: usize, start: u64, stats: &OnlineStats) -> Self {
        WindowSummary {
            index,
            start,
            len: stats.count(),
            mean: stats.mean(),
            std_dev: stats.sample_std_dev(),
            min: stats.min().unwrap_or(0.0),
            max: stats.max().unwrap_or(0.0),
        }
    }
}

/// Folds a sample stream into fixed-length window summaries in
/// O(windows) memory.
///
/// Samples are pushed in stream order; every `window_len` samples a
/// window seals and its summary is appended. The trailing partial
/// window (if any) is sealed by [`WindowedStats::into_windows`].
///
/// # Examples
///
/// ```
/// use qgov_metrics::WindowedStats;
///
/// let mut w = WindowedStats::new(3);
/// w.extend([1.0, 2.0, 3.0, 10.0, 20.0, 30.0, 5.0]);
/// assert_eq!(w.completed().len(), 2);
/// assert_eq!(w.completed()[1].mean, 20.0);
///
/// let windows = w.into_windows(); // seals the 1-sample tail
/// assert_eq!(windows.len(), 3);
/// assert_eq!((windows[2].start, windows[2].len, windows[2].mean), (6, 1, 5.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedStats {
    window_len: u64,
    total: u64,
    current: OnlineStats,
    windows: Vec<WindowSummary>,
}

impl WindowedStats {
    /// Creates a fold with `window_len` samples per window.
    ///
    /// # Panics
    ///
    /// Panics if `window_len` is zero.
    #[must_use]
    pub fn new(window_len: u64) -> Self {
        assert!(window_len > 0, "a window needs at least one sample");
        WindowedStats {
            window_len,
            total: 0,
            current: OnlineStats::new(),
            windows: Vec::new(),
        }
    }

    /// A fold sized so a stream of `total` samples yields about
    /// `windows` windows: `window_len = ceil(total / windows)`,
    /// clamped to at least one sample per window.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is zero.
    #[must_use]
    pub fn spanning(total: u64, windows: u64) -> Self {
        assert!(windows > 0, "at least one window is required");
        Self::new(total.div_ceil(windows).max(1))
    }

    /// Adds one sample, sealing the current window if it fills.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite (inherited from [`OnlineStats`]).
    pub fn push(&mut self, x: f64) {
        self.current.push(x);
        self.total += 1;
        if self.current.count() == self.window_len {
            self.seal();
        }
    }

    fn seal(&mut self) {
        let start = self.total - self.current.count();
        let summary = WindowSummary::from_stats(self.windows.len(), start, &self.current);
        self.windows.push(summary);
        self.current = OnlineStats::new();
    }

    /// Samples per full window.
    #[must_use]
    pub fn window_len(&self) -> u64 {
        self.window_len
    }

    /// Total samples pushed so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// `true` when no samples were pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The sealed (full-length) windows so far, in stream order.
    #[must_use]
    pub fn completed(&self) -> &[WindowSummary] {
        &self.windows
    }

    /// Consumes the fold, sealing the trailing partial window (if any),
    /// and returns every window in stream order.
    #[must_use]
    pub fn into_windows(mut self) -> Vec<WindowSummary> {
        if self.current.count() > 0 {
            self.seal();
        }
        self.windows
    }
}

impl Extend<f64> for WindowedStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_split_the_stream_in_order() {
        let mut w = WindowedStats::new(4);
        w.extend((0..12).map(f64::from));
        let windows = w.into_windows();
        assert_eq!(windows.len(), 3);
        for (i, win) in windows.iter().enumerate() {
            assert_eq!(win.index, i);
            assert_eq!(win.start, i as u64 * 4);
            assert_eq!(win.len, 4);
        }
        assert_eq!(windows[0].mean, 1.5);
        assert_eq!(windows[2].mean, 9.5);
        assert_eq!((windows[2].min, windows[2].max), (8.0, 11.0));
    }

    #[test]
    fn partial_tail_is_sealed_only_on_finish() {
        let mut w = WindowedStats::new(5);
        w.extend([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(w.completed().len(), 1);
        assert_eq!(w.count(), 7);
        let windows = w.into_windows();
        assert_eq!(windows.len(), 2);
        assert_eq!((windows[1].start, windows[1].len), (5, 2));
        assert_eq!(windows[1].mean, 6.5);
    }

    #[test]
    fn exact_multiple_leaves_no_partial_tail() {
        let mut w = WindowedStats::new(3);
        w.extend([1.0; 6]);
        assert_eq!(w.completed().len(), 2);
        assert_eq!(w.into_windows().len(), 2);
    }

    #[test]
    fn empty_fold_yields_no_windows() {
        let w = WindowedStats::new(3);
        assert!(w.is_empty());
        assert!(w.into_windows().is_empty());
    }

    #[test]
    fn window_std_dev_is_sample_corrected() {
        let mut w = WindowedStats::new(2);
        w.extend([1.0, 3.0]);
        let windows = w.into_windows();
        // Sample (n − 1) std dev of {1, 3} is √2.
        assert!((windows[0].std_dev - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn spanning_sizes_the_window_from_the_total() {
        assert_eq!(WindowedStats::spanning(100, 10).window_len(), 10);
        assert_eq!(WindowedStats::spanning(101, 10).window_len(), 11);
        assert_eq!(WindowedStats::spanning(3, 10).window_len(), 1);
        let mut w = WindowedStats::spanning(20_000, 10);
        w.extend((0..20_000).map(|i| f64::from(i % 7)));
        assert_eq!(w.into_windows().len(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_window_len_panics() {
        let _ = WindowedStats::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one window")]
    fn zero_window_count_panics() {
        let _ = WindowedStats::spanning(10, 0);
    }
}
