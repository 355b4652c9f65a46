//! Property tests for the cross-run fold: [`MetricSummary`] must agree
//! with brute-force two-pass references on arbitrary inputs, including
//! the n = 1 (σ undefined, reported as zero / bare-mean cell) and
//! constant-series edge cases.

use proptest::prelude::*;
use qgov_metrics::MetricSummary;

/// Brute-force reference: (mean, sample variance, min, max).
fn reference(xs: &[f64]) -> (f64, f64, f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = if xs.len() < 2 {
        0.0
    } else {
        xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
    };
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (mean, var, min, max)
}

/// Absolute-or-relative tolerance for comparing the streaming fold
/// against the naive two-pass sum.
fn close(a: f64, b: f64, scale: f64) -> bool {
    (a - b).abs() <= 1e-9 * scale.abs().max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn metric_summary_matches_brute_force(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..64)
    ) {
        let (mean, var, min, max) = reference(&xs);
        let s = MetricSummary::from_samples(&xs);
        prop_assert!(close(s.mean, mean, mean), "mean {} vs {}", s.mean, mean);
        prop_assert!(
            close(s.std_dev * s.std_dev, var, var.max(1e6)),
            "variance {} vs {}", s.std_dev * s.std_dev, var
        );
        prop_assert_eq!(s.min.to_bits(), min.to_bits());
        prop_assert_eq!(s.max.to_bits(), max.to_bits());
        prop_assert_eq!(s.n, xs.len() as u64);
        // Mean is bracketed by the extrema; σ is non-negative.
        prop_assert!(s.min <= s.mean + 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert!(s.std_dev >= 0.0);
    }

    #[test]
    fn summaries_are_invariant_to_sample_order(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..32),
        rot in 0usize..32
    ) {
        let mut rotated = xs.clone();
        rotated.rotate_left(rot % xs.len().max(1));
        let a = MetricSummary::from_samples(&xs);
        let b = MetricSummary::from_samples(&rotated);
        prop_assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        prop_assert_eq!(a.std_dev.to_bits(), b.std_dev.to_bits());
        prop_assert_eq!(a.min.to_bits(), b.min.to_bits());
        prop_assert_eq!(a.max.to_bits(), b.max.to_bits());
    }

    #[test]
    fn n1_spread_is_zero_and_cell_is_bare(x in -1e6f64..1e6) {
        let summary = MetricSummary::from_samples(&[x]);
        prop_assert_eq!(summary.n, 1);
        prop_assert_eq!(summary.std_dev, 0.0);
        prop_assert_eq!(summary.min.to_bits(), x.to_bits());
        prop_assert_eq!(summary.max.to_bits(), x.to_bits());
        let cell = summary.cell(3);
        prop_assert!(cell.ends_with("(n=1)"), "{}", cell);
        prop_assert!(!cell.contains('±'), "{}", cell);
    }

    #[test]
    fn constant_series_has_zero_spread(x in -1e5f64..1e5, n in 2usize..32) {
        let xs = vec![x; n];
        let summary = MetricSummary::from_samples(&xs);
        // Welford on identical values cancels exactly: σ is exactly
        // zero, not merely tiny.
        prop_assert_eq!(summary.std_dev, 0.0);
        prop_assert_eq!(summary.mean.to_bits(), x.to_bits());
    }
}
