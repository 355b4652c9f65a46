//! Q-table state formation: workload level × slack level.
//!
//! [`StateMapper`] bins the workload at N-ths of the pre-characterised
//! range.

use qgov_rl::{RlError, UniformDiscretizer};

/// Maps continuous (workload, slack) measurements onto Q-table row
/// indices.
///
/// The workload dimension splits the offline pre-characterised range
/// `[min, max]` of total cycles per frame (Section II-A's
/// "pre-characterisation of the applications") into N equal levels:
/// boundary `k` (of `N − 1`) sits at `min + (max − min)·k/N`.
/// The slack ratio `L ∈ [−1, 1]` is discretised uniformly. For the
/// many-core formulation, per-core *shares* of the total workload
/// (Eq. 7) are discretised uniformly over `[0, 2/C]` — twice the fair
/// share — so a balanced system sits mid-scale.
///
/// # Examples
///
/// ```
/// use qgov_core::StateMapper;
///
/// let mapper = StateMapper::from_bounds(0.0, 1e8, 5, 4).unwrap();
/// assert_eq!(mapper.states(), 25);
/// let low = mapper.state_for_total(1e6, -0.5);
/// let high = mapper.state_for_total(9.9e7, -0.5);
/// assert_ne!(low, high);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateMapper {
    /// Ascending inner workload boundaries; `levels − 1` of them.
    workload: Vec<f64>,
    share: UniformDiscretizer,
    slack: UniformDiscretizer,
}

impl StateMapper {
    /// Builds a mapper from a `(min, max)` workload range in total
    /// cycles per frame (offline pre-characterisation), with `levels`
    /// levels (the paper's N) in both the workload and the slack
    /// dimension.
    ///
    /// # Errors
    ///
    /// Returns an [`RlError`] for a non-finite, empty or inverted range
    /// or a zero level or core count.
    pub fn from_bounds(min: f64, max: f64, levels: usize, cores: usize) -> Result<Self, RlError> {
        if !(min.is_finite() && max.is_finite() && (max - min).is_finite() && min < max) {
            return Err(RlError::NotPositive {
                name: "workload range width",
                value: format!("({min}, {max})"),
            });
        }
        RlError::check_nonempty("cores", cores)?;
        RlError::check_nonempty("levels", levels)?;
        let workload = (1..levels)
            .map(|k| min + (max - min) * k as f64 / levels as f64)
            .collect();
        Ok(StateMapper {
            workload,
            share: UniformDiscretizer::new(0.0, 2.0 / cores as f64, levels)?,
            slack: UniformDiscretizer::new(-1.0, 1.0 + 1e-12, levels)?,
        })
    }

    /// Number of levels N in each dimension.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.slack.levels()
    }

    /// Total number of Q-table states, `|S| = N × N`.
    #[must_use]
    pub fn states(&self) -> usize {
        self.levels() * self.levels()
    }

    /// State index for a predicted **total** workload (cycles) and
    /// average slack (Section II-A formulation).
    #[must_use]
    pub fn state_for_total(&self, total_cycles: f64, slack: f64) -> usize {
        // The number of boundaries at or below the workload: a workload
        // below `min` (or NaN) is level 0, one above `max` the top level.
        let w = self.workload.partition_point(|&b| b <= total_cycles);
        let l = self.slack.level_of(slack);
        w * self.slack.levels() + l
    }

    /// State index for one core's normalised workload share (Eq. 7) and
    /// average slack (Section II-D formulation).
    #[must_use]
    pub fn state_for_share(&self, share: f64, slack: f64) -> usize {
        let w = self.share.level_of(share);
        let l = self.slack.level_of(slack);
        w * self.slack.levels() + l
    }

    /// Normalises per-core predicted workloads by the system total —
    /// Eq. 7. A zero total yields equal shares.
    #[must_use]
    pub fn normalize_shares(predictions: &[f64]) -> Vec<f64> {
        let total: f64 = predictions.iter().sum();
        if total <= 0.0 {
            return vec![1.0 / predictions.len().max(1) as f64; predictions.len()];
        }
        predictions.iter().map(|&p| p / total).collect()
    }

    /// One core's Eq. 7 share, computed scalar — bit-identical to
    /// `normalize_shares(predictions)[core]` without materialising the
    /// share vector (the RTM's allocation-free per-epoch path).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range of a non-empty `predictions`.
    #[must_use]
    pub fn share_of(predictions: &[f64], core: usize) -> f64 {
        let total: f64 = predictions.iter().sum();
        if total <= 0.0 {
            return 1.0 / predictions.len().max(1) as f64;
        }
        predictions[core] / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapper() -> StateMapper {
        StateMapper::from_bounds(0.0, 100.0, 5, 4).unwrap()
    }

    #[test]
    fn state_space_size_is_product() {
        assert_eq!(mapper().states(), 25);
        let m = StateMapper::from_bounds(0.0, 1.0, 3, 4).unwrap();
        assert_eq!(m.states(), 9);
    }

    #[test]
    fn distinct_dimensions_produce_distinct_states() {
        let m = mapper();
        let s1 = m.state_for_total(10.0, 0.0);
        let s2 = m.state_for_total(90.0, 0.0);
        let s3 = m.state_for_total(10.0, 0.9);
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
        assert_ne!(s2, s3);
    }

    #[test]
    fn all_states_are_in_range() {
        let m = mapper();
        for wl in [-10.0, 0.0, 25.0, 50.0, 99.0, 1e9] {
            for sl in [-5.0, -1.0, -0.2, 0.0, 0.4, 1.0, 5.0] {
                assert!(m.state_for_total(wl, sl) < m.states());
                assert!(m.state_for_share(wl / 100.0, sl) < m.states());
            }
        }
    }

    #[test]
    fn balanced_share_sits_mid_scale() {
        let m = mapper();
        // Fair share on 4 cores = 0.25 over [0, 0.5]: level 2 of 5.
        let s = m.state_for_share(0.25, 0.0);
        let expected_level = 2;
        assert_eq!(s / m.levels(), expected_level);
    }

    #[test]
    fn normalize_shares_matches_equation_seven() {
        let shares = StateMapper::normalize_shares(&[10.0, 30.0, 40.0, 20.0]);
        assert_eq!(shares, vec![0.1, 0.3, 0.4, 0.2]);
        let sum: f64 = shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_total_gives_equal_shares() {
        let shares = StateMapper::normalize_shares(&[0.0, 0.0, 0.0, 0.0]);
        assert_eq!(shares, vec![0.25; 4]);
    }

    #[test]
    fn share_of_is_bit_identical_to_indexed_normalize_shares() {
        for preds in [
            vec![10.0, 30.0, 40.0, 20.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![1.0e17, 3.0, 0.5, 7.7],
            vec![5.0],
        ] {
            let shares = StateMapper::normalize_shares(&preds);
            for (core, share) in shares.iter().enumerate() {
                assert_eq!(
                    StateMapper::share_of(&preds, core).to_bits(),
                    share.to_bits(),
                    "core {core} of {preds:?}"
                );
            }
        }
    }

    #[test]
    fn workload_boundaries_split_the_range_evenly() {
        // A state is `workload level × N + slack level`.
        let level = |m: &StateMapper, value: f64| m.state_for_total(value, 0.0) / m.levels();
        // N = 5: boundaries at exact fifths of the range.
        let m = StateMapper::from_bounds(0.0, 100.0, 5, 4).unwrap();
        for (value, expect) in [(19.999, 0), (20.0, 1), (59.999, 2), (60.0, 3), (80.0, 4)] {
            assert_eq!(level(&m, value), expect, "workload {value}");
        }
        // N = 3: boundaries at thirds.
        let m = StateMapper::from_bounds(0.0, 90.0, 3, 4).unwrap();
        for (value, expect) in [(29.999, 0), (30.0, 1), (59.999, 1), (60.0, 2)] {
            assert_eq!(level(&m, value), expect, "workload {value}");
        }
        assert_eq!(level(&m, f64::NAN), 0);
        assert_eq!(m.levels(), 3);
        // N = 2 and every level count the state-levels ablation runs,
        // on a pre-characterised range: boundary k is exactly k/N of it.
        let (min, max) = (5e7, 2.5e8);
        for levels in [2usize, 3, 4, 5, 7, 9] {
            let m = StateMapper::from_bounds(min, max, levels, 4).unwrap();
            assert_eq!(m.workload.len(), levels - 1);
            for (k, &boundary) in (1..levels).zip(&m.workload) {
                let expect = min + (max - min) * k as f64 / levels as f64;
                assert_eq!(
                    boundary.to_bits(),
                    expect.to_bits(),
                    "N = {levels}, k = {k}"
                );
            }
        }
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(StateMapper::from_bounds(1.0, 1.0, 5, 4).is_err());
        assert!(StateMapper::from_bounds(0.0, 1.0, 0, 4).is_err());
        assert!(StateMapper::from_bounds(0.0, 1.0, 5, 0).is_err());
    }
}
