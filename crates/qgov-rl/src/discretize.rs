//! Discretisation of continuous measurements onto Q-table levels.
//!
//! "The size of the Q-table is limited by discretising the range of
//! workloads (slack and cycle count) into N levels. Here we have used N
//! as 5 in view of a pre-characterisation of the applications" (Section
//! II-A). [`UniformDiscretizer`] splits a fixed range evenly.
//!
//! It maps a measurement to one of `levels()` discrete levels
//! (`0 ..= levels() - 1`), clamping out-of-range inputs to the extreme
//! levels; NaN maps to level 0 (callers should prevent NaN upstream).

use crate::RlError;

/// Splits `[min, max]` into `levels` equal-width bins.
///
/// # Examples
///
/// ```
/// use qgov_rl::UniformDiscretizer;
///
/// let d = UniformDiscretizer::new(0.0, 10.0, 5).unwrap();
/// assert_eq!(d.level_of(-3.0), 0);  // clamped
/// assert_eq!(d.level_of(1.0), 0);
/// assert_eq!(d.level_of(5.0), 2);
/// assert_eq!(d.level_of(9.99), 4);
/// assert_eq!(d.level_of(42.0), 4);  // clamped
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UniformDiscretizer {
    min: f64,
    max: f64,
    levels: usize,
}

impl UniformDiscretizer {
    /// Creates a uniform discretiser over `[min, max]` with `levels`
    /// bins.
    ///
    /// # Errors
    ///
    /// Returns an error if `levels` is zero, if the bounds are not
    /// finite, or if `min >= max`.
    pub fn new(min: f64, max: f64, levels: usize) -> Result<Self, RlError> {
        RlError::check_nonempty("levels", levels)?;
        if !min.is_finite() || !max.is_finite() {
            return Err(RlError::NotFinite { name: "bounds" });
        }
        if min >= max {
            return Err(RlError::NotPositive {
                name: "range width",
                value: (max - min).to_string(),
            });
        }
        Ok(UniformDiscretizer { min, max, levels })
    }

    /// Number of levels N.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The level of `value`, clamped to the range.
    #[must_use]
    pub fn level_of(&self, value: f64) -> usize {
        if value.is_nan() || value <= self.min {
            return 0;
        }
        if value >= self.max {
            return self.levels - 1;
        }
        let frac = (value - self.min) / (self.max - self.min);
        ((frac * self.levels as f64) as usize).min(self.levels - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_rejects_bad_configs() {
        assert!(UniformDiscretizer::new(0.0, 1.0, 0).is_err());
        assert!(UniformDiscretizer::new(1.0, 1.0, 5).is_err());
        assert!(UniformDiscretizer::new(2.0, 1.0, 5).is_err());
        assert!(UniformDiscretizer::new(f64::NAN, 1.0, 5).is_err());
    }

    #[test]
    fn uniform_levels_partition_range() {
        let d = UniformDiscretizer::new(0.0, 100.0, 5).unwrap();
        assert_eq!(d.level_of(0.0), 0);
        assert_eq!(d.level_of(19.9), 0);
        assert_eq!(d.level_of(20.0), 1);
        assert_eq!(d.level_of(99.9), 4);
        assert_eq!(d.level_of(100.0), 4);
    }

    #[test]
    fn uniform_clamps_and_handles_nan() {
        let d = UniformDiscretizer::new(-1.0, 1.0, 5).unwrap();
        assert_eq!(d.level_of(-5.0), 0);
        assert_eq!(d.level_of(5.0), 4);
        assert_eq!(d.level_of(f64::NAN), 0);
    }

    #[test]
    fn uniform_supports_negative_ranges_for_slack() {
        // Slack ratio L ranges over [-1, 1]; level 2 of 5 straddles zero.
        let d = UniformDiscretizer::new(-1.0, 1.0, 5).unwrap();
        assert_eq!(d.level_of(0.0), 2);
        assert_eq!(d.level_of(-0.9), 0);
        assert_eq!(d.level_of(0.9), 4);
    }
}
