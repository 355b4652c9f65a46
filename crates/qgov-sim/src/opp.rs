//! Voltage–frequency operating points.

use crate::SimError;
use qgov_units::{Freq, Volt};

/// A single operating performance point: a frequency and the supply
/// voltage required to sustain it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Opp {
    /// Clock frequency of the point.
    pub freq: Freq,
    /// Supply voltage of the point.
    pub volt: Volt,
}

impl Opp {
    /// Creates an operating point.
    #[must_use]
    pub const fn new(freq: Freq, volt: Volt) -> Self {
        Opp { freq, volt }
    }
}

impl core::fmt::Display for Opp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} @ {}", self.freq, self.volt)
    }
}

/// An ordered table of operating points — the action space `A{V, F}` of
/// the paper's Q-table.
///
/// Points are kept in strictly ascending frequency order with
/// non-decreasing voltage, the invariant real `cpufreq` tables satisfy.
///
/// # Examples
///
/// ```
/// use qgov_sim::OppTable;
///
/// let table = OppTable::odroid_xu3_a15();
/// assert_eq!(table.len(), 19); // 200 MHz ..= 2000 MHz in 100 MHz steps
/// assert_eq!(table.get(0).unwrap().freq.as_mhz(), 200.0);
/// assert_eq!(table.get(18).unwrap().freq.as_mhz(), 2000.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OppTable {
    points: Vec<Opp>,
}

impl OppTable {
    /// Creates a table from ascending operating points.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the table is empty, the
    /// frequencies are not strictly ascending, or the voltages decrease
    /// with frequency.
    pub fn new(points: Vec<Opp>) -> Result<Self, SimError> {
        if points.is_empty() {
            return Err(SimError::InvalidConfig {
                reason: "operating-point table must be non-empty".into(),
            });
        }
        for pair in points.windows(2) {
            if pair[0].freq >= pair[1].freq {
                return Err(SimError::InvalidConfig {
                    reason: format!(
                        "frequencies must be strictly ascending ({} then {})",
                        pair[0].freq, pair[1].freq
                    ),
                });
            }
            if pair[0].volt > pair[1].volt {
                return Err(SimError::InvalidConfig {
                    reason: format!(
                        "voltage must not decrease with frequency ({} then {})",
                        pair[0].volt, pair[1].volt
                    ),
                });
            }
        }
        Ok(OppTable { points })
    }

    /// The 19-point ARM Cortex-A15 cluster table of the ODROID-XU3:
    /// 200 MHz to 2000 MHz in 100 MHz steps, with a voltage curve
    /// matching the board's stock DVFS table (0.90 V – 1.3625 V).
    #[must_use]
    pub fn odroid_xu3_a15() -> Self {
        const TABLE_MHZ_MV: [(u64, f64); 19] = [
            (200, 900.0),
            (300, 912.5),
            (400, 925.0),
            (500, 937.5),
            (600, 950.0),
            (700, 975.0),
            (800, 1000.0),
            (900, 1025.0),
            (1000, 1050.0),
            (1100, 1075.0),
            (1200, 1112.5),
            (1300, 1150.0),
            (1400, 1187.5),
            (1500, 1225.0),
            (1600, 1262.5),
            (1700, 1300.0),
            (1800, 1337.5),
            (1900, 1350.0),
            (2000, 1362.5),
        ];
        let points = TABLE_MHZ_MV
            .iter()
            .map(|&(mhz, mv)| Opp::new(Freq::from_mhz(mhz), Volt::from_mv(mv)))
            .collect();
        Self::new(points).expect("built-in A15 table is valid")
    }

    /// The 13-point ARM Cortex-A7 cluster table of the ODROID-XU3:
    /// 200 MHz to 1400 MHz in 100 MHz steps.
    #[must_use]
    pub fn odroid_xu3_a7() -> Self {
        const TABLE_MHZ_MV: [(u64, f64); 13] = [
            (200, 912.5),
            (300, 925.0),
            (400, 937.5),
            (500, 950.0),
            (600, 975.0),
            (700, 987.5),
            (800, 1000.0),
            (900, 1037.5),
            (1000, 1075.0),
            (1100, 1112.5),
            (1200, 1150.0),
            (1300, 1200.0),
            (1400, 1250.0),
        ];
        let points = TABLE_MHZ_MV
            .iter()
            .map(|&(mhz, mv)| Opp::new(Freq::from_mhz(mhz), Volt::from_mv(mv)))
            .collect();
        Self::new(points).expect("built-in A7 table is valid")
    }

    /// Number of operating points (19 for the XU3 A15 — the paper's
    /// action-space size).
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `false`: a table is never empty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The operating point at `index`, or `None` if out of range.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<Opp> {
        self.points.get(index).copied()
    }

    /// All points in ascending frequency order.
    #[must_use]
    pub fn points(&self) -> &[Opp] {
        &self.points
    }

    /// Iterates over the points in ascending frequency order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Opp> + '_ {
        self.points.iter().copied()
    }

    /// The index of the highest operating point.
    #[must_use]
    pub fn max_index(&self) -> usize {
        self.points.len() - 1
    }

    /// The highest frequency in the table.
    #[must_use]
    pub fn max_freq(&self) -> Freq {
        self.points[self.points.len() - 1].freq
    }

    /// The index of the slowest point whose frequency is at least
    /// `freq`, or the top point if none suffices — how `cpufreq` maps a
    /// requested frequency onto a discrete table.
    #[must_use]
    pub fn index_at_or_above(&self, freq: Freq) -> usize {
        self.points
            .iter()
            .position(|p| p.freq >= freq)
            .unwrap_or(self.points.len() - 1)
    }

    /// The index of the fastest point whose frequency is at most
    /// `freq`, or the bottom point if none qualifies.
    #[must_use]
    pub fn index_at_or_below(&self, freq: Freq) -> usize {
        self.points
            .iter()
            .rposition(|p| p.freq <= freq)
            .unwrap_or_default()
    }

    /// Per-point frequencies in GHz — the `F` vector consumed by the
    /// EPD exploration policy (Eq. 2).
    #[must_use]
    pub fn freqs_ghz(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.freq.as_ghz()).collect()
    }

    /// Validates an index, converting it to a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OppOutOfRange`] if `index >= len()`.
    pub fn check_index(&self, index: usize) -> Result<(), SimError> {
        if index >= self.points.len() {
            Err(SimError::OppOutOfRange {
                index,
                len: self.points.len(),
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a15_table_matches_paper() {
        let t = OppTable::odroid_xu3_a15();
        assert_eq!(t.len(), 19);
        assert_eq!(t.points()[0].freq, Freq::from_mhz(200));
        assert_eq!(t.max_freq(), Freq::from_mhz(2000));
        // 100 MHz steps.
        for (i, p) in t.iter().enumerate() {
            assert_eq!(p.freq, Freq::from_mhz(200 + 100 * i as u64));
        }
    }

    #[test]
    fn a7_table_is_smaller_and_slower() {
        let t = OppTable::odroid_xu3_a7();
        assert_eq!(t.len(), 13);
        assert_eq!(t.max_freq(), Freq::from_mhz(1400));
    }

    #[test]
    fn voltages_are_monotone() {
        for t in [OppTable::odroid_xu3_a15(), OppTable::odroid_xu3_a7()] {
            for pair in t.points().windows(2) {
                assert!(pair[0].volt <= pair[1].volt);
            }
        }
    }

    #[test]
    fn rejects_unsorted_frequencies() {
        let pts = vec![
            Opp::new(Freq::from_mhz(500), Volt::from_mv(900.0)),
            Opp::new(Freq::from_mhz(400), Volt::from_mv(950.0)),
        ];
        assert!(OppTable::new(pts).is_err());
    }

    #[test]
    fn rejects_decreasing_voltage() {
        let pts = vec![
            Opp::new(Freq::from_mhz(400), Volt::from_mv(950.0)),
            Opp::new(Freq::from_mhz(500), Volt::from_mv(900.0)),
        ];
        assert!(OppTable::new(pts).is_err());
    }

    #[test]
    fn rejects_empty_table() {
        assert!(OppTable::new(vec![]).is_err());
    }

    #[test]
    fn index_lookups() {
        let t = OppTable::odroid_xu3_a15();
        assert_eq!(t.index_at_or_above(Freq::from_mhz(1)), 0);
        assert_eq!(t.index_at_or_above(Freq::from_mhz(200)), 0);
        assert_eq!(t.index_at_or_above(Freq::from_mhz(250)), 1);
        assert_eq!(t.index_at_or_above(Freq::from_mhz(2000)), 18);
        assert_eq!(t.index_at_or_above(Freq::from_mhz(9999)), 18);
        assert_eq!(t.index_at_or_below(Freq::from_mhz(1)), 0);
        assert_eq!(t.index_at_or_below(Freq::from_mhz(250)), 0);
        assert_eq!(t.index_at_or_below(Freq::from_mhz(2000)), 18);
    }

    #[test]
    fn freqs_ghz_matches_table() {
        let t = OppTable::odroid_xu3_a15();
        let f = t.freqs_ghz();
        assert_eq!(f.len(), 19);
        assert!((f[0] - 0.2).abs() < 1e-12);
        assert!((f[18] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn check_index_bounds() {
        let t = OppTable::odroid_xu3_a15();
        assert!(t.check_index(18).is_ok());
        assert!(t.check_index(19).is_err());
    }

    #[test]
    fn display_shows_freq_and_volt() {
        let t = OppTable::odroid_xu3_a15();
        let s = t.get(18).unwrap().to_string();
        assert!(s.contains("2000 MHz"));
        assert!(s.contains("1.3625 V"));
    }
}
