//! The voltage–frequency controller.
//!
//! Changing operating point on real silicon is not free: the voltage
//! regulator slews at a finite rate and the PLL must relock. These
//! latencies are one of the three learning-overhead components the paper
//! identifies ("sensor sampling …, processing and V-F transitions",
//! Section III-D) and feed the `T_OVH` term of the slack equation
//! (Eq. 5).

use crate::{OppTable, SimError};
use qgov_units::{SimTime, Volt};

/// Fixed cost per transition (PLL relock, cpufreq bookkeeping): a typical
/// embedded regulator.
const BASE_LATENCY: SimTime = SimTime::from_us(30);

/// Additional latency per millivolt of voltage change (regulator slew
/// rate): ≈ 46 µs across the full A15 voltage range.
const LATENCY_PER_MV: SimTime = SimTime::from_ns(100);

/// Whether one V-F setting drives the whole cluster or each core has its
/// own domain.
///
/// Every simulated cluster sits on one shared V-F rail, as the XU3's A15
/// and A7 quads do, so [`VfController::domain`] always returns
/// [`VfDomain::PerCluster`]. The type keeps both variants because
/// perfbench's traced mirror of the harness (`perfbench/src/mirror.rs`)
/// matches on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VfDomain {
    /// One V-F setting shared by every core (hardware-faithful).
    PerCluster,
    /// An independent V-F setting per core (never simulated).
    PerCore,
}

/// Tracks the cluster's current operating point and accounts for
/// transition latency.
///
/// # Examples
///
/// ```
/// use qgov_sim::{OppTable, VfController};
///
/// let mut vf = VfController::new(OppTable::odroid_xu3_a15());
/// assert_eq!(vf.cluster_opp(), 0); // boots at the lowest point
/// let latency = vf.set_cluster_opp(18).unwrap();
/// assert!(!latency.is_zero());
/// assert_eq!(vf.cluster_opp(), 18);
/// assert_eq!(vf.transitions(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VfController {
    table: OppTable,
    /// The shared rail's current OPP index.
    current: usize,
    transitions: u64,
    total_latency: SimTime,
}

impl VfController {
    /// Creates a controller booting at the table's lowest operating
    /// point (as Linux does before a governor takes over).
    #[must_use]
    pub fn new(table: OppTable) -> Self {
        VfController {
            table,
            current: 0,
            transitions: 0,
            total_latency: SimTime::ZERO,
        }
    }

    /// The operating-point table.
    #[must_use]
    pub fn table(&self) -> &OppTable {
        &self.table
    }

    /// The V-F domain granularity: always [`VfDomain::PerCluster`]. Kept
    /// because perfbench's traced mirror of the harness dispatches on it.
    #[must_use]
    pub fn domain(&self) -> VfDomain {
        VfDomain::PerCluster
    }

    /// The cluster's OPP index.
    #[must_use]
    pub fn cluster_opp(&self) -> usize {
        self.current
    }

    /// Regulator slew plus PLL relock between two distinct points.
    fn transition_latency(&self, from: usize, to: usize) -> SimTime {
        let dv: Volt = {
            let a = self.table.get(from).expect("validated index").volt;
            let b = self.table.get(to).expect("validated index").volt;
            if a >= b {
                a - b
            } else {
                b - a
            }
        };
        let mv = dv.as_mv().round() as u64;
        BASE_LATENCY + LATENCY_PER_MV * mv
    }

    /// Retargets the whole cluster to OPP `index`, returning the
    /// transition latency (zero if already there). Every move to a new
    /// index costs at least the 30 µs base and counts as a transition.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OppOutOfRange`] for a bad index.
    pub fn set_cluster_opp(&mut self, index: usize) -> Result<SimTime, SimError> {
        self.table.check_index(index)?;
        if index == self.current {
            return Ok(SimTime::ZERO);
        }
        let latency = self.transition_latency(self.current, index);
        self.transitions += 1;
        self.total_latency += latency;
        self.current = index;
        Ok(latency)
    }

    /// Number of actual (non-no-op) transitions performed.
    #[must_use]
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Cumulated transition latency — the V-F component of `T_OVH`.
    #[must_use]
    pub fn total_latency(&self) -> SimTime {
        self.total_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> VfController {
        VfController::new(OppTable::odroid_xu3_a15())
    }

    #[test]
    fn boots_at_lowest_point_on_a_shared_rail() {
        let vf = controller();
        assert_eq!(vf.cluster_opp(), 0);
        assert_eq!(vf.domain(), VfDomain::PerCluster);
    }

    #[test]
    fn noop_transition_is_free() {
        let mut vf = controller();
        assert_eq!(vf.set_cluster_opp(0).unwrap(), SimTime::ZERO);
        assert_eq!(vf.transitions(), 0);
        assert_eq!(vf.total_latency(), SimTime::ZERO);
    }

    #[test]
    fn latency_scales_with_voltage_distance() {
        let mut vf = controller();
        let small = vf.set_cluster_opp(1).unwrap(); // 900 -> 912.5 mV
        let big = vf.set_cluster_opp(18).unwrap(); // 912.5 -> 1362.5 mV
        assert!(big > small, "bigger voltage swing must take longer");
        assert_eq!(big, SimTime::from_us(30) + SimTime::from_ns(100) * 450);
        assert_eq!(vf.transitions(), 2);
        assert_eq!(vf.total_latency(), small + big);
    }

    #[test]
    fn bad_indices_are_rejected() {
        let mut vf = controller();
        assert!(matches!(
            vf.set_cluster_opp(19),
            Err(SimError::OppOutOfRange { .. })
        ));
        assert_eq!(vf.cluster_opp(), 0);
    }
}
