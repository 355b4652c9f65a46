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

/// Whether one V-F setting drives the whole cluster or each core has its
/// own domain.
///
/// The XU3's A15 cluster has a single shared V-F domain
/// ([`VfDomain::PerCluster`], the faithful default); per-core domains
/// ([`VfDomain::PerCore`]) are provided for the per-core baseline
/// governors and ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VfDomain {
    /// One V-F setting shared by every core (hardware-faithful).
    #[default]
    PerCluster,
    /// An independent V-F setting per core.
    PerCore,
}

/// Transition-cost parameters of the V-F controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DvfsConfig {
    /// Fixed cost per transition (PLL relock, driver bookkeeping).
    pub base_latency: SimTime,
    /// Additional latency per millivolt of voltage change (regulator
    /// slew rate).
    pub latency_per_mv: SimTime,
}

impl DvfsConfig {
    /// Typical embedded regulator: 30 µs fixed cost plus 100 ns/mV slew
    /// (≈ 46 µs worst case across the full A15 voltage range).
    #[must_use]
    pub fn typical() -> Self {
        DvfsConfig {
            base_latency: SimTime::from_us(30),
            latency_per_mv: SimTime::from_ns(100),
        }
    }

    /// Zero-cost transitions (for isolating algorithmic effects in
    /// ablations).
    #[must_use]
    pub fn free() -> Self {
        DvfsConfig {
            base_latency: SimTime::ZERO,
            latency_per_mv: SimTime::ZERO,
        }
    }
}

impl Default for DvfsConfig {
    fn default() -> Self {
        Self::typical()
    }
}

/// Tracks the current operating point(s) and accounts for transition
/// latency.
///
/// # Examples
///
/// ```
/// use qgov_sim::{DvfsConfig, OppTable, VfController, VfDomain};
///
/// let table = OppTable::odroid_xu3_a15();
/// let mut vf = VfController::new(table, VfDomain::PerCluster, 4, DvfsConfig::typical()).unwrap();
/// assert_eq!(vf.cluster_opp(), 0); // boots at the lowest point
/// let latency = vf.set_cluster_opp(18).unwrap();
/// assert!(!latency.is_zero());
/// assert_eq!(vf.cluster_opp(), 18);
/// assert_eq!(vf.transitions(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VfController {
    table: OppTable,
    domain: VfDomain,
    /// Current OPP index per core (all identical under `PerCluster`).
    current: Vec<usize>,
    config: DvfsConfig,
    transitions: u64,
    total_latency: SimTime,
}

impl VfController {
    /// Creates a controller for `cores` cores, booting every domain at
    /// the table's lowest operating point (as Linux does before a
    /// governor takes over).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `cores` is zero.
    pub fn new(
        table: OppTable,
        domain: VfDomain,
        cores: usize,
        config: DvfsConfig,
    ) -> Result<Self, SimError> {
        if cores == 0 {
            return Err(SimError::InvalidConfig {
                reason: "a platform needs at least one core".into(),
            });
        }
        Ok(VfController {
            table,
            domain,
            current: vec![0; cores],
            config,
            transitions: 0,
            total_latency: SimTime::ZERO,
        })
    }

    /// The operating-point table.
    #[must_use]
    pub fn table(&self) -> &OppTable {
        &self.table
    }

    /// The V-F domain granularity.
    #[must_use]
    pub fn domain(&self) -> VfDomain {
        self.domain
    }

    /// The cluster's OPP index (under `PerCore`, core 0's index).
    #[must_use]
    pub fn cluster_opp(&self) -> usize {
        self.current[0]
    }

    /// The OPP index of `core`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CoreOutOfRange`] for a bad core index.
    pub fn core_opp(&self, core: usize) -> Result<usize, SimError> {
        self.current
            .get(core)
            .copied()
            .ok_or(SimError::CoreOutOfRange {
                core,
                cores: self.current.len(),
            })
    }

    fn transition_latency(&self, from: usize, to: usize) -> SimTime {
        if from == to {
            return SimTime::ZERO;
        }
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
        self.config.base_latency + self.config.latency_per_mv * mv
    }

    /// Retargets the whole cluster to OPP `index`, returning the
    /// transition latency (zero if already there).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OppOutOfRange`] for a bad index.
    pub fn set_cluster_opp(&mut self, index: usize) -> Result<SimTime, SimError> {
        self.table.check_index(index)?;
        let latency = self.transition_latency(self.current[0], index);
        if !latency.is_zero() {
            self.transitions += 1;
            self.total_latency += latency;
        }
        self.current.fill(index);
        Ok(latency)
    }

    /// Retargets one core's domain to OPP `index` (only meaningful under
    /// [`VfDomain::PerCore`]; under `PerCluster` it retargets the whole
    /// cluster, matching how a per-core governor behaves on shared-rail
    /// hardware).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OppOutOfRange`] or
    /// [`SimError::CoreOutOfRange`] for bad indices.
    pub fn set_core_opp(&mut self, core: usize, index: usize) -> Result<SimTime, SimError> {
        self.table.check_index(index)?;
        if core >= self.current.len() {
            return Err(SimError::CoreOutOfRange {
                core,
                cores: self.current.len(),
            });
        }
        match self.domain {
            VfDomain::PerCluster => self.set_cluster_opp(index),
            VfDomain::PerCore => {
                let latency = self.transition_latency(self.current[core], index);
                if !latency.is_zero() {
                    self.transitions += 1;
                    self.total_latency += latency;
                }
                self.current[core] = index;
                Ok(latency)
            }
        }
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

    fn controller(domain: VfDomain) -> VfController {
        VfController::new(OppTable::odroid_xu3_a15(), domain, 4, DvfsConfig::typical()).unwrap()
    }

    #[test]
    fn boots_at_lowest_point() {
        let vf = controller(VfDomain::PerCluster);
        assert_eq!(vf.cluster_opp(), 0);
        for core in 0..4 {
            assert_eq!(vf.core_opp(core).unwrap(), 0);
        }
    }

    #[test]
    fn noop_transition_is_free() {
        let mut vf = controller(VfDomain::PerCluster);
        assert_eq!(vf.set_cluster_opp(0).unwrap(), SimTime::ZERO);
        assert_eq!(vf.transitions(), 0);
        assert_eq!(vf.total_latency(), SimTime::ZERO);
    }

    #[test]
    fn latency_scales_with_voltage_distance() {
        let mut vf = controller(VfDomain::PerCluster);
        let small = vf.set_cluster_opp(1).unwrap(); // 900 -> 912.5 mV
        let big = vf.set_cluster_opp(18).unwrap(); // 912.5 -> 1362.5 mV
        assert!(big > small, "bigger voltage swing must take longer");
        assert_eq!(vf.transitions(), 2);
        assert_eq!(vf.total_latency(), small + big);
    }

    #[test]
    fn per_cluster_core_set_retargets_everyone() {
        let mut vf = controller(VfDomain::PerCluster);
        vf.set_core_opp(2, 10).unwrap();
        for core in 0..4 {
            assert_eq!(vf.core_opp(core).unwrap(), 10);
        }
    }

    #[test]
    fn per_core_domains_are_independent() {
        let mut vf = controller(VfDomain::PerCore);
        vf.set_core_opp(2, 10).unwrap();
        assert_eq!(vf.core_opp(2).unwrap(), 10);
        assert_eq!(vf.core_opp(0).unwrap(), 0);
        assert_eq!(vf.core_opp(1).unwrap(), 0);
    }

    #[test]
    fn free_config_has_zero_latency() {
        let mut vf = VfController::new(
            OppTable::odroid_xu3_a15(),
            VfDomain::PerCluster,
            4,
            DvfsConfig::free(),
        )
        .unwrap();
        assert_eq!(vf.set_cluster_opp(18).unwrap(), SimTime::ZERO);
        // Still counted as a transition even though free.
        assert_eq!(vf.transitions(), 0, "zero-latency moves are not counted");
        assert_eq!(vf.cluster_opp(), 18);
    }

    #[test]
    fn bad_indices_are_rejected() {
        let mut vf = controller(VfDomain::PerCore);
        assert!(matches!(
            vf.set_cluster_opp(19),
            Err(SimError::OppOutOfRange { .. })
        ));
        assert!(matches!(
            vf.set_core_opp(4, 0),
            Err(SimError::CoreOutOfRange { .. })
        ));
        assert!(matches!(
            vf.core_opp(9),
            Err(SimError::CoreOutOfRange { .. })
        ));
    }

    #[test]
    fn zero_cores_rejected() {
        assert!(VfController::new(
            OppTable::odroid_xu3_a15(),
            VfDomain::PerCluster,
            0,
            DvfsConfig::typical()
        )
        .is_err());
    }
}
