//! Error type for invalid simulator configurations and misuse.

use core::fmt;

/// Error returned by simulator constructors and stepping functions.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A platform or component was configured inconsistently.
    InvalidConfig {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// `run_frame` was called with a work vector whose length does not
    /// match the number of cores.
    WorkLengthMismatch {
        /// Number of cores on the platform.
        cores: usize,
        /// Length of the work vector supplied.
        got: usize,
    },
    /// A chip frame's work held a different number of per-cluster work
    /// vectors than the topology has clusters.
    ClusterCountMismatch {
        /// Number of clusters in the topology.
        clusters: usize,
        /// Number of per-cluster work vectors supplied.
        got: usize,
    },
    /// An operating-point index was out of table range.
    OppOutOfRange {
        /// The requested index.
        index: usize,
        /// The table size.
        len: usize,
    },
    /// A core index was out of range.
    CoreOutOfRange {
        /// The requested core.
        core: usize,
        /// Number of cores.
        cores: usize,
    },
    /// A cluster index was out of range.
    ClusterOutOfRange {
        /// The requested cluster.
        cluster: usize,
        /// Number of clusters in the topology.
        clusters: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { reason } => {
                write!(f, "invalid simulator configuration: {reason}")
            }
            SimError::WorkLengthMismatch { cores, got } => write!(
                f,
                "work vector length {got} does not match core count {cores}"
            ),
            SimError::ClusterCountMismatch { clusters, got } => write!(
                f,
                "work vector count {got} does not match cluster count {clusters}"
            ),
            SimError::OppOutOfRange { index, len } => {
                write!(f, "operating point {index} out of range (table has {len})")
            }
            SimError::CoreOutOfRange { core, cores } => {
                write!(f, "core {core} out of range (platform has {cores})")
            }
            SimError::ClusterOutOfRange { cluster, clusters } => {
                write!(
                    f,
                    "cluster {cluster} out of range (topology has {clusters})"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::WorkLengthMismatch { cores: 4, got: 3 };
        assert!(e.to_string().contains('4'));
        assert!(e.to_string().contains('3'));
        let e = SimError::OppOutOfRange { index: 19, len: 19 };
        assert!(e.to_string().contains("19"));
    }
}
