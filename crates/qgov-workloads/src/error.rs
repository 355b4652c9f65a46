//! Error type for workload construction and trace parsing.

use core::fmt;

/// Error returned by workload constructors and trace I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WorkloadError {
    /// A workload model was configured inconsistently.
    InvalidConfig {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// The header line of a shard file or manifest could not be
    /// parsed.
    ParseTraceError {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// A frame cannot be recorded into a trace: it has no threads, or
    /// its `cpu_cycles` or `mem_ns` total overflows `u64`. The shard
    /// writer returns it; [`crate::WorkloadTrace`] panics with it.
    InvalidFrame {
        /// Index of the frame in the recording.
        frame: u64,
        /// What is wrong with it.
        reason: String,
    },
    /// The body of a trace shard file could not be decoded.
    CorruptShard {
        /// Byte offset in the shard file where the problem starts.
        offset: u64,
        /// What went wrong, naming the shard's frame.
        reason: String,
    },
    /// A filesystem operation on a sharded trace failed.
    ///
    /// Carries the rendered [`std::io::Error`] rather than the error
    /// itself so the type stays `Clone + PartialEq` like its siblings.
    Io {
        /// The file or directory the operation touched.
        path: String,
        /// The rendered I/O error.
        reason: String,
    },
}

impl WorkloadError {
    /// Wraps an [`std::io::Error`] for `path` into [`WorkloadError::Io`].
    #[must_use]
    pub fn io(path: &std::path::Path, error: &std::io::Error) -> Self {
        WorkloadError::Io {
            path: path.display().to_string(),
            reason: error.to_string(),
        }
    }
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::InvalidConfig { reason } => {
                write!(f, "invalid workload configuration: {reason}")
            }
            WorkloadError::ParseTraceError { line, reason } => {
                write!(f, "trace parse error at line {line}: {reason}")
            }
            WorkloadError::InvalidFrame { frame, reason } => {
                write!(f, "frame {frame} cannot be recorded: {reason}")
            }
            WorkloadError::CorruptShard { offset, reason } => {
                write!(f, "corrupt trace shard at byte {offset}: {reason}")
            }
            WorkloadError::Io { path, reason } => {
                write!(f, "trace I/O error on {path}: {reason}")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_line_number() {
        let e = WorkloadError::ParseTraceError {
            line: 17,
            reason: "bad integer".into(),
        };
        assert!(e.to_string().contains("17"));
        assert!(e.to_string().contains("bad integer"));
    }
}
