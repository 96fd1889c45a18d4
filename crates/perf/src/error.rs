//! Performance-model errors.

use std::fmt;

use wfms_markov::ChainError;
use wfms_queueing::QueueError;
use wfms_statechart::{ArchError, SpecError};

/// Errors raised by the performance model.
#[derive(Debug, Clone, PartialEq)]
pub enum PerfError {
    /// A specification error surfaced during analysis.
    Spec(SpecError),
    /// A Markov-chain analysis failed.
    Chain(ChainError),
    /// A queueing computation failed (other than saturation, which is
    /// reported in-band as [`crate::system::WaitingOutcome::Saturated`]).
    Queue(QueueError),
    /// An architectural-model error.
    Arch(ArchError),
    /// The workload mix is empty; nothing to aggregate.
    EmptyWorkload,
    /// An arrival rate is negative or non-finite.
    InvalidArrivalRate {
        /// Workflow type name.
        workflow: String,
        /// Offending rate.
        rate: f64,
    },
    /// A turnaround percentile was asked for a `q` outside `(0, 1 − ε)`,
    /// where `ε` is the distribution's truncation tolerance.
    InvalidQuantile {
        /// The requested quantile.
        q: f64,
        /// The distribution's truncation tolerance.
        epsilon: f64,
    },
    /// A load/rate vector length does not match the registry.
    LengthMismatch {
        /// What the vector described.
        what: &'static str,
        /// Expected (number of server types).
        expected: usize,
        /// Actual.
        actual: usize,
    },
}

impl fmt::Display for PerfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PerfError::Spec(e) => write!(f, "specification error: {e}"),
            PerfError::Chain(e) => write!(f, "Markov analysis error: {e}"),
            PerfError::Queue(e) => write!(f, "queueing error: {e}"),
            PerfError::Arch(e) => write!(f, "architecture error: {e}"),
            PerfError::EmptyWorkload => write!(f, "the workload mix contains no workflow types"),
            PerfError::InvalidArrivalRate { workflow, rate } => {
                write!(
                    f,
                    "invalid arrival rate {rate} for workflow type {workflow:?}"
                )
            }
            PerfError::InvalidQuantile { q, epsilon } => {
                write!(
                    f,
                    "percentile {q} is outside (0, 1 - {epsilon}); a CDF truncated at \
                     {epsilon} cannot resolve it"
                )
            }
            PerfError::LengthMismatch {
                what,
                expected,
                actual,
            } => {
                write!(f, "{what} has length {actual}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for PerfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PerfError::Spec(e) => Some(e),
            PerfError::Chain(e) => Some(e),
            PerfError::Queue(e) => Some(e),
            PerfError::Arch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpecError> for PerfError {
    fn from(e: SpecError) -> Self {
        PerfError::Spec(e)
    }
}

impl From<ChainError> for PerfError {
    fn from(e: ChainError) -> Self {
        PerfError::Chain(e)
    }
}

impl From<QueueError> for PerfError {
    fn from(e: QueueError) -> Self {
        PerfError::Queue(e)
    }
}

impl From<ArchError> for PerfError {
    fn from(e: ArchError) -> Self {
        PerfError::Arch(e)
    }
}
