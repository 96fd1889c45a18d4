//! Availability-model errors.

use std::fmt;

use wfms_markov::ChainError;
use wfms_statechart::ArchError;

/// Errors raised by the availability model.
#[derive(Debug, Clone, PartialEq)]
pub enum AvailError {
    /// A system-state vector is outside the configured state space.
    StateOutOfRange {
        /// The offending vector.
        state: Vec<usize>,
        /// The radix (`Y_x + 1` per type).
        dims: Vec<usize>,
    },
    /// An encoded state index is out of range.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of states.
        len: usize,
    },
    /// The state space exceeds the configured safety cap; the dense CTMC
    /// solve would be impractical.
    StateSpaceTooLarge {
        /// Number of states the configuration implies.
        states: usize,
        /// The cap.
        cap: usize,
    },
    /// A probability-vector length does not match the state space.
    LengthMismatch {
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// A pre-built birth–death block does not match the configuration it
    /// is being assembled into.
    BlockMismatch {
        /// The server-type index of the offending block.
        type_index: usize,
        /// Replica count the block was built for.
        block_replicas: usize,
        /// Replica count the configuration requires.
        config_replicas: usize,
    },
    /// Underlying Markov-chain failure.
    Chain(ChainError),
    /// Architectural-model failure.
    Arch(ArchError),
    /// A `wfms-fault` failpoint fired in error mode at the named site.
    /// Only ever produced under explicit fault injection (tests, chaos
    /// runs); carries the stable site name for assertions.
    FaultInjected {
        /// The failpoint site that fired.
        site: &'static str,
    },
}

impl fmt::Display for AvailError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AvailError::StateOutOfRange { state, dims } => {
                write!(
                    f,
                    "system state {state:?} outside state space with dims {dims:?}"
                )
            }
            AvailError::IndexOutOfRange { index, len } => {
                write!(f, "state index {index} out of range ({len} states)")
            }
            AvailError::StateSpaceTooLarge { states, cap } => {
                write!(
                    f,
                    "state space has {states} states, exceeding the cap of {cap}"
                )
            }
            AvailError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "probability vector has length {actual}, expected {expected}"
                )
            }
            AvailError::BlockMismatch {
                type_index,
                block_replicas,
                config_replicas,
            } => {
                write!(
                    f,
                    "birth-death block for type {type_index} was built for \
                     {block_replicas} replicas, configuration has {config_replicas}"
                )
            }
            AvailError::Chain(e) => write!(f, "Markov analysis error: {e}"),
            AvailError::Arch(e) => write!(f, "architecture error: {e}"),
            AvailError::FaultInjected { site } => {
                write!(f, "fault injected at failpoint `{site}`")
            }
        }
    }
}

impl std::error::Error for AvailError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AvailError::Chain(e) => Some(e),
            AvailError::Arch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ChainError> for AvailError {
    fn from(e: ChainError) -> Self {
        AvailError::Chain(e)
    }
}

impl From<ArchError> for AvailError {
    fn from(e: ArchError) -> Self {
        AvailError::Arch(e)
    }
}
