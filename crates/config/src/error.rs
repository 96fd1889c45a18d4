//! Configuration-tool errors.

use std::fmt;

use wfms_avail::AvailError;
use wfms_diag::Diagnostics;
use wfms_perf::PerfError;
use wfms_performability::PerformabilityError;
use wfms_statechart::{ArchError, SpecError};

/// Errors raised by the configuration tool.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A goal value is out of its domain.
    InvalidGoal {
        /// Which goal.
        what: &'static str,
        /// Offending value.
        value: f64,
    },
    /// No goal was specified — the search has nothing to optimize for.
    NoGoals,
    /// The search exhausted its budget without meeting the goals. Carries
    /// the best configuration examined so the caller can inspect how far
    /// it got.
    GoalsUnreachable {
        /// Total-server budget that was exhausted.
        budget: usize,
        /// Replication vector of the last candidate.
        last_candidate: Vec<usize>,
    },
    /// The offered load saturates every configuration within the budget
    /// (adding replicas cannot help because a single request stream's
    /// service demand already exceeds one server — or the budget is too
    /// small).
    LoadUnsustainable {
        /// Index of the saturated server type.
        server_type: usize,
    },
    /// Static preflight analysis found structural errors in the inputs
    /// (shape mismatches, invalid rates) before any model was built. The
    /// complete finding list is carried for reporting.
    Preflight(Diagnostics),
    /// Audit-trail calibration failed.
    Calibration(String),
    /// Underlying availability-model failure.
    Avail(AvailError),
    /// Underlying performance-model failure.
    Perf(PerfError),
    /// Underlying performability failure.
    Performability(PerformabilityError),
    /// Architectural-model failure.
    Arch(ArchError),
    /// Specification failure.
    Spec(SpecError),
    /// An assessment produced a non-finite metric (NaN/∞ availability or
    /// waiting time) that no fallback could repair — the candidate's
    /// numbers cannot be trusted. Searches quarantine the candidate
    /// unless [`strict`](crate::SearchOptions::strict) is set.
    NonFiniteAssessment {
        /// The candidate's replica vector.
        replicas: Vec<usize>,
        /// Which metric was non-finite.
        what: &'static str,
    },
}

impl ConfigError {
    /// True when the failure is local to a single candidate's model
    /// evaluation (solver breakdowns, per-state kernel failures,
    /// non-finite metrics) rather than a structural problem with the
    /// search inputs. Non-strict searches quarantine candidates failing
    /// with such errors and keep going; everything else always aborts.
    pub fn is_candidate_local(&self) -> bool {
        matches!(
            self,
            ConfigError::Avail(_)
                | ConfigError::Perf(_)
                | ConfigError::Performability(_)
                | ConfigError::NonFiniteAssessment { .. }
        )
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::InvalidGoal { what, value } => write!(f, "invalid {what}: {value}"),
            ConfigError::NoGoals => write!(f, "no performability goal specified"),
            ConfigError::GoalsUnreachable { budget, last_candidate } => write!(
                f,
                "goals not reachable within a budget of {budget} servers (last candidate {last_candidate:?})"
            ),
            ConfigError::LoadUnsustainable { server_type } => write!(
                f,
                "server type {server_type} cannot sustain the offered load at any replication within budget"
            ),
            ConfigError::Preflight(d) => write!(f, "preflight failed: {}", d.summary()),
            ConfigError::Calibration(msg) => write!(f, "calibration error: {msg}"),
            ConfigError::Avail(e) => write!(f, "availability model error: {e}"),
            ConfigError::Perf(e) => write!(f, "performance model error: {e}"),
            ConfigError::Performability(e) => write!(f, "performability model error: {e}"),
            ConfigError::Arch(e) => write!(f, "architecture error: {e}"),
            ConfigError::Spec(e) => write!(f, "specification error: {e}"),
            ConfigError::NonFiniteAssessment { replicas, what } => write!(
                f,
                "assessment of candidate {replicas:?} produced a non-finite {what}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Avail(e) => Some(e),
            ConfigError::Perf(e) => Some(e),
            ConfigError::Performability(e) => Some(e),
            ConfigError::Arch(e) => Some(e),
            ConfigError::Spec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AvailError> for ConfigError {
    fn from(e: AvailError) -> Self {
        ConfigError::Avail(e)
    }
}

impl From<PerfError> for ConfigError {
    fn from(e: PerfError) -> Self {
        ConfigError::Perf(e)
    }
}

impl From<PerformabilityError> for ConfigError {
    fn from(e: PerformabilityError) -> Self {
        ConfigError::Performability(e)
    }
}

impl From<ArchError> for ConfigError {
    fn from(e: ArchError) -> Self {
        ConfigError::Arch(e)
    }
}

impl From<SpecError> for ConfigError {
    fn from(e: SpecError) -> Self {
        ConfigError::Spec(e)
    }
}
