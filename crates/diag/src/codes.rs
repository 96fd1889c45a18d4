//! The stable diagnostic-code registry.
//!
//! Codes are grouped by pass family:
//!
//! * `W0xx` — workflow-spec structure (state charts, activity table);
//! * `M0xx` — Markov/numerical (generator matrices, uniformization);
//! * `Q0xx` — queueing/stability (M/G/1 stations per server type);
//! * `C0xx` — configuration and goals.
//!
//! Each constant is referenced by exactly one emission site family; the
//! [`all`] table carries the default severity, a one-line summary, and
//! the section of the EDBT 2000 paper whose modeling assumption the
//! check enforces. `README.md` documents the same table; the
//! `registry_is_consistent` test keeps this list well-formed.

use crate::Severity;

// ------------------------------------------------------------------ W0xx

/// Chart does not have exactly one initial state.
pub const W_INITIAL_COUNT: &str = "W001";
/// Chart does not have exactly one final state.
pub const W_FINAL_COUNT: &str = "W002";
/// Two states in one chart share a name.
pub const W_DUPLICATE_STATE: &str = "W003";
/// A transition endpoint index is out of range.
pub const W_STATE_INDEX_RANGE: &str = "W004";
/// The chart contains nothing to execute (initial feeding final).
pub const W_EMPTY_WORKFLOW: &str = "W005";
/// A transition probability is outside `[0, 1]` or not finite.
pub const W_PROBABILITY_RANGE: &str = "W006";
/// A state's outgoing probabilities do not sum to one.
pub const W_PROBABILITY_SUM: &str = "W007";
/// A non-final state has no outgoing transitions.
pub const W_DEAD_END: &str = "W008";
/// A state is unreachable from the initial state.
pub const W_UNREACHABLE: &str = "W009";
/// The final state is unreachable from some state.
pub const W_FINAL_NOT_REACHABLE: &str = "W010";
/// A state loops onto itself with probability one.
pub const W_CERTAIN_SELF_LOOP: &str = "W011";
/// The initial or final pseudo-state carries a self-loop.
pub const W_PSEUDO_SELF_LOOP: &str = "W012";
/// The initial state's outgoing transition is malformed.
pub const W_INITIAL_TRANSITION: &str = "W013";
/// The final state has outgoing transitions.
pub const W_FINAL_HAS_OUTGOING: &str = "W014";
/// An activity state references an activity missing from the table.
pub const W_UNKNOWN_ACTIVITY: &str = "W015";
/// A nested state embeds an empty chart list.
pub const W_EMPTY_NESTED: &str = "W016";
/// An activity's load vector does not match the server-type count.
pub const W_ACTIVITY_LOAD_LENGTH: &str = "W017";
/// An activity parameter (duration, SCV, load entry) is invalid.
pub const W_ACTIVITY_PARAMETER: &str = "W018";
/// An activity is defined in the table but referenced by no state.
pub const W_ORPHANED_ACTIVITY: &str = "W019";
/// A transition references a state name that does not exist.
pub const W_UNKNOWN_STATE: &str = "W020";

// ------------------------------------------------------------------ M0xx

/// A generator-matrix entry is NaN or infinite.
pub const M_NON_FINITE: &str = "M001";
/// A generator off-diagonal entry is negative.
pub const M_NEGATIVE_OFF_DIAGONAL: &str = "M002";
/// A generator diagonal entry is positive.
pub const M_POSITIVE_DIAGONAL: &str = "M003";
/// A generator row does not sum to zero (conservation violated).
pub const M_ROW_CONSERVATION: &str = "M004";
/// The uniformization constant is zero: the chain never moves.
pub const M_ZERO_UNIFORMIZATION: &str = "M005";
/// Absorbing states detected (informational).
pub const M_ABSORBING_STATES: &str = "M006";
/// Departure rates span many orders of magnitude (stiff chain).
pub const M_STIFF_CHAIN: &str = "M007";

// ------------------------------------------------------------------ Q0xx

/// A server type's replicas cannot sustain the offered load (`ρ ≥ 1`).
pub const Q_OVERLOADED: &str = "Q001";
/// A server type runs close to saturation (`ρ` near one).
pub const Q_NEAR_SATURATION: &str = "Q002";
/// Service-time moments are impossible or non-finite.
pub const Q_INVALID_MOMENTS: &str = "Q003";
/// A request rate is negative or non-finite.
pub const Q_INVALID_RATE: &str = "Q004";

// ------------------------------------------------------------------ C0xx

/// The replica vector length does not match the registry.
pub const C_LENGTH_MISMATCH: &str = "C001";
/// A server type with zero replicas receives load.
pub const C_ZERO_REPLICA_LOAD: &str = "C002";
/// A goal value is outside its meaningful domain.
pub const C_INVALID_GOAL: &str = "C003";
/// Stability alone already exceeds the server budget.
pub const C_BUDGET_TOO_SMALL: &str = "C004";
/// A server type has replicas but receives no load.
pub const C_ZERO_LOAD_TYPE: &str = "C005";
/// A server type has more replicas than a configuration may give it.
pub const C_TOO_MANY_REPLICAS: &str = "C006";

/// One row of the code registry.
#[derive(Debug, Clone)]
pub struct CodeInfo {
    /// The stable code, e.g. `"W007"`.
    pub code: String,
    /// Default severity of findings with this code.
    pub severity: Severity,
    /// One-line summary of the rule.
    pub summary: String,
    /// The paper section whose assumption the rule enforces.
    pub paper_ref: String,
}

fn info(code: &str, severity: Severity, summary: &str, paper_ref: &str) -> CodeInfo {
    CodeInfo {
        code: code.to_string(),
        severity,
        summary: summary.to_string(),
        paper_ref: paper_ref.to_string(),
    }
}

/// The full registry, in code order.
pub fn all() -> Vec<CodeInfo> {
    use Severity::{Error, Hint, Warning};
    vec![
        info(
            W_INITIAL_COUNT,
            Error,
            "chart must have exactly one initial state",
            "Sec. 3.1",
        ),
        info(
            W_FINAL_COUNT,
            Error,
            "chart must have exactly one final state",
            "Sec. 3.1",
        ),
        info(
            W_DUPLICATE_STATE,
            Error,
            "state names must be unique within a chart",
            "Sec. 3.1",
        ),
        info(
            W_STATE_INDEX_RANGE,
            Error,
            "transition endpoints must reference existing states",
            "Sec. 3.1",
        ),
        info(
            W_EMPTY_WORKFLOW,
            Error,
            "chart must contain something to execute",
            "Sec. 3.2",
        ),
        info(
            W_PROBABILITY_RANGE,
            Error,
            "transition probabilities must lie in [0, 1]",
            "Sec. 3.2",
        ),
        info(
            W_PROBABILITY_SUM,
            Error,
            "outgoing probabilities must form a distribution",
            "Sec. 3.2",
        ),
        info(
            W_DEAD_END,
            Error,
            "only the final state may lack outgoing transitions",
            "Sec. 3.2",
        ),
        info(
            W_UNREACHABLE,
            Error,
            "every state must be reachable from the initial state",
            "Sec. 3.2",
        ),
        info(
            W_FINAL_NOT_REACHABLE,
            Error,
            "absorption must be certain from every state",
            "Sec. 4.1",
        ),
        info(
            W_CERTAIN_SELF_LOOP,
            Error,
            "a probability-one self-loop can never be left",
            "Sec. 4.1",
        ),
        info(
            W_PSEUDO_SELF_LOOP,
            Error,
            "initial/final pseudo-states must not self-loop",
            "Sec. 3.2",
        ),
        info(
            W_INITIAL_TRANSITION,
            Error,
            "the initial state needs one certain transition into the workflow body",
            "Sec. 3.2",
        ),
        info(
            W_FINAL_HAS_OUTGOING,
            Error,
            "the final state must be absorbing",
            "Sec. 3.2",
        ),
        info(
            W_UNKNOWN_ACTIVITY,
            Error,
            "activity states must reference table entries",
            "Sec. 3.1",
        ),
        info(
            W_EMPTY_NESTED,
            Error,
            "nested states must embed at least one chart",
            "Sec. 3.1",
        ),
        info(
            W_ACTIVITY_LOAD_LENGTH,
            Error,
            "load vectors must cover every server type",
            "Sec. 4.2",
        ),
        info(
            W_ACTIVITY_PARAMETER,
            Error,
            "activity durations, SCVs, and loads must be positive and finite",
            "Sec. 4.2",
        ),
        info(
            W_ORPHANED_ACTIVITY,
            Warning,
            "activity defined but never referenced by any state",
            "Sec. 3.1",
        ),
        info(
            W_UNKNOWN_STATE,
            Error,
            "transitions must reference existing state names",
            "Sec. 3.1",
        ),
        info(
            M_NON_FINITE,
            Error,
            "generator entries must be finite",
            "Sec. 3.2",
        ),
        info(
            M_NEGATIVE_OFF_DIAGONAL,
            Error,
            "generator off-diagonals are rates and must be non-negative",
            "Sec. 3.2",
        ),
        info(
            M_POSITIVE_DIAGONAL,
            Error,
            "generator diagonals must be non-positive",
            "Sec. 3.2",
        ),
        info(
            M_ROW_CONSERVATION,
            Error,
            "generator rows must sum to zero",
            "Sec. 3.2",
        ),
        info(
            M_ZERO_UNIFORMIZATION,
            Warning,
            "uniformization constant is zero: no state ever leaves",
            "Sec. 4.2.1",
        ),
        info(
            M_ABSORBING_STATES,
            Hint,
            "absorbing states present (expected for workflow chains)",
            "Sec. 4.1",
        ),
        info(
            M_STIFF_CHAIN,
            Hint,
            "departure rates span many orders of magnitude; iterative solvers may converge slowly",
            "Sec. 5.2",
        ),
        info(
            Q_OVERLOADED,
            Error,
            "per-replica utilization at or above one: waiting time diverges",
            "Sec. 4.3",
        ),
        info(
            Q_NEAR_SATURATION,
            Warning,
            "per-replica utilization close to one: fragile under load growth",
            "Sec. 4.4",
        ),
        info(
            Q_INVALID_MOMENTS,
            Error,
            "service-time moments must satisfy E[B^2] >= E[B]^2 > 0",
            "Sec. 4.4",
        ),
        info(
            Q_INVALID_RATE,
            Error,
            "request rates must be finite and non-negative",
            "Sec. 4.3",
        ),
        info(
            C_LENGTH_MISMATCH,
            Error,
            "replica vector must cover every server type",
            "Sec. 2",
        ),
        info(
            C_ZERO_REPLICA_LOAD,
            Error,
            "a loaded server type needs at least one replica",
            "Sec. 4.3",
        ),
        info(
            C_INVALID_GOAL,
            Error,
            "goals must be positive, finite, and achievable in principle",
            "Sec. 7.1",
        ),
        info(
            C_BUDGET_TOO_SMALL,
            Error,
            "stability needs more servers than the search budget allows",
            "Sec. 7.2",
        ),
        info(
            C_ZERO_LOAD_TYPE,
            Hint,
            "replicas provisioned for a type that receives no load",
            "Sec. 7.2",
        ),
        info(
            C_TOO_MANY_REPLICAS,
            Error,
            "a server type may have at most 100000 replicas",
            "Sec. 2",
        ),
    ]
}

/// Looks one code up in the registry.
pub fn lookup(code: &str) -> Option<CodeInfo> {
    all().into_iter().find(|c| c.code == code)
}
