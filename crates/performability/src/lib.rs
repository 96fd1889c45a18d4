//! The WFMS performability model (Sec. 6 of the EDBT 2000 paper).
//!
//! Performability combines the performance model (Sec. 4) and the
//! availability model (Sec. 5): a Markov reward model over the
//! availability CTMC whose per-state reward is the waiting-time vector of
//! the performance model evaluated *in that (possibly degraded) system
//! state*. The steady-state expectation
//!
//! ```text
//! W^Y = Σ_{i ∈ X̃} w^i · π_i
//! ```
//!
//! is "the ultimate metric for assessing the performance of a WFMS,
//! including the temporary degradation caused by failures and downtimes
//! of server replicas."
//!
//! Degraded states can saturate a server type (`ρ ≥ 1`) or take the whole
//! WFMS down; the M/G/1 waiting time is undefined there. The paper's
//! formula implicitly assumes finite rewards; this implementation makes
//! the handling explicit through [`DegradedPolicy`].
//!
//! Two folds compute the same expectation. [`fold_states`] walks the
//! joint states `X` one by one. [`fold_types`] uses the structure of the
//! independent-repair chain instead: `π(X) = Π_x m_x[X_x]` is a product
//! of per-type marginals, and type `x`'s M/G/1 wait depends on `X_x`
//! alone ([`wfms_perf::type_waiting_time`]). Under the conditional
//! policy the serving states are the product `Π_j S_j` of each type's
//! stable up-counts `S_j`, so
//!
//! ```text
//! W_x = Σ_{X serving} π(X)·w_x(X_x) / Π_j m_j(S_j)
//!     = Σ_{u ∈ S_x} m_x[u]·w_x(u) / m_x(S_x)
//! ```
//!
//! — one 1-D sum per type: `Σ_x (Y_x + 1)` single-type terms instead of
//! `Π_x (Y_x + 1)` joint states.

#![warn(missing_docs)]

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use wfms_avail::{AvailError, AvailabilityModel};
use wfms_markov::ctmc::SteadyStateMethod;
use wfms_perf::{type_waiting_time, waiting_times, PerfError, SystemLoad, WaitingOutcome};
use wfms_statechart::{Configuration, ServerTypeId, ServerTypeRegistry};

/// How to account for system states whose waiting time is undefined
/// (saturated or down).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum DegradedPolicy {
    /// Condition on the system *serving* (operational and all types
    /// stable): `W_x = Σ_serving w_x^i π_i / P(serving)`. The
    /// probabilities of the excluded states are reported separately. This
    /// is the default: it answers "how long do requests wait while the
    /// system is actually working", with outage mass quantified by the
    /// availability goal instead.
    #[default]
    Conditional,
    /// Substitute a fixed penalty waiting time for saturated and down
    /// states and take the unconditional expectation — the closest finite
    /// reading of the paper's raw `Σ w^i π_i`.
    Penalty {
        /// The waiting time (minutes) charged for non-serving states.
        waiting_time: f64,
    },
}

/// Per-state detail of the performability evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct StateDetail {
    /// The system-state vector `X`.
    pub state: Vec<usize>,
    /// Its stationary probability `π_i`.
    pub probability: f64,
    /// Waiting outcome per server type in this state.
    pub outcomes: Vec<WaitingOutcome>,
}

impl StateDetail {
    /// True when every server type is stable in this state.
    pub fn is_serving(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| matches!(o, WaitingOutcome::Stable { .. }))
    }
}

/// How an ε-truncated evaluation accounted for the states it skipped —
/// produced by [`fold_states_truncated`], absent (`None`) on the dense
/// path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TruncationReport {
    /// The requested tolerance: evaluation stopped once the visited
    /// states' mass reached `1 − ε`.
    pub epsilon: f64,
    /// Stationary mass of the states actually evaluated.
    pub covered_mass: f64,
    /// Residual mass of the skipped tail (`0.0` when nothing was
    /// skipped).
    pub skipped_mass: f64,
    /// Number of system states never evaluated.
    pub states_skipped: usize,
    /// Sound per-type bound on `|ΔW_x|`, the error the truncation can
    /// have introduced into `expected_waiting[x]` relative to the exact
    /// full-space fold (see [`fold_states_truncated`] for the
    /// derivation).
    pub waiting_error_bounds: Vec<f64>,
    /// Sound bound on the error any *fold-derived* availability estimate
    /// (visited serving + saturated mass vs. `1 − probability_down`)
    /// can carry: the skipped tail holds at most `σ` mass, all of which
    /// could be up or down, so `|ΔA| ≤ σ` — the availability-goal
    /// counterpart of `waiting_error_bounds`. Product-form callers
    /// compute availability in closed form from the marginals (error
    /// exactly `0`); the bound is what screening uses when only the
    /// truncated fold has been paid for. Zero when nothing was skipped.
    #[serde(default)]
    pub availability_bound: f64,
}

impl TruncationReport {
    /// The worst per-type waiting-time error bound.
    pub fn max_error_bound(&self) -> f64 {
        self.waiting_error_bounds
            .iter()
            .cloned()
            .fold(0.0, f64::max)
    }
}

/// Result of the performability evaluation for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PerformabilityReport {
    /// Expected waiting time `W^Y_x` per server type, per the chosen
    /// [`DegradedPolicy`].
    pub expected_waiting: Vec<f64>,
    /// Probability that the WFMS is down (some type has zero replicas up).
    pub probability_down: f64,
    /// Probability that the WFMS is up but at least one server type is
    /// saturated (offered utilization ≥ 1).
    pub probability_saturated: f64,
    /// Probability mass of serving states (complement of the above two).
    pub probability_serving: f64,
    /// Number of system states evaluated; for [`fold_types`], the number
    /// of `(type, up-count)` terms summed.
    pub states_evaluated: usize,
    /// Per-state detail, in state-space encoding order; empty for
    /// [`fold_types`], which never forms a joint state.
    pub details: Vec<StateDetail>,
    /// Truncation accounting when the fold was ε-truncated; `None` for
    /// the exhaustive (dense) fold.
    pub truncation: Option<TruncationReport>,
}

impl PerformabilityReport {
    /// The worst per-type expected waiting time — the entry compared
    /// against the configuration tool's tolerance threshold.
    pub fn max_expected_waiting(&self) -> f64 {
        self.expected_waiting.iter().cloned().fold(0.0, f64::max)
    }
}

/// Errors raised by the performability evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum PerformabilityError {
    /// Availability-model failure.
    Avail(AvailError),
    /// Performance-model failure.
    Perf(PerfError),
    /// Every system state is non-serving; the conditional expectation is
    /// undefined. (The offered load saturates even the full configuration.)
    NoServingStates,
    /// The penalty policy was given a non-finite or negative penalty.
    InvalidPenalty {
        /// The offending value.
        value: f64,
    },
    /// The truncated fold was given an `ε` outside `[0, 1)`.
    InvalidEpsilon {
        /// The offending value.
        value: f64,
    },
    /// A `wfms-fault` failpoint fired in error mode at the named site.
    /// Only ever produced under explicit fault injection (tests, chaos
    /// runs); carries the stable site name for assertions.
    FaultInjected {
        /// The failpoint site that fired.
        site: &'static str,
    },
}

impl std::fmt::Display for PerformabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PerformabilityError::Avail(e) => write!(f, "availability model error: {e}"),
            PerformabilityError::Perf(e) => write!(f, "performance model error: {e}"),
            PerformabilityError::NoServingStates => {
                write!(f, "no system state can serve the offered load")
            }
            PerformabilityError::InvalidPenalty { value } => {
                write!(f, "invalid penalty waiting time {value}")
            }
            PerformabilityError::InvalidEpsilon { value } => {
                write!(f, "truncation epsilon {value} outside [0, 1)")
            }
            PerformabilityError::FaultInjected { site } => {
                write!(f, "fault injected at failpoint `{site}`")
            }
        }
    }
}

impl std::error::Error for PerformabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PerformabilityError::Avail(e) => Some(e),
            PerformabilityError::Perf(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AvailError> for PerformabilityError {
    fn from(e: AvailError) -> Self {
        PerformabilityError::Avail(e)
    }
}

impl From<PerfError> for PerformabilityError {
    fn from(e: PerfError) -> Self {
        PerformabilityError::Perf(e)
    }
}

/// Evaluates the performability of `config` under the aggregated `load`:
/// builds the availability CTMC, solves its steady state, evaluates the
/// performance model in every system state, and folds the waiting-time
/// rewards per `policy`.
///
/// # Errors
/// [`PerformabilityError`] on model failures, an undefined conditional
/// expectation, or an invalid penalty.
pub fn evaluate(
    registry: &ServerTypeRegistry,
    config: &Configuration,
    load: &SystemLoad,
    policy: DegradedPolicy,
) -> Result<PerformabilityReport, PerformabilityError> {
    let model = AvailabilityModel::new(registry, config)?;
    let pi = model.steady_state(SteadyStateMethod::Lu)?;
    evaluate_with_model(&model, &pi, registry, load, policy)
}

/// As [`evaluate`], but reusing an already-built availability model and
/// its stationary distribution (the configuration-search loop calls this
/// to avoid re-solving).
///
/// # Errors
/// See [`evaluate`].
pub fn evaluate_with_model(
    model: &AvailabilityModel,
    pi: &[f64],
    registry: &ServerTypeRegistry,
    load: &SystemLoad,
    policy: DegradedPolicy,
) -> Result<PerformabilityReport, PerformabilityError> {
    fold_states(
        model.distribution(pi)?,
        registry.len(),
        model.configuration().as_slice(),
        policy,
        |state| evaluate_state(load, registry, state).map(Arc::new),
    )
}

/// The performance model evaluated in one system state: the pure
/// per-state kernel of the performability reward.
///
/// For a fixed `(load, registry)` pair, this depends only on the state
/// vector `X` — not on the candidate configuration `Y` containing it —
/// which is what makes the result shareable across all candidates of a
/// configuration search (the `AssessmentEngine` in `wfms-config` caches
/// it keyed by `X`).
#[derive(Debug, Clone, PartialEq)]
pub struct StateEvaluation {
    /// Waiting outcome per server type in this state (`w^X`).
    pub outcomes: Vec<WaitingOutcome>,
    /// Some server type has zero replicas up: the WFMS is down.
    pub down: bool,
    /// The WFMS is up but at least one type is saturated (`ρ ≥ 1`).
    pub saturated: bool,
}

impl StateEvaluation {
    /// True when every server type is stable (neither down nor
    /// saturated).
    pub fn is_serving(&self) -> bool {
        !self.down && !self.saturated
    }
}

/// Evaluates the pure per-state kernel: the M/G/1 waiting-time vector
/// `w^X` and the down/saturated classification for system state `state`.
///
/// # Errors
/// [`PerformabilityError::Perf`] on a registry/load/state mismatch.
pub fn evaluate_state(
    load: &SystemLoad,
    registry: &ServerTypeRegistry,
    state: &[usize],
) -> Result<StateEvaluation, PerformabilityError> {
    // Failpoint `performability.evaluate-state`: error injection fails
    // this one state's kernel (the engine charges the state with its
    // pessimistic cap); NaN injection poisons its first stable outcome.
    let mut poison_outcome = false;
    match wfms_fault::point!("performability.evaluate-state") {
        Some(wfms_fault::Injection::Error) => {
            return Err(PerformabilityError::FaultInjected {
                site: "performability.evaluate-state",
            });
        }
        Some(wfms_fault::Injection::Nan) => poison_outcome = true,
        None => {}
    }
    let mut outcomes = waiting_times(load, registry, state)?;
    if poison_outcome {
        for o in outcomes.iter_mut() {
            if let WaitingOutcome::Stable { waiting_time, .. } = o {
                *waiting_time = f64::NAN;
                break;
            }
        }
    }
    let down = outcomes.iter().any(|o| matches!(o, WaitingOutcome::Down));
    let saturated = !down
        && outcomes
            .iter()
            .any(|o| matches!(o, WaitingOutcome::Saturated { .. }));
    Ok(StateEvaluation {
        outcomes,
        down,
        saturated,
    })
}

/// Folds per-state rewards over a stationary distribution: the Markov
/// reward accumulation of [`evaluate_with_model`], parameterised over
/// the state kernel so callers can substitute a memoised one.
///
/// `dist` yields `(state, probability)` pairs; the fold visits them in
/// iteration order (state-space encoding order when driven from
/// [`AvailabilityModel::distribution`]), so a cached kernel produces
/// bit-identical sums to the direct path.
///
/// # Errors
/// See [`evaluate`].
pub fn fold_states<I, F>(
    dist: I,
    k: usize,
    full_state: &[usize],
    policy: DegradedPolicy,
    mut eval: F,
) -> Result<PerformabilityReport, PerformabilityError>
where
    I: IntoIterator<Item = (Vec<usize>, f64)>,
    F: FnMut(&[usize]) -> Result<Arc<StateEvaluation>, PerformabilityError>,
{
    if let DegradedPolicy::Penalty { waiting_time } = policy {
        if !(waiting_time.is_finite() && waiting_time >= 0.0) {
            return Err(PerformabilityError::InvalidPenalty {
                value: waiting_time,
            });
        }
    }
    // Failpoint `performability.fold`: error injection fails the whole
    // reward accumulation; NaN injection poisons the folded waits.
    let mut poison_fold = false;
    match wfms_fault::point!("performability.fold") {
        Some(wfms_fault::Injection::Error) => {
            return Err(PerformabilityError::FaultInjected {
                site: "performability.fold",
            });
        }
        Some(wfms_fault::Injection::Nan) => poison_fold = true,
        None => {}
    }
    let mut obs_span = wfms_obs::span!("performability");
    let mut details = Vec::new();
    let mut probability_down = 0.0;
    let mut probability_saturated = 0.0;
    let mut probability_serving = 0.0;
    let mut degraded_evaluations: u64 = 0;

    for (state, probability) in dist {
        if state != full_state {
            degraded_evaluations += 1;
        }
        let evaluation = eval(&state)?;
        if evaluation.down {
            probability_down += probability;
        } else if evaluation.saturated {
            probability_saturated += probability;
        } else {
            probability_serving += probability;
        }
        details.push(StateDetail {
            state,
            probability,
            outcomes: evaluation.outcomes.clone(),
        });
    }
    obs_span.record("states", details.len() as u64);

    let mut expected_waiting = vec![0.0; k];
    match policy {
        DegradedPolicy::Conditional => {
            if probability_serving <= 0.0 {
                return Err(PerformabilityError::NoServingStates);
            }
            for d in &details {
                if d.is_serving() {
                    for (x, o) in d.outcomes.iter().enumerate() {
                        // Infallible: `is_serving()` means no outcome is
                        // Down or Saturated, so every outcome is Stable
                        // and `waiting_time()` is Some.
                        expected_waiting[x] +=
                            // audit:allow(A008, reason = "is_serving() guarantees every outcome is Stable, so waiting_time() is Some")
                            d.probability * o.waiting_time().expect("serving state is stable");
                    }
                }
            }
            for w in expected_waiting.iter_mut() {
                *w /= probability_serving;
            }
        }
        DegradedPolicy::Penalty { waiting_time } => {
            for d in &details {
                for (x, o) in d.outcomes.iter().enumerate() {
                    let w = o.waiting_time().unwrap_or(waiting_time);
                    expected_waiting[x] += d.probability * w;
                }
            }
        }
    }

    obs_span.record("degraded", degraded_evaluations);
    obs_span.record("serving", probability_serving);
    wfms_obs::counter("performability.state-evaluations", details.len() as u64);
    wfms_obs::counter("performability.degraded-evaluations", degraded_evaluations);

    if poison_fold {
        if let Some(w) = expected_waiting.first_mut() {
            *w = f64::NAN;
        }
    }
    Ok(PerformabilityReport {
        expected_waiting,
        probability_down,
        probability_saturated,
        probability_serving,
        states_evaluated: details.len(),
        details,
        truncation: None,
    })
}

/// Per-type caps on the *finite* waiting time over all system states
/// `X ≤ Y = full_state`: the supremum of `w_x` over states where type
/// `x` is stable, one [`type_waiting_cap`] per type. A type with no
/// stable up-count at all keeps a cap of `0.0`; no serving state exists
/// then, so the cap is never charged against a finite wait.
///
/// These caps make the truncation error bounds of
/// [`fold_states_truncated`] sound: any skipped *serving* state's wait
/// is ≤ the cap.
///
/// # Errors
/// [`PerformabilityError::Perf`] on a registry/load/state mismatch.
pub fn waiting_time_caps(
    load: &SystemLoad,
    registry: &ServerTypeRegistry,
    full_state: &[usize],
) -> Result<Vec<f64>, PerformabilityError> {
    if full_state.len() != registry.len() {
        return Err(PerformabilityError::Perf(PerfError::LengthMismatch {
            what: "replica vector",
            expected: registry.len(),
            actual: full_state.len(),
        }));
    }
    full_state
        .iter()
        .enumerate()
        .map(|(x, &y)| Ok(type_waiting_cap(load, registry, ServerTypeId(x), y)?.unwrap_or(0.0)))
        .collect()
}

/// The cap on type `x`'s *finite* waiting time with `replicas` replicas:
/// its wait at the **smallest stable** up-count in `1..=replicas`, found
/// by probing `u = 1, 2, …`. The wait decreases as the up-count grows
/// (each server takes a smaller share of `l_x`), so this is the largest
/// finite wait the type can show. `None` when no up-count is stable.
///
/// The probes call the M/G/1 kernel directly, past the
/// `performability.evaluate-state` failpoint: the cap is what a failed
/// evaluation is charged, so it must not fail the same way.
///
/// # Errors
/// [`PerformabilityError::Perf`] on a registry/load mismatch.
pub fn type_waiting_cap(
    load: &SystemLoad,
    registry: &ServerTypeRegistry,
    x: ServerTypeId,
    replicas: usize,
) -> Result<Option<f64>, PerformabilityError> {
    for up in 1..=replicas {
        if let WaitingOutcome::Stable { waiting_time, .. } =
            type_waiting_time(load, registry, x, up)?
        {
            return Ok(Some(waiting_time));
        }
    }
    Ok(None)
}

/// The pessimistic stand-in for a failed single-type evaluation at `up`
/// replicas up, given the type's [`type_waiting_cap`]: `Down` at
/// `up = 0`, a stable wait at the cap otherwise, and saturated when the
/// type has no stable up-count (a finite stand-in would then invent a
/// serving state). Waits can only be overestimated by it.
pub fn charged_type_outcome(up: usize, cap: Option<f64>) -> WaitingOutcome {
    match (up, cap) {
        (0, _) => WaitingOutcome::Down,
        (_, Some(waiting_time)) => WaitingOutcome::Stable {
            waiting_time,
            utilization: 1.0,
        },
        (_, None) => WaitingOutcome::Saturated { utilization: 1.0 },
    }
}

/// The single-type kernel of [`fold_types`]: server type `x` with `up`
/// of its replicas running ([`wfms_perf::type_waiting_time`]), behind
/// the same `performability.evaluate-state` failpoint as
/// [`evaluate_state`]. Error injection fails this one
/// `(type, up-count)` evaluation; NaN injection poisons a stable wait.
///
/// # Errors
/// [`PerformabilityError::Perf`] on a registry/load mismatch.
pub fn evaluate_type_state(
    load: &SystemLoad,
    registry: &ServerTypeRegistry,
    x: ServerTypeId,
    up: usize,
) -> Result<WaitingOutcome, PerformabilityError> {
    let mut poison_outcome = false;
    match wfms_fault::point!("performability.evaluate-state") {
        Some(wfms_fault::Injection::Error) => {
            return Err(PerformabilityError::FaultInjected {
                site: "performability.evaluate-state",
            });
        }
        Some(wfms_fault::Injection::Nan) => poison_outcome = true,
        None => {}
    }
    let mut outcome = type_waiting_time(load, registry, x, up)?;
    if poison_outcome {
        if let WaitingOutcome::Stable { waiting_time, .. } = &mut outcome {
            *waiting_time = f64::NAN;
        }
    }
    Ok(outcome)
}

/// The exact Sec. 6 fold of an independent-repair chain under the
/// [`DegradedPolicy::Conditional`] policy, one 1-D sum per type (see the
/// crate docs for the derivation). Each item of `types` is one type's
/// marginal `m_x[u]` and its single-type outcome at each up-count
/// `u = 0..=Y_x`, in type order. With `S_x` the mass of type `x`'s
/// stable up-counts and `U_x` that of its up ones:
///
/// * `W_x = Σ_{u ∈ S_x} m_x[u]·w_x(u) / S_x`;
/// * `P(serving) = Π_x S_x`, `P(saturated) = Π_x U_x − Π_x S_x` and
///   `P(down) = 1 − Π_x U_x`.
///
/// `U_x` and `S_x` are summed in the same order, so `P(saturated)` is
/// exactly `0.0` when no up-count saturates, as [`fold_states`] reports
/// it. The report's `details` stay empty.
///
/// # Errors
/// * [`PerformabilityError::NoServingStates`] when `P(serving) ≤ 0`.
/// * [`PerformabilityError::Perf`] when a marginal and its outcomes
///   differ in length.
pub fn fold_types<'a, I>(types: I) -> Result<PerformabilityReport, PerformabilityError>
where
    I: IntoIterator<Item = (&'a [f64], &'a [WaitingOutcome])>,
{
    // Failpoint `performability.fold`: shared with the joint folds.
    let mut poison_fold = false;
    match wfms_fault::point!("performability.fold") {
        Some(wfms_fault::Injection::Error) => {
            return Err(PerformabilityError::FaultInjected {
                site: "performability.fold",
            });
        }
        Some(wfms_fault::Injection::Nan) => poison_fold = true,
        None => {}
    }
    let mut obs_span = wfms_obs::span!("performability");
    let mut expected_waiting = Vec::new();
    let mut probability_up = 1.0;
    let mut probability_serving = 1.0;
    let mut terms = 0;
    for (marginal, outcomes) in types {
        if marginal.len() != outcomes.len() {
            return Err(PerformabilityError::Perf(PerfError::LengthMismatch {
                what: "per-type outcomes",
                expected: marginal.len(),
                actual: outcomes.len(),
            }));
        }
        let (mut up, mut stable, mut weighted) = (0.0, 0.0, 0.0);
        for (&m, outcome) in marginal.iter().zip(outcomes) {
            match outcome {
                WaitingOutcome::Down => {}
                WaitingOutcome::Saturated { .. } => up += m,
                WaitingOutcome::Stable { waiting_time, .. } => {
                    up += m;
                    stable += m;
                    weighted += m * waiting_time;
                }
            }
        }
        probability_up *= up;
        probability_serving *= stable;
        expected_waiting.push(weighted / stable);
        terms += marginal.len();
    }
    obs_span.record("types", expected_waiting.len() as u64);
    obs_span.record("serving", probability_serving);
    wfms_obs::counter("performability.state-evaluations", terms as u64);
    if probability_serving <= 0.0 {
        return Err(PerformabilityError::NoServingStates);
    }
    if poison_fold {
        if let Some(w) = expected_waiting.first_mut() {
            *w = f64::NAN;
        }
    }
    Ok(PerformabilityReport {
        expected_waiting,
        probability_down: 1.0 - probability_up,
        probability_saturated: probability_up - probability_serving,
        probability_serving,
        states_evaluated: terms,
        details: Vec::new(),
        truncation: None,
    })
}

/// Parameters of the ε-truncated fold ([`fold_states_truncated`]).
#[derive(Debug, Clone)]
pub struct TruncationOptions<'a> {
    /// Stop once the visited mass reaches `1 − ε`; `0.0` visits every
    /// state the iterator yields.
    pub epsilon: f64,
    /// Size of the full state space, for the skipped-state count.
    pub total_states: usize,
    /// Per-type finite-wait caps from [`waiting_time_caps`].
    pub waiting_caps: &'a [f64],
}

/// ε-truncated Markov-reward fold: consumes `(state, π)` pairs from a
/// **descending-π** iterator (e.g.
/// `wfms_avail::ProductFormModel::enumerate_descending`) only until the
/// covered mass reaches `1 − ε`, and charges the residual mass `σ ≤ ε`
/// with a sound bound instead of evaluating the tail.
///
/// With `ε = 0` every yielded state is visited and the skipped mass is
/// exactly zero; the accumulation per state is the same as
/// [`fold_states`], so the only difference from the dense path is the
/// iteration (= summation) order.
///
/// # Error bounds
///
/// Let `σ` be the skipped mass and `c_x` the per-type finite-wait caps.
///
/// * **Conditional policy** — the estimate conditions on the *covered*
///   serving mass `S`. Writing the exact value as
///   `(A + a) / (S + s)` with `a ≤ σ·c_x` and `s ≤ σ` the skipped
///   serving contributions, `|ΔW_x| ≤ σ · c_x / S` (both `A/S` and the
///   skipped waits are ≤ `c_x`). The skipped mass itself is reported in
///   the [`TruncationReport`].
/// * **Penalty policy** — each skipped state is charged the configured
///   penalty `p`: `expected_waiting` gains `σ · p` per type. A skipped
///   state's true contribution per unit mass lies in `[0, max(p, c_x)]`
///   (finite waits are ≤ `c_x`, non-serving states are charged `p` by
///   the exact fold too), so `|ΔW_x| ≤ σ · max(p, c_x)`.
///
/// The down/saturated/serving probabilities cover only the visited
/// states; each under-counts its exact value by at most `σ`.
///
/// # Errors
/// As [`fold_states`], plus [`PerformabilityError::InvalidEpsilon`] on
/// `ε ∉ [0, 1)` and a length mismatch on the caps vector.
pub fn fold_states_truncated<I, F>(
    dist: I,
    k: usize,
    full_state: &[usize],
    policy: DegradedPolicy,
    opts: &TruncationOptions<'_>,
    mut eval: F,
) -> Result<PerformabilityReport, PerformabilityError>
where
    I: IntoIterator<Item = (Vec<usize>, f64)>,
    F: FnMut(&[usize]) -> Result<Arc<StateEvaluation>, PerformabilityError>,
{
    if let DegradedPolicy::Penalty { waiting_time } = policy {
        if !(waiting_time.is_finite() && waiting_time >= 0.0) {
            return Err(PerformabilityError::InvalidPenalty {
                value: waiting_time,
            });
        }
    }
    if !(opts.epsilon.is_finite() && (0.0..1.0).contains(&opts.epsilon)) {
        return Err(PerformabilityError::InvalidEpsilon {
            value: opts.epsilon,
        });
    }
    if opts.waiting_caps.len() != k {
        return Err(PerformabilityError::Perf(PerfError::LengthMismatch {
            what: "waiting-time caps",
            expected: k,
            actual: opts.waiting_caps.len(),
        }));
    }
    // Failpoint `performability.fold`: shared with the untruncated fold.
    let mut poison_fold = false;
    match wfms_fault::point!("performability.fold") {
        Some(wfms_fault::Injection::Error) => {
            return Err(PerformabilityError::FaultInjected {
                site: "performability.fold",
            });
        }
        Some(wfms_fault::Injection::Nan) => poison_fold = true,
        None => {}
    }
    let mut obs_span = wfms_obs::span!("performability");
    let mut details = Vec::new();
    let mut probability_down = 0.0;
    let mut probability_saturated = 0.0;
    let mut probability_serving = 0.0;
    let mut degraded_evaluations: u64 = 0;
    let mut covered = 0.0;
    // ε = 0 must visit every state: never stop on accumulated float mass.
    let target = if opts.epsilon > 0.0 {
        1.0 - opts.epsilon
    } else {
        f64::INFINITY
    };

    let mut dist = dist.into_iter();
    while covered < target {
        let Some((state, probability)) = dist.next() else {
            break;
        };
        if state != full_state {
            degraded_evaluations += 1;
        }
        let evaluation = eval(&state)?;
        if evaluation.down {
            probability_down += probability;
        } else if evaluation.saturated {
            probability_saturated += probability;
        } else {
            probability_serving += probability;
        }
        covered += probability;
        details.push(StateDetail {
            state,
            probability,
            outcomes: evaluation.outcomes.clone(),
        });
    }
    let states_skipped = opts.total_states.saturating_sub(details.len());
    let skipped_mass = if states_skipped == 0 {
        0.0
    } else {
        (1.0 - covered).max(0.0)
    };
    obs_span.record("states", details.len() as u64);

    let mut expected_waiting = vec![0.0; k];
    let mut waiting_error_bounds = vec![0.0; k];
    match policy {
        DegradedPolicy::Conditional => {
            if probability_serving <= 0.0 {
                return Err(PerformabilityError::NoServingStates);
            }
            for d in &details {
                if d.is_serving() {
                    for (x, o) in d.outcomes.iter().enumerate() {
                        // Infallible: `is_serving()` means no outcome is
                        // Down or Saturated, so every outcome is Stable
                        // and `waiting_time()` is Some.
                        expected_waiting[x] +=
                            // audit:allow(A008, reason = "is_serving() guarantees every outcome is Stable, so waiting_time() is Some")
                            d.probability * o.waiting_time().expect("serving state is stable");
                    }
                }
            }
            for w in expected_waiting.iter_mut() {
                *w /= probability_serving;
            }
            for (bound, &cap) in waiting_error_bounds.iter_mut().zip(opts.waiting_caps) {
                *bound = skipped_mass * cap / probability_serving;
            }
        }
        DegradedPolicy::Penalty { waiting_time } => {
            for d in &details {
                for (x, o) in d.outcomes.iter().enumerate() {
                    let w = o.waiting_time().unwrap_or(waiting_time);
                    expected_waiting[x] += d.probability * w;
                }
            }
            for (x, w) in expected_waiting.iter_mut().enumerate() {
                *w += skipped_mass * waiting_time;
                waiting_error_bounds[x] = skipped_mass * waiting_time.max(opts.waiting_caps[x]);
            }
        }
    }

    obs_span.record("degraded", degraded_evaluations);
    obs_span.record("serving", probability_serving);
    obs_span.record("pruned", states_skipped as u64);
    wfms_obs::counter("performability.state-evaluations", details.len() as u64);
    wfms_obs::counter("performability.degraded-evaluations", degraded_evaluations);
    wfms_obs::counter("performability.pruned-states", states_skipped as u64);

    if poison_fold {
        if let Some(w) = expected_waiting.first_mut() {
            *w = f64::NAN;
        }
    }
    Ok(PerformabilityReport {
        expected_waiting,
        probability_down,
        probability_saturated,
        probability_serving,
        states_evaluated: details.len(),
        details,
        truncation: Some(TruncationReport {
            epsilon: opts.epsilon,
            covered_mass: covered,
            skipped_mass,
            states_skipped,
            waiting_error_bounds,
            availability_bound: skipped_mass,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfms_statechart::paper_section52_registry;

    fn registry() -> ServerTypeRegistry {
        paper_section52_registry()
    }

    /// A load that puts utilization `rho` on a single server of each type.
    fn load_at(rho: f64, reg: &ServerTypeRegistry) -> SystemLoad {
        let rates: Vec<f64> = reg.iter().map(|(_, t)| rho / t.service_time_mean).collect();
        SystemLoad {
            request_rates: rates,
            total_arrival_rate: 1.0,
            active_instances: vec![],
        }
    }

    #[test]
    fn performability_exceeds_failure_blind_waiting() {
        // With failures, some probability mass sits in degraded states with
        // fewer replicas and thus higher waiting times.
        let reg = registry();
        let config = Configuration::uniform(&reg, 2).unwrap();
        let load = load_at(0.6, &reg); // 2 replicas -> 30% each at full strength
        let report = evaluate(&reg, &config, &load, DegradedPolicy::Conditional).unwrap();
        let blind = waiting_times(&load, &reg, config.as_slice()).unwrap();
        for (x, (b, w_perf)) in blind.iter().zip(&report.expected_waiting).enumerate() {
            let w_blind = b.waiting_time().unwrap();
            assert!(
                w_perf > &w_blind,
                "type {x}: performability {w_perf} !> failure-blind {w_blind}"
            );
        }
    }

    #[test]
    fn least_reliable_type_degrades_most() {
        let reg = registry();
        let config = Configuration::uniform(&reg, 2).unwrap();
        let load = load_at(0.8, &reg);
        let report = evaluate(&reg, &config, &load, DegradedPolicy::Conditional).unwrap();
        let blind = waiting_times(&load, &reg, config.as_slice()).unwrap();
        // Relative degradation per type; the app server (most failure-prone)
        // must suffer the largest relative increase.
        let degradation: Vec<f64> = report
            .expected_waiting
            .iter()
            .zip(&blind)
            .map(|(w, b)| w / b.waiting_time().unwrap())
            .collect();
        assert!(degradation[2] > degradation[1]);
        assert!(degradation[1] > degradation[0]);
    }

    #[test]
    fn probabilities_partition_unity() {
        let reg = registry();
        let config = Configuration::uniform(&reg, 2).unwrap();
        let load = load_at(1.2, &reg); // 0.6 per replica at full strength
        let report = evaluate(&reg, &config, &load, DegradedPolicy::Conditional).unwrap();
        let total =
            report.probability_down + report.probability_saturated + report.probability_serving;
        assert!((total - 1.0).abs() < 1e-9);
        assert!(report.probability_down > 0.0);
        // A single failed replica concentrates rho = 1.2 on the survivor.
        assert!(report.probability_saturated > 0.0);
        assert_eq!(report.states_evaluated, 27);
    }

    #[test]
    fn light_load_has_no_saturated_states() {
        let reg = registry();
        let config = Configuration::uniform(&reg, 2).unwrap();
        let load = load_at(0.4, &reg); // even a single replica stays below 0.8
        let report = evaluate(&reg, &config, &load, DegradedPolicy::Conditional).unwrap();
        assert_eq!(report.probability_saturated, 0.0);
        assert!(report.probability_down > 0.0);
    }

    #[test]
    fn penalty_policy_interpolates_to_the_paper_formula() {
        let reg = registry();
        let config = Configuration::uniform(&reg, 2).unwrap();
        let load = load_at(0.5, &reg);
        let conditional = evaluate(&reg, &config, &load, DegradedPolicy::Conditional).unwrap();
        let low_pen = evaluate(
            &reg,
            &config,
            &load,
            DegradedPolicy::Penalty { waiting_time: 0.0 },
        )
        .unwrap();
        let high_pen = evaluate(
            &reg,
            &config,
            &load,
            DegradedPolicy::Penalty { waiting_time: 1e3 },
        )
        .unwrap();
        for x in 0..3 {
            assert!(low_pen.expected_waiting[x] <= conditional.expected_waiting[x] + 1e-12);
            assert!(high_pen.expected_waiting[x] > conditional.expected_waiting[x]);
        }
    }

    #[test]
    fn more_replicas_improve_performability() {
        let reg = registry();
        let load = load_at(0.7, &reg);
        let w2 = evaluate(
            &reg,
            &Configuration::uniform(&reg, 2).unwrap(),
            &load,
            DegradedPolicy::Conditional,
        )
        .unwrap()
        .max_expected_waiting();
        let w3 = evaluate(
            &reg,
            &Configuration::uniform(&reg, 3).unwrap(),
            &load,
            DegradedPolicy::Conditional,
        )
        .unwrap()
        .max_expected_waiting();
        assert!(w3 < w2, "3-way {w3} !< 2-way {w2}");
    }

    #[test]
    fn overloaded_system_reports_no_serving_states() {
        let reg = registry();
        let config = Configuration::minimal(&reg);
        let load = load_at(1.5, &reg); // saturates even at full strength
        assert!(matches!(
            evaluate(&reg, &config, &load, DegradedPolicy::Conditional),
            Err(PerformabilityError::NoServingStates)
        ));
        // The penalty policy still produces a number.
        let pen = evaluate(
            &reg,
            &config,
            &load,
            DegradedPolicy::Penalty { waiting_time: 60.0 },
        )
        .unwrap();
        assert!(pen.expected_waiting.iter().all(|&w| w > 0.0));
    }

    #[test]
    fn invalid_penalty_is_rejected() {
        let reg = registry();
        let config = Configuration::minimal(&reg);
        let load = load_at(0.2, &reg);
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert!(matches!(
                evaluate(
                    &reg,
                    &config,
                    &load,
                    DegradedPolicy::Penalty { waiting_time: bad }
                ),
                Err(PerformabilityError::InvalidPenalty { .. })
            ));
        }
    }

    #[test]
    fn details_expose_degraded_states() {
        let reg = registry();
        let config = Configuration::uniform(&reg, 2).unwrap();
        let load = load_at(0.5, &reg);
        let report = evaluate(&reg, &config, &load, DegradedPolicy::Conditional).unwrap();
        // Find the state with one app server down: (2,2,1).
        let detail = report
            .details
            .iter()
            .find(|d| d.state == vec![2, 2, 1])
            .expect("state (2,2,1) present");
        assert!(detail.is_serving());
        // App server waiting in that state must exceed the full-state value.
        let full = report
            .details
            .iter()
            .find(|d| d.state == vec![2, 2, 2])
            .unwrap();
        let w_degraded = detail.outcomes[2].waiting_time().unwrap();
        let w_full = full.outcomes[2].waiting_time().unwrap();
        assert!(w_degraded > w_full);
        // Down state detected.
        let down = report
            .details
            .iter()
            .find(|d| d.state == vec![0, 2, 2])
            .unwrap();
        assert!(!down.is_serving());
        assert!(matches!(down.outcomes[0], WaitingOutcome::Down));
    }

    #[test]
    fn max_expected_waiting_is_the_row_maximum() {
        let report = PerformabilityReport {
            expected_waiting: vec![0.1, 0.5, 0.3],
            probability_down: 0.0,
            probability_saturated: 0.0,
            probability_serving: 1.0,
            states_evaluated: 0,
            details: vec![],
            truncation: None,
        };
        assert_eq!(report.max_expected_waiting(), 0.5);
    }

    /// A descending-π iterator over the full state space of `config`,
    /// built from the exact dense solve — lets the truncation tests run
    /// without depending on wfms-avail's product enumerator.
    fn descending_distribution(
        reg: &ServerTypeRegistry,
        config: &Configuration,
    ) -> Vec<(Vec<usize>, f64)> {
        let model = AvailabilityModel::new(reg, config).unwrap();
        let pi = model.steady_state(SteadyStateMethod::Lu).unwrap();
        let mut dist: Vec<(Vec<usize>, f64)> = model.distribution(&pi).unwrap().collect();
        dist.sort_by(|a, b| b.1.total_cmp(&a.1));
        dist
    }

    #[test]
    fn waiting_caps_bound_every_finite_state_wait() {
        let reg = registry();
        let config = Configuration::uniform(&reg, 2).unwrap();
        let load = load_at(0.8, &reg);
        let caps = waiting_time_caps(&load, &reg, config.as_slice()).unwrap();
        let report = evaluate(&reg, &config, &load, DegradedPolicy::Conditional).unwrap();
        for d in &report.details {
            for (x, o) in d.outcomes.iter().enumerate() {
                if let Some(w) = o.waiting_time() {
                    assert!(
                        w <= caps[x] + 1e-12,
                        "state {:?} type {x}: wait {w} exceeds cap {}",
                        d.state,
                        caps[x]
                    );
                }
            }
        }
        assert!(caps.iter().all(|&c| c > 0.0));
    }

    #[test]
    fn truncated_fold_with_zero_epsilon_matches_dense_bitwise() {
        let reg = registry();
        let config = Configuration::uniform(&reg, 2).unwrap();
        let load = load_at(0.7, &reg);
        let dist = descending_distribution(&reg, &config);
        let caps = waiting_time_caps(&load, &reg, config.as_slice()).unwrap();
        let dense = fold_states(
            dist.clone(),
            reg.len(),
            config.as_slice(),
            DegradedPolicy::Conditional,
            |state| evaluate_state(&load, &reg, state).map(Arc::new),
        )
        .unwrap();
        let truncated = fold_states_truncated(
            dist,
            reg.len(),
            config.as_slice(),
            DegradedPolicy::Conditional,
            &TruncationOptions {
                epsilon: 0.0,
                total_states: 27,
                waiting_caps: &caps,
            },
            |state| evaluate_state(&load, &reg, state).map(Arc::new),
        )
        .unwrap();
        // Same iterator order in, so every accumulated float agrees
        // bit-for-bit; only the truncation annotation differs.
        assert_eq!(dense.expected_waiting, truncated.expected_waiting);
        assert_eq!(dense.probability_down, truncated.probability_down);
        assert_eq!(dense.probability_serving, truncated.probability_serving);
        assert_eq!(dense.details, truncated.details);
        let t = truncated.truncation.unwrap();
        assert_eq!(t.states_skipped, 0);
        assert_eq!(t.skipped_mass, 0.0);
        assert_eq!(t.waiting_error_bounds, vec![0.0; 3]);
        assert_eq!(t.availability_bound, 0.0);
    }

    #[test]
    fn truncated_fold_error_stays_within_reported_bound() {
        let reg = registry();
        let config = Configuration::uniform(&reg, 3).unwrap();
        let load = load_at(0.9, &reg);
        let dist = descending_distribution(&reg, &config);
        let caps = waiting_time_caps(&load, &reg, config.as_slice()).unwrap();
        let exact = fold_states(
            dist.clone(),
            reg.len(),
            config.as_slice(),
            DegradedPolicy::Conditional,
            |state| evaluate_state(&load, &reg, state).map(Arc::new),
        )
        .unwrap();
        for epsilon in [1e-4, 1e-6, 1e-9] {
            let truncated = fold_states_truncated(
                dist.clone(),
                reg.len(),
                config.as_slice(),
                DegradedPolicy::Conditional,
                &TruncationOptions {
                    epsilon,
                    total_states: dist.len(),
                    waiting_caps: &caps,
                },
                |state| evaluate_state(&load, &reg, state).map(Arc::new),
            )
            .unwrap();
            let t = truncated.truncation.clone().unwrap();
            assert!(t.covered_mass >= 1.0 - epsilon);
            assert!(t.skipped_mass <= epsilon);
            // The fold-derived availability (1 − visited down mass) is
            // within the reported availability bound of the exact value.
            let delta_avail =
                ((1.0 - exact.probability_down) - (1.0 - truncated.probability_down)).abs();
            assert!(
                delta_avail <= t.availability_bound + 1e-15,
                "eps {epsilon}: |ΔA| {delta_avail:e} exceeds bound {:e}",
                t.availability_bound
            );
            for x in 0..reg.len() {
                let delta = (exact.expected_waiting[x] - truncated.expected_waiting[x]).abs();
                assert!(
                    delta <= t.waiting_error_bounds[x] + 1e-15,
                    "eps {epsilon} type {x}: |ΔW| {delta:e} exceeds bound {:e}",
                    t.waiting_error_bounds[x]
                );
            }
        }
    }

    #[test]
    fn truncated_penalty_fold_charges_skipped_mass_with_the_penalty() {
        let reg = registry();
        let config = Configuration::uniform(&reg, 3).unwrap();
        let load = load_at(0.6, &reg);
        let dist = descending_distribution(&reg, &config);
        let caps = waiting_time_caps(&load, &reg, config.as_slice()).unwrap();
        let penalty = 42.0;
        let policy = DegradedPolicy::Penalty {
            waiting_time: penalty,
        };
        let exact = fold_states(
            dist.clone(),
            reg.len(),
            config.as_slice(),
            policy,
            |state| evaluate_state(&load, &reg, state).map(Arc::new),
        )
        .unwrap();
        let truncated = fold_states_truncated(
            dist.clone(),
            reg.len(),
            config.as_slice(),
            policy,
            &TruncationOptions {
                epsilon: 1e-6,
                total_states: dist.len(),
                waiting_caps: &caps,
            },
            |state| evaluate_state(&load, &reg, state).map(Arc::new),
        )
        .unwrap();
        let t = truncated.truncation.clone().unwrap();
        assert!(t.states_skipped > 0, "ε = 1e-6 should prune the far tail");
        for x in 0..reg.len() {
            let delta = (exact.expected_waiting[x] - truncated.expected_waiting[x]).abs();
            assert!(
                delta <= t.waiting_error_bounds[x] + 1e-15,
                "type {x}: |ΔW| {delta:e} exceeds bound {:e}",
                t.waiting_error_bounds[x]
            );
        }
    }

    #[test]
    fn truncated_fold_rejects_bad_epsilon_and_caps() {
        let reg = registry();
        let config = Configuration::uniform(&reg, 2).unwrap();
        let load = load_at(0.5, &reg);
        let dist = descending_distribution(&reg, &config);
        let caps = waiting_time_caps(&load, &reg, config.as_slice()).unwrap();
        for bad in [f64::NAN, -1e-9, 1.0, 2.0] {
            assert!(matches!(
                fold_states_truncated(
                    dist.clone(),
                    reg.len(),
                    config.as_slice(),
                    DegradedPolicy::Conditional,
                    &TruncationOptions {
                        epsilon: bad,
                        total_states: dist.len(),
                        waiting_caps: &caps,
                    },
                    |state| evaluate_state(&load, &reg, state).map(Arc::new),
                ),
                Err(PerformabilityError::InvalidEpsilon { .. })
            ));
        }
        assert!(matches!(
            fold_states_truncated(
                dist.clone(),
                reg.len(),
                config.as_slice(),
                DegradedPolicy::Conditional,
                &TruncationOptions {
                    epsilon: 0.0,
                    total_states: dist.len(),
                    waiting_caps: &caps[..1],
                },
                |state| evaluate_state(&load, &reg, state).map(Arc::new),
            ),
            Err(PerformabilityError::Perf(_))
        ));
    }
}
