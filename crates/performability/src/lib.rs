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
//!
//! [`fold_types`], through the assessment engine of `wfms-config`, is
//! the only production fold: every assessment, search and sensitivity
//! figure comes from it. [`evaluate`], [`evaluate_with_model`] and
//! [`fold_states`] build and fold the joint chain; they are the test
//! oracle, and EXP-B1 reads their per-state and penalty tables.

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
/// its stationary distribution (the oracles pass the LU solution they
/// already hold).
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
/// vector `X` — not on the candidate configuration `Y` containing it.
/// The assessment engine never forms `X`: it evaluates one type at one
/// up-count ([`evaluate_type_state`]).
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
    })
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
    // Failpoint `performability.fold`: shared with the joint fold.
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
    let types = types.into_iter();
    let mut expected_waiting = Vec::with_capacity(types.size_hint().0);
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
        };
        assert_eq!(report.max_expected_waiting(), 0.5);
    }

    #[test]
    fn waiting_caps_bound_every_finite_state_wait() {
        let reg = registry();
        let config = Configuration::uniform(&reg, 2).unwrap();
        let load = load_at(0.8, &reg);
        let caps: Vec<f64> = config
            .as_slice()
            .iter()
            .enumerate()
            .map(|(x, &y)| {
                type_waiting_cap(&load, &reg, ServerTypeId(x), y)
                    .unwrap()
                    .expect("every type is stable at one of its up-counts")
            })
            .collect();
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
}
