//! Configuration search: the paper's greedy heuristic (Sec. 7.2) and an
//! exhaustive minimum-cost baseline.
//!
//! The greedy algorithm "iterates over candidate configurations by
//! increasing the number of replicas of the most critical server type
//! until both the performability and the availability goals are
//! satisfied. […] each iteration of the loop over candidate
//! configurations evaluates the performability and the availability, but
//! adds servers to two different server types only after re-evaluating
//! whether the goals are still not met. This way the algorithm avoids
//! 'oversizing' the system configuration."
//!
//! Concretely, each iteration assesses the candidate and adds **one**
//! replica: to the performability-critical type if the waiting-time goal
//! is unmet, otherwise to the availability-critical type. Because an
//! added replica improves both metrics, re-assessing between additions is
//! exactly the interleaving the paper describes.

use serde::{Deserialize, Serialize};

use wfms_perf::SystemLoad;
use wfms_statechart::{ServerTypeId, ServerTypeRegistry};

use crate::assess::Assessment;
use crate::error::ConfigError;
use crate::goals::Goals;

/// Search tuning knobs. Construct via [`SearchOptions::builder`]:
///
/// ```
/// use wfms_config::SearchOptions;
/// let opts = SearchOptions::builder().max_total_servers(32).strict(true).build();
/// assert_eq!(opts.max_total_servers, 32);
/// assert!(opts.strict);
/// ```
///
/// `Default` is equivalent to the pre-engine behaviour: a budget of 64
/// servers and an effectively unbounded record cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchOptions {
    /// Maximum total number of servers (the cost budget). The search
    /// fails with [`ConfigError::GoalsUnreachable`] beyond it.
    pub max_total_servers: usize,
    /// Maximum entries of the engine's record cache, the per-type
    /// `(type, Y_x)` records; `0` disables it. Evicted records are
    /// recomputed when a later candidate needs them.
    pub state_cache_capacity: usize,
    /// Fail-fast mode: when `true`, any candidate-level model failure
    /// aborts the assessment or search immediately (the historical
    /// behaviour). When `false` (the default), the engine degrades
    /// gracefully: failed evaluations, one per `(type, up-count)`, are
    /// charged with their sound pessimistic waiting-time cap and
    /// recorded in [`Assessment::degradation`](crate::Assessment), and
    /// searches quarantine irrecoverable candidates in
    /// [`SearchResult::quarantined`] instead of aborting.
    #[serde(default)]
    pub strict: bool,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            max_total_servers: 64,
            state_cache_capacity: 65_536,
            strict: false,
        }
    }
}

impl SearchOptions {
    /// Starts a builder initialised to [`SearchOptions::default`].
    pub fn builder() -> SearchOptionsBuilder {
        SearchOptionsBuilder {
            opts: SearchOptions::default(),
        }
    }
}

/// Builder for [`SearchOptions`].
#[derive(Debug, Clone, Default)]
pub struct SearchOptionsBuilder {
    opts: SearchOptions,
}

impl SearchOptionsBuilder {
    /// Sets the total-server budget.
    #[must_use]
    pub fn max_total_servers(mut self, max_total_servers: usize) -> Self {
        self.opts.max_total_servers = max_total_servers;
        self
    }

    /// Ignored: every search runs on its caller's thread. Kept only
    /// because the benchmark harness (`wfms-benchmark`) still calls it;
    /// it goes once the harness stops.
    #[must_use]
    pub fn jobs(self, _jobs: usize) -> Self {
        self
    }

    /// Caps the record cache (`0` disables it).
    #[must_use]
    pub fn state_cache_capacity(mut self, entries: usize) -> Self {
        self.opts.state_cache_capacity = entries;
        self
    }

    /// Enables or disables fail-fast mode (see [`SearchOptions::strict`]).
    #[must_use]
    pub fn strict(mut self, strict: bool) -> Self {
        self.opts.strict = strict;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> SearchOptions {
        self.opts
    }
}

/// A candidate configuration a search set aside because its assessment
/// failed irrecoverably (and [`SearchOptions::strict`] was off).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantinedCandidate {
    /// The candidate's replica vector.
    pub replicas: Vec<usize>,
    /// Human-readable description of the failure.
    pub error: String,
}

/// Outcome of a configuration search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchResult {
    /// The goal-satisfying configuration's assessment.
    pub assessment: Assessment,
    /// Every candidate assessed on the way, in order.
    pub trace: Vec<Assessment>,
    /// Number of model evaluations performed.
    pub evaluations: usize,
    /// Candidates whose assessment failed irrecoverably and were skipped
    /// instead of aborting the search. Always empty under
    /// [`SearchOptions::strict`] (failures abort instead) and in clean
    /// runs.
    #[serde(default)]
    pub quarantined: Vec<QuarantinedCandidate>,
}

impl SearchResult {
    /// The found replication vector.
    pub fn replicas(&self) -> &[usize] {
        &self.assessment.replicas
    }

    /// The found configuration's cost.
    pub fn cost(&self) -> usize {
        self.assessment.cost
    }
}

/// The minimum replicas per type needed for stability at full strength:
/// `Y_x > l_x · b_x`, i.e. `floor(l_x b_x) + 1`.
///
/// # Errors
/// [`ConfigError::Arch`] on a registry/load mismatch.
pub fn minimum_stable_replicas(
    registry: &ServerTypeRegistry,
    load: &SystemLoad,
) -> Result<Vec<usize>, ConfigError> {
    let mut out = Vec::with_capacity(registry.len());
    for (id, st) in registry.iter() {
        let l_x = *load.request_rates.get(id.0).ok_or(ConfigError::Perf(
            wfms_perf::PerfError::LengthMismatch {
                what: "request rates",
                expected: registry.len(),
                actual: load.request_rates.len(),
            },
        ))?;
        let demand = l_x * st.service_time_mean;
        out.push(demand.floor() as usize + 1);
    }
    Ok(out)
}

/// Emits a `search-candidate` observability span describing one assessed
/// candidate: the replica vector, its predicted availability and worst
/// waiting time, and whether the search accepted it (goal satisfaction
/// for the deterministic searches, the Metropolis verdict for annealing).
pub(crate) fn record_candidate(assessment: &Assessment, accepted: bool) {
    let mut span = wfms_obs::span!("search-candidate");
    if !span.is_recording() {
        return;
    }
    span.record("candidate", format!("{:?}", assessment.replicas));
    span.record("cost", assessment.cost as u64);
    span.record("availability", assessment.availability);
    if let Some(w) = assessment.max_expected_waiting {
        span.record("w_max", w);
    }
    span.record("accepted", accepted);
}

/// Picks the performability-critical server type: among the types that
/// violate their (global or per-type) waiting threshold, the one with the
/// largest violation ratio `w_x / threshold_x`; if none violates, the one
/// with the largest expected waiting time; and when the assessment could
/// not produce waiting times at all (saturation), the one with the
/// highest per-replica utilization.
pub(crate) fn performability_critical_type(
    registry: &ServerTypeRegistry,
    load: &SystemLoad,
    goals: &Goals,
    assessment: &Assessment,
) -> ServerTypeId {
    if let Some(waits) = &assessment.expected_waiting {
        let mut worst_violation: Option<(usize, f64)> = None;
        for (x, &w) in waits.iter().enumerate() {
            if let Some(threshold) = goals.waiting_threshold_for(x) {
                let ratio = w / threshold;
                if ratio > 1.0 && worst_violation.is_none_or(|(_, r)| ratio > r) {
                    worst_violation = Some((x, ratio));
                }
            }
        }
        if let Some((x, _)) = worst_violation {
            return ServerTypeId(x);
        }
        let mut best = 0;
        for x in 1..waits.len() {
            if waits[x] > waits[best] {
                best = x;
            }
        }
        return ServerTypeId(best);
    }
    // Saturated somewhere: highest utilization at the current replica count.
    highest_utilization_type(registry, load, &assessment.replicas)
}

/// The server type with the highest per-replica utilization at the given
/// replica counts — the saturated-candidate fallback of the greedy step,
/// also used to keep progressing past a quarantined candidate (no
/// assessment exists then, but the utilizations need only the load).
pub(crate) fn highest_utilization_type(
    registry: &ServerTypeRegistry,
    load: &SystemLoad,
    replicas: &[usize],
) -> ServerTypeId {
    let mut best = 0;
    let mut best_util = f64::MIN;
    for (id, st) in registry.iter() {
        let util = load.request_rates[id.0] * st.service_time_mean / replicas[id.0] as f64;
        if util > best_util {
            best_util = util;
            best = id.0;
        }
    }
    ServerTypeId(best)
}

/// Picks the availability-critical server type: the one contributing the
/// most to unavailability, `q_x^{Y_x}` with `q_x = λ_x / (λ_x + μ_x)`.
pub(crate) fn availability_critical_type(
    registry: &ServerTypeRegistry,
    replicas: &[usize],
) -> ServerTypeId {
    let mut best = 0;
    let mut best_contrib = f64::MIN;
    for (id, st) in registry.iter() {
        let q = st.failure_rate / (st.failure_rate + st.repair_rate);
        let contrib = q.powi(replicas[id.0] as i32);
        if contrib > best_contrib {
            best_contrib = contrib;
            best = id.0;
        }
    }
    ServerTypeId(best)
}

/// Per-type replica lower bounds implied by the goals — the pruning core
/// of [`AssessmentEngine::branch_and_bound`](crate::AssessmentEngine::branch_and_bound):
///
/// * a waiting-time goal requires stability, `Y_x > l_x · b_x`, and (the
///   per-type waiting time depending only on `Y_x`) enough replicas that
///   the full-strength M/G/1 wait meets the type's threshold;
/// * an availability goal requires each type's own unavailability
///   `q_x^{Y_x}` to stay below the whole budget `1 − A_min` (necessary,
///   since the other factors only shrink the product).
///
/// # Errors
/// [`ConfigError`] on registry/load mismatches.
pub fn goal_lower_bounds(
    registry: &ServerTypeRegistry,
    load: &SystemLoad,
    goals: &Goals,
    max_per_type: usize,
) -> Result<Vec<usize>, ConfigError> {
    let mut bounds = vec![1usize; registry.len()];
    if goals.max_waiting_time.is_some() || !goals.per_type_waiting.is_empty() {
        for (id, st) in registry.iter() {
            let l_x = load.request_rates[id.0];
            let demand = l_x * st.service_time_mean;
            let mut y = (demand.floor() as usize + 1).max(1);
            // Grow until the full-strength M/G/1 wait meets the threshold
            // (a necessary condition: degraded states only wait longer).
            if let Some(threshold) = goals.waiting_threshold_for(id.0) {
                while y <= max_per_type {
                    let per_server = l_x / y as f64;
                    let service = wfms_queueing::ServiceMoments::new(
                        st.service_time_mean,
                        st.service_time_second_moment,
                    )
                    .map_err(wfms_perf::PerfError::Queue)?;
                    let queue = wfms_queueing::Mg1::new(per_server, service)
                        .map_err(wfms_perf::PerfError::Queue)?;
                    match queue.mean_waiting_time() {
                        Ok(w) if w <= threshold => break,
                        _ => y += 1,
                    }
                }
            }
            bounds[id.0] = bounds[id.0].max(y);
        }
    }
    if let Some(min_avail) = goals.min_availability {
        let budget = 1.0 - min_avail;
        for (id, st) in registry.iter() {
            let q = st.failure_rate / (st.failure_rate + st.repair_rate);
            let mut y = 1usize;
            while y <= max_per_type && q.powi(y as i32) > budget {
                y += 1;
            }
            bounds[id.0] = bounds[id.0].max(y);
        }
    }
    Ok(bounds)
}

/// Enumerates all vectors of length `k` with `current[i] ≥ lower[i]`
/// summing to `total`, calling `f` for each.
pub(crate) fn enumerate_bounded(
    total: usize,
    k: usize,
    lower: &[usize],
    current: &mut Vec<usize>,
    index: usize,
    f: &mut impl FnMut(&[usize]) -> Result<(), ConfigError>,
) -> Result<(), ConfigError> {
    if index == k - 1 {
        let assigned: usize = current[..index].iter().sum();
        if total >= assigned + lower[index] {
            current[index] = total - assigned;
            f(current)?;
        }
        return Ok(());
    }
    let assigned: usize = current[..index].iter().sum();
    let remaining_min: usize = lower[index + 1..].iter().sum();
    let max_here = total.saturating_sub(assigned + remaining_min);
    for v in lower[index]..=max_here {
        current[index] = v;
        enumerate_bounded(total, k, lower, current, index + 1, f)?;
    }
    Ok(())
}

/// Enumerates all vectors of length `k` with entries ≥ 1 summing to
/// `total`, calling `f` for each.
pub(crate) fn enumerate_compositions(
    total: usize,
    k: usize,
    current: &mut Vec<usize>,
    index: usize,
    f: &mut impl FnMut(&[usize]) -> Result<(), ConfigError>,
) -> Result<(), ConfigError> {
    if index == k - 1 {
        let assigned: usize = current[..index].iter().sum();
        if total > assigned {
            current[index] = total - assigned;
            f(current)?;
        }
        return Ok(());
    }
    let assigned: usize = current[..index].iter().sum();
    let remaining_min = k - index - 1; // at least one each for the rest
    let max_here = total.saturating_sub(assigned + remaining_min);
    for v in 1..=max_here {
        current[index] = v;
        enumerate_compositions(total, k, current, index + 1, f)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AssessmentEngine;
    use wfms_statechart::paper_section52_registry;

    fn load_at(rho_single: f64, reg: &ServerTypeRegistry) -> SystemLoad {
        let rates: Vec<f64> = reg
            .iter()
            .map(|(_, t)| rho_single / t.service_time_mean)
            .collect();
        SystemLoad {
            request_rates: rates,
            total_arrival_rate: 1.0,
            active_instances: vec![],
        }
    }

    fn engine(
        reg: &ServerTypeRegistry,
        load: &SystemLoad,
        goals: &Goals,
        opts: SearchOptions,
    ) -> AssessmentEngine {
        AssessmentEngine::new(reg, load, goals, opts).unwrap()
    }

    #[test]
    fn greedy_meets_availability_goal_with_asymmetric_replication() {
        // Availability-only goal: the app server (most failure-prone) should
        // receive extra replicas before the reliable communication server.
        let reg = paper_section52_registry();
        let goals = Goals::availability_only(0.999_999).unwrap();
        let load = load_at(0.1, &reg);
        let result = engine(&reg, &load, &goals, SearchOptions::default())
            .greedy()
            .unwrap();
        assert!(result.assessment.meets_goals());
        let y = result.replicas();
        assert!(
            y[2] >= y[0],
            "app replicas {} < comm replicas {}",
            y[2],
            y[0]
        );
        assert!(result.assessment.availability >= 0.999_999);
    }

    #[test]
    fn greedy_trace_costs_are_increasing() {
        let reg = paper_section52_registry();
        let goals = Goals::new(0.01, 0.9999).unwrap();
        let load = load_at(0.8, &reg);
        let result = engine(&reg, &load, &goals, SearchOptions::default())
            .greedy()
            .unwrap();
        for pair in result.trace.windows(2) {
            assert_eq!(
                pair[1].cost,
                pair[0].cost + 1,
                "one server added per iteration"
            );
        }
        assert_eq!(result.evaluations, result.trace.len());
    }

    #[test]
    fn greedy_matches_exhaustive_optimum_cost_on_small_goals() {
        let reg = paper_section52_registry();
        let load = load_at(0.5, &reg);
        for goals in [
            Goals::availability_only(0.9999).unwrap(),
            Goals::new(0.005, 0.999).unwrap(),
            Goals::waiting_time_only(0.002).unwrap(),
        ] {
            let greedy = engine(&reg, &load, &goals, SearchOptions::default())
                .greedy()
                .unwrap();
            let optimal = engine(&reg, &load, &goals, SearchOptions::default())
                .exhaustive()
                .unwrap();
            assert!(
                greedy.cost() <= optimal.cost() + 1,
                "greedy {} vs optimal {} for {goals:?}",
                greedy.cost(),
                optimal.cost()
            );
            assert!(
                greedy.cost() >= optimal.cost(),
                "exhaustive must be optimal"
            );
        }
    }

    #[test]
    fn exhaustive_returns_minimum_cost() {
        let reg = paper_section52_registry();
        let load = load_at(0.3, &reg);
        let goals = Goals::availability_only(0.999).unwrap();
        let result = engine(&reg, &load, &goals, SearchOptions::default())
            .exhaustive()
            .unwrap();
        // Every cheaper or equal-cost earlier candidate in the trace fails.
        for a in &result.trace {
            if a.cost < result.cost() {
                assert!(
                    !a.meets_goals(),
                    "cheaper candidate {:?} meets goals",
                    a.replicas
                );
            }
        }
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let reg = paper_section52_registry();
        let load = load_at(0.2, &reg);
        let goals = Goals::availability_only(0.999_999_999_999).unwrap();
        let opts = SearchOptions {
            max_total_servers: 4,
            ..SearchOptions::default()
        };
        assert!(matches!(
            engine(&reg, &load, &goals, opts).greedy(),
            Err(ConfigError::GoalsUnreachable { budget: 4, .. })
        ));
        assert!(matches!(
            engine(&reg, &load, &goals, opts).exhaustive(),
            Err(ConfigError::GoalsUnreachable { .. })
        ));
    }

    #[test]
    fn unsustainable_load_is_detected_early() {
        let reg = paper_section52_registry();
        // Demand of 100 servers per type with a budget of 12.
        let load = load_at(100.0, &reg);
        let goals = Goals::waiting_time_only(1.0).unwrap();
        let opts = SearchOptions::builder().max_total_servers(12).build();
        assert!(matches!(
            engine(&reg, &load, &goals, opts).greedy(),
            Err(ConfigError::LoadUnsustainable { .. })
        ));
    }

    #[test]
    fn minimum_stable_replicas_matches_demand() {
        let reg = paper_section52_registry();
        let load = load_at(2.5, &reg); // demand 2.5 servers per type
        let min = minimum_stable_replicas(&reg, &load).unwrap();
        assert_eq!(min, vec![3, 3, 3]);
    }

    #[test]
    fn heavier_load_needs_costlier_configuration() {
        let reg = paper_section52_registry();
        let goals = Goals::waiting_time_only(0.001).unwrap();
        let light = engine(&reg, &load_at(0.5, &reg), &goals, SearchOptions::default())
            .greedy()
            .unwrap()
            .cost();
        let heavy = engine(&reg, &load_at(2.5, &reg), &goals, SearchOptions::default())
            .greedy()
            .unwrap()
            .cost();
        assert!(heavy > light, "heavy {heavy} !> light {light}");
    }

    #[test]
    fn branch_and_bound_matches_exhaustive_with_fewer_evaluations() {
        let reg = paper_section52_registry();
        let load = load_at(1.5, &reg);
        for goals in [
            Goals::availability_only(0.9999).unwrap(),
            Goals::new(0.01, 0.999_999).unwrap(),
            Goals::waiting_time_only(0.002).unwrap(),
        ] {
            let exhaustive = engine(&reg, &load, &goals, SearchOptions::default())
                .exhaustive()
                .unwrap();
            let bnb = engine(&reg, &load, &goals, SearchOptions::default())
                .branch_and_bound()
                .unwrap();
            assert_eq!(bnb.cost(), exhaustive.cost(), "optimality for {goals:?}");
            assert!(
                bnb.evaluations <= exhaustive.evaluations,
                "{goals:?}: bnb {} vs exhaustive {}",
                bnb.evaluations,
                exhaustive.evaluations
            );
        }
    }

    #[test]
    fn goal_lower_bounds_reflect_both_goals() {
        let reg = paper_section52_registry();
        // Demand 2.5 servers per type -> stability bound 3.
        let load = load_at(2.5, &reg);
        let goals = Goals::waiting_time_only(1.0).unwrap();
        let bounds = goal_lower_bounds(&reg, &load, &goals, 64).unwrap();
        assert!(bounds.iter().all(|&b| b >= 3), "{bounds:?}");
        // Tight availability: the app server (q ≈ 6.9e-3, q³ ≈ 3.3e-7 still
        // above budget) needs 4 replicas for q^Y ≤ 1e-7; the comm server
        // (q ≈ 2.3e-4, q² ≈ 5.4e-8) needs 2.
        let goals = Goals::availability_only(1.0 - 1e-7).unwrap();
        let bounds = goal_lower_bounds(&reg, &load_at(0.01, &reg), &goals, 64).unwrap();
        assert_eq!(bounds[2], 4, "{bounds:?}");
        assert_eq!(bounds[0], 2, "{bounds:?}");
    }

    #[test]
    fn branch_and_bound_reports_unreachable_goals_early() {
        let reg = paper_section52_registry();
        let load = load_at(100.0, &reg);
        let goals = Goals::waiting_time_only(1.0).unwrap();
        let opts = SearchOptions::builder().max_total_servers(12).build();
        assert!(matches!(
            engine(&reg, &load, &goals, opts).branch_and_bound(),
            Err(ConfigError::GoalsUnreachable { .. })
        ));
    }

    #[test]
    fn composition_enumeration_counts_match() {
        // Number of compositions of `total` into k positive parts is
        // C(total-1, k-1).
        let mut count = 0;
        let mut current = vec![1usize; 3];
        enumerate_compositions(7, 3, &mut current, 0, &mut |_| {
            count += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(count, 15); // C(6,2)
    }
}
