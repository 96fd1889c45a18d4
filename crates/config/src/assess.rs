//! Assessment of one candidate configuration against the goals.

use serde::{Deserialize, Serialize};

use wfms_perf::SystemLoad;
use wfms_performability::TruncationReport;
use wfms_statechart::ServerTypeRegistry;

use crate::error::ConfigError;
use crate::goals::GoalCheck;

/// Cap on the per-state failure records kept in a
/// [`DegradationReport`]; the `failed_states` count is always exact.
pub const DEGRADATION_DETAIL_CAP: usize = 32;

/// One degraded-state evaluation that failed and was charged with its
/// pessimistic waiting-time cap instead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedStateRecord {
    /// The system state `X` whose kernel evaluation failed.
    pub state: Vec<usize>,
    /// Its stationary probability `π_X` — the mass charged at the cap.
    pub probability: f64,
    /// Human-readable description of the failure.
    pub error: String,
}

/// How an assessment degraded gracefully instead of failing — the
/// robustness sibling of [`TruncationReport`]. Present **iff** something
/// actually degraded; clean assessments carry `None` and are bit-identical
/// to a build without the supervision layer.
///
/// The substituted waiting times are the sound per-type caps of
/// [`wfms_performability::waiting_time_caps`] (the wait at the smallest
/// stable up-count), so a degraded assessment's expected waiting is a
/// **pessimistic** estimate: real waits in the failed states can only be
/// lower.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradationReport {
    /// Degraded-state kernel evaluations that failed and were charged
    /// with the pessimistic cap.
    pub failed_states: usize,
    /// Total stationary mass of those states.
    pub charged_mass: f64,
    /// Availability-solver escalations taken while producing this
    /// assessment's stationary vector (sparse Gauss–Seidel → the exact
    /// product-form solve). Mirrors the `solver.fallback` obs counter.
    pub solver_fallbacks: u32,
    /// Per-state failure detail, capped at [`DEGRADATION_DETAIL_CAP`]
    /// entries ([`DegradationReport::failed_states`] stays exact).
    pub details: Vec<DegradedStateRecord>,
}

/// The evaluated quality of one configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Assessment {
    /// The assessed replication vector `Y`.
    pub replicas: Vec<usize>,
    /// Cost = total number of servers.
    pub cost: usize,
    /// Steady-state availability of the entire WFMS.
    pub availability: f64,
    /// Expected downtime, minutes per year.
    pub downtime_minutes_per_year: f64,
    /// Expected waiting time per server type under the performability
    /// model (conditional on serving states), when computable.
    ///
    /// `None` **iff** the conditional expectation is undefined because
    /// *no* system state `X ≤ Y` can serve the offered load — every
    /// state is down or saturated (the performability evaluation
    /// reported `NoServingStates`). In that case
    /// [`Assessment::max_expected_waiting`] is also `None`,
    /// [`Assessment::probability_saturated`] is reported as the sentinel
    /// `1.0`, and every search treats the candidate uniformly: the
    /// waiting-time goal (if any is set) counts as **unmet** in
    /// [`GoalCheck::waiting_time_met`] — greedy, exhaustive, B&B, and
    /// annealing all read that same flag, so `None` handling cannot
    /// diverge between them.
    pub expected_waiting: Option<Vec<f64>>,
    /// The worst entry of `expected_waiting`; `None` exactly when
    /// [`Assessment::expected_waiting`] is `None` (see there).
    pub max_expected_waiting: Option<f64>,
    /// Probability that some server type is saturated while the system is
    /// nominally up.
    pub probability_saturated: f64,
    /// Accounting for ε-truncated evaluation, present **iff** the
    /// performability fold ran on the product-form backend (see
    /// [`SearchOptions::epsilon`](crate::SearchOptions)). `None` on the
    /// exhaustive dense/sparse path. With `ε = 0` the report is still
    /// attached but records zero skipped states, zero skipped mass, and
    /// all-zero error bounds.
    pub truncation: Option<TruncationReport>,
    /// Graceful-degradation accounting, present **iff** some part of the
    /// evaluation failed and was repaired (solver fallback, pessimistic
    /// state charging). `None` in clean runs and always `None` under
    /// [`SearchOptions::strict`](crate::SearchOptions) (failures abort
    /// instead).
    #[serde(default)]
    pub degradation: Option<DegradationReport>,
    /// Which goals the configuration meets.
    pub goals: GoalCheck,
}

impl Assessment {
    /// True when all set goals are met.
    pub fn meets_goals(&self) -> bool {
        self.goals.all_met()
    }
}

/// Runs the static preflight pass of `wfms-analysis` over the inputs and
/// fails fast with the **complete** finding list when it reports errors.
///
/// Run by [`AssessmentEngine::new`](crate::AssessmentEngine::new) over
/// the inputs and again over each assessed candidate; saturation is
/// deliberately not a preflight error (see `wfms_analysis::preflight`).
pub(crate) fn run_preflight(
    registry: &ServerTypeRegistry,
    load: &SystemLoad,
    replicas: Option<&[usize]>,
) -> Result<(), ConfigError> {
    let findings = wfms_analysis::preflight(registry, load, replicas);
    if findings.has_errors() {
        return Err(ConfigError::Preflight(findings));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AssessmentEngine;
    use crate::goals::Goals;
    use crate::search::SearchOptions;
    use wfms_statechart::{paper_section52_registry, Configuration};

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

    fn engine(reg: &ServerTypeRegistry, load: &SystemLoad, goals: &Goals) -> AssessmentEngine {
        AssessmentEngine::new(reg, load, goals, SearchOptions::default()).unwrap()
    }

    #[test]
    fn preflight_rejects_malformed_load_with_all_findings() {
        let reg = paper_section52_registry();
        let goals = Goals::waiting_time_only(1.0).unwrap();
        let bad = SystemLoad {
            request_rates: vec![f64::NAN, -1.0, 0.5],
            total_arrival_rate: 1.0,
            active_instances: vec![],
        };
        match AssessmentEngine::new(&reg, &bad, &goals, SearchOptions::default()) {
            Err(ConfigError::Preflight(findings)) => {
                assert_eq!(findings.error_count(), 2, "{findings}");
            }
            other => panic!("expected preflight failure, got {other:?}"),
        }
        let short = SystemLoad {
            request_rates: vec![1.0],
            total_arrival_rate: 1.0,
            active_instances: vec![],
        };
        assert!(matches!(
            AssessmentEngine::new(&reg, &short, &goals, SearchOptions::default()),
            Err(ConfigError::Preflight(_))
        ));
    }

    #[test]
    fn assessment_reports_cost_and_availability() {
        let reg = paper_section52_registry();
        let config = Configuration::new(&reg, vec![2, 2, 3]).unwrap();
        let goals = Goals::new(1.0, 0.999).unwrap();
        let a = engine(&reg, &load_at(0.3, &reg), &goals)
            .assess(&config)
            .unwrap();
        assert_eq!(a.cost, 7);
        assert_eq!(a.replicas, vec![2, 2, 3]);
        assert!(a.availability > 0.999_99);
        assert!(a.downtime_minutes_per_year < 1.0);
        assert!(a.meets_goals());
    }

    #[test]
    fn unreplicated_system_fails_tight_availability_goal() {
        let reg = paper_section52_registry();
        let config = Configuration::minimal(&reg);
        let goals = Goals::availability_only(0.9999).unwrap();
        let a = engine(&reg, &load_at(0.3, &reg), &goals)
            .assess(&config)
            .unwrap();
        // 71 h/year downtime => availability ≈ 0.9919.
        assert!(!a.goals.availability_met);
        assert!(a.goals.waiting_time_met, "unset goal is vacuously met");
        assert!(!a.meets_goals());
    }

    #[test]
    fn saturated_configuration_fails_waiting_goal_without_error() {
        let reg = paper_section52_registry();
        let config = Configuration::minimal(&reg);
        let goals = Goals::waiting_time_only(1.0).unwrap();
        let a = engine(&reg, &load_at(2.0, &reg), &goals)
            .assess(&config)
            .unwrap();
        assert_eq!(a.expected_waiting, None);
        assert_eq!(a.max_expected_waiting, None);
        assert!(!a.goals.waiting_time_met);
        assert_eq!(a.probability_saturated, 1.0);
    }

    #[test]
    fn tight_waiting_goal_discriminates() {
        let reg = paper_section52_registry();
        let config = Configuration::uniform(&reg, 2).unwrap();
        let load = load_at(1.2, &reg);
        let loose = Goals::waiting_time_only(10.0).unwrap();
        let a = engine(&reg, &load, &loose).assess(&config).unwrap();
        assert!(a.goals.waiting_time_met);
        let w = a.max_expected_waiting.unwrap();
        let tight = Goals::waiting_time_only(w * 0.5).unwrap();
        let b = engine(&reg, &load, &tight).assess(&config).unwrap();
        assert!(!b.goals.waiting_time_met);
    }

    #[test]
    fn invalid_goals_propagate() {
        let reg = paper_section52_registry();
        let goals = Goals {
            max_waiting_time: None,
            min_availability: None,
            per_type_waiting: Vec::new(),
        };
        assert!(matches!(
            AssessmentEngine::new(&reg, &load_at(0.1, &reg), &goals, SearchOptions::default()),
            Err(ConfigError::NoGoals)
        ));
    }

    #[test]
    fn per_type_threshold_binds_only_its_type() {
        let reg = paper_section52_registry();
        let config = Configuration::uniform(&reg, 2).unwrap();
        let load = load_at(1.2, &reg);
        // Baseline: generous global threshold passes.
        let loose = Goals::waiting_time_only(10.0).unwrap();
        let a = engine(&reg, &load, &loose).assess(&config).unwrap();
        assert!(a.goals.waiting_time_met);
        let w_engine = a.expected_waiting.as_ref().unwrap()[1];
        // Tighten only the engine type below its actual waiting time.
        let tight_engine = Goals::waiting_time_only(10.0)
            .unwrap()
            .with_type_waiting(1, w_engine * 0.5)
            .unwrap();
        let b = engine(&reg, &load, &tight_engine).assess(&config).unwrap();
        assert!(!b.goals.waiting_time_met);
        // Tightening an already-comfortable type changes nothing.
        let slack_comm = Goals::waiting_time_only(10.0)
            .unwrap()
            .with_type_waiting(0, 9.9)
            .unwrap();
        let c = engine(&reg, &load, &slack_comm).assess(&config).unwrap();
        assert!(c.goals.waiting_time_met);
    }
}
