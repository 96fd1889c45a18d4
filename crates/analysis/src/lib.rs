//! # wfms-analysis
//!
//! A multi-pass static diagnostics engine over workflow specifications,
//! Markov models, and candidate configurations.
//!
//! The seed validators are fail-first: they stop at the first defect and
//! return a single error. This crate walks the **whole** system model —
//! the workflow specs, the CTMCs the performance and availability models
//! would build from them, the queueing stations, the candidate replica
//! vector, and the performability goals — and reports **every** finding
//! at once, each with a stable code, a severity, and a machine-readable
//! [`Location`]. Four pass families compose the engine:
//!
//! * **W** (spec/structure, [`wfms_statechart::lint_spec`]) — state-chart
//!   shape and activity-table rules of Secs. 3.1–3.2;
//! * **M** (Markov/numerical, [`wfms_markov::lint_generator`]) — generator
//!   conditions of Sec. 3.2 and numerical health (uniformization of
//!   Sec. 4.2.1, stiffness, absorption);
//! * **Q** (queueing/stability, [`wfms_queueing::lint_station`]) — the
//!   M/G/1 validity and stability conditions of Secs. 4.3–4.4;
//! * **C** (configuration/goals, [`lint_configuration`], this crate) —
//!   replica-vector shape, load coverage, and the goal domains of
//!   Secs. 7.1–7.2.
//!
//! [`analyze`] runs all four over a [`SystemUnderAnalysis`]; [`preflight`]
//! is the cheap structural subset `wfms-config` calls fail-fast from
//! `assess` and the searches. Saturation (`ρ ≥ 1`) is deliberately **not**
//! a preflight failure: a saturated configuration is a legitimate input to
//! assessment — it simply fails the waiting-time goal in-band.

#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

use wfms_diag::{codes, Diagnostic, Diagnostics, Location};
use wfms_perf::{aggregate_load, analyze_workflow, AnalysisOptions, SystemLoad, WorkloadItem};
use wfms_statechart::{Configuration, ServerTypeRegistry, WorkflowSpec, MAX_REPLICAS};

pub use wfms_diag::Severity;

/// Skip linting the availability CTMC when the candidate configuration's
/// system-state space exceeds this many states (the lint would cost more
/// than the analysis it guards).
pub const AVAIL_LINT_STATE_CAP: usize = 4096;

/// The performability-goal thresholds of Sec. 7.1, as plain targets.
///
/// This mirrors the semantics of `wfms_config::Goals` without depending
/// on `wfms-config` (which depends on this crate for preflight): a
/// maximum acceptable mean waiting time and a minimum availability for
/// the entire WFMS. Unset targets are unconstrained.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GoalTargets {
    /// Maximum acceptable mean waiting time of service requests (minutes).
    pub max_waiting_time: Option<f64>,
    /// Minimum availability of the entire WFMS, in `(0, 1)`.
    pub min_availability: Option<f64>,
}

/// Everything the engine can look at in one run. Only the registry and
/// the workload are mandatory; the candidate configuration, the goals,
/// and the search budget are linted when present.
#[derive(Debug, Clone)]
pub struct SystemUnderAnalysis<'a> {
    /// The architectural model (server types with dependability and
    /// service parameters).
    pub registry: &'a ServerTypeRegistry,
    /// The workflow repository: each spec with its arrival rate `ξ_t`
    /// (instances per minute).
    pub workload: &'a [(WorkflowSpec, f64)],
    /// Candidate replica vector `Y`, if one is under consideration.
    pub replicas: Option<&'a [usize]>,
    /// Performability goals, if specified.
    pub goals: Option<&'a GoalTargets>,
    /// Total-server budget of the configuration search (Sec. 7.2).
    pub max_total_servers: Option<usize>,
}

/// Runs every pass over the system and returns the complete finding list.
///
/// The passes degrade gracefully rather than cascade: a workflow whose
/// spec pass reports errors is skipped by the Markov pass (its CTMC
/// cannot be built meaningfully), and the queueing pass falls back to
/// per-type moment checks when the aggregate load cannot be computed.
pub fn analyze(system: &SystemUnderAnalysis<'_>) -> Diagnostics {
    let mut out = Diagnostics::new();
    let registry = system.registry;

    // ---- W-pass: every workflow spec, plus its arrival rate. ----------
    let mut items: Vec<WorkloadItem> = Vec::new();
    let mut all_specs_analyzable = !system.workload.is_empty();
    for (spec, rate) in system.workload {
        let spec_findings = wfms_statechart::lint_spec(spec, registry);
        let spec_clean = !spec_findings.has_errors();
        out.extend(spec_findings);
        if !(rate.is_finite() && *rate >= 0.0) {
            out.push(Diagnostic::error(
                codes::Q_INVALID_RATE,
                Location::Spec {
                    workflow: spec.name.clone(),
                },
                format!("arrival rate {rate} must be finite and non-negative"),
            ));
            all_specs_analyzable = false;
            continue;
        }
        if !spec_clean {
            all_specs_analyzable = false;
            continue;
        }
        // ---- M-pass: the workflow CTMC of Sec. 4.1. --------------------
        match analyze_workflow(spec, registry, &AnalysisOptions::default()) {
            Ok(analysis) => {
                let matrix = format!("workflow {:?} generator", spec.name);
                let mut chain = wfms_markov::lint_ctmc(&analysis.ctmc, &matrix);
                // Workflow chains are absorbing by construction (Sec. 4.1):
                // the M006 hint would fire for every healthy workflow.
                chain.items.retain(|d| d.code != codes::M_ABSORBING_STATES);
                out.extend(chain);
                items.push(WorkloadItem {
                    analysis,
                    arrival_rate: *rate,
                });
            }
            Err(e) => {
                all_specs_analyzable = false;
                out.push(Diagnostic::error(
                    codes::M_NON_FINITE,
                    Location::Spec {
                        workflow: spec.name.clone(),
                    },
                    format!("the workflow CTMC could not be built: {e}"),
                ));
            }
        }
    }

    // ---- Q-pass: one M/G/1 station per server type (Secs. 4.3–4.4). ---
    let load = if all_specs_analyzable && items.len() == system.workload.len() {
        aggregate_load(&items, registry).ok()
    } else {
        None
    };
    let replicas_usable = system.replicas.filter(|r| r.len() == registry.len());
    for (id, st) in registry.iter() {
        let rate = load.as_ref().map_or(0.0, |l| l.request_rates[id.0]);
        let reps = replicas_usable.map_or(0, |r| r[id.0]);
        out.extend(wfms_queueing::lint_station(
            &st.name,
            rate,
            st.service_time_mean,
            st.service_time_second_moment,
            reps,
        ));
    }

    // ---- M-pass on the availability CTMC of Sec. 5. --------------------
    if let Some(replicas) = replicas_usable {
        out.extend(lint_availability_chain(registry, replicas));
    }

    // ---- C-pass: configuration, goals, and budget (Sec. 7). ------------
    if let Some(replicas) = system.replicas {
        out.extend(lint_configuration(
            registry,
            replicas,
            load.as_ref(),
            system.goals,
            system.max_total_servers,
        ));
    } else if let Some(goals) = system.goals {
        out.extend(lint_goals(goals));
        if let (Some(load), Some(budget)) = (load.as_ref(), system.max_total_servers) {
            out.extend(lint_budget(registry, load, goals, budget));
        }
    }
    out
}

/// Lints the system-state availability CTMC (Sec. 5.1) that the given
/// replica vector induces, skipping silently when the state space exceeds
/// [`AVAIL_LINT_STATE_CAP`] states.
fn lint_availability_chain(registry: &ServerTypeRegistry, replicas: &[usize]) -> Diagnostics {
    let mut out = Diagnostics::new();
    let config = match Configuration::new(registry, replicas.to_vec()) {
        Ok(c) => c,
        // Shape errors are the C-pass's job (C001).
        Err(_) => return out,
    };
    if config.system_state_count() > AVAIL_LINT_STATE_CAP {
        return out;
    }
    match wfms_avail::AvailabilityModel::new(registry, &config) {
        Ok(model) => out.extend(wfms_markov::lint_ctmc(
            model.ctmc(),
            "availability generator",
        )),
        Err(e) => out.push(Diagnostic::error(
            codes::M_NON_FINITE,
            Location::MatrixRow {
                matrix: "availability generator".to_string(),
                row: 0,
            },
            format!("the availability CTMC could not be built: {e}"),
        )),
    }
    out
}

/// The configuration lint pass (`C0xx`): replica-vector shape, the
/// replica cap, load coverage, goal domains, and budget feasibility.
///
/// `load` enables the per-type coverage checks (C002/C005) and — together
/// with `goals` and `max_total_servers` — the budget check (C004).
pub fn lint_configuration(
    registry: &ServerTypeRegistry,
    replicas: &[usize],
    load: Option<&SystemLoad>,
    goals: Option<&GoalTargets>,
    max_total_servers: Option<usize>,
) -> Diagnostics {
    let mut out = Diagnostics::new();
    let k = registry.len();
    if replicas.len() != k {
        out.push(Diagnostic::error(
            codes::C_LENGTH_MISMATCH,
            Location::Configuration,
            format!(
                "replica vector has {} entries but the registry defines {k} server types",
                replicas.len()
            ),
        ));
    } else {
        let load = load.filter(|l| l.request_rates.len() == k);
        for (id, st) in registry.iter() {
            let y_x = replicas[id.0];
            let here = || Location::ServerType {
                server_type: st.name.clone(),
            };
            if y_x > MAX_REPLICAS {
                out.push(Diagnostic::error(
                    codes::C_TOO_MANY_REPLICAS,
                    here(),
                    format!(
                        "{y_x} replicas, more than the {MAX_REPLICAS} a server type may have: \
                         every assessment refuses this configuration"
                    ),
                ));
            }
            let Some(load) = load else { continue };
            let l_x = load.request_rates[id.0];
            if y_x == 0 && l_x > 0.0 {
                out.push(Diagnostic::error(
                    codes::C_ZERO_REPLICA_LOAD,
                    here(),
                    format!("receives {l_x:.3} requests/min but has no replica: the WFMS is down"),
                ));
            } else if y_x > 0 && l_x == 0.0 {
                out.push(Diagnostic::hint(
                    codes::C_ZERO_LOAD_TYPE,
                    here(),
                    format!("{y_x} replica(s) provisioned but the workload sends it no requests"),
                ));
            }
        }
    }
    if let Some(goals) = goals {
        out.extend(lint_goals(goals));
        if let (Some(load), Some(budget)) = (load, max_total_servers) {
            out.extend(lint_budget(registry, load, goals, budget));
        }
    }
    out
}

/// Lints goal thresholds against their Sec. 7.1 domains (`C003`): the
/// waiting-time target must be positive and finite, the availability
/// target must lie strictly between zero and one, and at least one of the
/// two must be set.
pub fn lint_goals(goals: &GoalTargets) -> Diagnostics {
    let mut out = Diagnostics::new();
    if goals.max_waiting_time.is_none() && goals.min_availability.is_none() {
        out.push(Diagnostic::error(
            codes::C_INVALID_GOAL,
            Location::Goals,
            "no goal is set: the configuration search has nothing to optimize for".to_string(),
        ));
        return out;
    }
    if let Some(w) = goals.max_waiting_time {
        if !(w.is_finite() && w > 0.0) {
            out.push(Diagnostic::error(
                codes::C_INVALID_GOAL,
                Location::Goals,
                format!("max waiting time {w} must be positive and finite"),
            ));
        }
    }
    if let Some(a) = goals.min_availability {
        if !(a.is_finite() && a > 0.0 && a < 1.0) {
            out.push(Diagnostic::error(
                codes::C_INVALID_GOAL,
                Location::Goals,
                format!("min availability {a} must lie strictly between 0 and 1"),
            ));
        }
    }
    out
}

/// Checks the Sec. 7.2 budget against the stability floor (`C004`): a
/// waiting-time goal needs every server type stable, which takes at least
/// `floor(l_x · b_x) + 1` replicas of type `x`; when that sum already
/// exceeds the budget, no candidate within the budget can succeed.
pub fn lint_budget(
    registry: &ServerTypeRegistry,
    load: &SystemLoad,
    goals: &GoalTargets,
    max_total_servers: usize,
) -> Diagnostics {
    let mut out = Diagnostics::new();
    if goals.max_waiting_time.is_none() || load.request_rates.len() != registry.len() {
        return out;
    }
    let stable_cost: usize = registry
        .iter()
        .map(|(id, st)| (load.request_rates[id.0] * st.service_time_mean).floor() as usize + 1)
        .sum();
    if stable_cost > max_total_servers {
        out.push(Diagnostic::error(
            codes::C_BUDGET_TOO_SMALL,
            Location::Configuration,
            format!(
                "stability alone needs {stable_cost} servers but the search budget is \
                 {max_total_servers}: the waiting-time goal is unreachable"
            ),
        ));
    }
    out
}

/// The cheap structural subset `wfms-config` runs fail-fast before
/// assessing or searching: the load vector must cover every server type
/// with finite, non-negative rates, and a candidate replica vector (when
/// one is already fixed, i.e. in `assess`) must have the right length.
///
/// Deliberately **excluded**: saturation and zero-replica coverage — a
/// saturated or degraded configuration is a valid assessment input that
/// fails its goals in-band rather than erroring out.
pub fn preflight(
    registry: &ServerTypeRegistry,
    load: &SystemLoad,
    replicas: Option<&[usize]>,
) -> Diagnostics {
    let mut out = Diagnostics::new();
    let k = registry.len();
    if load.request_rates.len() != k {
        out.push(Diagnostic::error(
            codes::C_LENGTH_MISMATCH,
            Location::Configuration,
            format!(
                "load vector has {} request rates but the registry defines {k} server types",
                load.request_rates.len()
            ),
        ));
    } else {
        for (id, st) in registry.iter() {
            let l_x = load.request_rates[id.0];
            if !(l_x.is_finite() && l_x >= 0.0) {
                out.push(Diagnostic::error(
                    codes::Q_INVALID_RATE,
                    Location::ServerType {
                        server_type: st.name.clone(),
                    },
                    format!("request rate {l_x} must be finite and non-negative"),
                ));
            }
        }
    }
    if let Some(replicas) = replicas {
        if replicas.len() != k {
            out.push(Diagnostic::error(
                codes::C_LENGTH_MISMATCH,
                Location::Configuration,
                format!(
                    "replica vector has {} entries but the registry defines {k} server types",
                    replicas.len()
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfms_statechart::{
        paper_section52_registry, ActivityKind, ActivitySpec, ChartBuilder, EcaRule,
    };

    fn simple_spec(name: &str) -> WorkflowSpec {
        let chart = ChartBuilder::new(name)
            .initial("i")
            .activity_state("a", "A")
            .final_state("f")
            .transition("i", "a", 1.0, EcaRule::default())
            .transition("a", "f", 1.0, EcaRule::default())
            .build()
            .unwrap();
        WorkflowSpec::new(
            name,
            chart,
            [ActivitySpec::new(
                "A",
                ActivityKind::Automated,
                10.0,
                vec![2.0, 3.0, 3.0],
            )],
        )
    }

    fn broken_spec() -> WorkflowSpec {
        // Several defect families at once: a probability-sum violation
        // (W007) on state "a", an unknown activity (W015), and an
        // orphaned table entry (W019).
        let chart = ChartBuilder::new("broken")
            .initial("i")
            .activity_state("a", "ghost")
            .activity_state("b", "A")
            .final_state("f")
            .transition("i", "a", 1.0, EcaRule::default())
            .transition("a", "b", 0.25, EcaRule::default())
            .transition("a", "f", 0.25, EcaRule::default())
            .transition("b", "f", 1.0, EcaRule::default())
            .build()
            .unwrap();
        WorkflowSpec::new(
            "broken",
            chart,
            [ActivitySpec::new(
                "A",
                ActivityKind::Automated,
                10.0,
                vec![2.0, 3.0, 3.0],
            )],
        )
    }

    fn system<'a>(
        registry: &'a ServerTypeRegistry,
        workload: &'a [(WorkflowSpec, f64)],
    ) -> SystemUnderAnalysis<'a> {
        SystemUnderAnalysis {
            registry,
            workload,
            replicas: None,
            goals: None,
            max_total_servers: None,
        }
    }

    #[test]
    fn clean_system_has_no_errors() {
        let reg = paper_section52_registry();
        let workload = vec![(simple_spec("W"), 0.5)];
        let mut sys = system(&reg, &workload);
        let replicas = vec![2, 2, 2];
        sys.replicas = Some(&replicas);
        let goals = GoalTargets {
            max_waiting_time: Some(0.05),
            min_availability: Some(0.999),
        };
        sys.goals = Some(&goals);
        sys.max_total_servers = Some(64);
        let d = analyze(&sys);
        assert_eq!(d.error_count(), 0, "{d}");
    }

    #[test]
    fn broken_spec_reports_at_least_three_distinct_codes() {
        let reg = paper_section52_registry();
        let workload = vec![(broken_spec(), f64::NAN)];
        let d = analyze(&system(&reg, &workload));
        let distinct = d.distinct_codes();
        assert!(distinct.len() >= 3, "only {distinct:?}");
        assert!(d.has_errors());
    }

    #[test]
    fn saturation_is_reported_by_analyze_but_not_preflight() {
        let reg = paper_section52_registry();
        // Service means are 1/600 min, so 300 instances/min with 2–3
        // requests each saturates a single replica.
        let workload = vec![(simple_spec("W"), 300.0)];
        let mut sys = system(&reg, &workload);
        let replicas = vec![1, 1, 1];
        sys.replicas = Some(&replicas);
        let d = analyze(&sys);
        assert!(
            d.distinct_codes()
                .contains(&codes::Q_OVERLOADED.to_string()),
            "{d}"
        );

        let items: Vec<WorkloadItem> = workload
            .iter()
            .map(|(s, r)| WorkloadItem {
                analysis: analyze_workflow(s, &reg, &AnalysisOptions::default()).unwrap(),
                arrival_rate: *r,
            })
            .collect();
        let load = aggregate_load(&items, &reg).unwrap();
        assert!(preflight(&reg, &load, Some(&replicas)).is_empty());
    }

    #[test]
    fn configuration_pass_reports_shape_and_coverage() {
        let reg = paper_section52_registry();
        let d = lint_configuration(&reg, &[1, 1], None, None, None);
        assert_eq!(
            d.distinct_codes(),
            vec![codes::C_LENGTH_MISMATCH.to_string()]
        );

        let load = SystemLoad {
            request_rates: vec![1.0, 0.0, 1.0],
            total_arrival_rate: 1.0,
            active_instances: vec![],
        };
        let d = lint_configuration(&reg, &[0, 2, 1], Some(&load), None, None);
        let found = d.distinct_codes();
        assert!(
            found.contains(&codes::C_ZERO_REPLICA_LOAD.to_string()),
            "{found:?}"
        );
        assert!(
            found.contains(&codes::C_ZERO_LOAD_TYPE.to_string()),
            "{found:?}"
        );
        assert_eq!(d.error_count(), 1);

        let d = lint_configuration(&reg, &[MAX_REPLICAS + 1, MAX_REPLICAS, 1], None, None, None);
        assert_eq!(
            d.distinct_codes(),
            vec![codes::C_TOO_MANY_REPLICAS.to_string()]
        );
        assert_eq!(d.error_count(), 1);
    }

    #[test]
    fn goal_domains_are_checked() {
        assert!(lint_goals(&GoalTargets::default()).has_errors());
        let bad = GoalTargets {
            max_waiting_time: Some(-1.0),
            min_availability: Some(1.5),
        };
        let d = lint_goals(&bad);
        assert_eq!(d.error_count(), 2);
        assert_eq!(d.distinct_codes(), vec![codes::C_INVALID_GOAL.to_string()]);
        let ok = GoalTargets {
            max_waiting_time: Some(0.05),
            min_availability: None,
        };
        assert!(lint_goals(&ok).is_empty());
    }

    #[test]
    fn impossible_budget_is_reported() {
        let reg = paper_section52_registry();
        let load = SystemLoad {
            request_rates: vec![1200.0, 1200.0, 1200.0],
            total_arrival_rate: 1.0,
            active_instances: vec![],
        };
        let goals = GoalTargets {
            max_waiting_time: Some(0.05),
            min_availability: None,
        };
        // b = 1/600 min, so stability needs floor(1200/600)+1 = 3 per type.
        let d = lint_budget(&reg, &load, &goals, 4);
        assert_eq!(
            d.distinct_codes(),
            vec![codes::C_BUDGET_TOO_SMALL.to_string()]
        );
        assert!(lint_budget(&reg, &load, &goals, 9).is_empty());
        // No waiting goal: stability is not required.
        let avail_only = GoalTargets {
            max_waiting_time: None,
            min_availability: Some(0.99),
        };
        assert!(lint_budget(&reg, &load, &avail_only, 1).is_empty());
    }

    #[test]
    fn preflight_rejects_shape_mismatch_and_bad_rates() {
        let reg = paper_section52_registry();
        let short = SystemLoad {
            request_rates: vec![1.0],
            total_arrival_rate: 1.0,
            active_instances: vec![],
        };
        let d = preflight(&reg, &short, None);
        assert_eq!(
            d.distinct_codes(),
            vec![codes::C_LENGTH_MISMATCH.to_string()]
        );

        let bad = SystemLoad {
            request_rates: vec![1.0, f64::NAN, -2.0],
            total_arrival_rate: 1.0,
            active_instances: vec![],
        };
        let d = preflight(&reg, &bad, Some(&[1, 1]));
        let found = d.distinct_codes();
        assert!(
            found.contains(&codes::Q_INVALID_RATE.to_string()),
            "{found:?}"
        );
        assert!(
            found.contains(&codes::C_LENGTH_MISMATCH.to_string()),
            "{found:?}"
        );
        assert_eq!(d.error_count(), 3);
    }

    #[test]
    fn availability_chain_of_healthy_registry_lints_clean() {
        let reg = paper_section52_registry();
        let d = lint_availability_chain(&reg, &[1, 1, 1]);
        assert_eq!(d.error_count(), 0, "{d}");
    }

    #[test]
    fn workflow_absorbing_hint_is_suppressed() {
        let reg = paper_section52_registry();
        let workload = vec![(simple_spec("W"), 0.5)];
        let d = analyze(&system(&reg, &workload));
        assert_eq!(d.with_code(codes::M_ABSORBING_STATES).count(), 0, "{d}");
    }

    #[test]
    fn diagnostics_serialize_round_trip() {
        let reg = paper_section52_registry();
        let workload = vec![(broken_spec(), 0.5)];
        let d = analyze(&system(&reg, &workload));
        assert!(!d.is_empty());
        let json = serde_json::to_string(&d).unwrap();
        let back: Diagnostics = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }
}
