//! Parameter sensitivity analysis.
//!
//! The configuration tool's recommendations are only as good as the
//! calibrated parameters behind them (Sec. 7.1). This module answers the
//! administrator's follow-up question — *which parameter should I trust
//! or improve first?* — by computing log-log elasticities
//!
//! ```text
//! E = d ln metric / d ln parameter ≈ ln(m(p·(1+h)) / m(p)) / ln(1+h)
//! ```
//!
//! of the two goal metrics (worst expected waiting time under the
//! performability model, and system unavailability) with respect to every
//! server type's failure rate, repair rate, and mean service time, plus
//! the overall arrival-rate scale. An elasticity of 2 means a 1 % change
//! in the parameter moves the metric by about 2 %.
//!
//! Each parameterization is assessed by its own [`AssessmentEngine`], so
//! every elasticity is a finite difference of exactly the figures
//! `wfms assess` prints, at any size. Under the conditional policy type
//! `x`'s wait depends on type `x`'s parameters alone, so an elasticity of
//! a wait with respect to another type's parameter is exactly `0`.

use serde::{Deserialize, Serialize};

use wfms_perf::SystemLoad;
use wfms_statechart::{Configuration, ServerType, ServerTypeRegistry};

use crate::engine::{AssessmentEngine, RecordTable};
use crate::error::ConfigError;
use crate::goals::Goals;
use crate::search::SearchOptions;

/// One perturbable parameter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Parameter {
    /// Failure rate `λ_x` of server type `x`.
    FailureRate(usize),
    /// Repair rate `μ_x` of server type `x`.
    RepairRate(usize),
    /// Mean service time `b_x` of server type `x` (second moment scaled
    /// shape-preservingly).
    ServiceTimeMean(usize),
    /// A uniform scale on the whole workload's arrival rates.
    ArrivalScale,
}

impl Parameter {
    /// Human-readable label using the registry's type names.
    pub fn label(&self, registry: &ServerTypeRegistry) -> String {
        let name = |x: &usize| {
            registry
                .get(wfms_statechart::ServerTypeId(*x))
                .map(|t| t.name.clone())
                .unwrap_or_else(|_| format!("type{x}"))
        };
        match self {
            Parameter::FailureRate(x) => format!("failure rate @ {}", name(x)),
            Parameter::RepairRate(x) => format!("repair rate @ {}", name(x)),
            Parameter::ServiceTimeMean(x) => format!("service time @ {}", name(x)),
            Parameter::ArrivalScale => "arrival-rate scale".to_string(),
        }
    }
}

/// Elasticities of the goal metrics with respect to one parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivityEntry {
    /// The perturbed parameter.
    pub parameter: Parameter,
    /// Human-readable label.
    pub label: String,
    /// `d ln(worst expected waiting) / d ln(parameter)`; `None` when the
    /// base or perturbed system cannot serve the load.
    pub waiting_elasticity: Option<f64>,
    /// `d ln(unavailability) / d ln(parameter)`.
    pub unavailability_elasticity: f64,
}

/// Options for the finite-difference scheme.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensitivityOptions {
    /// Relative perturbation `h` (default 5 %).
    pub relative_step: f64,
}

impl Default for SensitivityOptions {
    fn default() -> Self {
        SensitivityOptions {
            relative_step: 0.05,
        }
    }
}

fn perturbed_registry(
    registry: &ServerTypeRegistry,
    parameter: &Parameter,
    factor: f64,
) -> Result<ServerTypeRegistry, ConfigError> {
    let mut out = ServerTypeRegistry::new();
    for (id, t) in registry.iter() {
        let mut t: ServerType = t.clone();
        match parameter {
            Parameter::FailureRate(x) if *x == id.0 => t.failure_rate *= factor,
            Parameter::RepairRate(x) if *x == id.0 => t.repair_rate *= factor,
            Parameter::ServiceTimeMean(x) if *x == id.0 => {
                t.service_time_mean *= factor;
                t.service_time_second_moment *= factor * factor;
            }
            _ => {}
        }
        out.register(t)?;
    }
    Ok(out)
}

fn scaled_load(load: &SystemLoad, factor: f64) -> SystemLoad {
    SystemLoad {
        request_rates: load.request_rates.iter().map(|r| r * factor).collect(),
        total_arrival_rate: load.total_arrival_rate * factor,
        active_instances: load
            .active_instances
            .iter()
            .map(|(n, a)| (n.clone(), a * factor))
            .collect(),
    }
}

/// Evaluates `(worst waiting, unavailability)` for one parameterization
/// with a fresh engine. The engine is strict, so a failed evaluation
/// fails the whole analysis instead of being charged at its cap: an
/// elasticity of a charged wait would measure the cap, not the model.
/// No journal event is written.
fn metrics(
    registry: &ServerTypeRegistry,
    config: &Configuration,
    load: &SystemLoad,
) -> Result<(Option<f64>, f64), ConfigError> {
    // The engine wants a goal; only the figures are read, never the
    // verdict, so any valid goal serves.
    let goals = Goals::availability_only(0.5)?;
    let options = SearchOptions {
        strict: true,
        ..SearchOptions::default()
    };
    let engine = AssessmentEngine::new(registry, load, &goals, options)?;
    let table = &mut RecordTable::new(registry.len());
    let (assessment, _) = engine.assess_in(config.clone(), table)?;
    Ok((
        assessment.max_expected_waiting,
        1.0 - assessment.availability,
    ))
}

/// Computes elasticities of the goal metrics for every parameter.
///
/// # Errors
/// Model failures as [`ConfigError`].
pub fn sensitivity(
    registry: &ServerTypeRegistry,
    config: &Configuration,
    load: &SystemLoad,
    opts: &SensitivityOptions,
) -> Result<Vec<SensitivityEntry>, ConfigError> {
    let h = opts.relative_step;
    if !(h.is_finite() && h > 0.0 && h < 1.0) {
        return Err(ConfigError::InvalidGoal {
            what: "sensitivity step",
            value: h,
        });
    }
    let factor = 1.0 + h;
    let log_factor = factor.ln();
    let (base_wait, base_unavail) = metrics(registry, config, load)?;

    let mut parameters = Vec::new();
    for x in 0..registry.len() {
        parameters.push(Parameter::FailureRate(x));
        parameters.push(Parameter::RepairRate(x));
        parameters.push(Parameter::ServiceTimeMean(x));
    }
    parameters.push(Parameter::ArrivalScale);

    let mut out = Vec::with_capacity(parameters.len());
    for parameter in parameters {
        let (wait, unavail) = match &parameter {
            Parameter::ArrivalScale => metrics(registry, config, &scaled_load(load, factor))?,
            other => {
                let reg = perturbed_registry(registry, other, factor)?;
                metrics(&reg, config, load)?
            }
        };
        let waiting_elasticity = match (base_wait, wait) {
            (Some(b), Some(p)) if b > 0.0 && p > 0.0 => Some((p / b).ln() / log_factor),
            _ => None,
        };
        let unavailability_elasticity = if base_unavail > 0.0 && unavail > 0.0 {
            (unavail / base_unavail).ln() / log_factor
        } else {
            0.0
        };
        out.push(SensitivityEntry {
            label: parameter.label(registry),
            parameter,
            waiting_elasticity,
            unavailability_elasticity,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn entry<'a>(entries: &'a [SensitivityEntry], param: &Parameter) -> &'a SensitivityEntry {
        entries
            .iter()
            .find(|e| &e.parameter == param)
            .expect("parameter present")
    }

    #[test]
    fn unreplicated_unavailability_elasticities_match_closed_form() {
        // U ≈ Σ λ_x/μ_x, dominated by the app server (index 2): its failure
        // rate has elasticity ≈ its share of U; the repair rate the negative.
        let reg = paper_section52_registry();
        let config = Configuration::minimal(&reg);
        let load = load_at(0.3, &reg);
        let entries = sensitivity(&reg, &config, &load, &SensitivityOptions::default()).unwrap();
        let app_fail = entry(&entries, &Parameter::FailureRate(2));
        // App server carries ~85% of the unavailability.
        assert!(
            app_fail.unavailability_elasticity > 0.7 && app_fail.unavailability_elasticity < 1.0,
            "{}",
            app_fail.unavailability_elasticity
        );
        let app_repair = entry(&entries, &Parameter::RepairRate(2));
        assert!(
            (app_repair.unavailability_elasticity + app_fail.unavailability_elasticity).abs()
                < 0.05,
            "repair elasticity mirrors failure elasticity"
        );
        // The reliable comm server barely matters.
        let comm_fail = entry(&entries, &Parameter::FailureRate(0));
        assert!(comm_fail.unavailability_elasticity < 0.05);
    }

    #[test]
    fn replication_doubles_the_failure_rate_elasticity() {
        // With Y_x = 2, U_x ∝ q_x², so the elasticity w.r.t. λ_x ≈ 2× the
        // type's share.
        let mut one = ServerTypeRegistry::new();
        one.register(wfms_statechart::ServerType::with_exponential_service(
            "t",
            wfms_statechart::ServerTypeKind::ApplicationServer,
            1.0 / 1_440.0,
            0.1,
            0.01,
        ))
        .unwrap();
        let load = load_at(0.1, &one);
        let e1 = sensitivity(
            &one,
            &Configuration::new(&one, vec![1]).unwrap(),
            &load,
            &SensitivityOptions::default(),
        )
        .unwrap();
        let e2 = sensitivity(
            &one,
            &Configuration::new(&one, vec![2]).unwrap(),
            &load,
            &SensitivityOptions::default(),
        )
        .unwrap();
        let f1 = entry(&e1, &Parameter::FailureRate(0)).unavailability_elasticity;
        let f2 = entry(&e2, &Parameter::FailureRate(0)).unavailability_elasticity;
        assert!((f1 - 1.0).abs() < 0.05, "Y=1: {f1}");
        assert!((f2 - 2.0).abs() < 0.1, "Y=2: {f2}");
    }

    #[test]
    fn waiting_is_most_sensitive_to_service_time() {
        let reg = paper_section52_registry();
        let config = Configuration::uniform(&reg, 2).unwrap();
        let load = load_at(1.4, &reg); // 70 % per replica
        let entries = sensitivity(&reg, &config, &load, &SensitivityOptions::default()).unwrap();
        // M/M/1 at rho: w = rho b /(1-rho); elasticity wrt b = 1 + rho/(1-rho) ≈ 3.3.
        let svc = entry(&entries, &Parameter::ServiceTimeMean(1));
        let w_e = svc.waiting_elasticity.unwrap();
        assert!(w_e > 2.0 && w_e < 5.0, "service-time elasticity {w_e}");
        // Arrival scale matters less than service time (only through rho).
        let arr = entry(&entries, &Parameter::ArrivalScale)
            .waiting_elasticity
            .unwrap();
        assert!(arr > 0.5 && arr < w_e, "arrival elasticity {arr}");
        // Failure rates barely move the conditional waiting metric.
        let fail = entry(&entries, &Parameter::FailureRate(1))
            .waiting_elasticity
            .unwrap();
        assert!(fail.abs() < 0.2, "failure-rate waiting elasticity {fail}");
        // Service time does not affect availability.
        assert!(svc.unavailability_elasticity.abs() < 1e-9);
    }

    #[test]
    fn saturated_base_reports_no_waiting_elasticity() {
        let reg = paper_section52_registry();
        let config = Configuration::minimal(&reg);
        let load = load_at(1.5, &reg);
        let entries = sensitivity(&reg, &config, &load, &SensitivityOptions::default()).unwrap();
        assert!(entries.iter().all(|e| e.waiting_elasticity.is_none()));
    }

    #[test]
    fn invalid_step_is_rejected() {
        let reg = paper_section52_registry();
        let config = Configuration::minimal(&reg);
        let load = load_at(0.1, &reg);
        for h in [0.0, -0.1, 1.0, f64::NAN] {
            assert!(sensitivity(
                &reg,
                &config,
                &load,
                &SensitivityOptions { relative_step: h }
            )
            .is_err());
        }
    }

    /// Each system with its aggregate load: ep on the paper's registry
    /// at `{1..3}³`, and the enterprise mix at `{1,2}⁵`.
    fn oracle_cases() -> Vec<(ServerTypeRegistry, SystemLoad, Vec<Vec<usize>>)> {
        use wfms_perf::{aggregate_load, analyze_workflow, AnalysisOptions, WorkloadItem};
        use wfms_workloads::{
            enterprise_mix, enterprise_registry, ep_workflow, EP_DEFAULT_ARRIVAL_RATE,
        };
        let loaded = |reg: ServerTypeRegistry, mix: Vec<(wfms_statechart::WorkflowSpec, f64)>| {
            let items: Vec<WorkloadItem> = mix
                .iter()
                .map(|(spec, rate)| WorkloadItem {
                    analysis: analyze_workflow(spec, &reg, &AnalysisOptions::default()).unwrap(),
                    arrival_rate: *rate,
                })
                .collect();
            let load = aggregate_load(&items, &reg).unwrap();
            (reg, load)
        };
        let grid = |k: usize, top: usize| {
            let mut out = vec![Vec::new()];
            for _ in 0..k {
                out = out
                    .into_iter()
                    .flat_map(|y: Vec<usize>| (1..=top).map(move |v| [y.as_slice(), &[v]].concat()))
                    .collect();
            }
            out
        };
        let (ep, ep_load) = loaded(
            paper_section52_registry(),
            vec![(ep_workflow(), EP_DEFAULT_ARRIVAL_RATE)],
        );
        let (ent, ent_load) = loaded(enterprise_registry(), enterprise_mix());
        vec![(ep, ep_load, grid(3, 3)), (ent, ent_load, grid(5, 2))]
    }

    /// The engine's figures against the joint oracle on every
    /// parameterization `sensitivity` assesses: the joint fold over a
    /// dense LU solve, and the closed-form unavailability.
    #[test]
    fn metrics_match_the_joint_lu_oracle_on_every_parameterization() {
        use wfms_avail::{closed_form_unavailability, AvailabilityModel};
        use wfms_markov::ctmc::SteadyStateMethod;
        use wfms_performability::{evaluate_with_model, DegradedPolicy, PerformabilityError};

        let factor = 1.0 + SensitivityOptions::default().relative_step;
        let mut checked = 0;
        for (reg, load, configs) in oracle_cases() {
            let mut parameterizations = vec![(reg.clone(), load.clone())];
            for x in 0..reg.len() {
                for p in [
                    Parameter::FailureRate(x),
                    Parameter::RepairRate(x),
                    Parameter::ServiceTimeMean(x),
                ] {
                    parameterizations
                        .push((perturbed_registry(&reg, &p, factor).unwrap(), load.clone()));
                }
            }
            parameterizations.push((reg.clone(), scaled_load(&load, factor)));
            for y in &configs {
                for (r, l) in &parameterizations {
                    let config = Configuration::new(r, y.clone()).unwrap();
                    let (wait, unavailability) = metrics(r, &config, l).unwrap();
                    let closed = closed_form_unavailability(r, &config).unwrap();
                    assert!(
                        (unavailability - closed).abs() <= 1e-15,
                        "{y:?}: unavailability {unavailability:e} vs closed form {closed:e}"
                    );
                    let model = AvailabilityModel::new(r, &config).unwrap();
                    let pi = model.steady_state(SteadyStateMethod::Lu).unwrap();
                    match evaluate_with_model(&model, &pi, r, l, DegradedPolicy::Conditional) {
                        Ok(report) => {
                            let oracle = report.max_expected_waiting();
                            let w = wait.expect("the oracle serves, so must the engine");
                            assert!(
                                (w - oracle).abs() <= 1e-12 * oracle.abs(),
                                "{y:?}: wait {w:e} vs joint LU {oracle:e}"
                            );
                        }
                        Err(PerformabilityError::NoServingStates) => assert!(wait.is_none()),
                        Err(e) => panic!("{y:?}: oracle failed: {e}"),
                    }
                    checked += 1;
                }
            }
        }
        // The base and one parameterization per parameter: 3k + 2.
        assert_eq!(checked, 27 * 11 + 32 * 17);
    }

    #[test]
    fn labels_use_registry_names() {
        let reg = paper_section52_registry();
        assert_eq!(
            Parameter::FailureRate(2).label(&reg),
            "failure rate @ application-server"
        );
        assert_eq!(Parameter::ArrivalScale.label(&reg), "arrival-rate scale");
    }
}
