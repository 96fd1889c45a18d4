//! The engine's per-type assessment over a grid of configurations:
//! every ep `Y ∈ {1..6}³` and every enterprise `Y ∈ {1..4}⁵` (1,240 in
//! all), plus enterprise `Y = (5,5,5,5,5)` and `(6,6,6,6,6)`, whose
//! 7,776 and 16,807 states lie past the 4,096-state dense cap.
//!
//! Two oracles:
//!
//! * the joint fold (`fold_states` over `evaluate_state`) over the
//!   product-form `π` in encoding order, on every configuration;
//! * the dense generator plus LU solve (`evaluate_with_model`) wherever
//!   the chain is small enough to factor in a unit test — every ep
//!   configuration and the small enterprise ones. The product-form `π`
//!   itself is pinned against the LU solve by `wfms-avail`'s proptests.
//!
//! Bounds: relative 1e-12 on every waiting time, absolute 1e-12 on the
//! availability and `P(saturated)`, and the same no-serving verdict.

use std::sync::Arc;

use wfms::avail::{AvailabilityModel, ProductFormModel, StateSpace};
use wfms::markov::ctmc::SteadyStateMethod;
use wfms::perf::SystemLoad;
use wfms::performability::{
    evaluate_state, evaluate_with_model, fold_states, PerformabilityError, PerformabilityReport,
};
use wfms::statechart::paper_section52_registry;
use wfms::workloads::{enterprise_mix, enterprise_registry, ep_workflow, EP_DEFAULT_ARRIVAL_RATE};
use wfms::{
    Assessment, Configuration, ConfigurationTool, DegradedPolicy, Goals, SearchOptions,
    ServerTypeRegistry,
};

/// Every replica vector in `{1..=max}^k`.
fn grid(k: usize, max: usize) -> Vec<Vec<usize>> {
    let mut all = vec![Vec::new()];
    for _ in 0..k {
        all = all
            .into_iter()
            .flat_map(|prefix| {
                (1..=max).map(move |y| {
                    let mut next = prefix.clone();
                    next.push(y);
                    next
                })
            })
            .collect();
    }
    all
}

/// The joint fold over the product-form `π`, with the availability
/// summed over the operational states in encoding order.
fn joint_product_fold(
    registry: &ServerTypeRegistry,
    load: &SystemLoad,
    config: &Configuration,
) -> (f64, Result<PerformabilityReport, PerformabilityError>) {
    let model = ProductFormModel::new(registry, config).unwrap();
    let space = StateSpace::new(config);
    let pi: Vec<f64> = space
        .iter()
        .map(|(_, x)| model.state_probability(&x).unwrap())
        .collect();
    let availability = space.operational_mass(&pi).unwrap();
    let report = fold_states(
        space.iter().map(|(idx, x)| (x, pi[idx])),
        registry.len(),
        config.as_slice(),
        DegradedPolicy::Conditional,
        |state| evaluate_state(load, registry, state).map(Arc::new),
    );
    (availability, report)
}

fn agree(
    what: &str,
    a: &Assessment,
    availability: f64,
    report: Result<PerformabilityReport, PerformabilityError>,
) {
    let y = &a.replicas;
    assert!(
        (a.availability - availability).abs() <= 1e-12,
        "{what} {y:?}: availability {:e} vs {availability:e}",
        a.availability
    );
    match report {
        Ok(r) => {
            let waits = a
                .expected_waiting
                .as_ref()
                .unwrap_or_else(|| panic!("{what} {y:?}: the engine finds no serving state"));
            for (x, (w, w_oracle)) in waits.iter().zip(&r.expected_waiting).enumerate() {
                assert!(
                    (w - w_oracle).abs() <= 1e-12 * w_oracle.abs(),
                    "{what} {y:?} type {x}: wait {w:e} vs {w_oracle:e}"
                );
            }
            assert!(
                (a.probability_saturated - r.probability_saturated).abs() <= 1e-12,
                "{what} {y:?}: P(saturated) {:e} vs {:e}",
                a.probability_saturated,
                r.probability_saturated
            );
        }
        Err(PerformabilityError::NoServingStates) => assert!(
            a.expected_waiting.is_none(),
            "{what} {y:?}: the oracle finds no serving state"
        ),
        Err(e) => panic!("{what} {y:?}: oracle failed: {e}"),
    }
}

/// Assesses the whole grid, then `extra`, on one warm engine and checks
/// every configuration against both oracles, the LU one on chains of at
/// most `lu_states` states; returns how many configurations met the LU
/// oracle.
fn check_grid(
    tool: &ConfigurationTool,
    max: usize,
    extra: &[Vec<usize>],
    lu_states: usize,
) -> usize {
    let registry = tool.registry();
    let load = tool.system_load().unwrap();
    let goals = Goals::new(0.05, 0.9999).unwrap();
    let engine = tool.engine(&goals, SearchOptions::default()).unwrap();
    let mut lu_checked = 0;
    for y in grid(registry.len(), max).into_iter().chain(extra.to_vec()) {
        let config = Configuration::new(registry, y).unwrap();
        let a = engine.assess(&config).unwrap();
        assert!(a.degradation.is_none());
        let (availability, report) = joint_product_fold(registry, &load, &config);
        agree("joint fold", &a, availability, report);
        if config.system_state_count() <= lu_states {
            let model = AvailabilityModel::new(registry, &config).unwrap();
            let pi = model.steady_state(SteadyStateMethod::Lu).unwrap();
            let report =
                evaluate_with_model(&model, &pi, registry, &load, DegradedPolicy::Conditional);
            agree("LU", &a, model.availability(&pi).unwrap(), report);
            lu_checked += 1;
        }
    }
    lu_checked
}

#[test]
fn ep_grid_matches_the_joint_and_lu_oracles() {
    let mut tool = ConfigurationTool::new(paper_section52_registry());
    tool.add_workflow(ep_workflow(), EP_DEFAULT_ARRIVAL_RATE)
        .unwrap();
    assert_eq!(
        check_grid(&tool, 6, &[], 343),
        216,
        "every ep chain meets the LU oracle"
    );
}

#[test]
fn enterprise_grid_matches_the_joint_and_lu_oracles() {
    let mut tool = ConfigurationTool::new(enterprise_registry());
    for (spec, rate) in enterprise_mix() {
        tool.add_workflow(spec, rate).unwrap();
    }
    // Past the dense cap: 7,776 and 16,807 joint states.
    let past_cap = [vec![5; 5], vec![6; 5]];
    assert_eq!(check_grid(&tool, 4, &past_cap, 128), 86);
}
