//! The per-type fold against its oracle: the joint `fold_states` over the
//! dense-LU stationary vector of the same chain, under both repair
//! policies, on random registries, loads and configurations — clean, and
//! with failed `(type, up-count)` evaluations charged at the type's cap.

use std::sync::Arc;

use proptest::prelude::*;
use wfms_avail::{AvailabilityModel, BirthDeathBlock, RepairPolicy};
use wfms_markov::ctmc::SteadyStateMethod;
use wfms_perf::{type_waiting_time, waiting_times, SystemLoad, WaitingOutcome};
use wfms_performability::{
    charged_type_outcome, fold_states, fold_types, type_waiting_cap, DegradedPolicy,
    PerformabilityError, PerformabilityReport, StateEvaluation,
};
use wfms_statechart::{
    Configuration, ServerType, ServerTypeId, ServerTypeKind, ServerTypeRegistry,
};

/// One server type: failure rate, repair rate, mean service time, and
/// the utilization its load puts on a single replica.
type TypeParams = (f64, f64, f64, f64);

struct Case {
    registry: ServerTypeRegistry,
    load: SystemLoad,
    config: Configuration,
    policy: RepairPolicy,
}

fn case(types: &[TypeParams], y: &[usize], policy: u8) -> Case {
    let mut registry = ServerTypeRegistry::new();
    let mut request_rates = Vec::new();
    for (i, &(lambda, mu, service, rho)) in types.iter().enumerate() {
        registry
            .register(ServerType::with_exponential_service(
                format!("t{i}"),
                ServerTypeKind::WorkflowEngine,
                lambda,
                mu,
                service,
            ))
            .unwrap();
        request_rates.push(rho / service);
    }
    let config = Configuration::new(&registry, y[..types.len()].to_vec()).unwrap();
    Case {
        registry,
        load: SystemLoad {
            request_rates,
            total_arrival_rate: 1.0,
            active_instances: vec![],
        },
        config,
        policy: if policy == 0 {
            RepairPolicy::Independent
        } else {
            RepairPolicy::SingleRepairmanPerType
        },
    }
}

type Folds = (
    Result<PerformabilityReport, PerformabilityError>,
    Result<PerformabilityReport, PerformabilityError>,
);

/// The per-type fold and its joint oracle for one case. `failed(x, u)`
/// marks the evaluations charged at type `x`'s cap on both sides.
fn both_folds(case: &Case, failed: impl Fn(usize, usize) -> bool) -> Folds {
    let (reg, load, y) = (&case.registry, &case.load, case.config.as_slice());
    let blocks: Vec<Arc<BirthDeathBlock>> = reg
        .iter()
        .map(|(id, st)| Arc::new(BirthDeathBlock::for_type(st, y[id.0], case.policy)))
        .collect();
    let caps: Vec<Option<f64>> = (0..y.len())
        .map(|x| type_waiting_cap(load, reg, ServerTypeId(x), y[x]).unwrap())
        .collect();
    let outcomes: Vec<Vec<WaitingOutcome>> = (0..y.len())
        .map(|x| {
            (0..=y[x])
                .map(|u| {
                    if failed(x, u) {
                        charged_type_outcome(u, caps[x])
                    } else {
                        type_waiting_time(load, reg, ServerTypeId(x), u).unwrap()
                    }
                })
                .collect()
        })
        .collect();
    let marginals: Vec<Vec<f64>> = blocks.iter().map(|b| b.marginal_distribution()).collect();
    let per_type = fold_types(
        marginals
            .iter()
            .zip(&outcomes)
            .map(|(m, o)| (m.as_slice(), o.as_slice())),
    );

    let model = AvailabilityModel::from_blocks(&case.config, &blocks, case.policy).unwrap();
    let pi = model.steady_state(SteadyStateMethod::Lu).unwrap();
    let joint = fold_states(
        model.distribution(&pi).unwrap(),
        reg.len(),
        y,
        DegradedPolicy::Conditional,
        |state| {
            let mut outcomes = waiting_times(load, reg, state)?;
            for (x, &u) in state.iter().enumerate() {
                if failed(x, u) {
                    outcomes[x] = charged_type_outcome(u, caps[x]);
                }
            }
            let down = outcomes.iter().any(|o| matches!(o, WaitingOutcome::Down));
            let saturated = !down
                && outcomes
                    .iter()
                    .any(|o| matches!(o, WaitingOutcome::Saturated { .. }));
            Ok(Arc::new(StateEvaluation {
                outcomes,
                down,
                saturated,
            }))
        },
    );
    (per_type, joint)
}

/// Relative 1e-12 on every `W_x`, absolute 1e-12 on the serving,
/// saturated and down masses, and the same `NoServingStates` verdict.
fn agree(folds: Folds) -> Result<(), proptest::TestCaseError> {
    match folds {
        (Ok(p), Ok(j)) => {
            for (x, (w, w_lu)) in p
                .expected_waiting
                .iter()
                .zip(&j.expected_waiting)
                .enumerate()
            {
                prop_assert!(
                    (w - w_lu).abs() <= 1e-12 * w_lu.abs(),
                    "type {x}: per-type {w:e} vs joint {w_lu:e}"
                );
            }
            for (what, a, b) in [
                ("serving", p.probability_serving, j.probability_serving),
                (
                    "saturated",
                    p.probability_saturated,
                    j.probability_saturated,
                ),
                ("down", p.probability_down, j.probability_down),
            ] {
                prop_assert!((a - b).abs() <= 1e-12, "P({what}): {a:e} vs {b:e}");
            }
        }
        (Err(PerformabilityError::NoServingStates), Err(PerformabilityError::NoServingStates)) => {}
        (p, j) => prop_assert!(false, "verdicts differ: per-type {p:?} vs joint {j:?}"),
    }
    Ok(())
}

fn types() -> impl Strategy<Value = Vec<TypeParams>> {
    proptest::collection::vec(
        (1e-5f64..1e-2, 0.01f64..1.0, 0.005f64..0.5, 0.05f64..2.5),
        1..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The per-type fold equals the joint fold over the LU solve.
    #[test]
    fn per_type_fold_matches_the_joint_lu_fold(
        types in types(),
        y in proptest::collection::vec(1usize..4, 3),
        policy in 0u8..2,
    ) {
        agree(both_folds(&case(&types, &y, policy), |_, _| false))?;
    }

    /// With failed evaluations charged at their caps — on the per-type
    /// side per `(type, up-count)`, on the joint side in every state
    /// that holds that up-count — the folds still agree.
    #[test]
    fn per_type_fold_matches_the_joint_lu_fold_with_charged_failures(
        types in types(),
        y in proptest::collection::vec(1usize..4, 3),
        policy in 0u8..2,
        mask in proptest::collection::vec(0u8..3, 12),
    ) {
        let failed = |x: usize, u: usize| mask[4 * x + u] == 0;
        agree(both_folds(&case(&types, &y, policy), failed))?;
    }
}

#[test]
fn per_type_fold_reports_exactly_zero_saturation_when_nothing_saturates() {
    let light = case(&[(1e-3, 0.1, 0.01, 0.1); 3], &[2, 3, 2], 0);
    let (per_type, joint) = both_folds(&light, |_, _| false);
    let (p, j) = (per_type.unwrap(), joint.unwrap());
    assert_eq!(p.probability_saturated, 0.0);
    assert_eq!(j.probability_saturated, 0.0);
    assert!(p.details.is_empty());
    assert_eq!(p.states_evaluated, 3 + 4 + 3);
}

#[test]
fn per_type_fold_rejects_mismatched_outcomes() {
    let marginal = [0.1, 0.9];
    let outcomes = [WaitingOutcome::Down];
    assert!(matches!(
        fold_types([(&marginal[..], &outcomes[..])]),
        Err(PerformabilityError::Perf(_))
    ));
}
