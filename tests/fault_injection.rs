//! Fault-injection acceptance tests for the graceful-degradation layer:
//! failed evaluations must be charged pessimistically, irrecoverable
//! candidates must be quarantined rather than aborting a search, and a
//! disabled registry must leave every result bit-identical.
//!
//! The failpoint registry is process-global, so every test serializes on
//! [`FAULTS`] and clears the registry on entry and exit.

use std::sync::Mutex;
use std::time::Duration;

use wfms::avail::AvailError;
use wfms::config::journal;
use wfms::fault;
use wfms::markov::linalg::{LuError, Matrix};
use wfms::markov::{ChainError, Ctmc};
use wfms::perf::{analyze_workflow, AnalysisOptions, PerfError};
use wfms::statechart::paper_section52_registry;
use wfms::workloads::{enterprise_mix, enterprise_registry, ep_workflow, EP_DEFAULT_ARRIVAL_RATE};
use wfms::{ConfigError, Configuration, ConfigurationTool, Goals, SearchOptions};

static FAULTS: Mutex<()> = Mutex::new(());

/// Serializes a test against the global failpoint registry and leaves the
/// registry clean for whoever runs next, even on panic.
struct FaultGuard<'a> {
    _lock: std::sync::MutexGuard<'a, ()>,
}

impl Drop for FaultGuard<'_> {
    fn drop(&mut self) {
        fault::clear();
    }
}

fn faults() -> FaultGuard<'static> {
    let lock = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    fault::set_seed(42);
    FaultGuard { _lock: lock }
}

fn ep_tool() -> ConfigurationTool {
    let mut tool = ConfigurationTool::new(paper_section52_registry());
    tool.add_workflow(ep_workflow(), EP_DEFAULT_ARRIVAL_RATE)
        .unwrap();
    tool
}

fn enterprise_tool() -> ConfigurationTool {
    let mut tool = ConfigurationTool::new(enterprise_registry());
    for (spec, rate) in enterprise_mix() {
        tool.add_workflow(spec, rate).unwrap();
    }
    tool
}

/// The headline acceptance criterion: with a quarter of the per-type
/// evaluations failing, a greedy search over the enterprise workload
/// still completes — every failed evaluation is charged at its
/// pessimistic cap — and returns the same winner as the clean run, with
/// the degradation reported.
#[test]
fn forced_evaluation_failures_still_recommend_the_same_enterprise_winner() {
    let _g = faults();
    let tool = enterprise_tool();
    let goals = Goals::new(0.05, 0.9999).unwrap();
    let opts = SearchOptions::default();

    let clean = tool.engine(&goals, opts).unwrap().greedy().unwrap();
    assert!(clean.assessment.degradation.is_none(), "clean run degraded");

    fault::set_seed(7);
    fault::configure(
        "performability.evaluate-state",
        fault::FaultMode::Error,
        0.25,
    );
    let degraded = tool.engine(&goals, opts).unwrap().greedy().unwrap();

    assert!(
        fault::fired("performability.evaluate-state") > 0,
        "failpoint never fired"
    );
    assert_eq!(
        degraded.assessment.replicas, clean.assessment.replicas,
        "pessimistic charging must find the same winner"
    );
    assert!(degraded.quarantined.is_empty());
    let report = degraded
        .assessment
        .degradation
        .expect("failed evaluations must be reported");
    assert!(report.failed_states >= 1);
    assert!(report.charged_mass > 0.0 && report.charged_mass < 1.0);
}

/// Kernel failures are charged at their pessimistic caps, one per
/// `(type, up-count)`: the assessment completes, reports every failed
/// evaluation, and the charged mass covers the whole distribution when
/// every evaluation fails.
#[test]
fn failed_state_evaluations_are_charged_with_pessimistic_caps() {
    let _g = faults();
    let tool = ep_tool();
    let goals = Goals::new(0.05, 0.9999).unwrap();
    let config = Configuration::new(tool.registry(), vec![2, 2, 2]).unwrap();

    let clean = tool
        .engine(&goals, SearchOptions::default())
        .unwrap()
        .assess(&config)
        .unwrap();

    fault::configure(
        "performability.evaluate-state",
        fault::FaultMode::Error,
        1.0,
    );
    let degraded = tool
        .engine(&goals, SearchOptions::default())
        .unwrap()
        .assess(&config)
        .unwrap();

    let report = degraded
        .degradation
        .clone()
        .expect("failed states must be reported");
    // Failures are charged per `(type, up-count)`: three types at up-counts 0..=2.
    assert_eq!(report.failed_states, 9, "every evaluation of [2,2,2] fails");
    assert!((report.charged_mass - 1.0).abs() < 1e-9);
    assert!(!report.details.is_empty());
    assert!(report.details.iter().all(|r| !r.error.is_empty()));
    // Availability comes from the (unaffected) chain solve.
    assert_eq!(degraded.availability, clean.availability);
    // The substituted caps are pessimistic: waits can only grow.
    let (d, c) = (
        degraded.expected_waiting.as_ref().unwrap(),
        clean.expected_waiting.as_ref().unwrap(),
    );
    for (x, (dw, cw)) in d.iter().zip(c).enumerate() {
        assert!(dw >= cw, "type {x}: degraded wait {dw} below clean {cw}");
    }
}

/// The engine's per-type charging equals the joint oracle: the fold over
/// the dense-LU `π` with a kernel that charges each failed
/// `(type, up-count)` at the type's cap in every state holding it. The
/// failed set is read back from the degradation report, whose detail
/// names each failed type and up-count.
#[test]
fn per_type_charging_matches_the_joint_oracle() {
    use std::sync::Arc;
    use wfms::avail::AvailabilityModel;
    use wfms::markov::ctmc::SteadyStateMethod;
    use wfms::perf::{waiting_times, WaitingOutcome};
    use wfms::performability::{
        charged_type_outcome, fold_states, type_waiting_cap, StateEvaluation,
    };
    use wfms::statechart::ServerTypeId;
    use wfms::DegradedPolicy;

    let _g = faults();
    let tool = ep_tool();
    let registry = tool.registry();
    let load = tool.system_load().unwrap();
    let goals = Goals::new(0.05, 0.9999).unwrap();
    let config = Configuration::new(registry, vec![2, 3, 2]).unwrap();
    let y = config.as_slice();
    let evaluations: usize = y.iter().map(|&y_x| y_x + 1).sum();
    for rate in [0.5, 1.0] {
        fault::configure(
            "performability.evaluate-state",
            fault::FaultMode::Error,
            rate,
        );
        let degraded = tool
            .engine(&goals, SearchOptions::default())
            .unwrap()
            .assess(&config)
            .unwrap();
        fault::clear();
        fault::set_seed(42);
        let report = degraded
            .degradation
            .expect("failed evaluations are reported");
        assert!(report.failed_states > 0 && report.failed_states <= evaluations);
        assert_eq!(report.details.len(), report.failed_states);
        let mut failed = vec![vec![false; 4]; y.len()];
        for detail in &report.details {
            let x = (0..y.len())
                .find(|&x| {
                    let name = &registry.get(ServerTypeId(x)).unwrap().name;
                    let prefix = format!("{name} at {} up: ", detail.state[x]);
                    detail.error.starts_with(&prefix)
                })
                .expect("the detail names its type");
            failed[x][detail.state[x]] = true;
        }

        let caps: Vec<Option<f64>> = (0..y.len())
            .map(|x| type_waiting_cap(&load, registry, ServerTypeId(x), y[x]).unwrap())
            .collect();
        let model = AvailabilityModel::new(registry, &config).unwrap();
        let pi = model.steady_state(SteadyStateMethod::Lu).unwrap();
        let oracle = fold_states(
            model.distribution(&pi).unwrap(),
            y.len(),
            y,
            DegradedPolicy::Conditional,
            |state| {
                let mut outcomes = waiting_times(&load, registry, state)?;
                for (x, &u) in state.iter().enumerate() {
                    if failed[x][u] {
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
        )
        .unwrap();
        let waits = degraded.expected_waiting.unwrap();
        for (x, (w, w_lu)) in waits.iter().zip(&oracle.expected_waiting).enumerate() {
            assert!(
                (w - w_lu).abs() <= 1e-12 * w_lu.abs(),
                "rate {rate}, type {x}: wait {w:e} vs oracle {w_lu:e}"
            );
        }
        assert!((degraded.probability_saturated - oracle.probability_saturated).abs() <= 1e-12);
        // The charged mass is the joint mass of every state holding a
        // failed up-count.
        let touched: f64 = model
            .distribution(&pi)
            .unwrap()
            .filter(|(state, _)| state.iter().enumerate().any(|(x, &u)| failed[x][u]))
            .map(|(_, p)| p)
            .sum();
        assert!(
            (report.charged_mass - touched).abs() <= 1e-12,
            "rate {rate}: charged {:e} vs touched {touched:e}",
            report.charged_mass
        );
        if rate == 1.0 {
            assert_eq!(report.failed_states, evaluations);
        } else {
            assert!(
                report.failed_states < evaluations,
                "a partial rate spares some"
            );
        }
    }
}

/// Candidates whose assessment fails irrecoverably are quarantined and the
/// search keeps going: with the solution-cache fill failing at 100 %, only
/// the pre-warmed winner survives — every earlier candidate lands in the
/// quarantine list instead of aborting the exhaustive search.
#[test]
fn irrecoverable_candidates_are_quarantined_not_fatal() {
    let _g = faults();
    let tool = ep_tool();
    let goals = Goals::new(0.05, 0.9999).unwrap();

    let clean = tool
        .engine(&goals, SearchOptions::default())
        .unwrap()
        .exhaustive()
        .unwrap();

    // Pre-warm one engine with the winner, then poison every further
    // solution-cache fill: the winner replays from the cache, everything
    // else is quarantined.
    let engine = tool.engine(&goals, SearchOptions::default()).unwrap();
    let winner = Configuration::new(tool.registry(), clean.assessment.replicas.clone()).unwrap();
    engine.assess(&winner).unwrap();
    fault::configure("engine.solution-cache-fill", fault::FaultMode::Error, 1.0);

    let survived = engine.exhaustive().unwrap();
    assert_eq!(survived.assessment, clean.assessment);
    assert_eq!(survived.evaluations, 1, "only the cached winner evaluates");
    assert_eq!(survived.quarantined.len(), clean.evaluations - 1);
    assert!(survived
        .quarantined
        .iter()
        .all(|q| !q.error.is_empty() && !q.replicas.is_empty()));
}

/// `strict` restores fail-fast: the first injected failure aborts the
/// search with the underlying error instead of degrading or quarantining.
#[test]
fn strict_mode_aborts_on_the_first_injected_failure() {
    let _g = faults();
    let tool = ep_tool();
    let goals = Goals::new(0.05, 0.9999).unwrap();
    fault::configure(
        "performability.evaluate-state",
        fault::FaultMode::Error,
        1.0,
    );
    let opts = SearchOptions::builder().strict(true).build();
    let err = tool.engine(&goals, opts).unwrap().greedy().unwrap_err();
    assert!(
        matches!(err, ConfigError::Performability(_)),
        "expected the injected performability error, got {err:?}"
    );
}

/// NaN injection is repaired by the non-finite guard: the poisoned
/// candidate is rejected as `NonFiniteAssessment`, which searches treat
/// as candidate-local.
#[test]
fn nan_injection_is_caught_by_the_non_finite_guard() {
    let _g = faults();
    let tool = ep_tool();
    let goals = Goals::new(0.05, 0.9999).unwrap();
    let config = Configuration::new(tool.registry(), vec![2, 2, 2]).unwrap();
    fault::configure("avail.steady-state", fault::FaultMode::Nan, 1.0);
    let err = tool
        .engine(&goals, SearchOptions::default())
        .unwrap()
        .assess(&config)
        .unwrap_err();
    match &err {
        ConfigError::NonFiniteAssessment { replicas, .. } => {
            assert_eq!(replicas, &vec![2, 2, 2]);
        }
        other => panic!("expected NonFiniteAssessment, got {other:?}"),
    }
    assert!(err.is_candidate_local());
}

/// A NaN-poisoned per-type record stays with the candidate that filled
/// it: once the fault clears, a neighbour sharing two of its records on
/// the same engine assesses exactly as on a fresh engine.
#[test]
fn nan_poisoned_records_are_not_shared_with_later_candidates() {
    let _g = faults();
    let tool = ep_tool();
    let goals = Goals::new(0.05, 0.9999).unwrap();
    let poisoned = Configuration::new(tool.registry(), vec![2, 2, 2]).unwrap();
    let neighbour = Configuration::new(tool.registry(), vec![2, 2, 3]).unwrap();
    let expected = tool
        .engine(&goals, SearchOptions::default())
        .unwrap()
        .assess(&neighbour)
        .unwrap();
    for site in [
        "avail.steady-state",
        "engine.solution-cache-fill",
        "engine.state-cache-fill",
        "performability.evaluate-state",
    ] {
        let engine = tool.engine(&goals, SearchOptions::default()).unwrap();
        fault::configure(site, fault::FaultMode::Nan, 1.0);
        let err = engine.assess(&poisoned).unwrap_err();
        assert!(
            matches!(err, ConfigError::NonFiniteAssessment { .. }),
            "{site}: expected NonFiniteAssessment, got {err:?}"
        );
        fault::clear();
        assert_eq!(
            engine.assess(&neighbour).unwrap(),
            expected,
            "{site}: a poisoned record outlived its candidate"
        );
    }
}

/// A search's record table keeps only clean records: a record charged
/// for a failed evaluation serves the candidate that filled it and is
/// filled again at its next lookup. Under a quarter of failing
/// evaluations (seed 7), exhaustive search on enterprise charges 81
/// failed evaluations over 41 candidates, each of which filled a record
/// itself, and its winner, whose five records were filled clean by the
/// time it is reached, is not degraded. A table that kept the charged
/// records would degrade 202 candidates and the winner.
#[test]
fn a_search_never_reuses_a_charged_record() {
    let _g = faults();
    let tool = enterprise_tool();
    let goals = Goals::new(0.05, 0.9999).unwrap();
    fault::set_seed(7);
    fault::configure(
        "performability.evaluate-state",
        fault::FaultMode::Error,
        0.25,
    );
    journal::enable();
    let result = tool
        .engine(&goals, SearchOptions::default())
        .unwrap()
        .exhaustive();
    journal::disable();
    let events = journal::take().events;
    let result = result.unwrap();
    assert_eq!(result.replicas(), [2, 2, 2, 2, 2]);
    assert_eq!(result.assessment.degradation, None);

    let degraded: Vec<_> = events.iter().filter(|e| e.degradation.is_some()).collect();
    for event in &degraded {
        assert!(
            event.cache.state_misses > 0,
            "charged for a record it did not fill: {event:?}"
        );
    }
    let failed: usize = degraded
        .iter()
        .filter_map(|e| e.degradation.map(|d| d.failed_states))
        .sum();
    assert_eq!((degraded.len(), failed), (41, 81));
}

/// Delay injection only adds latency: results are bit-identical to a
/// clean run, and a disabled registry (sites configured, master switch
/// off) costs one atomic load and changes nothing.
#[test]
fn delay_and_disabled_faults_leave_results_bit_identical() {
    let _g = faults();
    let tool = ep_tool();
    let goals = Goals::new(0.05, 0.9999).unwrap();
    let config = Configuration::new(tool.registry(), vec![2, 2, 2]).unwrap();
    let baseline = tool
        .engine(&goals, SearchOptions::default())
        .unwrap()
        .assess(&config)
        .unwrap();

    fault::configure(
        "avail.steady-state",
        fault::FaultMode::Delay(Duration::from_millis(1)),
        1.0,
    );
    let delayed = tool
        .engine(&goals, SearchOptions::default())
        .unwrap()
        .assess(&config)
        .unwrap();
    assert!(fault::fired("avail.steady-state") > 0);
    assert_eq!(delayed, baseline);

    // Error faults everywhere, but the registry is disabled: nothing may
    // fire and every number must be untouched.
    for site in [
        "linalg.dense-lu",
        "avail.steady-state",
        "performability.evaluate-state",
        "performability.fold",
        "engine.state-cache-fill",
        "engine.solution-cache-fill",
    ] {
        fault::configure(site, fault::FaultMode::Error, 1.0);
    }
    fault::disable();
    let disabled = tool
        .engine(&goals, SearchOptions::default())
        .unwrap()
        .assess(&config)
        .unwrap();
    assert_eq!(disabled, baseline);
    assert_eq!(fault::fired("linalg.dense-lu"), 0);
}

/// The one visits solve per chart level passes the `linalg.dense-lu`
/// failpoint: an injected singular factorization fails the analysis as
/// an uncertain absorption from the first transient state, as the
/// first-passage solve it replaced did.
#[test]
fn injected_lu_failure_fails_the_workflow_analysis() {
    let _g = faults();
    fault::configure("linalg.dense-lu", fault::FaultMode::Error, 1.0);
    let err = analyze_workflow(
        &ep_workflow(),
        &paper_section52_registry(),
        &AnalysisOptions::default(),
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            PerfError::Chain(ChainError::AbsorptionNotCertain { state: 0 })
        ),
        "{err:?}"
    );
    assert!(fault::fired("linalg.dense-lu") >= 1);
}

/// A chain that is its target alone solves an empty system. An
/// injected singular factorization of it is the LU's own error, as
/// `expected_visits` reports it on the same chain, not a panic.
#[test]
fn injected_lu_failure_on_a_one_state_chain_is_a_typed_error() {
    let _g = faults();
    fault::configure("linalg.dense-lu", fault::FaultMode::Error, 1.0);
    let chain = Ctmc::from_jump_chain(Matrix::identity(1), vec![f64::INFINITY]).unwrap();
    let expected = ChainError::Lu(LuError::Singular { column: 0 });
    assert_eq!(chain.mean_first_passage(0), Err(expected.clone()));
    assert_eq!(chain.expected_visits(0), Err(expected));
}

/// Both availability failpoints fail a strict assessment with an error
/// that names the site.
#[test]
fn injected_availability_failures_name_their_failpoint() {
    let _g = faults();
    let tool = ep_tool();
    let goals = Goals::new(0.05, 0.9999).unwrap();
    let config = Configuration::new(tool.registry(), vec![2, 2, 2]).unwrap();
    let opts = SearchOptions::builder().strict(true).build();
    for site in ["avail.steady-state", "engine.solution-cache-fill"] {
        fault::clear();
        fault::configure(site, fault::FaultMode::Error, 1.0);
        let err = tool.engine(&goals, opts).unwrap().assess(&config);
        assert!(
            matches!(
                &err,
                Err(ConfigError::Avail(AvailError::FaultInjected { site: s })) if *s == site
            ),
            "{site}: {err:?}"
        );
        let text = err.unwrap_err().to_string();
        assert!(
            text.contains(&format!("fault injected at failpoint `{site}`")),
            "{text}"
        );
    }
}
