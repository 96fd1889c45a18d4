//! Property tests for the static diagnostics engine: a system that lints
//! clean must be solvable by the full assessment pipeline without panics
//! or errors, and a perturbed (invalid) spec must be caught by the lint
//! rather than surfacing as a deep model failure.

use proptest::prelude::*;

use wfms::analysis::{analyze, GoalTargets, SystemUnderAnalysis};
use wfms::config::{AssessmentEngine, Goals, SearchOptions};
use wfms::perf::{aggregate_load, analyze_workflow, AnalysisOptions, WorkloadItem};
use wfms::statechart::{
    ActivityKind, ActivitySpec, ChartBuilder, Configuration, EcaRule, ServerType, ServerTypeKind,
    ServerTypeRegistry, WorkflowSpec,
};

fn registry(service_mean: f64) -> ServerTypeRegistry {
    let mut reg = ServerTypeRegistry::new();
    for (name, kind, mttf) in [
        ("comm", ServerTypeKind::Communication, 43_200.0),
        ("engine", ServerTypeKind::WorkflowEngine, 10_080.0),
        ("app", ServerTypeKind::ApplicationServer, 1_440.0),
    ] {
        reg.register(ServerType::with_exponential_service(
            name,
            kind,
            1.0 / mttf,
            0.1,
            service_mean,
        ))
        .unwrap();
    }
    reg
}

/// A random linear-with-branches workflow of 2..5 activities; `scale`
/// multiplies every branch probability, so `scale == 1.0` yields a valid
/// spec and any other value breaks the probability sums (W007).
fn random_workflow(scale: f64) -> impl Strategy<Value = WorkflowSpec> {
    let n_activities = 2usize..5;
    n_activities
        .prop_flat_map(|n| {
            let continues = proptest::collection::vec(0.05f64..0.95, n - 1);
            let durations = proptest::collection::vec(0.5f64..30.0, n);
            let loads = proptest::collection::vec(0.5f64..4.0, n * 3);
            (Just(n), continues, durations, loads)
        })
        .prop_map(move |(n, continues, durations, loads)| {
            let mut b = ChartBuilder::new("Rand").initial("init");
            for i in 0..n {
                b = b.activity_state(format!("s{i}"), format!("A{i}"));
            }
            b = b
                .final_state("fin")
                .transition("init", "s0", 1.0, EcaRule::default());
            #[allow(clippy::needless_range_loop)] // index mirrors state naming
            for i in 0..n {
                if i + 1 < n {
                    let p = continues[i] * scale;
                    b = b
                        .transition(
                            format!("s{i}"),
                            format!("s{}", i + 1),
                            p,
                            EcaRule::default(),
                        )
                        .transition(
                            format!("s{i}"),
                            "fin",
                            (1.0 - continues[i]) * scale,
                            EcaRule::default(),
                        );
                } else {
                    b = b.transition(format!("s{i}"), "fin", scale, EcaRule::default());
                }
            }
            let chart = b.build().expect("structurally valid");
            let activities = (0..n).map(|i| {
                ActivitySpec::new(
                    format!("A{i}"),
                    ActivityKind::Automated,
                    durations[i],
                    loads[i * 3..(i + 1) * 3].to_vec(),
                )
            });
            WorkflowSpec::new("Rand", chart, activities)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The central contract of the engine: a lint-clean system is
    /// solvable end to end — workflow analysis, load aggregation, and
    /// goal assessment all succeed without panicking.
    #[test]
    fn lint_clean_systems_assess_without_panic(
        spec in random_workflow(1.0),
        rate in 0.01f64..2.0,
        reps in proptest::collection::vec(1usize..4, 3),
    ) {
        let reg = registry(0.01);
        let workload = vec![(spec, rate)];
        let goal_targets =
            GoalTargets { max_waiting_time: Some(1.0), min_availability: Some(0.99) };
        let sys = SystemUnderAnalysis {
            registry: &reg,
            workload: &workload,
            replicas: Some(&reps),
            goals: Some(&goal_targets),
            max_total_servers: Some(64),
        };
        let findings = analyze(&sys);
        if !findings.has_errors() {
            let items: Vec<WorkloadItem> = workload
                .iter()
                .map(|(s, r)| WorkloadItem {
                    analysis: analyze_workflow(s, &reg, &AnalysisOptions::default())
                        .expect("lint-clean spec analyzes"),
                    arrival_rate: *r,
                })
                .collect();
            let load = aggregate_load(&items, &reg).expect("lint-clean load aggregates");
            let config = Configuration::new(&reg, reps.clone()).unwrap();
            let goals = Goals::new(1.0, 0.99).unwrap();
            let a = AssessmentEngine::new(&reg, &load, &goals, SearchOptions::default())
                .and_then(|engine| engine.assess(&config))
                .expect("lint-clean system assesses");
            prop_assert!(a.availability > 0.0 && a.availability <= 1.0);
        }
    }

    /// Broken probability sums never slip past the lint: the engine
    /// reports W007 instead of letting the CTMC construction fail deep
    /// inside the performance model.
    #[test]
    fn perturbed_probabilities_are_always_caught(
        spec in random_workflow(0.5),
        rate in 0.01f64..2.0,
    ) {
        let reg = registry(0.01);
        let workload = vec![(spec, rate)];
        let sys = SystemUnderAnalysis {
            registry: &reg,
            workload: &workload,
            replicas: None,
            goals: None,
            max_total_servers: None,
        };
        let findings = analyze(&sys);
        prop_assert!(findings.has_errors(), "{findings}");
        prop_assert!(
            findings.distinct_codes().iter().any(|c| c == "W007"),
            "{findings}"
        );
    }
}
