//! Cross-crate property tests: invariants that must hold for *randomly
//! generated* workflow specifications and architectures, tying the
//! mapping, performance, availability, and performability layers
//! together.

use proptest::prelude::*;

use wfms::avail::closed_form_unavailability;
use wfms::config::{AssessmentEngine, Goals, SearchOptions};
use wfms::markov::TruncationOptions;
use wfms::perf::{
    aggregate_load, analyze_workflow, waiting_times, AnalysisOptions, RequestMethod, WorkloadItem,
};
use wfms::statechart::{
    validate_spec, ActivityKind, ActivitySpec, ChartBuilder, Configuration, EcaRule, ServerType,
    ServerTypeKind, ServerTypeRegistry, WorkflowSpec,
};

/// Standard 3-type registry with tunable service time.
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

/// Strategy: a random linear-with-branches workflow of 2..5 activities,
/// where each non-final activity either proceeds to the next or exits.
fn random_workflow() -> impl Strategy<Value = WorkflowSpec> {
    let n_activities = 2usize..5;
    n_activities
        .prop_flat_map(|n| {
            let continues = proptest::collection::vec(0.05f64..0.95, n - 1);
            let durations = proptest::collection::vec(0.5f64..30.0, n);
            let loads = proptest::collection::vec(0.5f64..4.0, n * 3);
            (Just(n), continues, durations, loads)
        })
        .prop_map(|(n, continues, durations, loads)| {
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
                    let p = continues[i];
                    b = b
                        .transition(
                            format!("s{i}"),
                            format!("s{}", i + 1),
                            p,
                            EcaRule::default(),
                        )
                        .transition(format!("s{i}"), "fin", 1.0 - p, EcaRule::default());
                } else {
                    b = b.transition(format!("s{i}"), "fin", 1.0, EcaRule::default());
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_workflows_validate_and_analyze(spec in random_workflow()) {
        let reg = registry(0.01);
        validate_spec(&spec, &reg).expect("generated specs are valid");
        let a = analyze_workflow(&spec, &reg, &AnalysisOptions::default()).unwrap();
        // Turnaround is at least the first activity's duration and finite.
        prop_assert!(a.mean_turnaround.is_finite());
        prop_assert!(a.mean_turnaround >= spec.activity("A0").unwrap().mean_duration - 1e-9);
        // Requests are non-negative and at least activity A0's contribution.
        for (x, &r) in a.expected_requests.iter().enumerate() {
            prop_assert!(r >= spec.activity("A0").unwrap().load[x] - 1e-9);
        }
    }

    #[test]
    fn uniformized_load_never_exceeds_exact(spec in random_workflow()) {
        let reg = registry(0.01);
        let exact = analyze_workflow(&spec, &reg, &AnalysisOptions::default()).unwrap();
        let truncated = analyze_workflow(
            &spec,
            &reg,
            &AnalysisOptions {
                request_method: RequestMethod::Uniformized(TruncationOptions {
                    quantile: 0.99,
                    hard_cap: 200_000,
                }),
            },
        )
        .unwrap();
        for (e, t) in exact.expected_requests.iter().zip(&truncated.expected_requests) {
            prop_assert!(t <= &(e + 1e-9), "truncated {t} > exact {e}");
            prop_assert!(t >= &(e * 0.8), "99% quantile should capture most load");
        }
    }

    #[test]
    fn waiting_times_are_monotone_in_replicas_and_load(
        spec in random_workflow(),
        xi in 0.05f64..0.5,
    ) {
        let reg = registry(0.05);
        let analysis = analyze_workflow(&spec, &reg, &AnalysisOptions::default()).unwrap();
        let load1 = aggregate_load(
            &[WorkloadItem { analysis: analysis.clone(), arrival_rate: xi }],
            &reg,
        ).unwrap();
        let load2 = aggregate_load(
            &[WorkloadItem { analysis, arrival_rate: xi * 2.0 }],
            &reg,
        ).unwrap();
        let w_1rep = waiting_times(&load1, &reg, &[4, 4, 4]).unwrap();
        let w_2rep = waiting_times(&load1, &reg, &[8, 8, 8]).unwrap();
        let w_heavy = waiting_times(&load2, &reg, &[4, 4, 4]).unwrap();
        for x in 0..3 {
            let base = w_1rep[x].waiting_time().unwrap();
            prop_assert!(w_2rep[x].waiting_time().unwrap() <= base + 1e-12);
            prop_assert!(w_heavy[x].waiting_time().unwrap() >= base - 1e-12);
        }
    }

    #[test]
    fn assessment_availability_matches_closed_form(
        y in proptest::collection::vec(1usize..4, 3),
    ) {
        let reg = registry(0.001);
        let spec = {
            let chart = ChartBuilder::new("T")
                .initial("i")
                .activity_state("a", "A")
                .final_state("f")
                .transition("i", "a", 1.0, EcaRule::default())
                .transition("a", "f", 1.0, EcaRule::default())
                .build()
                .unwrap();
            WorkflowSpec::new(
                "T",
                chart,
                [ActivitySpec::new("A", ActivityKind::Automated, 1.0, vec![1.0; 3])],
            )
        };
        let analysis = analyze_workflow(&spec, &reg, &AnalysisOptions::default()).unwrap();
        let load = aggregate_load(
            &[WorkloadItem { analysis, arrival_rate: 0.1 }],
            &reg,
        ).unwrap();
        let config = Configuration::new(&reg, y).unwrap();
        let goals = Goals::availability_only(0.5).unwrap();
        let a = AssessmentEngine::new(&reg, &load, &goals, SearchOptions::default())
            .unwrap()
            .assess(&config)
            .unwrap();
        let closed = 1.0 - closed_form_unavailability(&reg, &config).unwrap();
        prop_assert!((a.availability - closed).abs() < 1e-9,
            "assessment {} vs closed form {closed}", a.availability);
        // Cost bookkeeping.
        prop_assert_eq!(a.cost, config.total_servers());
    }
}
