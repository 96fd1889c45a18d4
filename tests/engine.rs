//! Integration tests for the assessment engine's determinism contract:
//! on both example workloads, every search result must be bit-identical
//! to the `jobs = 1` path for any `jobs` value, and a warm engine's
//! results to a fresh engine's.

use wfms::config::AnnealingOptions;
use wfms::statechart::paper_section52_registry;
use wfms::workloads::{enterprise_mix, enterprise_registry, ep_workflow, EP_DEFAULT_ARRIVAL_RATE};
use wfms::{AssessmentEngine, ConfigurationTool, Goals, SearchOptions};

/// The two example workloads as ready-to-search tools.
fn scenarios() -> Vec<(&'static str, ConfigurationTool, Goals)> {
    let mut ep = ConfigurationTool::new(paper_section52_registry());
    ep.add_workflow(ep_workflow(), EP_DEFAULT_ARRIVAL_RATE)
        .unwrap();
    let mut enterprise = ConfigurationTool::new(enterprise_registry());
    for (spec, rate) in enterprise_mix() {
        enterprise.add_workflow(spec, rate).unwrap();
    }
    vec![
        ("ep", ep, Goals::new(0.05, 0.9999).unwrap()),
        ("enterprise", enterprise, Goals::new(0.01, 0.9999).unwrap()),
    ]
}

fn options(jobs: usize) -> SearchOptions {
    SearchOptions::builder()
        .max_total_servers(64)
        .jobs(jobs)
        .build()
}

#[test]
fn parallel_searches_are_bit_identical_to_serial() {
    for (name, tool, goals) in scenarios() {
        let serial = tool.engine(&goals, options(1)).unwrap();
        let parallel = tool.engine(&goals, options(8)).unwrap();
        for (method, a, b) in [
            (
                "greedy",
                serial.greedy().unwrap(),
                parallel.greedy().unwrap(),
            ),
            (
                "exhaustive",
                serial.exhaustive().unwrap(),
                parallel.exhaustive().unwrap(),
            ),
            (
                "branch-and-bound",
                serial.branch_and_bound().unwrap(),
                parallel.branch_and_bound().unwrap(),
            ),
        ] {
            assert_eq!(
                a.assessment, b.assessment,
                "{name}/{method}: winner diverges between jobs=1 and jobs=8"
            );
            assert_eq!(
                a.trace, b.trace,
                "{name}/{method}: trace diverges between jobs=1 and jobs=8"
            );
            assert_eq!(
                a.evaluations, b.evaluations,
                "{name}/{method}: evaluation count diverges"
            );
        }
    }
}

#[test]
fn shared_engine_searches_match_fresh_engines() {
    let annealing = AnnealingOptions::default();
    for (name, tool, goals) in scenarios() {
        // `options(1)` sets only the budget, and to the annealing
        // default, so it is also the budget-alone engine annealing uses.
        let fresh = || tool.engine(&goals, options(1)).unwrap();
        let shared = fresh();
        for method in ["greedy", "branch-and-bound", "exhaustive", "annealing"] {
            if method == "exhaustive" && name != "ep" {
                continue;
            }
            let search = |engine: &AssessmentEngine| match method {
                "greedy" => engine.greedy(),
                "branch-and-bound" => engine.branch_and_bound(),
                "exhaustive" => engine.exhaustive(),
                _ => engine.annealing(&annealing),
            };
            assert_eq!(
                search(&shared).unwrap(),
                search(&fresh()).unwrap(),
                "{name}/{method}: the shared engine diverges from a fresh one"
            );
        }
    }
}

#[test]
fn warm_engine_replays_searches_from_its_caches() {
    let (_, tool, goals) = scenarios().remove(0);
    let engine = tool.engine(&goals, options(2)).unwrap();
    let cold = engine.greedy().unwrap();
    let after_cold = engine.cache_stats();
    assert!(after_cold.misses > 0, "cold run must populate the caches");
    let warm = engine.greedy().unwrap();
    let after_warm = engine.cache_stats();
    assert_eq!(cold.assessment, warm.assessment);
    assert_eq!(cold.trace, warm.trace);
    assert_eq!(
        after_cold.misses, after_warm.misses,
        "warm greedy must not compute anything new"
    );
    assert!(after_warm.hits > after_cold.hits);
}
