//! Integration tests for the assessment engine's determinism contract:
//! on both example workloads, a warm engine's search results, and those
//! of one engine shared by several threads, must be bit-identical to a
//! fresh serial engine's.

use wfms::config::AnnealingOptions;
use wfms::statechart::paper_section52_registry;
use wfms::workloads::{enterprise_mix, enterprise_registry, ep_workflow, EP_DEFAULT_ARRIVAL_RATE};
use wfms::{AssessmentEngine, ConfigurationTool, Goals, SearchOptions, SearchResult};

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

fn options() -> SearchOptions {
    SearchOptions::builder().max_total_servers(64).build()
}

/// The searches each scenario runs: all four on `ep`, and all but the
/// exhaustive baseline on the five-type `enterprise`.
fn methods(name: &str) -> &'static [&'static str] {
    if name == "ep" {
        &["greedy", "branch-and-bound", "exhaustive", "annealing"]
    } else {
        &["greedy", "branch-and-bound", "annealing"]
    }
}

fn search(engine: &AssessmentEngine, method: &str) -> SearchResult {
    match method {
        "greedy" => engine.greedy(),
        "branch-and-bound" => engine.branch_and_bound(),
        "exhaustive" => engine.exhaustive(),
        _ => engine.annealing(&AnnealingOptions::default()),
    }
    .unwrap()
}

#[test]
fn a_shared_engine_answers_concurrent_searches_like_fresh_ones() {
    const THREADS: usize = 4;
    for (name, tool, goals) in scenarios() {
        let list = methods(name);
        let fresh: Vec<SearchResult> = list
            .iter()
            .map(|method| search(&tool.engine(&goals, options()).unwrap(), method))
            .collect();
        let shared = tool.engine(&goals, options()).unwrap();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let shared = &shared;
                    // Each thread starts at a different search, so the
                    // threads fill and read the caches in different orders.
                    scope.spawn(move || {
                        (0..list.len())
                            .map(|i| (t + i) % list.len())
                            .map(|m| (m, search(shared, list[m])))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for worker in workers {
                for (m, result) in worker.join().unwrap() {
                    assert_eq!(
                        result, fresh[m],
                        "{name}/{}: a search on the shared engine diverges from a fresh one",
                        list[m]
                    );
                }
            }
        });
    }
}

#[test]
fn shared_engine_searches_match_fresh_engines() {
    for (name, tool, goals) in scenarios() {
        // One engine for every search, so each later search replays the
        // records the earlier ones filled.
        let fresh = || tool.engine(&goals, options()).unwrap();
        let shared = fresh();
        for method in methods(name) {
            assert_eq!(
                search(&shared, method),
                search(&fresh(), method),
                "{name}/{method}: the shared engine diverges from a fresh one"
            );
        }
    }
}

#[test]
fn warm_engine_replays_searches_from_its_caches() {
    let (_, tool, goals) = scenarios().remove(0);
    let engine = tool.engine(&goals, options()).unwrap();
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
