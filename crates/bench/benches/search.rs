//! Configuration-search benchmarks: the greedy heuristic versus the
//! exhaustive baseline for the EP scenario. Each iteration builds a
//! fresh engine, so every sample times a cold search.

use criterion::{criterion_group, criterion_main, Criterion};

use wfms_config::{AssessmentEngine, Goals, SearchOptions};
use wfms_perf::{aggregate_load, analyze_workflow, AnalysisOptions, SystemLoad, WorkloadItem};
use wfms_statechart::{paper_section52_registry, ServerTypeRegistry};
use wfms_workloads::{ep_workflow, EP_DEFAULT_ARRIVAL_RATE};

fn setup() -> (ServerTypeRegistry, SystemLoad) {
    let reg = paper_section52_registry();
    let analysis = analyze_workflow(&ep_workflow(), &reg, &AnalysisOptions::default()).expect("EP");
    let load = aggregate_load(
        &[WorkloadItem {
            analysis,
            arrival_rate: EP_DEFAULT_ARRIVAL_RATE * 3.0,
        }],
        &reg,
    )
    .expect("aggregates");
    (reg, load)
}

fn bench_search(c: &mut Criterion) {
    let (reg, load) = setup();
    let goals = Goals::new(0.05, 0.9999).expect("valid");
    let opts = SearchOptions::default();
    let mut group = c.benchmark_group("configuration_search");
    group.sample_size(20);
    let engine = || AssessmentEngine::new(&reg, &load, &goals, opts).expect("valid inputs");
    group.bench_function("greedy_ep", |b| {
        b.iter(|| engine().greedy().expect("reachable"))
    });
    group.bench_function("branch_and_bound_ep", |b| {
        b.iter(|| engine().branch_and_bound().expect("reachable"))
    });
    group.bench_function("exhaustive_ep", |b| {
        b.iter(|| engine().exhaustive().expect("reachable"))
    });
    group.finish();
}

criterion_group!(benches, bench_search);
criterion_main!(benches);
