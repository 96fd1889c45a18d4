//! Configuration-search benchmarks: the greedy heuristic versus the
//! exhaustive baseline for the EP scenario, each iteration on a fresh
//! engine, so every sample times a cold search; and the exhaustive
//! search on enterprise (goals 0.05 / 0.9999, 203 candidates), cold on
//! a fresh engine and warm on one engine, whose every record lookup
//! after its first search is a hit.

use criterion::{criterion_group, criterion_main, Criterion};

use wfms_config::{AssessmentEngine, Goals, SearchOptions};
use wfms_core::ConfigurationTool;
use wfms_perf::{aggregate_load, analyze_workflow, AnalysisOptions, SystemLoad, WorkloadItem};
use wfms_statechart::{paper_section52_registry, ServerTypeRegistry};
use wfms_workloads::{enterprise_mix, enterprise_registry, ep_workflow, EP_DEFAULT_ARRIVAL_RATE};

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

    let mut enterprise = ConfigurationTool::new(enterprise_registry());
    for (spec, rate) in enterprise_mix() {
        enterprise
            .add_workflow(spec, rate)
            .expect("enterprise workflow");
    }
    let enterprise_load = enterprise.system_load().expect("enterprise load");
    let enterprise_engine = || {
        AssessmentEngine::new(enterprise.registry(), &enterprise_load, &goals, opts)
            .expect("valid inputs")
    };
    group.bench_function("exhaustive_enterprise_cold", |b| {
        b.iter(|| enterprise_engine().exhaustive().expect("reachable"))
    });
    let warm = enterprise_engine();
    group.bench_function("exhaustive_enterprise_warm", |b| {
        b.iter(|| warm.exhaustive().expect("reachable"))
    });
    group.finish();
}

criterion_group!(benches, bench_search);
criterion_main!(benches);
