//! End-to-end assessment cost: what one candidate-configuration
//! evaluation (availability CTMC + performability MRM) costs the
//! configuration-search loop. Each iteration builds a fresh engine, so
//! every sample times a cold assessment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use wfms_config::{AssessmentEngine, Goals, SearchOptions};
use wfms_perf::{aggregate_load, analyze_workflow, AnalysisOptions, WorkloadItem};
use wfms_statechart::{paper_section52_registry, Configuration};
use wfms_workloads::{ep_workflow, EP_DEFAULT_ARRIVAL_RATE};

fn bench_assess(c: &mut Criterion) {
    let reg = paper_section52_registry();
    let analysis = analyze_workflow(&ep_workflow(), &reg, &AnalysisOptions::default()).expect("EP");
    let load = aggregate_load(
        &[WorkloadItem {
            analysis,
            arrival_rate: EP_DEFAULT_ARRIVAL_RATE,
        }],
        &reg,
    )
    .expect("aggregates");
    let goals = Goals::new(0.05, 0.9999).expect("valid");

    let mut group = c.benchmark_group("assess_configuration");
    for y in [1usize, 2, 3, 4] {
        let config = Configuration::uniform(&reg, y).expect("valid");
        group.bench_with_input(BenchmarkId::from_parameter(y), &config, |b, config| {
            b.iter(|| {
                AssessmentEngine::new(&reg, &load, &goals, SearchOptions::default())
                    .and_then(|engine| engine.assess(config))
                    .expect("assesses")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_assess);
criterion_main!(benches);
