//! Solver micro-benchmarks on availability CTMCs of growing size: the
//! product form (the solver every availability answer uses) against the
//! dense LU oracle, Gauss–Seidel (the paper's method) and power
//! iteration; and one whole workflow analysis, whose first-passage
//! system is an LU solve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use wfms_avail::{AvailabilityModel, ProductFormModel};
use wfms_markov::ctmc::SteadyStateMethod;
use wfms_markov::linalg::GaussSeidelOptions;
use wfms_statechart::{Configuration, ServerType, ServerTypeKind, ServerTypeRegistry};

fn registry(k: usize) -> ServerTypeRegistry {
    let mut reg = ServerTypeRegistry::new();
    for i in 0..k {
        reg.register(ServerType::with_exponential_service(
            format!("t{i}"),
            ServerTypeKind::WorkflowEngine,
            1.0 / (1_440.0 * (i + 1) as f64),
            0.1,
            0.01,
        ))
        .expect("valid");
    }
    reg
}

fn bench_steady_state(c: &mut Criterion) {
    let mut group = c.benchmark_group("availability_steady_state");
    group.sample_size(10);
    for (k, y) in [(3usize, 2usize), (3, 4), (4, 3), (5, 3)] {
        let reg = registry(k);
        let config = Configuration::uniform(&reg, y).expect("valid");
        let model = AvailabilityModel::new(&reg, &config).expect("builds");
        let states = model.state_space().len();
        group.bench_with_input(
            BenchmarkId::new("product_form", format!("k{k}_y{y}_{states}states")),
            &config,
            |b, config| {
                b.iter(|| {
                    ProductFormModel::new(&reg, config)
                        .expect("builds")
                        .availability()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("lu", format!("k{k}_y{y}_{states}states")),
            &model,
            |b, m| b.iter(|| m.steady_state(SteadyStateMethod::Lu).expect("solves")),
        );
        group.bench_with_input(
            BenchmarkId::new("gauss_seidel", format!("k{k}_y{y}_{states}states")),
            &model,
            |b, m| {
                b.iter(|| {
                    m.steady_state(SteadyStateMethod::GaussSeidel(GaussSeidelOptions {
                        tolerance: 1e-10,
                        ..Default::default()
                    }))
                    .expect("solves")
                })
            },
        );
        // Power iteration mixes at the slowest failure/repair timescale and
        // is orders of magnitude slower here; bench it only on the smallest
        // chain so the comparison stays visible without dominating runtime.
        if (k, y) == (3, 2) {
            group.bench_with_input(
                BenchmarkId::new("power", format!("k{k}_y{y}_{states}states")),
                &model,
                |b, m| {
                    b.iter(|| {
                        m.steady_state(SteadyStateMethod::Power {
                            tolerance: 1e-8,
                            max_iterations: 10_000_000,
                        })
                        .expect("solves")
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_first_passage(c: &mut Criterion) {
    use wfms_perf::{analyze_workflow, AnalysisOptions};
    use wfms_workloads::ep_workflow;
    let reg = wfms_statechart::paper_section52_registry();
    let spec = ep_workflow();
    c.bench_function("ep_full_workflow_analysis", |b| {
        b.iter(|| analyze_workflow(&spec, &reg, &AnalysisOptions::default()).expect("analyzes"))
    });
}

criterion_group!(benches, bench_steady_state, bench_first_passage);
criterion_main!(benches);
