//! Transient-analysis benchmarks: the paper's truncated-uniformization
//! reward computation versus the exact route (the expected visits from
//! one solve, dotted with the reward per entry) across truncation
//! quantiles (the z_max ablation of DESIGN.md), and the turnaround CDF
//! and percentile.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use wfms_markov::{
    reward_until_absorption_exact, reward_until_absorption_uniformized, TruncationOptions,
    Uniformized,
};
use wfms_perf::{analyze_workflow, AnalysisOptions, TurnaroundDistribution};
use wfms_statechart::paper_section52_registry;
use wfms_workloads::{ep_workflow, fan_workflow, sequential_workflow};

fn bench_reward(c: &mut Criterion) {
    let reg = paper_section52_registry();
    let spec = ep_workflow();
    let analysis = analyze_workflow(&spec, &reg, &AnalysisOptions::default()).expect("EP");
    let ctmc = analysis.ctmc.clone();
    let rewards: Vec<f64> = (0..ctmc.n())
        .map(|i| analysis.state_loads[(1, i)])
        .collect();
    let start = analysis.start;

    c.bench_function("reward_exact_expected_visits", |b| {
        b.iter(|| reward_until_absorption_exact(&ctmc, &rewards, start).expect("computes"))
    });

    let mut group = c.benchmark_group("reward_uniformized_by_quantile");
    for quantile in [0.9, 0.99, 0.999, 0.99999] {
        group.bench_with_input(BenchmarkId::from_parameter(quantile), &quantile, |b, &q| {
            b.iter(|| {
                reward_until_absorption_uniformized(
                    &ctmc,
                    &rewards,
                    start,
                    TruncationOptions {
                        quantile: q,
                        hard_cap: 10_000_000,
                    },
                )
                .expect("computes")
            })
        });
    }
    group.finish();
}

fn bench_turnaround_cdf(c: &mut Criterion) {
    let reg = paper_section52_registry();
    let analysis = analyze_workflow(&ep_workflow(), &reg, &AnalysisOptions::default()).expect("EP");
    let uni = Uniformized::new(&analysis.ctmc).expect("uniformizes");
    let t = analysis.mean_turnaround;
    c.bench_function("turnaround_cdf_at_mean", |b| {
        b.iter(|| {
            uni.absorption_cdf(analysis.start, t, 1e-9)
                .expect("computes")
        })
    });
}

/// One p90 at ε = 1e-9, as `wfms assess` computes it per workflow: each
/// iteration builds its squaring table from scratch. Besides ep and the
/// ladder-M chart, a 52-state fan that absorbs in about 100 uniformized
/// steps: the shape on which the table's `n_T³` squarings cost the most.
fn bench_turnaround_percentile(c: &mut Criterion) {
    let reg = paper_section52_registry();
    let mut group = c.benchmark_group("turnaround_percentile_p90");
    for (id, spec) in [
        ("ep", ep_workflow()),
        ("ladder_m", sequential_workflow(30)),
        ("fan_52", fan_workflow(50)),
    ] {
        let analysis =
            analyze_workflow(&spec, &reg, &AnalysisOptions::default()).expect("analyzes");
        let dist = TurnaroundDistribution::new(&analysis, 1e-9).expect("uniformizes");
        group.bench_function(id, |b| b.iter(|| dist.percentile(0.9).expect("computes")));
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_reward,
    bench_turnaround_cdf,
    bench_turnaround_percentile
);
criterion_main!(benches);
