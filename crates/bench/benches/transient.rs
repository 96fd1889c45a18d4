//! Transient-analysis benchmarks: the paper's truncated-uniformization
//! reward computation versus the exact fundamental-matrix route, across
//! truncation quantiles (the z_max ablation of DESIGN.md), and the
//! turnaround CDF and percentile built on the absorbed-mass sequence.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use wfms_markov::{
    reward_until_absorption_exact, reward_until_absorption_uniformized, TruncationOptions,
};
use wfms_perf::{analyze_workflow, AnalysisOptions, TurnaroundDistribution};
use wfms_statechart::{
    paper_section52_registry, ActivityKind, ActivitySpec, ChartBuilder, EcaRule, WorkflowSpec,
};
use wfms_workloads::ep_workflow;

fn bench_reward(c: &mut Criterion) {
    let reg = paper_section52_registry();
    let spec = ep_workflow();
    let analysis = analyze_workflow(&spec, &reg, &AnalysisOptions::default()).expect("EP");
    let ctmc = analysis.ctmc.clone();
    let rewards: Vec<f64> = (0..ctmc.n())
        .map(|i| analysis.state_loads[(1, i)])
        .collect();
    let start = analysis.start;

    c.bench_function("reward_exact_fundamental_matrix", |b| {
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
    use wfms_markov::Uniformized;
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

/// A chart shaped like the benchmark ladder's M rung: thirty sequential
/// activities with in-place retries, 31 CTMC states.
fn ladder_m_chart() -> WorkflowSpec {
    const DURATIONS: [f64; 7] = [0.5, 2.0, 5.0, 15.0, 30.0, 60.0, 240.0];
    const RETRY: [f64; 4] = [0.0, 0.0, 0.1, 0.2];
    let m = 30;
    let state = |i: usize| format!("S{i}");
    let activity = |i: usize| format!("A{i}");
    let mut builder = ChartBuilder::new("M").initial("init");
    for i in 0..m {
        builder = builder.activity_state(state(i), activity(i));
    }
    builder = builder
        .final_state("exit")
        .transition("init", state(0), 1.0, EcaRule::default());
    let mut activities = Vec::new();
    for i in 0..m {
        let next = if i + 1 < m {
            state(i + 1)
        } else {
            "exit".to_string()
        };
        let retry = RETRY[i % RETRY.len()];
        let done = EcaRule::on_done(&activity(i));
        builder = if retry > 0.0 {
            builder
                .transition(state(i), next, 1.0 - retry, done)
                .transition(state(i), state(i), retry, EcaRule::default())
        } else {
            builder.transition(state(i), next, 1.0, done)
        };
        activities.push(ActivitySpec::new(
            activity(i),
            ActivityKind::Automated,
            DURATIONS[i % DURATIONS.len()],
            vec![1.0, 1.0, 1.0],
        ));
    }
    WorkflowSpec::new("M", builder.build().expect("valid chart"), activities)
}

/// One p90 at ε = 1e-9, as `wfms assess` computes it per workflow: the
/// absorbed-mass sequence is built once per percentile, so each
/// iteration steps it from scratch.
fn bench_turnaround_percentile(c: &mut Criterion) {
    let reg = paper_section52_registry();
    let mut group = c.benchmark_group("turnaround_percentile_p90");
    for (id, spec) in [("ep", ep_workflow()), ("ladder_m", ladder_m_chart())] {
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
