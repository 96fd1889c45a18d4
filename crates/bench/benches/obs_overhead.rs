//! OBS-OVERHEAD — cost of the observability layer on the EXP-P1
//! analytic path: the same workflow analysis and turnaround distribution
//! with the global recorder disabled (the default everywhere) versus
//! enabled with its span log (what `--trace` and `--timeline` record).
//! The disabled case must stay within noise (< 2 %) of the pre-obs
//! baseline: every disabled span is a single relaxed atomic load.

use criterion::{criterion_group, criterion_main, Criterion};

use wfms_perf::{analyze_workflow, AnalysisOptions, TurnaroundDistribution};
use wfms_statechart::paper_section52_registry;
use wfms_workloads::ep_workflow;

fn analysis_pass() -> f64 {
    let reg = paper_section52_registry();
    let spec = ep_workflow();
    let analysis = analyze_workflow(&spec, &reg, &AnalysisOptions::default()).expect("EP");
    let dist = TurnaroundDistribution::new(&analysis, 1e-9).expect("uniformizable");
    dist.percentile(0.9).expect("percentile")
}

fn bench_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("ep_analysis_obs");

    wfms_obs::disable();
    wfms_obs::global().reset();
    group.bench_function("recorder_disabled", |b| b.iter(analysis_pass));

    wfms_obs::enable();
    group.bench_function("recorder_enabled", |b| {
        b.iter(|| {
            let p90 = analysis_pass();
            // Drain so the span buffer never hits its cap mid-measurement.
            wfms_obs::global().reset();
            p90
        })
    });
    wfms_obs::disable();
    wfms_obs::global().reset();

    group.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
