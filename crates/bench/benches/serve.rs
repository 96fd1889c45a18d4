//! SERVE-LINE — one warm daemon request, line in to line out, in
//! process: decode the request line as the daemon does
//! (`Request<RawValue>`), `Handler::handle`, encode the response line.
//! Each case's tenant is warmed by one request first, so a sample times
//! the codec and the tenant lookup around the engine's cached work.
//! The recorder runs as in `wfms serve`: stage totals, no span log.
//!
//! Cases: ep `assess` Y(2,2,3), enterprise `assess` Y(2,3,2,3,2), and
//! greedy `recommend` on enterprise, with the goals of the benchmark's
//! `serve-mix` workload (0.05 min, 0.9999).

use criterion::{criterion_group, criterion_main, Criterion};

use serde_json::{RawValue, Value};
use wfms_proto::{AssessParams, RecommendParams, Request, METHOD_ASSESS, METHOD_RECOMMEND};
use wfms_serve::Handler;

fn document(scenario: &str, file: &str) -> Value {
    let path = format!(
        "{}/../../examples/specs/{scenario}/{file}",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(path).expect("example spec");
    serde_json::from_str(&text).expect("example spec parses")
}

/// A request line as a client sends it: compact, every params field
/// spelled out.
fn line(scenario: &str, config: Option<Vec<usize>>) -> String {
    let registry = document(scenario, "registry.json");
    let workload = document(scenario, "workload.json");
    let (method, params) = match config {
        Some(config) => (
            METHOD_ASSESS,
            serde_json::to_value(AssessParams {
                registry,
                workload,
                config,
                max_wait: Some(0.05),
                min_availability: Some(0.9999),
                epsilon: None,
                avail_backend: None,
                solver_tol: None,
                solver_max_iter: None,
                strict: None,
                per_type_max_wait: None,
            }),
        ),
        None => (
            METHOD_RECOMMEND,
            serde_json::to_value(RecommendParams {
                registry,
                workload,
                search: Some("greedy".to_string()),
                max_wait: Some(0.05),
                min_availability: Some(0.9999),
                budget: None,
                jobs: None,
                seed: None,
                epsilon: None,
                avail_backend: None,
                solver_tol: None,
                solver_max_iter: None,
                strict: None,
                screen_epsilon: None,
                rank_moves: None,
                incremental: None,
                per_type_max_wait: None,
            }),
        ),
    };
    let mut request = Request::new(method, params.expect("params encode"));
    request.tenant = Some(format!("{scenario}-{method}"));
    serde_json::to_string(&request).expect("request encodes")
}

/// What the daemon does with one line, short of the socket.
fn answer(handler: &Handler, line: &str) -> String {
    let request: Request<RawValue> = serde_json::from_str(line).expect("request decodes");
    let response = handler.handle(&request);
    assert!(response.ok, "{:?}", response.error);
    serde_json::to_string(&response).expect("response encodes")
}

fn bench_serve_line(c: &mut Criterion) {
    wfms_obs::global().reset();
    wfms_obs::global().enable_without_span_log();
    let handler = Handler::new(8);
    let cases = [
        ("assess_ep_y223", line("ep", Some(vec![2, 2, 3]))),
        (
            "assess_enterprise_y23232",
            line("enterprise", Some(vec![2, 3, 2, 3, 2])),
        ),
        ("recommend_enterprise_greedy", line("enterprise", None)),
    ];
    let mut group = c.benchmark_group("serve_line_warm");
    group.sample_size(200);
    for (name, line) in &cases {
        answer(&handler, line);
        group.bench_function(*name, |b| b.iter(|| answer(&handler, line)));
    }
    group.finish();
    wfms_obs::disable();
}

criterion_group!(benches, bench_serve_line);
criterion_main!(benches);
