//! EXP-E1 (extension) — assessment-engine cache and parallel frontier.
//!
//! Runs the provably-minimum-cost exhaustive search over the
//! five-type `examples/specs/enterprise` scenario three ways:
//!
//! 1. **serial / cold** — a fresh [`AssessmentEngine`] with `jobs = 1`,
//!    the reference path of the determinism contract;
//! 2. **parallel / cold** — a fresh engine with `jobs = 4`;
//! 3. **parallel / warm** — the same engine again, replaying every
//!    candidate from the degraded-state, birth–death-block, and
//!    availability-solution caches.
//!
//! Asserts the winning [`Assessment`] (and the full trace) is
//! bit-identical across all three runs — the engine's determinism
//! contract — and that the warm run beats the serial cold run by ≥ 2×,
//! then records the timings into `BENCH_engine.json`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use wfms_config::{AssessmentEngine, Goals, SearchOptions, SearchResult};
use wfms_perf::{aggregate_load, analyze_workflow, AnalysisOptions, SystemLoad, WorkloadItem};
use wfms_statechart::{ServerTypeRegistry, WorkflowSpec};

/// One workflow entry of an on-disk `workload.json` (the CLI's format).
#[derive(Debug, Deserialize)]
struct WorkloadEntry {
    arrival_rate: f64,
    spec: WorkflowSpec,
}

#[derive(Debug, Deserialize)]
struct WorkloadFile {
    workflows: Vec<WorkloadEntry>,
}

/// The measurements stored per experiment in `BENCH_engine.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct EngineRecord {
    /// Worker threads of the parallel engine.
    jobs: usize,
    /// Serial cold-engine exhaustive search, milliseconds.
    serial_cold_ms: f64,
    /// Parallel cold-engine exhaustive search, milliseconds.
    parallel_cold_ms: f64,
    /// Parallel warm-engine (cache-replay) exhaustive search, ms.
    parallel_warm_ms: f64,
    /// `serial_cold_ms / parallel_warm_ms`.
    warm_speedup: f64,
    /// Candidates assessed by the search (identical across runs).
    evaluations: usize,
    /// The minimum-cost winner `Y` (identical across runs).
    winner: Vec<usize>,
    /// Cache hits / misses accumulated by the warm engine.
    cache_hits: u64,
    /// See `cache_hits`.
    cache_misses: u64,
}

/// Path of the merged engine-benchmark file: `$WFMS_BENCH_ENGINE` when
/// set, else `BENCH_engine.json` at the repository root (modeled on
/// `wfms_bench::obs::bench_obs_path`).
fn bench_engine_path() -> PathBuf {
    match std::env::var_os("WFMS_BENCH_ENGINE") {
        Some(p) => PathBuf::from(p),
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json"),
    }
}

fn enterprise_inputs() -> (ServerTypeRegistry, SystemLoad) {
    let specs = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs/enterprise");
    let registry: ServerTypeRegistry = serde_json::from_str(
        &std::fs::read_to_string(specs.join("registry.json")).expect("registry.json"),
    )
    .expect("valid registry");
    let workload: WorkloadFile = serde_json::from_str(
        &std::fs::read_to_string(specs.join("workload.json")).expect("workload.json"),
    )
    .expect("valid workload");
    let mut items = Vec::new();
    for entry in workload.workflows {
        let analysis = analyze_workflow(&entry.spec, &registry, &AnalysisOptions::default())
            .expect("analyzes");
        items.push(WorkloadItem {
            analysis,
            arrival_rate: entry.arrival_rate,
        });
    }
    let load = aggregate_load(&items, &registry).expect("aggregates");
    (registry, load)
}

fn assert_identical(label: &str, a: &SearchResult, b: &SearchResult) {
    assert_eq!(
        a.assessment, b.assessment,
        "{label}: winning assessments diverge"
    );
    assert_eq!(a.trace, b.trace, "{label}: candidate traces diverge");
    assert_eq!(
        a.evaluations, b.evaluations,
        "{label}: evaluation counts diverge"
    );
}

fn main() {
    const JOBS: usize = 4;
    let (registry, load) = enterprise_inputs();
    let goals = Goals::new(0.01, 0.9999).expect("valid");

    println!("EXP-E1: assessment engine on examples/specs/enterprise\n");

    let serial_opts = SearchOptions::builder()
        .max_total_servers(64)
        .jobs(1)
        .build();
    let parallel_opts = SearchOptions::builder()
        .max_total_servers(64)
        .jobs(JOBS)
        .build();

    let t0 = Instant::now();
    let serial = AssessmentEngine::new(&registry, &load, &goals, serial_opts)
        .expect("engine")
        .exhaustive()
        .expect("reachable");
    let serial_cold_ms = t0.elapsed().as_secs_f64() * 1e3;

    let engine = AssessmentEngine::new(&registry, &load, &goals, parallel_opts).expect("engine");
    let t0 = Instant::now();
    let parallel_cold = engine.exhaustive().expect("reachable");
    let parallel_cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let parallel_warm = engine.exhaustive().expect("reachable");
    let parallel_warm_ms = t0.elapsed().as_secs_f64() * 1e3;

    assert_identical("serial vs parallel-cold", &serial, &parallel_cold);
    assert_identical("serial vs parallel-warm", &serial, &parallel_warm);

    let stats = engine.cache_stats();
    let warm_speedup = serial_cold_ms / parallel_warm_ms;
    println!(
        "  winner Y = {:?}, cost {}",
        serial.replicas(),
        serial.cost()
    );
    println!("  candidates assessed: {}", serial.evaluations);
    println!("  serial cold    : {serial_cold_ms:>9.2} ms");
    println!("  {JOBS}-way cold     : {parallel_cold_ms:>9.2} ms");
    println!(
        "  {JOBS}-way warm     : {parallel_warm_ms:>9.2} ms  ({warm_speedup:.1}x vs serial cold)"
    );
    println!(
        "  caches: {} states, {} solutions, {} blocks; {} hits / {} misses",
        stats.state_entries, stats.solution_entries, stats.block_entries, stats.hits, stats.misses
    );
    assert!(
        warm_speedup >= 2.0,
        "warm engine must beat the serial cold path by >= 2x, got {warm_speedup:.2}x"
    );

    let record = EngineRecord {
        jobs: JOBS,
        serial_cold_ms,
        parallel_cold_ms,
        parallel_warm_ms,
        warm_speedup,
        evaluations: serial.evaluations,
        winner: serial.replicas().to_vec(),
        cache_hits: stats.hits,
        cache_misses: stats.misses,
    };
    let path = bench_engine_path();
    let mut all: BTreeMap<String, EngineRecord> = match std::fs::read_to_string(&path) {
        Ok(text) => serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{}: invalid BENCH_engine.json: {e}", path.display())),
        Err(_) => BTreeMap::new(),
    };
    all.insert("exp_e1_engine".to_string(), record);
    let text = serde_json::to_string_pretty(&all).expect("serializable");
    std::fs::write(&path, text + "\n").unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    println!("\n[engine] merged timings into {}", path.display());
}
