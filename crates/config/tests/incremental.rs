//! Integration tests for the incremental-assessment tentpole: the
//! delta entry point must be field-for-field identical to a
//! from-scratch assessment (including under backend overrides and
//! fault injection), the adaptive-ε screen must never change what a
//! search returns, and the LRU caches must keep answering after the
//! fill-until-full capacity is exceeded.
//!
//! The observability recorder and the fault registry are
//! process-global, so every test that touches them serializes on one
//! lock and restores the disabled state before returning.

use std::sync::Mutex;

use proptest::prelude::*;
use wfms_config::{AssessmentEngine, AvailBackend, Goals, SearchOptions, SearchResult};
use wfms_perf::SystemLoad;
use wfms_statechart::{paper_section52_registry, Configuration, ServerTypeId, ServerTypeRegistry};

static GLOBAL_STATE: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_STATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn load_at(rho_single: f64, reg: &ServerTypeRegistry) -> SystemLoad {
    let rates: Vec<f64> = reg
        .iter()
        .map(|(_, t)| rho_single / t.service_time_mean)
        .collect();
    SystemLoad {
        request_rates: rates,
        total_arrival_rate: 1.0,
        active_instances: vec![],
    }
}

fn engine(opts: SearchOptions) -> AssessmentEngine {
    let reg = paper_section52_registry();
    let load = load_at(1.5, &reg);
    let goals = Goals::new(0.01, 0.9999).unwrap();
    AssessmentEngine::new(&reg, &load, &goals, opts).unwrap()
}

/// A load that keeps one type far hotter than the rest, so the loose
/// fold can *prove* both the waiting violation and its argmax (equal
/// per-type loads leave the ratios too close for a sound proof and the
/// screen correctly abstains).
fn skewed_engine(opts: SearchOptions) -> AssessmentEngine {
    let reg = paper_section52_registry();
    let rho = [1.6f64, 0.3, 0.3];
    let rates: Vec<f64> = reg
        .iter()
        .zip(rho.iter())
        .map(|((_, t), r)| r / t.service_time_mean)
        .collect();
    let load = SystemLoad {
        request_rates: rates,
        total_arrival_rate: 1.0,
        active_instances: vec![],
    };
    let goals = Goals::new(2e-4, 0.9).unwrap();
    AssessmentEngine::new(&reg, &load, &goals, opts).unwrap()
}

fn result_bytes(result: &SearchResult) -> String {
    serde_json::to_string(result).expect("serialize search result")
}

/// The frontier searches withhold screened candidates from the
/// parallel precompute but backfill them exactly at consumption, so a
/// loose screen must leave the *entire* result — winner, trace,
/// evaluation count, quarantine — bitwise unchanged, while still
/// proving some candidates infeasible without an exact assessment.
#[test]
fn frontier_screen_is_bitwise_invisible_in_the_result() {
    let _guard = lock();
    let base_opts = SearchOptions::builder()
        .jobs(2)
        .max_total_servers(12)
        .avail_backend(AvailBackend::Product)
        .build();
    let baseline = engine(base_opts).exhaustive().unwrap();

    let screened_opts = SearchOptions::builder()
        .jobs(2)
        .max_total_servers(12)
        .avail_backend(AvailBackend::Product)
        .screen_epsilon(1e-2)
        .build();
    wfms_obs::global().take();
    wfms_obs::enable();
    let screened = engine(screened_opts).exhaustive().unwrap();
    wfms_obs::disable();
    let snapshot = wfms_obs::global().take();

    assert_eq!(result_bytes(&baseline), result_bytes(&screened));
    let rejects = snapshot
        .counters
        .get("engine.screen-reject")
        .copied()
        .unwrap_or(0);
    assert!(
        rejects > 0,
        "loose screen never fired: {:?}",
        snapshot.counters
    );
}

/// Greedy skips the exact assessment of a screened step (the step is
/// journaled, not traced), so its trace is a subsequence of the
/// baseline's — but the winner and its assessment stay bit-identical.
#[test]
fn greedy_screen_preserves_the_winner_assessment() {
    let _guard = lock();
    let baseline = skewed_engine(
        SearchOptions::builder()
            .avail_backend(AvailBackend::Product)
            .build(),
    )
    .greedy()
    .unwrap();

    let screened_opts = SearchOptions::builder()
        .avail_backend(AvailBackend::Product)
        .screen_epsilon(1e-2)
        .build();
    wfms_obs::global().take();
    wfms_obs::enable();
    let screened = skewed_engine(screened_opts).greedy().unwrap();
    wfms_obs::disable();
    let snapshot = wfms_obs::global().take();

    assert_eq!(baseline.assessment, screened.assessment);
    // Subsequence check: every screened-trace entry appears in the
    // baseline trace, in order.
    let mut base_iter = baseline.trace.iter();
    for entry in &screened.trace {
        assert!(
            base_iter.any(|b| b == entry),
            "screened trace entry {:?} not in baseline order",
            entry.replicas
        );
    }
    assert!(screened.trace.len() <= baseline.trace.len());
    let rejects = snapshot
        .counters
        .get("engine.screen-reject")
        .copied()
        .unwrap_or(0);
    assert!(
        rejects > 0,
        "greedy screen never fired: {:?}",
        snapshot.counters
    );
    assert!(screened.evaluations < baseline.evaluations);
}

/// Regression for the fill-until-full caches: at capacity the old code
/// silently stopped inserting, so a hot candidate assessed *after* the
/// cache filled missed forever. Under LRU it is resident (most
/// recently used) and a re-assessment is answered entirely from cache.
#[test]
fn lru_keeps_recent_solutions_resident_beyond_capacity() {
    let reg = paper_section52_registry();
    let opts = SearchOptions::builder().solution_cache_capacity(2).build();
    let load = load_at(1.5, &reg);
    let goals = Goals::new(0.01, 0.9999).unwrap();
    let engine = AssessmentEngine::new(&reg, &load, &goals, opts).unwrap();

    for y in [vec![1, 1, 1], vec![2, 2, 2], vec![3, 3, 3]] {
        let config = Configuration::new(&reg, y).unwrap();
        engine.assess(&config).unwrap();
    }
    let filled = engine.cache_stats();
    assert!(filled.solution_entries <= 2, "capacity bound violated");

    // Third candidate exceeded the capacity of 2 — under LRU it is the
    // most recent entry and re-assessing it computes nothing new.
    let hot = Configuration::new(&reg, vec![3, 3, 3]).unwrap();
    engine.assess(&hot).unwrap();
    let warm = engine.cache_stats();
    assert_eq!(
        warm.misses, filled.misses,
        "re-assessing the most recent candidate recomputed something"
    );
    assert!(
        warm.hits > filled.hits,
        "warm pass answered nothing from cache"
    );
}

/// Fault injection must not open a gap between the delta and scratch
/// paths: with every cache-fill site firing deterministically, both
/// engines degrade the same states the same way.
#[test]
fn delta_equals_scratch_under_fault_injection() {
    let _guard = lock();
    wfms_fault::clear();
    wfms_fault::configure("engine.state-cache-fill", wfms_fault::FaultMode::Error, 1.0);
    wfms_fault::enable();

    let reg = paper_section52_registry();
    let incumbent = Configuration::new(&reg, vec![2, 2, 2]).unwrap();
    let grown = incumbent.with_added_replica(ServerTypeId(0)).unwrap();

    let opts = SearchOptions::builder()
        .avail_backend(AvailBackend::Product)
        .build();
    let warm = engine(opts);
    warm.assess(&incumbent).unwrap();
    let delta = warm.assess_delta(&incumbent, ServerTypeId(0)).unwrap();
    let scratch = engine(opts).assess(&grown).unwrap();

    wfms_fault::clear();

    assert_eq!(delta, scratch);
    assert!(
        delta.degradation.is_some(),
        "error injection at rate 1.0 must degrade the assessment"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole contract: `assess_delta` of a one-replica move is
    /// field-for-field identical to a from-scratch assessment of the
    /// grown configuration — on the product backend (where the marginal
    /// patch actually fires) and on the explicit backends (where the
    /// delta entry point falls through to the ordinary path).
    #[test]
    fn assess_delta_equals_from_scratch(
        rho in 0.05f64..2.5,
        y in proptest::collection::vec(1usize..4, 3),
        moved in 0usize..3,
        backend in 0usize..3,
    ) {
        let backend = [AvailBackend::Product, AvailBackend::Dense, AvailBackend::Sparse][backend];
        let reg = paper_section52_registry();
        let load = load_at(rho, &reg);
        let goals = Goals::new(0.01, 0.9999).unwrap();
        let incumbent = Configuration::new(&reg, y).unwrap();
        let grown = incumbent.with_added_replica(ServerTypeId(moved)).unwrap();
        let opts = SearchOptions::builder().avail_backend(backend).build();

        // Warm engine: the incumbent is assessed first, so the delta
        // path has cached marginals and state evaluations to reuse.
        let warm = AssessmentEngine::new(&reg, &load, &goals, opts).unwrap();
        warm.assess(&incumbent).unwrap();
        let delta = warm.assess_delta(&incumbent, ServerTypeId(moved)).unwrap();

        // Cold engine: the same grown candidate from scratch.
        let cold = AssessmentEngine::new(&reg, &load, &goals, opts).unwrap();
        let scratch = cold.assess(&grown).unwrap();
        prop_assert_eq!(&delta, &scratch);

        // And against a fresh engine on default options, the original
        // bit-for-bit reference (dense path only — its `Auto` backend
        // resolves to the dense path at ε = 0).
        if backend == AvailBackend::Dense {
            let direct = AssessmentEngine::new(&reg, &load, &goals, SearchOptions::default())
                .unwrap()
                .assess(&grown)
                .unwrap();
            prop_assert_eq!(&delta, &direct);
        }
    }
}
