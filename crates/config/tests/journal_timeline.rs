//! Integration tests for the observability contract of the search
//! layer: the process-global timeline must survive two threads
//! searching one shared engine with per-track monotonic, balanced
//! events, enabling it must not perturb search results bit-wise, and
//! the decision journal must replay a search byte-stably.
//!
//! The timeline and journal are process-global, so every test here
//! serializes on one lock and restores the disabled state before
//! returning.

use std::sync::Mutex;

use wfms_config::journal;
use wfms_config::{AssessmentEngine, Goals, SearchOptions, SearchResult};
use wfms_obs::timeline::{self, TimelinePhase, TimelineSnapshot};
use wfms_perf::SystemLoad;
use wfms_statechart::{paper_section52_registry, ServerTypeRegistry};

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

fn engine() -> AssessmentEngine {
    let reg = paper_section52_registry();
    let load = load_at(1.5, &reg);
    let goals = Goals::new(0.01, 0.9999).unwrap();
    AssessmentEngine::new(&reg, &load, &goals, SearchOptions::default()).unwrap()
}

fn run_exhaustive() -> SearchResult {
    engine().exhaustive().unwrap()
}

fn run_greedy() -> SearchResult {
    engine().greedy().unwrap()
}

/// Per-track invariants the Chrome-trace export relies on: timestamps
/// never step backwards within a track, and Begin/End events nest (the
/// depth never goes negative and every span opened on a track closes on
/// that same track).
fn assert_tracks_well_formed(snapshot: &TimelineSnapshot) {
    for track in &snapshot.tracks {
        let mut last_ts = 0u64;
        let mut depth = 0i64;
        for event in &track.events {
            assert!(
                event.ts_ns >= last_ts,
                "track {} ({}): timestamp went backwards at {:?}",
                track.track,
                track.label,
                event
            );
            last_ts = event.ts_ns;
            match event.phase {
                TimelinePhase::Begin => depth += 1,
                TimelinePhase::End => {
                    depth -= 1;
                    assert!(
                        depth >= 0,
                        "track {} ({}): End without matching Begin at {:?}",
                        track.track,
                        track.label,
                        event
                    );
                }
                TimelinePhase::Instant => {}
            }
        }
        assert_eq!(
            depth, 0,
            "track {} ({}): {} span(s) left open",
            track.track, track.label, depth
        );
    }
}

#[test]
fn timeline_survives_two_threads_searching_one_engine() {
    let _guard = lock();
    timeline::reset();
    timeline::enable();
    let _ = journal::take();
    journal::enable(); // decision instants ride the timeline tracks
    let engine = engine();
    let results: Vec<SearchResult> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| scope.spawn(|| engine.exhaustive().unwrap()))
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    journal::disable();
    let _ = journal::take();
    timeline::disable();
    let snapshot = timeline::take();
    timeline::reset();

    assert_eq!(results[0], results[1]);
    assert!(!results[0].assessment.replicas.is_empty());
    assert_eq!(
        snapshot.dropped_events(),
        0,
        "cap hit during a small search"
    );
    assert!(snapshot.event_count() > 0, "no timeline events recorded");
    // Each searching thread registers its own track and holds its own
    // `exhaustive-search` span.
    assert!(
        snapshot.tracks.len() >= 2,
        "expected one track per searching thread, got {}",
        snapshot.tracks.len()
    );
    assert_tracks_well_formed(&snapshot);

    let names: Vec<&str> = snapshot
        .tracks
        .iter()
        .flat_map(|t| t.events.iter().map(|e| e.name))
        .collect();
    assert!(names.contains(&"exhaustive-search"), "{names:?}");
    assert!(names.contains(&"assess"), "{names:?}");
    // Decision instants ride the same tracks as the assessment spans.
    assert!(names.contains(&journal::EVENT_DECISION_WINNER), "{names:?}");

    // The export of a multi-track run is valid Chrome Trace Format.
    let ctf = wfms_obs::to_chrome_trace(&snapshot);
    let parsed: serde_json::Value = serde_json::from_str(&ctf).expect("valid JSON");
    let events = parsed["traceEvents"].as_array().expect("traceEvents array");
    assert!(events.len() > snapshot.tracks.len());
}

#[test]
fn timeline_mode_does_not_perturb_search_results() {
    let _guard = lock();
    timeline::reset();
    timeline::disable();
    let plain_exhaustive = run_exhaustive();
    let plain_greedy = run_greedy();

    timeline::enable();
    let recorded_exhaustive = run_exhaustive();
    let recorded_greedy = run_greedy();
    timeline::disable();
    timeline::reset();

    // Bit-identity: recording the timeline must never change what the
    // searches compute, only observe it.
    assert_eq!(plain_exhaustive, recorded_exhaustive);
    assert_eq!(plain_greedy, recorded_greedy);
}

#[test]
fn journal_replays_a_greedy_search_byte_stably() {
    let _guard = lock();

    let record = || {
        let _ = journal::take();
        journal::enable();
        let result = run_greedy();
        journal::disable();
        (result, journal::take())
    };
    let (result_a, journal_a) = record();
    let (result_b, journal_b) = record();

    assert_eq!(result_a, result_b);
    let jsonl_a = journal::to_jsonl(&journal_a);
    let jsonl_b = journal::to_jsonl(&journal_b);
    assert_eq!(jsonl_a, jsonl_b, "journal is not byte-stable across runs");

    // The JSONL round-trips and reconstructs the winner's causal chain.
    let parsed = journal::from_jsonl(&jsonl_a).unwrap();
    assert_eq!(parsed, journal_a);
    assert_eq!(journal_a.dropped_decisions, 0);

    let winner = journal_a
        .events
        .iter()
        .rev()
        .find(|e| e.outcome == journal::OUTCOME_WINNER)
        .expect("greedy success records a winner event");
    assert_eq!(winner.search, "greedy");
    assert_eq!(winner.candidate, result_a.assessment.replicas);
    assert_eq!(winner.reason, journal::REASON_GOALS_MET);
    assert!(winner.margins.binding_goal().is_some());

    // Every non-winning candidate carries a stable rejection reason and
    // its cache provenance; sequence numbers are strictly increasing.
    let mut last_seq = None;
    for event in &journal_a.events {
        if let Some(prev) = last_seq {
            assert!(event.seq > prev, "seq not increasing: {event:?}");
        }
        last_seq = Some(event.seq);
        assert_eq!(event.search, "greedy");
        if event.outcome == journal::OUTCOME_REJECT {
            assert!(
                event.reason == journal::REASON_WAITING_UNMET
                    || event.reason == journal::REASON_AVAILABILITY_UNMET
                    || event.reason == journal::REASON_GOALS_UNMET
                    || event.reason == journal::REASON_SATURATED,
                "unexpected rejection reason {:?}",
                event.reason
            );
        }
        assert!(
            event.cache.solution == "hit"
                || event.cache.solution == "miss"
                || event.cache.solution == "unknown",
            "unexpected cache provenance {:?}",
            event.cache.solution
        );
    }
    // The climb from the stability floor rejects at least one candidate
    // before the winner at this load.
    assert!(
        journal_a
            .events
            .iter()
            .any(|e| e.outcome == journal::OUTCOME_REJECT),
        "expected rejected candidates on the way up"
    );
}
