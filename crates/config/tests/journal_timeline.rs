//! Integration tests for the observability contract of the search
//! layer: the global recorder's span log must survive two threads
//! searching one shared engine with one well-nested track per thread,
//! recording it must not perturb search results bit-wise, and the
//! decision journal must replay a search byte-stably.
//!
//! The recorder and journal are process-global, so every test here
//! serializes on one lock and restores the disabled state before
//! returning.

use std::collections::BTreeMap;
use std::sync::Mutex;

use wfms_config::journal;
use wfms_config::{AssessmentEngine, Goals, SearchOptions, SearchResult};
use wfms_obs::TraceSnapshot;
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

/// Records `work` in the global recorder's span log.
fn recorded<T>(work: impl FnOnce() -> T) -> (T, TraceSnapshot) {
    let recorder = wfms_obs::global();
    recorder.reset();
    recorder.enable();
    let out = work();
    recorder.disable();
    (out, recorder.take())
}

/// What the Chrome-trace export relies on per track: the spans of each
/// thread nest by containment, so a span that starts inside another
/// ends inside it too.
fn assert_tracks_well_formed(snapshot: &TraceSnapshot) {
    let mut by_thread: BTreeMap<u64, Vec<(u64, u64, &str)>> = BTreeMap::new();
    for span in &snapshot.spans {
        by_thread.entry(span.thread).or_default().push((
            span.start_ns,
            span.start_ns + span.duration_ns,
            &span.name,
        ));
    }
    for (thread, mut spans) in by_thread {
        spans.sort_by_key(|&(start, end, _)| (start, std::cmp::Reverse(end)));
        let mut open: Vec<(u64, &str)> = Vec::new();
        for (start, end, name) in spans {
            while open
                .last()
                .is_some_and(|&(outer_end, _)| outer_end <= start)
            {
                open.pop();
            }
            if let Some(&(outer_end, outer)) = open.last() {
                assert!(
                    end <= outer_end,
                    "track {thread} ({}): {name} overlaps {outer}",
                    snapshot.threads[thread as usize]
                );
            }
            open.push((end, name));
        }
    }
}

#[test]
fn timeline_survives_two_threads_searching_one_engine() {
    let _guard = lock();
    let _ = journal::take();
    journal::enable(); // decision instants ride the span log's tracks
    let engine = engine();
    let (results, snapshot) = recorded(|| {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| scope.spawn(|| engine.exhaustive().unwrap()))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap())
                .collect::<Vec<SearchResult>>()
        })
    });
    journal::disable();
    let _ = journal::take();

    assert_eq!(results[0], results[1]);
    assert!(!results[0].assessment.replicas.is_empty());
    assert_eq!(snapshot.dropped_spans, 0, "cap hit during a small search");
    // Each searching thread gets its own track and holds its own
    // `exhaustive-search` span.
    let searches: Vec<u64> = snapshot
        .spans
        .iter()
        .filter(|s| s.name == "exhaustive-search")
        .map(|s| s.thread)
        .collect();
    assert_eq!(searches.len(), 2);
    assert_ne!(searches[0], searches[1], "one track per searching thread");
    assert!(snapshot.threads.len() >= 2);
    assert_tracks_well_formed(&snapshot);
    assert!(snapshot.spans.iter().any(|s| s.name == "assess"));
    // Decision instants ride the same tracks as the searches.
    let winners: Vec<u64> = snapshot
        .instants
        .iter()
        .filter(|i| i.name == journal::EVENT_DECISION_WINNER)
        .map(|i| i.thread)
        .collect();
    assert_eq!(winners.len(), 2);
    for thread in &searches {
        assert!(winners.contains(thread), "{winners:?} vs {searches:?}");
    }

    // The export of a multi-track run is valid Chrome Trace Format.
    let ctf = wfms_obs::to_chrome_trace(&snapshot);
    let parsed: serde_json::Value = serde_json::from_str(&ctf).expect("valid JSON");
    let events = parsed["traceEvents"].as_array().expect("traceEvents array");
    assert_eq!(
        events.len(),
        snapshot.threads.len() + snapshot.spans.len() + snapshot.instants.len()
    );
}

#[test]
fn timeline_mode_does_not_perturb_search_results() {
    let _guard = lock();
    let plain_exhaustive = run_exhaustive();
    let plain_greedy = run_greedy();

    let ((recorded_exhaustive, recorded_greedy), snapshot) =
        recorded(|| (run_exhaustive(), run_greedy()));
    assert!(!snapshot.spans.is_empty());

    // Bit-identity: recording the span log must never change what the
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
        // An assessed candidate looks up one record per server type, and
        // the winner carries the provenance of the assessment it names.
        assert_eq!(
            event.cache.state_hits + event.cache.state_misses,
            3,
            "cache provenance does not cover the three types: {event:?}"
        );
    }
    let accepted = journal_a
        .events
        .iter()
        .find(|e| e.outcome == journal::OUTCOME_ACCEPT)
        .expect("greedy success accepts its winner");
    assert_eq!(winner.cache, accepted.cache);
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
