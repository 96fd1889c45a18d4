//! The timeline contract: the span log names the thread of each span
//! and instant, keeps instants beside the spans, and draws as valid
//! Chrome Trace Format with one track per thread, nested spans, and its
//! drops disclosed.

use std::collections::BTreeMap;

use serde_json::Value;
use wfms_obs::{Recorder, TraceSnapshot};

#[test]
fn instants_need_the_span_log() {
    let recorder = Recorder::new();
    recorder.instant("decision-accept");
    {
        let _span = recorder.span("uniformize");
    }
    assert!(recorder.snapshot().is_empty());

    recorder.enable_without_span_log();
    recorder.instant("decision-accept");
    let snapshot = recorder.take();
    assert!(snapshot.instants.is_empty());
    assert!(snapshot.threads.is_empty());
}

#[test]
fn each_thread_gets_its_own_labelled_track() {
    let recorder = Recorder::new();
    recorder.enable();
    {
        let _span = recorder.span("assess");
    }
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("worker-a".to_string())
            .spawn_scoped(scope, || {
                let _span = recorder.span("mg1-waiting");
                recorder.instant("decision-reject");
            })
            .unwrap();
    });
    std::thread::scope(|scope| {
        scope.spawn(|| recorder.instant("decision-accept"));
    });
    let snapshot = recorder.take();
    // Tracks are indexed in the order their threads first logged.
    assert_eq!(snapshot.threads.len(), 3);
    assert_eq!(snapshot.threads[1], "worker-a");
    assert_eq!(snapshot.threads[2], "thread-2", "an unnamed thread");
    let threads: Vec<(&str, u64)> = snapshot
        .spans
        .iter()
        .map(|s| (s.name.as_str(), s.thread))
        .collect();
    assert_eq!(threads, [("assess", 0), ("mg1-waiting", 1)]);
    let instants: Vec<u64> = snapshot.instants.iter().map(|i| i.thread).collect();
    assert_eq!(instants, [1, 2]);
}

#[test]
fn drops_past_the_cap_are_disclosed() {
    let recorder = Recorder::with_span_cap(3);
    recorder.enable();
    for _ in 0..2 {
        let _span = recorder.span("assess");
    }
    for _ in 0..3 {
        recorder.instant("decision-reject");
    }
    let snapshot = recorder.take();
    assert_eq!(snapshot.spans.len() + snapshot.instants.len(), 3);
    assert_eq!(snapshot.dropped_spans, 2);
    assert_eq!(snapshot.span_count("assess"), 2);
    let trace: Value = serde_json::from_str(&wfms_obs::to_chrome_trace(&snapshot)).unwrap();
    assert_eq!(trace["otherData"]["dropped_spans"].as_str(), Some("2"));
}

/// The spans of each thread nest by containment: a span that starts
/// inside another ends inside it too.
fn assert_nested_per_thread(snapshot: &TraceSnapshot) {
    let mut by_thread: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in &snapshot.spans {
        by_thread
            .entry(span.thread)
            .or_default()
            .push((span.start_ns, span.start_ns + span.duration_ns));
    }
    for (thread, mut spans) in by_thread {
        spans.sort_by_key(|&(start, end)| (start, std::cmp::Reverse(end)));
        let mut open: Vec<u64> = Vec::new();
        for (start, end) in spans {
            while open.last().is_some_and(|&outer_end| outer_end <= start) {
                open.pop();
            }
            if let Some(&outer_end) = open.last() {
                assert!(end <= outer_end, "thread {thread}: spans overlap");
            }
            open.push(end);
        }
    }
}

/// Chrome Trace Format validity: the export parses as JSON and carries
/// a `traceEvents` array of one `thread_name` per thread, one `X` event
/// per span and one `i` event per instant, each with `name`, `pid` and
/// a `tid` naming a track, and `ts` (plus `dur` on `X`) in exact
/// microseconds — what Perfetto needs to load the file.
#[test]
fn chrome_trace_export_is_valid_and_nests_per_track() {
    let recorder = Recorder::new();
    recorder.enable();
    {
        let _outer = recorder.span("assess");
        let _inner = recorder.span("avail-steady-state");
        recorder.instant("decision-winner");
    }
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _outer = recorder.span("performability");
            let _inner = recorder.span("mg1-waiting");
        });
    });
    let snapshot = recorder.take();
    assert_nested_per_thread(&snapshot);

    let json = wfms_obs::to_chrome_trace(&snapshot);
    let trace: Value = serde_json::from_str(&json).expect("export parses as JSON");
    assert_eq!(trace["otherData"]["dropped_spans"].as_str(), Some("0"));
    let events = trace["traceEvents"]
        .as_array()
        .expect("a traceEvents array");
    assert_eq!(events.len(), 2 + 4 + 1, "tracks, spans and instants");
    let mut phases: BTreeMap<&str, usize> = BTreeMap::new();
    for event in events {
        let ph = event["ph"].as_str().expect("every event has a phase");
        *phases.entry(ph).or_default() += 1;
        assert!(event["name"].as_str().is_some());
        assert_eq!(event["pid"].as_u64(), Some(1));
        let tid = event["tid"].as_u64().expect("every event has a tid");
        assert!(
            tid < snapshot.threads.len() as u64,
            "tid {tid} names no track"
        );
        if ph != "M" {
            assert!(event["ts"].as_f64().is_some(), "timed events need a ts");
        }
    }
    assert_eq!(phases, BTreeMap::from([("M", 2), ("X", 4), ("i", 1)]));
    let first = &snapshot.spans[0];
    let exported = events
        .iter()
        .find(|e| e["ph"].as_str() == Some("X") && e["name"].as_str() == Some(&first.name))
        .unwrap();
    assert_eq!(
        (exported["ts"].as_f64().unwrap() * 1e3).round() as u64,
        first.start_ns
    );
    assert_eq!(
        (exported["dur"].as_f64().unwrap() * 1e3).round() as u64,
        first.duration_ns
    );
}

/// The part of a trace recorded after a mark is what a fresh recording
/// of the same work would hold, and the trace itself stays whole.
#[test]
fn since_a_mark_holds_only_what_came_after_it() {
    let recorder = Recorder::new();
    recorder.enable();
    {
        let _span = recorder.span("spec-decode");
    }
    recorder.counter("c", 2);
    recorder.histogram("h", 3);
    let start = recorder.snapshot();
    {
        let _span = recorder.span("assess");
    }
    recorder.counter("c", 5);
    recorder.counter("d", 1);
    recorder.histogram("h", 100);
    recorder.instant("decision-winner");
    let part = recorder.snapshot().since(&start);
    assert_eq!(part.spans.len(), 1);
    assert_eq!(part.spans[0].name, "assess");
    assert_eq!(part.instants.len(), 1);
    assert_eq!(part.stages.len(), 1);
    assert_eq!(part.span_count("assess"), 1);
    assert_eq!(
        part.counters,
        BTreeMap::from([("c".into(), 5), ("d".into(), 1)])
    );
    let h = &part.histograms["h"];
    assert_eq!((h.count, h.sum, h.buckets.clone()), (1, 100, vec![(7, 1)]));
    assert_eq!(recorder.take().spans.len(), 2);
}
