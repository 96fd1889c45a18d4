//! Trace sinks: text tree rendering, JSON export/import, and the
//! per-stage view for `wfms profile` and the bench harness.

use std::collections::BTreeMap;

use crate::recorder::{SpanRecord, StageSummary, TraceSnapshot};

/// Serialises a snapshot as pretty-printed JSON.
pub fn to_json(snapshot: &TraceSnapshot) -> String {
    serde_json::to_string_pretty(snapshot).expect("trace snapshot serialises")
}

/// Parses a snapshot previously produced by [`to_json`].
pub fn from_json(json: &str) -> Result<TraceSnapshot, String> {
    serde_json::from_str(json).map_err(|e| e.to_string())
}

fn fmt_duration_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn render_span(
    span: &SpanRecord,
    children: &BTreeMap<u64, Vec<&SpanRecord>>,
    depth: usize,
    out: &mut String,
) {
    out.push_str(&"  ".repeat(depth));
    out.push_str(&span.name);
    out.push_str(&format!(" [{}]", fmt_duration_ns(span.duration_ns)));
    for field in &span.fields {
        out.push_str(&format!(" {}={}", field.name, field.value));
    }
    out.push('\n');
    if let Some(kids) = children.get(&span.id) {
        for child in kids {
            render_span(child, children, depth + 1, out);
        }
    }
}

/// Renders a snapshot as an indented span tree followed by the metrics,
/// for `--trace=text` output.
pub fn render_text(snapshot: &TraceSnapshot) -> String {
    let mut out = String::new();
    let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    // Spans are stored in close order; sort display by open (id) order.
    let mut by_open: Vec<&SpanRecord> = snapshot.spans.iter().collect();
    by_open.sort_by_key(|s| s.id);
    for span in &by_open {
        match span.parent {
            Some(parent) => children.entry(parent).or_default().push(span),
            None => roots.push(span),
        }
    }
    out.push_str("trace:\n");
    if roots.is_empty() && snapshot.spans.is_empty() {
        out.push_str("  (no spans recorded)\n");
    }
    for root in roots {
        render_span(root, &children, 1, &mut out);
    }
    if snapshot.dropped_spans > 0 {
        out.push_str(&format!(
            "  ({} spans dropped at cap)\n",
            snapshot.dropped_spans
        ));
    }
    if !snapshot.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, value) in &snapshot.counters {
            out.push_str(&format!("  {name} = {value}\n"));
        }
    }
    if !snapshot.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, value) in &snapshot.gauges {
            out.push_str(&format!("  {name} = {value:.6}\n"));
        }
    }
    if !snapshot.histograms.is_empty() {
        out.push_str("histograms:\n");
        for (name, hist) in &snapshot.histograms {
            out.push_str(&format!(
                "  {name}: count={} sum={} min={} max={} mean={:.2}\n",
                hist.count,
                hist.sum,
                hist.min,
                hist.max,
                hist.mean()
            ));
        }
    }
    out
}

/// The snapshot's stage totals, sorted by descending total wall time
/// (ties by name), for `wfms profile`, the daemon's `profile-snapshot`
/// and the bench harness.
pub fn aggregate_stages(snapshot: &TraceSnapshot) -> Vec<StageSummary> {
    let mut stages = snapshot.stages.clone();
    stages.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
    stages
}

/// Each stage's smallest per-run total, where `run_ends[i]` counts the
/// spans recorded by the end of run `i`: the per-stage time `wfms
/// profile --baseline` compares, on both sides of its share gate. A
/// stage that a run did not record does not count for that run.
pub fn stage_run_minima(spans: &[SpanRecord], run_ends: &[usize]) -> BTreeMap<String, u64> {
    let mut minima = BTreeMap::new();
    let mut begin = 0;
    for &end in run_ends {
        let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
        for span in spans.get(begin..end).unwrap_or_default() {
            let total = totals.entry(span.name.as_str()).or_default();
            *total = total.saturating_add(span.duration_ns);
        }
        for (name, total) in totals {
            minima
                .entry(name.to_string())
                .and_modify(|m: &mut u64| *m = (*m).min(total))
                .or_insert(total);
        }
        begin = end;
    }
    minima
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn sample_snapshot() -> TraceSnapshot {
        let recorder = Recorder::new();
        recorder.enable();
        {
            let mut outer = recorder.span("assess");
            outer.record("candidate", "[2, 2, 2]");
            {
                let _inner = recorder.span("mg1-waiting");
            }
        }
        recorder.counter("perf.mg1.evaluations", 3);
        recorder.gauge("markov.sor.spectral-radius-estimate", 0.42);
        recorder.histogram("markov.linear-solve.iterations", 12);
        recorder.take()
    }

    #[test]
    fn json_round_trip_preserves_snapshot() {
        let snapshot = sample_snapshot();
        let json = to_json(&snapshot);
        assert_eq!(from_json(&json).unwrap(), snapshot);
    }

    #[test]
    fn text_render_shows_tree_and_metrics() {
        let text = render_text(&sample_snapshot());
        assert!(text.contains("assess ["));
        assert!(text.contains("  mg1-waiting ["), "child indented: {text}");
        assert!(text.contains("candidate=[2, 2, 2]"));
        assert!(text.contains("perf.mg1.evaluations = 3"));
        assert!(text.contains("markov.linear-solve.iterations: count=1"));
    }

    /// The per-stage view as it was computed before the recorder kept
    /// stage totals: a fold over the span log, sorted like
    /// [`aggregate_stages`].
    fn fold_span_log(snapshot: &TraceSnapshot) -> Vec<StageSummary> {
        let mut by_name: BTreeMap<&str, StageSummary> = BTreeMap::new();
        for span in &snapshot.spans {
            let entry = by_name
                .entry(span.name.as_str())
                .or_insert_with(|| StageSummary {
                    name: span.name.clone(),
                    count: 0,
                    total_ns: 0,
                    min_ns: u64::MAX,
                    max_ns: 0,
                });
            entry.count += 1;
            entry.total_ns = entry.total_ns.saturating_add(span.duration_ns);
            entry.min_ns = entry.min_ns.min(span.duration_ns);
            entry.max_ns = entry.max_ns.max(span.duration_ns);
        }
        let mut stages: Vec<StageSummary> = by_name.into_values().collect();
        stages.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
        stages
    }

    #[test]
    fn stage_totals_equal_a_fold_over_the_complete_span_log() {
        let recorder = Recorder::new();
        recorder.enable();
        for round in 0..40_u64 {
            let _assess = recorder.span("assess");
            for _ in 0..round % 3 {
                let _mg1 = recorder.span("mg1-waiting");
                if round % 5 == 0 {
                    let _nested = recorder.span("mg1-waiting");
                }
            }
            let _solve = recorder.span("linear-solve");
        }
        let snapshot = recorder.take();
        assert_eq!(snapshot.dropped_spans, 0);
        let folded = fold_span_log(&snapshot);
        assert_eq!(aggregate_stages(&snapshot), folded);
        assert_eq!(folded.len(), 3);
        for stage in &folded {
            assert_eq!(snapshot.span_count(&stage.name), stage.count as usize);
        }
    }

    #[test]
    fn stage_totals_keep_counting_past_the_span_cap() {
        let recorder = Recorder::with_span_cap(3);
        recorder.enable();
        for _ in 0..10 {
            let _span = recorder.span("assess");
        }
        let snapshot = recorder.take();
        assert_eq!((snapshot.spans.len(), snapshot.dropped_spans), (3, 7));
        assert_eq!(fold_span_log(&snapshot)[0].count, 3);
        let stages = aggregate_stages(&snapshot);
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].count, 10);
        assert_eq!(snapshot.span_count("assess"), 10);
    }

    #[test]
    fn without_the_span_log_only_totals_and_metrics_are_kept() {
        let recorder = Recorder::new();
        recorder.enable_without_span_log();
        for _ in 0..1_000 {
            let mut span = recorder.span("transient-distribution");
            assert!(span.is_recording());
            span.record("terms", 10_u64);
        }
        recorder.counter("perf.mg1.evaluations", 2);
        let snapshot = recorder.take();
        assert!(snapshot.spans.is_empty());
        assert_eq!(snapshot.dropped_spans, 0);
        assert_eq!(snapshot.span_count("transient-distribution"), 1_000);
        assert_eq!(snapshot.counters["perf.mg1.evaluations"], 2);
        // Re-enabled with the log, spans are logged again.
        recorder.enable();
        {
            let _span = recorder.span("assess");
        }
        let snapshot = recorder.take();
        assert_eq!(snapshot.spans.len(), 1);
        assert_eq!(snapshot.spans[0].parent, None);
    }

    #[test]
    fn aggregate_groups_by_stage_name() {
        let recorder = Recorder::new();
        recorder.enable();
        for _ in 0..3 {
            let _span = recorder.span("linear-solve");
        }
        {
            let _span = recorder.span("uniformize");
        }
        let stages = aggregate_stages(&recorder.take());
        assert_eq!(stages.len(), 2);
        let solve = stages.iter().find(|s| s.name == "linear-solve").unwrap();
        assert_eq!(solve.count, 3);
        assert!(solve.min_ns <= solve.max_ns);
    }
}
