//! Span recording: a thread-safe [`Recorder`] folding every closed span
//! into per-stage totals ([`StageSummary`]), optionally keeping a log of
//! nested, timed [`SpanRecord`]s, plus the metrics registry defined in
//! [`crate::metrics`].
//!
//! A [`Span`] is an RAII guard: it captures a monotonic start time when
//! opened and, when dropped, adds its duration to its stage's totals
//! and — while the span log is on — writes a [`SpanRecord`]. Nesting is
//! tracked per thread — each thread keeps a stack of the span ids it
//! currently has open, so spans opened on different threads never parent
//! each other spuriously.
//!
//! The stage totals are keyed by the static stage name: once a stage has
//! closed its first span, closing another allocates nothing. Without the
//! span log a recorder's memory is bounded by its number of stage and
//! metric names, however long it runs; that is how the `wfms serve`
//! daemon records. The one-shot CLI keeps the log, which its `--trace`
//! and `wfms profile` outputs need.
//!
//! When the recorder is disabled, opening a span is a single relaxed
//! atomic load and the guard holds no data at all (the no-op sink).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::metrics::{HistogramSnapshot, MetricsRegistry};

/// Default cap on the span log; protects long search loops from
/// unbounded memory growth. Spans past the cap are counted but dropped
/// from the log (disclosed as `dropped_spans`); the stage totals keep
/// counting them. Override per process with the `WFMS_OBS_SPAN_CAP`
/// environment variable (read once, at first use), or per recorder with
/// [`Recorder::with_span_cap`].
pub const SPAN_CAP: usize = 100_000;

fn span_cap_from_env() -> usize {
    static CAP: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("WFMS_OBS_SPAN_CAP")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|cap| *cap > 0)
            .unwrap_or(SPAN_CAP)
    })
}

/// A field value attached to a span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FieldValue {
    /// Unsigned integer field (counts, sizes, iterations).
    U64(u64),
    /// Signed integer field.
    I64(i64),
    /// Floating-point field (rates, residuals, probabilities).
    F64(f64),
    /// Boolean field (accept/reject decisions, goal checks).
    Bool(bool),
    /// Free-form text field (method names, chart names).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v:.6}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// A named field recorded on a span, in insertion order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanField {
    /// Field name (`states`, `iterations`, `residual`, …).
    pub name: String,
    /// Field value.
    pub value: FieldValue,
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Sequential id, unique within a snapshot; ids increase in span
    /// *open* order.
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Stable stage name (see the crate docs for the naming scheme).
    pub name: String,
    /// Offset of the span open relative to the recorder epoch, in
    /// nanoseconds of monotonic time.
    pub start_ns: u64,
    /// Wall time between open and close, in nanoseconds.
    pub duration_ns: u64,
    /// Fields recorded on the span, in insertion order.
    pub fields: Vec<SpanField>,
}

impl SpanRecord {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldValue> {
        self.fields
            .iter()
            .find(|f| f.name == name)
            .map(|f| &f.value)
    }
}

/// Wall-time totals of one stage: every closed span with this name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSummary {
    /// Stage (span) name.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Total wall time across those spans, in nanoseconds. Nested
    /// same-name spans each contribute their own duration.
    pub total_ns: u64,
    /// Smallest single-span duration, in nanoseconds.
    pub min_ns: u64,
    /// Largest single-span duration, in nanoseconds.
    pub max_ns: u64,
}

impl StageSummary {
    /// Totals of a stage that has closed no span yet.
    fn empty(name: &str) -> StageSummary {
        StageSummary {
            name: name.to_string(),
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Adds one closed span of `duration_ns`.
    fn add(&mut self, duration_ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(duration_ns);
        self.min_ns = self.min_ns.min(duration_ns);
        self.max_ns = self.max_ns.max(duration_ns);
    }

    /// Mean span duration in nanoseconds (0 when `count` is 0).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// A point-in-time export of everything a [`Recorder`] collected.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TraceSnapshot {
    /// The span log: completed spans in close order (children close
    /// before parents). Empty when the recorder ran without the log.
    pub spans: Vec<SpanRecord>,
    /// Spans left out of the log because [`SPAN_CAP`] was reached.
    pub dropped_spans: u64,
    /// Per-stage totals over every closed span, logged or not, in name
    /// order.
    #[serde(default)]
    pub stages: Vec<StageSummary>,
    /// Monotonic counters, by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges, by name.
    pub gauges: BTreeMap<String, f64>,
    /// Power-of-two bucket histograms, by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl TraceSnapshot {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.stages.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
    }

    /// Number of closed spans with the given stage name, read from the
    /// stage totals: it counts past the span cap and without the log.
    pub fn span_count(&self, name: &str) -> usize {
        self.stages
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.count as usize)
    }
}

#[derive(Clone)]
struct Inner {
    spans: Vec<SpanRecord>,
    dropped_spans: u64,
    next_id: u64,
    stages: BTreeMap<&'static str, StageSummary>,
    metrics: MetricsRegistry,
}

impl Inner {
    fn new() -> Self {
        Inner {
            spans: Vec::new(),
            dropped_spans: 0,
            next_id: 0,
            stages: BTreeMap::new(),
            metrics: MetricsRegistry::default(),
        }
    }

    fn export(self) -> TraceSnapshot {
        TraceSnapshot {
            spans: self.spans,
            dropped_spans: self.dropped_spans,
            stages: self.stages.into_values().collect(),
            counters: self.metrics.counters_snapshot(),
            gauges: self.metrics.gauges_snapshot(),
            histograms: self.metrics.histograms_snapshot(),
        }
    }
}

thread_local! {
    // Per-(recorder, thread) stack of open span ids. Keyed by recorder
    // address so unit tests with local recorders don't interleave with
    // the global one.
    static OPEN_STACKS: RefCell<Vec<(usize, Vec<u64>)>> = const { RefCell::new(Vec::new()) };
}

fn stack_push(recorder: usize, id: u64) {
    OPEN_STACKS.with(|stacks| {
        let mut stacks = stacks.borrow_mut();
        if let Some((_, stack)) = stacks.iter_mut().find(|(key, _)| *key == recorder) {
            stack.push(id);
        } else {
            stacks.push((recorder, vec![id]));
        }
    });
}

fn stack_top(recorder: usize) -> Option<u64> {
    OPEN_STACKS.with(|stacks| {
        stacks
            .borrow()
            .iter()
            .find(|(key, _)| *key == recorder)
            .and_then(|(_, stack)| stack.last().copied())
    })
}

fn stack_pop(recorder: usize, id: u64) {
    OPEN_STACKS.with(|stacks| {
        let mut stacks = stacks.borrow_mut();
        if let Some(pos) = stacks.iter().position(|(key, _)| *key == recorder) {
            // Guards drop in reverse open order within a thread, but be
            // tolerant of out-of-order drops: remove the matching id.
            let stack = &mut stacks[pos].1;
            if let Some(idx) = stack.iter().rposition(|open| *open == id) {
                stack.remove(idx);
            }
            if stack.is_empty() {
                stacks.remove(pos);
            }
        }
    });
}

/// Thread-safe collector of spans and metrics.
///
/// A recorder starts **disabled**; every instrumentation call checks a
/// relaxed atomic and returns immediately while disabled. Enable it
/// with or without the span log, run the instrumented code, then
/// [`take`](Recorder::take) or [`snapshot`](Recorder::snapshot) the
/// collected trace.
pub struct Recorder {
    enabled: AtomicBool,
    span_log: AtomicBool,
    epoch: Instant,
    span_cap: usize,
    // Only the global recorder feeds the process-wide timeline journal
    // (crate::timeline); local test recorders keep this false so their
    // spans never leak into a concurrently recorded timeline.
    timeline_hook: bool,
    inner: Mutex<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Creates a disabled recorder. The span cap comes from
    /// `WFMS_OBS_SPAN_CAP` when set, else [`SPAN_CAP`].
    pub fn new() -> Self {
        Recorder {
            enabled: AtomicBool::new(false),
            span_log: AtomicBool::new(false),
            epoch: Instant::now(),
            span_cap: span_cap_from_env(),
            timeline_hook: false,
            inner: Mutex::new(Inner::new()),
        }
    }

    /// Creates a disabled recorder with an explicit span cap (test
    /// hook; production code uses `WFMS_OBS_SPAN_CAP`).
    pub fn with_span_cap(span_cap: usize) -> Self {
        let mut recorder = Self::new();
        recorder.span_cap = span_cap.max(1);
        recorder
    }

    /// Creates the process-global recorder: identical to [`new`](Self::new)
    /// except that its spans also emit timeline begin/end events while
    /// [`crate::timeline`] is enabled.
    pub(crate) fn new_global() -> Self {
        let mut recorder = Self::new();
        recorder.timeline_hook = true;
        recorder
    }

    /// The span cap in effect for this recorder.
    pub fn span_cap(&self) -> usize {
        self.span_cap
    }

    /// Starts collecting stage totals, metrics and the span log.
    pub fn enable(&self) {
        self.span_log.store(true, Ordering::Release);
        self.enabled.store(true, Ordering::Release);
    }

    /// Starts collecting stage totals and metrics, without the span log:
    /// spans opened from now on record no id, parent or fields, and the
    /// recorder's memory stays bounded however many close.
    pub fn enable_without_span_log(&self) {
        self.span_log.store(false, Ordering::Release);
        self.enabled.store(true, Ordering::Release);
    }

    /// Stops collecting; already-recorded data is kept.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// True while collecting.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Drops all collected spans, stage totals and metrics (enabled state
    /// unchanged).
    pub fn reset(&self) {
        let mut inner = self.inner.lock().unwrap();
        *inner = Inner::new();
    }

    fn key(&self) -> usize {
        self as *const Recorder as usize
    }

    /// Opens a span. The returned guard records the span when dropped;
    /// while the recorder is disabled the guard is inert. On the global
    /// recorder the guard additionally emits timeline begin/end events
    /// while [`crate::timeline`] is enabled — even when span recording
    /// itself is off, so `--timeline` works without `--trace`.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        let timeline = self.timeline_hook && crate::timeline::is_enabled();
        if timeline {
            crate::timeline::emit(name, crate::timeline::TimelinePhase::Begin);
        }
        let timeline = timeline.then_some(name);
        if !self.is_enabled() {
            return Span {
                active: None,
                timeline,
            };
        }
        let logged = self.span_log.load(Ordering::Relaxed).then(|| {
            let id = {
                let mut inner = self.inner.lock().unwrap();
                let id = inner.next_id;
                inner.next_id += 1;
                id
            };
            let parent = stack_top(self.key());
            stack_push(self.key(), id);
            LoggedSpan {
                id,
                parent,
                fields: Vec::new(),
            }
        });
        Span {
            active: Some(ActiveSpan {
                recorder: self,
                name,
                opened: Instant::now(),
                logged,
            }),
            timeline,
        }
    }

    /// Adds `delta` to the named counter (no-op while disabled).
    pub fn counter(&self, name: &'static str, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        self.inner.lock().unwrap().metrics.counter(name, delta);
    }

    /// Sets the named gauge to `value` (no-op while disabled).
    pub fn gauge(&self, name: &'static str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        self.inner.lock().unwrap().metrics.gauge(name, value);
    }

    /// Records `value` into the named power-of-two histogram (no-op
    /// while disabled).
    pub fn histogram(&self, name: &'static str, value: u64) {
        if !self.is_enabled() {
            return;
        }
        self.inner.lock().unwrap().metrics.histogram(name, value);
    }

    /// Copies out everything collected so far without clearing it.
    pub fn snapshot(&self) -> TraceSnapshot {
        self.inner.lock().unwrap().clone().export()
    }

    /// Takes everything collected so far, leaving the recorder empty.
    pub fn take(&self) -> TraceSnapshot {
        let mut inner = self.inner.lock().unwrap();
        std::mem::replace(&mut *inner, Inner::new()).export()
    }

    fn finish_span(&self, span: ActiveSpan<'_>) {
        let duration_ns = span.opened.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let record = span.logged.map(|logged| {
            stack_pop(self.key(), logged.id);
            let start_ns = span
                .opened
                .duration_since(self.epoch)
                .as_nanos()
                .min(u128::from(u64::MAX)) as u64;
            SpanRecord {
                id: logged.id,
                parent: logged.parent,
                name: span.name.to_string(),
                start_ns,
                duration_ns,
                fields: logged.fields,
            }
        });
        let mut inner = self.inner.lock().unwrap();
        inner
            .stages
            .entry(span.name)
            .or_insert_with(|| StageSummary::empty(span.name))
            .add(duration_ns);
        if let Some(record) = record {
            if inner.spans.len() < self.span_cap {
                inner.spans.push(record);
            } else {
                inner.dropped_spans += 1;
            }
        }
    }
}

struct ActiveSpan<'a> {
    recorder: &'a Recorder,
    name: &'static str,
    opened: Instant,
    /// Set while the span log is on.
    logged: Option<LoggedSpan>,
}

/// What the span log keeps of a span beyond its stage totals.
struct LoggedSpan {
    id: u64,
    parent: Option<u64>,
    fields: Vec<SpanField>,
}

/// RAII guard for an open span; see [`Recorder::span`] and the
/// [`span!`](crate::span) macro. Dropping the guard closes the span.
pub struct Span<'a> {
    active: Option<ActiveSpan<'a>>,
    // Set when this span owes the timeline an End event at drop time
    // (independent of `active`: timeline emission also runs while the
    // span recorder itself is disabled).
    timeline: Option<&'static str>,
}

impl Span<'_> {
    /// Records a field on the span (no-op unless the recorder was
    /// enabled with the span log at open time). Re-recording a name
    /// overwrites its value.
    pub fn record(&mut self, name: &str, value: impl Into<FieldValue>) {
        if let Some(logged) = self.active.as_mut().and_then(|a| a.logged.as_mut()) {
            let value = value.into();
            if let Some(existing) = logged.fields.iter_mut().find(|f| f.name == name) {
                existing.value = value;
            } else {
                logged.fields.push(SpanField {
                    name: name.to_string(),
                    value,
                });
            }
        }
    }

    /// True when this span is actually collecting (recorder enabled at
    /// open time).
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            active.recorder.finish_span(active);
        }
        if let Some(name) = self.timeline.take() {
            crate::timeline::emit(name, crate::timeline::TimelinePhase::End);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_inert() {
        let recorder = Recorder::new();
        {
            let mut span = recorder.span("uniformize");
            assert!(!span.is_recording());
            span.record("states", 10_u64);
        }
        recorder.counter("c", 1);
        recorder.gauge("g", 1.0);
        recorder.histogram("h", 1);
        assert!(recorder.snapshot().is_empty());
    }

    #[test]
    fn nesting_records_parent_links() {
        let recorder = Recorder::new();
        recorder.enable();
        {
            let _outer = recorder.span("outer");
            {
                let _inner = recorder.span("inner");
            }
        }
        let snapshot = recorder.take();
        assert_eq!(snapshot.spans.len(), 2);
        // Close order: inner first.
        assert_eq!(snapshot.spans[0].name, "inner");
        assert_eq!(snapshot.spans[1].name, "outer");
        assert_eq!(snapshot.spans[0].parent, Some(snapshot.spans[1].id));
        assert_eq!(snapshot.spans[1].parent, None);
    }

    #[test]
    fn record_overwrites_existing_field() {
        let recorder = Recorder::new();
        recorder.enable();
        {
            let mut span = recorder.span("linear-solve");
            span.record("iterations", 1_u64);
            span.record("iterations", 7_u64);
        }
        let snapshot = recorder.take();
        assert_eq!(snapshot.spans[0].fields.len(), 1);
        assert_eq!(
            snapshot.spans[0].field("iterations"),
            Some(&FieldValue::U64(7))
        );
    }

    #[test]
    fn span_cap_drops_and_discloses() {
        let recorder = Recorder::with_span_cap(2);
        assert_eq!(recorder.span_cap(), 2);
        recorder.enable();
        for _ in 0..5 {
            let _span = recorder.span("linear-solve");
        }
        let snapshot = recorder.take();
        assert_eq!(snapshot.spans.len(), 2);
        assert_eq!(snapshot.dropped_spans, 3);
    }

    #[test]
    fn take_clears_collected_data() {
        let recorder = Recorder::new();
        recorder.enable();
        recorder.counter("c", 3);
        let first = recorder.take();
        assert_eq!(first.counters.get("c"), Some(&3));
        assert!(recorder.take().is_empty());
    }

    /// `stages` is `#[serde(default)]`: a snapshot written without the
    /// per-stage totals decodes with none.
    #[test]
    fn snapshot_without_stages_decodes_with_none() {
        let recorder = Recorder::new();
        recorder.enable();
        recorder.counter("c", 3);
        let text = serde_json::to_string(&recorder.take()).unwrap();
        let without = text.replace(r#""stages":[],"#, "");
        assert_ne!(without, text);
        let decoded: TraceSnapshot = serde_json::from_str(&without).unwrap();
        assert!(decoded.stages.is_empty());
        assert_eq!(decoded.counters.get("c"), Some(&3));
    }
}
