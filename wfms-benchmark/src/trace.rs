//! Benchmark-side spans and the per-layer metrics computed from them.
//!
//! A traced op runs exactly as in the timed run, with the `wfms-obs`
//! recorder enabled so the program's own counters can be read back.
//! The benchmark then replays the op's layer calls through the layers'
//! public functions, each wrapped in a span recorded here. A span keeps
//! its name, start, end, parent and op id; spans stay in memory and are
//! written to `trace.json` when the run ends. The benchmark records no
//! `wfms-obs` span or counter of its own.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use serde::Serialize;
use wfms_obs::TraceSnapshot;

/// Span and op ids, unique across the caller threads of one run.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A fresh span or op id.
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// One recorded span; times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
struct SpanRecord {
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

impl SpanRecord {
    fn duration_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// The spans and per-op counts of one caller thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    /// Per-run totals of counts (requests, states, evaluations, …).
    sums: BTreeMap<&'static str, f64>,
    /// Traced ops.
    ops: u64,
}

impl Tracer {
    /// An empty tracer whose times count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            sums: BTreeMap::new(),
            ops: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a new op and its root span; returns `(op, root span)`.
    pub fn begin_op(&mut self) -> (u64, u64) {
        self.ops += 1;
        let op = next_id();
        (op, self.begin(op, None, "op"))
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, op: u64, parent: Option<u64>, name: impl Into<String>) -> u64 {
        let id = next_id();
        let start_ns = self.now_ns();
        self.spans.push(SpanRecord {
            id,
            parent,
            op,
            name: name.into(),
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: u64) {
        let now = self.now_ns();
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            span.end_ns = now;
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in milliseconds.
    pub fn time<T>(
        &mut self,
        op: u64,
        parent: u64,
        name: impl Into<String>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(op, Some(parent), name);
        let value = f();
        self.end(id);
        let ms = self.spans.last().map_or(0.0, SpanRecord::duration_ms);
        (value, ms)
    }

    /// Adds `value` to the run total `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_insert(0.0) += value;
    }

    /// Adds the counters of a drained `wfms-obs` snapshot to the totals.
    pub fn absorb(&mut self, snapshot: &TraceSnapshot) {
        let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0) as f64;
        self.add("markov.poisson_terms", {
            snapshot
                .histograms
                .get("markov.poisson.terms")
                .map_or(0.0, |h| h.sum as f64)
        });
        self.add(
            "performability.state_evals",
            counter("performability.state-evaluations"),
        );
        self.add("queueing.mg1_evals", counter("perf.mg1.evaluations"));
        self.add("cache.hits", counter("engine.cache-hit"));
        self.add("cache.misses", counter("engine.cache-miss"));
    }

    /// Folds another caller's spans and totals into this one.
    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        for (name, value) in other.sums {
            self.add(name, value);
        }
        self.ops += other.ops;
    }

    /// Traced ops so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Run total `name` (0 when never added).
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Summed duration of the spans named `name`, in ms, and their count.
    pub fn span_total(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(ms, n), s| (ms + s.duration_ms(), n + 1))
    }

    /// Mean duration of the spans named `name`, in ms (0 when none).
    pub fn span_mean(&self, name: &str) -> f64 {
        let (ms, n) = self.span_total(name);
        if n == 0 {
            0.0
        } else {
            ms / n as f64
        }
    }

    /// Writes every span, with its self time, to `path` as JSON.
    ///
    /// # Errors
    /// A message when the file cannot be written.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> Result<(), String> {
        #[derive(Serialize)]
        struct SpanOut {
            id: u64,
            parent: Option<u64>,
            op: u64,
            name: String,
            start_us: f64,
            end_us: f64,
            self_us: f64,
        }
        #[derive(Serialize)]
        struct TraceOut {
            workload: String,
            seed: u64,
            ops: u64,
            spans: Vec<SpanOut>,
        }
        let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(parent) = s.parent {
                *covered.entry(parent).or_insert(0) += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let total = s.end_ns.saturating_sub(s.start_ns);
                let children = covered.get(&s.id).copied().unwrap_or(0);
                SpanOut {
                    id: s.id,
                    parent: s.parent,
                    op: s.op,
                    name: s.name.clone(),
                    start_us: s.start_ns as f64 / 1e3,
                    end_us: s.end_ns as f64 / 1e3,
                    self_us: total.saturating_sub(children) as f64 / 1e3,
                }
            })
            .collect();
        let text = serde_json::to_string(&TraceOut {
            workload: workload.to_string(),
            seed,
            ops: self.ops,
            spans,
        })
        .map_err(|e| e.to_string())?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum() {
        let mut t = Tracer::new(Instant::now());
        let (op, root) = t.begin_op();
        let ((), a) = t.time(op, root, "layer", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let ((), b) = t.time(op, root, "layer", || {});
        t.end(root);
        let (total, n) = t.span_total("layer");
        assert_eq!(n, 2);
        assert!((total - (a + b)).abs() < 1e-9);
        assert!(a >= 2.0);
        assert_eq!(t.ops(), 1);
        assert!(t.span_total("op").0 >= total);
    }
}
