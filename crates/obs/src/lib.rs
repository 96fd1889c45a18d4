//! # wfms-obs
//!
//! Structured tracing, solver metrics, and profiling hooks for the
//! analysis stack.
//!
//! The paper's method is a pipeline of numerical stages — uniformized
//! CTMC first-passage analysis (Sec. 4), birth–death steady-state solves
//! (Sec. 5), performability reward sums (Sec. 6), and the greedy
//! configuration loop (Sec. 7). This crate makes those stages visible:
//!
//! * a lightweight **span** API ([`span!`]) with nesting, monotonic
//!   timing, and thread-safe collection into a global [`Recorder`];
//! * a **metrics registry** of named counters, gauges, and power-of-two
//!   bucket histograms (no allocation on the disabled hot path);
//! * pluggable **sinks**: a text tree renderer ([`render_text`]), a JSON
//!   exporter ([`to_json`] / [`from_json`]), and the implicit no-op sink —
//!   when recording is disabled every instrumentation point reduces to a
//!   single relaxed atomic load.
//!
//! Recording is **off by default**. The CLI enables it for
//! `--trace[=text|json]`, `--trace-out`, `--timeline` and `wfms
//! profile`; the bench harness enables it to emit `BENCH_obs.json` stage
//! metrics. Every closed span is folded into per-stage totals
//! ([`StageSummary`], read by [`aggregate_stages`]); the span log of
//! individual spans is optional. The CLI keeps it; the `wfms serve`
//! daemon enables the recorder without it
//! ([`Recorder::enable_without_span_log`]), so its memory stays flat.
//!
//! The span log also answers *when* each stage ran and on *which*
//! thread: every logged span carries its start, duration and thread,
//! and [`instant`] markers (the decision journal's `decision-*` events)
//! enter the same log. [`to_chrome_trace`] draws it as Chrome Trace
//! Format JSON with one track per thread, viewable in Perfetto; the CLI
//! writes it for `--timeline <file>`. The log is bounded by
//! `WFMS_OBS_SPAN_CAP` and discloses what it dropped as
//! `dropped_spans`. The stable instant-event vocabulary lives in
//! DESIGN.md §7 next to the decision-journal reasons.
//!
//! ## Stable stage names
//!
//! Like the `W`/`M`/`Q`/`C` diagnostic codes of `wfms-diag`, span and
//! metric names are a stable interface (tests and CI assert on them):
//!
//! | span | emitted by | key fields |
//! |---|---|---|
//! | `workflow-analysis` | `wfms-perf` | `chart`, `states` |
//! | `turnaround-distribution` | `wfms-perf` | `states`, `epsilon` |
//! | `first-passage` | `wfms-markov` | `states` |
//! | `uniformize` | `wfms-markov` | `states`, `rate` |
//! | `transient-distribution` | `wfms-markov` | `products`, `probes` (one span per squaring table — one per turnaround percentile or CDF call, and one per workflow on a `wfms serve` tenant's first `assess`; `products` counts the table's matrix products, `K` for its base factor plus one per squaring, and `probes` its CDF evaluations) |
//! | `reward-uniformized` | `wfms-markov` | `z_max`, `residual_mass` |
//! | `steady-state` | `wfms-markov` | `states`, `method`, `iterations` |
//! | `avail-build` | `wfms-avail` | `states`, `types`, `backend` |
//! | `avail-steady-state` | `wfms-avail` | `states`, `backend` (`dense` for the LU oracle, or `product` — one span per server type with `states` = `Y_x + 1`, in each assessment-engine record fill and each product-form model) |
//! | `avail-product-form` | `wfms-avail` | `states`, `types` |
//! | `mg1-waiting` | `wfms-perf` | `types` (one span per `waiting_times` call, and one per single-type kernel call with `types` = 1) |
//! | `performability` | `wfms-performability` | `states`, `degraded`, `serving`; the per-type fold records `types`, `serving` |
//! | `assess` | `wfms-config` | `candidate`, `w_max`, `availability` |
//! | `search-candidate` | `wfms-config` | `candidate`, `accepted` |
//! | `greedy-search` / `exhaustive-search` / `bnb-search` / `annealing-search` | `wfms-config` | `evaluations`, `cost` |
//! | `simulate` | `wfms-sim` | `events`, `warmup_minutes`, `measured_minutes` |
//! | `spec-decode` | `wfms-cli` | `bytes` (one span per JSON document a command reads and decodes, such as the registry and the workload; `bytes` is the file's size) |
//!
//! Counters and histograms are dotted lowercase
//! (`<crate>.<subject>.<aspect>`). The pipeline metrics:
//!
//! | metric | kind | emitted by | meaning |
//! |---|---|---|---|
//! | `markov.power-iteration.iterations` | histogram | `wfms-markov` | power-iteration steps per power-iteration steady-state solve |
//! | `markov.steady-state.iterations` | histogram | `wfms-markov` | sweeps per CTMC steady-state solve |
//! | `markov.poisson.truncation-steps` | histogram | `wfms-markov` | uniformization truncation depth `z_max` |
//! | `markov.poisson.terms` | histogram | `wfms-markov` | end `z` of the Poisson window per CDF evaluation of an absorbed-mass sequence (one past its last summed term; `Uniformized::absorption_cdf`, `Uniformized::transient_distribution`); the window drops at most `ε` of the Poisson mass; the turnaround percentile reads its CDF from a squaring table and records none |
//! | `avail.state-space.size` | gauge | `wfms-avail` / `wfms-config` | `∏(Y_x+1)` states, saturating at `usize::MAX`, of the last availability model (the engine sets it per candidate) |
//! | `perf.mg1.evaluations` | counter | `wfms-perf` | M/G/1 waiting-time kernel evaluations, one per server type evaluated |
//! | `performability.state-evaluations` | counter | `wfms-performability` | system states evaluated by the joint fold, or `(type, up-count)` terms summed by the per-type fold (`wfms profile --check` gates on it staying nonzero) |
//! | `performability.degraded-evaluations` | counter | `wfms-performability` | evaluated states that were degraded |
//! | `config.assessments` | counter | `wfms-config` | candidate assessments completed |
//! | `config.annealing.accepted` | counter | `wfms-config` | accepted Metropolis moves per annealing run |
//! | `config.annealing.rejected` | counter | `wfms-config` | rejected Metropolis moves per annealing run |
//! | `sim.events` | counter | `wfms-sim` | discrete events processed per simulation run |
//!
//! The assessment engine of `wfms-config` adds two stable metric
//! names of its own:
//!
//! | metric | kind | emitted by | meaning |
//! |---|---|---|---|
//! | `engine.cache-hit` | counter | `wfms-config` | per-type record lookups answered from the record cache (one lookup per type per candidate) |
//! | `engine.cache-miss` | counter | `wfms-config` | per-type record lookups that had to fill the record |
//!
//! The graceful-degradation layer (DESIGN.md §10) adds two more; the
//! first must stay **zero** on a clean run, and `wfms profile --check`
//! gates on exactly that:
//!
//! | metric | kind | emitted by | meaning |
//! |---|---|---|---|
//! | `config.quarantined` | counter | `wfms-config` | candidates whose assessment failed irrecoverably and were skipped by a search |
//! | `config.degraded-assessments` | counter | `wfms-config` | assessments that carried a `DegradationReport` |
//!
//! The serving resilience layer (DESIGN.md §13) adds five more. The
//! first two must stay **zero** on a clean daemon run — a nonzero
//! value means a request panicked or a tenant's circuit breaker
//! opened — and the CI chaos job gates on exactly that:
//!
//! | metric | kind | emitted by | meaning |
//! |---|---|---|---|
//! | `serve.worker-panic` | counter | `wfms-serve` | requests whose handler panicked and was contained by the worker watchdog (the pool stays at full strength) |
//! | `serve.breaker-open` | counter | `wfms-serve` | open (or re-open) edges of a per-tenant circuit breaker |
//! | `serve.accept-error` | counter | `wfms-serve` | transient accept-loop failures, retried under bounded backoff |
//! | `serve.deadline-exceeded` | counter | `wfms-serve` | requests abandoned at the per-request compute deadline |
//! | `serve.shed-undelivered` | counter | `wfms-serve` | shed connections whose `overloaded` response could not be delivered (client never read, or the shed lane was saturated) |
//!
//! ```
//! wfms_obs::global().reset();
//! wfms_obs::enable();
//! {
//!     let mut outer = wfms_obs::span!("workflow-analysis", states = 42_u64);
//!     outer.record("chart", "EP");
//!     let _inner = wfms_obs::span!("first-passage", states = 42_u64);
//! }
//! wfms_obs::counter("perf.mg1.evaluations", 3);
//! wfms_obs::disable();
//! let snapshot = wfms_obs::global().take();
//! assert_eq!(snapshot.spans.len(), 2);
//! let json = wfms_obs::to_json(&snapshot);
//! assert_eq!(wfms_obs::from_json(&json).unwrap(), snapshot);
//! ```

#![warn(missing_docs)]

pub mod metrics;
pub mod recorder;
pub mod sink;

pub use metrics::{histogram_bucket_bounds, histogram_bucket_index, HistogramSnapshot};
pub use recorder::{
    FieldValue, InstantRecord, Recorder, Span, SpanField, SpanRecord, StageSummary, TraceSnapshot,
};
pub use sink::{
    aggregate_stages, from_json, render_text, stage_run_minima, to_chrome_trace, to_json,
};

use std::sync::OnceLock;

static GLOBAL: OnceLock<Recorder> = OnceLock::new();

/// The process-wide recorder used by [`span!`] and the free helpers.
pub fn global() -> &'static Recorder {
    GLOBAL.get_or_init(Recorder::new)
}

/// Turns global recording on.
pub fn enable() {
    global().enable();
}

/// Turns global recording off (instrumentation reverts to the no-op sink).
pub fn disable() {
    global().disable();
}

/// True when the global recorder is collecting.
pub fn is_enabled() -> bool {
    global().is_enabled()
}

/// Copies out everything the global recorder has collected so far
/// without draining it. This is the live export long-running processes
/// (the `wfms serve` metrics endpoint) serve repeatedly; one-shot
/// consumers that want reset-on-read semantics use
/// [`Recorder::take`] via [`global`] instead.
pub fn snapshot() -> TraceSnapshot {
    global().snapshot()
}

/// Adds `delta` to the named global counter (no-op while disabled).
pub fn counter(name: &'static str, delta: u64) {
    global().counter(name, delta);
}

/// Sets the named global gauge (no-op while disabled).
pub fn gauge(name: &'static str, value: f64) {
    global().gauge(name, value);
}

/// Records `value` into the named global power-of-two histogram (no-op
/// while disabled).
pub fn histogram(name: &'static str, value: u64) {
    global().histogram(name, value);
}

/// Logs a zero-duration marker on the calling thread in the global
/// recorder's span log (see [`Recorder::instant`]). Use the stable names
/// from the DESIGN.md §7 vocabulary.
pub fn instant(name: &'static str) {
    global().instant(name);
}

/// Opens a named span on the global [`Recorder`], optionally recording
/// `key = value` fields, and returns the guard. The span closes (and its
/// duration is recorded) when the guard drops; bind it to a named
/// variable, not `_`.
///
/// ```
/// let _span = wfms_obs::span!("uniformize", states = 17_usize, rate = 0.5);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::global().span($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {{
        let mut __wfms_obs_span = $crate::global().span($name);
        $(__wfms_obs_span.record(stringify!($key), $value);)+
        __wfms_obs_span
    }};
}
