//! The wire protocol shared by the `wfms` CLI and the `wfms serve`
//! daemon.
//!
//! Both transports run one typed core (`wfms_serve::Tenant`): the
//! one-shot CLI calls it in-process on the documents it read, with no
//! envelope; the daemon receives a [`Request`] as one line of JSON over
//! TCP, decodes its params, calls the same core and writes the
//! [`Response`] back as one line of JSON. A clean one-shot CLI result
//! is therefore byte-identical to what a daemon client receives for the
//! same inputs.
//!
//! ## Framing
//!
//! One request per line, one response per line: each envelope is a
//! single compact JSON object terminated by `\n` (no embedded
//! newlines). Serialization is deterministic — object keys are ordered
//! — so identical requests produce byte-identical response lines.
//!
//! ## Document forms
//!
//! [`Request`] and the params that carry the two spec documents
//! ([`AssessParams`], [`RecommendParams`], [`LintParams`]) take the
//! form of those values as a type parameter, [`Value`] by default.
//! Clients build and send the `Value` form. The daemon decodes a
//! request line as `Request<RawValue>` and the method's params as
//! `AssessParams<RawValue>` (and so on): each [`RawValue`] keeps the
//! exact text of its value, so a request whose documents match a warm
//! tenant's builds no document at all. Both forms are one schema: the
//! same fields, the same container names, and so the same error texts.
//!
//! [`RawValue`]: serde_json::RawValue
//!
//! ## Versioning
//!
//! Every envelope carries a `v` field, currently
//! [`PROTOCOL_VERSION`]. A server rejects requests whose version it
//! does not speak with an [`ERR_UNSUPPORTED_VERSION`] error instead of
//! guessing.
//!
//! ## Method names
//!
//! Method names are stable kebab-case strings (the `METHOD_*`
//! constants). They are part of the public contract: audit check
//! `A015` diffs them against the DESIGN.md §13 method table and the
//! README Serving table in both directions, so a rename without a doc
//! update fails `wfms audit`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};
use serde_json::Value;

/// The protocol version this crate speaks; carried in the `v` field of
/// every [`Request`] and [`Response`].
pub const PROTOCOL_VERSION: u64 = 1;

// ------------------------------------------------------------- methods

/// Assess one explicit configuration against goals.
pub const METHOD_ASSESS: &str = "assess";
/// Search for a minimum-cost configuration (greedy, exhaustive,
/// branch-and-bound, or annealing — see [`RecommendParams::search`]).
pub const METHOD_RECOMMEND: &str = "recommend";
/// Static multi-pass diagnostics over a registry + workload.
pub const METHOD_LINT: &str = "lint";
/// Aggregated per-stage timings and metric totals of the live
/// observability recorder.
pub const METHOD_PROFILE_SNAPSHOT: &str = "profile-snapshot";
/// The live observability snapshot plus per-tenant engine-cache and
/// queue gauges.
pub const METHOD_METRICS: &str = "metrics";
/// Graceful shutdown (the SIGTERM-equivalent request): the server
/// acknowledges, stops accepting, drains in-flight work up to the drain
/// deadline, and exits cleanly.
pub const METHOD_SHUTDOWN: &str = "shutdown";
/// Serving-layer liveness: ready/draining state, queue gauges, breaker
/// states, and the worker-panic tally (the probe a load balancer or
/// retry client polls).
pub const METHOD_HEALTH: &str = "health";

/// Every method name the protocol defines, in table order.
pub fn methods() -> [&'static str; 7] {
    [
        METHOD_ASSESS,
        METHOD_RECOMMEND,
        METHOD_LINT,
        METHOD_PROFILE_SNAPSHOT,
        METHOD_METRICS,
        METHOD_SHUTDOWN,
        METHOD_HEALTH,
    ]
}

// --------------------------------------------------------- error kinds

/// The request line was not a well-formed [`Request`] envelope.
pub const ERR_BAD_REQUEST: &str = "bad-request";
/// The envelope's `v` is not a version this server speaks.
pub const ERR_UNSUPPORTED_VERSION: &str = "unsupported-version";
/// The method name is none of the `METHOD_*` constants.
pub const ERR_UNKNOWN_METHOD: &str = "unknown-method";
/// The `params` object did not decode or validate for the method.
pub const ERR_INVALID_PARAMS: &str = "invalid-params";
/// The configuration tool failed (mirrors the CLI's `ConfigError`
/// vocabulary; the message carries the exact tool error text).
pub const ERR_TOOL: &str = "tool";
/// The lint pass found error-severity findings (the findings
/// themselves are in the error message's report).
pub const ERR_LINT: &str = "lint";
/// The bounded work queue is full; retry later (the `429` of this
/// protocol — the server sheds load instead of growing memory).
pub const ERR_OVERLOADED: &str = "overloaded";
/// The handler overran the per-request compute deadline; the work was
/// abandoned and the request must be retried (or the deadline raised).
pub const ERR_DEADLINE_EXCEEDED: &str = "deadline-exceeded";
/// The server cannot serve this request right now — the tenant's
/// circuit breaker is open or the daemon is draining. Retryable; the
/// message carries a `retry after <n>ms` hint when one is known.
pub const ERR_UNAVAILABLE: &str = "unavailable";

/// Every error kind the protocol defines, in table order.
pub fn errors() -> [&'static str; 9] {
    [
        ERR_BAD_REQUEST,
        ERR_UNSUPPORTED_VERSION,
        ERR_UNKNOWN_METHOD,
        ERR_INVALID_PARAMS,
        ERR_TOOL,
        ERR_LINT,
        ERR_OVERLOADED,
        ERR_DEADLINE_EXCEEDED,
        ERR_UNAVAILABLE,
    ]
}

/// True when a client should retry the same request after backing off:
/// the failure is a serving-layer condition (shed, open breaker,
/// draining, or an overrun deadline), not a property of the request.
pub fn is_retryable(kind: &str) -> bool {
    kind == ERR_OVERLOADED || kind == ERR_UNAVAILABLE || kind == ERR_DEADLINE_EXCEEDED
}

// ------------------------------------------------------------ envelope

/// One request envelope: a line of JSON sent to the server. `P` is the
/// form of `params` (see "Document forms" in the crate docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request<P = Value> {
    /// Protocol version; see [`PROTOCOL_VERSION`].
    pub v: u64,
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Option<String>,
    /// Tenant key selecting the warm per-tenant assessment engine;
    /// `None` selects the `"default"` tenant.
    pub tenant: Option<String>,
    /// One of the `METHOD_*` constants.
    pub method: String,
    /// Method-specific parameters (see the `*Params` types).
    pub params: P,
}

impl<P> Request<P> {
    /// A version-current request with no id or tenant.
    pub fn new(method: &str, params: P) -> Request<P> {
        Request {
            v: PROTOCOL_VERSION,
            id: None,
            tenant: None,
            method: method.to_string(),
            params,
        }
    }
}

/// A structured error payload: a stable kebab-case `kind` (one of the
/// `ERR_*` constants) plus the human-readable message the CLI would
/// have printed for the same failure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Stable error kind, e.g. [`ERR_OVERLOADED`].
    pub kind: String,
    /// Human-readable detail, mirroring the CLI error text.
    pub message: String,
}

/// One response envelope: a line of JSON written by the server.
/// Exactly one of `result` / `error` is populated, keyed by `ok`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Protocol version; see [`PROTOCOL_VERSION`].
    pub v: u64,
    /// The request's correlation id, echoed verbatim.
    pub id: Option<String>,
    /// `true` iff the method succeeded and `result` is populated.
    pub ok: bool,
    /// Method-specific result (see the `*Result` types) when `ok`.
    pub result: Option<Value>,
    /// The failure when not `ok`.
    pub error: Option<ErrorBody>,
}

impl Response {
    /// A success response answering `request`.
    pub fn success<P>(request: &Request<P>, result: Value) -> Response {
        Response {
            v: PROTOCOL_VERSION,
            id: request.id.clone(),
            ok: true,
            result: Some(result),
            error: None,
        }
    }

    /// A failure response answering `request`.
    pub fn failure<P>(request: &Request<P>, kind: &str, message: impl Into<String>) -> Response {
        Response::failure_for_id(request.id.clone(), kind, message)
    }

    /// A failure response for a request that may not have decoded at
    /// all (so only its id — possibly none — is known).
    pub fn failure_for_id(id: Option<String>, kind: &str, message: impl Into<String>) -> Response {
        Response {
            v: PROTOCOL_VERSION,
            id,
            ok: false,
            result: None,
            error: Some(ErrorBody {
                kind: kind.to_string(),
                message: message.into(),
            }),
        }
    }
}

// -------------------------------------------------------------- params

/// One per-server-type waiting-time goal (Sec. 7.1's refinement of the
/// global threshold), carried in [`AssessParams`] /
/// [`RecommendParams`]. The type is named, not indexed, so a client
/// does not need to know registry order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerTypeWait {
    /// The server type's name as registered in the registry document.
    pub server_type: String,
    /// Maximum acceptable mean waiting time for that type, in minutes.
    pub max_wait: f64,
}

/// Parameters of [`METHOD_ASSESS`]. The registry and workload ride as
/// the same JSON values the on-disk `registry.json` / `workload.json`
/// files hold, in the form `D` (see "Document forms" in the crate
/// docs); the remaining fields mirror the `wfms assess` flags
/// one-to-one (absent = the CLI default).
///
/// `epsilon`, `avail_backend`, `solver_tol` and `solver_max_iter` are
/// removed engine switches: the engine assesses every candidate exactly
/// from its per-type records. They stay declared so that a client still
/// sending one is refused with `invalid-params` naming the field,
/// instead of having it silently ignored; only `null` (or absence) is
/// accepted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssessParams<D = Value> {
    /// The server-type registry (the `registry.json` document).
    pub registry: D,
    /// The workflow repository (the `workload.json` document).
    pub workload: D,
    /// The replica vector to assess (`--config`).
    pub config: Vec<usize>,
    /// `--max-wait`, in minutes.
    pub max_wait: Option<f64>,
    /// `--min-availability`.
    pub min_availability: Option<f64>,
    /// Removed (the ε-truncated fold); must be `null` or absent.
    pub epsilon: Option<f64>,
    /// Removed (the availability-backend override); must be `null` or
    /// absent.
    pub avail_backend: Option<String>,
    /// Removed (the iterative solver's tolerance); must be `null` or
    /// absent.
    pub solver_tol: Option<f64>,
    /// Removed (the iterative solver's sweep cap); must be `null` or
    /// absent.
    pub solver_max_iter: Option<u64>,
    /// `--strict` fail-fast mode (absent = graceful degradation).
    pub strict: Option<bool>,
    /// Per-server-type waiting-time goals (`--max-wait-type`),
    /// refining — and overriding, for the named types — the global
    /// `max_wait`.
    pub per_type_max_wait: Option<Vec<PerTypeWait>>,
}

/// Parameters of [`METHOD_RECOMMEND`]; mirrors the `wfms recommend`
/// flags, plus a `search` selector covering all four strategies (the
/// CLI exposes greedy/exhaustive/annealing; the wire protocol adds
/// branch-and-bound). The documents ride in the form `D`, as in
/// [`AssessParams`].
///
/// The removed engine switches of [`AssessParams`], plus
/// `screen_epsilon`, `rank_moves` and `incremental`, are refused the
/// same way when non-null.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecommendParams<D = Value> {
    /// The server-type registry (the `registry.json` document).
    pub registry: D,
    /// The workflow repository (the `workload.json` document).
    pub workload: D,
    /// Search strategy: `greedy` (default), `exhaustive`,
    /// `branch-and-bound`, or `annealing`.
    pub search: Option<String>,
    /// `--max-wait`, in minutes.
    pub max_wait: Option<f64>,
    /// `--min-availability`.
    pub min_availability: Option<f64>,
    /// `--budget` (maximum total servers; default 64).
    pub budget: Option<u64>,
    /// Accepted and ignored: every search runs on one thread. It never
    /// changed an answer, so ignoring it changes no reply (DESIGN.md
    /// §13, "Removed fields").
    pub jobs: Option<u64>,
    /// `--seed` (annealing only; default 42).
    pub seed: Option<u64>,
    /// Removed (the ε-truncated fold); must be `null` or absent.
    pub epsilon: Option<f64>,
    /// Removed (the availability-backend override); must be `null` or
    /// absent.
    pub avail_backend: Option<String>,
    /// Removed (the iterative solver's tolerance); must be `null` or
    /// absent.
    pub solver_tol: Option<f64>,
    /// Removed (the iterative solver's sweep cap); must be `null` or
    /// absent.
    pub solver_max_iter: Option<u64>,
    /// `--strict` fail-fast mode.
    pub strict: Option<bool>,
    /// Removed (the adaptive-ε screen); must be `null` or absent.
    pub screen_epsilon: Option<f64>,
    /// Removed (the screen's ranked growth moves); must be `null` or
    /// absent.
    pub rank_moves: Option<bool>,
    /// Removed (the delta-patched marginals); must be `null` or absent.
    pub incremental: Option<bool>,
    /// Per-server-type waiting-time goals (`--max-wait-type`),
    /// refining — and overriding, for the named types — the global
    /// `max_wait`.
    pub per_type_max_wait: Option<Vec<PerTypeWait>>,
}

/// Parameters of [`METHOD_LINT`]; mirrors the `wfms lint` flags. The
/// documents ride in the form `D`, as in [`AssessParams`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LintParams<D = Value> {
    /// The server-type registry (the `registry.json` document).
    pub registry: D,
    /// The workflow repository (the `workload.json` document).
    pub workload: D,
    /// `--config`: an explicit replica vector to lint.
    pub config: Option<Vec<usize>>,
    /// `--max-wait`, in minutes.
    pub max_wait: Option<f64>,
    /// `--min-availability`.
    pub min_availability: Option<f64>,
    /// `--budget`.
    pub budget: Option<u64>,
}

// ------------------------------------------------------------- results

/// Per-workflow turnaround summary carried in [`AssessResult`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TurnaroundSummary {
    /// The workflow type's name.
    pub workflow: String,
    /// Mean turnaround time, in minutes.
    pub mean_minutes: f64,
    /// 90th-percentile turnaround time, in minutes.
    pub p90_minutes: f64,
}

/// Result of [`METHOD_ASSESS`]: the full assessment (with its
/// truncation and degradation disclosure surfaces) plus the rendering
/// context the CLI report needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssessResult {
    /// Display label of the assessed configuration, e.g. `Y(2,2,3)`.
    pub configuration: String,
    /// Server-type names in registry order (labels the per-type
    /// expected waiting times inside `assessment`).
    pub server_types: Vec<String>,
    /// The serialized `wfms_core::Assessment` — identical JSON to what
    /// `wfms assess --json` prints.
    pub assessment: Value,
    /// Per-workflow turnaround summaries (Sec. 4.1 transient analysis).
    pub turnarounds: Vec<TurnaroundSummary>,
}

/// Result of [`METHOD_RECOMMEND`]: the winning assessment plus the
/// search's disclosure surfaces (evaluations, quarantine list).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecommendResult {
    /// The strategy that ran: `greedy`, `exhaustive`,
    /// `branch-and-bound`, or `annealing`.
    pub search: String,
    /// Display label of the recommended configuration.
    pub configuration: String,
    /// The serialized winning `wfms_core::Assessment` — identical JSON
    /// to what `wfms recommend --json` prints.
    pub assessment: Value,
    /// Number of candidate assessments the search performed.
    pub evaluations: u64,
    /// The serialized quarantine list
    /// (`Vec<wfms_core::QuarantinedCandidate>`).
    pub quarantined: Value,
}

/// Result of [`METHOD_LINT`]: the full diagnostics report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LintResult {
    /// The serialized diagnostics — identical JSON to what
    /// `wfms lint --format json` prints.
    pub findings: Value,
    /// Number of error-severity findings.
    pub errors: u64,
    /// The one-line summary the CLI prints after the findings.
    pub summary: String,
}

/// Result of [`METHOD_PROFILE_SNAPSHOT`]: stage/metric aggregates of
/// the live (non-draining) observability snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileSnapshotResult {
    /// Spans the bounded recorder dropped since startup.
    pub dropped_spans: u64,
    /// The serialized `Vec<wfms_obs::StageSummary>`.
    pub stages: Value,
    /// Counter totals by stable name.
    pub counters: Value,
    /// Gauge values by stable name.
    pub gauges: Value,
    /// Histogram snapshots by stable name.
    pub histograms: Value,
}

/// Per-tenant engine-cache gauges carried in [`MetricsResult`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantGauges {
    /// The tenant key.
    pub tenant: String,
    /// Record entries: the engine's per-type `(type, Y_x)` records.
    pub state_entries: u64,
    /// Lifetime engine cache hits (record lookups).
    pub cache_hits: u64,
    /// Lifetime engine cache misses, counted the same way.
    pub cache_misses: u64,
}

/// Queue gauges carried in [`MetricsResult`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueueGauges {
    /// Connections currently admitted but not yet picked up.
    pub depth: u64,
    /// The bounded queue's capacity (`--queue-depth`).
    pub capacity: u64,
    /// Worker threads serving admitted connections.
    pub workers: u64,
    /// Connections shed with [`ERR_OVERLOADED`] since startup.
    pub overloaded: u64,
}

/// Result of [`METHOD_METRICS`]: the live `wfms-obs` snapshot plus
/// per-tenant cache and queue gauges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsResult {
    /// The live (non-draining) `wfms_obs::TraceSnapshot` as JSON.
    pub obs: Value,
    /// Engine-cache gauges per warm tenant, in tenant order.
    pub tenants: Vec<TenantGauges>,
    /// Bounded-queue gauges.
    pub queue: QueueGauges,
}

/// Result of [`METHOD_SHUTDOWN`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShutdownResult {
    /// Always `true`: the server acknowledged and is stopping.
    pub stopping: bool,
}

/// One tenant's circuit-breaker state carried in [`HealthResult`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BreakerStatus {
    /// The tenant key the breaker guards.
    pub tenant: String,
    /// `closed`, `open`, or `half-open`.
    pub state: String,
    /// Consecutive handler failures observed (resets on success).
    pub consecutive_failures: u64,
    /// Milliseconds until an open breaker admits its half-open probe
    /// (`0` when closed or already probing).
    pub retry_after_ms: u64,
}

/// Result of [`METHOD_HEALTH`]: the serving layer's own availability
/// surface, reported without touching any tenant engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthResult {
    /// `ready` while accepting work, `draining` once shutdown started.
    pub state: String,
    /// Bounded-queue gauges (same values as under `metrics`).
    pub queue: QueueGauges,
    /// Per-tenant circuit-breaker states, in tenant order. Empty when
    /// breakers are disabled (`--breaker-threshold 0`).
    pub breakers: Vec<BreakerStatus>,
    /// Worker panics contained by the watchdog since startup.
    pub worker_panics: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_json() {
        let req = Request {
            v: PROTOCOL_VERSION,
            id: Some("r-1".to_string()),
            tenant: Some("acme".to_string()),
            method: METHOD_ASSESS.to_string(),
            params: serde_json::to_value(&AssessParams {
                registry: Value::Null,
                workload: Value::Null,
                config: vec![2, 2, 3],
                max_wait: Some(0.05),
                min_availability: Some(0.9999),
                epsilon: None,
                avail_backend: None,
                solver_tol: None,
                solver_max_iter: None,
                strict: None,
                per_type_max_wait: None,
            })
            .expect("params serialize"),
        };
        let line = serde_json::to_string(&req).expect("request serializes");
        assert!(!line.contains('\n'), "framing: one request per line");
        let back: Request = serde_json::from_str(&line).expect("request parses");
        assert_eq!(back, req);
    }

    #[test]
    fn response_round_trips_and_is_deterministic() {
        let req = Request::new(METHOD_METRICS, Value::Null);
        let resp = Response::success(&req, Value::Bool(true));
        let a = serde_json::to_string(&resp).expect("serializes");
        let b = serde_json::to_string(&resp).expect("serializes");
        assert_eq!(a, b, "serialization must be byte-deterministic");
        let back: Response = serde_json::from_str(&a).expect("parses");
        assert_eq!(back, resp);

        let err = Response::failure(&req, ERR_OVERLOADED, "queue full");
        let line = serde_json::to_string(&err).expect("serializes");
        let back: Response = serde_json::from_str(&line).expect("parses");
        assert!(!back.ok);
        assert_eq!(
            back.error.as_ref().map(|e| e.kind.as_str()),
            Some(ERR_OVERLOADED)
        );
    }

    #[test]
    fn params_tolerate_absent_optional_fields() {
        // A hand-written daemon client should not need to spell out
        // every optional flag.
        let sparse = "{\"registry\": {}, \"workload\": {}, \"config\": [1, 2]}";
        let params: AssessParams = serde_json::from_str(sparse).expect("sparse params parse");
        assert_eq!(params.config, vec![1, 2]);
        assert_eq!(params.max_wait, None);
        assert_eq!(params.strict, None);

        let sparse = "{\"registry\": {}, \"workload\": {}}";
        let params: RecommendParams = serde_json::from_str(sparse).expect("sparse params parse");
        assert_eq!(params.search, None);
        assert_eq!(params.budget, None);
    }

    #[test]
    fn method_registry_is_stable() {
        let names = methods();
        assert_eq!(names.len(), 7);
        for name in names {
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "method names are stable kebab-case: {name}"
            );
        }
    }

    #[test]
    fn error_registry_is_stable() {
        let kinds = errors();
        assert_eq!(kinds.len(), 9);
        for kind in kinds {
            assert!(
                kind.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "error kinds are stable kebab-case: {kind}"
            );
        }
        // Exactly the serving-layer conditions are retryable.
        let retryable: Vec<&str> = kinds.into_iter().filter(|k| is_retryable(k)).collect();
        assert_eq!(
            retryable,
            [ERR_OVERLOADED, ERR_DEADLINE_EXCEEDED, ERR_UNAVAILABLE]
        );
    }

    #[test]
    fn per_type_goals_ride_the_params() {
        let sparse = "{\"registry\": {}, \"workload\": {}, \"config\": [1]}";
        let params: AssessParams = serde_json::from_str(sparse).expect("sparse params parse");
        assert_eq!(params.per_type_max_wait, None);

        let full = "{\"registry\": {}, \"workload\": {}, \"config\": [1], \
                    \"per_type_max_wait\": [{\"server_type\": \"WFMS\", \"max_wait\": 0.02}]}";
        let params: AssessParams = serde_json::from_str(full).expect("full params parse");
        let goals = params.per_type_max_wait.expect("goals present");
        assert_eq!(goals.len(), 1);
        assert_eq!(goals[0].server_type, "WFMS");
        assert!((goals[0].max_wait - 0.02).abs() < 1e-12);
    }
}
