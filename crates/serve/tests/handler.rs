//! Integration tests for the daemon's request handler: warm/cold
//! byte-identity, the per-tenant LRU bound, and the typed error
//! vocabulary — everything short of the TCP transport, which the CLI
//! crate's lifecycle tests cover against the spawned binary.

use std::time::{Duration, Instant};

use serde_json::{RawValue, Value};
use wfms_proto::{
    AssessResult, HealthResult, MetricsResult, PerTypeWait, Request, Response, ShutdownResult,
    ERR_INVALID_PARAMS, ERR_TOOL, ERR_UNAVAILABLE, ERR_UNKNOWN_METHOD, ERR_UNSUPPORTED_VERSION,
    METHOD_ASSESS, METHOD_HEALTH, METHOD_LINT, METHOD_METRICS, METHOD_RECOMMEND, METHOD_SHUTDOWN,
    PROTOCOL_VERSION,
};
use wfms_serve::{BreakerPolicy, Handler, WorkloadEntry, WorkloadFile};

fn spec(scenario: &str, file: &str) -> Value {
    let path = format!(
        "{}/../../examples/specs/{scenario}/{file}",
        env!("CARGO_MANIFEST_DIR")
    );
    let raw = std::fs::read_to_string(&path).expect("read spec fixture");
    serde_json::from_str(&raw).expect("spec fixture parses")
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    let mut map = serde_json::Map::new();
    for (key, value) in pairs {
        map.insert(key.to_string(), value);
    }
    Value::Object(map)
}

/// Encodes a plain Rust value through the vendored serializer.
fn json<T: serde::Serialize>(value: T) -> Value {
    serde_json::to_value(value).expect("encode test value")
}

fn assess_params(scenario: &str, config: &[u64]) -> Value {
    obj(vec![
        ("registry", spec(scenario, "registry.json")),
        ("workload", spec(scenario, "workload.json")),
        ("config", json(config.to_vec())),
        ("max_wait", json(0.05)),
        ("min_availability", json(0.9999)),
    ])
}

fn request(method: &str, tenant: &str, params: Value) -> Request {
    Request {
        v: PROTOCOL_VERSION,
        id: Some(format!("{method}-{tenant}")),
        tenant: Some(tenant.to_string()),
        method: method.to_string(),
        params,
    }
}

/// The daemon's form of a request: what it decodes from the line.
fn from_line(line: &str) -> Request<RawValue> {
    serde_json::from_str(line).expect("request line decodes")
}

/// A tenant's engine counters as `metrics` reports them: (hits, misses).
fn cache_counts(handler: &Handler, tenant: &str) -> (u64, u64) {
    let resp = handler.handle(&request(METHOD_METRICS, tenant, Value::Null));
    let result: MetricsResult =
        serde_json::from_value(resp.result.expect("result populated")).expect("typed result");
    let gauges = result
        .tenants
        .iter()
        .find(|g| g.tenant == tenant)
        .expect("tenant is warm");
    (gauges.cache_hits, gauges.cache_misses)
}

fn error_kind(response: &Response) -> &str {
    assert!(!response.ok, "expected a failure response");
    response
        .error
        .as_ref()
        .map(|e| e.kind.as_str())
        .expect("failure carries an error body")
}

#[test]
fn warm_repeat_is_byte_identical_and_hits_the_engine_cache() {
    let handler = Handler::new(4);
    let req = request(METHOD_ASSESS, "acme", assess_params("ep", &[2, 2, 2]));

    let cold = handler.handle(&req);
    assert!(cold.ok, "cold assess succeeds: {:?}", cold.error);
    let warm = handler.handle(&req);
    assert!(warm.ok, "warm assess succeeds: {:?}", warm.error);

    // The serving contract: a warm repeat of the same request yields a
    // byte-identical response line...
    let cold_line = serde_json::to_string(&cold).expect("serialize");
    let warm_line = serde_json::to_string(&warm).expect("serialize");
    assert_eq!(cold_line, warm_line, "warm and cold answers must agree");

    // ...while actually replaying the warm engine's memo caches.
    let hits = handler
        .tenant_cache_hits("acme")
        .expect("tenant engine is warm");
    assert!(hits > 0, "warm repeat must hit the engine cache");

    let result: AssessResult =
        serde_json::from_value(warm.result.expect("result populated")).expect("typed result");
    assert_eq!(result.server_types.len(), 3);
    assert!(result.configuration.starts_with("Y("));
    assert_eq!(result.turnarounds.len(), 1);
    assert!(result.turnarounds[0].mean_minutes > 0.0);
    assert!(result.turnarounds[0].p90_minutes >= result.turnarounds[0].mean_minutes);
}

/// A `Request<Value>` renders its params once and takes the daemon's
/// text path: it answers byte for byte as the `Request<RawValue>`
/// decoded from its compact line, cold or warm, clean or failed. Its
/// documents render to the line's bytes, so the two forms share a warm
/// tenant.
#[test]
fn value_and_line_forms_answer_alike_and_share_the_tenant() {
    let recommend = obj(vec![
        ("registry", spec("enterprise", "registry.json")),
        ("workload", spec("enterprise", "workload.json")),
        ("max_wait", json(0.05)),
        ("min_availability", json(0.9999)),
    ]);
    let mut bad_config = assess_params("ep", &[2, 2, 2]);
    if let Value::Object(map) = &mut bad_config {
        map.insert("config".to_string(), Value::String("2,2,2".to_string()));
    }
    for (method, params) in [
        (METHOD_ASSESS, assess_params("ep", &[2, 2, 3])),
        (METHOD_ASSESS, assess_params("enterprise", &[2, 3, 2, 3, 2])),
        (METHOD_RECOMMEND, recommend),
        (METHOD_LINT, assess_params("ep", &[2, 2, 3])),
        (METHOD_ASSESS, bad_config),
        (METHOD_ASSESS, Value::Null),
    ] {
        let req = request(method, "acme", params);
        let line = serde_json::to_string(&req).expect("serialize");
        let answer = |handler: &Handler, by_value: bool| {
            let response = if by_value {
                handler.handle(&req)
            } else {
                handler.handle(&from_line(&line))
            };
            serde_json::to_string(&response).expect("serialize")
        };
        let by_value = answer(&Handler::new(1), true);
        assert_eq!(answer(&Handler::new(1), false), by_value, "{method}");

        let handler = Handler::new(1);
        assert_eq!(answer(&handler, true), by_value, "{method}");
        let ok = serde_json::from_str::<Response>(&by_value)
            .expect("reply decodes")
            .ok;
        if method != METHOD_ASSESS || !ok {
            continue;
        }
        let (hits, misses) = cache_counts(&handler, "acme");
        assert_eq!(answer(&handler, false), by_value, "{method}");
        let (warm_hits, warm_misses) = cache_counts(&handler, "acme");
        assert!(
            warm_hits > hits,
            "the line form did not hit the warm tenant"
        );
        assert_eq!(warm_misses, misses, "the line form rebuilt the tenant");
    }
}

/// The tenant keeps its documents' exact text. The same documents sent
/// with other whitespace are other bytes: the tenant is rebuilt once,
/// so its engine counts afresh, and the answer does not change. A
/// repeat of those bytes is then a warm hit.
#[test]
fn respaced_documents_rebuild_the_tenant_once_and_answer_alike() {
    let handler = Handler::new(2);
    let req = request(METHOD_ASSESS, "acme", assess_params("ep", &[2, 2, 2]));
    let compact = serde_json::to_string(&req).expect("serialize");
    let respaced = serde_json::to_string_pretty(&req).expect("serialize");
    let answer = |line: &str| {
        let response = handler.handle(&from_line(line));
        assert!(response.ok, "assess succeeds: {:?}", response.error);
        serde_json::to_string(&response).expect("serialize")
    };

    let cold = answer(&compact);
    let (cold_hits, cold_misses) = cache_counts(&handler, "acme");
    assert_eq!(answer(&compact), cold);
    let (warm_hits, warm_misses) = cache_counts(&handler, "acme");
    assert!(warm_hits > cold_hits, "the compact repeat is a warm hit");
    assert_eq!(warm_misses, cold_misses);

    assert_eq!(
        answer(&respaced),
        cold,
        "re-spaced documents changed the answer"
    );
    assert_eq!(
        cache_counts(&handler, "acme"),
        (cold_hits, cold_misses),
        "re-spaced documents did not rebuild the tenant"
    );
    assert_eq!(handler.tenant_count(), 1, "the rebuild replaces the slot");

    assert_eq!(answer(&respaced), cold);
    assert_eq!(
        cache_counts(&handler, "acme"),
        (warm_hits, warm_misses),
        "the re-spaced repeat is a warm hit"
    );
}

#[test]
fn changed_inputs_rebuild_the_tenant_engine_cold() {
    let handler = Handler::new(4);
    let loose = handler.handle(&request(
        METHOD_ASSESS,
        "acme",
        assess_params("ep", &[2, 2, 2]),
    ));
    assert!(loose.ok);

    // Same tenant, different goals: the inputs change, so the
    // slot is rebuilt rather than silently answering from stale state.
    let mut params = assess_params("ep", &[2, 2, 2]);
    if let Value::Object(map) = &mut params {
        map.insert("max_wait".to_string(), json(0.0001));
    }
    let tight = handler.handle(&request(METHOD_ASSESS, "acme", params));
    assert!(tight.ok, "rebuilt tenant succeeds: {:?}", tight.error);
    assert_eq!(handler.tenant_count(), 1, "rebuild replaces, not adds");
    assert_ne!(
        serde_json::to_string(&loose).expect("serialize"),
        serde_json::to_string(&tight).expect("serialize"),
        "different goals must change the goal-check surface"
    );
}

#[test]
fn tenant_slots_are_lru_bounded() {
    let handler = Handler::new(2);
    for tenant in ["t1", "t2", "t3"] {
        let resp = handler.handle(&request(
            METHOD_ASSESS,
            tenant,
            assess_params("ep", &[2, 2, 2]),
        ));
        assert!(resp.ok, "assess for {tenant}: {:?}", resp.error);
    }
    assert_eq!(handler.tenant_count(), 2, "LRU cap must bound the map");
    // t1 was least recently used; its warm engine is gone.
    assert_eq!(handler.tenant_cache_hits("t1"), None);
    assert!(handler.tenant_cache_hits("t3").is_some());
}

#[test]
fn recommend_greedy_returns_a_typed_result() {
    let handler = Handler::new(2);
    let params = obj(vec![
        ("registry", spec("ep", "registry.json")),
        ("workload", spec("ep", "workload.json")),
        ("max_wait", json(0.05)),
        ("min_availability", json(0.9999)),
    ]);
    let resp = handler.handle(&request(METHOD_RECOMMEND, "acme", params));
    assert!(resp.ok, "greedy recommend succeeds: {:?}", resp.error);
    let result: wfms_proto::RecommendResult =
        serde_json::from_value(resp.result.expect("result populated")).expect("typed result");
    assert_eq!(result.search, "greedy");
    assert!(result.evaluations > 0);
    assert!(result.configuration.starts_with("Y("));
}

#[test]
fn unknown_search_strategy_is_an_invalid_params_error() {
    let handler = Handler::new(2);
    let params = obj(vec![
        ("registry", spec("ep", "registry.json")),
        ("workload", spec("ep", "workload.json")),
        ("search", Value::String("simulated-annealing!".to_string())),
        ("max_wait", json(0.05)),
    ]);
    let resp = handler.handle(&request(METHOD_RECOMMEND, "acme", params));
    assert_eq!(error_kind(&resp), ERR_INVALID_PARAMS);
    let message = resp.error.expect("error body").message;
    assert!(message.contains("unknown search"), "got: {message}");
}

/// A replica count past `MAX_REPLICAS` would size a per-type record from
/// the request, and a failed allocation aborts the process instead of
/// returning an error: it must be a typed `tool` error, the lint pass
/// must report it as C006 without sizing anything, and the next request
/// on the same handler must be answered.
#[test]
fn an_oversized_replica_count_is_a_typed_error_and_the_next_request_is_served() {
    let handler = Handler::new(2);
    let oversized = handler.handle(&request(
        METHOD_ASSESS,
        "acme",
        assess_params("ep", &[4_294_967_295, 2, 2]),
    ));
    assert_eq!(error_kind(&oversized), ERR_TOOL);
    let message = error_message_of(&oversized);
    assert!(
        message.contains("assigns 4294967295 replicas to server-type#0"),
        "got: {message}"
    );
    let lint = handler.handle(&request(
        METHOD_LINT,
        "acme",
        assess_params("ep", &[4_294_967_295, 4_294_967_295, 1]),
    ));
    assert!(lint.ok, "lint answers: {:?}", lint.error);
    let lint: wfms_proto::LintResult =
        serde_json::from_value(lint.result.expect("result populated")).expect("typed result");
    assert_eq!(lint.errors, 2, "{}", lint.summary);
    assert_eq!(lint.findings.to_string().matches("C006").count(), 2);
    let next = handler.handle(&request(
        METHOD_ASSESS,
        "acme",
        assess_params("ep", &[2, 2, 2]),
    ));
    assert!(next.ok, "the next request is answered: {:?}", next.error);
}

#[test]
fn lint_reports_findings_for_an_inline_model() {
    let handler = Handler::new(2);
    let params = obj(vec![
        ("registry", spec("ep", "registry.json")),
        ("workload", spec("ep", "workload.json")),
        ("max_wait", json(0.05)),
        ("min_availability", json(0.9999)),
    ]);
    let resp = handler.handle(&request(METHOD_LINT, "acme", params));
    assert!(resp.ok, "lint succeeds: {:?}", resp.error);
    let result: wfms_proto::LintResult =
        serde_json::from_value(resp.result.expect("result populated")).expect("typed result");
    assert_eq!(result.errors, 0, "the shipped EP spec lints clean");
    assert!(!result.summary.is_empty());
}

#[test]
fn metrics_reports_tenant_and_queue_gauges() {
    let handler = Handler::new(4);
    handler.queue().configure(64, 4);
    let assess = handler.handle(&request(
        METHOD_ASSESS,
        "acme",
        assess_params("ep", &[2, 2, 2]),
    ));
    assert!(assess.ok);
    let warm = handler.handle(&request(
        METHOD_ASSESS,
        "acme",
        assess_params("ep", &[2, 2, 2]),
    ));
    assert!(warm.ok);

    let resp = handler.handle(&request(METHOD_METRICS, "acme", Value::Null));
    assert!(resp.ok, "metrics succeeds: {:?}", resp.error);
    let result: MetricsResult =
        serde_json::from_value(resp.result.expect("result populated")).expect("typed result");
    assert_eq!(result.tenants.len(), 1);
    assert_eq!(result.tenants[0].tenant, "acme");
    assert!(result.tenants[0].cache_hits > 0, "warm repeat shows up");
    assert!(result.tenants[0].state_entries > 0);
    assert_eq!(result.queue.capacity, 64);
    assert_eq!(result.queue.workers, 4);
    assert_eq!(result.queue.overloaded, 0);
}

#[test]
fn shutdown_is_acknowledged() {
    let handler = Handler::new(1);
    let resp = handler.handle(&request(METHOD_SHUTDOWN, "acme", Value::Null));
    assert!(resp.ok);
    let result: ShutdownResult =
        serde_json::from_value(resp.result.expect("result populated")).expect("typed result");
    assert!(result.stopping);
}

#[test]
fn protocol_errors_use_the_stable_vocabulary() {
    let handler = Handler::new(1);

    let mut wrong_version = request(METHOD_METRICS, "acme", Value::Null);
    wrong_version.v = 99;
    let resp = handler.handle(&wrong_version);
    assert_eq!(error_kind(&resp), ERR_UNSUPPORTED_VERSION);
    assert_eq!(resp.id.as_deref(), Some("metrics-acme"), "id echoes back");

    let resp = handler.handle(&request("frobnicate", "acme", Value::Null));
    assert_eq!(error_kind(&resp), ERR_UNKNOWN_METHOD);
    let message = resp.error.expect("error body").message;
    assert!(message.contains("assess"), "lists the methods: {message}");

    let resp = handler.handle(&request(METHOD_ASSESS, "acme", obj(vec![])));
    assert_eq!(error_kind(&resp), ERR_INVALID_PARAMS);

    // Model-level failures carry the exact tool error text under the
    // `tool` kind: a replica vector of the wrong length is an
    // architecture error, not a panic.
    let resp = handler.handle(&request(METHOD_ASSESS, "acme", assess_params("ep", &[2])));
    assert_eq!(error_kind(&resp), wfms_proto::ERR_TOOL);
}

#[test]
fn sparse_client_json_decodes_with_defaults() {
    // A hand-written daemon client sending only the required fields
    // must get the same answer as one spelling out every null.
    let handler = Handler::new(2);
    let sparse = handler.handle(&request(
        METHOD_ASSESS,
        "acme",
        obj(vec![
            ("registry", spec("ep", "registry.json")),
            ("workload", spec("ep", "workload.json")),
            ("config", json(vec![2u64, 2, 2])),
            ("max_wait", json(0.05)),
        ]),
    ));
    assert!(sparse.ok, "sparse params succeed: {:?}", sparse.error);
    let result: AssessResult =
        serde_json::from_value(sparse.result.expect("result populated")).expect("typed result");
    assert_eq!(result.server_types.len(), 3);

    // Omitting every goal is rejected with the exact one-shot CLI
    // message, under the `tool` kind — not a decode error.
    let no_goals = handler.handle(&request(
        METHOD_ASSESS,
        "acme",
        obj(vec![
            ("registry", spec("ep", "registry.json")),
            ("workload", spec("ep", "workload.json")),
            ("config", json(vec![2u64, 2, 2])),
        ]),
    ));
    assert_eq!(error_kind(&no_goals), wfms_proto::ERR_TOOL);
    let message = no_goals.error.expect("error body").message;
    assert_eq!(message, "no performability goal specified");
}

/// Per-type goal entries for the wire payload (`per_type_max_wait`).
fn per_type(entries: &[(&str, f64)]) -> Value {
    json(
        entries
            .iter()
            .map(|(name, max_wait)| PerTypeWait {
                server_type: name.to_string(),
                max_wait: *max_wait,
            })
            .collect::<Vec<_>>(),
    )
}

#[test]
fn per_type_waiting_goal_names_resolve_against_the_registry() {
    let handler = Handler::new(4);

    // An unknown server-type name is an invalid-params error listing
    // the registered names, so clients can self-correct.
    let mut params = assess_params("ep", &[2, 2, 2]);
    if let Value::Object(map) = &mut params {
        map.insert(
            "per_type_max_wait".to_string(),
            per_type(&[("frobnicator", 0.05)]),
        );
    }
    let resp = handler.handle(&request(METHOD_ASSESS, "acme", params));
    assert_eq!(error_kind(&resp), ERR_INVALID_PARAMS);
    let message = resp.error.expect("error body").message;
    assert!(
        message.contains("frobnicator") && message.contains("registered:"),
        "lists the registered names: {message}"
    );
    assert!(
        message.contains("workflow-engine"),
        "names come from the registry document: {message}"
    );
}

#[test]
fn per_type_waiting_goal_changes_the_goal_check_deterministically() {
    let handler = Handler::new(4);

    let with_goal = |max_wait: f64| {
        let mut params = assess_params("ep", &[2, 2, 2]);
        if let Value::Object(map) = &mut params {
            map.insert(
                "per_type_max_wait".to_string(),
                per_type(&[("workflow-engine", max_wait)]),
            );
        }
        handler.handle(&request(METHOD_ASSESS, "acme", params))
    };

    // A generous per-type bound and an impossible one must both
    // succeed as assessments but disagree on the goal surface.
    let generous = with_goal(10.0);
    assert!(generous.ok, "generous per-type goal: {:?}", generous.error);
    let impossible = with_goal(1e-9);
    assert!(
        impossible.ok,
        "impossible per-type goal still assesses: {:?}",
        impossible.error
    );
    assert_ne!(
        serde_json::to_string(&generous).expect("serialize"),
        serde_json::to_string(&impossible).expect("serialize"),
        "the per-type bound must reach the goal check"
    );

    // Determinism carries over: a warm repeat with the same per-type
    // goal is byte-identical.
    let repeat = with_goal(10.0);
    assert_eq!(
        serde_json::to_string(&generous).expect("serialize"),
        serde_json::to_string(&repeat).expect("serialize"),
    );
}

#[test]
fn open_breaker_sheds_fast_and_recovers_through_the_half_open_probe() {
    let handler = Handler::new(4);
    handler.set_breaker_policy(BreakerPolicy {
        threshold: 1,
        cooldown: Duration::from_millis(100),
    });

    // One guarded failure opens the threshold-1 breaker.
    let resp = handler.handle(&request(METHOD_ASSESS, "flaky", obj(vec![])));
    assert_eq!(error_kind(&resp), ERR_INVALID_PARAMS);

    // The shed path never touches an engine: the acceptance budget is
    // 10ms for the typed answer (in practice it is microseconds).
    let valid = request(METHOD_ASSESS, "flaky", assess_params("ep", &[2, 2, 2]));
    let started = Instant::now();
    let shed = handler.handle(&valid);
    let elapsed = started.elapsed();
    assert_eq!(error_kind(&shed), ERR_UNAVAILABLE);
    assert!(
        error_message_of(&shed).contains("retry after"),
        "carries the retry hint: {shed:?}"
    );
    assert!(
        elapsed < Duration::from_millis(10),
        "open-breaker shed must answer fast, took {elapsed:?}"
    );

    // Another tenant is admitted normally while "flaky" is open.
    let other = handler.handle(&request(
        METHOD_ASSESS,
        "steady",
        assess_params("ep", &[2, 2, 2]),
    ));
    assert!(other.ok, "other tenants unaffected: {:?}", other.error);

    // After the cooldown, the half-open probe is admitted and its
    // success closes the breaker again.
    std::thread::sleep(Duration::from_millis(150));
    let probe = handler.handle(&valid);
    assert!(probe.ok, "half-open probe served: {:?}", probe.error);
    let after = handler.handle(&valid);
    assert!(
        after.ok,
        "breaker closed after the probe: {:?}",
        after.error
    );
}

/// A search that finds no configuration within its budget has answered
/// the tenant, and that answer is no fault of the tenant's: five of
/// them leave a threshold-5 breaker closed for the next request.
#[test]
fn a_search_without_a_winner_does_not_open_the_breaker() {
    let handler = Handler::new(4);
    handler.set_breaker_policy(BreakerPolicy {
        threshold: 5,
        cooldown: Duration::from_secs(60),
    });
    let out_of_budget = obj(vec![
        ("registry", spec("ep", "registry.json")),
        ("workload", spec("ep", "workload.json")),
        ("max_wait", json(0.05)),
        ("min_availability", json(0.9999)),
        ("budget", json(3)),
    ]);
    for _ in 0..5 {
        let resp = handler.handle(&request(METHOD_RECOMMEND, "acme", out_of_budget.clone()));
        assert_eq!(error_kind(&resp), ERR_TOOL);
        assert!(
            error_message_of(&resp).starts_with("goals not reachable within a budget of 3 servers"),
            "{resp:?}"
        );
    }
    let resp = handler.handle(&request(
        METHOD_ASSESS,
        "acme",
        assess_params("ep", &[2, 2, 2]),
    ));
    assert!(resp.ok, "the tenant is still served: {:?}", resp.error);
}

fn error_message_of(response: &Response) -> String {
    response
        .error
        .as_ref()
        .map(|e| e.message.clone())
        .expect("failure carries an error body")
}

#[test]
fn health_reports_serving_state_without_touching_engines() {
    let handler = Handler::new(2);
    handler.queue().configure(16, 2);

    let resp = handler.handle(&request(METHOD_HEALTH, "acme", Value::Null));
    assert!(resp.ok, "health succeeds: {:?}", resp.error);
    let health: HealthResult =
        serde_json::from_value(resp.result.expect("result populated")).expect("typed result");
    assert_eq!(health.state, "ready");
    assert_eq!(health.queue.capacity, 16);
    assert_eq!(health.worker_panics, 0);
    assert!(
        health.breakers.is_empty(),
        "breakers disabled by default: {:?}",
        health.breakers
    );
    assert_eq!(handler.tenant_count(), 0, "health builds no engine");

    // Watchdog and drain state surface through the same probe.
    handler.note_worker_panic();
    handler.set_draining(true);
    let resp = handler.handle(&request(METHOD_HEALTH, "acme", Value::Null));
    let health: HealthResult =
        serde_json::from_value(resp.result.expect("result populated")).expect("typed result");
    assert_eq!(health.state, "draining");
    assert_eq!(health.worker_panics, 1);
}

/// Every engine switch the protocol still declares but no longer
/// honours is refused by name when set, on each method that carries it,
/// before any tenant engine is built; `null` still passes.
#[test]
fn removed_engine_fields_are_refused_by_name() {
    let shared = [
        ("epsilon", json(1e-9)),
        ("avail_backend", Value::String("sparse".to_string())),
        ("solver_tol", json(1e-12)),
        ("solver_max_iter", json(1u64)),
    ];
    let recommend_only = [
        ("screen_epsilon", json(1e-2)),
        ("rank_moves", json(true)),
        ("incremental", json(false)),
    ];
    let recommend_params = || {
        obj(vec![
            ("registry", spec("ep", "registry.json")),
            ("workload", spec("ep", "workload.json")),
            ("max_wait", json(0.05)),
            ("min_availability", json(0.9999)),
        ])
    };
    let cases = shared.iter().map(|field| (METHOD_ASSESS, field)).chain(
        shared
            .iter()
            .chain(&recommend_only)
            .map(|f| (METHOD_RECOMMEND, f)),
    );
    let handler = Handler::new(4);
    for (method, (field, value)) in cases {
        let with = |value: Value| {
            let mut params = if method == METHOD_ASSESS {
                assess_params("ep", &[2, 2, 2])
            } else {
                recommend_params()
            };
            if let Value::Object(map) = &mut params {
                map.insert(field.to_string(), value);
            }
            handler.handle(&request(method, "t-removed", params))
        };
        let refused = with(value.clone());
        assert_eq!(error_kind(&refused), ERR_INVALID_PARAMS, "{method} {field}");
        let message = &refused.error.as_ref().expect("error body").message;
        assert!(
            message.contains(&format!("`{field}` was removed")),
            "{method} {field}: {message}"
        );
        assert_eq!(handler.tenant_count(), 0, "{method} {field}: tenant built");
    }
    for method in [METHOD_ASSESS, METHOD_RECOMMEND] {
        let mut params = if method == METHOD_ASSESS {
            assess_params("ep", &[2, 2, 2])
        } else {
            recommend_params()
        };
        if let Value::Object(map) = &mut params {
            for (field, _) in shared.iter().chain(&recommend_only) {
                map.insert(field.to_string(), Value::Null);
            }
        }
        let response = handler.handle(&request(method, "t-null", params));
        assert!(
            response.ok,
            "{method} with null fields: {:?}",
            response.error
        );
    }
}

/// `jobs` sized the removed thread pool. It is accepted and ignored: a
/// `recommend` carrying it answers byte-for-byte like one without it,
/// from the same warm tenant engine (no rebuild, no new record fills).
#[test]
fn recommend_ignores_jobs_and_keeps_the_warm_tenant() {
    let handler = Handler::new(2);
    let params = |jobs: Option<u64>| {
        let mut pairs = vec![
            ("registry", spec("enterprise", "registry.json")),
            ("workload", spec("enterprise", "workload.json")),
            ("search", Value::String("exhaustive".to_string())),
            ("max_wait", json(0.05)),
            ("min_availability", json(0.9999)),
        ];
        if let Some(jobs) = jobs {
            pairs.push(("jobs", json(jobs)));
        }
        obj(pairs)
    };
    let misses = || {
        let resp = handler.handle(&request(METHOD_METRICS, "acme", Value::Null));
        let result: MetricsResult =
            serde_json::from_value(resp.result.expect("result populated")).expect("typed result");
        result.tenants[0].cache_misses
    };

    let without = handler.handle(&request(METHOD_RECOMMEND, "acme", params(None)));
    assert!(without.ok, "recommend succeeds: {:?}", without.error);
    let (cold_hits, cold_misses) = (handler.tenant_cache_hits("acme"), misses());

    let with = handler.handle(&request(METHOD_RECOMMEND, "acme", params(Some(2))));
    assert_eq!(
        serde_json::to_string(&with).expect("serialize"),
        serde_json::to_string(&without).expect("serialize"),
        "jobs changed the reply"
    );
    assert_eq!(handler.tenant_count(), 1);
    assert_eq!(misses(), cold_misses, "jobs rebuilt the tenant engine");
    assert!(
        handler.tenant_cache_hits("acme") > cold_hits,
        "the repeat did not replay the warm engine"
    );
}

#[test]
fn same_named_workflows_each_report_their_own_turnaround() {
    let ep: WorkloadFile =
        serde_json::from_value(spec("ep", "workload.json")).expect("ep workload decodes");
    let first = WorkloadEntry {
        arrival_rate: 5.0,
        ..ep.workflows[0].clone()
    };
    // Same spec name, four times slower activities.
    let mut slow = first.clone();
    for activity in slow.spec.activities.values_mut() {
        activity.mean_duration *= 4.0;
    }
    let assess = |workflows: Vec<WorkloadEntry>| -> AssessResult {
        let params = obj(vec![
            ("registry", spec("ep", "registry.json")),
            ("workload", json(WorkloadFile { workflows })),
            ("config", json(vec![2u64, 2, 2])),
            ("max_wait", json(0.05)),
            ("min_availability", json(0.9999)),
        ]);
        let response = Handler::new(1).handle(&request(METHOD_ASSESS, "twins", params));
        assert!(response.ok, "assess succeeds: {:?}", response.error);
        serde_json::from_value(response.result.expect("result populated")).expect("typed result")
    };
    let both = assess(vec![first, slow.clone()]);
    let alone = assess(vec![slow]);
    assert_eq!(both.turnarounds.len(), 2);
    assert_eq!(both.turnarounds[0].workflow, both.turnarounds[1].workflow);
    assert_eq!(
        both.turnarounds[1], alone.turnarounds[0],
        "the second same-named workflow must report its own turnaround"
    );
    assert_ne!(both.turnarounds[0], both.turnarounds[1]);
}
