//! The daemon's JSON methods.
//!
//! [`Handler::handle`] maps a [`wfms_proto::Request`] to a
//! [`wfms_proto::Response`]; the TCP daemon calls it per request line.
//! Its `assess` and `recommend` are shells around the typed core of
//! [`crate::tenant`], which the one-shot CLI calls in-process: decode
//! the params, find the tenant by its inputs, call the core, encode its
//! answer. Tenant state — a warm [`Tenant`] whose engine's record map
//! amortizes across requests — lives inside the handler,
//! keyed by the client-supplied tenant id and bounded by an LRU cap.
//!
//! Every method reads its params as text ([`ParamsText`]). The daemon
//! hands over the `Request<RawValue>` it decoded from the line, whose
//! params text is lent as it stood; a `Request<Value>` built in memory
//! renders its params once. The params decode with `RawValue`
//! documents, so the registry and workload stay text: a tenant keeps
//! the text it was built from, a request whose documents match it byte
//! for byte is a warm hit that builds no document, and only a rebuild
//! decodes the typed documents.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use serde::{Deserialize, Serialize};
use serde_json::{RawValue, Value};

use wfms_core::config::{Goals, SearchOptions};
use wfms_core::{ConfigError, Configuration, ServerTypeRegistry, WorkflowSpec};
use wfms_proto::{
    AssessParams, AssessResult, HealthResult, LintParams, LintResult, MetricsResult, PerTypeWait,
    ProfileSnapshotResult, QueueGauges, RecommendParams, RecommendResult, Request, Response,
    ShutdownResult, TenantGauges, ERR_INVALID_PARAMS, ERR_LINT, ERR_TOOL, ERR_UNAVAILABLE,
    ERR_UNKNOWN_METHOD, ERR_UNSUPPORTED_VERSION, METHOD_ASSESS, METHOD_HEALTH, METHOD_LINT,
    METHOD_METRICS, METHOD_PROFILE_SNAPSHOT, METHOD_RECOMMEND, METHOD_SHUTDOWN, PROTOCOL_VERSION,
};

use crate::resilience::{Admission, BreakerPolicy, BreakerRegistry};
use crate::tenant::{
    build_goals, resolve_per_type_waits, search_options, MethodError, Tenant, WorkloadFile,
};

/// A method failure before it is wrapped into a [`Response`]: a stable
/// `ERR_*` kind plus the message the CLI would print for the same
/// failure.
struct Failure {
    kind: &'static str,
    message: String,
    /// The search ran and no configuration meets the goals: an answer
    /// about the tenant's inputs, not a fault of the tenant's.
    no_winner: bool,
}

impl Failure {
    fn new(kind: &'static str, message: impl Into<String>) -> Failure {
        Failure {
            kind,
            message: message.into(),
            no_winner: false,
        }
    }
}

impl From<MethodError> for Failure {
    fn from(e: MethodError) -> Failure {
        let kind = match e {
            MethodError::Tool(_) => ERR_TOOL,
            MethodError::InvalidParams(_) => ERR_INVALID_PARAMS,
        };
        let no_winner = matches!(
            e,
            MethodError::Tool(
                ConfigError::GoalsUnreachable { .. } | ConfigError::LoadUnsustainable { .. }
            )
        );
        Failure {
            no_winner,
            ..Failure::new(kind, e.to_string())
        }
    }
}

/// Queue gauges shared between the daemon's accept loop (which updates
/// them) and the handler's `metrics` method (which reports them). A
/// handler outside the daemon leaves them at zero.
#[derive(Debug, Default)]
pub struct QueueTelemetry {
    depth: AtomicU64,
    capacity: AtomicU64,
    workers: AtomicU64,
    overloaded: AtomicU64,
}

impl QueueTelemetry {
    /// Records the configured queue capacity and worker count.
    pub fn configure(&self, capacity: u64, workers: u64) {
        self.capacity.store(capacity, Ordering::Relaxed);
        self.workers.store(workers, Ordering::Relaxed);
    }

    /// A connection is being offered to the queue.
    pub fn enqueued(&self) {
        self.depth.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection left the queue: a worker picked it up, or the queue
    /// was full or closed and did not admit it.
    pub fn dequeued(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// A connection was shed with an `overloaded` response.
    pub fn shed(&self) {
        self.overloaded.fetch_add(1, Ordering::Relaxed);
    }

    /// The current gauge values.
    pub fn gauges(&self) -> QueueGauges {
        QueueGauges {
            depth: self.depth.load(Ordering::Relaxed),
            capacity: self.capacity.load(Ordering::Relaxed),
            workers: self.workers.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
        }
    }
}

/// The form of a request's `params` that [`Handler::handle`] reads.
pub trait ParamsText {
    /// The params as JSON text: a [`RawValue`] lends the text it was
    /// read from, a [`Value`] renders itself compactly.
    fn text(&self) -> Cow<'_, str>;
}

impl ParamsText for RawValue {
    fn text(&self) -> Cow<'_, str> {
        Cow::Borrowed(self.get())
    }
}

impl ParamsText for Value {
    fn text(&self) -> Cow<'_, str> {
        Cow::Owned(self.to_string())
    }
}

/// What a warm tenant was built from: the two documents' exact text,
/// the goals and the search options. Two requests with equal inputs
/// share one warm engine; the candidate `config` and the annealing seed
/// are not inputs (cache entries are keyed by state vector and
/// deterministic). Validated goals hold no NaN and no zero, so equal
/// goals are equal bit for bit.
#[derive(PartialEq)]
struct TenantInputs {
    registry: RawValue,
    workload: RawValue,
    goals: Goals,
    opts: SearchOptions,
}

/// A tenant-map slot: the tenant, the inputs it was built from, and its
/// last-use stamp for LRU eviction.
struct TenantSlot {
    stamp: u64,
    inputs: TenantInputs,
    tenant: Arc<Tenant>,
}

/// The tenant a request without an explicit tenant id lands on.
const DEFAULT_TENANT: &str = "default";

/// The daemon's request handler; see the module docs.
pub struct Handler {
    capacity: usize,
    tenants: Mutex<BTreeMap<String, TenantSlot>>,
    clock: AtomicU64,
    queue: QueueTelemetry,
    breakers: BreakerRegistry,
    draining: std::sync::atomic::AtomicBool,
    worker_panics: AtomicU64,
}

/// Locks a handler mutex, riding through poisoning: tenant state is
/// valid at every await-free point, so a panicking peer thread must not
/// wedge the daemon.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Handler {
    /// A handler keeping at most `capacity` warm tenant engines
    /// (clamped to at least one).
    pub fn new(capacity: usize) -> Handler {
        Handler {
            capacity: capacity.max(1),
            tenants: Mutex::new(BTreeMap::new()),
            clock: AtomicU64::new(0),
            queue: QueueTelemetry::default(),
            breakers: BreakerRegistry::default(),
            draining: std::sync::atomic::AtomicBool::new(false),
            worker_panics: AtomicU64::new(0),
        }
    }

    /// The queue telemetry reported by the `metrics` method; the daemon
    /// updates it from its accept loop.
    pub fn queue(&self) -> &QueueTelemetry {
        &self.queue
    }

    /// Installs the per-tenant circuit-breaker policy. A threshold of
    /// `0` (the [`Handler::new`] default) disables breakers.
    pub fn set_breaker_policy(&self, policy: BreakerPolicy) {
        self.breakers.set_policy(policy);
    }

    /// Records a handler failure against `tenant`'s breaker from
    /// outside the dispatch path (the daemon charges an overrun compute
    /// deadline here). Emits `serve.breaker-open` on the open edge.
    pub fn charge_breaker_failure(&self, tenant: &str) {
        if self.breakers.note_failure(tenant) {
            wfms_obs::counter("serve.breaker-open", 1);
        }
    }

    /// Flips the daemon into (or out of) draining state; reported by
    /// the `health` method.
    pub fn set_draining(&self, draining: bool) {
        self.draining
            .store(draining, std::sync::atomic::Ordering::SeqCst);
    }

    /// True once shutdown started and the daemon is draining.
    pub fn is_draining(&self) -> bool {
        self.draining.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Records one worker panic contained by the daemon's watchdog.
    pub fn note_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
        wfms_obs::counter("serve.worker-panic", 1);
    }

    /// Worker panics contained since startup.
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics.load(Ordering::Relaxed)
    }

    /// Number of warm tenant engines currently held.
    pub fn tenant_count(&self) -> usize {
        lock(&self.tenants).len()
    }

    /// Lifetime cache hits of one warm tenant's engine, if present.
    pub fn tenant_cache_hits(&self, tenant: &str) -> Option<u64> {
        lock(&self.tenants)
            .get(tenant)
            .map(|slot| slot.tenant.engine().cache_stats().hits)
    }

    /// Maps one request to its response. Never panics on malformed
    /// input: every failure becomes a typed error payload. Both forms of
    /// `params` run the same method code on the same text, so they get
    /// the same answer.
    pub fn handle<P: ParamsText>(&self, request: &Request<P>) -> Response {
        if request.v != PROTOCOL_VERSION {
            return Response::failure(
                request,
                ERR_UNSUPPORTED_VERSION,
                format!(
                    "this server speaks protocol v{PROTOCOL_VERSION}; request is v{}",
                    request.v
                ),
            );
        }
        let tenant = tenant_key(request);
        // Only the engine-touching methods are breaker-guarded: the
        // cheap introspection methods (`metrics`, `health`, …) must
        // stay reachable while a tenant's breaker is open.
        let guarded = matches!(
            request.method.as_str(),
            METHOD_ASSESS | METHOD_RECOMMEND | METHOD_LINT
        );
        if guarded {
            if let Admission::Shed { retry_after_ms } = self.breakers.admit(tenant) {
                return Response::failure(
                    request,
                    ERR_UNAVAILABLE,
                    format!(
                        "tenant {tenant:?}: circuit breaker open; retry after {retry_after_ms}ms"
                    ),
                );
            }
        }
        let outcome = match request.method.as_str() {
            METHOD_ASSESS => self.assess(tenant, &request.params.text()),
            METHOD_RECOMMEND => self.recommend(tenant, &request.params.text()),
            METHOD_LINT => self.lint(&request.params.text()),
            METHOD_PROFILE_SNAPSHOT => profile_snapshot(),
            METHOD_METRICS => self.metrics(),
            METHOD_HEALTH => self.health(),
            METHOD_SHUTDOWN => encode(&ShutdownResult { stopping: true }),
            other => Err(Failure::new(
                ERR_UNKNOWN_METHOD,
                format!(
                    "unknown method {other:?} (methods: {})",
                    wfms_proto::methods().join(", ")
                ),
            )),
        };
        if guarded {
            match &outcome {
                // A search that finds no winner has answered.
                Ok(_)
                | Err(Failure {
                    no_winner: true, ..
                }) => self.breakers.note_success(tenant),
                // Only handler-work failures trip the breaker; envelope
                // problems (unknown method, bad version) never reach
                // here for guarded methods.
                Err(failure)
                    if matches!(failure.kind, ERR_TOOL | ERR_INVALID_PARAMS | ERR_LINT) =>
                {
                    self.charge_breaker_failure(tenant);
                }
                Err(_) => {}
            }
        }
        match outcome {
            Ok(result) => Response::success(request, result),
            Err(failure) => Response::failure(request, failure.kind, failure.message),
        }
    }

    // ------------------------------------------------------- methods

    fn assess(&self, tenant: &str, params: &str) -> Result<Value, Failure> {
        let params: AssessParams<RawValue> = decode_params(params)?;
        refuse_removed_fields(&[
            ("epsilon", params.epsilon.is_some()),
            ("avail_backend", params.avail_backend.is_some()),
            ("solver_tol", params.solver_tol.is_some()),
            ("solver_max_iter", params.solver_max_iter.is_some()),
        ])?;
        let goals = request_goals(
            &params.registry,
            params.max_wait,
            params.min_availability,
            params.per_type_max_wait.as_deref(),
        )?;
        let tenant = self.tenant(
            tenant,
            TenantInputs {
                registry: params.registry,
                workload: params.workload,
                goals,
                opts: search_options(None, params.strict.unwrap_or(false)),
            },
        )?;
        let assessed = tenant.assess(params.config)?;
        encode(&AssessResult {
            configuration: assessed.configuration,
            server_types: assessed.server_types,
            assessment: encode(&assessed.assessment)?,
            turnarounds: assessed.turnarounds.to_vec(),
        })
    }

    fn recommend(&self, tenant: &str, params: &str) -> Result<Value, Failure> {
        let params: RecommendParams<RawValue> = decode_params(params)?;
        refuse_removed_fields(&[
            ("epsilon", params.epsilon.is_some()),
            ("avail_backend", params.avail_backend.is_some()),
            ("solver_tol", params.solver_tol.is_some()),
            ("solver_max_iter", params.solver_max_iter.is_some()),
            ("screen_epsilon", params.screen_epsilon.is_some()),
            ("rank_moves", params.rank_moves.is_some()),
            ("incremental", params.incremental.is_some()),
        ])?;
        let goals = request_goals(
            &params.registry,
            params.max_wait,
            params.min_availability,
            params.per_type_max_wait.as_deref(),
        )?;
        let search = params.search.as_deref().unwrap_or("greedy");
        // `params.jobs` is accepted and ignored: every search runs on
        // this worker's thread.
        let tenant = self.tenant(
            tenant,
            TenantInputs {
                registry: params.registry,
                workload: params.workload,
                goals,
                opts: search_options(params.budget, params.strict.unwrap_or(false)),
            },
        )?;
        let result = tenant.recommend(search, params.seed)?;
        let configuration = Configuration::new(
            tenant.engine().registry(),
            result.assessment.replicas.clone(),
        )
        .map(|c| c.to_string())
        .unwrap_or_default();
        encode(&RecommendResult {
            search: search.to_string(),
            configuration,
            assessment: encode(&result.assessment)?,
            evaluations: result.evaluations as u64,
            quarantined: encode(&result.quarantined)?,
        })
    }

    fn lint(&self, params: &str) -> Result<Value, Failure> {
        let params: LintParams<RawValue> = decode_params(params)?;
        let registry: ServerTypeRegistry = decode_doc("registry", &params.registry)?;
        let workload: WorkloadFile = decode_doc("workload", &params.workload)?;
        let mix: Vec<(WorkflowSpec, f64)> = workload
            .workflows
            .into_iter()
            .map(|e| (e.spec, e.arrival_rate))
            .collect();
        let goals = (params.max_wait.is_some() || params.min_availability.is_some()).then_some(
            wfms_core::analysis::GoalTargets {
                max_waiting_time: params.max_wait,
                min_availability: params.min_availability,
            },
        );
        let system = wfms_core::analysis::SystemUnderAnalysis {
            registry: &registry,
            workload: &mix,
            replicas: params.config.as_deref(),
            goals: goals.as_ref(),
            max_total_servers: params.budget.map(|b| b as usize),
        };
        let findings = wfms_core::analysis::analyze(&system);
        encode(&LintResult {
            errors: findings.error_count() as u64,
            summary: findings.summary(),
            findings: encode(&findings)?,
        })
    }

    fn metrics(&self) -> Result<Value, Failure> {
        let tenants = lock(&self.tenants)
            .iter()
            .map(|(tenant, slot)| {
                let stats = slot.tenant.engine().cache_stats();
                TenantGauges {
                    tenant: tenant.clone(),
                    state_entries: stats.state_entries as u64,
                    cache_hits: stats.hits,
                    cache_misses: stats.misses,
                }
            })
            .collect();
        encode(&MetricsResult {
            obs: encode(&wfms_obs::snapshot())?,
            tenants,
            queue: self.queue.gauges(),
        })
    }

    /// The `health` method: serving-layer state only — no tenant engine
    /// is touched, so the probe stays cheap and always answers, even
    /// with every breaker open.
    fn health(&self) -> Result<Value, Failure> {
        encode(&HealthResult {
            state: if self.is_draining() {
                "draining".to_string()
            } else {
                "ready".to_string()
            },
            queue: self.queue.gauges(),
            breakers: self.breakers.statuses(),
            worker_panics: self.worker_panics(),
        })
    }

    // ------------------------------------------------- tenant engines

    /// Returns the tenant's warm state, rebuilding it when the request
    /// inputs differ from what the warm engine was built from. Only a
    /// rebuild decodes the documents; the (potentially expensive) build
    /// runs outside the map lock, so slow cold starts never serialize
    /// other tenants.
    fn tenant(&self, key: &str, inputs: TenantInputs) -> Result<Arc<Tenant>, Failure> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = lock(&self.tenants).get_mut(key) {
            if slot.inputs == inputs {
                slot.stamp = stamp;
                return Ok(Arc::clone(&slot.tenant));
            }
        }
        let registry: ServerTypeRegistry = decode_doc("registry", &inputs.registry)?;
        let workload: WorkloadFile = decode_doc("workload", &inputs.workload)?;
        let tool = workload.into_tool(registry).map_err(MethodError::Tool)?;
        let built = Arc::new(Tenant::new(&tool, &inputs.goals, inputs.opts)?);
        let mut tenants = lock(&self.tenants);
        // A racing request may have built the same state first; keep
        // theirs so both requests share one warm engine.
        if let Some(slot) = tenants.get_mut(key) {
            if slot.inputs == inputs {
                slot.stamp = stamp;
                return Ok(Arc::clone(&slot.tenant));
            }
        }
        tenants.insert(
            key.to_string(),
            TenantSlot {
                stamp,
                inputs,
                tenant: Arc::clone(&built),
            },
        );
        while tenants.len() > self.capacity {
            let oldest = tenants
                .iter()
                .min_by_key(|(_, slot)| slot.stamp)
                .map(|(key, _)| key.clone());
            match oldest {
                Some(key) => tenants.remove(&key),
                None => break,
            };
        }
        Ok(built)
    }
}

fn tenant_key<P>(request: &Request<P>) -> &str {
    request.tenant.as_deref().unwrap_or(DEFAULT_TENANT)
}

/// The goals an `assess` or `recommend` request names. The registry
/// document is decoded only when per-type goals ride the request, to
/// resolve their server-type names; without them nothing is decoded.
fn request_goals(
    registry: &RawValue,
    max_wait: Option<f64>,
    min_availability: Option<f64>,
    per_type: Option<&[PerTypeWait]>,
) -> Result<Goals, Failure> {
    let per_type = match per_type {
        Some(entries) if !entries.is_empty() => {
            let registry: ServerTypeRegistry = decode_doc("registry", registry)?;
            resolve_per_type_waits(&registry, entries)?
        }
        _ => Vec::new(),
    };
    Ok(build_goals(max_wait, min_availability, per_type)?)
}

/// Refuses a request that still sets an engine switch the protocol
/// declares but no longer honours (see [`wfms_proto::AssessParams`]):
/// the first non-null field answers `invalid-params` naming it, so an
/// old client learns its setting was not applied. `null` and absence
/// both pass.
fn refuse_removed_fields(fields: &[(&str, bool)]) -> Result<(), Failure> {
    match fields.iter().find(|(_, set)| *set) {
        Some((name, _)) => Err(Failure::new(
            ERR_INVALID_PARAMS,
            format!(
                "`{name}` was removed: every candidate is assessed exactly from its \
                 per-type records; send null or omit the field"
            ),
        )),
        None => Ok(()),
    }
}

/// Decodes request params from their text.
fn decode_params<T: for<'de> Deserialize<'de>>(params: &str) -> Result<T, Failure> {
    serde_json::from_str(params).map_err(|e| Failure::new(ERR_INVALID_PARAMS, e.to_string()))
}

/// Decodes an inline registry/workload document from its text,
/// labelling failures with which document was malformed.
fn decode_doc<T: for<'de> Deserialize<'de>>(what: &str, doc: &RawValue) -> Result<T, Failure> {
    serde_json::from_str(doc.get())
        .map_err(|e| Failure::new(ERR_INVALID_PARAMS, format!("{what}: {e}")))
}

/// Serializes a result payload; serialization failures surface as
/// typed errors instead of panicking the worker.
fn encode<T: Serialize>(value: &T) -> Result<Value, Failure> {
    serde_json::to_value(value).map_err(|e| Failure::new(ERR_INVALID_PARAMS, e.to_string()))
}

/// The `profile-snapshot` method: the live recorder's stage totals and
/// metrics (non-draining, so repeated scrapes are monotone).
fn profile_snapshot() -> Result<Value, Failure> {
    let snapshot = wfms_obs::snapshot();
    encode(&ProfileSnapshotResult {
        dropped_spans: snapshot.dropped_spans,
        stages: encode(&wfms_obs::aggregate_stages(&snapshot))?,
        counters: encode(&snapshot.counters)?,
        gauges: encode(&snapshot.gauges)?,
        histograms: encode(&snapshot.histograms)?,
    })
}
