//! The shared request handler: one typed API under two transports.
//!
//! [`Handler::handle`] maps a [`wfms_proto::Request`] to a
//! [`wfms_proto::Response`]. The CLI calls it in-process for one-shot
//! `assess` / `recommend` invocations; the TCP daemon calls it per
//! request line. Tenant state — a warm [`AssessmentEngine`] whose
//! record and block caches amortize across requests — lives inside the
//! handler, keyed by the client-supplied tenant id and bounded by an LRU
//! cap.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use serde::{Deserialize, Serialize};
use serde_json::Value;

use wfms_core::config::{AnnealingOptions, AssessmentEngine, Goals, SearchOptions, SearchResult};
use wfms_core::perf::WorkflowAnalysis;
use wfms_core::{Configuration, ServerTypeRegistry, WorkflowSpec};
use wfms_proto::{
    AssessParams, AssessResult, HealthResult, LintParams, LintResult, MetricsResult, PerTypeWait,
    ProfileSnapshotResult, QueueGauges, RecommendParams, RecommendResult, Request, Response,
    ShutdownResult, TenantGauges, TurnaroundSummary, ERR_INVALID_PARAMS, ERR_LINT, ERR_TOOL,
    ERR_UNAVAILABLE, ERR_UNKNOWN_METHOD, ERR_UNSUPPORTED_VERSION, METHOD_ASSESS, METHOD_HEALTH,
    METHOD_LINT, METHOD_METRICS, METHOD_PROFILE_SNAPSHOT, METHOD_RECOMMEND, METHOD_SHUTDOWN,
    PROTOCOL_VERSION,
};

use crate::resilience::{Admission, BreakerPolicy, BreakerRegistry};

/// One workflow type plus its arrival rate, as stored in a workload
/// file (and carried inline in `assess` / `recommend` / `lint` params).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadEntry {
    /// Arrival rate ξ in instances per minute.
    pub arrival_rate: f64,
    /// The workflow specification.
    pub spec: WorkflowSpec,
}

/// The on-disk workload file: the "workflow repository" of Sec. 7.1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadFile {
    /// All registered workflow types.
    pub workflows: Vec<WorkloadEntry>,
}

/// A method failure before it is wrapped into a [`Response`]: a stable
/// `ERR_*` kind plus the message the CLI would print for the same
/// failure.
struct Failure {
    kind: &'static str,
    message: String,
}

impl Failure {
    fn new(kind: &'static str, message: impl Into<String>) -> Failure {
        Failure {
            kind,
            message: message.into(),
        }
    }

    /// A configuration-tool failure; the message is exactly the
    /// `ConfigError` display text the one-shot CLI surfaces.
    fn tool(err: wfms_core::ConfigError) -> Failure {
        Failure::new(ERR_TOOL, err.to_string())
    }
}

/// Queue gauges shared between the daemon's accept loop (which updates
/// them) and the handler's `metrics` method (which reports them). A
/// one-shot in-process handler leaves them at zero.
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

    /// A connection was admitted to the queue.
    pub fn enqueued(&self) {
        self.depth.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker picked an admitted connection up.
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

/// One tenant's warm state: the memoizing engine (which owns the
/// registry) and each workflow's spec name and analysis in workload
/// order, plus the fingerprint of the inputs they were built from.
/// Shared via `Arc` so concurrent requests against one tenant run on
/// the same engine (the engine is `Sync`).
struct TenantState {
    fingerprint: String,
    engine: AssessmentEngine,
    workflows: Vec<(String, WorkflowAnalysis)>,
    /// Each workflow's turnaround mean and p90, which depend on the
    /// workload alone: computed on the tenant's first `assess`, never
    /// on a `recommend`. Only a success is stored, so a failed
    /// computation is retried by the next `assess`.
    turnarounds: OnceLock<Vec<TurnaroundSummary>>,
}

impl TenantState {
    /// The turnaround summaries, computed once (the transient analysis
    /// of Sec. 4.1, extended to percentiles). Two racing first requests
    /// may both compute them; the results are equal and one is kept.
    fn turnarounds(&self) -> Result<&[TurnaroundSummary], Failure> {
        if let Some(done) = self.turnarounds.get() {
            return Ok(done);
        }
        let perf = |e| Failure::tool(wfms_core::ConfigError::Perf(e));
        let mut computed = Vec::with_capacity(self.workflows.len());
        for (name, analysis) in &self.workflows {
            let dist =
                wfms_core::perf::TurnaroundDistribution::new(analysis, 1e-9).map_err(perf)?;
            computed.push(TurnaroundSummary {
                workflow: name.clone(),
                mean_minutes: dist.mean(),
                p90_minutes: dist.percentile(0.9).map_err(perf)?,
            });
        }
        Ok(self.turnarounds.get_or_init(|| computed))
    }
}

/// A tenant-map slot: the state plus its last-use stamp for LRU
/// eviction.
struct TenantSlot {
    stamp: u64,
    state: Arc<TenantState>,
}

/// The tenant a request without an explicit tenant id lands on.
const DEFAULT_TENANT: &str = "default";

/// The shared request handler; see the module docs.
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
    /// `0` (the [`Handler::new`] default) disables breakers, which is
    /// what keeps the one-shot in-process CLI path byte-identical.
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
            .map(|slot| slot.state.engine.cache_stats().hits)
    }

    /// Maps one request to its response. Never panics on malformed
    /// input: every failure becomes a typed error payload.
    pub fn handle(&self, request: &Request) -> Response {
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
            METHOD_ASSESS => self.assess(request),
            METHOD_RECOMMEND => self.recommend(request),
            METHOD_LINT => self.lint(request),
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
                Ok(_) => self.breakers.note_success(tenant),
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

    fn assess(&self, request: &Request) -> Result<Value, Failure> {
        let params: AssessParams = decode_params(&request.params)?;
        refuse_removed_fields(&[
            ("epsilon", params.epsilon.is_some()),
            ("avail_backend", params.avail_backend.is_some()),
            ("solver_tol", params.solver_tol.is_some()),
            ("solver_max_iter", params.solver_max_iter.is_some()),
        ])?;
        let per_type =
            resolve_per_type_goals(&params.registry, params.per_type_max_wait.as_deref())?;
        let goals = build_goals(params.max_wait, params.min_availability, per_type)?;
        let opts = SearchOptions::builder()
            .strict(params.strict.unwrap_or(false))
            .build();
        let state = self.tenant_state(
            tenant_key(request),
            &params.registry,
            &params.workload,
            &goals,
            opts,
        )?;
        let config = Configuration::new(state.engine.registry(), params.config)
            .map_err(|e| Failure::tool(wfms_core::ConfigError::Arch(e)))?;
        let assessment = state.engine.assess(&config).map_err(Failure::tool)?;
        encode(&AssessResult {
            configuration: config.to_string(),
            server_types: server_type_names(state.engine.registry()),
            assessment: encode(&assessment)?,
            turnarounds: state.turnarounds()?.to_vec(),
        })
    }

    fn recommend(&self, request: &Request) -> Result<Value, Failure> {
        let params: RecommendParams = decode_params(&request.params)?;
        refuse_removed_fields(&[
            ("epsilon", params.epsilon.is_some()),
            ("avail_backend", params.avail_backend.is_some()),
            ("solver_tol", params.solver_tol.is_some()),
            ("solver_max_iter", params.solver_max_iter.is_some()),
            ("screen_epsilon", params.screen_epsilon.is_some()),
            ("rank_moves", params.rank_moves.is_some()),
            ("incremental", params.incremental.is_some()),
        ])?;
        let per_type =
            resolve_per_type_goals(&params.registry, params.per_type_max_wait.as_deref())?;
        let goals = build_goals(params.max_wait, params.min_availability, per_type)?;
        let search = params.search.as_deref().unwrap_or("greedy");
        // `params.jobs` is accepted and ignored: every search runs on
        // this worker's thread.
        let opts = SearchOptions::builder()
            .max_total_servers(params.budget.unwrap_or(64) as usize)
            .strict(params.strict.unwrap_or(false))
            .build();
        let state = self.tenant_state(
            tenant_key(request),
            &params.registry,
            &params.workload,
            &goals,
            opts,
        )?;
        let result: SearchResult = match search {
            "greedy" => state.engine.greedy().map_err(Failure::tool)?,
            "exhaustive" => state.engine.exhaustive().map_err(Failure::tool)?,
            "branch-and-bound" => state.engine.branch_and_bound().map_err(Failure::tool)?,
            "annealing" => {
                let annealing = AnnealingOptions {
                    seed: params.seed.unwrap_or(42),
                    ..AnnealingOptions::default()
                };
                state.engine.annealing(&annealing).map_err(Failure::tool)?
            }
            other => {
                return Err(Failure::new(
                    ERR_INVALID_PARAMS,
                    format!(
                        "unknown search {other:?} (expected greedy, exhaustive, \
                         branch-and-bound, or annealing)"
                    ),
                ))
            }
        };
        let configuration =
            Configuration::new(state.engine.registry(), result.assessment.replicas.clone())
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

    fn lint(&self, request: &Request) -> Result<Value, Failure> {
        let params: LintParams = decode_params(&request.params)?;
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
                let stats = slot.state.engine.cache_stats();
                TenantGauges {
                    tenant: tenant.clone(),
                    state_entries: stats.state_entries as u64,
                    block_entries: stats.block_entries as u64,
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
    /// inputs differ from what the warm engine was built from. The
    /// (potentially expensive) build runs outside the map lock, so slow
    /// cold starts never serialize other tenants.
    fn tenant_state(
        &self,
        tenant: &str,
        registry: &Value,
        workload: &Value,
        goals: &Goals,
        opts: SearchOptions,
    ) -> Result<Arc<TenantState>, Failure> {
        let fingerprint = fingerprint(registry, workload, goals, &opts)?;
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = lock(&self.tenants).get_mut(tenant) {
            if slot.state.fingerprint == fingerprint {
                slot.stamp = stamp;
                return Ok(Arc::clone(&slot.state));
            }
        }
        let built = Arc::new(build_tenant_state(
            fingerprint,
            registry,
            workload,
            goals,
            opts,
        )?);
        let mut tenants = lock(&self.tenants);
        // A racing request may have built the same state first; keep
        // theirs so both requests share one warm engine.
        if let Some(slot) = tenants.get_mut(tenant) {
            if slot.state.fingerprint == built.fingerprint {
                slot.stamp = stamp;
                return Ok(Arc::clone(&slot.state));
            }
        }
        tenants.insert(
            tenant.to_string(),
            TenantSlot {
                stamp,
                state: Arc::clone(&built),
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

/// Builds one tenant's engine and workflow analyses from inline
/// registry/workload documents, analyzing each workflow once.
fn build_tenant_state(
    fingerprint: String,
    registry: &Value,
    workload: &Value,
    goals: &Goals,
    opts: SearchOptions,
) -> Result<TenantState, Failure> {
    let registry: ServerTypeRegistry = decode_doc("registry", registry)?;
    let workload: WorkloadFile = decode_doc("workload", workload)?;
    let workflows = workload
        .workflows
        .into_iter()
        .map(|entry| (entry.spec, entry.arrival_rate));
    let (engine, workflows) =
        wfms_core::analyzed_engine(registry, workflows, goals, opts).map_err(Failure::tool)?;
    Ok(TenantState {
        fingerprint,
        engine,
        workflows,
        turnarounds: OnceLock::new(),
    })
}

/// The engine-defining inputs, serialized canonically: two requests
/// with equal fingerprints may share a warm engine (the candidate
/// `config` and per-call annealing seed are deliberately excluded —
/// cache entries are keyed by state vector and deterministic).
fn fingerprint(
    registry: &Value,
    workload: &Value,
    goals: &Goals,
    opts: &SearchOptions,
) -> Result<String, Failure> {
    let parts = [
        encode(registry)?,
        encode(workload)?,
        encode(goals)?,
        encode(opts)?,
    ];
    let rendered: Vec<String> = parts
        .iter()
        .map(|v| serde_json::to_string(v).unwrap_or_default())
        .collect();
    Ok(rendered.join("\u{1f}"))
}

fn tenant_key(request: &Request) -> &str {
    request.tenant.as_deref().unwrap_or(DEFAULT_TENANT)
}

fn server_type_names(registry: &ServerTypeRegistry) -> Vec<String> {
    registry.iter().map(|(_, t)| t.name.clone()).collect()
}

fn build_goals(
    max_wait: Option<f64>,
    min_availability: Option<f64>,
    per_type_waiting: Vec<(usize, f64)>,
) -> Result<Goals, Failure> {
    let goals = Goals {
        max_waiting_time: max_wait,
        min_availability,
        per_type_waiting,
    };
    goals.validate().map_err(Failure::tool)?;
    Ok(goals)
}

/// Resolves named per-type waiting goals (`per_type_max_wait`) against
/// the registry document into the index-keyed form [`Goals`] carries.
/// Later entries for the same type override earlier ones; the result is
/// index-sorted so equal goal sets fingerprint identically regardless
/// of client-supplied order. Returns an empty vector — and decodes
/// nothing — when no per-type goals ride the request, keeping the
/// historical clean path untouched.
fn resolve_per_type_goals(
    registry: &Value,
    per_type: Option<&[PerTypeWait]>,
) -> Result<Vec<(usize, f64)>, Failure> {
    let Some(entries) = per_type.filter(|e| !e.is_empty()) else {
        return Ok(Vec::new());
    };
    let registry: ServerTypeRegistry = decode_doc("registry", registry)?;
    let mut resolved: BTreeMap<usize, f64> = BTreeMap::new();
    for entry in entries {
        let id = registry.find_by_name(&entry.server_type).ok_or_else(|| {
            let known: Vec<String> = registry.iter().map(|(_, t)| t.name.clone()).collect();
            Failure::new(
                ERR_INVALID_PARAMS,
                format!(
                    "per_type_max_wait names unknown server type {:?} (registered: {})",
                    entry.server_type,
                    known.join(", ")
                ),
            )
        })?;
        resolved.insert(id.0, entry.max_wait);
    }
    Ok(resolved.into_iter().collect())
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

fn decode_params<T: for<'de> Deserialize<'de>>(params: &Value) -> Result<T, Failure> {
    serde_json::from_value(params.clone())
        .map_err(|e| Failure::new(ERR_INVALID_PARAMS, e.to_string()))
}

/// Decodes an inline registry/workload document, labelling failures
/// with which document was malformed.
fn decode_doc<T: for<'de> Deserialize<'de>>(what: &str, doc: &Value) -> Result<T, Failure> {
    serde_json::from_value(doc.clone())
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
