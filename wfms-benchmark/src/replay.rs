//! Layer-by-layer replays of one op, each layer call wrapped in a
//! benchmark span (see [`crate::trace`]).
//!
//! A one-shot CLI call is replayed as the sequence the CLI runs —
//! argument parsing, spec decoding, request encoding, the in-process
//! request handler, result decoding — and then the handler's own work is
//! replayed layer by layer under an `engine` span: workflow analysis,
//! engine construction, the engine call, every candidate's availability
//! solve and performability fold, and the turnaround percentile. A
//! daemon request is replayed against a warm in-process handler and
//! warm engines that hold what the daemon holds.
//!
//! The availability replay builds the dense chain and solves it by LU,
//! the path `select_backend` picks for every workload here (truncation
//! `ε = 0`, at most 4096 states); a candidate it would send elsewhere
//! fails the replay.

use std::collections::BTreeMap;
use std::sync::Mutex;

use serde_json::Value;
use wfms_cli::ParsedArgs;
use wfms_core::avail::{select_backend, AvailabilityModel, RepairPolicy};
use wfms_core::markov::ctmc::SteadyStateMethod;
use wfms_core::perf::{
    aggregate_load, analyze_workflow, AnalysisOptions, SystemLoad, TurnaroundDistribution,
    WorkloadItem,
};
use wfms_core::performability::{evaluate_with_model, PerformabilityError};
use wfms_core::{
    AssessmentEngine, AvailBackend, Configuration, DegradedPolicy, Goals, SearchOptions,
    ServerTypeRegistry,
};
use wfms_proto::{
    AssessParams, AssessResult, RecommendParams, RecommendResult, Request, Response, METHOD_ASSESS,
    METHOD_RECOMMEND,
};
use wfms_serve::{Handler, WorkloadFile};

use crate::golden::{self, Answer};
use crate::trace::Tracer;

/// The waiting-time goal every workload asks for, in minutes.
pub const MAX_WAIT: f64 = 0.05;
/// The availability goal every workload asks for.
pub const MIN_AVAILABILITY: f64 = 0.9999;

/// The goals as the engine takes them.
///
/// # Errors
/// Never for the constants above.
pub fn goals() -> Result<Goals, String> {
    Goals::new(MAX_WAIT, MIN_AVAILABILITY).map_err(|e| e.to_string())
}

/// A registry and workload, typed and as raw JSON documents.
#[derive(Debug, Clone)]
pub struct Docs {
    /// The typed registry.
    pub registry: ServerTypeRegistry,
    /// The typed workload.
    pub workload: WorkloadFile,
    /// The registry document.
    pub registry_value: Value,
    /// The workload document.
    pub workload_value: Value,
}

impl Docs {
    /// Reads and decodes the two files.
    ///
    /// # Errors
    /// A message when a file is missing or does not decode.
    pub fn read(registry: &str, workload: &str) -> Result<Docs, String> {
        let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
        let (registry_text, workload_text) = (read(registry)?, read(workload)?);
        let decode = |e: serde_json::Error| format!("spec decode: {e}");
        Ok(Docs {
            registry: serde_json::from_str(&registry_text).map_err(decode)?,
            workload: serde_json::from_str(&workload_text).map_err(decode)?,
            registry_value: serde_json::from_str(&registry_text).map_err(decode)?,
            workload_value: serde_json::from_str(&workload_text).map_err(decode)?,
        })
    }

    /// Analyses every workflow and aggregates the load (what the handler
    /// does when it builds a tenant's engine).
    ///
    /// # Errors
    /// A message when an analysis fails.
    pub fn analyse(&self) -> Result<(Vec<WorkloadItem>, SystemLoad), String> {
        let mut items = Vec::with_capacity(self.workload.workflows.len());
        for entry in &self.workload.workflows {
            items.push(WorkloadItem {
                analysis: analyze_workflow(
                    &entry.spec,
                    &self.registry,
                    &AnalysisOptions::default(),
                )
                .map_err(|e| e.to_string())?,
                arrival_rate: entry.arrival_rate,
            });
        }
        let load = aggregate_load(&items, &self.registry).map_err(|e| e.to_string())?;
        Ok((items, load))
    }

    /// A fresh engine over these documents with `jobs` workers.
    ///
    /// # Errors
    /// A message when analysis or engine construction fails.
    pub fn engine(&self, jobs: usize) -> Result<AssessmentEngine, String> {
        let (_, load) = self.analyse()?;
        AssessmentEngine::new(&self.registry, &load, &goals()?, options(jobs))
            .map_err(|e| e.to_string())
    }
}

/// The engine options of a request with `jobs` workers and every other
/// knob at its default.
pub fn options(jobs: usize) -> SearchOptions {
    SearchOptions::builder().jobs(jobs).build()
}

/// What one `assess` or `recommend` call asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum Ask {
    /// `assess --config <config>`.
    Assess(Vec<usize>),
    /// `recommend`, exhaustive (`--optimal`) or greedy, with `--jobs`.
    Recommend {
        /// `--optimal`.
        exhaustive: bool,
        /// `--jobs`, when given.
        jobs: Option<u64>,
    },
}

impl Ask {
    /// The request the CLI hands its in-process handler for this ask.
    ///
    /// # Errors
    /// A message when the params do not serialize.
    pub fn request(&self, docs: &Docs) -> Result<Request, String> {
        let (method, params) = match self {
            Ask::Assess(config) => (
                METHOD_ASSESS,
                serde_json::to_value(AssessParams {
                    registry: docs.registry_value.clone(),
                    workload: docs.workload_value.clone(),
                    config: config.clone(),
                    max_wait: Some(MAX_WAIT),
                    min_availability: Some(MIN_AVAILABILITY),
                    epsilon: None,
                    avail_backend: None,
                    solver_tol: None,
                    solver_max_iter: None,
                    strict: None,
                    per_type_max_wait: None,
                }),
            ),
            Ask::Recommend { exhaustive, jobs } => (
                METHOD_RECOMMEND,
                serde_json::to_value(RecommendParams {
                    registry: docs.registry_value.clone(),
                    workload: docs.workload_value.clone(),
                    search: Some(if *exhaustive { "exhaustive" } else { "greedy" }.to_string()),
                    max_wait: Some(MAX_WAIT),
                    min_availability: Some(MIN_AVAILABILITY),
                    budget: None,
                    jobs: *jobs,
                    seed: None,
                    epsilon: None,
                    avail_backend: None,
                    solver_tol: None,
                    solver_max_iter: None,
                    strict: None,
                    screen_epsilon: None,
                    rank_moves: None,
                    incremental: None,
                    per_type_max_wait: None,
                }),
            ),
        };
        Ok(Request::new(method, params.map_err(|e| e.to_string())?))
    }

    /// Decodes a handler response into the answer it carries.
    ///
    /// # Errors
    /// A message for an error response or an undecodable result.
    pub fn answer(&self, response: &Response) -> Result<Answer, String> {
        if let Some(e) = &response.error {
            return Err(format!("{}: {}", e.kind, e.message));
        }
        let result = response.result.clone().unwrap_or(Value::Null);
        let decode = |e: serde_json::Error| format!("result decode: {e}");
        match self {
            Ask::Assess(_) => golden::from_assess(
                &serde_json::from_value::<AssessResult>(result).map_err(decode)?,
            ),
            Ask::Recommend { .. } => golden::from_recommend(
                &serde_json::from_value::<RecommendResult>(result).map_err(decode)?,
            ),
        }
    }
}

/// One one-shot CLI call: its arguments and what they ask for.
#[derive(Debug, Clone)]
pub struct CliCall {
    /// The `wfms` arguments (without the program name).
    pub args: Vec<String>,
    /// The `--registry` path.
    pub registry: String,
    /// The `--workload` path.
    pub workload: String,
    /// What the call asks for.
    pub ask: Ask,
}

impl CliCall {
    /// `wfms <command> --registry … --workload … <goals> <extra>`.
    pub fn new(registry: &str, workload: &str, ask: Ask) -> CliCall {
        let mut args: Vec<String> = vec![
            match ask {
                Ask::Assess(_) => "assess",
                Ask::Recommend { .. } => "recommend",
            }
            .to_string(),
            "--registry".into(),
            registry.to_string(),
            "--workload".into(),
            workload.to_string(),
            "--max-wait".into(),
            MAX_WAIT.to_string(),
            "--min-availability".into(),
            MIN_AVAILABILITY.to_string(),
        ];
        match &ask {
            Ask::Assess(config) => {
                let list: Vec<String> = config.iter().map(usize::to_string).collect();
                args.extend(["--config".to_string(), list.join(",")]);
            }
            Ask::Recommend { exhaustive, jobs } => {
                if *exhaustive {
                    args.push("--optimal".into());
                }
                if let Some(jobs) = jobs {
                    args.extend(["--jobs".to_string(), jobs.to_string()]);
                }
            }
        }
        CliCall {
            args,
            registry: registry.to_string(),
            workload: workload.to_string(),
            ask,
        }
    }
}

/// Replays one CLI call whose real run took `main_ms`.
///
/// # Errors
/// A message when a replayed layer fails.
pub fn cli(t: &mut Tracer, op: u64, root: u64, call: &CliCall, main_ms: f64) -> Result<(), String> {
    let (parsed, args_ms) = t.time(op, root, "cli.args", || {
        ParsedArgs::parse(call.args.clone())
    });
    parsed.map_err(|e| format!("replay: {e}"))?;
    let (docs, decode_ms) = t.time(op, root, "spec.decode", || {
        Docs::read(&call.registry, &call.workload)
    });
    let docs = docs?;
    let (request, encode_ms) = t.time(op, root, "proto.encode", || call.ask.request(&docs));
    let request = request?;
    let (response, handle_ms) =
        t.time(op, root, format!("serve.handle.{}", request.method), || {
            Handler::new(1).handle(&request)
        });
    let (answer, result_ms) = t.time(op, root, "proto.decode", || call.ask.answer(&response));
    answer?;
    t.add(
        "cli.unattributed_ms",
        main_ms - (args_ms + decode_ms + encode_ms + handle_ms + result_ms),
    );
    cold_engine(t, op, root, &docs, &call.ask)
}

/// Replays what the handler does for `ask` on a fresh engine. The
/// replay runs on one worker whatever the call's `--jobs`, so the
/// candidates' replayed solves and folds can be subtracted from the
/// search time; the parallel layer has its own speed-up metrics.
fn cold_engine(t: &mut Tracer, op: u64, root: u64, docs: &Docs, ask: &Ask) -> Result<(), String> {
    let span = t.begin(op, Some(root), "engine");
    let (analysed, _) = t.time(op, span, "perf.analyze", || docs.analyse());
    let (items, load) = analysed?;
    let goals = goals()?;
    let (engine, _) = t.time(op, span, "config.engine_new", || {
        AssessmentEngine::new(&docs.registry, &load, &goals, options(1))
    });
    let engine = engine.map_err(|e| e.to_string())?;
    let (searched, _) = t.time(op, span, "config.search", || search(&engine, docs, ask));
    let (candidates, evaluations) = searched?;
    t.add("config.evaluations", evaluations as f64);
    for replicas in candidates {
        let config =
            Configuration::new(&docs.registry, replicas.clone()).map_err(|e| e.to_string())?;
        let states = config.system_state_count();
        t.add("avail.states", states as f64);
        // The engine's own choice for a request with default options.
        let backend = select_backend(AvailBackend::Auto, RepairPolicy::Independent, states, 0.0);
        if backend != AvailBackend::Dense {
            return Err(format!(
                "{replicas:?}: the engine solves it with the {backend:?} backend; \
                 the replay covers the dense one only"
            ));
        }
        let (solved, _) = t.time(op, span, "avail.solve", || {
            let model = AvailabilityModel::new(&docs.registry, &config)?;
            let pi = model.steady_state(SteadyStateMethod::Lu)?;
            model.availability(&pi)?;
            Ok::<_, wfms_core::avail::AvailError>((model, pi))
        });
        let (model, pi) = solved.map_err(|e| e.to_string())?;
        let (folded, _) = t.time(op, span, "performability.fold", || {
            evaluate_with_model(
                &model,
                &pi,
                &docs.registry,
                &load,
                DegradedPolicy::Conditional,
            )
        });
        // A candidate too small to serve the load folds to no serving
        // state; the engine reports it as saturated, not as an error.
        match folded {
            Ok(_) | Err(PerformabilityError::NoServingStates) => {}
            Err(e) => return Err(e.to_string()),
        }
    }
    if matches!(ask, Ask::Assess(_)) {
        turnarounds(t, op, span, &items)?;
    }
    t.end(span);
    Ok(())
}

/// Runs the engine call of `ask`; returns every candidate it assessed
/// and its evaluation count.
fn search(
    engine: &AssessmentEngine,
    docs: &Docs,
    ask: &Ask,
) -> Result<(Vec<Vec<usize>>, usize), String> {
    let result = match ask {
        Ask::Assess(config) => {
            let config =
                Configuration::new(&docs.registry, config.clone()).map_err(|e| e.to_string())?;
            let a = engine.assess(&config).map_err(|e| e.to_string())?;
            return Ok((vec![a.replicas], 1));
        }
        Ask::Recommend {
            exhaustive: true, ..
        } => engine.exhaustive(),
        Ask::Recommend { .. } => engine.greedy(),
    }
    .map_err(|e| e.to_string())?;
    let candidates = result.trace.into_iter().map(|a| a.replicas).collect();
    Ok((candidates, result.evaluations))
}

/// The p90 turnaround of every workflow, as the handler's `assess`
/// computes it.
fn turnarounds(t: &mut Tracer, op: u64, parent: u64, items: &[WorkloadItem]) -> Result<(), String> {
    let (done, _) = t.time(op, parent, "perf.turnaround", || {
        for item in items {
            TurnaroundDistribution::new(&item.analysis, 1e-9)?.percentile(0.9)?;
        }
        Ok::<(), wfms_core::perf::PerfError>(())
    });
    done.map_err(|e| e.to_string())
}

/// A warm tenant of the daemon, mirrored in-process.
pub struct WarmTenant {
    docs: Docs,
    engine: AssessmentEngine,
}

impl WarmTenant {
    /// A tenant over `docs` whose engine runs `jobs` workers.
    ///
    /// # Errors
    /// A message when the engine cannot be built.
    pub fn new(docs: Docs, jobs: usize) -> Result<WarmTenant, String> {
        let engine = docs.engine(jobs)?;
        Ok(WarmTenant { docs, engine })
    }
}

/// The in-process mirror of a warm daemon: a handler that has answered
/// every distinct request once, and warm engines per tenant.
pub struct WarmServer {
    handler: Handler,
    /// One replay at a time: the recorder is process-global, so a replay
    /// running beside another's enabled recorder would leak counters
    /// into it.
    one_at_a_time: Mutex<()>,
    tenants: BTreeMap<String, WarmTenant>,
}

impl WarmServer {
    /// Builds the mirror and warms it with `requests`; `tenants` maps
    /// each tenant id to its warm engine.
    ///
    /// # Errors
    /// A message when a warm-up request or search fails.
    pub fn new(
        requests: &[(Request, Option<Ask>)],
        tenants: BTreeMap<String, WarmTenant>,
    ) -> Result<WarmServer, String> {
        let server = WarmServer {
            handler: Handler::new(tenants.len().max(1)),
            one_at_a_time: Mutex::new(()),
            tenants,
        };
        for (request, ask) in requests {
            let response = server.handler.handle(request);
            if let Some(ask) = ask {
                ask.answer(&response)?;
                let tenant = server.tenant(request)?;
                search(&tenant.engine, &tenant.docs, ask)?;
            }
        }
        Ok(server)
    }

    fn tenant(&self, request: &Request) -> Result<&WarmTenant, String> {
        let id = request.tenant.as_deref().unwrap_or("default");
        self.tenants
            .get(id)
            .ok_or_else(|| format!("no warm tenant {id:?}"))
    }

    /// Replays one daemon request whose request line was `line` and
    /// whose response line was `response`.
    ///
    /// # Errors
    /// A message when a replayed layer fails.
    #[allow(clippy::too_many_arguments)]
    pub fn replay(
        &self,
        t: &mut Tracer,
        op: u64,
        root: u64,
        request: &Request,
        ask: Option<&Ask>,
        line: &str,
        response: &str,
    ) -> Result<(), String> {
        let _one_at_a_time = self
            .one_at_a_time
            .lock()
            .map_err(|_| "replay lock poisoned".to_string())?;
        let (encoded, _) = t.time(op, root, "proto.encode", || serde_json::to_string(request));
        encoded.map_err(|e| e.to_string())?;
        let (decoded, _) = t.time(op, root, "proto.decode", || {
            serde_json::from_str::<Request>(line.trim_end())?;
            serde_json::from_str::<Response>(response.trim_end())
        });
        decoded.map_err(|e| e.to_string())?;
        let recorder = wfms_obs::global();
        recorder.take();
        recorder.enable();
        t.time(op, root, format!("serve.handle.{}", request.method), || {
            self.handler.handle(request)
        });
        recorder.disable();
        t.absorb(&recorder.take());
        let Some(ask) = ask else {
            return Ok(());
        };
        let tenant = self.tenant(request)?;
        let span = t.begin(op, Some(root), "engine");
        let (searched, _) = t.time(op, span, "config.search", || {
            search(&tenant.engine, &tenant.docs, ask)
        });
        t.add("config.evaluations", searched?.1 as f64);
        if matches!(ask, Ask::Assess(_)) {
            let (analysed, _) = t.time(op, span, "perf.analyze", || tenant.docs.analyse());
            turnarounds(t, op, span, &analysed?.0)?;
        }
        t.end(span);
        Ok(())
    }
}
