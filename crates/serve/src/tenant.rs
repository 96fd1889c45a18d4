//! The typed core of the `assess` and `recommend` methods.
//!
//! A [`Tenant`] is one warm [`AssessmentEngine`] plus each workflow's
//! analysis, built from typed documents and goals; [`Tenant::assess`]
//! and [`Tenant::recommend`] answer from it with typed results. The
//! one-shot CLI calls this core in-process on the documents it read from
//! disk; the daemon's JSON methods ([`crate::Handler`]) decode their
//! params, find the tenant by its inputs, call the same core and encode
//! its answer. Goal building, per-type resolution, the search dispatch
//! and its defaults live here once, so both transports run one
//! implementation of every method's semantics.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use wfms_core::config::{AnnealingOptions, AssessmentEngine, Goals, SearchOptions, SearchResult};
use wfms_core::perf::{TurnaroundDistribution, WorkflowAnalysis};
use wfms_core::{
    Assessment, ConfigError, Configuration, ConfigurationTool, ServerTypeRegistry, WorkflowSpec,
};
use wfms_proto::{PerTypeWait, TurnaroundSummary};

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

impl WorkloadFile {
    /// A configuration tool over `registry` with this file's workflows
    /// registered in file order, each checked by
    /// [`ConfigurationTool::add_workflow`].
    ///
    /// # Errors
    /// As [`ConfigurationTool::add_workflow`], for the first rejected
    /// entry.
    pub fn into_tool(self, registry: ServerTypeRegistry) -> Result<ConfigurationTool, ConfigError> {
        let mut tool = ConfigurationTool::new(registry);
        for entry in self.workflows {
            tool.add_workflow(entry.spec, entry.arrival_rate)?;
        }
        Ok(tool)
    }
}

/// Why a method of the typed core failed. Its display is the message
/// both transports report: the daemon under the error kind the variant
/// names, the CLI on stderr.
#[derive(Debug)]
pub enum MethodError {
    /// The configuration tool failed (wire kind `tool`).
    Tool(ConfigError),
    /// A parameter names something the method does not know (wire kind
    /// `invalid-params`).
    InvalidParams(String),
}

impl fmt::Display for MethodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MethodError::Tool(e) => write!(f, "{e}"),
            MethodError::InvalidParams(message) => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for MethodError {}

impl From<ConfigError> for MethodError {
    fn from(e: ConfigError) -> Self {
        MethodError::Tool(e)
    }
}

/// The search options of an `assess` (no budget) or a `recommend`: at
/// most `budget` servers, 64 when none is given, and fail-fast mode when
/// `strict`.
pub fn search_options(budget: Option<u64>, strict: bool) -> SearchOptions {
    SearchOptions::builder()
        .max_total_servers(budget.unwrap_or(64) as usize)
        .strict(strict)
        .build()
}

/// The validated goals of an `assess` or a `recommend`; `per_type_waiting`
/// is in the index-keyed form [`resolve_per_type_waits`] returns.
///
/// # Errors
/// [`MethodError::Tool`] as [`Goals::validate`].
pub fn build_goals(
    max_wait: Option<f64>,
    min_availability: Option<f64>,
    per_type_waiting: Vec<(usize, f64)>,
) -> Result<Goals, MethodError> {
    let goals = Goals {
        max_waiting_time: max_wait,
        min_availability,
        per_type_waiting,
    };
    goals.validate()?;
    Ok(goals)
}

/// Resolves named per-type waiting goals (`per_type_max_wait`) against
/// `registry` into the index-keyed form [`Goals`] carries. Later entries
/// for the same type override earlier ones; the result is index-sorted
/// so equal goal sets compare equal regardless of client-supplied
/// order.
///
/// # Errors
/// [`MethodError::InvalidParams`] naming the first unknown server type
/// and listing the registered ones.
pub fn resolve_per_type_waits(
    registry: &ServerTypeRegistry,
    entries: &[PerTypeWait],
) -> Result<Vec<(usize, f64)>, MethodError> {
    let mut resolved: BTreeMap<usize, f64> = BTreeMap::new();
    for entry in entries {
        let id = registry.find_by_name(&entry.server_type).ok_or_else(|| {
            MethodError::InvalidParams(format!(
                "per_type_max_wait names unknown server type {:?} (registered: {})",
                entry.server_type,
                server_type_names(registry).join(", ")
            ))
        })?;
        resolved.insert(id.0, entry.max_wait);
    }
    Ok(resolved.into_iter().collect())
}

fn server_type_names(registry: &ServerTypeRegistry) -> Vec<String> {
    registry.iter().map(|(_, t)| t.name.clone()).collect()
}

/// One `assess` answer, before a transport renders it.
#[derive(Debug)]
pub struct Assessed<'t> {
    /// The assessed configuration, as [`Configuration`] displays it.
    pub configuration: String,
    /// The registry's server-type names, in type order.
    pub server_types: Vec<String>,
    /// The goal assessment.
    pub assessment: Assessment,
    /// Each workflow's turnaround mean and p90, in workload order.
    pub turnarounds: &'t [TurnaroundSummary],
}

/// One tenant's warm state: the memoizing engine (which owns the
/// registry) and each workflow's spec name and analysis in workload
/// order. The daemon shares it via `Arc`, so concurrent requests against
/// one tenant run on the same engine (the engine is `Sync`).
pub struct Tenant {
    engine: AssessmentEngine,
    workflows: Vec<(String, WorkflowAnalysis)>,
    /// Each workflow's turnaround mean and p90, which depend on the
    /// workload alone: computed on the tenant's first `assess`, never
    /// on a `recommend`. Only a success is stored, so a failed
    /// computation is retried by the next `assess`.
    turnarounds: OnceLock<Vec<TurnaroundSummary>>,
}

impl Tenant {
    /// Builds the engine over `tool`'s registry and the aggregate load
    /// of its workflows, analyzing each workflow once.
    ///
    /// # Errors
    /// As [`ConfigurationTool::analyzed_engine`].
    pub fn new(
        tool: &ConfigurationTool,
        goals: &Goals,
        opts: SearchOptions,
    ) -> Result<Tenant, MethodError> {
        let (engine, workflows) = tool.analyzed_engine(goals, opts)?;
        Ok(Tenant {
            engine,
            workflows,
            turnarounds: OnceLock::new(),
        })
    }

    /// The tenant's engine.
    pub(crate) fn engine(&self) -> &AssessmentEngine {
        &self.engine
    }

    /// The `assess` method: the goal assessment of the configuration
    /// with `replicas`, plus the workflows' turnaround summaries.
    ///
    /// # Errors
    /// [`MethodError::Tool`] when `replicas` does not fit the registry,
    /// the assessment fails, or a turnaround summary cannot be computed.
    pub fn assess(&self, replicas: Vec<usize>) -> Result<Assessed<'_>, MethodError> {
        let registry = self.engine.registry();
        let config = Configuration::new(registry, replicas).map_err(ConfigError::Arch)?;
        let assessment = self.engine.assess(&config)?;
        Ok(Assessed {
            configuration: config.to_string(),
            server_types: server_type_names(registry),
            assessment,
            turnarounds: self.turnarounds()?,
        })
    }

    /// The `recommend` method: runs the named search (`greedy`,
    /// `exhaustive`, `branch-and-bound` or `annealing`; the annealing
    /// walk is seeded with `seed`, 42 when none is given).
    ///
    /// # Errors
    /// [`MethodError::InvalidParams`] for an unknown search name;
    /// [`MethodError::Tool`] when the search fails.
    pub fn recommend(&self, search: &str, seed: Option<u64>) -> Result<SearchResult, MethodError> {
        let result = match search {
            "greedy" => self.engine.greedy(),
            "exhaustive" => self.engine.exhaustive(),
            "branch-and-bound" => self.engine.branch_and_bound(),
            "annealing" => self.engine.annealing(&AnnealingOptions {
                seed: seed.unwrap_or(42),
                ..AnnealingOptions::default()
            }),
            other => {
                return Err(MethodError::InvalidParams(format!(
                    "unknown search {other:?} (expected greedy, exhaustive, \
                     branch-and-bound, or annealing)"
                )))
            }
        };
        Ok(result?)
    }

    /// The turnaround summaries, computed once (the transient analysis
    /// of Sec. 4.1, extended to percentiles). Two racing first requests
    /// may both compute them; the results are equal and one is kept.
    fn turnarounds(&self) -> Result<&[TurnaroundSummary], MethodError> {
        if let Some(done) = self.turnarounds.get() {
            return Ok(done);
        }
        let perf = |e| MethodError::Tool(ConfigError::Perf(e));
        let mut computed = Vec::with_capacity(self.workflows.len());
        for (name, analysis) in &self.workflows {
            let dist = TurnaroundDistribution::new(analysis, 1e-9).map_err(perf)?;
            computed.push(TurnaroundSummary {
                workflow: name.clone(),
                mean_minutes: dist.mean(),
                p90_minutes: dist.percentile(0.9).map_err(perf)?,
            });
        }
        Ok(self.turnarounds.get_or_init(|| computed))
    }
}
