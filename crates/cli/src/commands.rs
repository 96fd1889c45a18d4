//! The `wfms` command implementations.
//!
//! Every command writes its human- or JSON-formatted report to the
//! supplied writer, so the test-suite can exercise the full CLI without
//! spawning processes.

use std::io::Write;
use std::path::Path;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use wfms_core::config::{
    move_sensitivities, sensitivity, Goals, SearchOptions, SensitivityOptions,
};
use wfms_core::sim::{run as simulate, SimOptions};
use wfms_core::statechart::{chart_to_dot, map_chart, mapping_to_dot};
use wfms_core::statechart::{paper_section52_registry, validate_spec};
use wfms_core::workloads::{ep_workflow, EP_SIM_ARRIVAL_RATE};
use wfms_core::{Configuration, ConfigurationTool, ServerTypeRegistry, WorkflowSpec};

use wfms_core::config::journal;

use serde_json::Value;
use wfms_proto::{PerTypeWait, Request, Response, PROTOCOL_VERSION};
use wfms_serve::{search_options, Tenant};

use crate::args::{ArgError, ParsedArgs, TraceMode};
use crate::error::CliError;

/// Stages `profile --check` requires to have recorded at least one span;
/// see the naming table in the `wfms_obs` crate docs.
pub const REQUIRED_STAGES: &[&str] = &[
    "workflow-analysis",
    "uniformize",
    "transient-distribution",
    "first-passage",
    "avail-steady-state",
    "mg1-waiting",
    "performability",
    "assess",
];

/// Counters `profile --check` requires to be nonzero: the engine-backed
/// pass must actually replay from its records (or the memoizing path is
/// silently broken), and the per-type fold must actually sum
/// `(type, up-count)` terms (or the performability fold is silently
/// skipped).
pub const REQUIRED_COUNTERS: &[&str] = &["engine.cache-hit", "performability.state-evaluations"];

/// Counters `profile --check` requires to STAY zero: a clean profiling
/// run must never quarantine a candidate — if it does, the assessment
/// path is silently broken.
pub const REQUIRED_ZERO_COUNTERS: &[&str] = &["config.quarantined"];

// The workload-file types moved into `wfms-serve` (both transports
// decode them); re-exported here so the CLI's public API is unchanged.
pub use wfms_serve::{WorkloadEntry, WorkloadFile};

/// Reads one JSON document and decodes it to its typed form, in one
/// `spec-decode` span whose `bytes` field is the file's size.
fn read_json<T: for<'de> Deserialize<'de>>(path: &str) -> Result<T, CliError> {
    let mut span = wfms_obs::span!("spec-decode");
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io {
        path: path.to_string(),
        message: e.to_string(),
    })?;
    span.record("bytes", text.len() as u64);
    serde_json::from_str(&text).map_err(|e| CliError::Json {
        path: path.to_string(),
        message: e.to_string(),
    })
}

fn write_json<T: Serialize>(path: &Path, value: &T) -> Result<(), CliError> {
    let text = serde_json::to_string_pretty(value).map_err(|e| CliError::Json {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    std::fs::write(path, text).map_err(|e| CliError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })
}

/// Pretty-prints a report for stdout; serialization failures surface as
/// [`CliError::Json`] instead of aborting the process.
fn render_json<T: Serialize>(value: &T) -> Result<String, CliError> {
    serde_json::to_string_pretty(value).map_err(|e| CliError::Json {
        path: "<report>".to_string(),
        message: e.to_string(),
    })
}

fn load_registry(args: &ParsedArgs) -> Result<ServerTypeRegistry, CliError> {
    read_json(args.require("registry")?)
}

fn load_tool(args: &ParsedArgs) -> Result<ConfigurationTool, CliError> {
    let registry = load_registry(args)?;
    let workload: WorkloadFile = read_json(args.require("workload")?)?;
    Ok(workload.into_tool(registry)?)
}

/// The goal options of `assess` and `recommend`, checked, with the
/// `--max-wait-type` names not yet resolved against the registry.
struct GoalArgs {
    max_wait: Option<f64>,
    min_availability: Option<f64>,
    per_type: Vec<PerTypeWait>,
}

impl GoalArgs {
    /// The goals, each `--max-wait-type` name resolved against
    /// `registry` as the daemon resolves `per_type_max_wait`.
    fn resolve(self, registry: &ServerTypeRegistry) -> Result<Goals, CliError> {
        let per_type = wfms_serve::resolve_per_type_waits(registry, &self.per_type)?;
        Ok(wfms_serve::build_goals(
            self.max_wait,
            self.min_availability,
            per_type,
        )?)
    }
}

fn parse_goals(args: &ParsedArgs) -> Result<GoalArgs, CliError> {
    let max_wait = args.get_f64("max-wait")?;
    let min_availability = args.get_f64("min-availability")?;
    let per_type = parse_per_type_waits(args)?;
    // The values are checked before any name is resolved, so a bad goal
    // is reported ahead of an unknown name; no check depends on which
    // type an entry names, so placeholder indices suffice here.
    let unresolved = per_type
        .iter()
        .enumerate()
        .map(|(index, entry)| (index, entry.max_wait))
        .collect();
    wfms_serve::build_goals(max_wait, min_availability, unresolved)?;
    Ok(GoalArgs {
        max_wait,
        min_availability,
        per_type,
    })
}

/// Parses `--max-wait-type NAME=minutes[,NAME=minutes..]` into the wire
/// form (empty without the option). Server-type names are resolved by
/// the typed core, so the CLI and a daemon client report the same
/// message for an unknown name.
fn parse_per_type_waits(args: &ParsedArgs) -> Result<Vec<PerTypeWait>, CliError> {
    let Some(raw) = args.get("max-wait-type") else {
        return Ok(Vec::new());
    };
    let invalid = |reason: String| {
        CliError::Arg(ArgError::InvalidValue {
            option: "max-wait-type".into(),
            value: raw.into(),
            reason,
        })
    };
    let mut waits = Vec::new();
    for part in raw.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let Some((name, value)) = part.split_once('=') else {
            return Err(invalid(format!("expected NAME=minutes, got {part:?}")));
        };
        let max_wait = value
            .trim()
            .parse::<f64>()
            .map_err(|e| invalid(format!("bad minutes for {name:?}: {e}")))?;
        if !max_wait.is_finite() || max_wait <= 0.0 {
            return Err(invalid(format!(
                "minutes for {name:?} must be finite and positive"
            )));
        }
        waits.push(PerTypeWait {
            server_type: name.trim().to_string(),
            max_wait,
        });
    }
    if waits.is_empty() {
        return Err(invalid("no NAME=minutes entries given".to_string()));
    }
    Ok(waits)
}

fn parse_config(
    args: &ParsedArgs,
    registry: &ServerTypeRegistry,
) -> Result<Configuration, CliError> {
    let replicas = args
        .get_replicas("config")?
        .ok_or(ArgError::MissingOption { option: "config" })?;
    Ok(Configuration::new(registry, replicas).map_err(wfms_core::ConfigError::Arch)?)
}

/// Renders the graceful-degradation accounting of an assessment: failed
/// evaluations charged at their pessimistic caps, one per
/// `(type, up-count)` (a detail's state is `Y` with the failed type at
/// that up-count, and its mass is the up-count's marginal).
fn write_degradation(
    out: &mut impl Write,
    d: &wfms_core::DegradationReport,
) -> Result<(), CliError> {
    writeln!(
        out,
        "  DEGRADED: {} failed evaluation(s) charged at the pessimistic cap (mass {:.3e})",
        d.failed_states, d.charged_mass
    )?;
    for r in d.details.iter().take(3) {
        writeln!(
            out,
            "    state {:?} (mass {:.3e}): {}",
            r.state, r.probability, r.error
        )?;
    }
    if d.details.len() > 3 {
        writeln!(out, "    ... and {} more", d.details.len() - 3)?;
    }
    Ok(())
}

/// Renders the quarantine list of a search: candidates whose assessment
/// failed irrecoverably and were skipped instead of aborting the search.
fn write_quarantined(
    out: &mut impl Write,
    quarantined: &[wfms_core::QuarantinedCandidate],
) -> Result<(), CliError> {
    if quarantined.is_empty() {
        return Ok(());
    }
    writeln!(
        out,
        "  QUARANTINED: {} candidate(s) failed assessment and were skipped",
        quarantined.len()
    )?;
    for q in quarantined.iter().take(3) {
        writeln!(out, "    {:?}: {}", q.replicas, q.error)?;
    }
    if quarantined.len() > 3 {
        writeln!(out, "    ... and {} more", quarantined.len() - 3)?;
    }
    Ok(())
}

/// Usage text.
pub const USAGE: &str = "\
wfms — performability-driven configuration of distributed WFMS
(reproduction of Gillmann et al., EDBT 2000)

USAGE: wfms <command> [options]

COMMANDS
  init         --dir <path>
               write a starter registry.json + workload.json (the paper's
               Sec. 5.2 architecture and the Fig. 3 e-commerce workflow)
  validate     --registry <file> --workload <file>
  lint         --registry <file> --workload <file> [--config <y1,..>]
               [--max-wait <min>] [--min-availability <a>] [--budget <n>]
               [--format text|json]
               multi-pass static diagnostics: reports every finding with a
               stable code (W=spec, M=Markov, Q=queueing, C=configuration);
               exits non-zero when errors are present
  audit        [--root <dir>] [--format text|json]
               workspace invariant audit: scans the repository sources and
               docs for registry drift, determinism hazards, and
               panic-safety violations (stable A-codes);
               exits non-zero when errors are present
  analyze      --registry <file> --workload <file> [--json]
               per-workflow turnaround, request counts, percentiles
  availability --registry <file> --config <y1,y2,..> [--json]
               availability and yearly downtime in closed form, the
               figure `assess` reports for the same configuration
  assess       --registry <file> --workload <file> --config <y1,..>
               [--max-wait <min>] [--max-wait-type <NAME=min,..>]
               [--min-availability <a>] [--strict] [--json]
               availability and per-type waits in closed form from one
               record per server type and replica count
  recommend    --registry <file> --workload <file>
               [--max-wait <min>] [--max-wait-type <NAME=min,..>]
               [--min-availability <a>]
               [--budget <servers>] [--strict]
               [--optimal | --annealing] [--json]
               without --strict, failed evaluations (per server type and
               up-count) are charged at their pessimistic waiting-time
               caps (reported as DEGRADED), and irrecoverable candidates
               are quarantined rather than aborting the search; --strict
               restores fail-fast. one-replica neighbours share every
               cached record but the moved type's
  simulate     --registry <file> --workload <file> --config <y1,..>
               [--duration <min>] [--warmup <min>] [--seed <n>]
               [--failures] [--json]
  profile      --registry <file> --workload <file> [--config <y1,..>]
               [--max-wait <min>] [--min-availability <a>] [--runs <n>]
               [--strict] [--check]
               [--baseline <file>] [--baseline-key <name>] [--gate <pct>]
               [--json]
               run the analysis stack N times (including an
               engine-backed greedy search) and report per-stage wall
               time and solver iteration counts; --check fails when a
               required stage records no spans, a required counter
               (engine.cache-hit, performability.state-evaluations)
               stays zero, or a must-stay-zero counter
               (config.quarantined) fires on the clean run;
               --baseline diffs each stage's share of total stage time
               against a committed baseline (a BENCH_obs.json map —
               pick the experiment with --baseline-key — or a saved
               `profile --json` report) and exits non-zero when a
               stage's share grew more than --gate percent (default 25)
  explain      --journal <file> [--candidate <y1,..>] [--json]
               replay a decision journal recorded with --journal and
               reconstruct the winner's causal chain: the binding goal
               and each losing candidate's rejection reason and goal
               slacks; --candidate narrows to one replica vector.
               Output is byte-stable across identical runs
  sensitivity  --registry <file> --workload <file> --config <y1,..>
               [--step <rel>] [--moves] [--json]
               log-log elasticities of the goal metrics per parameter;
               --moves instead ranks every one-replica growth move by
               its closed-form availability and waiting-time deltas
  export-dot   --registry <file> --workload <file> --workflow <name>
               [--view chart|ctmc] [--out <file>]
               Graphviz source for the Fig. 3 chart or Fig. 4 CTMC view
  serve        [--listen <addr>] [--tenants <n>] [--queue-depth <n>]
               [--workers <n>] [--io-timeout <ms>] [--line-timeout <ms>]
               [--max-line-bytes <n>] [--request-deadline <ms>]
               [--breaker-threshold <n>] [--breaker-cooldown <ms>]
               [--drain-timeout <ms>]
               persistent multi-tenant assessment daemon: line-JSON
               requests over TCP (one compact JSON object per line;
               methods assess, recommend, lint, profile-snapshot,
               metrics, health, shutdown), one warm assessment engine
               per tenant id (LRU-bounded, default 8), a bounded
               connection queue (default 64) that sheds overflow with an
               `overloaded` response, and graceful shutdown on a
               `shutdown` request; defaults to 127.0.0.1:7414.
               Resilience: per-connection read/write deadlines
               (--io-timeout, default 30000) with a slow-loris line
               deadline (--line-timeout, default 60000) and a bounded
               request-line length (--max-line-bytes, default 16 MiB);
               an optional per-request compute deadline answering
               `deadline-exceeded` (--request-deadline, default off);
               per-tenant circuit breakers that shed a failing tenant
               fast with `unavailable` + a retry-after hint
               (--breaker-threshold consecutive failures open one,
               0 disables; --breaker-cooldown before the half-open
               probe, default 1000); graceful drain finishing in-flight
               work for up to --drain-timeout ms (default 5000) after
               shutdown; panicking requests are contained, counted, and
               the worker pool stays at full strength
  call         --method <name> [--addr <host:port>] [--params <file>]
               [--tenant <id>] [--id <s>] [--retries <n>]
               [--backoff-ms <ms>] [--seed <n>]
               one-shot line-JSON client for a running daemon: sends the
               request and prints the response line verbatim; connection
               failures and retryable error kinds (overloaded,
               unavailable, deadline-exceeded) are retried with
               seeded-jittered exponential backoff (deterministic for a
               fixed --seed), honoring any `retry after <n>ms` hint
  help         this text

GLOBAL OPTIONS (every command)
  --trace[=text|json]  record an execution trace (spans, counters,
                       histograms) and print it to stderr
  --trace-out <file>   also write the trace snapshot as JSON to <file>
  --timeline <file>    write the trace's spans and decision markers as
                       Chrome Trace Format JSON, one track per thread
                       (open in Perfetto / chrome://tracing)
  --journal <file>     record the search decision journal as JSONL
                       (replay it with `wfms explain`)
  --trace-out-force    overwrite existing --trace-out/--timeline/
                       --journal files instead of refusing
";

/// Runs one CLI invocation, writing the report to `out`.
///
/// When `--trace`, `--trace-out` or `--timeline` is given, the global
/// observability recorder is enabled with its span log around the
/// command, and the one trace it records is rendered to stderr
/// (`--trace`), written as JSON to a file (`--trace-out`) and/or drawn
/// as Chrome Trace Format JSON (`--timeline`; open it in Perfetto).
/// `wfms profile` always records, since its report is read from the
/// same trace. `--journal <file>` enables the search decision journal
/// and writes it as JSONL (replay it with `wfms explain`). The
/// command's own report still goes to `out`.
///
/// None of the three file outputs overwrite an existing file unless
/// `--trace-out-force` is given; the refusal happens before the command
/// runs, so no work is lost to a doomed invocation.
///
/// # Errors
/// [`CliError`] on bad arguments, unreadable files, or model failures.
pub fn run_command(args: &ParsedArgs, out: &mut impl Write) -> Result<(), CliError> {
    if args.flag("help") {
        write!(out, "{USAGE}")?;
        return Ok(());
    }
    let trace = args.trace_mode()?;
    let trace_out = args.get("trace-out").map(str::to_string);
    let timeline_out = args.get("timeline").map(str::to_string);
    // `wfms explain` consumes a journal file; every other command
    // records one.
    let journal_out = (args.command != "explain")
        .then(|| args.get("journal").map(str::to_string))
        .flatten();
    if !args.flag("trace-out-force") {
        for path in [&trace_out, &timeline_out, &journal_out]
            .into_iter()
            .flatten()
        {
            if Path::new(path).exists() {
                return Err(CliError::Clobber { path: path.clone() });
            }
        }
    }
    let record_spans = trace.is_some()
        || trace_out.is_some()
        || timeline_out.is_some()
        || args.command == "profile";
    if !record_spans && journal_out.is_none() {
        return dispatch(args, out);
    }
    let recorder = wfms_obs::global();
    if record_spans {
        recorder.reset();
        recorder.enable();
    }
    if journal_out.is_some() {
        journal::take();
        journal::enable();
    }
    let result = dispatch(args, out);
    let write = |path: String, text: String| {
        std::fs::write(&path, text).map_err(|e| CliError::Io {
            path,
            message: e.to_string(),
        })
    };
    if record_spans {
        recorder.disable();
        let snapshot = recorder.take();
        match trace {
            Some(TraceMode::Text) => eprint!("{}", wfms_obs::render_text(&snapshot)),
            Some(TraceMode::Json) => eprintln!("{}", wfms_obs::to_json(&snapshot)),
            None => {}
        }
        if let Some(path) = trace_out {
            write(path, wfms_obs::to_json(&snapshot))?;
        }
        if let Some(path) = timeline_out {
            write(path, wfms_obs::to_chrome_trace(&snapshot))?;
        }
    }
    if let Some(path) = journal_out {
        journal::disable();
        write(path, journal::to_jsonl(&journal::take()))?;
    }
    result
}

fn dispatch(args: &ParsedArgs, out: &mut impl Write) -> Result<(), CliError> {
    match args.command.as_str() {
        "help" => {
            write!(out, "{USAGE}")?;
            Ok(())
        }
        "init" => cmd_init(args, out),
        "validate" => cmd_validate(args, out),
        "lint" => cmd_lint(args, out),
        "audit" => cmd_audit(args, out),
        "analyze" => cmd_analyze(args, out),
        "availability" => cmd_availability(args, out),
        "assess" => cmd_assess(args, out),
        "recommend" => cmd_recommend(args, out),
        "simulate" => cmd_simulate(args, out),
        "profile" => cmd_profile(args, out),
        "explain" => cmd_explain(args, out),
        "sensitivity" => cmd_sensitivity(args, out),
        "export-dot" => cmd_export_dot(args, out),
        "serve" => cmd_serve(args, out),
        "call" => cmd_call(args, out),
        other => Err(CliError::UnknownCommand {
            command: other.to_string(),
        }),
    }
}

fn cmd_init(args: &ParsedArgs, out: &mut impl Write) -> Result<(), CliError> {
    let dir = Path::new(args.require("dir")?);
    std::fs::create_dir_all(dir).map_err(|e| CliError::Io {
        path: dir.display().to_string(),
        message: e.to_string(),
    })?;
    let registry = paper_section52_registry();
    write_json(&dir.join("registry.json"), &registry)?;
    let workload = WorkloadFile {
        workflows: vec![WorkloadEntry {
            arrival_rate: EP_SIM_ARRIVAL_RATE,
            spec: ep_workflow(),
        }],
    };
    write_json(&dir.join("workload.json"), &workload)?;
    writeln!(
        out,
        "wrote {}/registry.json and {}/workload.json",
        dir.display(),
        dir.display()
    )?;
    writeln!(
        out,
        "next: wfms recommend --registry {0}/registry.json --workload {0}/workload.json \\\n\
         \x20      --max-wait 0.05 --min-availability 0.9999",
        dir.display()
    )?;
    Ok(())
}

fn cmd_validate(args: &ParsedArgs, out: &mut impl Write) -> Result<(), CliError> {
    let registry = load_registry(args)?;
    let workload: WorkloadFile = read_json(args.require("workload")?)?;
    for entry in &workload.workflows {
        validate_spec(&entry.spec, &registry).map_err(wfms_core::ConfigError::Spec)?;
        writeln!(
            out,
            "ok: workflow {:?} ({} states, ξ = {}/min)",
            entry.spec.name,
            entry.spec.chart.states.len(),
            entry.arrival_rate
        )?;
    }
    writeln!(
        out,
        "all {} workflow(s) valid against {} server types",
        workload.workflows.len(),
        registry.len()
    )?;
    Ok(())
}

fn cmd_lint(args: &ParsedArgs, out: &mut impl Write) -> Result<(), CliError> {
    let registry = load_registry(args)?;
    let workload: WorkloadFile = read_json(args.require("workload")?)?;
    let mix: Vec<(WorkflowSpec, f64)> = workload
        .workflows
        .into_iter()
        .map(|e| (e.spec, e.arrival_rate))
        .collect();
    let replicas = args.get_replicas("config")?;
    let max_wait = args.get_f64("max-wait")?;
    let min_availability = args.get_f64("min-availability")?;
    let goals = (max_wait.is_some() || min_availability.is_some()).then_some(
        wfms_core::analysis::GoalTargets {
            max_waiting_time: max_wait,
            min_availability,
        },
    );
    let system = wfms_core::analysis::SystemUnderAnalysis {
        registry: &registry,
        workload: &mix,
        replicas: replicas.as_deref(),
        goals: goals.as_ref(),
        max_total_servers: args.get_u64("budget")?.map(|b| b as usize),
    };
    let findings = wfms_core::analysis::analyze(&system);

    let format = args.get("format").unwrap_or("text");
    match format {
        "json" => {
            writeln!(out, "{}", render_json(&findings)?)?;
        }
        "text" => {
            for d in findings.iter() {
                writeln!(
                    out,
                    "{}[{}] {}: {}",
                    d.severity, d.code, d.location, d.message
                )?;
            }
            writeln!(out, "{}", findings.summary())?;
        }
        other => {
            return Err(CliError::Arg(ArgError::InvalidValue {
                option: "format".into(),
                value: other.into(),
                reason: "expected `text` or `json`".into(),
            }))
        }
    }
    if findings.has_errors() {
        return Err(CliError::Lint {
            errors: findings.error_count(),
        });
    }
    Ok(())
}

/// `wfms audit`: the workspace invariant auditor (`wfms-audit`), the
/// implementation-side sibling of `wfms lint`. Scans the repository
/// sources and docs under `--root` (default: the current directory) and
/// reports every contract violation with a stable `A0xx` code.
fn cmd_audit(args: &ParsedArgs, out: &mut impl Write) -> Result<(), CliError> {
    let root = args.get("root").unwrap_or(".");
    let findings = wfms_audit::run_audit(Path::new(root)).map_err(|e| CliError::Io {
        path: root.to_string(),
        message: e.to_string(),
    })?;

    let format = args.get("format").unwrap_or("text");
    match format {
        "json" => {
            writeln!(out, "{}", render_json(&findings)?)?;
        }
        "text" => {
            for d in findings.iter() {
                writeln!(
                    out,
                    "{}[{}] {}: {}",
                    d.severity, d.code, d.location, d.message
                )?;
            }
            writeln!(out, "{}", findings.summary())?;
        }
        other => {
            return Err(CliError::Arg(ArgError::InvalidValue {
                option: "format".into(),
                value: other.into(),
                reason: "expected `text` or `json`".into(),
            }))
        }
    }
    if findings.has_errors() {
        return Err(CliError::Audit {
            errors: findings.error_count(),
        });
    }
    Ok(())
}

#[derive(Debug, Serialize)]
struct AnalyzeReport {
    workflow: String,
    mean_turnaround_minutes: f64,
    p50_minutes: f64,
    p90_minutes: f64,
    p99_minutes: f64,
    expected_requests: Vec<(String, f64)>,
    active_instances: f64,
}

fn cmd_analyze(args: &ParsedArgs, out: &mut impl Write) -> Result<(), CliError> {
    let tool = load_tool(args)?;
    let mut reports = Vec::new();
    for (spec, rate) in tool.workloads() {
        let analysis = tool.workflow_analysis(&spec.name)?;
        let dist = wfms_core::perf::TurnaroundDistribution::new(&analysis, 1e-9)
            .map_err(wfms_core::ConfigError::Perf)?;
        let requests = tool
            .registry()
            .iter()
            .map(|(id, t)| {
                let requests = analysis.expected_requests.get(id.0).copied().unwrap_or(0.0);
                (t.name.clone(), requests)
            })
            .collect();
        reports.push(AnalyzeReport {
            workflow: spec.name.clone(),
            mean_turnaround_minutes: analysis.mean_turnaround,
            p50_minutes: dist.percentile(0.5).map_err(wfms_core::ConfigError::Perf)?,
            p90_minutes: dist.percentile(0.9).map_err(wfms_core::ConfigError::Perf)?,
            p99_minutes: dist
                .percentile(0.99)
                .map_err(wfms_core::ConfigError::Perf)?,
            expected_requests: requests,
            active_instances: rate * analysis.mean_turnaround,
        });
    }
    if args.flag("json") {
        writeln!(out, "{}", render_json(&reports)?)?;
        return Ok(());
    }
    for r in &reports {
        writeln!(out, "workflow {:?}:", r.workflow)?;
        writeln!(
            out,
            "  turnaround: mean {:.1} min, p50 {:.1}, p90 {:.1}, p99 {:.1}",
            r.mean_turnaround_minutes, r.p50_minutes, r.p90_minutes, r.p99_minutes
        )?;
        writeln!(
            out,
            "  concurrently active instances: {:.1}",
            r.active_instances
        )?;
        for (name, req) in &r.expected_requests {
            writeln!(out, "  requests/instance @ {name}: {req:.3}")?;
        }
    }
    Ok(())
}

#[derive(Debug, Serialize)]
struct AvailabilityReport {
    configuration: Vec<usize>,
    availability: f64,
    downtime_minutes_per_year: f64,
}

/// `wfms availability`: [`ConfigurationTool::availability`], the
/// product form over the same per-type marginals `wfms assess` reads.
fn cmd_availability(args: &ParsedArgs, out: &mut impl Write) -> Result<(), CliError> {
    let registry = load_registry(args)?;
    let config = parse_config(args, &registry)?;
    let figures = ConfigurationTool::new(registry).availability(&config)?;
    let report = AvailabilityReport {
        configuration: config.as_slice().to_vec(),
        availability: figures.availability,
        downtime_minutes_per_year: figures.downtime_minutes_per_year,
    };
    if args.flag("json") {
        writeln!(out, "{}", render_json(&report)?)?;
    } else {
        writeln!(
            out,
            "{config}: availability {:.8} ({:.2} min downtime/year)",
            report.availability, report.downtime_minutes_per_year
        )?;
    }
    Ok(())
}

/// `wfms assess`: the typed `assess` core of `wfms-serve`, the one the
/// daemon's `assess` method wraps, called in-process on the documents
/// read once from disk, so a one-shot answer is bit-identical to a
/// daemon answer. The files, the specs, `--config` and the goals are
/// checked in that order first, with their path-labelled messages.
fn cmd_assess(args: &ParsedArgs, out: &mut impl Write) -> Result<(), CliError> {
    let tool = load_tool(args)?;
    let config = parse_config(args, tool.registry())?;
    let goals = parse_goals(args)?.resolve(tool.registry())?;
    let tenant = Tenant::new(&tool, &goals, search_options(None, args.flag("strict")))?;
    let assessed = tenant.assess(config.as_slice().to_vec())?;
    let assessment = &assessed.assessment;
    if args.flag("json") {
        writeln!(out, "{}", render_json(assessment)?)?;
        return Ok(());
    }
    writeln!(
        out,
        "configuration {} ({} servers):",
        assessed.configuration, assessment.cost
    )?;
    writeln!(
        out,
        "  availability {:.8} ({:.2} min downtime/year)",
        assessment.availability, assessment.downtime_minutes_per_year
    )?;
    match &assessment.expected_waiting {
        Some(waits) => {
            for (name, w) in assessed.server_types.iter().zip(waits) {
                writeln!(out, "  expected wait @ {name}: {:.2} s", w * 60.0)?;
            }
        }
        None => writeln!(
            out,
            "  SATURATED: the full configuration cannot serve the load"
        )?,
    }
    for t in assessed.turnarounds {
        writeln!(
            out,
            "  turnaround {:?}: mean {:.1} min, p90 {:.1} min",
            t.workflow, t.mean_minutes, t.p90_minutes
        )?;
    }
    if let Some(d) = &assessment.degradation {
        write_degradation(out, d)?;
    }
    writeln!(out, "  goals met: {}", assessment.meets_goals())?;
    Ok(())
}

/// `wfms recommend`: the typed `recommend` core of `wfms-serve` (see
/// [`cmd_assess`]). The `--optimal` / `--annealing` flags name the
/// core's `exhaustive` and `annealing` searches; the daemon's `search`
/// parameter also accepts `branch-and-bound`, which has no CLI flag.
fn cmd_recommend(args: &ParsedArgs, out: &mut impl Write) -> Result<(), CliError> {
    let tool = load_tool(args)?;
    let goals = parse_goals(args)?;
    let search = if args.flag("optimal") {
        "exhaustive"
    } else if args.flag("annealing") {
        "annealing"
    } else {
        "greedy"
    };
    let opts = search_options(args.get_u64("budget")?, args.flag("strict"));
    let seed = args.get_u64("seed")?;
    let goals = goals.resolve(tool.registry())?;
    let result = Tenant::new(&tool, &goals, opts)?.recommend(search, seed)?;
    let a = &result.assessment;
    if args.flag("json") {
        writeln!(out, "{}", render_json(a)?)?;
        return Ok(());
    }
    writeln!(
        out,
        "method {search}: recommend {:?} ({} servers, {} evaluations)",
        a.replicas, a.cost, result.evaluations
    )?;
    writeln!(
        out,
        "  availability {:.8} ({:.2} min downtime/year)",
        a.availability, a.downtime_minutes_per_year
    )?;
    if let Some(w) = a.max_expected_waiting {
        writeln!(out, "  worst expected wait {:.2} s", w * 60.0)?;
    }
    if let Some(d) = &a.degradation {
        write_degradation(out, d)?;
    }
    write_quarantined(out, &result.quarantined)?;
    Ok(())
}

/// `wfms serve`: the persistent multi-tenant assessment daemon
/// (`wfms-serve`). Binds the listen address, prints a ready line with
/// the actual bound address, and serves line-JSON requests until a
/// `shutdown` request arrives.
fn cmd_serve(args: &ParsedArgs, out: &mut impl Write) -> Result<(), CliError> {
    let defaults = wfms_serve::ServeOptions::default();
    let tenants = args.get_u64("tenants")?;
    let queue_depth = args.get_u64("queue-depth")?;
    let workers = args.get_u64("workers")?;
    let io_timeout = args.get_u64("io-timeout")?;
    let line_timeout = args.get_u64("line-timeout")?;
    let max_line_bytes = args.get_u64("max-line-bytes")?;
    let request_deadline = args.get_u64("request-deadline")?;
    let drain_timeout = args.get_u64("drain-timeout")?;
    for (option, value) in [
        ("tenants", tenants),
        ("queue-depth", queue_depth),
        ("workers", workers),
        ("io-timeout", io_timeout),
        ("line-timeout", line_timeout),
        ("max-line-bytes", max_line_bytes),
        ("request-deadline", request_deadline),
    ] {
        if value == Some(0) {
            return Err(CliError::Arg(ArgError::InvalidValue {
                option: option.into(),
                value: "0".into(),
                reason: "need at least 1".into(),
            }));
        }
    }
    let ms = Duration::from_millis;
    let opts = wfms_serve::ServeOptions {
        listen: args
            .get("listen")
            .map(str::to_string)
            .unwrap_or(defaults.listen),
        tenants: tenants.map(|v| v as usize).unwrap_or(defaults.tenants),
        queue_depth: queue_depth
            .map(|v| v as usize)
            .unwrap_or(defaults.queue_depth),
        workers: workers.map(|v| v as usize).unwrap_or(defaults.workers),
        io_timeout: io_timeout.map(ms).unwrap_or(defaults.io_timeout),
        line_timeout: line_timeout.map(ms).unwrap_or(defaults.line_timeout),
        max_line_bytes: max_line_bytes
            .map(|v| v as usize)
            .unwrap_or(defaults.max_line_bytes),
        request_deadline: request_deadline.map(ms).or(defaults.request_deadline),
        // 0 is meaningful for both breaker knobs: threshold 0 disables
        // breakers, cooldown 0 probes immediately.
        breaker_threshold: args
            .get_u64("breaker-threshold")?
            .map(|v| v as u32)
            .unwrap_or(defaults.breaker_threshold),
        breaker_cooldown: args
            .get_u64("breaker-cooldown")?
            .map(ms)
            .unwrap_or(defaults.breaker_cooldown),
        // 0 is meaningful here too: shed everything still queued at
        // shutdown instead of finishing it.
        drain_timeout: drain_timeout.map(ms).unwrap_or(defaults.drain_timeout),
    };
    wfms_serve::serve(&opts, out).map_err(|e| match e {
        wfms_serve::ServeError::Bind { addr, message } => CliError::Io {
            path: addr,
            message,
        },
        wfms_serve::ServeError::Io { message } => CliError::Io {
            path: "<serve>".to_string(),
            message,
        },
    })
}

/// Caps the retry client's exponential backoff so a long retry budget
/// cannot sleep for minutes between attempts.
const CALL_BACKOFF_CAP_MS: u64 = 10_000;

/// Per-attempt socket deadline of the retry client (connect, write,
/// and read each get this long).
const CALL_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The splitmix64 mixer — the same generator the simulator seeds
/// streams with; here it derives the deterministic retry jitter from
/// `--seed` and the attempt number.
fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Extracts the `retry after <n>ms` hint a breaker-open `unavailable`
/// response carries, if any.
fn retry_after_hint(message: &str) -> Option<u64> {
    let (_, rest) = message.split_once("retry after ")?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    let tail = rest.get(digits.len()..)?;
    if digits.is_empty() || !tail.starts_with("ms") {
        return None;
    }
    digits.parse().ok()
}

/// One attempt of the retry client: connect, send the request line,
/// read one response line. I/O failures come back as a displayable
/// string so the retry loop can keep the last one for its report.
fn call_once(addr: &str, line: &str) -> Result<String, String> {
    let stream = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(CALL_IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(CALL_IO_TIMEOUT)))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    // One write for the whole line: a separate newline write would wait
    // for the daemon's delayed ACK on a Nagle socket.
    writer
        .write_all(format!("{line}\n").as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| e.to_string())?;
    let mut reader = std::io::BufReader::new(stream);
    let mut response = String::new();
    std::io::BufRead::read_line(&mut reader, &mut response).map_err(|e| e.to_string())?;
    if response.is_empty() {
        return Err("connection closed before a response line arrived".to_string());
    }
    Ok(response.trim_end_matches(['\r', '\n']).to_string())
}

/// `wfms call`: a retrying line-JSON client for a running daemon.
/// Sends one request and prints the response line verbatim (so piping
/// `wfms call` output compares byte-for-byte with any other client).
/// Connection failures and the retryable error kinds (`overloaded`,
/// `unavailable`, `deadline-exceeded`) are retried under seeded-jittered
/// exponential backoff, honoring a `retry after <n>ms` hint when the
/// response carries one; every other response is final.
fn cmd_call(args: &ParsedArgs, out: &mut impl Write) -> Result<(), CliError> {
    let defaults = wfms_serve::ServeOptions::default();
    let addr = args
        .get("addr")
        .map(str::to_string)
        .unwrap_or(defaults.listen);
    let method = args.require("method")?.to_string();
    let params = match args.get("params") {
        Some(path) => read_json(path)?,
        None => Value::Null,
    };
    let request = Request {
        v: PROTOCOL_VERSION,
        id: args.get("id").map(str::to_string),
        tenant: args.get("tenant").map(str::to_string),
        method,
        params,
    };
    let line = serde_json::to_string(&request).map_err(|e| CliError::Json {
        path: "<request>".to_string(),
        message: e.to_string(),
    })?;
    let retries = args.get_u64("retries")?.unwrap_or(5);
    let base_backoff = args.get_u64("backoff-ms")?.unwrap_or(100).max(1);
    let seed = args.get_u64("seed")?.unwrap_or(42);

    let mut last_error = String::new();
    for attempt in 0..=retries {
        if attempt > 0 {
            // Exponential base with deterministic jitter in [0, base/2],
            // stretched to any retry-after hint the server gave us.
            let exp = base_backoff.saturating_mul(1u64 << attempt.min(10).saturating_sub(1));
            let capped = exp.min(CALL_BACKOFF_CAP_MS);
            let jitter = splitmix64(seed ^ attempt) % (capped / 2 + 1);
            let mut delay = capped + jitter;
            if let Some(hint) = retry_after_hint(&last_error) {
                delay = delay.max(hint);
            }
            std::thread::sleep(Duration::from_millis(delay));
        }
        match call_once(&addr, &line) {
            Ok(response_line) => {
                let parsed: Result<Response, _> = serde_json::from_str(&response_line);
                let retryable_kind = parsed
                    .ok()
                    .filter(|r| !r.ok)
                    .and_then(|r| r.error)
                    .filter(|e| wfms_proto::is_retryable(&e.kind));
                match retryable_kind {
                    Some(e) if attempt < retries => {
                        last_error = e.message;
                    }
                    _ => {
                        // Final answer (success, non-retryable failure,
                        // or retries exhausted): print it verbatim.
                        writeln!(out, "{response_line}")?;
                        return Ok(());
                    }
                }
            }
            Err(message) => last_error = message,
        }
    }
    Err(CliError::Io {
        path: addr,
        message: format!("no response after {retries} retries: {last_error}"),
    })
}

fn cmd_simulate(args: &ParsedArgs, out: &mut impl Write) -> Result<(), CliError> {
    let registry = load_registry(args)?;
    let workload: WorkloadFile = read_json(args.require("workload")?)?;
    let config = parse_config(args, &registry)?;
    let opts = SimOptions {
        duration_minutes: args.get_f64("duration")?.unwrap_or(50_000.0),
        warmup_minutes: args.get_f64("warmup")?.unwrap_or(5_000.0),
        seed: args.get_u64("seed")?.unwrap_or(42),
        failures_enabled: args.flag("failures"),
        ..SimOptions::default()
    };
    let mix: Vec<(&WorkflowSpec, f64)> = workload
        .workflows
        .iter()
        .map(|e| (&e.spec, e.arrival_rate))
        .collect();
    let report = simulate(&registry, &config, &mix, &opts)?;
    if args.flag("json") {
        writeln!(out, "{}", render_json(&report)?)?;
        return Ok(());
    }
    writeln!(
        out,
        "simulated {:.0} measured minutes on {config}:",
        report.measured_minutes
    )?;
    for wf in &report.workflows {
        writeln!(
            out,
            "  {}: {} completed, mean turnaround {:.1} min",
            wf.name, wf.completed, wf.mean_turnaround
        )?;
    }
    for st in &report.server_types {
        writeln!(
            out,
            "  {}: λ {:.3}/min, wait {:.3} s, utilization {:.3}",
            st.name,
            st.arrival_rate,
            st.mean_waiting * 60.0,
            st.utilization
        )?;
    }
    if opts.failures_enabled {
        writeln!(
            out,
            "  availability: {:.6} ({} failures, {} repairs)",
            report.availability.system_uptime_fraction,
            report.availability.failures,
            report.availability.repairs
        )?;
    }
    Ok(())
}

#[derive(Debug, Serialize)]
struct ProfileReport {
    runs: usize,
    configuration: Vec<usize>,
    wall_ms: f64,
    /// Spans the bounded recorder dropped (see `WFMS_OBS_SPAN_CAP`).
    dropped_spans: u64,
    stages: Vec<wfms_obs::StageSummary>,
    /// Each stage's smallest per-run total over the runs that recorded
    /// it: the time the `--baseline` gate compares.
    run_min_ns: std::collections::BTreeMap<String, u64>,
    counters: std::collections::BTreeMap<String, u64>,
    gauges: std::collections::BTreeMap<String, f64>,
    histograms: std::collections::BTreeMap<String, wfms_obs::HistogramSnapshot>,
    baseline: Option<Vec<GateEntry>>,
}

/// Minimum absolute share growth (in fractions of the compared total)
/// before a stage can regress: relative growth alone would flag timer
/// noise on stages measured in microseconds, while a genuine blow-up —
/// even of a stage that was tiny in the baseline — moves whole
/// percentage points of the total.
const GATE_ABS_FLOOR: f64 = 0.01;

/// One stage of the `--baseline` diff. The gate compares each stage's
/// **share** of the compared-set total time, not its absolute wall time:
/// shares are invariant under a uniformly faster or slower machine, so a
/// committed baseline stays meaningful across hosts, while anything that
/// selectively slows one stage (a perf regression, an injected delay)
/// shifts that stage's share and trips the gate. A stage's time is its
/// smallest per-run total: a preemption or a cache miss that slows one
/// run inflates a sum over runs, but not the run that escaped it, while
/// a regression slows every run.
#[derive(Debug, Clone, Serialize)]
struct GateEntry {
    stage: String,
    baseline_run_ns: u64,
    current_run_ns: u64,
    baseline_share: f64,
    current_share: f64,
    regressed: bool,
}

/// Reads the `--baseline` file — either a `wfms profile --json` report
/// (anything with a top-level `stages` array) or a `BENCH_obs.json`
/// experiment map, disambiguated by `--baseline-key` when it holds more
/// than one experiment — as each stage's per-run time: its `run_min_ns`
/// entry, or its total for a one-run record that has none.
fn load_baseline_stages(path: &str, key: Option<&str>) -> Result<Vec<(String, u64)>, CliError> {
    #[derive(Deserialize)]
    struct StagesOnly {
        stages: Vec<wfms_obs::StageSummary>,
        run_min_ns: Option<std::collections::BTreeMap<String, u64>>,
    }
    impl StagesOnly {
        fn per_run(self) -> Vec<(String, u64)> {
            let run_min = self.run_min_ns.unwrap_or_default();
            self.stages
                .into_iter()
                .map(|s| {
                    let ns = run_min.get(&s.name).copied().unwrap_or(s.total_ns);
                    (s.name, ns)
                })
                .collect()
        }
    }
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io {
        path: path.to_string(),
        message: e.to_string(),
    })?;
    if let Ok(report) = serde_json::from_str::<StagesOnly>(&text) {
        return Ok(report.per_run());
    }
    let mut map: std::collections::BTreeMap<String, StagesOnly> = serde_json::from_str(&text)
        .map_err(|e| CliError::Json {
            path: path.to_string(),
            message: e.to_string(),
        })?;
    let chosen = match key {
        Some(k) => map.remove(k),
        None if map.len() == 1 => map.pop_first().map(|(_, v)| v),
        None => None,
    };
    match chosen {
        Some(record) => Ok(record.per_run()),
        None => Err(CliError::Arg(ArgError::InvalidValue {
            option: "baseline-key".into(),
            value: key.unwrap_or("<missing>").into(),
            reason: format!(
                "baseline holds experiments [{}]",
                map.keys().cloned().collect::<Vec<_>>().join(", ")
            ),
        })),
    }
}

/// Compares the current per-stage shares against the baseline's over
/// the stages both runs recorded, each stage timed by its per-run time
/// (see [`GateEntry`]). A stage regresses when its share grew by more
/// than `gate_pct` percent relative **and** by at least
/// [`GATE_ABS_FLOOR`] absolute.
fn gate_compare(
    baseline: &[(String, u64)],
    current: &std::collections::BTreeMap<String, u64>,
    gate_pct: f64,
) -> Vec<GateEntry> {
    let shared: Vec<(&str, u64, u64)> = baseline
        .iter()
        .filter_map(|(name, b)| current.get(name).map(|&c| (name.as_str(), *b, c)))
        .collect();
    let base_total: u64 = shared.iter().map(|(_, b, _)| b).sum();
    let cur_total: u64 = shared.iter().map(|(_, _, c)| c).sum();
    if base_total == 0 || cur_total == 0 {
        return Vec::new();
    }
    shared
        .iter()
        .map(|&(stage, b, c)| {
            let baseline_share = b as f64 / base_total as f64;
            let current_share = c as f64 / cur_total as f64;
            GateEntry {
                stage: stage.to_string(),
                baseline_run_ns: b,
                current_run_ns: c,
                baseline_share,
                current_share,
                regressed: current_share > baseline_share * (1.0 + gate_pct / 100.0)
                    && current_share - baseline_share >= GATE_ABS_FLOOR,
            }
        })
        .collect()
}

/// One full pass over the analysis stack: per-workflow transient
/// analysis (turnaround distribution) plus a goal assessment
/// (availability, performability, M/G/1 waiting times).
fn profile_once(
    tool: &ConfigurationTool,
    config: &Configuration,
    goals: &Goals,
    options: SearchOptions,
) -> Result<(), CliError> {
    for (spec, _) in tool.workloads() {
        let analysis = tool.workflow_analysis(&spec.name)?;
        let dist = wfms_core::perf::TurnaroundDistribution::new(&analysis, 1e-9)
            .map_err(wfms_core::ConfigError::Perf)?;
        dist.percentile(0.9).map_err(wfms_core::ConfigError::Perf)?;
    }
    // Engine-backed pass: one shared-cache engine per run, so the
    // profile exercises the memoized path (and `--check` can require
    // `engine.cache-hit` > 0). Unreachable goals or unsustainable load
    // are legitimate outcomes for a profiling workload, not failures.
    let engine = tool.engine(goals, options)?;
    engine.assess(config)?;
    match engine.greedy() {
        Ok(_)
        | Err(wfms_core::ConfigError::GoalsUnreachable { .. })
        | Err(wfms_core::ConfigError::LoadUnsustainable { .. }) => {}
        Err(e) => return Err(e.into()),
    }
    // Re-assess the profiled configuration: replays from the engine's
    // per-type record cache.
    engine.assess(config)?;
    Ok(())
}

fn cmd_profile(args: &ParsedArgs, out: &mut impl Write) -> Result<(), CliError> {
    let tool = load_tool(args)?;
    let runs = args.get_u64("runs")?.unwrap_or(5) as usize;
    if runs == 0 {
        return Err(CliError::Arg(ArgError::InvalidValue {
            option: "runs".into(),
            value: "0".into(),
            reason: "need at least one run".into(),
        }));
    }
    let config = match args.get_replicas("config")? {
        Some(replicas) => {
            Configuration::new(tool.registry(), replicas).map_err(wfms_core::ConfigError::Arch)?
        }
        None => Configuration::uniform(tool.registry(), 2).map_err(wfms_core::ConfigError::Arch)?,
    };
    let goals = Goals {
        max_waiting_time: Some(args.get_f64("max-wait")?.unwrap_or(0.05)),
        min_availability: Some(args.get_f64("min-availability")?.unwrap_or(0.9999)),
        per_type_waiting: Vec::new(),
    };

    let options = SearchOptions::builder().strict(args.flag("strict")).build();

    // `run_command` records every profile. The report reads the runs'
    // part of that trace and leaves the trace whole for `--trace`,
    // `--trace-out` and `--timeline`.
    let recorder = wfms_obs::global();
    let start = recorder.snapshot();
    let started = std::time::Instant::now();
    let mut outcome = Ok(());
    let mut run_ends = Vec::with_capacity(runs);
    for _ in 0..runs {
        outcome = profile_once(&tool, &config, &goals, options);
        run_ends.push(recorder.snapshot().spans.len() - start.spans.len());
        if outcome.is_err() {
            break;
        }
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let snapshot = recorder.snapshot().since(&start);
    outcome?;

    if args.flag("check") {
        for &stage in REQUIRED_STAGES {
            if snapshot.span_count(stage) == 0 {
                return Err(CliError::EmptyStage { stage });
            }
        }
        for &counter in REQUIRED_COUNTERS {
            if snapshot.counters.get(counter).copied().unwrap_or(0) == 0 {
                return Err(CliError::EmptyCounter { counter });
            }
        }
        for &counter in REQUIRED_ZERO_COUNTERS {
            let value = snapshot.counters.get(counter).copied().unwrap_or(0);
            if value != 0 {
                return Err(CliError::NonzeroCounter { counter, value });
            }
        }
    }

    let stages = wfms_obs::aggregate_stages(&snapshot);
    let run_min_ns = wfms_obs::stage_run_minima(&snapshot.spans, &run_ends);
    let gate_pct = args.get_f64("gate")?.unwrap_or(25.0);
    let gate = match args.get("baseline") {
        Some(bpath) => {
            let base = load_baseline_stages(bpath, args.get("baseline-key"))?;
            let entries = gate_compare(&base, &run_min_ns, gate_pct);
            if entries.is_empty() {
                return Err(CliError::Arg(ArgError::InvalidValue {
                    option: "baseline".into(),
                    value: bpath.into(),
                    reason: "no stages in common with the current run".into(),
                }));
            }
            Some(entries)
        }
        None => None,
    };
    let regressed = gate
        .as_deref()
        .map(|entries| entries.iter().filter(|e| e.regressed).count())
        .unwrap_or(0);

    let report = ProfileReport {
        runs,
        configuration: config.as_slice().to_vec(),
        wall_ms,
        dropped_spans: snapshot.dropped_spans,
        stages,
        run_min_ns,
        counters: snapshot.counters.clone(),
        gauges: snapshot.gauges.clone(),
        histograms: snapshot.histograms.clone(),
        baseline: gate,
    };
    if args.flag("json") {
        writeln!(out, "{}", render_json(&report)?)?;
        if regressed > 0 {
            return Err(CliError::Regression { stages: regressed });
        }
        return Ok(());
    }
    writeln!(
        out,
        "profiled {} run(s) on {config} in {:.1} ms:",
        report.runs, report.wall_ms
    )?;
    writeln!(
        out,
        "  {:<28} {:>7} {:>12} {:>12}",
        "stage", "spans", "total ms", "mean ms"
    )?;
    for s in &report.stages {
        writeln!(
            out,
            "  {:<28} {:>7} {:>12.3} {:>12.3}",
            s.name,
            s.count,
            s.total_ns as f64 / 1e6,
            s.mean_ns() as f64 / 1e6
        )?;
    }
    if !report.counters.is_empty() {
        writeln!(out, "  counters:")?;
        for (name, value) in &report.counters {
            writeln!(out, "    {name} = {value}")?;
        }
    }
    if !report.histograms.is_empty() {
        writeln!(out, "  iteration histograms:")?;
        for (name, h) in &report.histograms {
            writeln!(
                out,
                "    {name}: n={}, mean={:.1}, min={}, max={}",
                h.count,
                h.mean(),
                h.min,
                h.max
            )?;
        }
    }
    if report.dropped_spans > 0 {
        writeln!(
            out,
            "  dropped: {} span(s) (raise WFMS_OBS_SPAN_CAP)",
            report.dropped_spans
        )?;
    }
    if let Some(entries) = &report.baseline {
        writeln!(out, "  baseline gate (+{gate_pct:.0}% share):")?;
        writeln!(
            out,
            "    {:<28} {:>12} {:>12} {:>11} {:>11}  verdict",
            "stage", "base ms/run", "now ms/run", "base share", "now share"
        )?;
        for e in entries {
            writeln!(
                out,
                "    {:<28} {:>12.3} {:>12.3} {:>10.1}% {:>10.1}%  {}",
                e.stage,
                e.baseline_run_ns as f64 / 1e6,
                e.current_run_ns as f64 / 1e6,
                e.baseline_share * 100.0,
                e.current_share * 100.0,
                if e.regressed { "REGRESSED" } else { "ok" }
            )?;
        }
        writeln!(
            out,
            "    {} stage(s) compared, {} regressed",
            entries.len(),
            regressed
        )?;
    }
    if regressed > 0 {
        return Err(CliError::Regression { stages: regressed });
    }
    Ok(())
}

/// `wfms explain`: replays a decision journal recorded with
/// `--journal <file>` and reconstructs the winner's causal chain — which
/// goal was binding, and why every losing candidate lost. The output is
/// a pure function of the journal bytes (events carry no timestamps), so
/// two identical runs explain byte-identically.
fn cmd_explain(args: &ParsedArgs, out: &mut impl Write) -> Result<(), CliError> {
    let path = args.require("journal")?;
    let text = std::fs::read_to_string(path).map_err(|e| CliError::Io {
        path: path.to_string(),
        message: e.to_string(),
    })?;
    let snapshot = journal::from_jsonl(&text).map_err(|message| CliError::Json {
        path: path.to_string(),
        message,
    })?;
    let filter = args.get_replicas("candidate")?;

    let winner = snapshot
        .events
        .iter()
        .rev()
        .find(|e| e.outcome == journal::OUTCOME_WINNER)
        .ok_or_else(|| CliError::Explain {
            message: format!(
                "{path}: no winner event among {} decision(s) — did the search succeed?",
                snapshot.events.len()
            ),
        })?;
    let search = winner.search.as_str();
    let in_search: Vec<&journal::DecisionEvent> = snapshot
        .events
        .iter()
        .filter(|e| e.search == search)
        .collect();
    let selected: Vec<&journal::DecisionEvent> = match &filter {
        Some(candidate) => {
            let matched: Vec<_> = in_search
                .iter()
                .copied()
                .filter(|e| &e.candidate == candidate)
                .collect();
            if matched.is_empty() {
                return Err(CliError::Explain {
                    message: format!("{path}: no decision about candidate {candidate:?}"),
                });
            }
            matched
        }
        None => in_search
            .iter()
            .copied()
            .filter(|e| {
                e.outcome == journal::OUTCOME_REJECT || e.outcome == journal::OUTCOME_QUARANTINE
            })
            .collect(),
    };

    if args.flag("json") {
        #[derive(Serialize)]
        struct ExplainReport {
            search: String,
            decisions: usize,
            dropped_decisions: u64,
            binding_goal: Option<String>,
            winner: journal::DecisionEvent,
            losers: Vec<journal::DecisionEvent>,
        }
        let report = ExplainReport {
            search: search.to_string(),
            decisions: in_search.len(),
            dropped_decisions: snapshot.dropped_decisions,
            binding_goal: winner.margins.binding_goal().map(str::to_string),
            winner: winner.clone(),
            losers: selected.into_iter().cloned().collect(),
        };
        writeln!(out, "{}", render_json(&report)?)?;
        return Ok(());
    }

    let fmt_slack = |v: Option<f64>| match v {
        Some(v) => format!("{v:+.4}"),
        None => "n/a".to_string(),
    };
    writeln!(
        out,
        "journal {path}: {} decision(s) in search \"{search}\"{}",
        in_search.len(),
        if snapshot.dropped_decisions > 0 {
            format!(" ({} dropped)", snapshot.dropped_decisions)
        } else {
            String::new()
        }
    )?;
    writeln!(
        out,
        "winner {:?} ({} servers): {}",
        winner.candidate, winner.cost, winner.reason
    )?;
    if let Some(availability) = winner.availability {
        let w_max = match winner.w_max {
            Some(w) => format!("{w:.3e} min"),
            None => "saturated".to_string(),
        };
        writeln!(
            out,
            "  availability {availability:.8}, worst expected wait {w_max}"
        )?;
    }
    match winner.margins.binding_goal() {
        Some(goal) => writeln!(
            out,
            "  binding goal: {goal} (waiting slack {}, availability slack {})",
            fmt_slack(winner.margins.waiting),
            fmt_slack(winner.margins.availability)
        )?,
        None => writeln!(out, "  no goals configured")?,
    }
    writeln!(
        out,
        "  cache: state {}h/{}m",
        winner.cache.state_hits, winner.cache.state_misses
    )?;
    if let Some(d) = &winner.degradation {
        writeln!(
            out,
            "  degradation: {} failed evaluation(s), charged mass {:.3e}",
            d.failed_states, d.charged_mass
        )?;
    }
    writeln!(
        out,
        "{}",
        match &filter {
            Some(candidate) => format!("decisions about {candidate:?}:"),
            None => "why each losing candidate lost:".to_string(),
        }
    )?;
    if selected.is_empty() {
        writeln!(out, "  (none: the first candidate assessed met the goals)")?;
    }
    for e in &selected {
        let detail = match e.outcome.as_str() {
            o if o == journal::OUTCOME_QUARANTINE => {
                e.error.clone().unwrap_or_else(|| "unknown error".into())
            }
            _ => format!(
                "waiting slack {}, availability slack {}",
                fmt_slack(e.margins.waiting),
                fmt_slack(e.margins.availability)
            ),
        };
        writeln!(
            out,
            "  #{} {:?} ({} servers): {} \u{2014} {} | {detail}",
            e.seq, e.candidate, e.cost, e.outcome, e.reason
        )?;
    }
    Ok(())
}

fn cmd_sensitivity(args: &ParsedArgs, out: &mut impl Write) -> Result<(), CliError> {
    let tool = load_tool(args)?;
    let config = parse_config(args, tool.registry())?;
    let load = tool.system_load()?;
    if args.flag("moves") {
        // Closed-form one-replica move sensitivities (no finite
        // differencing, no assessments): what `Y_x → Y_x + 1` buys.
        let moves = move_sensitivities(tool.registry(), &load, &config)?;
        if args.flag("json") {
            writeln!(out, "{}", render_json(&moves)?)?;
            return Ok(());
        }
        writeln!(out, "move sensitivities at {config} (one replica added):")?;
        writeln!(
            out,
            "{:<24} {:>12} {:>14} {:>12} {:>12}",
            "move", "avail gain", "avail factor", "wait before", "wait after"
        )?;
        for m in &moves {
            let fmt_wait = |w: Option<f64>| match w {
                Some(w) => format!("{w:.4}"),
                None => "unstable".to_string(),
            };
            writeln!(
                out,
                "{:<24} {:>12.3e} {:>14.9} {:>12} {:>12}",
                format!("{} +1 ({} -> {})", m.name, m.replicas, m.replicas + 1),
                m.availability_delta,
                m.availability_factor,
                fmt_wait(m.waiting_before),
                fmt_wait(m.waiting_after),
            )?;
        }
        return Ok(());
    }
    let opts = SensitivityOptions {
        relative_step: args.get_f64("step")?.unwrap_or(0.05),
    };
    let entries = sensitivity(tool.registry(), &config, &load, &opts)?;
    if args.flag("json") {
        writeln!(out, "{}", render_json(&entries)?)?;
        return Ok(());
    }
    writeln!(
        out,
        "elasticities at {config} (step {:.0}%):",
        opts.relative_step * 100.0
    )?;
    writeln!(
        out,
        "{:<36} {:>14} {:>18}",
        "parameter", "d ln(wait)", "d ln(unavail)"
    )?;
    for e in &entries {
        let wait = e
            .waiting_elasticity
            .map(|v| format!("{v:+.3}"))
            .unwrap_or_else(|| "n/a".to_string());
        writeln!(
            out,
            "{:<36} {:>14} {:>+18.3}",
            e.label, wait, e.unavailability_elasticity
        )?;
    }
    Ok(())
}

fn cmd_export_dot(args: &ParsedArgs, out: &mut impl Write) -> Result<(), CliError> {
    let tool = load_tool(args)?;
    let name = args.require("workflow")?;
    let (spec, _) = tool
        .workloads()
        .iter()
        .find(|(s, _)| s.name == name)
        .ok_or_else(|| {
            CliError::Tool(wfms_core::ConfigError::Calibration(format!(
                "unknown workflow {name:?}"
            )))
        })?;
    let view = args.get("view").unwrap_or("chart");
    let dot = match view {
        "chart" => chart_to_dot(&spec.chart),
        "ctmc" => {
            let mapping = map_chart(&spec.chart, spec).map_err(wfms_core::ConfigError::Spec)?;
            mapping_to_dot(&mapping)
        }
        other => {
            return Err(CliError::Arg(ArgError::InvalidValue {
                option: "view".into(),
                value: other.into(),
                reason: "expected `chart` or `ctmc`".into(),
            }))
        }
    };
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &dot).map_err(|e| CliError::Io {
                path: path.to_string(),
                message: e.to_string(),
            })?;
            writeln!(out, "wrote {} bytes of DOT to {path}", dot.len())?;
        }
        None => write!(out, "{dot}")?,
    }
    Ok(())
}
