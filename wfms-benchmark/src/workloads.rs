//! The workloads, the closed-loop measurement around them, and the
//! metrics they report.
//!
//! | workload | one op |
//! |---|---|
//! | `assess-ep` | `wfms assess` on `ep`, Y drawn from {1..4}³ |
//! | `recommend-enterprise` | `wfms recommend --optimal` on `enterprise` |
//! | `ladder` | per generated rung: `wfms recommend`, then `wfms assess` of its answer |
//! | `serve-mix` | one round of 20 requests to a `wfms serve` child (see [`crate::serve`]) |
//!
//! The CLI workloads run one caller in this process through
//! `wfms_cli::main_with_args`, each op starting from cold as a one-shot
//! `wfms` invocation does. Every CLI call and every set-up is timed
//! between samples of the host's speed and adjusted to the reference
//! speed (see [`crate::host`]).

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::golden::{self, Answer, AssessTable, RecommendGoldens, TEXT};
use crate::host::{HostMeter, Kernel, Reference, Took};
use crate::ladder::{self, SplitMix64};
use crate::metrics::{self, LayerExtras};
use crate::replay::{self, Ask, CliCall, Docs};
use crate::stats;
use crate::trace::Tracer;

/// The example specs every workload but `ladder` reads, relative to the
/// repository root.
pub const EP_REGISTRY: &str = "examples/specs/ep/registry.json";
/// See [`EP_REGISTRY`].
pub const EP_WORKLOAD: &str = "examples/specs/ep/workload.json";
/// See [`EP_REGISTRY`].
pub const ENTERPRISE_REGISTRY: &str = "examples/specs/enterprise/registry.json";
/// See [`EP_REGISTRY`].
pub const ENTERPRISE_WORKLOAD: &str = "examples/specs/enterprise/workload.json";

/// Replica counts `assess-ep` draws for each of ep's three types; the
/// `ep` golden table covers every combination.
pub const EP_REPLICAS: [usize; 4] = [1, 2, 3, 4];
/// Replica counts `serve-mix` draws for each of enterprise's five types;
/// the `enterprise` golden table covers every combination.
pub const ENTERPRISE_REPLICAS: [usize; 2] = [2, 3];

/// Every configuration of `k` types whose replica counts come from
/// `counts`, first type varying fastest.
pub fn grid(k: usize, counts: &[usize]) -> Vec<Vec<usize>> {
    (0..counts.len().pow(k as u32))
        .map(|mut code| {
            (0..k)
                .map(|_| {
                    let y = counts[code % counts.len()];
                    code /= counts.len();
                    y
                })
                .collect()
        })
        .collect()
}

/// The reference kernels workload `name`'s ops are timed against, with
/// their shares (see [`crate::host`]): the uniformization loop for the
/// percentile-bound `assess-ep`, mostly the codec for
/// `recommend-enterprise`, whose 203 candidates per op spend their time
/// in small solves, folds and cache lookups, and a blend for the ladder
/// and for the work a `serve-mix` round does beyond its stall.
pub fn reference(name: &str) -> Reference {
    match name {
        "assess-ep" => &[(Kernel::Transient, 1.0)],
        "recommend-enterprise" => &[(Kernel::Transient, 0.3), (Kernel::Codec, 0.7)],
        "ladder" => &[(Kernel::Transient, 0.8), (Kernel::Codec, 0.2)],
        _ => &[(Kernel::Transient, 0.5), (Kernel::Codec, 0.5)],
    }
}

/// Set-ups per timed run, each in a fresh process; `setup_s` is their
/// median.
const SETUP_RUNS: usize = 5;

/// The first word of the line a set-up child prints when it is ready for
/// its first timed op; the line goes on with the ratio of the reference
/// speed to the host's speed while the child set up, and the ms the child
/// spent sampling the host's speed.
const READY: &str = "ready";

/// Times one set-up of workload `name` in a fresh `setup-child` process
/// (a re-execution of this binary), from the spawn to the child's ready
/// line: process start, inputs, daemon boot and warm-up, as a measured
/// run pays them before its first timed op. The goldens are not part of
/// it; a set-up child loads none.
///
/// The child samples the host's speed itself, around its set-up: the
/// two vCPUs of a shared host need not run at the same speed at the same
/// moment, and the child need not run on this process's. Its samples
/// are taken out of the time and its ratio adjusts the rest.
fn setup_time(name: &str, settings: &Settings) -> Result<Took, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let start = Instant::now();
    let mut child = Command::new(&exe)
        .args(["setup-child", "--workload", name])
        .args(["--seed", &settings.seed.to_string()])
        .arg("--out")
        .arg(&settings.out)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn set-up of {name}: {e}"))?;
    let mut line = String::new();
    if let Some(stdout) = child.stdout.as_mut() {
        // A read error leaves `line` short of the ready line, which is
        // reported below once the child has been reaped.
        let _ = BufReader::new(stdout).read_line(&mut line);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let status = child.wait().map_err(|e| format!("set-up of {name}: {e}"))?;
    let words: Vec<&str> = line.split_whitespace().collect();
    let numbers: Option<Vec<f64>> = words.iter().skip(1).map(|w| w.parse().ok()).collect();
    match (words.first(), numbers.as_deref()) {
        (Some(&READY), Some(&[factor, sampling_ms])) if status.success() => {
            let wall_ms = wall_ms - sampling_ms;
            Ok(Took {
                wall_ms,
                ms: wall_ms * factor,
            })
        }
        _ => Err(format!(
            "set-up of {name} failed ({status}, printed {line:?})"
        )),
    }
}

/// The timed run of workload `name`: [`SETUP_RUNS`] slices of the
/// measured seconds, each after one set-up in a fresh process, so that
/// the set-ups sample the host across the run as the ops do rather than
/// in one burst at its start. `slice(i, seconds)` measures slice `i`.
/// Returns the set-up times and the slices.
///
/// # Errors
/// A message when a set-up or a slice fails.
pub fn timed_slices<M>(
    name: &str,
    settings: &Settings,
    mut slice: impl FnMut(u64, f64) -> Result<M, String>,
) -> Result<(Vec<Took>, Vec<M>), String> {
    let mut setups = Vec::with_capacity(SETUP_RUNS);
    let mut slices = Vec::with_capacity(SETUP_RUNS);
    for i in 0..SETUP_RUNS as u64 {
        setups.push(setup_time(name, settings)?);
        slices.push(slice(i, settings.seconds / SETUP_RUNS as f64)?);
    }
    Ok((setups, slices))
}

/// The `setup-child` process: sets workload `name` up as a measured run
/// does, prints the ready line, then ends (stopping its daemon, for
/// `serve-mix`).
///
/// # Errors
/// A message when the set-up fails.
pub fn setup_child(name: &str, settings: &Settings) -> Result<(), String> {
    let start = Instant::now();
    let mut meter = HostMeter::start(reference(name));
    let ready = |took: Took| {
        let sampling_ms = start.elapsed().as_secs_f64() * 1e3 - took.wall_ms;
        let mut out = std::io::stdout().lock();
        writeln!(out, "{READY} {} {sampling_ms}", took.ms / took.wall_ms)
            .and_then(|()| out.flush())
            .map_err(|e| format!("ready line: {e}"))
    };
    if name == "serve-mix" {
        return crate::serve::setup_child(&mut meter, ready);
    }
    let mut w = cli_workload(name)?;
    let (done, took) = meter.time(|| set_up(w.as_mut(), settings));
    done?;
    ready(took)
}

/// Seed streams, so that warm-up draws never shift the measured ones.
const STREAM_WARMUP: u64 = 1;
const STREAM_OPS: u64 = 2;

/// How one workload run is made.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the timed one.
    pub trace: bool,
    /// Output directory for generated inputs and `trace.json`.
    pub out: PathBuf,
}

/// The ops of one measured phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of every successful op at the reference speed, ms.
    pub latencies: Vec<f64>,
    /// Wall latency of every successful op, ms.
    pub wall: Vec<f64>,
    /// Closed-loop callers that ran the ops side by side.
    pub callers: usize,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// Wall time of the phase, seconds.
    pub elapsed: f64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

/// Failure messages kept per phase.
const FAILURES_KEPT: usize = 5;

impl Phase {
    /// A phase that could not start.
    pub fn failed(message: String) -> Phase {
        Phase {
            callers: 1,
            attempted: 1,
            failed: 1,
            failures: vec![message],
            ..Phase::default()
        }
    }

    /// Folds a concurrent caller's phase into this one.
    pub fn merge(&mut self, other: Phase) {
        let elapsed = self.elapsed.max(other.elapsed);
        let callers = self.callers + other.callers;
        self.append(other);
        self.elapsed = elapsed;
        self.callers = callers;
    }

    /// Appends a phase measured after this one.
    pub fn append(&mut self, other: Phase) {
        self.latencies.extend(other.latencies);
        self.wall.extend(other.wall);
        self.callers = self.callers.max(other.callers);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed += other.elapsed;
        for f in other.failures {
            if self.failures.len() < FAILURES_KEPT {
                self.failures.push(f);
            }
        }
    }

    /// Completed ops per second of the closed loop, by Little's law:
    /// callers over the mean op latency. Unlike ops over elapsed time it
    /// leaves out what the benchmark does between ops (checking answers,
    /// sampling the host's speed).
    fn rate(&self) -> f64 {
        let busy_s: f64 = self.latencies.iter().sum::<f64>() / 1e3;
        if busy_s > 0.0 {
            (self.callers * self.latencies.len()) as f64 / busy_s
        } else {
            0.0
        }
    }

    fn p50(&self) -> f64 {
        stats::median(&self.latencies).unwrap_or(0.0)
    }
}

/// Runs `op` in a closed loop until `seconds` have passed; `op` returns
/// how long it took or why it failed.
pub fn run_phase(seconds: f64, mut op: impl FnMut() -> Result<Took, String>) -> Phase {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut phase = Phase {
        callers: 1,
        ..Phase::default()
    };
    while phase.attempted == 0 || Instant::now() < deadline {
        phase.attempted += 1;
        match op() {
            Ok(took) => {
                phase.latencies.push(took.ms);
                phase.wall.push(took.wall_ms);
            }
            Err(e) => {
                phase.failed += 1;
                if phase.failures.len() < FAILURES_KEPT {
                    phase.failures.push(e);
                }
            }
        }
    }
    phase.elapsed = start.elapsed().as_secs_f64();
    phase
}

/// What a workload run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Ops attempted in the measured phases.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// `(name, value)` per reported metric, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

fn describe(setups: &[Took], phase: &Phase) -> Vec<String> {
    let mut notes = vec![format!(
        "ops: {} attempted, {} failed, {:.3} s measured",
        phase.attempted, phase.failed, phase.elapsed
    )];
    notes.push(format!(
        "wall clock: p50 {:.3} ms, {:.3} ops/s over the measured time",
        stats::median(&phase.wall).unwrap_or(0.0),
        phase.latencies.len() as f64 / phase.elapsed.max(f64::MIN_POSITIVE)
    ));
    if !setups.is_empty() {
        let runs: Vec<String> = setups
            .iter()
            .map(|s| format!("{:.4} s ({:.4} s wall)", s.ms / 1e3, s.wall_ms / 1e3))
            .collect();
        notes.push(format!("setup runs: {}", runs.join(", ")));
    }
    if let Some(t) = stats::tail(&phase.latencies) {
        notes.push(format!(
            "tail: p{} = {:.3} ms over {} samples",
            t.label(),
            t.value,
            t.samples
        ));
    }
    notes.extend(phase.failures.iter().map(|f| format!("failure: {f}")));
    notes
}

impl Outcome {
    /// The end-to-end outcome of a timed run.
    pub fn timed(setups: Vec<Took>, phase: Phase, peak_rss_mb: f64) -> Outcome {
        let notes = describe(&setups, &phase);
        let setup_s: Vec<f64> = setups.iter().map(|s| s.ms / 1e3).collect();
        Outcome {
            attempted: phase.attempted,
            failed: phase.failed,
            metrics: vec![
                ("setup_s", stats::median(&setup_s).unwrap_or(0.0)),
                ("ops_per_s", phase.rate()),
                ("p50_ms", phase.p50()),
                ("peak_rss_mb", peak_rss_mb),
            ],
            notes,
        }
    }
}

/// Enterprise exhaustive-search time at one worker over two, on a fresh
/// engine (`cold`) and on the same engine again (`warm`); medians of
/// three of each.
fn parallel_speedups(enterprise: &Docs) -> Result<(f64, f64), String> {
    let mut cold = [Vec::new(), Vec::new()];
    let mut warm = [Vec::new(), Vec::new()];
    for _ in 0..3 {
        for (slot, jobs) in [1, 2].into_iter().enumerate() {
            let engine = enterprise.engine(jobs)?;
            for times in [&mut cold[slot], &mut warm[slot]] {
                let start = Instant::now();
                std::hint::black_box(engine.exhaustive().map_err(|e| e.to_string())?);
                times.push(start.elapsed().as_secs_f64());
            }
        }
    }
    let speedup = |t: &[Vec<f64>; 2]| {
        stats::median(&t[0]).unwrap_or(0.0) / stats::median(&t[1]).unwrap_or(f64::INFINITY)
    };
    Ok((speedup(&cold), speedup(&warm)))
}

/// The per-layer outcome of a traced run: `untraced` ran first without
/// the recorder, `traced` with it and with the replays; writes the
/// spans to `<out>/<workload>/trace.json`. A traced run reports no
/// set-up time and times none.
pub fn traced_outcome(
    untraced: Phase,
    traced: Phase,
    tracer: Tracer,
    cache_hit_ratio: Option<f64>,
    enterprise: &Docs,
    settings: &Settings,
    workload: &str,
) -> Result<Outcome, String> {
    let (speedup_cold, speedup_warm) = parallel_speedups(enterprise)?;
    let extras = LayerExtras {
        cache_hit_ratio,
        speedup_cold,
        speedup_warm,
        overhead_frac: if untraced.p50() > 0.0 {
            traced.p50() / untraced.p50() - 1.0
        } else {
            0.0
        },
    };
    let path = settings.out.join(workload).join("trace.json");
    tracer.write_json(&path, workload, settings.seed)?;
    let values = metrics::layer_values(&tracer, &extras);
    let mut notes = describe(&[], &traced);
    notes.push(format!(
        "untraced p50 {:.3} ms, traced p50 {:.3} ms; spans in {}",
        untraced.p50(),
        traced.p50(),
        path.display()
    ));
    let mut phase = untraced;
    phase.merge(traced);
    Ok(Outcome {
        attempted: phase.attempted,
        failed: phase.failed,
        metrics: metrics::PER_LAYER
            .iter()
            .map(|m| m.name)
            .zip(values)
            .collect(),
        notes,
    })
}

// ------------------------------------------------------- CLI workloads

/// Where a traced op records its spans.
pub struct OpTrace<'a> {
    tracer: &'a mut Tracer,
    op: u64,
    root: u64,
}

/// Runs one `wfms` invocation in-process; returns its exit code and
/// what it printed.
fn wfms(args: &[String]) -> (i32, Vec<u8>) {
    let mut out = Vec::new();
    let code = wfms_cli::main_with_args(args.to_vec(), &mut out);
    (code, out)
}

/// The report of a `wfms` invocation that exited with `code`.
fn report(args: &[String], (code, out): (i32, Vec<u8>)) -> Result<String, String> {
    if code != 0 {
        return Err(format!("`wfms {}` exited with {code}", args.join(" ")));
    }
    String::from_utf8(out).map_err(|e| format!("non-UTF-8 report: {e}"))
}

/// Runs `call`, timed by `meter`; when traced, under the `wfms-obs`
/// recorder (whose counters are drained into the tracer) and followed by
/// its replay. Returns the report and the call's time.
fn exec(
    call: &CliCall,
    meter: &mut HostMeter,
    trace: Option<&mut OpTrace>,
) -> Result<(String, Took), String> {
    let Some(tr) = trace else {
        let (ran, took) = meter.time(|| wfms(&call.args));
        return Ok((report(&call.args, ran)?, took));
    };
    let recorder = wfms_obs::global();
    recorder.take();
    recorder.enable();
    let ((ran, _), took) = meter.time(|| {
        tr.tracer
            .time(tr.op, tr.root, "cli.main", || wfms(&call.args))
    });
    recorder.disable();
    tr.tracer.absorb(&recorder.take());
    let text = report(&call.args, ran)?;
    replay::cli(tr.tracer, tr.op, tr.root, call, took.wall_ms)?;
    Ok((text, took))
}

/// A workload of one-shot CLI calls.
trait CliWorkload {
    /// Makes the inputs the calls read; part of the set-up.
    fn inputs(&mut self, _settings: &Settings) -> Result<(), String> {
        Ok(())
    }
    /// Loads what checks the answers: goldens and registries. Not part
    /// of the set-up; a set-up child never loads them.
    fn load_checks(&mut self, settings: &Settings) -> Result<(), String>;
    /// One op, whose calls `meter` times and whose answer is checked once
    /// the checks are loaded; returns how long its calls took.
    fn op(
        &mut self,
        rng: &mut SplitMix64,
        meter: &mut HostMeter,
        trace: Option<&mut OpTrace>,
    ) -> Result<Took, String>;
}

fn cli_workload(name: &str) -> Result<Box<dyn CliWorkload>, String> {
    match name {
        "assess-ep" => Ok(Box::<AssessEp>::default()),
        "recommend-enterprise" => Ok(Box::<RecommendEnterprise>::default()),
        "ladder" => Ok(Box::<Ladder>::default()),
        other => Err(format!(
            "unknown workload {other:?} (workloads: {})",
            metrics::WORKLOADS.join(", ")
        )),
    }
}

/// Warm-up ops per set-up of a CLI workload: one op faults in the code
/// and the allocator's first pages, which every later op finds warm.
const WARMUP_OPS: usize = 1;

/// The set-up of a CLI workload: its inputs, then the warm-up ops.
fn set_up(w: &mut dyn CliWorkload, settings: &Settings) -> Result<(), String> {
    w.inputs(settings)?;
    let mut rng = SplitMix64::new(settings.seed, STREAM_WARMUP);
    let mut meter = HostMeter::idle();
    for _ in 0..WARMUP_OPS {
        w.op(&mut rng, &mut meter, None)
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(())
}

fn measure_cli(name: &str, settings: &Settings) -> Result<Outcome, String> {
    let mut w = cli_workload(name)?;
    w.load_checks(settings)?;
    set_up(w.as_mut(), settings)?;
    let mut rng = SplitMix64::new(settings.seed, STREAM_OPS);
    if !settings.trace {
        let (setups, slices) = timed_slices(name, settings, |_, seconds| {
            let mut meter = HostMeter::start(reference(name));
            Ok(run_phase(seconds, || w.op(&mut rng, &mut meter, None)))
        })?;
        let mut phase = Phase::default();
        for slice in slices {
            phase.append(slice);
        }
        let rss = stats::peak_rss_mb(std::process::id())?;
        return Ok(Outcome::timed(setups, phase, rss));
    }
    let mut meter = HostMeter::start(reference(name));
    let untraced = run_phase(settings.seconds / 3.0, || w.op(&mut rng, &mut meter, None));
    let mut tracer = Tracer::new(Instant::now());
    let traced = run_phase(settings.seconds * 2.0 / 3.0, || {
        let (op, root) = tracer.begin_op();
        let result = w.op(
            &mut rng,
            &mut meter,
            Some(&mut OpTrace {
                tracer: &mut tracer,
                op,
                root,
            }),
        );
        tracer.end(root);
        result
    });
    let enterprise = Docs::read(ENTERPRISE_REGISTRY, ENTERPRISE_WORKLOAD)?;
    traced_outcome(untraced, traced, tracer, None, &enterprise, settings, name)
}

fn registry(path: &str) -> Result<wfms_core::ServerTypeRegistry, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Checks a text answer against its golden and the closed form.
fn verify(
    answer: &Answer,
    expected: &Answer,
    registry: &wfms_core::ServerTypeRegistry,
) -> Result<(), String> {
    golden::compare(answer, expected, TEXT)?;
    golden::check_closed_form(registry, answer, TEXT)
}

/// `wfms assess` on `ep` with a seeded configuration per op. Every op
/// is cold; the turnaround percentile does almost all the work.
#[derive(Default)]
struct AssessEp {
    checks: Option<(wfms_core::ServerTypeRegistry, AssessTable)>,
}

impl CliWorkload for AssessEp {
    fn load_checks(&mut self, _settings: &Settings) -> Result<(), String> {
        self.checks = Some((registry(EP_REGISTRY)?, golden::load(golden::ASSESS_EP)?));
        Ok(())
    }

    fn op(
        &mut self,
        rng: &mut SplitMix64,
        meter: &mut HostMeter,
        trace: Option<&mut OpTrace>,
    ) -> Result<Took, String> {
        let config: Vec<usize> = (0..3)
            .map(|_| EP_REPLICAS[rng.below(EP_REPLICAS.len())])
            .collect();
        let call = CliCall::new(EP_REGISTRY, EP_WORKLOAD, Ask::Assess(config.clone()));
        let (text, took) = exec(&call, meter, trace)?;
        if let Some((registry, table)) = &self.checks {
            verify(&golden::parse_assess(&text)?, table.get(&config)?, registry)?;
        }
        Ok(took)
    }
}

/// `wfms recommend --optimal` on `enterprise`: a fresh engine assesses
/// all 203 candidates per op; no percentile is computed. It runs with
/// the default single worker: with two workers on a two-core host, the
/// op's time follows whether another tenant holds the second core, and
/// the run-to-run spread triples (see `README.md`).
#[derive(Default)]
struct RecommendEnterprise {
    checks: Option<(wfms_core::ServerTypeRegistry, RecommendGoldens)>,
}

impl CliWorkload for RecommendEnterprise {
    fn load_checks(&mut self, _settings: &Settings) -> Result<(), String> {
        self.checks = Some((
            registry(ENTERPRISE_REGISTRY)?,
            golden::load(golden::RECOMMEND_ENTERPRISE)?,
        ));
        Ok(())
    }

    fn op(
        &mut self,
        _rng: &mut SplitMix64,
        meter: &mut HostMeter,
        trace: Option<&mut OpTrace>,
    ) -> Result<Took, String> {
        let ask = Ask::Recommend {
            exhaustive: true,
            jobs: None,
        };
        let call = CliCall::new(ENTERPRISE_REGISTRY, ENTERPRISE_WORKLOAD, ask);
        let (text, took) = exec(&call, meter, trace)?;
        if let Some((registry, goldens)) = &self.checks {
            verify(
                &golden::parse_recommend(&text)?,
                &goldens.exhaustive,
                registry,
            )?;
        }
        Ok(took)
    }
}

/// One generated rung, written where `wfms` can read it.
struct LadderRung {
    /// Rung and ladder, as `L3` for rung L of the third ladder.
    label: String,
    registry: wfms_core::ServerTypeRegistry,
    registry_path: String,
    workload_path: String,
}

/// A pass over one of the seed's generated ladders, which the ops take
/// in turn: per rung, a greedy `recommend` and an `assess` of the
/// recommended configuration.
#[derive(Default)]
struct Ladder {
    /// Every ladder's rungs, ladder by ladder.
    rungs: Vec<LadderRung>,
    /// Ops run so far; the next op passes over ladder `ops` modulo
    /// [`ladder::LADDERS_PER_SEED`].
    ops: usize,
    /// Whether answers are checked.
    checked: bool,
    /// The seed's goldens, for the seeds that have them.
    goldens: Option<golden::LadderGoldens>,
}

/// Writes `value` as pretty JSON to `path`.
fn write_json<T: serde::Serialize>(path: &Path, value: &T) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Generates the ladders of `seed` and writes them under `out`: every
/// rung with its label (see [`LadderRung`]) and directory, ladder by
/// ladder, each smallest rung first.
pub fn write_ladder(
    seed: u64,
    out: &Path,
) -> Result<Vec<(String, ladder::Scenario, PathBuf)>, String> {
    let mut written = Vec::with_capacity(ladder::LADDERS_PER_SEED * ladder::RUNGS.len());
    for v in 0..ladder::LADDERS_PER_SEED {
        for rung in ladder::RUNGS {
            let scenario = ladder::generate(rung, ladder::ladder_seed(seed, v))?;
            let label = format!("{}{}", rung.name, v + 1);
            let dir = out.join(format!("ladder-seed-{seed}")).join(&label);
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            write_json(&dir.join("registry.json"), &scenario.registry)?;
            write_json(&dir.join("workload.json"), &scenario.workload)?;
            written.push((label, scenario, dir));
        }
    }
    Ok(written)
}

impl CliWorkload for Ladder {
    fn inputs(&mut self, settings: &Settings) -> Result<(), String> {
        self.rungs = write_ladder(settings.seed, &settings.out)?
            .into_iter()
            .map(|(label, scenario, dir)| LadderRung {
                label,
                registry: scenario.registry,
                registry_path: dir.join("registry.json").display().to_string(),
                workload_path: dir.join("workload.json").display().to_string(),
            })
            .collect();
        Ok(())
    }

    fn load_checks(&mut self, settings: &Settings) -> Result<(), String> {
        self.goldens = golden::load_ladder(settings.seed)?;
        self.checked = true;
        Ok(())
    }

    fn op(
        &mut self,
        _rng: &mut SplitMix64,
        meter: &mut HostMeter,
        mut trace: Option<&mut OpTrace>,
    ) -> Result<Took, String> {
        let mut total = Took::default();
        let first = self.ops % ladder::LADDERS_PER_SEED * ladder::RUNGS.len();
        self.ops += 1;
        let pass = self.rungs.iter().enumerate().skip(first);
        for (i, rung) in pass.take(ladder::RUNGS.len()) {
            let label = &rung.label;
            let greedy = Ask::Recommend {
                exhaustive: false,
                jobs: None,
            };
            let call = CliCall::new(&rung.registry_path, &rung.workload_path, greedy);
            let (text, took) = exec(&call, meter, trace.as_deref_mut())?;
            total += took;
            let recommended = golden::parse_recommend(&text)?;
            let call = CliCall::new(
                &rung.registry_path,
                &rung.workload_path,
                Ask::Assess(recommended.config.clone()),
            );
            let (text, took) = exec(&call, meter, trace.as_deref_mut())?;
            total += took;
            if !self.checked {
                continue;
            }
            let assessed = golden::parse_assess(&text)?;
            check_rung(&recommended, &assessed, &rung.registry)
                .map_err(|e| format!("ladder {label}: {e}"))?;
            if let Some(goldens) = &self.goldens {
                let g = goldens
                    .rungs
                    .get(i)
                    .filter(|g| g.rung == *label)
                    .ok_or_else(|| format!("ladder {label}: no golden (re-record the goldens)"))?;
                golden::compare(&recommended, &g.recommend, TEXT)
                    .and_then(|()| golden::compare(&assessed, &g.assess, TEXT))
                    .map_err(|e| format!("ladder {label}: {e}"))?;
            }
        }
        Ok(total)
    }
}

/// The seed-independent checks of one rung: the recommended
/// configuration meets the goals when assessed on its own, both reports
/// agree, and the availability matches the closed form.
fn check_rung(
    recommended: &Answer,
    assessed: &Answer,
    registry: &wfms_core::ServerTypeRegistry,
) -> Result<(), String> {
    if assessed.meets_goals != Some(true) {
        return Err(format!("{:?} does not meet the goals", assessed.config));
    }
    let mut expected = assessed.clone();
    expected.availability = recommended.availability;
    expected.worst_wait = recommended.worst_wait;
    golden::compare(assessed, &expected, TEXT)?;
    golden::check_closed_form(registry, recommended, TEXT)
}

/// Runs workload `name`.
///
/// # Errors
/// A message when the workload cannot be set up or measured.
pub fn run(name: &str, settings: &Settings) -> Result<Outcome, String> {
    match name {
        "serve-mix" => crate::serve::run(settings),
        _ => measure_cli(name, settings),
    }
}
