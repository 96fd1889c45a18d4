//! `wfms-benchmark`: the end-to-end and per-layer benchmark of the wfms
//! configuration tool. See `README.md` for the workloads and metrics.
//!
//! ```sh
//! cargo run --release --manifest-path wfms-benchmark/Cargo.toml -- run --seed 1
//! cargo run --release --manifest-path wfms-benchmark/Cargo.toml -- run --seed 1 --trace
//! cargo run --release --manifest-path wfms-benchmark/Cargo.toml -- repeat --runs 2 --seed 1
//! cargo run --release --manifest-path wfms-benchmark/Cargo.toml -- record-golden --seed 1
//! cargo run --release --manifest-path wfms-benchmark/Cargo.toml -- \
//!     --workload assess-ep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run it from the repository root: it reads `examples/specs/` and its
//! goldens from there and writes to `--out` (default
//! `target/wfms-benchmark`).

mod golden;
mod host;
mod ladder;
mod metrics;
mod replay;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use serde_json::Value;
use wfms_serve::Handler;

use crate::golden::{Answer, AssessTable, LadderGoldens, RecommendGoldens, RungGolden, JSON};
use crate::metrics::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::replay::{Ask, Docs};
use crate::workloads::Settings;

const USAGE: &str = "\
wfms-benchmark — end-to-end and per-layer benchmark of the wfms tool

USAGE (from the repository root)
  wfms-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--out <dir>]
      run one workload in this process; the last stdout line is the
      JSON result, the exit code 1 when an answer was wrong
  wfms-benchmark run --seed <n> [--trace] [--seconds <s>] [--out <dir>]
      every workload, each in a fresh child process
  wfms-benchmark repeat --runs <n> --seed <n> [--seconds <s>] [--out <dir>]
      every workload n times on the same seed, in two sets (the first and
      the second half of the runs); prints each end-to-end metric's
      medians and spread against its bound, exits 1 when the two sets'
      medians differ by more than the bound
  wfms-benchmark record-golden --seed <n>
      record the goldens of the fixed tables and of the seed's ladder

WORKLOADS  assess-ep, recommend-enterprise, ladder, serve-mix
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("serve-child") {
        serve_child(&args[1..])
    } else {
        dispatch(&args).unwrap_or_else(|e| {
            eprintln!("wfms-benchmark: {e}");
            2
        })
    };
    std::process::exit(code);
}

/// The daemon child of `serve-mix`: `wfms serve` through the CLI's
/// public entry point, in a process of its own so its global recorder,
/// fault registry and worker pools stay out of the client's.
///
/// The parent holds the child's stdin open and never writes to it; when
/// the parent ends, however it ends, stdin reaches end-of-file and the
/// daemon exits instead of outliving the benchmark.
fn serve_child(args: &[String]) -> i32 {
    std::thread::spawn(|| {
        let _ = std::io::Read::read_to_end(&mut std::io::stdin(), &mut Vec::new());
        std::process::exit(3);
    });
    let argv = std::iter::once("serve".to_string()).chain(args.iter().cloned());
    wfms_cli::main_with_args(argv, &mut std::io::stdout().lock())
}

/// Parsed command-line options.
#[derive(Debug, Default)]
struct Options {
    command: Option<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    runs: Option<usize>,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            o.command = it.next().cloned();
        }
    }
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let number = |name: &str, v: String| {
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| format!("{name}: {v:?} is not a non-negative number"))
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value(flag)?),
            "--seed" => {
                let v = value(flag)?;
                o.seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed: {v:?} is not a seed"))?,
                );
            }
            "--seconds" => o.seconds = Some(number(flag, value(flag)?)?),
            "--runs" => o.runs = Some(number(flag, value(flag)?)? as usize),
            "--out" => o.out = Some(PathBuf::from(value(flag)?)),
            "--trace" => {
                o.trace = match it.peek().map(|v| v.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--help" | "-h" => o.command = Some("help".to_string()),
            other => return Err(format!("unknown option {other:?}\n\n{USAGE}")),
        }
    }
    Ok(o)
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    let o = parse(args)?;
    if o.command.as_deref() == Some("help") || args.is_empty() {
        print!("{USAGE}");
        return Ok(0);
    }
    if std::env::var_os("WFMS_FAULTS").is_some() {
        return Err("WFMS_FAULTS is set; the benchmark measures the fault-free path only".into());
    }
    for file in [workloads::EP_REGISTRY, "BENCHMARK.json"] {
        if !std::path::Path::new(file).is_file() {
            return Err(format!("{file} not found: run from the repository root"));
        }
    }
    // A set-up child's parent has checked it already, outside the timing.
    if o.command.as_deref() != Some("setup-child") {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json: {e}"))?;
        metrics::check_benchmark_json(&text)?;
    }
    let seed = o.seed.ok_or("--seed is required")?;
    let settings = Settings {
        seed,
        seconds: o.seconds.unwrap_or(RUN_SECONDS as f64),
        trace: o.trace,
        out: o
            .out
            .clone()
            .unwrap_or_else(|| PathBuf::from("target/wfms-benchmark")),
    };
    match (o.command.as_deref(), &o.workload) {
        (None, Some(workload)) => one_workload(workload, &settings),
        (Some("setup-child"), Some(workload)) => {
            workloads::setup_child(workload, &settings).map(|()| 0)
        }
        (Some("run"), None) => run_all(&settings),
        (Some("repeat"), None) => repeat(o.runs.unwrap_or(2), &settings),
        (Some("record-golden"), None) => record_golden(&settings),
        _ => Err(format!("nothing to do\n\n{USAGE}")),
    }
}

/// Runs one workload here and prints its notes and the result line.
fn one_workload(workload: &str, settings: &Settings) -> Result<i32, String> {
    let outcome = workloads::run(workload, settings)?;
    let table = if settings.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    for note in &outcome.notes {
        println!("{workload}: {note}");
    }
    let mut metrics = Vec::with_capacity(outcome.metrics.len());
    for ((name, value), m) in outcome.metrics.iter().zip(table) {
        let value = if value.is_finite() { *value } else { 0.0 };
        println!("{workload}: {name} = {value} {}", m.unit);
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.unit
        ));
    }
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    Ok(if correct { 0 } else { 1 })
}

/// The result of one child run.
struct ChildRun {
    correct: bool,
    metrics: BTreeMap<String, f64>,
    notes: Vec<String>,
}

/// Runs one workload in a fresh child process (a re-execution of this
/// binary), so the global recorder, fault registry and worker pools
/// cannot leak from one workload into the next.
fn child(workload: &str, seed: u64, settings: &Settings) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &settings.seconds.to_string()])
        .args(["--trace", if settings.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&settings.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload}: no output (exit {})", output.status))?;
    let result: Value =
        serde_json::from_str(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    let metrics = result["metrics"]
        .as_object()
        .ok_or_else(|| format!("{workload}: result has no metrics"))?
        .iter()
        .map(|(name, m)| (name.clone(), m["value"].as_f64().unwrap_or(f64::NAN)))
        .collect();
    Ok(ChildRun {
        correct: output.status.success() && result["correct"].as_bool() == Some(true),
        metrics,
        notes: lines.into_iter().map(str::to_string).collect(),
    })
}

/// `run`: every workload in its own child.
fn run_all(settings: &Settings) -> Result<i32, String> {
    let table = if settings.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut results = Vec::with_capacity(WORKLOADS.len());
    for workload in WORKLOADS {
        let run = child(workload, settings.seed, settings)?;
        for note in &run.notes {
            println!("{note}");
        }
        results.push((workload, run));
    }
    println!();
    print!("{:<30}", "metric");
    for (workload, _) in &results {
        print!(" {workload:>21}");
    }
    println!();
    for m in table {
        print!("{:<30}", format!("{} ({})", m.name, m.unit));
        for (_, run) in &results {
            match run.metrics.get(m.name) {
                Some(v) => print!(" {v:>21.4}"),
                None => print!(" {:>21}", "-"),
            }
        }
        println!();
    }
    let all_correct = results.iter().all(|(_, r)| r.correct);
    println!("all answers correct: {all_correct}");
    Ok(if all_correct { 0 } else { 1 })
}

/// `repeat`: every workload `runs` times on the same seed. The first
/// and the second half of the runs are two sets, as two measurements of
/// the same code would be; each end-to-end metric's set medians must
/// agree within its bound. The quartile spread over all runs is printed
/// beside it.
fn repeat(runs: usize, settings: &Settings) -> Result<i32, String> {
    if runs < 2 {
        return Err("repeat needs --runs 2 or more".to_string());
    }
    let settings = Settings {
        trace: false,
        ..settings.clone()
    };
    let mut within = true;
    for workload in WORKLOADS {
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut tails = Vec::new();
        for r in 0..runs {
            let run = child(workload, settings.seed, &settings)?;
            within &= run.correct;
            for m in END_TO_END {
                values
                    .entry(m.name)
                    .or_default()
                    .push(run.metrics.get(m.name).copied().unwrap_or(f64::NAN));
            }
            tails.extend(
                run.notes
                    .iter()
                    .filter(|n| n.contains("tail: "))
                    .map(|n| format!("run {}: {n}", r + 1)),
            );
        }
        println!("{workload} ({runs} runs, seed {})", settings.seed);
        for m in END_TO_END {
            let v = &values[m.name];
            let (first, second) = v.split_at(runs / 2);
            let (a, b) = (
                stats::median(first).unwrap_or(f64::NAN),
                stats::median(second).unwrap_or(f64::NAN),
            );
            let drift = (b - a).abs() / a;
            let bound = m.bound.unwrap_or(0.0);
            let ok = drift <= bound;
            within &= ok;
            let median = stats::median(v).unwrap_or(f64::NAN);
            let iqr = stats::python_quartiles(v)
                .map(|(q1, q3)| format!(", iqr/median {:.4}", (q3 - q1) / median))
                .unwrap_or_default();
            println!(
                "  {:<12} set medians {a:>12.4} {b:>12.4} {:<5} differ by {drift:.4} (bound {bound}){iqr}  {}",
                m.name,
                m.unit,
                if ok { "ok" } else { "OUT OF BOUND" }
            );
        }
        for tail in tails {
            println!("  {tail}");
        }
    }
    Ok(if within { 0 } else { 1 })
}

/// `record-golden`: records the fixed goldens and the seed's ladder
/// through the in-process handler, the path every transport answers
/// from.
fn record_golden(settings: &Settings) -> Result<i32, String> {
    let answer = |docs: &Docs, ask: Ask| -> Result<Answer, String> {
        let answer = ask.answer(&Handler::new(1).handle(&ask.request(docs)?))?;
        golden::check_closed_form(&docs.registry, &answer, JSON)?;
        Ok(answer)
    };
    let ep = Docs::read(workloads::EP_REGISTRY, workloads::EP_WORKLOAD)?;
    let enterprise = Docs::read(
        workloads::ENTERPRISE_REGISTRY,
        workloads::ENTERPRISE_WORKLOAD,
    )?;
    let table = |docs: &Docs, configs: Vec<Vec<usize>>| -> Result<AssessTable, String> {
        let entries = configs
            .into_iter()
            .map(|c| answer(docs, Ask::Assess(c)))
            .collect::<Result<_, _>>()?;
        Ok(AssessTable { entries })
    };
    golden::store(
        golden::ASSESS_EP,
        &table(&ep, workloads::grid(3, &workloads::EP_REPLICAS))?,
    )?;
    golden::store(
        golden::ASSESS_ENTERPRISE,
        &table(
            &enterprise,
            workloads::grid(5, &workloads::ENTERPRISE_REPLICAS),
        )?,
    )?;
    // As `recommend-enterprise` and the `serve-mix` recommend ask.
    let exhaustive = Ask::Recommend {
        exhaustive: true,
        jobs: None,
    };
    let greedy = Ask::Recommend {
        exhaustive: false,
        jobs: Some(2),
    };
    golden::store(
        golden::RECOMMEND_ENTERPRISE,
        &RecommendGoldens {
            exhaustive: answer(&enterprise, exhaustive)?,
            greedy: answer(&enterprise, greedy)?,
        },
    )?;
    let mut rungs = Vec::new();
    for (label, _, dir) in workloads::write_ladder(settings.seed, &settings.out)? {
        let docs = Docs::read(
            &dir.join("registry.json").display().to_string(),
            &dir.join("workload.json").display().to_string(),
        )?;
        let greedy = Ask::Recommend {
            exhaustive: false,
            jobs: None,
        };
        let recommend = answer(&docs, greedy)?;
        let assess = answer(&docs, Ask::Assess(recommend.config.clone()))?;
        rungs.push(RungGolden {
            rung: label,
            recommend,
            assess,
        });
    }
    golden::store(
        &golden::ladder_file(settings.seed),
        &LadderGoldens {
            seed: settings.seed,
            rungs,
        },
    )?;
    println!(
        "recorded goldens in {} (ladder seed {})",
        golden::GOLDEN_DIR,
        settings.seed
    );
    Ok(0)
}
