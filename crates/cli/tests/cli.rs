//! End-to-end CLI tests: every command driven through `run_command` with
//! real files in a temporary directory, output captured in-memory.

use std::path::PathBuf;

use wfms_cli::{run_command, ArgError, CliError, ParsedArgs, USAGE};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("wfms-cli-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).display().to_string()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn invoke(tokens: &[&str]) -> Result<String, CliError> {
    let parsed = ParsedArgs::parse(tokens.iter().map(|s| s.to_string()))?;
    let mut out = Vec::new();
    run_command(&parsed, &mut out)?;
    Ok(String::from_utf8(out).expect("utf-8 output"))
}

/// Creates a scenario directory via `wfms init` and returns it.
fn scenario(tag: &str) -> TempDir {
    let dir = TempDir::new(tag);
    let out = invoke(&["init", "--dir", &dir.0.display().to_string()]).expect("init succeeds");
    assert!(out.contains("registry.json"));
    dir
}

#[test]
fn help_prints_usage() {
    let out = invoke(&["help"]).unwrap();
    assert_eq!(out, USAGE);
    assert!(out.contains("recommend"));
}

#[test]
fn unknown_command_is_rejected() {
    assert!(matches!(
        invoke(&["frobnicate"]),
        Err(CliError::UnknownCommand { command }) if command == "frobnicate"
    ));
}

#[test]
fn init_validate_analyze_round_trip() {
    let dir = scenario("validate");
    let out = invoke(&[
        "validate",
        "--registry",
        &dir.path("registry.json"),
        "--workload",
        &dir.path("workload.json"),
    ])
    .unwrap();
    assert!(out.contains("ok: workflow \"EP\""));
    assert!(out.contains("3 server types"));

    let out = invoke(&[
        "analyze",
        "--registry",
        &dir.path("registry.json"),
        "--workload",
        &dir.path("workload.json"),
    ])
    .unwrap();
    assert!(out.contains("workflow \"EP\""));
    assert!(out.contains("p90"));
    assert!(out.contains("requests/instance @ workflow-engine"));
}

#[test]
fn analyze_json_is_machine_readable() {
    let dir = scenario("analyze-json");
    let out = invoke(&[
        "analyze",
        "--registry",
        &dir.path("registry.json"),
        "--workload",
        &dir.path("workload.json"),
        "--json",
    ])
    .unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
    let mean = parsed[0]["mean_turnaround_minutes"].as_f64().unwrap();
    assert!((mean - 1236.9).abs() < 1.0, "mean {mean}");
}

#[test]
fn availability_matches_paper_anchor() {
    let dir = scenario("availability");
    let out = invoke(&[
        "availability",
        "--registry",
        &dir.path("registry.json"),
        "--config",
        "1,1,1",
    ])
    .unwrap();
    // 71 h/year ≈ 4260 min/year.
    assert!(out.contains("availability 0.9918"), "{out}");
}

#[test]
fn assess_reports_goal_outcome() {
    let dir = scenario("assess");
    let out = invoke(&[
        "assess",
        "--registry",
        &dir.path("registry.json"),
        "--workload",
        &dir.path("workload.json"),
        "--config",
        "2,2,2",
        "--max-wait",
        "0.05",
        "--min-availability",
        "0.9999",
    ])
    .unwrap();
    assert!(out.contains("goals met: true"), "{out}");

    let out = invoke(&[
        "assess",
        "--registry",
        &dir.path("registry.json"),
        "--workload",
        &dir.path("workload.json"),
        "--config",
        "1,1,1",
        "--min-availability",
        "0.9999",
    ])
    .unwrap();
    assert!(out.contains("goals met: false"), "{out}");
}

#[test]
fn availability_answers_in_product_form_at_any_size() {
    let dir = scenario("availability-product-form");
    let text = invoke(&[
        "availability",
        "--registry",
        &dir.path("registry.json"),
        "--config",
        "2,2,3",
    ])
    .unwrap();
    assert_eq!(
        text,
        "Y(2,2,3): availability 0.99999864 (0.72 min downtime/year)\n"
    );
    let json = invoke(&[
        "availability",
        "--registry",
        &dir.path("registry.json"),
        "--config",
        "2,2,3",
        "--json",
    ])
    .unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    let keys: Vec<&str> = parsed
        .as_object()
        .expect("an object")
        .iter()
        .map(|(key, _)| key.as_str())
        .collect();
    assert_eq!(
        keys,
        ["configuration", "availability", "downtime_minutes_per_year"]
    );
    // Past the 4,096-state dense cap (16,807 states here) the answer is
    // the same product, against the closed form.
    assert_uniform_availability_is_the_closed_form("enterprise", 6);
}

fn example(scenario: &str, file: &str) -> String {
    format!(
        "{}/../../examples/specs/{scenario}/{file}",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// `wfms availability --json` on `scenario` with `y` replicas of every
/// type agrees with `closed_form_unavailability` within 1e-12.
fn assert_uniform_availability_is_the_closed_form(scenario: &str, y: usize) {
    let path = example(scenario, "registry.json");
    let registry: wfms_core::ServerTypeRegistry =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let config = wfms_core::Configuration::uniform(&registry, y).unwrap();
    let replicas = config.as_slice().iter().map(usize::to_string);
    let replicas = replicas.collect::<Vec<_>>().join(",");
    let out = invoke(&[
        "availability",
        "--registry",
        &path,
        "--config",
        &replicas,
        "--json",
    ])
    .unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
    let availability = parsed["availability"].as_f64().unwrap();
    let closed = 1.0 - wfms_core::avail::closed_form_unavailability(&registry, &config).unwrap();
    assert!(
        (availability - closed).abs() < 1e-12,
        "{scenario} {config}: product {availability} vs closed form {closed}"
    );
}

/// A replica count past the cap is refused before anything is sized from
/// it: `assess` and `availability` fail, and `lint` reports one C006
/// error per type past it. A state count past `usize::MAX` saturates
/// instead of wrapping: `lint`'s generator pass then skips the chain as
/// past its 4,096-state cap instead of building a zero-state one, and
/// `availability` answers it in product form.
#[test]
fn oversized_configurations_are_refused_and_state_counts_saturate() {
    let (ep_registry, ep_workload) = (
        example("ep", "registry.json"),
        example("ep", "workload.json"),
    );
    for command in ["assess", "availability"] {
        let mut tokens = vec![command, "--registry", &ep_registry];
        if command == "assess" {
            tokens.extend(["--workload", &ep_workload]);
        }
        tokens.extend(["--config", "4294967295,2,2"]);
        let err = invoke(&tokens).unwrap_err();
        assert!(
            err.to_string()
                .contains("assigns 4294967295 replicas to server-type#0"),
            "{command}: {err}"
        );
    }
    for (config, past_cap) in [
        ("4294967295,2,2", 1),
        ("100001,2,2", 1),
        ("4294967295,4294967295,1", 2),
    ] {
        let tokens = [
            "lint",
            "--registry",
            &ep_registry,
            "--workload",
            &ep_workload,
            "--config",
            config,
        ];
        let parsed = ParsedArgs::parse(tokens.iter().map(|s| s.to_string())).unwrap();
        let mut out = Vec::new();
        let err = run_command(&parsed, &mut out).unwrap_err();
        assert!(
            matches!(err, CliError::Lint { errors } if errors == past_cap),
            "{config}: {err}"
        );
        let out = String::from_utf8(out).unwrap();
        assert_eq!(out.matches("C006").count(), past_cap, "{config}: {out}");
    }

    // 65,536⁵ = 2⁸⁰ states, which an unchecked product wraps to 0.
    let (registry, workload) = (
        example("enterprise", "registry.json"),
        example("enterprise", "workload.json"),
    );
    let wrapping = "65535,65535,65535,65535,65535";
    let out = invoke(&[
        "lint",
        "--registry",
        &registry,
        "--workload",
        &workload,
        "--config",
        wrapping,
    ])
    .unwrap();
    assert!(!out.contains("M001"), "{out}");
    assert_uniform_availability_is_the_closed_form("enterprise", 65_535);
}

/// The engine switches deleted with the joint folds, `--jobs` deleted
/// with the thread pool, and `availability --avail-backend` deleted with
/// the solvers it chose between, fail through the ordinary
/// unknown-option path on every command that carried them.
#[test]
fn removed_engine_switches_are_unknown_options() {
    let removed: [(&str, &[&str]); 4] = [
        ("availability", &["avail-backend"]),
        (
            "assess",
            &["epsilon", "avail-backend", "solver-tol", "solver-max-iter"],
        ),
        (
            "recommend",
            &[
                "epsilon",
                "avail-backend",
                "solver-tol",
                "solver-max-iter",
                "screen-epsilon",
                "rank-moves",
                "no-incremental",
                "jobs",
            ],
        ),
        (
            "profile",
            &[
                "epsilon",
                "avail-backend",
                "solver-tol",
                "solver-max-iter",
                "jobs",
            ],
        ),
    ];
    for (command, switches) in removed {
        for switch in switches {
            let tokens = [command.to_string(), format!("--{switch}"), "1".to_string()];
            match ParsedArgs::parse(tokens) {
                Err(ArgError::UnknownFlag { flag, command: c }) => {
                    assert_eq!((flag.as_str(), c.as_str()), (*switch, command));
                }
                other => panic!("{command} --{switch}: expected UnknownFlag, got {other:?}"),
            }
        }
    }
    let dir = scenario("removed-switches");
    let err = invoke(&[
        "assess",
        "--registry",
        &dir.path("registry.json"),
        "--workload",
        &dir.path("workload.json"),
        "--config",
        "3,3,3",
        "--epsilon",
        "1e-9",
    ])
    .unwrap_err();
    assert_eq!(
        err.to_string(),
        "unknown option --epsilon for `wfms assess` (try `wfms help`)"
    );
    let err = invoke(&[
        "recommend",
        "--registry",
        &dir.path("registry.json"),
        "--workload",
        &dir.path("workload.json"),
        "--max-wait",
        "0.05",
        "--screen-epsilon",
        "1e-2",
    ])
    .unwrap_err();
    assert!(
        matches!(err, CliError::Arg(ArgError::UnknownFlag { ref flag, .. }) if flag == "screen-epsilon"),
        "{err:?}"
    );
}

#[test]
fn recommend_all_methods_agree_on_the_ep_scenario() {
    let dir = scenario("recommend");
    let base = [
        "recommend",
        "--registry",
        &dir.path("registry.json"),
        "--workload",
        &dir.path("workload.json"),
        "--max-wait",
        "0.05",
        "--min-availability",
        "0.9999",
    ]
    .map(String::from);
    let greedy = {
        let toks: Vec<&str> = base.iter().map(String::as_str).collect();
        invoke(&toks).unwrap()
    };
    assert!(
        greedy.contains("method greedy: recommend [2, 2, 2]"),
        "{greedy}"
    );
    let optimal = {
        let mut toks: Vec<&str> = base.iter().map(String::as_str).collect();
        toks.push("--optimal");
        invoke(&toks).unwrap()
    };
    assert!(optimal.contains("recommend [2, 2, 2]"), "{optimal}");
}

#[test]
fn recommend_json_emits_assessment() {
    let dir = scenario("recommend-json");
    let out = invoke(&[
        "recommend",
        "--registry",
        &dir.path("registry.json"),
        "--workload",
        &dir.path("workload.json"),
        "--min-availability",
        "0.9999",
        "--json",
    ])
    .unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&out).expect("valid JSON");
    assert!(parsed["availability"].as_f64().unwrap() >= 0.9999);
}

#[test]
fn simulate_runs_and_reports() {
    let dir = scenario("simulate");
    let out = invoke(&[
        "simulate",
        "--registry",
        &dir.path("registry.json"),
        "--workload",
        &dir.path("workload.json"),
        "--config",
        "2,2,2",
        "--duration",
        "5000",
        "--warmup",
        "500",
        "--failures",
    ])
    .unwrap();
    assert!(out.contains("EP:"), "{out}");
    assert!(out.contains("availability:"), "{out}");
}

/// Writes a workload file whose single spec carries several distinct
/// defects: a probability-sum violation (W007), an unknown activity
/// (W015), and an orphaned activity-table entry (W019).
fn write_broken_workload(dir: &TempDir) -> String {
    use wfms_core::statechart::{ActivityKind, ActivitySpec, ChartBuilder, EcaRule};
    let chart = ChartBuilder::new("broken")
        .initial("i")
        .activity_state("a", "ghost")
        .activity_state("b", "A")
        .final_state("f")
        .transition("i", "a", 1.0, EcaRule::default())
        .transition("a", "b", 0.25, EcaRule::default())
        .transition("a", "f", 0.25, EcaRule::default())
        .transition("b", "f", 1.0, EcaRule::default())
        .build()
        .unwrap();
    let spec = wfms_core::WorkflowSpec::new(
        "broken",
        chart,
        [
            ActivitySpec::new("A", ActivityKind::Automated, 10.0, vec![2.0, 3.0, 3.0]),
            ActivitySpec::new("Unused", ActivityKind::Automated, 5.0, vec![1.0, 1.0, 1.0]),
        ],
    );
    let file = wfms_cli::WorkloadFile {
        workflows: vec![wfms_cli::WorkloadEntry {
            arrival_rate: 0.5,
            spec,
        }],
    };
    let path = dir.path("broken-workload.json");
    std::fs::write(&path, serde_json::to_string_pretty(&file).unwrap()).unwrap();
    path
}

#[test]
fn lint_clean_scenario_reports_no_errors() {
    let dir = scenario("lint-clean");
    let out = invoke(&[
        "lint",
        "--registry",
        &dir.path("registry.json"),
        "--workload",
        &dir.path("workload.json"),
        "--config",
        "2,2,2",
        "--max-wait",
        "0.05",
        "--min-availability",
        "0.9999",
        "--budget",
        "64",
    ])
    .unwrap();
    assert!(out.contains("0 errors"), "{out}");
}

#[test]
fn lint_broken_spec_reports_many_codes_and_fails() {
    let dir = scenario("lint-broken");
    let workload = write_broken_workload(&dir);
    let parsed = ParsedArgs::parse(
        [
            "lint",
            "--registry",
            &dir.path("registry.json"),
            "--workload",
            &workload,
        ]
        .iter()
        .map(|s| s.to_string()),
    )
    .unwrap();
    let mut buf = Vec::new();
    let err = run_command(&parsed, &mut buf).unwrap_err();
    assert!(
        matches!(err, CliError::Lint { errors } if errors >= 2),
        "{err}"
    );
    let out = String::from_utf8(buf).unwrap();
    // At least three distinct diagnostic codes in a single run.
    let mut codes: Vec<&str> = ["W007", "W015", "W019"]
        .iter()
        .copied()
        .filter(|c| out.contains(*c))
        .collect();
    codes.dedup();
    assert!(codes.len() >= 3, "codes {codes:?} in output:\n{out}");

    // Non-zero process exit through the top-level entry point.
    let code = wfms_cli::main_with_args(
        [
            "lint".to_string(),
            "--registry".to_string(),
            dir.path("registry.json"),
            "--workload".to_string(),
            workload,
        ],
        &mut Vec::new(),
    );
    assert_ne!(code, 0);
}

#[test]
fn lint_json_round_trips_through_serde() {
    let dir = scenario("lint-json");
    let workload = write_broken_workload(&dir);
    let parsed = ParsedArgs::parse(
        [
            "lint",
            "--registry",
            &dir.path("registry.json"),
            "--workload",
            &workload,
            "--format",
            "json",
        ]
        .iter()
        .map(|s| s.to_string()),
    )
    .unwrap();
    let mut buf = Vec::new();
    let err = run_command(&parsed, &mut buf).unwrap_err();
    assert!(matches!(err, CliError::Lint { .. }), "{err}");
    let out = String::from_utf8(buf).unwrap();
    let findings: wfms_core::diag::Diagnostics = serde_json::from_str(&out).expect("valid JSON");
    assert!(findings.has_errors());
    let back = serde_json::to_string(&findings).unwrap();
    let reparsed: wfms_core::diag::Diagnostics = serde_json::from_str(&back).unwrap();
    assert_eq!(findings, reparsed);
}

#[test]
fn lint_rejects_unknown_format() {
    let dir = scenario("lint-format");
    let err = invoke(&[
        "lint",
        "--registry",
        &dir.path("registry.json"),
        "--workload",
        &dir.path("workload.json"),
        "--format",
        "yaml",
    ])
    .unwrap_err();
    assert!(
        err.to_string().contains("expected `text` or `json`"),
        "{err}"
    );
}

#[test]
fn missing_goals_are_reported() {
    let dir = scenario("nogoals");
    let err = invoke(&[
        "recommend",
        "--registry",
        &dir.path("registry.json"),
        "--workload",
        &dir.path("workload.json"),
    ])
    .unwrap_err();
    assert!(err.to_string().contains("no performability goal"), "{err}");
}

#[test]
fn missing_files_and_bad_json_are_reported() {
    let err = invoke(&[
        "availability",
        "--registry",
        "/nonexistent.json",
        "--config",
        "1,1,1",
    ])
    .unwrap_err();
    assert!(matches!(err, CliError::Io { .. }));

    let dir = TempDir::new("badjson");
    std::fs::write(dir.0.join("registry.json"), "{ not json").unwrap();
    let err = invoke(&[
        "availability",
        "--registry",
        &dir.path("registry.json"),
        "--config",
        "1,1,1",
    ])
    .unwrap_err();
    assert!(matches!(err, CliError::Json { .. }));
}

/// `assess` and `recommend` check their inputs in one order — the files,
/// the specs, `--config`, the goal values and `--budget`, and only then
/// the `--max-wait-type` names — so an invocation with several faults
/// reports the first of them.
#[test]
fn assess_and_recommend_report_the_first_fault_in_input_order() {
    let dir = scenario("fault-order");
    let broken = write_broken_workload(&dir);
    let (registry, workload) = (dir.path("registry.json"), dir.path("workload.json"));
    let error = |extra: &[&str]| {
        let mut tokens = vec!["assess", "--registry", &registry];
        tokens.extend(extra);
        invoke(&tokens).unwrap_err()
    };
    let missing = error(&["--workload", "/nonexistent.json", "--config", "1,1"]);
    assert!(matches!(missing, CliError::Io { .. }), "{missing}");
    let spec = error(&["--workload", &broken, "--config", "1,1", "--max-wait", "-1"]);
    assert!(spec.to_string().contains("specification error"), "{spec}");
    let config = error(&[
        "--workload",
        &workload,
        "--config",
        "1,1",
        "--max-wait",
        "-1",
    ]);
    assert!(config.to_string().contains("length 2"), "{config}");
    let goal = error(&[
        "--workload",
        &workload,
        "--config",
        "1,1,1",
        "--max-wait",
        "-1",
        "--max-wait-type",
        "frobnicator=1",
    ]);
    assert!(
        goal.to_string().contains("invalid max waiting time"),
        "{goal}"
    );
    let name = error(&[
        "--workload",
        &workload,
        "--config",
        "1,1,1",
        "--max-wait-type",
        "frobnicator=1",
    ]);
    assert!(matches!(name, CliError::InvalidParams(_)), "{name}");
    assert!(name.to_string().contains("registered:"), "{name}");

    let budget = invoke(&[
        "recommend",
        "--registry",
        &registry,
        "--workload",
        &workload,
        "--budget",
        "many",
        "--max-wait-type",
        "frobnicator=1",
    ])
    .unwrap_err();
    assert!(
        matches!(budget, CliError::Arg(ArgError::InvalidValue { ref option, .. }) if option == "budget"),
        "{budget}"
    );
}

#[test]
fn bad_config_vector_is_reported() {
    let dir = scenario("badconfig");
    let err = invoke(&[
        "availability",
        "--registry",
        &dir.path("registry.json"),
        "--config",
        "1,1",
    ])
    .unwrap_err();
    assert!(err.to_string().contains("length 2"), "{err}");
}

#[test]
fn sensitivity_ranks_parameters() {
    let dir = scenario("sensitivity");
    let out = invoke(&[
        "sensitivity",
        "--registry",
        &dir.path("registry.json"),
        "--workload",
        &dir.path("workload.json"),
        "--config",
        "2,2,2",
    ])
    .unwrap();
    assert!(out.contains("failure rate @ application-server"), "{out}");
    assert!(out.contains("arrival-rate scale"), "{out}");
    // JSON variant parses.
    let json = invoke(&[
        "sensitivity",
        "--registry",
        &dir.path("registry.json"),
        "--workload",
        &dir.path("workload.json"),
        "--config",
        "2,2,2",
        "--json",
    ])
    .unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    assert!(parsed.as_array().unwrap().len() >= 10);
}

/// Sensitivity answers wherever `assess` does: enterprise `6,6,6,6,6`
/// has 16,807 joint states, and every one of its 16 parameters (three
/// per server type, then the arrival scale) gets a row. Its assessments
/// are not search decisions, so `--journal` records none. The journal is
/// process-global, hence the binary.
#[test]
fn sensitivity_answers_past_the_joint_state_cap() {
    let dir = TempDir::new("sensitivity-journal");
    let journal = dir.path("journal.jsonl");
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_wfms"))
        .args([
            "sensitivity",
            "--registry",
            &enterprise_spec("registry.json"),
            "--workload",
            &enterprise_spec("workload.json"),
            "--config",
            "6,6,6,6,6",
            "--journal",
            &journal,
        ])
        .output()
        .expect("spawn wfms");
    assert!(run.status.success(), "{run:?}");
    assert_eq!(std::fs::read(&journal).expect("journal written"), b"");
    let out = String::from_utf8(run.stdout).expect("utf-8 output");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines[0], "elasticities at Y(6,6,6,6,6) (step 5%):", "{out}");
    assert_eq!(lines.len(), 2 + 16, "{out}");
    assert!(lines[2..].iter().all(|row| !row.contains("n/a")), "{out}");
    assert!(lines[17].starts_with("arrival-rate scale"), "{out}");
}

/// Sensitivity always runs strict, because an elasticity of a charged
/// wait would measure the cap, not the model: an injected evaluation or
/// steady-state failure fails the command, and no elasticity is
/// printed. Each failure names its failpoint; `--moves` reads the
/// steady-state failpoint too.
#[test]
fn sensitivity_fails_under_injected_faults() {
    let dir = scenario("sensitivity-faults");
    let (registry, workload) = (dir.path("registry.json"), dir.path("workload.json"));
    let args = [
        "sensitivity",
        "--registry",
        &registry,
        "--workload",
        &workload,
        "--config",
        "2,2,3",
    ];
    let moves = [&args[..], &["--moves"]].concat();
    for (faults, runs, message) in [
        (
            "performability.evaluate-state=error@1.0",
            vec![&args[..]],
            "fault injected at failpoint `performability.evaluate-state`",
        ),
        (
            "avail.steady-state=error@1.0",
            vec![&args[..], &moves[..]],
            "fault injected at failpoint `avail.steady-state`",
        ),
    ] {
        for run_args in runs {
            let run = wfms_with_faults(faults, run_args);
            assert!(!run.status.success(), "{faults} {run_args:?}: {run:?}");
            assert!(run.stdout.is_empty(), "{faults} {run_args:?}: {run:?}");
            let stderr = String::from_utf8(run.stderr).expect("utf-8 stderr");
            assert!(stderr.contains(message), "{faults} {run_args:?}: {stderr}");
        }
    }
}

#[test]
fn export_dot_renders_both_views() {
    let dir = scenario("dot");
    let chart = invoke(&[
        "export-dot",
        "--registry",
        &dir.path("registry.json"),
        "--workload",
        &dir.path("workload.json"),
        "--workflow",
        "EP",
    ])
    .unwrap();
    assert!(chart.starts_with("digraph \"EP\""), "{chart}");
    assert!(
        chart.contains("Delivery_SC"),
        "subworkflows rendered as clusters"
    );

    let ctmc = invoke(&[
        "export-dot",
        "--registry",
        &dir.path("registry.json"),
        "--workload",
        &dir.path("workload.json"),
        "--workflow",
        "EP",
        "--view",
        "ctmc",
    ])
    .unwrap();
    assert!(ctmc.contains("digraph \"EP_ctmc\""), "{ctmc}");
    assert!(ctmc.contains("s_A"));

    // Writing to a file.
    let out = invoke(&[
        "export-dot",
        "--registry",
        &dir.path("registry.json"),
        "--workload",
        &dir.path("workload.json"),
        "--workflow",
        "EP",
        "--out",
        &dir.path("ep.dot"),
    ])
    .unwrap();
    assert!(out.contains("wrote"), "{out}");
    assert!(std::fs::read_to_string(dir.path("ep.dot"))
        .unwrap()
        .contains("digraph"));

    // Bad view flag.
    let err = invoke(&[
        "export-dot",
        "--registry",
        &dir.path("registry.json"),
        "--workload",
        &dir.path("workload.json"),
        "--workflow",
        "EP",
        "--view",
        "3d",
    ])
    .unwrap_err();
    assert!(err.to_string().contains("chart"), "{err}");
}

/// Runs the `wfms` binary with `WFMS_FAULTS` set, so the failpoints
/// fire in a process of their own.
fn wfms_with_faults(faults: &str, args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_wfms"))
        .args(args)
        .env("WFMS_FAULTS", faults)
        .env("WFMS_FAULT_SEED", "7")
        .output()
        .expect("spawn wfms")
}

#[test]
fn assess_reports_charged_evaluations_and_strict_restores_failfast() {
    let dir = scenario("degrade");
    let (registry, workload) = (dir.path("registry.json"), dir.path("workload.json"));
    let args = [
        "assess",
        "--registry",
        &registry,
        "--workload",
        &workload,
        "--config",
        "2,2,2",
        "--max-wait",
        "0.5",
    ];
    // Every per-type evaluation fails: without --strict each is charged
    // at its pessimistic cap, one per server type and up-count.
    let faults = "performability.evaluate-state=error@1.0";
    let run = wfms_with_faults(faults, &args);
    assert!(run.status.success(), "{run:?}");
    let degraded = String::from_utf8(run.stdout).expect("utf-8 output");
    assert!(
        degraded.contains(
            "DEGRADED: 9 failed evaluation(s) charged at the pessimistic cap (mass 1.000e0)"
        ),
        "{degraded}"
    );

    // The charge touches only the waits: the availability line is the
    // clean run's.
    let clean = invoke(&args).unwrap();
    assert!(!clean.contains("DEGRADED"));
    let avail_line = |s: &str| {
        s.lines()
            .find(|l| l.contains("availability"))
            .expect("availability line")
            .to_string()
    };
    assert_eq!(avail_line(&degraded), avail_line(&clean));

    // --strict restores fail-fast: the first failed evaluation is a hard
    // error.
    let mut strict = args.to_vec();
    strict.push("--strict");
    let run = wfms_with_faults(faults, &strict);
    assert!(!run.status.success(), "{run:?}");
    let stderr = String::from_utf8(run.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("fault injected"), "{stderr}");
}

/// The path of the enterprise example's spec `file`.
fn enterprise_spec(file: &str) -> String {
    format!(
        "{}/../../examples/specs/enterprise/{file}",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn recommend_reports_degradation_under_failing_evaluations() {
    let (registry, workload) = (
        enterprise_spec("registry.json"),
        enterprise_spec("workload.json"),
    );
    let args = [
        "recommend",
        "--registry",
        &registry,
        "--workload",
        &workload,
        "--max-wait",
        "0.05",
        "--min-availability",
        "0.9999",
    ];
    let run = wfms_with_faults("performability.evaluate-state=error@0.25", &args);
    assert!(run.status.success(), "{run:?}");
    let out = String::from_utf8(run.stdout).expect("utf-8 output");
    assert!(out.contains("DEGRADED:"), "missing marker: {out}");

    // The degraded search lands on the same configuration as a clean one.
    let clean = invoke(&args).unwrap();
    let recommend_line = |s: &str| {
        s.lines()
            .find(|l| l.contains("recommend"))
            .expect("recommend line")
            .to_string()
    };
    assert_eq!(recommend_line(&out), recommend_line(&clean));
}

/// Annealing reads the same `--strict` as the other searches: under the
/// same failing evaluations it stops at the first failure, and without
/// `--strict` it still recommends.
#[test]
fn annealing_honours_strict_under_failing_evaluations() {
    let (registry, workload) = (
        enterprise_spec("registry.json"),
        enterprise_spec("workload.json"),
    );
    let args = [
        "recommend",
        "--registry",
        &registry,
        "--workload",
        &workload,
        "--max-wait",
        "0.05",
        "--min-availability",
        "0.9999",
        "--annealing",
    ];
    let faults = "performability.evaluate-state=error@0.25";
    let run = wfms_with_faults(faults, &args);
    assert!(run.status.success(), "{run:?}");

    let mut strict = args.to_vec();
    strict.push("--strict");
    let run = wfms_with_faults(faults, &strict);
    assert!(!run.status.success(), "{run:?}");
    let stderr = String::from_utf8(run.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("fault injected at failpoint `performability.evaluate-state`"),
        "{stderr}"
    );
}

/// Builds a one-file fake workspace for `wfms audit --root`.
fn audit_root(tag: &str, rel: &str, content: &str) -> TempDir {
    let dir = TempDir::new(tag);
    let path = dir.0.join(rel);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, content).unwrap();
    dir
}

#[test]
fn audit_clean_root_reports_no_findings() {
    let dir = audit_root(
        "audit-clean",
        "crates/perf/src/lib.rs",
        "pub fn f(x: f64) -> f64 {\n    x + 1.0\n}\n",
    );
    let out = invoke(&["audit", "--root", &dir.0.display().to_string()]).unwrap();
    assert!(out.contains("0 errors"), "{out}");
}

#[test]
fn audit_seeded_unwrap_fails_with_a008() {
    let dir = audit_root(
        "audit-a008",
        "crates/perf/src/lib.rs",
        "pub fn f(v: Option<f64>) -> f64 {\n    v.unwrap()\n}\n",
    );
    let root = dir.0.display().to_string();
    let parsed =
        ParsedArgs::parse(["audit", "--root", &root].iter().map(|s| s.to_string())).unwrap();
    let mut buf = Vec::new();
    let err = run_command(&parsed, &mut buf).unwrap_err();
    assert!(matches!(err, CliError::Audit { errors: 1 }), "{err}");
    let out = String::from_utf8(buf).unwrap();
    assert!(out.contains("A008"), "{out}");

    // Non-zero process exit through the top-level entry point.
    let code = wfms_cli::main_with_args(
        ["audit".to_string(), "--root".to_string(), root],
        &mut Vec::new(),
    );
    assert_ne!(code, 0);
}

#[test]
fn audit_json_round_trips_through_serde() {
    let dir = audit_root(
        "audit-json",
        "crates/markov/src/lib.rs",
        "use std::collections::HashMap;\n\npub type Cache = HashMap<u32, f64>;\n",
    );
    let root = dir.0.display().to_string();
    let parsed = ParsedArgs::parse(
        ["audit", "--root", &root, "--format", "json"]
            .iter()
            .map(|s| s.to_string()),
    )
    .unwrap();
    let mut buf = Vec::new();
    let err = run_command(&parsed, &mut buf).unwrap_err();
    assert!(matches!(err, CliError::Audit { .. }), "{err}");
    let out = String::from_utf8(buf).unwrap();
    let findings: wfms_core::diag::Diagnostics = serde_json::from_str(&out).expect("valid JSON");
    assert!(findings.has_errors());
    assert!(findings.iter().any(|d| d.code == "A006"), "{out}");
    let back = serde_json::to_string(&findings).unwrap();
    let reparsed: wfms_core::diag::Diagnostics = serde_json::from_str(&back).unwrap();
    assert_eq!(findings, reparsed);
}

#[test]
fn audit_rejects_unknown_format() {
    let dir = audit_root("audit-format", "crates/perf/src/lib.rs", "pub fn f() {}\n");
    let err = invoke(&[
        "audit",
        "--root",
        &dir.0.display().to_string(),
        "--format",
        "yaml",
    ])
    .unwrap_err();
    assert!(
        err.to_string().contains("expected `text` or `json`"),
        "{err}"
    );
}
