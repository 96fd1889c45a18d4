//! Integration tests for the observability surface: `--trace=json`,
//! `--trace-out`, and `wfms profile --check`, driven through the real
//! binary so each invocation gets its own process-global recorder.

use std::process::Command;

use wfms_obs::FieldValue;

fn spec(file: &str) -> String {
    format!(
        "{}/../../examples/specs/ep/{file}",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn wfms() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wfms"))
}

#[test]
fn assess_trace_json_covers_the_analysis_stages() {
    let output = wfms()
        .args([
            "assess",
            "--registry",
            &spec("registry.json"),
            "--workload",
            &spec("workload.json"),
            "--config",
            "2,2,3",
            "--max-wait",
            "0.05",
            "--min-availability",
            "0.9999",
            "--trace=json",
        ])
        .output()
        .expect("run wfms");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("goals met: true"), "{stdout}");

    let stderr = String::from_utf8(output.stderr).unwrap();
    let snapshot = wfms_obs::from_json(&stderr).expect("stderr is a trace snapshot");
    for stage in [
        "uniformize",
        "first-passage",
        "avail-steady-state",
        "mg1-waiting",
        "performability",
    ] {
        assert!(
            snapshot.span_count(stage) > 0,
            "stage {stage} recorded no spans; got {:?}",
            snapshot
                .spans
                .iter()
                .map(|s| s.name.as_str())
                .collect::<Vec<_>>()
        );
    }
    // Nonzero work counts: ep's p90 on the squaring table (its matrix
    // products; the table reads no Poisson window) and the M/G/1
    // evaluation counter.
    let percentiles: Vec<_> = snapshot
        .spans
        .iter()
        .filter(|s| s.name == "transient-distribution")
        .collect();
    assert_eq!(percentiles.len(), 1, "one p90 for ep's one workflow");
    let span = percentiles[0];
    assert!(matches!(span.field("products"), Some(FieldValue::U64(n)) if *n > 0));
    assert!(matches!(span.field("probes"), Some(FieldValue::U64(n)) if *n > 0));
    assert!(!snapshot.histograms.contains_key("markov.poisson.terms"));
    assert!(snapshot.counters["perf.mg1.evaluations"] > 0);
    assert!(snapshot.counters["config.assessments"] > 0);
    assert_eq!(snapshot.dropped_spans, 0);
    // The recorder is on, so the `assess` span names its candidate.
    let assess = snapshot
        .spans
        .iter()
        .find(|s| s.name == "assess")
        .expect("an assess span");
    assert!(
        matches!(assess.field("candidate"), Some(FieldValue::Str(c)) if c == "Y(2,2,3)"),
        "{:?}",
        assess.field("candidate")
    );
}

#[test]
fn trace_text_renders_a_span_tree_to_stderr() {
    let output = wfms()
        .args([
            "assess",
            "--registry",
            &spec("registry.json"),
            "--workload",
            &spec("workload.json"),
            "--config",
            "2,2,3",
            "--max-wait",
            "0.05",
            "--trace",
        ])
        .output()
        .expect("run wfms");
    assert!(output.status.success(), "{output:?}");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("assess"), "{stderr}");
    assert!(stderr.contains("mg1-waiting"), "{stderr}");
    assert!(stderr.contains("counters"), "{stderr}");
}

#[test]
fn trace_out_writes_a_parsable_snapshot_file() {
    let path = std::env::temp_dir().join(format!("wfms-trace-{}.json", std::process::id()));
    let output = wfms()
        .args([
            "availability",
            "--registry",
            &spec("registry.json"),
            "--config",
            "2,2,2",
            "--trace-out",
            &path.display().to_string(),
        ])
        .output()
        .expect("run wfms");
    assert!(output.status.success(), "{output:?}");
    // No --trace: nothing on stderr, the snapshot goes to the file only.
    assert!(output.stderr.is_empty());
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    let snapshot = wfms_obs::from_json(&text).expect("file is a trace snapshot");
    assert!(snapshot.span_count("avail-steady-state") > 0);
    assert!(snapshot.gauges.contains_key("avail.state-space.size"));
}

#[test]
fn without_trace_nothing_reaches_stderr() {
    let output = wfms()
        .args([
            "assess",
            "--registry",
            &spec("registry.json"),
            "--workload",
            &spec("workload.json"),
            "--config",
            "2,2,3",
            "--max-wait",
            "0.05",
        ])
        .output()
        .expect("run wfms");
    assert!(output.status.success(), "{output:?}");
    assert!(output.stderr.is_empty());
}

#[test]
fn profile_check_passes_and_reports_every_required_stage() {
    let output = wfms()
        .args([
            "profile",
            "--registry",
            &spec("registry.json"),
            "--workload",
            &spec("workload.json"),
            "--runs",
            "2",
            "--check",
        ])
        .output()
        .expect("run wfms");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    for stage in wfms_cli::commands::REQUIRED_STAGES {
        assert!(stdout.contains(stage), "missing {stage} in:\n{stdout}");
    }
    assert!(stdout.contains("profiled 2 run(s)"), "{stdout}");
}

#[test]
fn profile_json_is_machine_readable() {
    let output = wfms()
        .args([
            "profile",
            "--registry",
            &spec("registry.json"),
            "--workload",
            &spec("workload.json"),
            "--runs",
            "1",
            "--json",
        ])
        .output()
        .expect("run wfms");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let report: serde_json::Value = serde_json::from_str(&stdout).expect("profile JSON");
    assert_eq!(report["runs"].as_u64(), Some(1));
    let stages: Vec<&str> = report["stages"]
        .as_array()
        .unwrap()
        .iter()
        .map(|s| s["name"].as_str().unwrap())
        .collect();
    assert!(stages.contains(&"assess"), "{stages:?}");
    assert!(stages.contains(&"uniformize"), "{stages:?}");
}

/// `wfms profile` reads its report from the trace that `--trace`,
/// `--trace-out` and `--timeline` write, without emptying it: all of
/// them cover the profiled runs, and the report counts the same work
/// with the flags as without them.
#[test]
fn profile_leaves_its_runs_in_the_trace_and_the_timeline() {
    let timeline =
        std::env::temp_dir().join(format!("wfms-profile-timeline-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&timeline);
    let profile = |extra: &[&str]| {
        let output = wfms()
            .args([
                "profile",
                "--registry",
                &spec("registry.json"),
                "--workload",
                &spec("workload.json"),
                "--runs",
                "2",
                "--json",
            ])
            .args(extra)
            .output()
            .expect("run wfms");
        assert!(output.status.success(), "{output:?}");
        let stdout = String::from_utf8(output.stdout).unwrap();
        let report: serde_json::Value = serde_json::from_str(&stdout).expect("profile JSON");
        (report, String::from_utf8(output.stderr).unwrap())
    };
    let counts = |report: &serde_json::Value| {
        let stages: Vec<(String, u64)> = report["stages"]
            .as_array()
            .unwrap()
            .iter()
            .map(|s| {
                (
                    s["name"].as_str().unwrap().to_string(),
                    s["count"].as_u64().unwrap(),
                )
            })
            .collect();
        (stages, report["counters"].clone())
    };
    let (plain, _) = profile(&[]);
    let (traced, stderr) = profile(&["--trace=json", "--timeline", timeline.to_str().unwrap()]);
    let timeline_text = std::fs::read_to_string(&timeline).expect("timeline written");
    let _ = std::fs::remove_file(&timeline);
    let mut plain_counts = counts(&plain);
    let mut traced_counts = counts(&traced);
    plain_counts.0.sort();
    traced_counts.0.sort();
    assert_eq!(plain_counts, traced_counts);

    let trace = wfms_obs::from_json(&stderr).expect("a trace snapshot on stderr");
    for (stage, count) in &traced_counts.0 {
        assert_eq!(trace.span_count(stage) as u64, *count, "{stage}");
    }
    assert_eq!(
        trace.span_count("spec-decode"),
        2,
        "the command's own spans stay"
    );
    assert_eq!(
        trace.spans.len(),
        trace.stages.iter().map(|s| s.count as usize).sum()
    );

    let timeline: serde_json::Value = serde_json::from_str(&timeline_text).expect("valid JSON");
    let bars = timeline["traceEvents"]
        .as_array()
        .unwrap()
        .iter()
        .filter(|e| e["ph"].as_str() == Some("X"))
        .count();
    assert_eq!(bars, trace.spans.len());
    assert!(traced.get("dropped_events").is_none());
}

#[test]
fn unknown_flags_exit_with_usage_error() {
    let output = wfms()
        .args(["assess", "--registry", &spec("registry.json"), "--optimal"])
        .output()
        .expect("run wfms");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("unknown option --optimal"), "{stderr}");
}

#[test]
fn recommend_computes_no_turnaround_percentile() {
    let output = wfms()
        .args([
            "recommend",
            "--registry",
            &spec("registry.json"),
            "--workload",
            &spec("workload.json"),
            "--max-wait",
            "0.05",
            "--min-availability",
            "0.9999",
            "--trace=json",
        ])
        .output()
        .expect("run wfms");
    assert!(output.status.success(), "{output:?}");
    let stderr = String::from_utf8(output.stderr).unwrap();
    let snapshot = wfms_obs::from_json(&stderr).expect("stderr is a trace snapshot");
    assert!(snapshot.span_count("assess") > 0);
    assert_eq!(snapshot.span_count("transient-distribution"), 0);
}

#[test]
fn assess_trace_records_one_spec_decode_span_per_document() {
    let (registry, workload) = (spec("registry.json"), spec("workload.json"));
    let output = wfms()
        .args([
            "assess",
            "--registry",
            &registry,
            "--workload",
            &workload,
            "--config",
            "2,2,3",
            "--max-wait",
            "0.05",
            "--trace=json",
        ])
        .output()
        .expect("run wfms");
    assert!(output.status.success(), "{output:?}");
    let stderr = String::from_utf8(output.stderr).unwrap();
    let snapshot = wfms_obs::from_json(&stderr).expect("stderr is a trace snapshot");
    let decodes: Vec<u64> = snapshot
        .spans
        .iter()
        .filter(|s| s.name == "spec-decode")
        .map(|s| match s.field("bytes") {
            Some(FieldValue::U64(n)) => *n,
            other => panic!("spec-decode without a byte count: {other:?}"),
        })
        .collect();
    assert_eq!(decodes.len(), 2, "one span per spec document");
    let size = |path: &str| std::fs::metadata(path).expect("spec file").len();
    assert_eq!(
        decodes.iter().sum::<u64>(),
        size(&registry) + size(&workload)
    );
}

/// Each chart level is analyzed by one solve, and that solve records
/// the `first-passage` span: no level solves twice.
#[test]
fn analyze_solves_once_per_chart_level() {
    for example in ["ep", "enterprise"] {
        let file = |name: &str| {
            format!(
                "{}/../../examples/specs/{example}/{name}",
                env!("CARGO_MANIFEST_DIR")
            )
        };
        let output = wfms()
            .args([
                "analyze",
                "--registry",
                &file("registry.json"),
                "--workload",
                &file("workload.json"),
                "--trace=json",
            ])
            .output()
            .expect("run wfms");
        assert!(output.status.success(), "{output:?}");
        let stderr = String::from_utf8(output.stderr).unwrap();
        let snapshot = wfms_obs::from_json(&stderr).expect("stderr is a trace snapshot");
        let levels = snapshot.span_count("workflow-analysis");
        assert!(levels > 0, "{example}");
        assert_eq!(snapshot.span_count("first-passage"), levels, "{example}");
    }
}
