//! Integration tests for the explainability surface: `--timeline`,
//! `--journal`, `wfms explain`, the clobber guard on observability
//! outputs, and the `profile --baseline --gate` regression gate —
//! driven through the real binary so each invocation gets its own
//! process-global timeline and journal.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests of this file. The profile gate compares
/// wall-clock stage shares between two `wfms` processes; a sibling test
/// starting or finishing partway through one of them slows the stages
/// that run during that window and not the others, which moves shares
/// as much as a real regression does.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A failed sibling poisons the lock but leaves nothing to repair.
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn spec(scenario: &str, file: &str) -> String {
    format!(
        "{}/../../examples/specs/{scenario}/{file}",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn wfms() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wfms"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("wfms-obs-{}-{name}", std::process::id()))
}

struct Cleanup(Vec<PathBuf>);

impl Drop for Cleanup {
    fn drop(&mut self) {
        for path in &self.0 {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn recommend_enterprise(journal: &Path, extra: &[&str]) -> std::process::Output {
    wfms()
        .args([
            "recommend",
            "--registry",
            &spec("enterprise", "registry.json"),
            "--workload",
            &spec("enterprise", "workload.json"),
            "--max-wait",
            "0.05",
            "--min-availability",
            "0.9999",
            "--journal",
            &journal.display().to_string(),
        ])
        .args(extra)
        .output()
        .expect("run wfms")
}

#[test]
fn explain_replays_an_enterprise_recommendation_byte_stably() {
    let _serial = one_at_a_time();
    let j1 = tmp("explain-1.jsonl");
    let j2 = tmp("explain-2.jsonl");
    let _cleanup = Cleanup(vec![j1.clone(), j2.clone()]);

    for journal in [&j1, &j2] {
        let output = recommend_enterprise(journal, &[]);
        assert!(output.status.success(), "{output:?}");
    }
    // Two identical runs record byte-identical journals.
    let bytes1 = std::fs::read(&j1).expect("journal written");
    let bytes2 = std::fs::read(&j2).expect("journal written");
    assert!(!bytes1.is_empty());
    assert_eq!(bytes1, bytes2, "journal differs across identical runs");

    let explain = |journal: &Path| {
        let output = wfms()
            .args(["explain", "--journal", &journal.display().to_string()])
            .output()
            .expect("run wfms");
        assert!(output.status.success(), "{output:?}");
        String::from_utf8(output.stdout).unwrap()
    };
    // The replay itself is deterministic (the header names the journal
    // path, so compare replays of the same file).
    let text1 = explain(&j1);
    let text2 = explain(&j1);
    assert_eq!(text1, text2, "explain output differs across identical runs");

    // The replay names the winner, its binding goal, and a stable
    // rejection reason for each losing frontier neighbour.
    assert!(text1.contains("search \"greedy\""), "{text1}");
    assert!(text1.contains("winner"), "{text1}");
    assert!(text1.contains("binding goal:"), "{text1}");
    assert!(
        text1.contains("waiting-time") || text1.contains("availability"),
        "{text1}"
    );
    assert!(text1.contains("why each losing candidate lost:"), "{text1}");
    assert!(
        text1.contains("waiting-time-goal-unmet")
            || text1.contains("availability-goal-unmet")
            || text1.contains("goals-unmet")
            || text1.contains("saturated"),
        "no stable rejection reason in:\n{text1}"
    );

    // --json mode is machine-readable and agrees on the winner.
    let output = wfms()
        .args(["explain", "--journal", &j1.display().to_string(), "--json"])
        .output()
        .expect("run wfms");
    assert!(output.status.success(), "{output:?}");
    let report: serde_json::Value =
        serde_json::from_str(&String::from_utf8(output.stdout).unwrap()).expect("explain JSON");
    assert_eq!(report["search"].as_str(), Some("greedy"));
    assert_eq!(report["winner"]["outcome"].as_str(), Some("winner"));
    assert!(report["binding_goal"].as_str().is_some());
}

/// The winner event carries the accepted assessment's record
/// provenance, and `explain` shows it in text and JSON alike: exhaustive
/// search on enterprise reaches `[2, 2, 2, 2, 2]` with all five records
/// replayed.
#[test]
fn explain_shows_the_winning_assessments_cache_provenance() {
    let _serial = one_at_a_time();
    let journal = tmp("explain-optimal.jsonl");
    let _cleanup = Cleanup(vec![journal.clone()]);
    let output = recommend_enterprise(&journal, &["--optimal"]);
    assert!(output.status.success(), "{output:?}");
    let output = wfms()
        .args(["explain", "--journal", &journal.display().to_string()])
        .output()
        .expect("run wfms");
    assert!(output.status.success(), "{output:?}");
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(
        text.contains("winner [2, 2, 2, 2, 2] (10 servers)"),
        "{text}"
    );
    assert!(text.contains("\n  cache: state 5h/0m\n"), "{text}");
    let output = wfms()
        .args([
            "explain",
            "--journal",
            &journal.display().to_string(),
            "--json",
        ])
        .output()
        .expect("run wfms");
    assert!(output.status.success(), "{output:?}");
    let report: serde_json::Value =
        serde_json::from_str(&String::from_utf8(output.stdout).unwrap()).expect("explain JSON");
    assert_eq!(report["winner"]["cache"]["state_hits"].as_u64(), Some(5));
    assert_eq!(report["winner"]["cache"]["state_misses"].as_u64(), Some(0));
}

#[test]
fn timeline_writes_valid_chrome_trace_json() {
    let _serial = one_at_a_time();
    let path = tmp("timeline.json");
    let _cleanup = Cleanup(vec![path.clone()]);
    let output = wfms()
        .args([
            "assess",
            "--registry",
            &spec("ep", "registry.json"),
            "--workload",
            &spec("ep", "workload.json"),
            "--config",
            "2,2,3",
            "--max-wait",
            "0.05",
            "--timeline",
            &path.display().to_string(),
        ])
        .output()
        .expect("run wfms");
    assert!(output.status.success(), "{output:?}");
    let text = std::fs::read_to_string(&path).expect("timeline file written");
    let trace: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    assert_eq!(trace["otherData"]["dropped_spans"].as_str(), Some("0"));
    let events = trace["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());
    let phases: Vec<&str> = events.iter().map(|e| e["ph"].as_str().unwrap()).collect();
    assert!(phases.contains(&"M"), "no thread_name metadata: {phases:?}");
    assert!(phases.contains(&"X"), "{phases:?}");
    for event in events.iter().filter(|e| e["ph"].as_str() == Some("X")) {
        assert!(event["dur"].as_f64().is_some(), "{event:?}");
    }
    let names: Vec<&str> = events.iter().map(|e| e["name"].as_str().unwrap()).collect();
    assert!(names.contains(&"assess"), "{names:?}");
}

#[test]
fn observability_outputs_refuse_to_clobber_without_force() {
    let _serial = one_at_a_time();
    let path = tmp("clobber.jsonl");
    let _cleanup = Cleanup(vec![path.clone()]);
    let args = [
        "availability",
        "--registry",
        &spec("ep", "registry.json"),
        "--config",
        "2,2,2",
        "--journal",
        &path.display().to_string(),
    ];
    let output = wfms().args(args).output().expect("run wfms");
    assert!(output.status.success(), "{output:?}");
    let first = std::fs::read(&path).unwrap();

    // Second run: the file exists, so the command refuses before doing
    // any work and leaves the file untouched.
    let output = wfms().args(args).output().expect("run wfms");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("already exists"), "{stderr}");
    assert!(stderr.contains("--trace-out-force"), "{stderr}");
    assert_eq!(std::fs::read(&path).unwrap(), first, "file was clobbered");

    // --trace-out-force overwrites.
    let output = wfms()
        .args(args)
        .arg("--trace-out-force")
        .output()
        .expect("run wfms");
    assert!(output.status.success(), "{output:?}");
}

#[test]
fn profile_gate_passes_clean_and_fails_under_injected_delay() {
    let _serial = one_at_a_time();
    let baseline = tmp("gate-baseline.json");
    let _cleanup = Cleanup(vec![baseline.clone()]);

    // Record a baseline with the same binary and build profile, so the
    // stage shares are directly comparable.
    let output = wfms()
        .args([
            "profile",
            "--registry",
            &spec("ep", "registry.json"),
            "--workload",
            &spec("ep", "workload.json"),
            "--runs",
            "2",
            "--json",
        ])
        .output()
        .expect("run wfms");
    assert!(output.status.success(), "{output:?}");
    std::fs::write(&baseline, &output.stdout).unwrap();

    // The gate times each stage by its smallest per-run total, which is
    // at most half the two-run sum of a stage that ran in both runs.
    let report: serde_json::Value =
        serde_json::from_str(std::str::from_utf8(&output.stdout).unwrap()).unwrap();
    for stage in report["stages"].as_array().unwrap() {
        let name = stage["name"].as_str().unwrap();
        let run_min = report["run_min_ns"][name].as_u64().unwrap();
        assert!(
            2 * run_min <= stage["total_ns"].as_u64().unwrap(),
            "{name}: {stage:?}"
        );
    }

    let gate_args = [
        "profile",
        "--registry",
        &spec("ep", "registry.json"),
        "--workload",
        &spec("ep", "workload.json"),
        "--runs",
        "2",
        "--baseline",
        &baseline.display().to_string(),
        "--gate",
        "25",
    ];

    // Clean run: every stage stays within the gate.
    let output = wfms().args(gate_args).output().expect("run wfms");
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("0 regressed"), "{stdout}");
    assert!(!stdout.contains("REGRESSED"), "{stdout}");

    // A 25ms failpoint delay on every steady-state availability solve
    // inflates that stage's share past any 25% gate.
    let output = wfms()
        .args(gate_args)
        .env("WFMS_FAULTS", "avail.steady-state=delay:25ms@1.0")
        .output()
        .expect("run wfms");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    assert!(stdout.contains("avail-steady-state"), "{stdout}");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("regressed past the gate"), "{stderr}");
}

#[test]
fn explain_without_winner_or_journal_reports_cleanly() {
    let _serial = one_at_a_time();
    let missing = tmp("missing.jsonl");
    let output = wfms()
        .args(["explain", "--journal", &missing.display().to_string()])
        .output()
        .expect("run wfms");
    assert_eq!(output.status.code(), Some(1), "{output:?}");

    let output = wfms().args(["explain"]).output().expect("run wfms");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("journal"), "{stderr}");
}
