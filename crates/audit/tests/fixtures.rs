//! Seeded-violation fixtures: each test materialises a minimal fake
//! workspace in a temp directory, plants exactly one invariant
//! violation, and asserts the auditor reports the expected `A` code —
//! nothing more, nothing less. Doc-side checks are skipped for absent
//! files, so each fixture only carries the files its invariant needs.

use std::path::PathBuf;

use wfms_diag::Diagnostics;

struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("wfms-audit-fixture-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create fixture root");
        Fixture { root }
    }

    /// Writes `content` at `rel` under the fixture root.
    fn file(&self, rel: &str, content: &str) -> &Self {
        let path = self.root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parented path")).expect("create dirs");
        std::fs::write(path, content).expect("write fixture file");
        self
    }

    fn audit(&self) -> Diagnostics {
        wfms_audit::run_audit(&self.root).expect("fixture readable")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Sorted distinct codes of a report.
fn codes(report: &Diagnostics) -> Vec<String> {
    report.distinct_codes()
}

/// A minimal obs crate doc whose only stable-name table lists exactly
/// the given names (pipe-table rows inside the crate docs).
fn obs_doc(names: &[&str]) -> String {
    let mut doc = String::from("//! | span | emitted by |\n//! |---|---|\n");
    for name in names {
        doc.push_str(&format!("//! | `{name}` | `wfms-x` |\n"));
    }
    doc.push_str("\npub fn noop() {}\n");
    doc
}

#[test]
fn undocumented_span_fires_a001() {
    let fx = Fixture::new("a001");
    fx.file("crates/obs/src/lib.rs", &obs_doc(&["documented-span"]))
        .file(
            "crates/perf/src/lib.rs",
            "pub fn f() {\n    let _s = wfms_obs::span!(\"mystery-span\");\n}\n",
        );
    let report = fx.audit();
    assert!(
        report
            .with_code("A001")
            .any(|d| d.message.contains("mystery-span")),
        "expected A001 for the undocumented span, got: {}",
        report.summary()
    );
}

#[test]
fn stale_documented_span_fires_a002() {
    let fx = Fixture::new("a002");
    fx.file("crates/obs/src/lib.rs", &obs_doc(&["ghost-span"]));
    let report = fx.audit();
    assert_eq!(codes(&report), ["A002"], "report: {}", report.summary());
    assert!(report
        .with_code("A002")
        .any(|d| d.message.contains("ghost-span")));
}

#[test]
fn required_gate_naming_nothing_fires_a003() {
    let fx = Fixture::new("a003");
    fx.file(
        "crates/cli/src/commands.rs",
        "pub const REQUIRED_STAGES: &[&str] = &[\"no-such-stage\"];\n",
    );
    let report = fx.audit();
    assert_eq!(codes(&report), ["A003"], "report: {}", report.summary());
    assert!(report
        .with_code("A003")
        .any(|d| d.message.contains("no-such-stage")));
}

#[test]
fn failpoint_site_drift_fires_a004_in_both_directions() {
    let fx = Fixture::new("a004");
    fx.file(
        "crates/markov/src/solver.rs",
        "pub fn f() {\n    wfms_fault::point!(\"linalg.rogue-site\");\n}\n",
    )
    .file(
        "DESIGN.md",
        "# Design\n\n| site | stage |\n|---|---|\n| `linalg.orphan-site` | solve |\n",
    );
    let report = fx.audit();
    assert_eq!(codes(&report), ["A004"], "report: {}", report.summary());
    // Planted-but-undocumented and documented-but-unplanted both drift.
    assert!(report
        .with_code("A004")
        .any(|d| d.message.contains("linalg.rogue-site")));
    assert!(report
        .with_code("A004")
        .any(|d| d.message.contains("linalg.orphan-site")));
}

#[test]
fn unregistered_diag_code_fires_a005() {
    let fx = Fixture::new("a005");
    fx.file(
        "crates/diag/src/codes.rs",
        "/// Orphan.\npub const W_ORPHAN: &str = \"W099\";\n",
    );
    let report = fx.audit();
    assert_eq!(codes(&report), ["A005"], "report: {}", report.summary());
    assert!(report.with_code("A005").any(|d| d.message.contains("W099")));
}

#[test]
fn hash_map_in_solver_crate_fires_a006() {
    let fx = Fixture::new("a006");
    fx.file(
        "crates/markov/src/lib.rs",
        "use std::collections::HashMap;\n\npub fn f() -> HashMap<u32, f64> {\n    HashMap::new()\n}\n",
    );
    let report = fx.audit();
    assert_eq!(codes(&report), ["A006"], "report: {}", report.summary());
}

#[test]
fn unwrap_in_hot_path_fires_a008() {
    let fx = Fixture::new("a008");
    // `.unwrap_or_default()` must NOT fire — only the bare `.unwrap()`.
    fx.file(
        "crates/perf/src/lib.rs",
        "pub fn f(v: Option<f64>) -> f64 {\n    v.unwrap() + v.unwrap_or_default()\n}\n",
    );
    let report = fx.audit();
    assert_eq!(codes(&report), ["A008"], "report: {}", report.summary());
    assert_eq!(
        report.len(),
        1,
        "unwrap_or_default must not fire: {}",
        report.summary()
    );
}

#[test]
fn panic_in_hot_path_fires_a009() {
    let fx = Fixture::new("a009");
    fx.file(
        "crates/queueing/src/lib.rs",
        "pub fn f(x: f64) -> f64 {\n    if x < 0.0 {\n        panic!(\"negative load\");\n    }\n    x\n}\n",
    );
    let report = fx.audit();
    assert_eq!(codes(&report), ["A009"], "report: {}", report.summary());
}

#[test]
fn direct_index_in_cli_fires_a010_warning() {
    let fx = Fixture::new("a010");
    fx.file(
        "crates/cli/src/commands.rs",
        "pub fn f(v: &[f64], i: usize) -> f64 {\n    v[i]\n}\n",
    );
    let report = fx.audit();
    assert_eq!(codes(&report), ["A010"], "report: {}", report.summary());
    assert_eq!(report.error_count(), 0, "A010 is a warning, not an error");
    assert_eq!(report.warning_count(), 1);
}

#[test]
fn malformed_pragma_fires_a012() {
    let fx = Fixture::new("a012");
    fx.file(
        "crates/perf/src/lib.rs",
        "// audit:allow(A008)\npub fn f() {}\n",
    );
    let report = fx.audit();
    assert_eq!(codes(&report), ["A012"], "report: {}", report.summary());
}

#[test]
fn unknown_code_in_pragma_fires_a012() {
    let fx = Fixture::new("a012b");
    fx.file(
        "crates/perf/src/lib.rs",
        "// audit:allow(A999, reason = \"no such code\")\npub fn f() {}\n",
    );
    let report = fx.audit();
    assert_eq!(codes(&report), ["A012"], "report: {}", report.summary());
    assert!(report.with_code("A012").any(|d| d.message.contains("A999")));
}

#[test]
fn unused_pragma_fires_a013_warning() {
    let fx = Fixture::new("a013");
    fx.file(
        "crates/perf/src/lib.rs",
        "// audit:allow(A008, reason = \"nothing here needs it\")\npub fn f() -> f64 {\n    1.0\n}\n",
    );
    let report = fx.audit();
    assert_eq!(codes(&report), ["A013"], "report: {}", report.summary());
    assert_eq!(report.error_count(), 0, "A013 is a warning, not an error");
}

#[test]
fn justified_pragma_suppresses_and_counts_as_used() {
    let fx = Fixture::new("allow");
    fx.file(
        "crates/perf/src/lib.rs",
        "pub fn f(v: Option<f64>) -> f64 {\n    // audit:allow(A008, reason = \"fixture invariant: the caller always passes Some\")\n    v.unwrap()\n}\n",
    );
    let report = fx.audit();
    assert!(
        report.is_empty(),
        "a justified allow must suppress the finding without tripping A013: {}",
        report.summary()
    );
}

#[test]
fn file_scope_pragma_covers_the_whole_file() {
    let fx = Fixture::new("allow-file");
    fx.file(
        "crates/perf/src/lib.rs",
        concat!(
            "// audit:allow-file(A008, reason = \"fixture: every expect in this file is proven\")\n",
            "pub fn f(v: Option<f64>) -> f64 {\n    v.unwrap()\n}\n",
            "pub fn g(v: Option<f64>) -> f64 {\n    v.unwrap()\n}\n",
        ),
    );
    let report = fx.audit();
    assert!(report.is_empty(), "report: {}", report.summary());
}

#[test]
fn test_code_is_exempt_from_panic_safety() {
    let fx = Fixture::new("test-exempt");
    fx.file(
        "crates/perf/src/lib.rs",
        concat!(
            "pub fn f() -> f64 {\n    1.0\n}\n\n",
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n",
            "        assert_eq!(Some(1.0).unwrap(), 1.0);\n    }\n}\n",
        ),
    );
    let report = fx.audit();
    assert!(report.is_empty(), "report: {}", report.summary());
}

#[test]
fn clean_fixture_workspace_is_clean() {
    let fx = Fixture::new("clean");
    fx.file("crates/obs/src/lib.rs", &obs_doc(&["well-known-span"]))
        .file(
            "crates/perf/src/lib.rs",
            "pub fn f() {\n    let _s = wfms_obs::span!(\"well-known-span\");\n}\n",
        );
    let report = fx.audit();
    assert!(report.is_empty(), "report: {}", report.summary());
}

/// A minimal DESIGN.md whose decision-vocabulary table lists exactly
/// the given names.
fn decision_doc(names: &[&str]) -> String {
    let mut doc = String::from("### The decision vocabulary\n\n| name | role |\n|---|---|\n");
    for name in names {
        doc.push_str(&format!("| `{name}` | fixture |\n"));
    }
    doc
}

/// A journal module declaring exactly the given vocabulary values.
fn journal_src(values: &[&str]) -> String {
    let mut src = String::new();
    for (idx, value) in values.iter().enumerate() {
        src.push_str(&format!(
            "pub const OUTCOME_FIXTURE{idx}: &str = \"{value}\";\n"
        ));
    }
    src
}

#[test]
fn undocumented_decision_vocab_fires_a014() {
    let fx = Fixture::new("a014-code");
    fx.file(
        "crates/config/src/journal.rs",
        &journal_src(&["documented-outcome", "mystery-outcome"]),
    )
    .file("DESIGN.md", &decision_doc(&["documented-outcome"]));
    let report = fx.audit();
    assert!(
        report
            .with_code("A014")
            .any(|d| d.message.contains("mystery-outcome")),
        "expected A014 for the undocumented vocabulary name, got: {}",
        report.summary()
    );
    assert_eq!(codes(&report), vec!["A014"]);
}

#[test]
fn stale_documented_decision_vocab_fires_a014() {
    let fx = Fixture::new("a014-doc");
    fx.file(
        "crates/config/src/journal.rs",
        &journal_src(&["documented-outcome"]),
    )
    .file(
        "DESIGN.md",
        &decision_doc(&["documented-outcome", "ghost-outcome"]),
    );
    let report = fx.audit();
    assert!(
        report
            .with_code("A014")
            .any(|d| d.message.contains("ghost-outcome")),
        "expected A014 for the stale documented name, got: {}",
        report.summary()
    );
    assert_eq!(codes(&report), vec!["A014"]);
}

#[test]
fn matching_decision_vocab_is_clean() {
    let fx = Fixture::new("a014-clean");
    fx.file(
        "crates/config/src/journal.rs",
        &journal_src(&["accept-fixture"]),
    )
    .file("DESIGN.md", &decision_doc(&["accept-fixture"]));
    let report = fx.audit();
    assert!(report.is_empty(), "report: {}", report.summary());
}

/// A minimal DESIGN.md whose serving-protocol method table lists
/// exactly the given method names.
fn serving_doc(names: &[&str]) -> String {
    let mut doc = String::from("### The serving protocol\n\n| method | role |\n|---|---|\n");
    for name in names {
        doc.push_str(&format!("| `{name}` | fixture |\n"));
    }
    doc
}

/// A proto module declaring exactly the given wire method names.
fn proto_src(values: &[&str]) -> String {
    let mut src = String::new();
    for (idx, value) in values.iter().enumerate() {
        src.push_str(&format!(
            "pub const METHOD_FIXTURE{idx}: &str = \"{value}\";\n"
        ));
    }
    src
}

#[test]
fn undocumented_wire_method_fires_a015() {
    let fx = Fixture::new("a015-code");
    fx.file(
        "crates/proto/src/lib.rs",
        &proto_src(&["documented-method", "mystery-method"]),
    )
    .file("DESIGN.md", &serving_doc(&["documented-method"]));
    let report = fx.audit();
    assert!(
        report
            .with_code("A015")
            .any(|d| d.message.contains("mystery-method")),
        "expected A015 for the undocumented wire method, got: {}",
        report.summary()
    );
    assert_eq!(codes(&report), vec!["A015"]);
}

#[test]
fn stale_documented_wire_method_fires_a015() {
    let fx = Fixture::new("a015-doc");
    fx.file(
        "crates/proto/src/lib.rs",
        &proto_src(&["documented-method"]),
    )
    .file(
        "DESIGN.md",
        &serving_doc(&["documented-method", "ghost-method"]),
    );
    let report = fx.audit();
    assert!(
        report
            .with_code("A015")
            .any(|d| d.message.contains("ghost-method")),
        "expected A015 for the stale documented method, got: {}",
        report.summary()
    );
    assert_eq!(codes(&report), vec!["A015"]);
}

#[test]
fn matching_wire_methods_are_clean() {
    let fx = Fixture::new("a015-clean");
    fx.file("crates/proto/src/lib.rs", &proto_src(&["fixture-method"]))
        .file("DESIGN.md", &serving_doc(&["fixture-method"]));
    let report = fx.audit();
    assert!(report.is_empty(), "report: {}", report.summary());
}

/// A minimal DESIGN.md whose error-vocabulary table lists exactly the
/// given error kinds.
fn error_doc(names: &[&str]) -> String {
    let mut doc = String::from("### Error vocabulary\n\n| kind | meaning |\n|---|---|\n");
    for name in names {
        doc.push_str(&format!("| `{name}` | fixture |\n"));
    }
    doc
}

/// A proto module declaring exactly the given wire error kinds.
fn proto_err_src(values: &[&str]) -> String {
    let mut src = String::new();
    for (idx, value) in values.iter().enumerate() {
        src.push_str(&format!(
            "pub const ERR_FIXTURE{idx}: &str = \"{value}\";\n"
        ));
    }
    src
}

#[test]
fn undocumented_wire_error_fires_a016() {
    let fx = Fixture::new("a016-code");
    fx.file(
        "crates/proto/src/lib.rs",
        &proto_err_src(&["documented-error", "mystery-error"]),
    )
    .file("DESIGN.md", &error_doc(&["documented-error"]));
    let report = fx.audit();
    assert!(
        report
            .with_code("A016")
            .any(|d| d.message.contains("mystery-error")),
        "expected A016 for the undocumented wire error kind, got: {}",
        report.summary()
    );
    assert_eq!(codes(&report), vec!["A016"]);
}

#[test]
fn stale_documented_wire_error_fires_a016() {
    let fx = Fixture::new("a016-doc");
    fx.file(
        "crates/proto/src/lib.rs",
        &proto_err_src(&["documented-error"]),
    )
    .file(
        "DESIGN.md",
        &error_doc(&["documented-error", "ghost-error"]),
    );
    let report = fx.audit();
    assert!(
        report
            .with_code("A016")
            .any(|d| d.message.contains("ghost-error")),
        "expected A016 for the stale documented error kind, got: {}",
        report.summary()
    );
    assert_eq!(codes(&report), vec!["A016"]);
}

#[test]
fn matching_wire_errors_are_clean() {
    let fx = Fixture::new("a016-clean");
    fx.file(
        "crates/proto/src/lib.rs",
        &proto_err_src(&["fixture-error"]),
    )
    .file("DESIGN.md", &error_doc(&["fixture-error"]));
    let report = fx.audit();
    assert!(report.is_empty(), "report: {}", report.summary());
}

/// A minimal DESIGN.md whose implementation-audit code table lists
/// exactly the given codes.
fn audit_doc(names: &[&str]) -> String {
    let mut doc =
        String::from("## 11. The implementation audit\n\n| code | severity |\n|---|---|\n");
    for name in names {
        doc.push_str(&format!("| `{name}` | error |\n"));
    }
    doc
}

/// An audit `codes.rs` declaring exactly the given codes.
fn audit_codes_src(values: &[&str]) -> String {
    let mut src = String::new();
    for (idx, value) in values.iter().enumerate() {
        src.push_str(&format!("pub const A_FIXTURE{idx}: &str = \"{value}\";\n"));
    }
    src
}

#[test]
fn undocumented_audit_code_fires_a017() {
    let fx = Fixture::new("a017-code");
    fx.file(
        "crates/audit/src/codes.rs",
        &audit_codes_src(&["A001", "A098"]),
    )
    .file("DESIGN.md", &audit_doc(&["A001"]));
    let report = fx.audit();
    assert!(
        report.with_code("A017").any(|d| d.message.contains("A098")),
        "expected A017 for the undocumented audit code, got: {}",
        report.summary()
    );
    assert_eq!(codes(&report), vec!["A017"]);
}

#[test]
fn stale_documented_audit_code_fires_a017() {
    let fx = Fixture::new("a017-doc");
    fx.file("crates/audit/src/codes.rs", &audit_codes_src(&["A001"]))
        .file("DESIGN.md", &audit_doc(&["A001", "A099"]));
    let report = fx.audit();
    assert!(
        report.with_code("A017").any(|d| d.message.contains("A099")),
        "expected A017 for the stale documented audit code, got: {}",
        report.summary()
    );
    assert_eq!(codes(&report), vec!["A017"]);
}
