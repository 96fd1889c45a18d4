//! Spec documents with one fault each, decoded by `wfms assess` and by
//! the daemon's `assess` method: every message must be the one recorded
//! here, byte for byte. The messages were recorded from the decoder that
//! parsed each document to a `Value` first and then walked it, so this
//! pins that the one-pass text reader reports every single fault as
//! that decoder did: the same message, line and column, and a syntax
//! error reported before any data error.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

/// A three-type registry in the shape of `examples/specs/ep`.
const REGISTRY: &str = r#"{"types":[{"name":"orb","kind":"Communication","failure_rate":0.0001,"repair_rate":0.1,"service_time_mean":0.002,"service_time_second_moment":0.000008},{"name":"engine","kind":"WorkflowEngine","failure_rate":0.0001,"repair_rate":0.1,"service_time_mean":0.002,"service_time_second_moment":0.000008},{"name":"apps","kind":"ApplicationServer","failure_rate":0.0007,"repair_rate":0.1,"service_time_mean":0.002,"service_time_second_moment":0.000008}]}"#;

/// A one-activity workflow that assesses cleanly on [`REGISTRY`].
const WORKLOAD: &str = r#"{"workflows":[{"arrival_rate":1.0,"spec":{"name":"W","chart":{"name":"W","states":[{"name":"I","kind":"Initial"},{"name":"A_S","kind":{"Activity":{"activity":"A"}}},{"name":"F","kind":"Final"}],"transitions":[{"from":0,"to":1,"probability":1.0,"rule":{"event":null,"condition":null,"actions":[{"StartActivity":"A"}]}},{"from":1,"to":2,"probability":1.0,"rule":{"event":"A_DONE","condition":{"And":[{"Const":true},{"Not":{"Var":"ok"}}]},"actions":[]}}]},"activities":{"A":{"name":"A","kind":"Automated","mean_duration":1.0,"duration_scv":1.0,"load":[1.0,1.0,1.0]}}}}]}"#;

/// One faulty workload document. A truncated one also ends the
/// daemon's request line, as a client cut off mid-send would.
struct Case {
    name: &'static str,
    doc: String,
    truncated: bool,
}

fn replaced(name: &'static str, from: &str, to: &str) -> Case {
    assert!(
        WORKLOAD.contains(from),
        "{name}: `{from}` is in the workload"
    );
    Case {
        name,
        doc: WORKLOAD.replacen(from, to, 1),
        truncated: false,
    }
}

fn cut_after(name: &'static str, prefix: &str) -> Case {
    let end = WORKLOAD.find(prefix).expect("prefix is in the workload") + prefix.len();
    Case {
        name,
        doc: WORKLOAD[..end].to_string(),
        truncated: true,
    }
}

fn corpus() -> Vec<Case> {
    let deep = format!(
        "\"condition\":{}{{\"Const\":true}}{}",
        "{\"Not\":".repeat(130),
        "}".repeat(130)
    );
    vec![
        cut_after("truncated-in-key", r#"{"workflows":[{"arri"#),
        cut_after("truncated-in-number", r#""probability":1."#),
        cut_after("truncated-after-comma", r#""load":[1.0,"#),
        cut_after("truncated-after-colon", r#""activities":"#),
        replaced("bad-escape", r#""name":"A_S""#, r#""name":"A\qS""#),
        replaced("missing-field", r#""duration_scv":1.0,"#, ""),
        replaced(
            "wrong-type",
            r#""probability":1.0"#,
            r#""probability":"1.0""#,
        ),
        replaced("unknown-variant", r#""Automated""#, r#""Automatic""#),
        replaced(
            "two-key-enum",
            r#"{"Activity":{"activity":"A"}}"#,
            r#"{"Activity":{"activity":"A"},"Final":null}"#,
        ),
        replaced(
            "wrong-tuple-length",
            r#"{"And":[{"Const":true},{"Not":{"Var":"ok"}}]}"#,
            r#"{"And":[{"Const":true}]}"#,
        ),
        replaced("nesting-past-128", r#""condition":null"#, &deep),
    ]
}

/// `(case, wfms assess stderr with the workload path as {path}, the
/// daemon's response line)`.
const EXPECTED: &[(&str, &str, &str)] = &[
    ("truncated-in-key", "wfms: {path}: invalid JSON: unterminated string at line 1 column 21\n", "{\"v\":1,\"id\":null,\"ok\":false,\"result\":null,\"error\":{\"kind\":\"bad-request\",\"message\":\"malformed request line: unterminated string at line 1 column 549\"}}"),
    ("truncated-in-number", "wfms: {path}: invalid JSON: expected `,` or `}` at line 1 column 243\n", "{\"v\":1,\"id\":null,\"ok\":false,\"result\":null,\"error\":{\"kind\":\"bad-request\",\"message\":\"malformed request line: expected `,` or `}` at line 1 column 774\"}}"),
    ("truncated-after-comma", "wfms: {path}: invalid JSON: unexpected end of input at line 1 column 554\n", "{\"v\":1,\"id\":null,\"ok\":false,\"result\":null,\"error\":{\"kind\":\"bad-request\",\"message\":\"malformed request line: unexpected end of input at line 1 column 1087\"}}"),
    ("truncated-after-colon", "wfms: {path}: invalid JSON: unexpected end of input at line 1 column 467\n", "{\"v\":1,\"id\":null,\"ok\":false,\"result\":null,\"error\":{\"kind\":\"bad-request\",\"message\":\"malformed request line: unexpected end of input at line 1 column 1000\"}}"),
    ("bad-escape", "wfms: {path}: invalid JSON: invalid escape sequence at line 1 column 125\n", "{\"v\":1,\"id\":null,\"ok\":false,\"result\":null,\"error\":{\"kind\":\"bad-request\",\"message\":\"malformed request line: invalid escape sequence at line 1 column 647\"}}"),
    ("missing-field", "wfms: {path}: invalid JSON: missing field `duration_scv` (at WorkloadFile.workflows -> Vec.0 -> WorkloadEntry.spec -> WorkflowSpec.activities -> map.A -> ActivitySpec)\n", "{\"v\":1,\"id\":\"missing-field\",\"ok\":false,\"result\":null,\"error\":{\"kind\":\"invalid-params\",\"message\":\"workload: missing field `duration_scv` (at WorkloadFile.workflows -> Vec.0 -> WorkloadEntry.spec -> WorkflowSpec.activities -> map.A -> ActivitySpec)\"}}"),
    ("wrong-type", "wfms: {path}: invalid JSON: expected number, found string (at WorkloadFile.workflows -> Vec.0 -> WorkloadEntry.spec -> WorkflowSpec.chart -> StateChart.transitions -> Vec.0 -> Transition.probability -> f64)\n", "{\"v\":1,\"id\":\"wrong-type\",\"ok\":false,\"result\":null,\"error\":{\"kind\":\"invalid-params\",\"message\":\"workload: expected number, found string (at WorkloadFile.workflows -> Vec.0 -> WorkloadEntry.spec -> WorkflowSpec.chart -> StateChart.transitions -> Vec.0 -> Transition.probability -> f64)\"}}"),
    ("unknown-variant", "wfms: {path}: invalid JSON: unknown variant `Automatic` (at WorkloadFile.workflows -> Vec.0 -> WorkloadEntry.spec -> WorkflowSpec.activities -> map.A -> ActivitySpec.kind -> ActivityKind)\n", "{\"v\":1,\"id\":\"unknown-variant\",\"ok\":false,\"result\":null,\"error\":{\"kind\":\"invalid-params\",\"message\":\"workload: unknown variant `Automatic` (at WorkloadFile.workflows -> Vec.0 -> WorkloadEntry.spec -> WorkflowSpec.activities -> map.A -> ActivitySpec.kind -> ActivityKind)\"}}"),
    ("two-key-enum", "wfms: {path}: invalid JSON: expected single-key enum object, found 2 keys (at WorkloadFile.workflows -> Vec.0 -> WorkloadEntry.spec -> WorkflowSpec.chart -> StateChart.states -> Vec.1 -> ChartState.kind -> StateKind)\n", "{\"v\":1,\"id\":\"two-key-enum\",\"ok\":false,\"result\":null,\"error\":{\"kind\":\"invalid-params\",\"message\":\"workload: expected single-key enum object, found 2 keys (at WorkloadFile.workflows -> Vec.0 -> WorkloadEntry.spec -> WorkflowSpec.chart -> StateChart.states -> Vec.1 -> ChartState.kind -> StateKind)\"}}"),
    ("wrong-tuple-length", "wfms: {path}: invalid JSON: expected array of 2 elements, found 1 (at WorkloadFile.workflows -> Vec.0 -> WorkloadEntry.spec -> WorkflowSpec.chart -> StateChart.transitions -> Vec.1 -> Transition.rule -> EcaRule.condition -> CondExpr::And)\n", "{\"v\":1,\"id\":\"wrong-tuple-length\",\"ok\":false,\"result\":null,\"error\":{\"kind\":\"invalid-params\",\"message\":\"workload: expected array of 2 elements, found 1 (at WorkloadFile.workflows -> Vec.0 -> WorkloadEntry.spec -> WorkflowSpec.chart -> StateChart.transitions -> Vec.1 -> Transition.rule -> EcaRule.condition -> CondExpr::And)\"}}"),
    ("nesting-past-128", "wfms: {path}: invalid JSON: recursion limit exceeded at line 1 column 1125\n", "{\"v\":1,\"id\":null,\"ok\":false,\"result\":null,\"error\":{\"kind\":\"bad-request\",\"message\":\"malformed request line: recursion limit exceeded at line 1 column 1639\"}}"),
];

fn assess_stderr(dir: &std::path::Path, case: &Case) -> String {
    let registry = dir.join("registry.json");
    let workload = dir.join(format!("{}.json", case.name));
    std::fs::write(&registry, REGISTRY).expect("write registry");
    std::fs::write(&workload, &case.doc).expect("write workload");
    let out = Command::new(env!("CARGO_BIN_EXE_wfms"))
        .arg("assess")
        .arg("--registry")
        .arg(&registry)
        .arg("--workload")
        .arg(&workload)
        .args(["--config", "2,2,2", "--max-wait", "0.05"])
        .output()
        .expect("run wfms assess");
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}: wfms assess exits 1",
        case.name
    );
    String::from_utf8(out.stderr)
        .expect("utf-8 stderr")
        .replace(&workload.display().to_string(), "{path}")
}

/// A `wfms serve` child on an OS-chosen port, killed on drop.
struct Daemon {
    child: Child,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Daemon {
    fn spawn() -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_wfms"))
            .args(["serve", "--listen", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn wfms serve");
        let mut ready = String::new();
        BufReader::new(child.stdout.take().expect("stdout piped"))
            .read_line(&mut ready)
            .expect("read ready line");
        let addr = ready
            .trim_start_matches("wfms serve: listening on ")
            .split_whitespace()
            .next()
            .expect("ready line carries the address")
            .to_string();
        Daemon { child, addr }
    }
}

fn request_line(case: &Case) -> String {
    let head = format!(
        r#"{{"v":1,"id":"{}","method":"assess","params":{{"registry":{REGISTRY},"workload":{}"#,
        case.name, case.doc
    );
    if case.truncated {
        head
    } else {
        format!(r#"{head},"config":[2,2,2],"max_wait":0.05}}}}"#)
    }
}

#[test]
fn single_fault_documents_keep_their_messages() {
    let dir = std::env::temp_dir().join(format!("wfms-decode-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let daemon = Daemon::spawn();
    let stream = TcpStream::connect(&daemon.addr).expect("connect to daemon");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut actual = Vec::new();
    for case in corpus() {
        let stderr = assess_stderr(&dir, &case);
        writer
            .write_all(format!("{}\n", request_line(&case)).as_bytes())
            .expect("send request");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        actual.push((case.name, stderr, response.trim_end().to_string()));
    }
    // Every fault left the connection usable.
    writer
        .write_all(b"{\"v\":1,\"id\":\"after\",\"method\":\"health\",\"params\":null}\n")
        .expect("send health");
    let mut health = String::new();
    reader.read_line(&mut health).expect("read health");
    assert!(health.contains(r#""ok":true"#), "{health}");
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    assert_eq!(actual.len(), EXPECTED.len());
    for ((name, stderr, response), (want_name, want_stderr, want_response)) in
        actual.iter().zip(EXPECTED)
    {
        assert_eq!(name, want_name);
        assert_eq!(stderr, want_stderr, "{name}: wfms assess");
        assert_eq!(response, want_response, "{name}: daemon");
    }
}
