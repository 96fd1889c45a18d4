//! Daemon lifecycle tests against the spawned binary: ready line,
//! duplicate-bind refusal, graceful shutdown, byte-identical concurrent
//! answers, bounded-queue load shedding, the tenant's once-computed
//! turnarounds, and flat observability replies.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use serde_json::Value;
use wfms_proto::{
    MetricsResult, ProfileSnapshotResult, Request, Response, ERR_OVERLOADED, METHOD_ASSESS,
    METHOD_METRICS, METHOD_PROFILE_SNAPSHOT, METHOD_RECOMMEND, METHOD_SHUTDOWN, PROTOCOL_VERSION,
};

fn spec(scenario: &str, file: &str) -> Value {
    let path = format!(
        "{}/../../examples/specs/{scenario}/{file}",
        env!("CARGO_MANIFEST_DIR")
    );
    let raw = std::fs::read_to_string(&path).expect("read spec fixture");
    serde_json::from_str(&raw).expect("spec fixture parses")
}

/// A running daemon plus the pipe its ready line arrived on. Kills the
/// child on drop so a failing assertion never leaks a listener.
struct Daemon {
    child: Child,
    stdout: BufReader<std::process::ChildStdout>,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Daemon {
    /// Spawns `wfms serve` on an OS-chosen port and waits for the ready
    /// line, which reports the actual address.
    fn spawn(extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_wfms"))
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn wfms serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut ready = String::new();
        stdout.read_line(&mut ready).expect("read ready line");
        assert!(
            ready.starts_with("wfms serve: listening on "),
            "unexpected ready line: {ready:?}"
        );
        let addr = ready
            .trim_start_matches("wfms serve: listening on ")
            .split_whitespace()
            .next()
            .expect("ready line carries the address")
            .to_string();
        Daemon {
            child,
            stdout,
            addr,
        }
    }

    fn connect(&self) -> TcpStream {
        TcpStream::connect(&self.addr).expect("connect to daemon")
    }

    /// Sends one request line on a fresh connection and returns the
    /// response line.
    fn roundtrip(&self, request: &Request) -> Response {
        let mut stream = self.connect();
        let line = serde_json::to_string(request).expect("serialize request");
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send request");
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        serde_json::from_str(&response).expect("response parses")
    }

    /// Opens one connection for many request lines.
    fn session(&self) -> Session {
        let stream = self.connect();
        Session {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    /// Requests a graceful shutdown and asserts the clean exit
    /// contract: ack, exit status 0, stop line on stdout.
    fn shutdown(mut self) {
        let ack = self.roundtrip(&Request::new(METHOD_SHUTDOWN, Value::Null));
        assert!(ack.ok, "shutdown is acknowledged: {:?}", ack.error);
        let status = self.child.wait().expect("wait for daemon");
        assert!(status.success(), "graceful shutdown exits 0: {status:?}");
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).expect("drain stdout");
        assert!(
            rest.contains("wfms serve: stopped"),
            "stop line on stdout: {rest:?}"
        );
    }
}

/// One connection to the daemon, one request line at a time.
struct Session {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Session {
    /// Sends `request` and returns the raw response line.
    fn call(&mut self, request: &Request) -> String {
        let line = serde_json::to_string(request).expect("serialize request");
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send request");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read response");
        let parsed: Response = serde_json::from_str(&response).expect("response parses");
        assert!(parsed.ok, "{} failed: {:?}", request.method, parsed.error);
        response
    }

    /// The `profile-snapshot` count of closed spans of `stage`.
    fn stage_count(&mut self, stage: &str) -> u64 {
        let line = self.call(&Request::new(METHOD_PROFILE_SNAPSHOT, Value::Null));
        let response: Response = serde_json::from_str(&line).expect("response parses");
        let result: ProfileSnapshotResult =
            serde_json::from_value(response.result.expect("result populated"))
                .expect("typed result");
        let stages: Vec<wfms_obs::StageSummary> =
            serde_json::from_value(result.stages).expect("stage totals");
        stages
            .iter()
            .find(|s| s.name == stage)
            .map_or(0, |s| s.count)
    }
}

fn assess_request(tenant: &str) -> Request {
    let mut params = serde_json::Map::new();
    params.insert("registry".to_string(), spec("ep", "registry.json"));
    params.insert("workload".to_string(), spec("ep", "workload.json"));
    params.insert(
        "config".to_string(),
        serde_json::to_value(vec![2u64, 2, 2]).expect("encode"),
    );
    params.insert(
        "max_wait".to_string(),
        serde_json::to_value(0.05).expect("encode"),
    );
    params.insert(
        "min_availability".to_string(),
        serde_json::to_value(0.9999).expect("encode"),
    );
    Request {
        v: PROTOCOL_VERSION,
        id: Some("a-1".to_string()),
        tenant: Some(tenant.to_string()),
        method: METHOD_ASSESS.to_string(),
        params: Value::Object(params),
    }
}

#[test]
fn lifecycle_ready_warm_assess_metrics_shutdown() {
    let daemon = Daemon::spawn(&[]);

    // Two identical requests on one tenant: byte-identical response
    // lines, and the second is a warm-engine replay.
    let request = assess_request("acme");
    let cold = daemon.roundtrip(&request);
    assert!(cold.ok, "cold assess succeeds: {:?}", cold.error);
    let warm = daemon.roundtrip(&request);
    let cold_line = serde_json::to_string(&cold).expect("serialize");
    let warm_line = serde_json::to_string(&warm).expect("serialize");
    assert_eq!(cold_line, warm_line, "warm answer is byte-identical");

    let metrics = daemon.roundtrip(&Request::new(METHOD_METRICS, Value::Null));
    assert!(metrics.ok, "metrics succeeds: {:?}", metrics.error);
    let metrics: MetricsResult =
        serde_json::from_value(metrics.result.expect("result populated")).expect("typed result");
    assert_eq!(metrics.tenants.len(), 1);
    assert_eq!(metrics.tenants[0].tenant, "acme");
    assert!(
        metrics.tenants[0].cache_hits > 0,
        "warm replay shows up in the tenant gauges"
    );
    assert_eq!(metrics.queue.capacity, 64, "default queue depth");

    daemon.shutdown();
}

#[test]
fn duplicate_bind_is_refused() {
    let daemon = Daemon::spawn(&[]);

    let second = Command::new(env!("CARGO_BIN_EXE_wfms"))
        .args(["serve", "--listen", &daemon.addr])
        .output()
        .expect("run second daemon");
    assert!(
        !second.status.success(),
        "second daemon on a taken port must fail"
    );
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(
        stderr.contains(&daemon.addr),
        "refusal names the address: {stderr:?}"
    );

    daemon.shutdown();
}

#[test]
fn concurrent_clients_get_byte_identical_answers() {
    let daemon = Daemon::spawn(&[]);
    // Warm the tenant once so the concurrent round is all cache replay.
    let warmup = daemon.roundtrip(&assess_request("acme"));
    assert!(warmup.ok, "warmup succeeds: {:?}", warmup.error);

    let addr = daemon.addr.clone();
    let line = serde_json::to_string(&assess_request("acme")).expect("serialize");
    let mut clients = Vec::new();
    for _ in 0..4 {
        let addr = addr.clone();
        let line = line.clone();
        clients.push(std::thread::spawn(move || {
            let mut stream = TcpStream::connect(&addr).expect("connect");
            stream
                .write_all(format!("{line}\n").as_bytes())
                .expect("send");
            let mut reader = BufReader::new(stream);
            let mut response = String::new();
            reader.read_line(&mut response).expect("read");
            response
        }));
    }
    let answers: Vec<String> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    for answer in &answers[1..] {
        assert_eq!(answer, &answers[0], "all clients see identical bytes");
    }

    daemon.shutdown();
}

#[test]
fn full_queue_sheds_connections_with_a_typed_overloaded_error() {
    // Four workers, queue depth one: a handful of held-open idle
    // connections exhausts admission, so later arrivals must be shed.
    let mut daemon = Daemon::spawn(&["--queue-depth", "1"]);

    let mut held = Vec::new();
    let mut overloaded = 0;
    for _ in 0..8 {
        let stream = daemon.connect();
        stream
            .set_read_timeout(Some(Duration::from_millis(300)))
            .expect("set timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        // A shed connection answers immediately; an admitted one stays
        // silent until we send a request, so the read times out.
        if reader.read_line(&mut line).is_ok() && !line.is_empty() {
            let response: Response = serde_json::from_str(&line).expect("response parses");
            assert!(!response.ok);
            assert_eq!(
                response.error.as_ref().map(|e| e.kind.as_str()),
                Some(ERR_OVERLOADED),
                "shed connections get the typed overload error"
            );
            overloaded += 1;
        } else {
            held.push(stream);
        }
    }
    assert!(
        overloaded > 0,
        "with queue depth 1, some of 8 idle connections must be shed"
    );

    // Shut down through the held connections: at least one of them is
    // being served by a worker, so its shutdown line lands.
    let shutdown =
        serde_json::to_string(&Request::new(METHOD_SHUTDOWN, Value::Null)).expect("serialize");
    for stream in &mut held {
        let _ = stream.write_all(format!("{shutdown}\n").as_bytes());
        let _ = stream.flush();
    }
    // Keep the sockets open until the daemon is gone so the shutdown
    // acks have somewhere to land.
    let status = daemon.child.wait().expect("wait for daemon");
    drop(held);
    assert!(status.success(), "graceful shutdown exits 0: {status:?}");
}

fn recommend_request(tenant: &str) -> Request {
    let mut params = serde_json::Map::new();
    params.insert("registry".to_string(), spec("ep", "registry.json"));
    params.insert("workload".to_string(), spec("ep", "workload.json"));
    params.insert(
        "max_wait".to_string(),
        serde_json::to_value(0.05).expect("encode"),
    );
    Request {
        method: METHOD_RECOMMEND.to_string(),
        params: Value::Object(params),
        ..assess_request(tenant)
    }
}

#[test]
fn a_tenant_computes_its_turnarounds_on_its_first_assess_only() {
    let daemon = Daemon::spawn(&[]);
    let mut session = daemon.session();

    // A recommend on a fresh tenant computes no percentile.
    session.call(&recommend_request("planner"));
    assert_eq!(session.stage_count("transient-distribution"), 0);

    // Two assesses on one tenant: one percentile (ep has one workflow)
    // and byte-identical answers.
    let request = assess_request("acme");
    let cold = session.call(&request);
    let assessed = session.stage_count("assess");
    let warm = session.call(&request);
    assert_eq!(cold, warm, "warm answer is byte-identical");
    assert_eq!(session.stage_count("transient-distribution"), 1);

    // The stage totals keep counting every request.
    for _ in 0..3 {
        session.call(&request);
    }
    assert_eq!(session.stage_count("assess"), assessed + 4);
    assert_eq!(session.stage_count("transient-distribution"), 1);

    daemon.shutdown();
}

#[test]
fn metrics_reply_stays_flat_as_requests_accumulate() {
    let daemon = Daemon::spawn(&[]);
    let mut session = daemon.session();
    let request = assess_request("acme");
    let metrics = Request::new(METHOD_METRICS, Value::Null);
    for _ in 0..10 {
        session.call(&request);
    }
    let after_10 = session.call(&metrics).len();
    for _ in 10..2_000 {
        session.call(&request);
    }
    let after_2000 = session.call(&metrics).len();
    assert!(
        after_2000.abs_diff(after_10) <= 1024,
        "metrics reply grew from {after_10} to {after_2000} bytes"
    );
    assert!(session.stage_count("assess") >= 2_000);

    daemon.shutdown();
}
