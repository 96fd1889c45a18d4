//! Adversarial-transport tests against an in-process daemon: oversized
//! and malformed request lines, split and pipelined writes, mid-request
//! disconnects, slow-loris and idle deadlines, the per-request compute
//! deadline, and the per-tenant circuit breaker over TCP. The clean
//! lifecycle path is covered by the CLI crate's tests against the
//! spawned binary; these tests bind port 0 in-process so each case can
//! pick its own deadlines without subprocess plumbing.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use serde_json::Value;
use wfms_proto::{
    HealthResult, Request, Response, ERR_BAD_REQUEST, ERR_DEADLINE_EXCEEDED, ERR_INVALID_PARAMS,
    ERR_UNAVAILABLE, METHOD_ASSESS, METHOD_HEALTH, METHOD_METRICS, METHOD_RECOMMEND,
    METHOD_SHUTDOWN, PROTOCOL_VERSION,
};
use wfms_serve::{serve, ServeError, ServeOptions};

/// A `Write` sink forwarding complete lines over a channel, so the test
/// can observe the ready and stop lines of a daemon running in-process.
struct LineSink {
    tx: mpsc::Sender<String>,
    buf: Vec<u8>,
}

impl Write for LineSink {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        while let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=nl).collect();
            let _ = self
                .tx
                .send(String::from_utf8_lossy(&line).trim_end().to_string());
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

struct TestDaemon {
    addr: String,
    lines: mpsc::Receiver<String>,
    handle: thread::JoinHandle<Result<(), ServeError>>,
}

/// Boots `serve` on port 0 in a background thread and waits for the
/// ready line to learn the actual address.
fn start(mut opts: ServeOptions) -> TestDaemon {
    opts.listen = "127.0.0.1:0".to_string();
    let (tx, lines) = mpsc::channel();
    let handle = thread::spawn(move || {
        let mut sink = LineSink {
            tx,
            buf: Vec::new(),
        };
        serve(&opts, &mut sink)
    });
    let ready = lines
        .recv_timeout(Duration::from_secs(10))
        .expect("ready line");
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
    TestDaemon {
        addr,
        lines,
        handle,
    }
}

impl TestDaemon {
    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(&self.addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set read timeout");
        stream
    }

    /// One request line on a fresh connection, one response line back.
    fn roundtrip(&self, request: &Request) -> Response {
        let mut stream = self.connect();
        let line = serde_json::to_string(request).expect("serialize request");
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send request");
        read_response(&mut BufReader::new(stream))
    }

    /// Graceful shutdown: ack, clean `serve` return, stop line.
    fn shutdown(self) {
        let ack = self.roundtrip(&Request::new(METHOD_SHUTDOWN, Value::Null));
        assert!(ack.ok, "shutdown is acknowledged: {:?}", ack.error);
        self.handle
            .join()
            .expect("daemon thread")
            .expect("serve returns cleanly");
        let stop = self
            .lines
            .recv_timeout(Duration::from_secs(5))
            .expect("stop line");
        assert_eq!(stop, "wfms serve: stopped");
    }
}

fn read_response(reader: &mut impl BufRead) -> Response {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    serde_json::from_str(&line).expect("response parses")
}

fn error_kind(response: &Response) -> &str {
    assert!(!response.ok, "expected a failure response");
    response
        .error
        .as_ref()
        .map(|e| e.kind.as_str())
        .expect("failure carries an error body")
}

fn error_message(response: &Response) -> String {
    response
        .error
        .as_ref()
        .map(|e| e.message.clone())
        .expect("failure carries an error body")
}

fn spec(file: &str) -> Value {
    let path = format!(
        "{}/../../examples/specs/ep/{file}",
        env!("CARGO_MANIFEST_DIR")
    );
    let raw = std::fs::read_to_string(&path).expect("read spec fixture");
    serde_json::from_str(&raw).expect("spec fixture parses")
}

fn request(method: &str, tenant: &str, params: Value) -> Request {
    Request {
        v: PROTOCOL_VERSION,
        id: Some(format!("{method}-{tenant}")),
        tenant: Some(tenant.to_string()),
        method: method.to_string(),
        params,
    }
}

fn json<T: serde::Serialize>(value: T) -> Value {
    serde_json::to_value(value).expect("encode test value")
}

fn assess_request(tenant: &str) -> Request {
    let mut params = serde_json::Map::new();
    params.insert("registry".to_string(), spec("registry.json"));
    params.insert("workload".to_string(), spec("workload.json"));
    params.insert("config".to_string(), json(vec![2u64, 2, 2]));
    params.insert("max_wait".to_string(), json(0.05));
    request(METHOD_ASSESS, tenant, Value::Object(params))
}

#[test]
fn oversized_request_line_is_rejected_typed_and_the_connection_closes() {
    let daemon = start(ServeOptions {
        max_line_bytes: 128,
        ..ServeOptions::default()
    });

    let mut stream = daemon.connect();
    // 300 bytes and no newline: the length bound must fire without
    // waiting for a line terminator that may never come.
    stream.write_all(&[b'a'; 300]).expect("send oversized line");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let response = read_response(&mut reader);
    assert_eq!(error_kind(&response), ERR_BAD_REQUEST);
    assert!(
        error_message(&response).contains("exceeds 128 bytes"),
        "names the bound: {response:?}"
    );
    // The connection closes after the rejection.
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("drain");
    assert!(rest.is_empty(), "connection must be closed: {rest:?}");

    daemon.shutdown();
}

#[test]
fn garbage_bytes_get_bad_request_and_the_connection_survives() {
    let daemon = start(ServeOptions::default());

    let mut stream = daemon.connect();
    stream
        .write_all(b"\x00\xffthis is not json\n")
        .expect("send garbage");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let response = read_response(&mut reader);
    assert_eq!(error_kind(&response), ERR_BAD_REQUEST);
    assert!(
        error_message(&response).contains("malformed request line"),
        "got: {response:?}"
    );

    // The same connection still serves well-formed requests.
    let line = serde_json::to_string(&Request::new(METHOD_METRICS, Value::Null)).expect("encode");
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send metrics");
    let response = read_response(&mut reader);
    assert!(response.ok, "metrics after garbage: {:?}", response.error);

    daemon.shutdown();
}

#[test]
fn split_writes_reassemble_into_one_request() {
    let daemon = start(ServeOptions::default());

    let line = serde_json::to_string(&request(METHOD_METRICS, "split", Value::Null))
        .expect("encode request");
    let bytes = format!("{line}\n").into_bytes();
    let mut stream = daemon.connect();
    let third = bytes.len() / 3;
    for chunk in [
        &bytes[..third],
        &bytes[third..2 * third],
        &bytes[2 * third..],
    ] {
        stream.write_all(chunk).expect("send chunk");
        stream.flush().expect("flush chunk");
        thread::sleep(Duration::from_millis(50));
    }
    let response = read_response(&mut BufReader::new(stream));
    assert!(response.ok, "split request served: {:?}", response.error);
    assert_eq!(response.id.as_deref(), Some("metrics-split"));

    daemon.shutdown();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let daemon = start(ServeOptions::default());

    let mut first = request(METHOD_METRICS, "pipe", Value::Null);
    first.id = Some("m-1".to_string());
    let mut second = request(METHOD_HEALTH, "pipe", Value::Null);
    second.id = Some("m-2".to_string());
    let batch = format!(
        "{}\n{}\n",
        serde_json::to_string(&first).expect("encode"),
        serde_json::to_string(&second).expect("encode"),
    );
    let mut stream = daemon.connect();
    stream.write_all(batch.as_bytes()).expect("send batch");
    let mut reader = BufReader::new(stream);
    let one = read_response(&mut reader);
    let two = read_response(&mut reader);
    assert!(one.ok && two.ok, "both served: {one:?} {two:?}");
    assert_eq!(one.id.as_deref(), Some("m-1"), "responses keep order");
    assert_eq!(two.id.as_deref(), Some("m-2"), "responses keep order");

    daemon.shutdown();
}

#[test]
fn mid_request_disconnect_leaves_the_daemon_healthy() {
    let daemon = start(ServeOptions::default());

    for _ in 0..4 {
        let mut stream = daemon.connect();
        stream
            .write_all(b"{\"v\":1,\"method\":\"ass")
            .expect("send partial request");
        drop(stream);
    }
    // The torn connections are contained; a fresh client is served.
    let response = daemon.roundtrip(&Request::new(METHOD_METRICS, Value::Null));
    assert!(
        response.ok,
        "daemon survives torn clients: {:?}",
        response.error
    );

    daemon.shutdown();
}

#[test]
fn slow_loris_line_is_timed_out_typed() {
    let daemon = start(ServeOptions {
        line_timeout: Duration::from_millis(400),
        ..ServeOptions::default()
    });

    let mut stream = daemon.connect();
    stream.write_all(b"{").expect("send first byte");
    // Dribble nothing further: the per-line deadline must fire even
    // though the connection is not idle.
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let response = read_response(&mut reader);
    assert_eq!(error_kind(&response), ERR_BAD_REQUEST);
    assert_eq!(
        error_message(&response),
        "request line timed out after 400ms"
    );
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("drain");
    assert!(rest.is_empty(), "connection must be closed: {rest:?}");

    daemon.shutdown();
}

#[test]
fn idle_connection_is_timed_out_typed() {
    let daemon = start(ServeOptions {
        io_timeout: Duration::from_millis(300),
        ..ServeOptions::default()
    });

    let stream = daemon.connect();
    let mut reader = BufReader::new(stream);
    let response = read_response(&mut reader);
    assert_eq!(error_kind(&response), ERR_BAD_REQUEST);
    assert_eq!(
        error_message(&response),
        "idle connection timed out after 300ms"
    );

    daemon.shutdown();
}

#[test]
fn compute_deadline_answers_deadline_exceeded() {
    // A 1ms compute deadline against a request that cannot finish in
    // time: an exhaustive search through all 4,060 ep configurations of
    // at most 30 servers, none of which meets a 1e-9 min waiting goal
    // (a cold one-candidate `assess` can finish inside 1ms). The daemon
    // is deliberately leaked instead of drained — its own shutdown ack
    // would race the same 1ms deadline.
    let daemon = start(ServeOptions {
        request_deadline: Some(Duration::from_millis(1)),
        ..ServeOptions::default()
    });

    let mut params = serde_json::Map::new();
    params.insert("registry".to_string(), spec("registry.json"));
    params.insert("workload".to_string(), spec("workload.json"));
    params.insert("search".to_string(), json("exhaustive"));
    params.insert("max_wait".to_string(), json(1e-9));
    params.insert("budget".to_string(), json(30u64));
    let slow = request(METHOD_RECOMMEND, "deadline", Value::Object(params));
    let response = daemon.roundtrip(&slow);
    assert_eq!(error_kind(&response), ERR_DEADLINE_EXCEEDED);
    assert!(
        error_message(&response).contains("1ms compute deadline"),
        "names the deadline: {response:?}"
    );

    // The worker that answered is back in the pool: cheap requests
    // eventually land inside even this deadline.
    let alive = (0..50).any(|_| {
        daemon
            .roundtrip(&request(METHOD_HEALTH, "deadline", Value::Null))
            .ok
    });
    assert!(alive, "daemon keeps serving after a deadline overrun");
}

#[test]
fn open_breaker_sheds_one_tenant_while_another_is_served() {
    let daemon = start(ServeOptions {
        breaker_threshold: 1,
        breaker_cooldown: Duration::from_millis(400),
        ..ServeOptions::default()
    });

    // One guarded failure (undecodable assess params) opens the
    // threshold-1 breaker for tenant "flaky".
    let mut undecodable = serde_json::Map::new();
    undecodable.insert("registry".to_string(), json(42u64));
    let bad = daemon.roundtrip(&request(METHOD_ASSESS, "flaky", Value::Object(undecodable)));
    assert_eq!(error_kind(&bad), ERR_INVALID_PARAMS);

    // A well-formed request on the open tenant is shed with the typed
    // `unavailable` answer and a retry hint...
    let shed = daemon.roundtrip(&assess_request("flaky"));
    assert_eq!(error_kind(&shed), ERR_UNAVAILABLE);
    assert!(
        error_message(&shed).contains("retry after"),
        "carries the retry hint: {shed:?}"
    );

    // ...while a second tenant completes normally, and the cheap
    // introspection methods stay reachable for everyone.
    let other = daemon.roundtrip(&assess_request("steady"));
    assert!(other.ok, "second tenant unaffected: {:?}", other.error);
    let health = daemon.roundtrip(&request(METHOD_HEALTH, "flaky", Value::Null));
    assert!(health.ok, "health answers with a breaker open");
    let health: HealthResult =
        serde_json::from_value(health.result.expect("result populated")).expect("typed result");
    assert_eq!(health.state, "ready");
    let flaky = health
        .breakers
        .iter()
        .find(|b| b.tenant == "flaky")
        .expect("flaky breaker reported");
    assert_eq!(flaky.state, "open");

    // After the cooldown the half-open probe is admitted; its success
    // closes the breaker.
    thread::sleep(Duration::from_millis(600));
    let probe = daemon.roundtrip(&assess_request("flaky"));
    assert!(probe.ok, "half-open probe served: {:?}", probe.error);
    let health = daemon.roundtrip(&request(METHOD_HEALTH, "flaky", Value::Null));
    let health: HealthResult =
        serde_json::from_value(health.result.expect("result populated")).expect("typed result");
    let flaky = health
        .breakers
        .iter()
        .find(|b| b.tenant == "flaky")
        .expect("flaky breaker reported");
    assert_eq!(flaky.state, "closed", "probe success closes the breaker");
    assert_eq!(flaky.consecutive_failures, 0);

    daemon.shutdown();
}
