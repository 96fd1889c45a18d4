//! The line-JSON-over-TCP transport (DESIGN.md §13).
//!
//! One request per line, one response line per request, deterministic
//! key order. Admission control is a bounded queue: the accept loop
//! `try_send`s each connection to a fixed worker pool and sheds with an
//! `overloaded` error response when the queue is full — memory stays
//! bounded no matter how fast clients arrive.
//!
//! On top of that sits the resilience layer (DESIGN.md §13, resilience
//! contract):
//!
//! * **I/O deadlines** — every connection reads and writes under
//!   timeouts, request lines are length-bounded (typed `bad-request`
//!   beyond the cap), and a slow-loris client dribbling a line is timed
//!   out by an overall per-line deadline, so no client can pin a worker.
//! * **A worker watchdog** — each connection is served inside
//!   `catch_unwind`; a panicking request is contained, counted
//!   (`serve.worker-panic`), and the worker rejoins the pool at full
//!   strength. An optional per-request compute deadline abandons an
//!   overrunning handler and answers `deadline-exceeded`.
//! * **Off-thread shedding** — `overloaded` responses are written by a
//!   dedicated shed thread under a short write timeout, so a shed
//!   client that never reads cannot stall admission
//!   (`serve.shed-undelivered` counts the ones that never got the
//!   response).
//! * **Accept-error backoff** — transient accept failures are counted
//!   (`serve.accept-error`) and retried under bounded exponential
//!   backoff instead of being silently swallowed.
//! * **Graceful drain** — shutdown stops accepting, finishes in-flight
//!   work up to `--drain-timeout`, and sheds the rest with a typed
//!   `unavailable` response.
//!
//! All of it is off the clean path: with no fault injected and no
//! deadline tripped, responses and the ready/stop lines are
//! byte-identical to the pre-resilience daemon.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, sync_channel, RecvTimeoutError, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use wfms_proto::{
    Request, Response, ERR_BAD_REQUEST, ERR_DEADLINE_EXCEEDED, ERR_OVERLOADED, ERR_UNAVAILABLE,
    METHOD_SHUTDOWN,
};

use crate::handler::Handler;
use crate::resilience::BreakerPolicy;

/// Options of one `wfms serve` run.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Address to bind, e.g. `127.0.0.1:7414`. Port `0` picks a free
    /// port; the ready line reports the actual address.
    pub listen: String,
    /// Warm tenant engines kept at most (LRU-evicted beyond this).
    pub tenants: usize,
    /// Bounded connection-queue capacity; connections arriving while it
    /// is full are shed with an `overloaded` response.
    pub queue_depth: usize,
    /// Worker threads serving admitted connections.
    pub workers: usize,
    /// Idle-connection limit: a connection quiet for longer is closed.
    /// Also the per-syscall write timeout.
    pub io_timeout: Duration,
    /// Overall deadline to receive one full request line once its first
    /// byte arrived (the slow-loris guard).
    pub line_timeout: Duration,
    /// Maximum request-line length; longer lines are rejected with a
    /// typed `bad-request` and the connection closes.
    pub max_line_bytes: usize,
    /// Per-request compute deadline: an overrunning handler is
    /// abandoned and answered with `deadline-exceeded`. `None` (the
    /// default) disables the deadline — the clean path spawns no
    /// per-request thread.
    pub request_deadline: Option<Duration>,
    /// Consecutive handler failures that open a tenant's circuit
    /// breaker; `0` disables breakers.
    pub breaker_threshold: u32,
    /// Open-breaker cooldown before the half-open probe is admitted.
    pub breaker_cooldown: Duration,
    /// After shutdown, in-flight work may finish for at most this long;
    /// connections still queued past the deadline are shed typed.
    pub drain_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            listen: "127.0.0.1:7414".to_string(),
            tenants: 8,
            queue_depth: 64,
            workers: 4,
            io_timeout: Duration::from_secs(30),
            line_timeout: Duration::from_secs(60),
            max_line_bytes: 16 * 1024 * 1024,
            request_deadline: None,
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_millis(1000),
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// A daemon-level failure (the per-request failures travel back to the
/// client as typed error responses instead).
#[derive(Debug)]
pub enum ServeError {
    /// The listen address could not be bound (already in use, bad
    /// address, …). A second daemon on the same port fails here — the
    /// duplicate-bind refusal.
    Bind {
        /// The requested listen address.
        addr: String,
        /// The OS error text.
        message: String,
    },
    /// Writing the ready line or stop line failed.
    Io {
        /// The OS error text.
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { addr, message } => {
                write!(f, "cannot listen on {addr}: {message}")
            }
            ServeError::Io { message } => write!(f, "serve i/o error: {message}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// How long the shed thread will wait on a client that never reads its
/// `overloaded` response before giving up on it.
const SHED_WRITE_TIMEOUT: Duration = Duration::from_millis(1000);

/// Pending sheds the shed thread will buffer; beyond this, shed
/// connections are dropped undelivered (and counted).
const SHED_QUEUE_DEPTH: usize = 32;

/// Per-syscall read-poll granularity: short enough that drain and
/// deadline checks stay responsive, invisible to well-behaved clients.
const READ_POLL: Duration = Duration::from_millis(250);

/// Consecutive accept failures tolerated before the daemon gives up
/// (a persistent accept error means the socket is gone).
const MAX_ACCEPT_FAILURES: u32 = 100;

/// State shared between the accept loop and the workers.
struct Shared {
    handler: Handler,
    shutdown: AtomicBool,
    addr: SocketAddr,
    io_timeout: Duration,
    line_timeout: Duration,
    max_line_bytes: usize,
    request_deadline: Option<Duration>,
    drain_timeout: Duration,
    drain_deadline: Mutex<Option<Instant>>,
}

impl Shared {
    /// Begins the drain phase (idempotent): the handler reports
    /// `draining` and in-flight work gets until the deadline.
    fn start_drain(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.handler.set_draining(true);
        let mut deadline = lock(&self.drain_deadline);
        if deadline.is_none() {
            *deadline = Some(Instant::now() + self.drain_timeout);
        }
    }

    /// True once the drain deadline has passed (never true before the
    /// drain started).
    fn past_drain_deadline(&self) -> bool {
        lock(&self.drain_deadline).is_some_and(|d| Instant::now() >= d)
    }
}

/// Locks a mutex, riding through poisoning (a panicking worker must not
/// wedge the daemon).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs the daemon until a `shutdown` request arrives. Writes the ready
/// line (`wfms serve: listening on <addr> …`) to `out` once the socket
/// is bound, and a stop line after a graceful shutdown.
///
/// The global `wfms-obs` recorder is reset and enabled for the process
/// lifetime without the span log, so the `metrics` and
/// `profile-snapshot` methods serve live stage totals and counters
/// (notably the engine's `engine.cache-hit`) while the daemon's memory
/// stays flat however many requests it serves.
///
/// # Errors
/// [`ServeError::Bind`] when the address cannot be bound;
/// [`ServeError::Io`] when the ready/stop lines cannot be written.
pub fn serve(opts: &ServeOptions, out: &mut impl Write) -> Result<(), ServeError> {
    let listener = TcpListener::bind(&opts.listen).map_err(|e| ServeError::Bind {
        addr: opts.listen.clone(),
        message: e.to_string(),
    })?;
    let addr = listener.local_addr().map_err(|e| ServeError::Bind {
        addr: opts.listen.clone(),
        message: e.to_string(),
    })?;
    let tenants = opts.tenants.max(1);
    let queue_depth = opts.queue_depth.max(1);
    let workers = opts.workers.max(1);

    wfms_obs::global().reset();
    wfms_obs::global().enable_without_span_log();

    let handler = Handler::new(tenants);
    handler.set_breaker_policy(BreakerPolicy {
        threshold: opts.breaker_threshold,
        cooldown: opts.breaker_cooldown,
    });
    let shared = Arc::new(Shared {
        handler,
        shutdown: AtomicBool::new(false),
        addr,
        io_timeout: opts.io_timeout,
        line_timeout: opts.line_timeout,
        max_line_bytes: opts.max_line_bytes.max(1),
        request_deadline: opts.request_deadline,
        drain_timeout: opts.drain_timeout,
        drain_deadline: Mutex::new(None),
    });
    shared
        .handler
        .queue()
        .configure(queue_depth as u64, workers as u64);

    writeln!(
        out,
        "wfms serve: listening on {addr} (tenants {tenants}, queue {queue_depth}, workers {workers})"
    )
    .and_then(|()| out.flush())
    .map_err(|e| ServeError::Io {
        message: e.to_string(),
    })?;

    // The shed lane: `overloaded` responses are written off the accept
    // thread under a short write timeout, so a shed client that never
    // reads cannot stall admission for everyone else.
    let (shed_tx, shed_rx) = sync_channel::<TcpStream>(SHED_QUEUE_DEPTH);
    let shed_thread = thread::spawn(move || {
        while let Ok(stream) = shed_rx.recv() {
            if shed(stream).is_err() {
                wfms_obs::counter("serve.shed-undelivered", 1);
            }
        }
    });

    let (tx, rx) = sync_channel::<TcpStream>(queue_depth);
    let rx = Arc::new(Mutex::new(rx));
    let mut pool = Vec::with_capacity(workers);
    for _ in 0..workers {
        let shared = Arc::clone(&shared);
        let rx = Arc::clone(&rx);
        pool.push(thread::spawn(move || loop {
            // Standard shared-receiver pattern: the lock is held only
            // while blocked in `recv`; serving happens unlocked.
            let conn = lock(&rx).recv();
            match conn {
                Ok(stream) => {
                    shared.handler.queue().dequeued();
                    // The watchdog: a panicking request (e.g. the
                    // `serve.handle` error fault) is contained here, so
                    // the pool never shrinks — the worker rejoins at
                    // full strength for the next connection.
                    let outcome =
                        catch_unwind(AssertUnwindSafe(|| serve_connection(&shared, stream)));
                    if outcome.is_err() {
                        shared.handler.note_worker_panic();
                    }
                }
                Err(_) => break,
            }
        }));
    }

    let mut accept_failures: u32 = 0;
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(stream) => {
                accept_failures = 0;
                // Responses go out as soon as they are written: Nagle
                // would hold the tail of a multi-segment response until
                // the client's delayed ACK.
                drop(stream.set_nodelay(true));
                stream
            }
            Err(_) => {
                // Transient accept failures (EMFILE, ECONNABORTED, …)
                // are counted and retried under bounded backoff instead
                // of being silently swallowed; a persistent run means
                // the socket is gone and the daemon drains.
                wfms_obs::counter("serve.accept-error", 1);
                accept_failures += 1;
                if accept_failures >= MAX_ACCEPT_FAILURES {
                    break;
                }
                let shift = accept_failures.min(7);
                thread::sleep(Duration::from_millis(1u64 << shift));
                continue;
            }
        };
        // Count the connection in before a worker can count it out, or
        // the depth gauge could read below zero.
        shared.handler.queue().enqueued();
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(stream)) => {
                shared.handler.queue().dequeued();
                shared.handler.queue().shed();
                if shed_tx.try_send(stream).is_err() {
                    // The shed lane itself is saturated: close the
                    // connection without a response rather than block.
                    wfms_obs::counter("serve.shed-undelivered", 1);
                }
            }
            Err(TrySendError::Disconnected(_)) => {
                shared.handler.queue().dequeued();
                break;
            }
        }
    }

    // Drain: stop accepting, let in-flight work finish up to the drain
    // deadline (workers shed connections they pick up past it), then
    // join so every delivered response is flushed before exit.
    shared.start_drain();
    drop(tx);
    drop(shed_tx);
    for worker in pool {
        let _ = worker.join();
    }
    let _ = shed_thread.join();
    writeln!(out, "wfms serve: stopped")
        .and_then(|()| out.flush())
        .map_err(|e| ServeError::Io {
            message: e.to_string(),
        })?;
    Ok(())
}

/// Outcome of reading one request line under the I/O deadlines.
enum ReadOutcome {
    /// A complete line (without its terminator).
    Line(String),
    /// Clean end of stream, a connection error, or an injected
    /// `serve.read` fault — close without a response.
    Closed,
    /// The line exceeded `max_line_bytes`.
    TooLong,
    /// The idle or per-line deadline expired.
    TimedOut {
        /// Which deadline fired, for the diagnostic message.
        what: &'static str,
        /// The deadline that was exceeded.
        limit: Duration,
    },
    /// The daemon is draining and no request is in flight on this
    /// connection — close quietly.
    Draining,
}

/// A length-bounded, deadline-aware line reader. Reads with a short
/// poll timeout so drain and deadline checks stay responsive; carries
/// leftover bytes across calls so pipelined requests are preserved.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    max_line_bytes: usize,
    /// When the first byte of the pending line arrived (the slow-loris
    /// clock); `None` while the buffer is empty.
    line_start: Option<Instant>,
}

impl LineReader {
    fn new(stream: TcpStream, max_line_bytes: usize) -> LineReader {
        LineReader {
            stream,
            buf: Vec::new(),
            max_line_bytes,
            line_start: None,
        }
    }

    /// Pops a complete line off the buffer, if one is there.
    fn pop_line(&mut self) -> Option<String> {
        let nl = self.buf.iter().position(|&b| b == b'\n')?;
        let mut line: Vec<u8> = self.buf.drain(..=nl).collect();
        line.pop(); // the \n
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        self.line_start = if self.buf.is_empty() {
            None
        } else {
            Some(Instant::now())
        };
        Some(String::from_utf8_lossy(&line).into_owned())
    }

    /// Reads the next request line under the connection's deadlines.
    fn read_line(&mut self, shared: &Shared) -> ReadOutcome {
        if wfms_fault::point!("serve.read").is_some() {
            // An injected read fault behaves like a torn connection.
            return ReadOutcome::Closed;
        }
        if let Some(line) = self.pop_line() {
            return ReadOutcome::Line(line);
        }
        let idle_start = Instant::now();
        let mut chunk = [0u8; 4096];
        loop {
            if shared.handler.is_draining() {
                if self.buf.is_empty() {
                    // Idle between requests: nothing in flight to finish.
                    return ReadOutcome::Draining;
                }
                if shared.past_drain_deadline() {
                    return ReadOutcome::Draining;
                }
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return ReadOutcome::Closed,
                Ok(n) => {
                    if self.buf.is_empty() {
                        self.line_start = Some(Instant::now());
                    }
                    self.buf.extend_from_slice(&chunk[..n]);
                    if let Some(line) = self.pop_line() {
                        return ReadOutcome::Line(line);
                    }
                    if self.buf.len() > self.max_line_bytes {
                        return ReadOutcome::TooLong;
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if self.buf.is_empty() {
                        if idle_start.elapsed() >= shared.io_timeout {
                            return ReadOutcome::TimedOut {
                                what: "idle connection",
                                limit: shared.io_timeout,
                            };
                        }
                    } else if self
                        .line_start
                        .is_some_and(|s| s.elapsed() >= shared.line_timeout)
                    {
                        return ReadOutcome::TimedOut {
                            what: "request line",
                            limit: shared.line_timeout,
                        };
                    }
                }
                Err(_) => return ReadOutcome::Closed,
            }
        }
    }
}

/// Serves every request line on one admitted connection.
fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) {
    if shared.handler.is_draining() && shared.past_drain_deadline() {
        // Queued behind the drain deadline: shed typed instead of
        // serving work the shutdown no longer has time for.
        let mut writer = stream;
        let _ = writer.set_write_timeout(Some(SHED_WRITE_TIMEOUT));
        let response = Response::failure_for_id(
            None,
            ERR_UNAVAILABLE,
            "server is draining; connection shed past the drain deadline",
        );
        drop(write_line(&mut writer, &response));
        return;
    }
    let Ok(clone) = stream.try_clone() else {
        return;
    };
    // I/O deadlines: short read polls (the reader enforces the real
    // idle/line deadlines), bounded writes.
    drop(clone.set_read_timeout(Some(READ_POLL)));
    let mut writer = stream;
    drop(writer.set_write_timeout(Some(shared.io_timeout)));
    let mut reader = LineReader::new(clone, shared.max_line_bytes);
    loop {
        let line = match reader.read_line(shared) {
            ReadOutcome::Line(line) => line,
            ReadOutcome::Closed | ReadOutcome::Draining => return,
            ReadOutcome::TooLong => {
                let response = Response::failure_for_id(
                    None,
                    ERR_BAD_REQUEST,
                    format!(
                        "request line exceeds {} bytes; the connection is closed",
                        shared.max_line_bytes
                    ),
                );
                drop(write_line(&mut writer, &response));
                return;
            }
            ReadOutcome::TimedOut { what, limit } => {
                let response = Response::failure_for_id(
                    None,
                    ERR_BAD_REQUEST,
                    format!("{what} timed out after {}ms", limit.as_millis()),
                );
                drop(write_line(&mut writer, &response));
                return;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<Request>(&line) {
            Ok(request) => {
                let response = handle_request(shared, &request);
                if request.method == METHOD_SHUTDOWN && response.ok {
                    // Honor the stop before attempting the ack: a
                    // client that disconnects right after asking for
                    // shutdown must still get one.
                    shared.start_drain();
                    drop(write_line(&mut writer, &response));
                    // The accept loop is blocked in `accept`; a
                    // self-connection wakes it so it observes the flag.
                    drop(TcpStream::connect(shared.addr));
                    return;
                }
                if write_line(&mut writer, &response).is_err() {
                    return;
                }
            }
            Err(e) => {
                let response = Response::failure_for_id(
                    None,
                    ERR_BAD_REQUEST,
                    format!("malformed request line: {e}"),
                );
                if write_line(&mut writer, &response).is_err() {
                    return;
                }
            }
        }
    }
}

/// Dispatches one request, honoring the `serve.handle` fault site and
/// the optional per-request compute deadline.
fn handle_request(shared: &Arc<Shared>, request: &Request) -> Response {
    // The error mode of `serve.handle` panics on purpose: it is the
    // deterministic trigger for the worker watchdog (delay mode simply
    // slows the handler, which is what trips the compute deadline).
    if wfms_fault::point!("serve.handle").is_some() {
        panic!("injected handler panic (serve.handle)");
    }
    let Some(deadline) = shared.request_deadline else {
        return shared.handler.handle(request);
    };
    let (tx, rx) = channel();
    let worker_shared = Arc::clone(shared);
    let worker_request = request.clone();
    let spawned = thread::Builder::new()
        .name("wfms-serve-deadline".to_string())
        .spawn(move || {
            let response = worker_shared.handler.handle(&worker_request);
            let _ = tx.send(response);
        });
    if spawned.is_err() {
        // Thread exhaustion: serve inline rather than fail the request.
        return shared.handler.handle(request);
    }
    match rx.recv_timeout(deadline) {
        Ok(response) => response,
        Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
            wfms_obs::counter("serve.deadline-exceeded", 1);
            let tenant = request.tenant.as_deref().unwrap_or("default");
            shared.handler.charge_breaker_failure(tenant);
            Response::failure(
                request,
                ERR_DEADLINE_EXCEEDED,
                format!(
                    "request exceeded the {}ms compute deadline",
                    deadline.as_millis()
                ),
            )
        }
    }
}

/// Sheds a connection the bounded queue had no room for: one
/// `overloaded` error line under a short write timeout, then the
/// connection closes. The client is expected to back off and retry.
fn shed(mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_write_timeout(Some(SHED_WRITE_TIMEOUT))?;
    let response = Response::failure_for_id(
        None,
        ERR_OVERLOADED,
        "connection queue is full; retry later",
    );
    write_line(&mut stream, &response)
}

/// Writes one response as a compact JSON line, in a single write: a
/// second small write (the newline) would sit behind the client's
/// delayed ACK on a Nagle socket and stall every response.
fn write_line(stream: &mut impl Write, response: &Response) -> std::io::Result<()> {
    if wfms_fault::point!("serve.write").is_some() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            "injected write fault (serve.write)",
        ));
    }
    let mut line = serde_json::to_string(response)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfms_proto::Request;

    /// Records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_line_is_one_write() {
        let request: Request = serde_json::from_str(
            r#"{"v":1,"id":"h-1","tenant":"t","method":"health","params":null}"#,
        )
        .unwrap();
        let responses = [
            Response::success(
                &request,
                serde_json::from_str(r#"{"state":"ready","breakers":[]}"#).unwrap(),
            ),
            Response::failure(&request, ERR_BAD_REQUEST, "bad"),
            Response::failure_for_id(None, ERR_OVERLOADED, "connection queue is full"),
        ];
        for response in &responses {
            let mut writer = CountingWriter::default();
            write_line(&mut writer, response).unwrap();
            assert_eq!(writer.writes, 1);
            let expect = format!("{}\n", serde_json::to_string(response).unwrap());
            assert_eq!(writer.bytes, expect.as_bytes());
        }
    }
}
