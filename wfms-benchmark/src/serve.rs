//! The `serve-mix` workload: a `wfms serve` child process driven over
//! loopback by two closed-loop clients with persistent connections.
//!
//! An op is one round of a client: 20 requests in the shares of [`MIX`],
//! in a seeded order, one after another. Its latency is the sum of theirs.
//! A single request takes the daemon's Nagle stall (about 44 ms, see
//! `README.md`) plus its handler time, so its latency falls into a band
//! by kind: `assess` on ep, which computes a turnaround percentile, well
//! above the others. With half the requests in that band, the median
//! request would sit on the edge between two bands and jump from one to
//! the other between runs. A round holds every band in its share, as a
//! ladder pass holds every rung.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use serde_json::Value;
use wfms_proto::{
    HealthResult, MetricsResult, Request, Response, METHOD_HEALTH, METHOD_METRICS, METHOD_SHUTDOWN,
};

use crate::golden::{self, AssessTable, RecommendGoldens, JSON};
use crate::host::{HostMeter, Took};
use crate::ladder::SplitMix64;
use crate::replay::{Ask, Docs, WarmServer, WarmTenant};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, Outcome, Phase, Settings};

/// Client threads, one persistent connection each (the host has two
/// cores).
const CLIENTS: usize = 2;
/// Daemon worker threads.
const WORKERS: &str = "2";
/// Replica counts the mix draws for each of ep's three types.
const EP_REPLICAS: [usize; 3] = [1, 2, 3];
/// Socket deadline of a client; far above any answer's latency.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a stopping daemon may take to exit before it is killed.
const STOP_TIMEOUT: Duration = Duration::from_secs(15);

/// A `wfms serve` child process; killed if dropped while running.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Starts the daemon through `wfms_cli::main_with_args(["serve", …])`
    /// in a child that re-executes this binary, and reads its address
    /// from the ready line.
    fn start() -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let mut child = Command::new(exe)
            .args([
                "serve-child",
                "--listen",
                "127.0.0.1:0",
                "--workers",
                WORKERS,
            ])
            // Held open until the child is reaped; see `serve_child`.
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout not captured".to_string());
        };
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut ready = String::new();
        daemon
            .stdout
            .read_line(&mut ready)
            .map_err(|e| format!("daemon ready line: {e}"))?;
        daemon.addr = ready
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("daemon ready line {ready:?}"))?
            .to_string();
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to shut down and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let ack = Client::connect(&self.addr)
            .and_then(|mut c| c.call(&line(&Request::new(METHOD_SHUTDOWN, Value::Null))?));
        let deadline = Instant::now() + STOP_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return ack.map(drop),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Ok(None) => return Err("daemon did not stop in time".to_string()),
                Err(e) => return Err(format!("daemon wait: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
    }
}

/// One persistent client connection.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let setup = |s: &TcpStream| -> std::io::Result<()> {
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            s.set_write_timeout(Some(IO_TIMEOUT))
        };
        setup(&stream).map_err(|e| format!("socket options: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("socket clone: {e}"))?;
        Ok(Client {
            writer: stream,
            reader: BufReader::new(reader),
        })
    }

    /// Sends one request line (in one write) and reads the response line.
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.receive()
    }

    /// Reads one response line.
    fn receive(&mut self) -> Result<String, String> {
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(response),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// A request as one line, newline included.
fn line(request: &Request) -> Result<String, String> {
    serde_json::to_string(request)
        .map(|text| text + "\n")
        .map_err(|e| e.to_string())
}

/// The kinds of request in the mix, with how many of each one round of
/// 20 requests holds: half `assess` on ep, 30 % `assess` on enterprise,
/// 15 % greedy `recommend` and 5 % `health`.
const MIX: [(&str, usize); 4] = [
    ("assess-ep", 10),
    ("assess-enterprise", 6),
    ("recommend", 3),
    ("health", 1),
];

/// One distinct request of the mix.
struct MixRequest {
    kind: &'static str,
    request: Request,
    line: String,
    ask: Option<Ask>,
}

/// The distinct requests of the mix.
struct Mix {
    requests: Vec<MixRequest>,
    /// Indices into `requests` per kind, in [`MIX`] order.
    by_kind: Vec<Vec<usize>>,
}

impl Mix {
    fn new(ep: &Docs, enterprise: &Docs) -> Result<Mix, String> {
        let mut requests = Vec::new();
        let mut push = |kind, tenant: Option<&str>, ask: Option<Ask>, docs: &Docs| {
            let mut request = match &ask {
                Some(ask) => ask.request(docs)?,
                None => Request::new(METHOD_HEALTH, Value::Null),
            };
            request.tenant = tenant.map(str::to_string);
            requests.push(MixRequest {
                kind,
                line: line(&request)?,
                request,
                ask,
            });
            Ok::<(), String>(())
        };
        for config in workloads::grid(3, &EP_REPLICAS) {
            push("assess-ep", Some("ep"), Some(Ask::Assess(config)), ep)?;
        }
        for config in workloads::grid(5, &workloads::ENTERPRISE_REPLICAS) {
            let ask = Some(Ask::Assess(config));
            push("assess-enterprise", Some("enterprise"), ask, enterprise)?;
        }
        let greedy = Ask::Recommend {
            exhaustive: false,
            jobs: Some(2),
        };
        push(
            "recommend",
            Some("enterprise-rec"),
            Some(greedy),
            enterprise,
        )?;
        push("health", None, None, ep)?;
        let by_kind = MIX
            .iter()
            .map(|(kind, _)| {
                (0..requests.len())
                    .filter(|&i| requests[i].kind == *kind)
                    .collect()
            })
            .collect();
        Ok(Mix { requests, by_kind })
    }

    /// One round of a client: every kind in its [`MIX`] share, in a
    /// seeded order, each request drawn uniformly among the distinct
    /// requests of its kind.
    fn round(&self, rng: &mut SplitMix64) -> Vec<usize> {
        let mut kinds: Vec<usize> = MIX
            .iter()
            .enumerate()
            .flat_map(|(k, (_, share))| std::iter::repeat_n(k, *share))
            .collect();
        rng.shuffle(&mut kinds);
        kinds
            .into_iter()
            .map(|k| self.by_kind[k][rng.below(self.by_kind[k].len())])
            .collect()
    }
}

/// What checks the daemon's answers: the goldens and the registries for
/// the closed form.
struct Checks {
    registries: [wfms_core::ServerTypeRegistry; 2],
    goldens: (AssessTable, AssessTable, RecommendGoldens),
}

impl Checks {
    fn load(ep: &Docs, enterprise: &Docs) -> Result<Checks, String> {
        Ok(Checks {
            registries: [ep.registry.clone(), enterprise.registry.clone()],
            goldens: (
                golden::load(golden::ASSESS_EP)?,
                golden::load(golden::ASSESS_ENTERPRISE)?,
                golden::load(golden::RECOMMEND_ENTERPRISE)?,
            ),
        })
    }

    /// Checks an answer to request `r`: the response is a success, and an
    /// answer matches its golden and the closed form.
    fn check(&self, r: &MixRequest, response: &str) -> Result<(), String> {
        let decoded: Response =
            serde_json::from_str(response.trim_end()).map_err(|e| format!("response: {e}"))?;
        let Some(ask) = &r.ask else {
            let health: HealthResult =
                serde_json::from_value(decoded.result.unwrap_or(Value::Null))
                    .map_err(|e| format!("health: {e}"))?;
            return if health.state == "ready" {
                Ok(())
            } else {
                Err(format!("health state {:?}", health.state))
            };
        };
        let answer = ask.answer(&decoded)?;
        let (expected, registry) = match r.kind {
            "assess-ep" => (self.goldens.0.get(&answer.config)?, &self.registries[0]),
            "assess-enterprise" => (self.goldens.1.get(&answer.config)?, &self.registries[1]),
            _ => (&self.goldens.2.greedy, &self.registries[1]),
        };
        golden::compare(&answer, expected, JSON)?;
        golden::check_closed_form(registry, &answer, JSON)
    }
}

/// A booted daemon with its warm-up answers.
struct Booted {
    daemon: Daemon,
    /// The warm-up response line per request; a later answer to the same
    /// request must repeat it byte for byte (`health` excepted, whose
    /// queue gauges move).
    expected: Vec<String>,
}

/// Boots a daemon and sends every distinct request once, pipelined on
/// one connection. The daemon answers a connection's requests in order
/// on one worker, so the cold requests never overlap by chance (nor,
/// with them, the daemon's peak memory), and the responses stream back
/// without waiting out the Nagle stall one by one.
fn boot(mix: &Mix) -> Result<Booted, String> {
    let daemon = Daemon::start()?;
    let mut client = Client::connect(&daemon.addr)?;
    let mut writer = client
        .writer
        .try_clone()
        .map_err(|e| format!("socket clone: {e}"))?;
    let lines: String = mix.requests.iter().map(|r| r.line.as_str()).collect();
    let expected = std::thread::scope(|s| {
        // Sent from a second thread so that neither side can block on a
        // full socket buffer while the other waits.
        let sender = s.spawn(move || writer.write_all(lines.as_bytes()));
        let received: Result<Vec<String>, String> =
            mix.requests.iter().map(|_| client.receive()).collect();
        sender
            .join()
            .map_err(|_| "warm-up sender panicked".to_string())?
            .map_err(|e| format!("send: {e}"))?;
        received
    })?;
    Ok(Booted { daemon, expected })
}

/// Reads the specs and builds the mix: the inputs of a set-up.
fn inputs() -> Result<(Docs, Docs, Mix), String> {
    let ep = Docs::read(workloads::EP_REGISTRY, workloads::EP_WORKLOAD)?;
    let enterprise = Docs::read(
        workloads::ENTERPRISE_REGISTRY,
        workloads::ENTERPRISE_WORKLOAD,
    )?;
    let mix = Mix::new(&ep, &enterprise)?;
    Ok((ep, enterprise, mix))
}

/// The set-up child of `serve-mix`: inputs, daemon boot and warm-up,
/// timed by `meter`; `ready` prints the ready line with that time, after
/// which the daemon is stopped.
///
/// # Errors
/// A message when the daemon cannot be booted, warmed or stopped.
pub fn setup_child(
    meter: &mut HostMeter,
    ready: impl FnOnce(Took) -> Result<(), String>,
) -> Result<(), String> {
    let (booted, took) = meter.time(|| inputs().and_then(|(_, _, mix)| boot(&mix)));
    let booted = booted?;
    ready(took)?;
    booted.daemon.stop()
}

/// What the client threads measured.
struct Measured {
    phase: Phase,
    /// Latencies per request kind, ms.
    by_kind: BTreeMap<&'static str, Vec<f64>>,
    /// Every completed round: its requests' latencies, ms, and the ratio
    /// of the reference speed to the host's speed while it ran.
    rounds: Vec<(Vec<f64>, f64)>,
    tracer: Option<Tracer>,
}

impl Measured {
    fn new() -> Measured {
        Measured {
            phase: Phase::default(),
            by_kind: BTreeMap::new(),
            rounds: Vec::new(),
            tracer: None,
        }
    }

    /// Sets the op latencies to the rounds' latencies at the reference
    /// speed (see [`crate::host`]).
    ///
    /// Every response waits out the daemon's stall (see `README.md`), a
    /// timer that runs at the same pace on a quick host and a slow one;
    /// the rest of a request's time is work, which does not. The median
    /// `health` latency, whose handler does almost nothing, measures the
    /// stall. A request's time up to it is kept as measured, and only
    /// the time beyond it is adjusted. Were the stall gone, `health`
    /// would measure next to nothing and the whole round would be
    /// adjusted, as a CLI op is.
    fn adjust(&mut self) {
        let stall = self
            .by_kind
            .get("health")
            .and_then(|h| stats::median(h))
            .unwrap_or(0.0);
        self.phase.latencies = self
            .rounds
            .iter()
            .map(|(requests, factor)| {
                requests
                    .iter()
                    .map(|&ms| ms.min(stall) + (ms - stall).max(0.0) * factor)
                    .sum()
            })
            .collect();
    }

    /// Folds in what another client measured at the same time.
    fn merge(&mut self, mut other: Measured) {
        self.phase.merge(std::mem::take(&mut other.phase));
        self.extend(other);
    }

    /// Appends what was measured after this.
    fn append(&mut self, mut other: Measured) {
        self.phase.append(std::mem::take(&mut other.phase));
        self.extend(other);
    }

    fn extend(&mut self, other: Measured) {
        for (kind, latencies) in other.by_kind {
            self.by_kind.entry(kind).or_default().extend(latencies);
        }
        self.rounds.extend(other.rounds);
        match (&mut self.tracer, other.tracer) {
            (Some(all), Some(t)) => all.merge(t),
            (slot @ None, t) => *slot = t,
            _ => {}
        }
    }

    /// Per-kind request medians, and the tail over all requests: an op is
    /// a round of 20, too few for a tail of its own.
    fn notes(&self) -> Vec<String> {
        let mut notes: Vec<String> = self
            .by_kind
            .iter()
            .map(|(kind, latencies)| {
                format!(
                    "{kind}: {} requests, p50 {:.3} ms",
                    latencies.len(),
                    stats::median(latencies).unwrap_or(0.0)
                )
            })
            .collect();
        let requests: Vec<f64> = self.by_kind.values().flatten().copied().collect();
        if let Some(t) = stats::tail(&requests) {
            notes.push(format!(
                "request tail: p{} = {:.3} ms over {} samples",
                t.label(),
                t.value,
                t.samples
            ));
        }
        notes
    }
}

/// Runs one client for `seconds` of closed-loop rounds of the mix.
fn client_loop(
    mix: &Mix,
    checks: &Checks,
    booted: &Booted,
    rng: &mut SplitMix64,
    seconds: f64,
    mirror: Option<(&WarmServer, Instant)>,
) -> Measured {
    let mut tracer = mirror.map(|(_, epoch)| Tracer::new(epoch));
    let mut by_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut rounds = Vec::new();
    let mut client = match Client::connect(&booted.daemon.addr) {
        Ok(client) => client,
        Err(e) => {
            return Measured {
                phase: Phase::failed(e),
                by_kind,
                rounds,
                tracer,
            }
        }
    };
    // The host's speed is sampled between rounds only: a pause of the
    // sample's length between two requests could change how the client
    // acknowledges, and with it the stall.
    let mut meter = HostMeter::start(workloads::reference("serve-mix"));
    let phase = workloads::run_phase(seconds, || {
        let mut requests = Vec::new();
        // Traced requests replay after the round, so that its requests go
        // out back to back as in the timed run: a pause between two would
        // let the client acknowledge at once and skip the Nagle stall.
        let mut replays = Vec::new();
        let (sent, took) = meter.time(|| {
            for i in mix.round(rng) {
                let r = &mix.requests[i];
                let (response, ms) = match tracer.as_mut() {
                    None => {
                        let start = Instant::now();
                        let response = client.call(&r.line)?;
                        (response, start.elapsed().as_secs_f64() * 1e3)
                    }
                    Some(t) => {
                        let (op, root) = t.begin_op();
                        let rtt = format!("serve.rtt.{}", r.request.method);
                        let (response, ms) = t.time(op, root, rtt, || client.call(&r.line));
                        t.end(root);
                        let response = response?;
                        replays.push((op, i, response.clone()));
                        (response, ms)
                    }
                };
                if r.ask.is_some() && response != booted.expected[i] {
                    return Err(format!(
                        "request {i}: answer differs from its warm-up answer: {}",
                        response.trim_end()
                    ));
                }
                if r.ask.is_none() {
                    checks.check(r, &response)?;
                }
                by_kind.entry(r.kind).or_default().push(ms);
                requests.push(ms);
            }
            Ok::<(), String>(())
        });
        sent?;
        let round_ms = requests.iter().sum();
        rounds.push((requests, took.ms / took.wall_ms));
        if let (Some(t), Some((server, _))) = (tracer.as_mut(), mirror) {
            for (op, i, response) in replays {
                let r = &mix.requests[i];
                let root = t.begin(op, None, "replay");
                server.replay(t, op, root, &r.request, r.ask.as_ref(), &r.line, &response)?;
                t.end(root);
            }
        }
        Ok(Took::unadjusted(round_ms))
    });
    Measured {
        phase,
        by_kind,
        rounds,
        tracer,
    }
}

/// Runs `CLIENTS` client threads for `seconds`; merges what they measured.
fn measure(
    mix: &Mix,
    checks: &Checks,
    booted: &Booted,
    settings: &Settings,
    stream: u64,
    seconds: f64,
    mirror: Option<(&WarmServer, Instant)>,
) -> Result<Measured, String> {
    let runs: Vec<Measured> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut rng = SplitMix64::new(settings.seed, stream + c as u64);
                    client_loop(mix, checks, booted, &mut rng, seconds, mirror)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string()))
            .collect::<Result<_, _>>()
    })?;
    let mut all = Measured::new();
    for run in runs {
        all.merge(run);
    }
    Ok(all)
}

/// Engine cache hits over lookups, summed over the daemon's tenants.
fn daemon_cache_hit_ratio(addr: &str) -> Result<f64, String> {
    let response =
        Client::connect(addr)?.call(&line(&Request::new(METHOD_METRICS, Value::Null))?)?;
    let decoded: Response =
        serde_json::from_str(response.trim_end()).map_err(|e| format!("metrics: {e}"))?;
    let metrics: MetricsResult = serde_json::from_value(decoded.result.unwrap_or(Value::Null))
        .map_err(|e| format!("metrics: {e}"))?;
    let hits: u64 = metrics.tenants.iter().map(|t| t.cache_hits).sum();
    let misses: u64 = metrics.tenants.iter().map(|t| t.cache_misses).sum();
    Ok(hits as f64 / (hits + misses).max(1) as f64)
}

/// Runs the `serve-mix` workload.
///
/// # Errors
/// A message when the daemon cannot be booted or measured.
pub fn run(settings: &Settings) -> Result<Outcome, String> {
    let (ep, enterprise, mix) = inputs()?;
    let checks = Checks::load(&ep, &enterprise)?;
    let booted = boot(&mix)?;
    for (r, response) in mix.requests.iter().zip(&booted.expected) {
        checks
            .check(r, response)
            .map_err(|e| format!("warm-up answer: {e}"))?;
    }
    let warm_rss = stats::peak_rss_mb(booted.daemon.pid())?;

    let outcome = if settings.trace {
        let mut tenants = BTreeMap::new();
        tenants.insert("ep".to_string(), WarmTenant::new(ep, 1)?);
        tenants.insert(
            "enterprise".to_string(),
            WarmTenant::new(enterprise.clone(), 1)?,
        );
        tenants.insert(
            "enterprise-rec".to_string(),
            WarmTenant::new(enterprise.clone(), 2)?,
        );
        let requests: Vec<(Request, Option<Ask>)> = mix
            .requests
            .iter()
            .map(|r| (r.request.clone(), r.ask.clone()))
            .collect();
        let server = WarmServer::new(&requests, tenants)?;
        let mut untraced = measure(
            &mix,
            &checks,
            &booted,
            settings,
            100,
            settings.seconds / 3.0,
            None,
        )?;
        let mirror = Some((&server, Instant::now()));
        let mut traced = measure(
            &mix,
            &checks,
            &booted,
            settings,
            200,
            settings.seconds * 2.0 / 3.0,
            mirror,
        )?;
        untraced.adjust();
        traced.adjust();
        let notes = traced.notes();
        let tracer = traced.tracer.ok_or("no client traced")?;
        let cache = daemon_cache_hit_ratio(&booted.daemon.addr)?;
        let mut outcome = workloads::traced_outcome(
            untraced.phase,
            traced.phase,
            tracer,
            Some(cache),
            &enterprise,
            settings,
            "serve-mix",
        )?;
        outcome.notes.extend(notes);
        outcome
    } else {
        let (setups, slices) = workloads::timed_slices("serve-mix", settings, |i, seconds| {
            measure(
                &mix,
                &checks,
                &booted,
                settings,
                100 + 10 * i,
                seconds,
                None,
            )
        })?;
        let mut measured = Measured::new();
        for slice in slices {
            measured.append(slice);
        }
        measured.adjust();
        let rss = stats::peak_rss_mb(booted.daemon.pid())?;
        let notes = measured.notes();
        let mut outcome = Outcome::timed(setups, measured.phase, rss);
        outcome.notes.extend(notes);
        outcome
            .notes
            .push(format!("daemon peak RSS after warm-up: {warm_rss:.3} MB"));
        outcome
    };
    booted.daemon.stop()?;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_time_beyond_the_stall_is_adjusted() {
        let mut m = Measured::new();
        m.by_kind.insert("health", vec![44.0, 40.0, 48.0]);
        m.rounds = vec![(vec![44.0, 72.0], 0.5), (vec![30.0, 64.0], 2.0)];
        m.adjust();
        assert_eq!(m.phase.latencies, [44.0 + 44.0 + 14.0, 30.0 + 44.0 + 40.0]);
        m.by_kind.clear();
        m.adjust();
        assert_eq!(m.phase.latencies, [58.0, 188.0]);
    }
}
