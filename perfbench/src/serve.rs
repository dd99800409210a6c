//! The daemon workloads, `serve_cold` and `serve_hot`, against the release
//! `fcpn-served` binary (`--workers 2`, every other setting at its default).
//!
//! Load comes from this process: two threads, one keep-alive connection each, closed
//! loop. Every response is checked against the library's answer for the same
//! (endpoint, renamed input, default options): `/schedule` against
//! `quasi_static_schedule` + `schedule_response_body`, the other endpoints against
//! `fcpn_serve::handlers::handle` run in this process.

use crate::pool::{self, digest, renamed, Deck, Endpoint, Input, Rng};
use crate::report::{self, Tally};
use crate::trace::Tracer;
use crate::{Run, Values};
use fcpn_petri::analysis::{
    check_liveness_in, find_deadlock_in, try_check_boundedness_with, BoundednessOptions,
};
use fcpn_petri::io::parse_net;
use fcpn_petri::statespace::{ExploreOptions, StateSpace};
use fcpn_petri::synthesis::{synthesize as synthesize_net, SynthesisOptions as RegionOptions};
use fcpn_petri::{net_fingerprint, Lts};
use fcpn_qss::{
    allocation_iter_gray, quasi_static_schedule, AllocationOptions, QssOptions, QssOutcome,
};
use fcpn_serve::cache::CachedResponse;
use fcpn_serve::http::write_response;
use fcpn_serve::{
    handlers, schedule_response_body, HandlerCtx, HttpLimits, IncrementalParser, Metrics, Request,
    RequestLimits, ResultCache,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections (and client threads).
const CONNECTIONS: usize = 2;

/// `serve_cold` draw weights per deck of 160 requests, 40 per endpoint. The requests
/// that finish in about a millisecond or less hold 66 + 32 of 160, the 32 being
/// `/analyze` on `figure2`, which hold the ranks around p50. Heavy (`atm_q4`,
/// `choice_chain_12`, `marked_ring_10_5`) is 21 in 160: `choice_chain_12` on
/// `/schedule` (a 1.7 MB body) holds ranks 143–157, so p95 sits inside its block,
/// below the two slowest requests, `choice_chain_12` on `/codegen` and `atm_q4` on
/// `/schedule` (a 6.6 MB body).
const COLD_WEIGHTS: [(Endpoint, &str, usize); 25] = [
    (Endpoint::Schedule, "figure2", 4),
    (Endpoint::Schedule, "figure3a", 4),
    (Endpoint::Schedule, "figure4", 4),
    (Endpoint::Schedule, "figure5", 4),
    (Endpoint::Schedule, "figure7", 2),
    (Endpoint::Schedule, "choice_chain_6", 2),
    (Endpoint::Schedule, "choice_chain_10", 4),
    (Endpoint::Schedule, "choice_chain_12", 15),
    (Endpoint::Schedule, "atm_q4", 1),
    (Endpoint::Codegen, "figure2", 6),
    (Endpoint::Codegen, "figure3a", 6),
    (Endpoint::Codegen, "figure4", 6),
    (Endpoint::Codegen, "figure5", 6),
    (Endpoint::Codegen, "figure7", 4),
    (Endpoint::Codegen, "choice_chain_6", 6),
    (Endpoint::Codegen, "atm_q2", 5),
    (Endpoint::Codegen, "choice_chain_12", 1),
    (Endpoint::Analyze, "figure2", 32),
    (Endpoint::Analyze, "figure4", 2),
    (Endpoint::Analyze, "figure7", 4),
    (Endpoint::Analyze, "choice_chain_6", 2),
    (Endpoint::Synthesize, "cycle_bank_4", 12),
    (Endpoint::Synthesize, "marked_ring_8_4", 22),
    (Endpoint::Synthesize, "marked_ring_12_4", 2),
    (Endpoint::Synthesize, "marked_ring_10_5", 4),
];

/// `serve_hot` draw weights per deck of 80 requests over the warmed working set.
/// Small bodies hold the ranks around p50. Heavy (the 6.6 MB `atm_q4` and 1.7 MB
/// `choice_chain_12` `/schedule` bodies, the 160 kB `marked_ring_10_5` LTS parsed
/// before the lookup) is 11 in 80; `atm_q4` on `/schedule` holds ranks 71–78, so p95
/// sits inside its block.
const HOT_WEIGHTS: [(Endpoint, &str, usize); 18] = [
    (Endpoint::Schedule, "figure2", 5),
    (Endpoint::Schedule, "figure4", 5),
    (Endpoint::Schedule, "figure7", 4),
    (Endpoint::Schedule, "choice_chain_6", 4),
    (Endpoint::Schedule, "atm_q2", 2),
    (Endpoint::Schedule, "choice_chain_12", 2),
    (Endpoint::Schedule, "atm_q4", 8),
    (Endpoint::Codegen, "figure3a", 6),
    (Endpoint::Codegen, "figure5", 6),
    (Endpoint::Codegen, "choice_chain_10", 4),
    (Endpoint::Codegen, "atm_q4", 4),
    (Endpoint::Analyze, "figure2", 6),
    (Endpoint::Analyze, "figure7", 5),
    (Endpoint::Analyze, "choice_chain_12", 4),
    (Endpoint::Analyze, "atm_q2", 4),
    (Endpoint::Synthesize, "cycle_bank_4", 6),
    (Endpoint::Synthesize, "marked_ring_8_4", 4),
    (Endpoint::Synthesize, "marked_ring_10_5", 1),
];

/// The daemon process; killed and reaped on drop.
pub struct Daemon {
    child: Child,
    /// Held open so the daemon's later status lines never meet a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    pub fn spawn(binary: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        let daemon = Daemon {
            child,
            _stdout: stdout,
            addr: addr.unwrap_or_default(),
        };
        if daemon.addr.is_empty() {
            return Err(format!("daemon did not report its address: {line:?}"));
        }
        Ok(daemon)
    }

    pub fn peak_rss_mb(&self) -> f64 {
        report::vm_hwm_mb(&self.child.id().to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One response as the client saw it.
struct Reply {
    status: u16,
    body: Vec<u8>,
    /// `X-Fcpn-Elapsed-Us`: the daemon's own time for the request.
    elapsed_us: f64,
    /// `X-Fcpn-Cache: hit`.
    hit: bool,
    /// From the first byte sent to the last byte read.
    latency_us: f64,
}

/// A keep-alive HTTP/1.1 client connection that reconnects when the daemon closes it.
struct Conn {
    addr: String,
    stream: Option<(TcpStream, BufReader<TcpStream>)>,
    reconnects: u64,
}

impl Conn {
    fn new(addr: &str) -> Conn {
        Conn {
            addr: addr.to_string(),
            stream: None,
            reconnects: 0,
        }
    }

    fn connect(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
        self.stream = Some((stream, reader));
        Ok(())
    }

    fn get(&mut self, path: &str) -> std::io::Result<Reply> {
        self.send("GET", path, b"")
    }

    fn post(&mut self, path: &str, body: &[u8]) -> std::io::Result<Reply> {
        self.send("POST", path, body)
    }

    fn send(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Reply> {
        if self.stream.is_none() {
            self.connect()?;
        }
        let request = raw_request(method, path, body);
        let start = Instant::now();
        let (stream, reader) = self.stream.as_mut().expect("connected above");
        stream.write_all(&request)?;
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
        let (mut length, mut close, mut elapsed_us, mut hit) = (0usize, false, 0.0, false);
        loop {
            line.clear();
            reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let (name, value) = header.split_once(':').unwrap_or((header, ""));
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => length = value.parse().unwrap_or(0),
                "connection" => close = value.eq_ignore_ascii_case("close"),
                "x-fcpn-elapsed-us" => elapsed_us = value.parse().unwrap_or(0.0),
                "x-fcpn-cache" => hit = value == "hit",
                _ => {}
            }
        }
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body)?;
        let latency_us = start.elapsed().as_secs_f64() * 1e6;
        if close {
            // The daemon's requests-per-connection cap: reconnect before the next one.
            self.stream = None;
            self.reconnects += 1;
        }
        Ok(Reply {
            status,
            body,
            elapsed_us,
            hit,
            latency_us,
        })
    }
}

fn raw_request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    request
}

/// One request of a run: the endpoint, the pool input and the name it is sent under.
struct Op {
    endpoint: Endpoint,
    input: usize,
    name: String,
}

/// The library's answer for `(endpoint, text)` under default request options.
///
/// A renamed net has the schedule of its pool input, so `/schedule` may pass that
/// input's `outcome` in and only the body is rendered for the new name.
fn library_answer(endpoint: Endpoint, text: &str, outcome: Option<&QssOutcome>) -> (u16, String) {
    if endpoint == Endpoint::Schedule {
        if let Ok(net) = parse_net(text) {
            if let Some(outcome) = outcome {
                return (200, schedule_response_body(&net, outcome));
            }
            if let Ok(outcome) = quasi_static_schedule(&net, &daemon_qss()) {
                return (200, schedule_response_body(&net, &outcome));
            }
        }
    }
    let (limits, cache, metrics) = (
        RequestLimits::default(),
        ResultCache::new(1, 1),
        Metrics::new(),
    );
    let ctx = HandlerCtx {
        limits: &limits,
        cache: &cache,
        metrics: &metrics,
        governor: None,
    };
    let response = handlers::handle(&ctx, &parsed_request(endpoint.path(), text));
    (response.status, response.body.as_str().to_string())
}

fn parsed_request(path: &str, text: &str) -> Request {
    Request {
        method: "POST".into(),
        path: path.into(),
        query: Vec::new(),
        headers: Vec::new(),
        body: text.as_bytes().to_vec(),
    }
}

/// The scheduler options the daemon derives from an empty query string.
fn daemon_qss() -> QssOptions {
    let max = AllocationOptions::default()
        .max_allocations
        .min(RequestLimits::default().max_allocations);
    QssOptions {
        allocation: AllocationOptions {
            max_allocations: max,
        },
        ..QssOptions::default()
    }
}

fn deck(weights: &[(Endpoint, &str, usize)], seed: u64) -> Deck<(Endpoint, usize)> {
    let cards: Vec<((Endpoint, usize), usize)> = weights
        .iter()
        .map(|&(endpoint, label, n)| ((endpoint, pool::index_of(label)), n))
        .collect();
    Deck::new(&cards, Rng::new(seed))
}

/// The operation stream of client `client`; the traced run replays it.
struct Stream {
    deck: Deck<(Endpoint, usize)>,
    client: usize,
    next: u64,
    cold: bool,
    /// Hot names, by (endpoint, input); empty on `serve_cold`.
    names: HotNames,
}

impl Stream {
    fn new(run: &Run, client: usize, names: &[((Endpoint, usize), String)]) -> Stream {
        let (weights, cold): (&[_], bool) = if names.is_empty() {
            (&COLD_WEIGHTS, true)
        } else {
            (&HOT_WEIGHTS, false)
        };
        Stream {
            deck: deck(
                weights,
                run.seed.wrapping_mul(31).wrapping_add(client as u64),
            ),
            client,
            next: 0,
            cold,
            names: names.to_vec(),
        }
    }

    fn next(&mut self, inputs: &[Input]) -> Op {
        let (endpoint, input) = self.deck.draw();
        self.next += 1;
        let name = if self.cold {
            // A new name per request: a new fingerprint, the same engine work.
            format!("{}-c{}-{}", inputs[input].label, self.client, self.next)
        } else {
            self.names
                .iter()
                .find(|(key, _)| *key == (endpoint, input))
                .map(|(_, name)| name.clone())
                .expect("hot working set covers the deck")
        };
        Op {
            endpoint,
            input,
            name,
        }
    }
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    tally: Tally,
    latency_us: Vec<f64>,
    elapsed_us: Vec<f64>,
    /// The (endpoint, input) of each latency sample.
    kinds: Vec<(Endpoint, usize)>,
    /// `serve_cold`: (op, status, body length, body digest), checked after the run.
    replies: Vec<(Op, u16, usize, u64)>,
}

/// The name each (endpoint, input) of the hot working set is requested under.
type HotNames = Vec<((Endpoint, usize), String)>;

/// Hot working set: the final name and the library's answer per (endpoint, input).
struct HotSet {
    names: HotNames,
    expected: Vec<((Endpoint, usize), (u16, String))>,
}

fn hot_entries() -> Vec<(Endpoint, usize)> {
    HOT_WEIGHTS
        .iter()
        .map(|&(e, label, _)| (e, pool::index_of(label)))
        .collect()
}

/// Warms the daemon with the hot working set until one pass over it is all cache
/// hits. An entry that is evicted (its cache shard is over budget) gets a new name,
/// and so a new shard, and the set is warmed again.
fn warm(conn: &mut Conn, inputs: &[Input]) -> Result<HotNames, String> {
    let entries = hot_entries();
    let mut salts = vec![0u32; entries.len()];
    let name = |i: usize, salt: u32| format!("{}-h{}", inputs[entries[i].1].label, salt);
    for round in 0..64 {
        let mut missed = Vec::new();
        for pass in 0..2 {
            for (i, &(endpoint, input)) in entries.iter().enumerate() {
                let text = renamed(&inputs[input].text, &name(i, salts[i]));
                let reply = conn
                    .post(endpoint.path(), text.as_bytes())
                    .map_err(|e| format!("warming: {e}"))?;
                if pass == 1 && !reply.hit {
                    missed.push(i);
                }
            }
        }
        if missed.is_empty() {
            eprintln!(
                "perfbench: hot working set resident after {} warming rounds",
                round + 1
            );
            return Ok(entries
                .iter()
                .enumerate()
                .map(|(i, &key)| (key, name(i, salts[i])))
                .collect());
        }
        for i in missed {
            salts[i] += 1;
        }
    }
    Err("the hot working set does not fit the daemon's cache".into())
}

pub fn run(run: &Run, inputs: &[Input], hot: bool) -> Result<(Tally, Values), String> {
    // Set-up, several times: start the daemon, connect, and (hot) warm the working set.
    let mut setups = Vec::new();
    let mut daemon = None;
    let mut hot_names = Vec::new();
    while run.more_setups(&setups) {
        drop(daemon.take());
        let start = Instant::now();
        let d = Daemon::spawn(&run.daemon)?;
        let mut conn = Conn::new(&d.addr);
        let health = conn.get("/healthz").map_err(|e| format!("healthz: {e}"))?;
        if health.status != 200 {
            return Err(format!("healthz answered {}", health.status));
        }
        if hot {
            hot_names = warm(&mut conn, inputs)?;
        }
        setups.push(start.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");
    let hot_set = HotSet {
        expected: hot_names
            .iter()
            .map(|(key, name)| {
                (
                    *key,
                    library_answer(key.0, &renamed(&inputs[key.1].text, name), None),
                )
            })
            .collect(),
        names: hot_names,
    };

    // The untraced run.
    let (measure_from, deadline) = run.window();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|client| {
                let (daemon, hot_set) = (&daemon, &hot_set);
                scope.spawn(move || {
                    client_loop(
                        run,
                        inputs,
                        &daemon.addr,
                        client,
                        hot_set,
                        measure_from,
                        deadline,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window = measure_from.elapsed().as_secs_f64();
    let peak_rss = daemon.peak_rss_mb();
    drop(daemon);

    let mut tally = Tally::default();
    let (mut latency_us, mut elapsed_us, mut replies) = (Vec::new(), Vec::new(), Vec::new());
    let mut profile = Vec::new();
    for log in logs {
        let kinds = log
            .kinds
            .iter()
            .map(|&(e, i)| format!("{} {}", e.path(), inputs[i].label));
        profile.extend(kinds.zip(log.latency_us.iter().map(|us| us / 1e3)));
        tally.add(&log.tally);
        latency_us.extend(log.latency_us);
        elapsed_us.extend(log.elapsed_us);
        replies.extend(log.replies);
    }
    report::print_profile(&profile);
    if !hot {
        verify_cold(inputs, &replies, &mut tally);
    }
    let completed = latency_us.len() as f64;
    let generated_c_bytes = generated_c_bytes(inputs)?;

    if !run.trace {
        let latency_ms: Vec<f64> = latency_us.iter().map(|us| us / 1e3).collect();
        let metrics = vec![
            ("setup_s", report::quantile(&setups, 0.5)),
            ("ops_per_s", completed / window),
            ("latency_ms_p50", report::quantile(&latency_ms, 0.5)),
            ("latency_ms_p95", report::quantile(&latency_ms, 0.95)),
            (
                "ok_ratio",
                1.0 - tally.failed() as f64 / tally.attempted as f64,
            ),
            ("peak_rss_mb", peak_rss),
            ("generated_c_bytes", generated_c_bytes as f64),
        ];
        return Ok((tally, metrics));
    }

    let wait_us: Vec<f64> = latency_us
        .iter()
        .zip(&elapsed_us)
        .map(|(l, e)| l - e)
        .collect();
    let (tr, mut extra) = traced_replay(run, inputs, &hot_set, latency_us.len())?;
    run.write_trace(&tr)?;
    extra.push((
        "trace.overhead_ratio",
        tr.mean("handlers.handle", 1e3) / report::mean(&elapsed_us),
    ));
    extra.push(("server.elapsed_us_p50", report::quantile(&elapsed_us, 0.5)));
    extra.push(("transport.wait_us_p50", report::quantile(&wait_us, 0.5)));
    Ok((tally, crate::per_layer(&tr, &extra)))
}

fn client_loop(
    run: &Run,
    inputs: &[Input],
    addr: &str,
    client: usize,
    hot: &HotSet,
    measure_from: Instant,
    deadline: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = Conn::new(addr);
    // The warm-up draws from streams of their own (clients `CONNECTIONS..`), so the
    // traced run replays exactly the measured requests and cold names never repeat.
    let mut warm = Stream::new(run, client + CONNECTIONS, &hot.names);
    let mut stream = Stream::new(run, client, &hot.names);
    // `--tamper` corrupts the first body client 0 receives.
    let mut tamper = run.tamper && client == 0;
    while Instant::now() < deadline {
        let measured = Instant::now() >= measure_from;
        let op = if measured {
            stream.next(inputs)
        } else {
            warm.next(inputs)
        };
        let text = renamed(&inputs[op.input].text, &op.name);
        log.tally.attempted += 1;
        let mut reply = match conn.post(op.endpoint.path(), text.as_bytes()) {
            Ok(reply) => reply,
            Err(e) => {
                eprintln!("{} {}: transport error: {e}", op.endpoint.path(), op.name);
                log.tally.transport += 1;
                conn.stream = None;
                continue;
            }
        };
        if reply.status == 503 || reply.status == 429 {
            log.tally.shed += 1;
            continue;
        }
        if measured {
            log.latency_us.push(reply.latency_us);
            log.elapsed_us.push(reply.elapsed_us);
            log.kinds.push((op.endpoint, op.input));
        }
        if tamper && !reply.body.is_empty() {
            reply.body[0] ^= 1;
            tamper = false;
        }
        if stream.cold {
            let digest = digest(&reply.body);
            log.replies
                .push((op, reply.status, reply.body.len(), digest));
            continue;
        }
        let (status, body) = &hot
            .expected
            .iter()
            .find(|(key, _)| *key == (op.endpoint, op.input))
            .expect("hot working set covers the deck")
            .1;
        if reply.status != *status {
            log.tally.status += 1;
        } else if reply.body != body.as_bytes() {
            log.tally.mismatch += 1;
        } else if !reply.hit {
            log.tally.cache_miss += 1;
        }
    }
    log.tally.reconnects = conn.reconnects;
    log
}

/// Checks every `serve_cold` reply against the library's answer, on two threads once
/// the daemon is stopped.
fn verify_cold(inputs: &[Input], replies: &[(Op, u16, usize, u64)], tally: &mut Tally) {
    let outcomes: Vec<Option<QssOutcome>> = inputs
        .iter()
        .map(|input| {
            let net = parse_net(&input.text).ok()?;
            quasi_static_schedule(&net, &daemon_qss()).ok()
        })
        .collect();
    let outcomes = &outcomes;
    let chunk = replies.len().div_ceil(CONNECTIONS).max(1);
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = replies
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut t = Tally::default();
                    for (op, status, len, body_digest) in part {
                        let text = renamed(&inputs[op.input].text, &op.name);
                        let (want_status, want_body) =
                            library_answer(op.endpoint, &text, outcomes[op.input].as_ref());
                        if *status != want_status {
                            eprintln!(
                                "{} {}: status {status}, library {want_status}",
                                op.endpoint.path(),
                                op.name
                            );
                            t.status += 1;
                        } else if *len != want_body.len()
                            || *body_digest != digest(want_body.as_bytes())
                        {
                            eprintln!(
                                "{} {}: body differs from the library's",
                                op.endpoint.path(),
                                op.name
                            );
                            t.mismatch += 1;
                        }
                    }
                    t
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verifier thread panicked"))
            .collect()
    });
    for t in &tallies {
        tally.add(t);
    }
}

/// Bytes of C the library generates for the pool's schedulable nets.
fn generated_c_bytes(inputs: &[Input]) -> Result<usize, String> {
    Ok(crate::pipeline::c_lengths(inputs)?.iter().flatten().sum())
}

/// The traced run: the same request stream, replayed in this process through
/// `IncrementalParser` → `handlers::handle` → `write_response`, with each layer the
/// handler calls also called once more on its own, right after, inside its own span
/// (a child of the handler's span). The handler's self time is its span minus these.
fn traced_replay(
    run: &Run,
    inputs: &[Input],
    hot: &HotSet,
    max_ops: usize,
) -> Result<(Tracer, Values), String> {
    let daemon_cache = || ResultCache::with_limits(16, 4096, 64 << 20);
    let (limits, cache, metrics) = (RequestLimits::default(), daemon_cache(), Metrics::new());
    let ctx = HandlerCtx {
        limits: &limits,
        cache: &cache,
        metrics: &metrics,
        governor: None,
    };
    // The layer calls get a cache of their own; on `serve_hot` it is unbounded, so
    // its lookups hit as the daemon's do.
    let layer_cache = if hot.names.is_empty() {
        daemon_cache()
    } else {
        ResultCache::with_limits(16, 4096, usize::MAX / 2)
    };
    for (key, name) in &hot.names {
        let text = renamed(&inputs[key.1].text, name);
        let response = handlers::handle(&ctx, &parsed_request(key.0.path(), &text));
        let fingerprint = match key.0 {
            Endpoint::Synthesize => Lts::parse(&text).map_err(|e| e.to_string())?.fingerprint(),
            _ => net_fingerprint(&parse_net(&text).map_err(|e| e.to_string())?),
        };
        layer_cache.insert(
            layer_key(key.0, fingerprint),
            Arc::new(CachedResponse {
                status: response.status,
                body: Arc::clone(&response.body),
            }),
        );
    }
    let (hits, misses, evictions) = (cache.hits(), cache.misses(), cache.evictions());

    let mut tr = Tracer::new(true);
    let mut streams: Vec<Stream> = (0..CONNECTIONS)
        .map(|client| Stream::new(run, client, &hot.names))
        .collect();
    let deadline = Instant::now() + run.seconds;
    let mut ops = 0usize;
    while ops < max_ops && Instant::now() < deadline {
        let op = streams[ops % CONNECTIONS].next(inputs);
        ops += 1;
        traced_op(&mut tr, &ctx, &layer_cache, inputs, &op)?;
    }
    let ops = ops.max(1) as f64;
    let (hits, misses) = (cache.hits() - hits, cache.misses() - misses);
    Ok((
        tr,
        vec![
            (
                "cache.hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            ),
            ("cache.misses", misses as f64 / ops),
            (
                "cache.evictions",
                (cache.evictions() - evictions) as f64 / ops,
            ),
        ],
    ))
}

fn layer_key(endpoint: Endpoint, fingerprint: u128) -> u128 {
    fingerprint ^ ((endpoint as u128 + 1) << 120)
}

fn traced_op(
    tr: &mut Tracer,
    ctx: &HandlerCtx<'_>,
    layer_cache: &ResultCache,
    inputs: &[Input],
    op: &Op,
) -> Result<(), String> {
    tr.next_op();
    let text = renamed(&inputs[op.input].text, &op.name);
    let raw = raw_request("POST", op.endpoint.path(), text.as_bytes());
    let root = tr.open("op", None);
    let request = tr
        .span("http.request_parse", Some(root), || {
            let mut parser = IncrementalParser::new(HttpLimits::default());
            parser.feed(&raw);
            parser.poll()
        })
        .map_err(|e| format!("request parse: {e:?}"))?
        .ok_or("request parse: incomplete request")?;
    let handle = tr.open("handlers.handle", Some(root));
    let response = handlers::handle(ctx, &request);
    tr.close(handle);
    let cached = Arc::new(CachedResponse {
        status: response.status,
        body: Arc::clone(&response.body),
    });
    layers(tr, handle, layer_cache, op.endpoint, &text, cached)?;
    let mut out = Vec::with_capacity(response.body.len() + 256);
    tr.span("http.write", Some(root), || {
        write_response(&mut out, &response, false)
    })
    .map_err(|e| format!("write: {e}"))?;
    tr.count("http.response_bytes", out.len() as f64);
    tr.close(root);
    Ok(())
}

/// The layers `handlers::handle` runs for `endpoint`, each in its own span under
/// `parent`: parse, fingerprint, cache lookup and, on a miss, the engine stages and
/// the cache insert.
fn layers(
    tr: &mut Tracer,
    parent: usize,
    layer_cache: &ResultCache,
    endpoint: Endpoint,
    text: &str,
    response: Arc<CachedResponse>,
) -> Result<(), String> {
    let p = Some(parent);
    let key = if endpoint == Endpoint::Synthesize {
        let lts = tr
            .span("io.parse_lts", p, || Lts::parse(text))
            .map_err(|e| e.to_string())?;
        let key = layer_key(endpoint, tr.span("fingerprint", p, || lts.fingerprint()));
        if tr.span("cache.get", p, || layer_cache.get(key)).is_some() {
            return Ok(());
        }
        let out = tr.span("synthesis.regions", p, || {
            synthesize_net(&lts, &RegionOptions::default())
        });
        if let Ok(out) = out {
            tr.count(
                "synthesis.candidate_regions",
                out.stats.candidate_regions as f64,
            );
            tr.count("synthesis.places", out.stats.places as f64);
        }
        key
    } else {
        let net = tr
            .span("io.parse_net", p, || parse_net(text))
            .map_err(|e| e.to_string())?;
        let key = layer_key(
            endpoint,
            tr.span("fingerprint", p, || net_fingerprint(&net)),
        );
        if tr.span("cache.get", p, || layer_cache.get(key)).is_some() {
            return Ok(());
        }
        if endpoint == Endpoint::Analyze {
            // An empty query string gives the default exploration options.
            let space = tr
                .span("statespace.explore", p, || {
                    StateSpace::try_explore_with(&net, &ExploreOptions::default())
                })
                .map_err(|e| format!("explore: {e:?}"))?;
            tr.count("statespace.states", space.state_count() as f64);
            tr.count("statespace.edges", space.edge_count() as f64);
            tr.span("analysis.checks", p, || {
                let _ = find_deadlock_in(&net, &space);
                let _ = check_liveness_in(&net, &space);
                if !space.is_complete() {
                    let _ = try_check_boundedness_with(
                        &net,
                        BoundednessOptions::default(),
                        &ExploreOptions::default(),
                    );
                }
            });
        } else {
            let outcome = tr
                .span("qss.schedule", p, || {
                    quasi_static_schedule(&net, &daemon_qss())
                })
                .map_err(|e| e.to_string())?;
            let allocations = allocation_iter_gray(&net, daemon_qss().allocation)
                .map_err(|e| e.to_string())?
                .total();
            tr.count("qss.allocations", allocations as f64);
            if let QssOutcome::Schedulable(schedule) = &outcome {
                tr.count("qss.cycles", schedule.cycle_count() as f64);
            }
            if endpoint == Endpoint::Schedule {
                let body = tr.span("json.serialize", p, || {
                    schedule_response_body(&net, &outcome)
                });
                tr.count("json.body_bytes", body.len() as f64);
            } else if let QssOutcome::Schedulable(schedule) = outcome {
                let program = tr
                    .span("codegen.synthesize", p, || {
                        fcpn_codegen::synthesize(&net, &schedule, Default::default())
                    })
                    .map_err(|e| e.to_string())?;
                tr.count("codegen.ir_statements", program.size() as f64);
                tr.span("codegen.emit_c", p, || {
                    fcpn_codegen::emit_c(&program, &net, Default::default())
                });
            }
        }
        key
    };
    tr.span("cache.insert", p, || layer_cache.insert(key, response));
    Ok(())
}
