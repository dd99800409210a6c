//! `serve_load` — the standalone load generator for the `fcpn-serve` daemon.
//!
//! Replays the gallery and ATM nets from N concurrent connections and reports request
//! latency quantiles (p50/p95), throughput, shed (503) counts and the daemon's cache
//! hit rate — the numbers that populate the `server` section of
//! `BENCH_statespace.json` (schema v5).
//!
//! ```text
//! # against an in-process daemon (spawned on an ephemeral port):
//! cargo run --release -p fcpn-bench --example serve_load
//!
//! # against an already-running daemon:
//! cargo run --release -p fcpn-bench --example serve_load -- --addr 127.0.0.1:7411
//!
//! # knobs:
//! serve_load [--addr HOST:PORT] [--connections N] [--requests N] [--workers N]
//!            [--endpoint /schedule[?query]]... [--no-atm] [--out FILE]
//!            [--fanout N [--idle N] [--tenants a,b,c]]
//! ```
//!
//! With `--out FILE` the rendered `server` JSON section is written to `FILE`; it always
//! goes to stdout.
//!
//! `--fanout N` switches to the single-threaded epoll generator (Linux): N active
//! connections plus `--idle` parked spectator sockets, all driven from one thread, with
//! `--tenants` assigning `X-Fcpn-Tenant` headers round-robin so the report breaks
//! latency quantiles down per tenant.

use fcpn_bench::serveload::{run_against, run_in_process, ServerBenchSpec};
use fcpn_petri::io::to_text;

fn usage() -> ! {
    eprintln!(
        "usage: serve_load [--addr HOST:PORT] [--connections N] [--requests N] \
         [--workers N] [--endpoint PATH]... [--no-atm] [--out FILE] \
         [--fanout N [--idle N] [--tenants a,b,c]]"
    );
    std::process::exit(2);
}

/// `--fanout` mode: drive [`fcpn_serve::load::run_fanout`] and print its report.
fn run_fanout_mode(
    addr: Option<&str>,
    connections: usize,
    idle: usize,
    requests: usize,
    tenants: Vec<String>,
) {
    let spec = fcpn_serve::FanoutSpec {
        connections,
        idle_connections: idle,
        requests_per_connection: requests,
        target: "/schedule".into(),
        nets: vec![
            ("figure3a".into(), to_text(&fcpn_petri::gallery::figure3a())),
            ("figure5".into(), to_text(&fcpn_petri::gallery::figure5())),
        ],
        tenants,
        deadline: std::time::Duration::from_secs(300),
    };
    let _ = fcpn_serve::reactor::raise_nofile_limit((connections + idle) as u64 + 512);
    let handle;
    let addr = match addr {
        Some(addr) => addr.to_string(),
        None => {
            handle = fcpn_serve::Server::spawn(fcpn_serve::ServerConfig {
                addr: "127.0.0.1:0".into(),
                ..fcpn_serve::ServerConfig::default()
            })
            .expect("spawn in-process daemon");
            let addr = handle.addr().to_string();
            eprintln!("spawned in-process daemon on {addr}");
            addr
        }
    };
    eprintln!(
        "fanout: {} active + {} idle connections x {} requests...",
        spec.connections, spec.idle_connections, spec.requests_per_connection
    );
    let report = fcpn_serve::load::run_fanout(&addr, &spec).expect("fanout run");
    println!(
        "fanout: {} requests, {} ok, {} rejected(503), {} limited(429), {} errors",
        report.requests, report.ok, report.rejected, report.rate_limited, report.errors
    );
    println!(
        "        p50 {:.0}us  p95 {:.0}us  max {:.0}us  wall {:.0}ms  {:.0} req/s",
        report.p50_us, report.p95_us, report.max_us, report.wall_ms, report.throughput_rps
    );
    for tenant in &report.per_tenant {
        println!(
            "        tenant {:<12} {} requests  p50 {:.0}us  p95 {:.0}us",
            tenant.tenant, tenant.requests, tenant.p50_us, tenant.p95_us
        );
    }
    if report.ok == 0 {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut spec = ServerBenchSpec {
        connections: 64,
        requests_per_connection: 16,
        workers: 8,
        ..ServerBenchSpec::default()
    };
    let mut addr: Option<String> = None;
    let mut out: Option<String> = None;
    let mut endpoints: Vec<String> = Vec::new();
    let mut fanout: Option<usize> = None;
    let mut idle = 0usize;
    let mut tenants: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> String { args.get(i + 1).cloned().unwrap_or_else(|| usage()) };
        let number = |i: usize| -> usize { value(i).parse().unwrap_or_else(|_| usage()) };
        match args[i].as_str() {
            "--addr" => {
                addr = Some(value(i));
                i += 2;
            }
            "--connections" => {
                spec.connections = number(i).max(1);
                i += 2;
            }
            "--requests" => {
                spec.requests_per_connection = number(i).max(1);
                i += 2;
            }
            "--workers" => {
                spec.workers = number(i).max(1);
                i += 2;
            }
            "--endpoint" => {
                endpoints.push(value(i));
                i += 2;
            }
            "--out" => {
                out = Some(value(i));
                i += 2;
            }
            "--no-atm" => {
                spec.include_atm = false;
                i += 1;
            }
            "--fanout" => {
                fanout = Some(number(i).max(1));
                i += 2;
            }
            "--idle" => {
                idle = number(i);
                i += 2;
            }
            "--tenants" => {
                tenants = value(i)
                    .split(',')
                    .filter(|t| !t.is_empty())
                    .map(str::to_string)
                    .collect();
                i += 2;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
    }
    if !endpoints.is_empty() {
        spec.endpoints = endpoints;
    }

    if let Some(connections) = fanout {
        run_fanout_mode(
            addr.as_deref(),
            connections,
            idle,
            spec.requests_per_connection,
            tenants,
        );
        return;
    }

    eprintln!(
        "replaying {} connections x {} requests per endpoint ({:?})...",
        spec.connections, spec.requests_per_connection, spec.endpoints
    );
    let section = match &addr {
        Some(addr) => run_against(addr, &spec),
        None => run_in_process(&spec),
    };
    for row in &section.rows {
        eprintln!("  {}", row.summary_line());
    }

    let json = section.render();
    println!("{json}");
    if let Some(path) = out {
        std::fs::write(&path, &json).expect("write server section");
        eprintln!("wrote {path}");
    }
}
