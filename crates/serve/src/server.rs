//! The daemon: configuration, the shared request core, graceful shutdown.
//!
//! One front end serves every connection: the epoll reactor in [`crate::reactor`].
//! A single thread drives non-blocking per-connection state machines and hands only
//! *complete* requests to the CPU worker pool over a bounded queue, so a slow or idle
//! client costs a few kilobytes of buffer, never a thread. Everything the reactor and
//! its workers share lives in one [`Core`]: config, metrics, cache, tenant governor,
//! memory governor and the lifecycle flags, plus the routing (`dispatch`) and
//! per-tenant admission (`admit`) logic.
//!
//! The reactor is built on epoll, so the daemon ([`Server`], [`ServerConfig`],
//! [`ServerHandle`]) exists on Linux only; elsewhere these items are compiled out.
//!
//! **Backpressure is immediate and explicit**: past `max_connections` open sockets,
//! or past the bounded dispatch queue of parsed requests, the daemon answers
//! `503 Service Unavailable` with a `Retry-After` instead of stacking latency. On top
//! of that sits per-tenant admission control (token-bucket rate + in-flight quota
//! keyed by the `X-Fcpn-Tenant` header, `429 Too Many Requests` on exhaustion — see
//! [`crate::tenant`]), disabled by default and switched on with a non-zero tenant
//! rate.
//!
//! Per-request CPU is bounded by the handler guards (state budgets, allocation
//! budgets, deadlines — see [`crate::handlers`]); per-request memory by the HTTP
//! limits; worker loss by the panic shield around each request (a panicking
//! handler answers `500`, never takes down the worker).

use crate::cache::ResultCache;
use crate::handlers::{self, HandlerCtx, MemGovernor, RequestLimits};
use crate::http::{HttpLimits, Request, Response};
use crate::metrics::{Metrics, RuntimeStats};
use crate::reactor::ReactorHandle;
use crate::tenant::{Admission, TenantGovernor, TenantPolicy};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Everything the daemon is configured with.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (the bound address is reported by
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker thread count; `0` is clamped to `1` when the daemon starts.
    pub workers: usize,
    /// Bounded dispatch-queue capacity: parsed-but-not-yet-executing requests beyond
    /// it are answered `503`.
    pub queue_capacity: usize,
    /// Most connections held open at once; accepts beyond it are shed with `503` at
    /// accept time.
    pub max_connections: usize,
    /// Keep-alive connections idle (no partial request buffered) longer than this are
    /// closed.
    pub idle_timeout: Duration,
    /// Per-tenant admission policy (token-bucket rate, burst, in-flight quota).
    /// Metering is off while `tenant.rate == 0.0` (the default).
    pub tenant: TenantPolicy,
    /// Total result-cache entries across shards.
    pub cache_entries: usize,
    /// Result-cache shard count (mutex granularity).
    pub cache_shards: usize,
    /// Total result-cache byte budget across shards (bodies + fixed per-entry
    /// overhead); least-recently-used entries are evicted past it.
    pub cache_bytes: usize,
    /// Directory for the crash-safe persistent cache logs (one per shard). `None`
    /// keeps the cache purely in memory. The directory is created if absent; intact
    /// entries from previous runs warm the cache at spawn, torn or corrupt log tails
    /// are truncated (see the `persist_*` metrics).
    pub cache_dir: Option<PathBuf>,
    /// Total wall-clock budget for reading one request (head + body). This is the
    /// slow-loris bound: a client dripping bytes still loses its connection slot when
    /// this elapses after the first byte.
    pub request_read_deadline: Duration,
    /// Total wall-clock budget for writing one response. This is the write-side
    /// slow-loris bound: a peer draining its receive window a byte at a time loses
    /// the connection when this elapses.
    pub response_write_deadline: Duration,
    /// How long [`ServerHandle::drain`] waits for in-flight requests before forcing
    /// shutdown anyway.
    pub drain_grace: Duration,
    /// Most requests served on one keep-alive connection before it is closed.
    pub max_requests_per_connection: usize,
    /// HTTP parsing limits (head/header/body sizes).
    pub http: HttpLimits,
    /// Caps for per-request options.
    pub limits: RequestLimits,
    /// Process-wide engine-allocation byte pool (`--mem-budget`). When set, every
    /// request's effective memory budget is reserved against this pool at admission
    /// and requests that cannot be covered are shed with `503` + `Retry-After`;
    /// unbudgeted requests are given `limits.default_memory_budget_bytes` (armed
    /// automatically when absent) so nothing runs unaccounted. `None` (the default)
    /// disables global memory admission control.
    pub mem_budget_bytes: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7411".into(),
            workers: 8,
            queue_capacity: 64,
            max_connections: 10_240,
            idle_timeout: Duration::from_secs(5),
            tenant: TenantPolicy::default(),
            cache_entries: 4096,
            cache_shards: 16,
            cache_bytes: 64 << 20,
            cache_dir: None,
            request_read_deadline: Duration::from_secs(10),
            response_write_deadline: Duration::from_secs(10),
            drain_grace: Duration::from_secs(5),
            max_requests_per_connection: 4096,
            http: HttpLimits::default(),
            limits: RequestLimits::default(),
            mem_budget_bytes: None,
        }
    }
}

/// Everything the reactor and its workers share: configuration, counters, the
/// response cache, the tenant and memory governors and the lifecycle flags.
#[derive(Debug)]
pub(crate) struct Core {
    pub(crate) config: ServerConfig,
    pub(crate) metrics: Metrics,
    pub(crate) cache: ResultCache,
    pub(crate) tenants: TenantGovernor,
    /// The process memory governor (`--mem-budget`); `None` runs without global
    /// memory admission control.
    pub(crate) governor: Option<MemGovernor>,
    pub(crate) shutdown: AtomicBool,
    /// Set by [`ServerHandle::drain`]: new connections are refused with `503`,
    /// in-flight requests run to completion (bounded by their deadlines), keep-alive
    /// connections are closed after the response in flight.
    pub(crate) draining: AtomicBool,
}

/// Outcome of per-tenant admission for one request.
pub(crate) enum Admitted {
    /// Proceed; `tenant` must be released after the request finishes.
    Ok {
        /// Bucket key to pass to [`TenantGovernor::release`].
        tenant: String,
    },
    /// Refused: write this response (keep-alive safe) and do not dispatch.
    Rejected(Response),
}

impl Core {
    fn new(mut config: ServerConfig) -> io::Result<Core> {
        // Clamped once here, so the pool that runs and the `workers` that `/metrics`
        // reports agree.
        config.workers = config.workers.max(1);
        // With a process budget armed, every request must be accountable to it: give
        // unbudgeted requests a default per-request budget (capped by both the pool
        // and the per-request maximum) unless the operator already chose one.
        let governor = config.mem_budget_bytes.map(MemGovernor::new);
        if let Some(pool) = config.mem_budget_bytes {
            config
                .limits
                .default_memory_budget_bytes
                .get_or_insert(pool.min(config.limits.max_memory_budget_bytes));
        }
        let cache = match &config.cache_dir {
            Some(dir) => ResultCache::with_persistence(
                config.cache_shards,
                config.cache_entries,
                config.cache_bytes,
                dir,
            )?,
            None => ResultCache::with_limits(
                config.cache_shards,
                config.cache_entries,
                config.cache_bytes,
            ),
        };
        let metrics = Metrics::new();
        let recovery = cache.recovery_stats();
        metrics
            .persist_recovered_entries
            .store(recovery.recovered_entries, Ordering::Relaxed);
        metrics
            .persist_torn_tail_truncations
            .store(recovery.torn_tail_truncations, Ordering::Relaxed);
        Ok(Core {
            tenants: TenantGovernor::new(config.tenant),
            governor,
            metrics,
            cache,
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            config,
        })
    }

    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// The shed response used by every overload path (accept-time saturation, full
    /// dispatch queue, drain refusals) — JSON body + `Retry-After`, consistent with
    /// handler errors.
    pub(crate) fn overload_response() -> Response {
        Response::error(503, "server saturated; retry later").with_header("Retry-After", "1")
    }

    /// Whether this request is a monitoring probe, exempt from tenant metering (rate
    /// limiting a health check starves the monitoring that would detect the outage).
    pub(crate) fn is_probe(request: &Request) -> bool {
        request.method == "GET" && (request.path == "/healthz" || request.path == "/metrics")
    }

    /// Runs per-tenant admission for one (non-probe) request, updating the rejection
    /// counters on refusal.
    pub(crate) fn admit(&self, request: &Request) -> Admitted {
        let tenant = TenantGovernor::tenant_key(request.header("x-fcpn-tenant"));
        match self.tenants.admit(tenant) {
            Admission::Admitted => Admitted::Ok {
                tenant: tenant.to_string(),
            },
            Admission::RateLimited { retry_after_s } => {
                self.metrics
                    .rejected_rate_limited
                    .fetch_add(1, Ordering::Relaxed);
                Admitted::Rejected(
                    Response::error(429, "tenant rate limit exceeded; retry later")
                        .with_header("Retry-After", &retry_after_s.to_string()),
                )
            }
            Admission::QuotaExceeded => {
                self.metrics.rejected_quota.fetch_add(1, Ordering::Relaxed);
                Admitted::Rejected(
                    Response::error(429, "tenant in-flight quota exceeded; retry later")
                        .with_header("Retry-After", "1"),
                )
            }
        }
    }

    /// Routes one request: the two GET probes are answered here (they need queue
    /// state), everything else goes through the API handlers. Handler panics (there
    /// should be none: the pipeline returns typed errors — but the daemon must outlive
    /// a bug) become `500`s.
    pub(crate) fn dispatch(&self, request: &Request, queue_depth: usize) -> Response {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => Response::json(
                200,
                crate::json::Json::obj([("status", crate::json::Json::from("ok"))]).render(),
            ),
            ("GET", "/metrics") => Response::json(
                200,
                self.metrics.render(RuntimeStats {
                    cache_hits: self.cache.hits(),
                    cache_misses: self.cache.misses(),
                    cache_entries: self.cache.len(),
                    cache_evictions: self.cache.evictions(),
                    cache_bytes: self.cache.bytes(),
                    mem_bytes_in_use: self.governor.as_ref().map_or(0, MemGovernor::bytes_in_use),
                    mem_budget_bytes: self.governor.as_ref().map_or(0, MemGovernor::limit_bytes),
                    queue_depth,
                    queue_capacity: self.config.queue_capacity,
                    workers: self.config.workers,
                    tenants: self.tenants.render_json(),
                }),
            ),
            _ => {
                let ctx = HandlerCtx {
                    limits: &self.config.limits,
                    cache: &self.cache,
                    metrics: &self.metrics,
                    governor: self.governor.as_ref(),
                };
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handlers::handle(&ctx, request)
                })) {
                    Ok(response) => response,
                    Err(_) => Response::error(500, "internal error while handling the request"),
                }
            }
        }
    }
}

/// A running daemon: its bound address and the handles needed to stop it.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    core: Arc<Core>,
    reactor: ReactorHandle,
}

/// Builder entry point for the daemon.
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Binds `config.addr` and spawns the epoll reactor plus the CPU worker pool;
    /// returns immediately.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, a filesystem failure while opening the persistent
    /// cache directory (damaged log *contents* are recovered from, never an error), or
    /// an epoll setup failure.
    pub fn spawn(config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let core = Arc::new(Core::new(config)?);
        let reactor = ReactorHandle::spawn(Arc::clone(&core), listener)?;
        Ok(ServerHandle {
            addr,
            core,
            reactor,
        })
    }
}

impl ServerHandle {
    /// The address the daemon is actually bound to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Gracefully drains the daemon, then stops it.
    ///
    /// From the moment drain starts, new connections are refused with `503` and
    /// keep-alive connections close after the response in flight. Requests already
    /// being handled run to completion — each is bounded by its own deadline — waited
    /// for up to `config.drain_grace`. The persistent cache (if any) is fsynced before
    /// returning, so a drained daemon restarts with a warm, intact cache. Blocks until
    /// all threads have joined.
    pub fn drain(self) {
        self.reactor.drain();
        let _ = self.core.cache.flush();
    }

    /// Stops the daemon: open connections are dropped, queued work is discarded,
    /// workers finish their current request and exit. Blocks until all threads have
    /// joined.
    pub fn shutdown(self) {
        self.reactor.shutdown();
    }
}
