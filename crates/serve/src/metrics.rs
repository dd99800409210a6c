//! Lock-free request counters behind `GET /metrics`.

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counters the daemon maintains with relaxed atomics (exactness across a racing read
/// is not required; monotonicity per counter is).
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// Requests fully read and dispatched (any endpoint, any outcome).
    pub requests_total: AtomicU64,
    /// Per-endpoint dispatch counts.
    pub schedule_requests: AtomicU64,
    /// See [`Metrics::schedule_requests`].
    pub analyze_requests: AtomicU64,
    /// See [`Metrics::schedule_requests`].
    pub codegen_requests: AtomicU64,
    /// See [`Metrics::schedule_requests`].
    pub synthesize_requests: AtomicU64,
    /// 2xx responses written.
    pub responses_ok: AtomicU64,
    /// 4xx responses written.
    pub responses_client_error: AtomicU64,
    /// 5xx responses written (including saturation 503s).
    pub responses_server_error: AtomicU64,
    /// Connections or requests shed with `503`: past the connection cap, past the
    /// full dispatch queue, or while draining.
    pub rejected_saturated: AtomicU64,
    /// Requests answered 429 because a tenant's token bucket ran dry.
    pub rejected_rate_limited: AtomicU64,
    /// Requests answered 429 because a tenant hit its in-flight quota.
    pub rejected_quota: AtomicU64,
    /// Keep-alive connections dropped for sitting idle past the idle timeout.
    pub idle_timeouts: AtomicU64,
    /// Connections dropped mid-request/mid-response for blowing a read or write
    /// deadline (the slow-loris counters, both directions).
    pub deadline_disconnects: AtomicU64,
    /// Connections currently open (gauge).
    pub open_connections: AtomicU64,
    /// Requests cut short by their deadline guard.
    pub deadline_exceeded: AtomicU64,
    /// Requests whose engine stage cancelled *itself* mid-loop (its
    /// [`CancelToken`](fcpn_petri::CancelToken) fired inside an exploration or sweep),
    /// as opposed to deadlines caught between stages. Always ≤
    /// [`Metrics::deadline_exceeded`].
    pub cancelled_in_stage: AtomicU64,
    /// Requests the process memory governor refused: shed with `503` + `Retry-After`
    /// when the pool is contended by in-flight work, or rejected with `400` when the
    /// budget asked for exceeds the pool outright (only moves with `--mem-budget`
    /// armed).
    pub rejected_memory: AtomicU64,
    /// Requests whose engine stage failed a charge against its per-request
    /// [`MemoryBudget`](fcpn_petri::MemoryBudget) — the typed `ResourceExhausted`
    /// path, answered `503` and never cached.
    pub resource_exhausted: AtomicU64,
    /// Requests currently being handled by a worker.
    pub in_flight: AtomicU64,
    /// Connections accepted, including those shed right after the accept.
    pub connections_accepted: AtomicU64,
    /// Entries reloaded from the persistent cache logs at startup (0 without
    /// persistence; set once at spawn).
    pub persist_recovered_entries: AtomicU64,
    /// Torn or corrupt log tails truncated during startup recovery (set once at spawn).
    pub persist_torn_tail_truncations: AtomicU64,
}

impl Metrics {
    /// Fresh counters; `started` anchors the uptime report.
    pub fn new() -> Self {
        Metrics {
            started: Instant::now(),
            requests_total: AtomicU64::new(0),
            schedule_requests: AtomicU64::new(0),
            analyze_requests: AtomicU64::new(0),
            codegen_requests: AtomicU64::new(0),
            synthesize_requests: AtomicU64::new(0),
            responses_ok: AtomicU64::new(0),
            responses_client_error: AtomicU64::new(0),
            responses_server_error: AtomicU64::new(0),
            rejected_saturated: AtomicU64::new(0),
            rejected_rate_limited: AtomicU64::new(0),
            rejected_quota: AtomicU64::new(0),
            idle_timeouts: AtomicU64::new(0),
            deadline_disconnects: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            cancelled_in_stage: AtomicU64::new(0),
            rejected_memory: AtomicU64::new(0),
            resource_exhausted: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            connections_accepted: AtomicU64::new(0),
            persist_recovered_entries: AtomicU64::new(0),
            persist_torn_tail_truncations: AtomicU64::new(0),
        }
    }

    /// Tallies a written response into the right status class.
    pub fn count_response(&self, status: u16) {
        let counter = match status {
            200..=299 => &self.responses_ok,
            400..=499 => &self.responses_client_error,
            _ => &self.responses_server_error,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the `/metrics` JSON body. Cache counters, queue state, the
    /// worker count and the per-tenant breakdown live outside this struct and arrive via
    /// [`RuntimeStats`].
    pub fn render(&self, stats: RuntimeStats) -> String {
        let get = |a: &AtomicU64| Json::from(a.load(Ordering::Relaxed));
        Json::obj([
            ("uptime_s", Json::from(self.started.elapsed().as_secs())),
            ("requests_total", get(&self.requests_total)),
            ("schedule_requests", get(&self.schedule_requests)),
            ("analyze_requests", get(&self.analyze_requests)),
            ("codegen_requests", get(&self.codegen_requests)),
            ("synthesize_requests", get(&self.synthesize_requests)),
            ("responses_ok", get(&self.responses_ok)),
            ("responses_client_error", get(&self.responses_client_error)),
            ("responses_server_error", get(&self.responses_server_error)),
            ("rejected_saturated", get(&self.rejected_saturated)),
            ("rejected_rate_limited", get(&self.rejected_rate_limited)),
            ("rejected_quota", get(&self.rejected_quota)),
            ("deadline_exceeded", get(&self.deadline_exceeded)),
            ("cancelled_in_stage", get(&self.cancelled_in_stage)),
            ("rejected_memory", get(&self.rejected_memory)),
            ("resource_exhausted", get(&self.resource_exhausted)),
            ("mem_bytes_in_use", Json::from(stats.mem_bytes_in_use)),
            ("mem_budget_bytes", Json::from(stats.mem_budget_bytes)),
            ("idle_timeouts", get(&self.idle_timeouts)),
            ("deadline_disconnects", get(&self.deadline_disconnects)),
            ("in_flight", get(&self.in_flight)),
            ("open_connections", get(&self.open_connections)),
            ("connections_accepted", get(&self.connections_accepted)),
            ("cache_hits", Json::from(stats.cache_hits)),
            ("cache_misses", Json::from(stats.cache_misses)),
            ("cache_entries", Json::from(stats.cache_entries)),
            ("cache_evictions", Json::from(stats.cache_evictions)),
            ("cache_bytes", Json::from(stats.cache_bytes)),
            (
                "persist_recovered_entries",
                get(&self.persist_recovered_entries),
            ),
            (
                "persist_torn_tail_truncations",
                get(&self.persist_torn_tail_truncations),
            ),
            ("queue_depth", Json::from(stats.queue_depth)),
            ("queue_capacity", Json::from(stats.queue_capacity)),
            ("workers", Json::from(stats.workers)),
            // Last on purpose: the nested per-tenant objects repeat key names like
            // `in_flight`, and flat text scans over this body (the chaos harness, shell
            // smoke tests) must hit the top-level counters first.
            ("tenants", stats.tenants),
        ])
        .render()
    }
}

/// Server-side state that accompanies the atomic counters in one `/metrics` render:
/// cache counters, dispatch-queue occupancy, the worker count and the per-tenant
/// breakdown.
#[derive(Debug)]
pub struct RuntimeStats {
    /// Whole-response cache hits.
    pub cache_hits: u64,
    /// Whole-response cache misses.
    pub cache_misses: u64,
    /// Live cache entries.
    pub cache_entries: usize,
    /// Cache evictions (LRU + byte budget).
    pub cache_evictions: u64,
    /// Bytes held by cached bodies.
    pub cache_bytes: u64,
    /// Bytes the process memory governor currently holds reserved for in-flight
    /// requests (gauge; 0 when `--mem-budget` is not armed).
    pub mem_bytes_in_use: u64,
    /// The process memory governor's total byte budget (0 when not armed).
    pub mem_budget_bytes: u64,
    /// Requests parked in the dispatch queue right now.
    pub queue_depth: usize,
    /// Dispatch queue capacity.
    pub queue_capacity: usize,
    /// CPU worker threads.
    pub workers: usize,
    /// Per-tenant counters ([`TenantGovernor::render_json`](crate::tenant::TenantGovernor::render_json)).
    pub tenants: Json,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn render_is_valid_json_with_all_counters() {
        let metrics = Metrics::new();
        metrics.requests_total.fetch_add(3, Ordering::Relaxed);
        metrics.count_response(200);
        metrics.count_response(404);
        metrics.count_response(503);
        metrics
            .persist_recovered_entries
            .fetch_add(11, Ordering::Relaxed);
        let body = metrics.render(RuntimeStats {
            cache_hits: 5,
            cache_misses: 7,
            cache_entries: 2,
            cache_evictions: 9,
            cache_bytes: 4096,
            mem_bytes_in_use: 1234,
            mem_budget_bytes: 1 << 20,
            queue_depth: 1,
            queue_capacity: 64,
            workers: 8,
            tenants: Json::obj([(
                "default",
                Json::obj([
                    ("admitted", Json::from(3u64)),
                    ("rejected", Json::from(0u64)),
                    ("in_flight", Json::from(0u64)),
                ]),
            )]),
        });
        let value = parse(&body).unwrap();
        assert_eq!(value.get("requests_total").unwrap().as_u64(), Some(3));
        assert_eq!(value.get("synthesize_requests").unwrap().as_u64(), Some(0));
        assert_eq!(
            value.get("rejected_rate_limited").unwrap().as_u64(),
            Some(0)
        );
        assert_eq!(value.get("idle_timeouts").unwrap().as_u64(), Some(0));
        assert_eq!(value.get("open_connections").unwrap().as_u64(), Some(0));
        assert_eq!(
            value
                .get("tenants")
                .unwrap()
                .get("default")
                .unwrap()
                .get("admitted")
                .unwrap()
                .as_u64(),
            Some(3)
        );
        // Flat scans must hit top-level counters before the nested tenant objects.
        assert!(body.find("\"in_flight\"").unwrap() < body.find("\"tenants\"").unwrap());
        assert_eq!(value.get("rejected_memory").unwrap().as_u64(), Some(0));
        assert_eq!(value.get("resource_exhausted").unwrap().as_u64(), Some(0));
        assert_eq!(value.get("mem_bytes_in_use").unwrap().as_u64(), Some(1234));
        assert_eq!(
            value.get("mem_budget_bytes").unwrap().as_u64(),
            Some(1 << 20)
        );
        assert!(body.find("\"mem_bytes_in_use\"").unwrap() < body.find("\"tenants\"").unwrap());
        assert_eq!(value.get("cancelled_in_stage").unwrap().as_u64(), Some(0));
        assert_eq!(value.get("cache_evictions").unwrap().as_u64(), Some(9));
        assert_eq!(value.get("cache_bytes").unwrap().as_u64(), Some(4096));
        assert_eq!(
            value.get("persist_recovered_entries").unwrap().as_u64(),
            Some(11)
        );
        assert_eq!(
            value.get("persist_torn_tail_truncations").unwrap().as_u64(),
            Some(0)
        );
        assert_eq!(value.get("responses_ok").unwrap().as_u64(), Some(1));
        assert_eq!(
            value.get("responses_client_error").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(
            value.get("responses_server_error").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(value.get("cache_hits").unwrap().as_u64(), Some(5));
        assert_eq!(value.get("queue_capacity").unwrap().as_u64(), Some(64));
    }
}
