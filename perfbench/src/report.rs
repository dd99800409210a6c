//! Metric names, units, percentiles and the result line.

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p95", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("generated_c_bytes", "bytes"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). Times and counts are
/// means per call of the layer; a layer that does not run on a workload reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("qss.schedule_ms", "ms"),
    ("qss.allocations", "count"),
    ("qss.us_per_allocation", "us"),
    ("qss.cycles", "count"),
    ("codegen.synthesize_ms", "ms"),
    ("codegen.ir_statements", "count"),
    ("codegen.emit_c_ms", "ms"),
    ("codegen.compile_us", "us"),
    ("codegen.bytecode_ops", "count"),
    ("exec.ns_per_event", "ns"),
    ("exec.events", "count"),
    ("exec.events_per_s", "1/s"),
    ("statespace.explore_ms", "ms"),
    ("statespace.states", "count"),
    ("statespace.edges", "count"),
    ("statespace.states_per_s", "1/s"),
    ("analysis.checks_ms", "ms"),
    ("io.parse_lts_ms", "ms"),
    ("synthesis.regions_ms", "ms"),
    ("synthesis.candidate_regions", "count"),
    ("synthesis.places", "count"),
    ("json.serialize_ms", "ms"),
    ("json.body_bytes", "bytes"),
    ("io.parse_net_ms", "ms"),
    ("fingerprint.us", "us"),
    ("cache.get_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("http.request_parse_us", "us"),
    ("http.write_us", "us"),
    ("http.response_bytes", "bytes"),
    ("cache.insert_us", "us"),
    ("cache.evictions", "count"),
    ("cache.misses", "count"),
    ("server.elapsed_us_p50", "us"),
    ("transport.wait_us_p50", "us"),
    ("handlers.handle_ms", "ms"),
    ("handlers.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// The `q`-quantile of `values` (linear interpolation between closest ranks).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Prints to standard error, per operation kind, its count and median latency, and
/// which kinds hold the samples around p50 and p95. The draw weights are chosen so
/// that p50 sits inside the light kinds and p95 inside the heavy ones, away from the
/// boundary between them.
pub fn print_profile(samples: &[(String, f64)]) {
    let mut kinds: Vec<(&str, Vec<f64>)> = Vec::new();
    for (kind, latency) in samples {
        match kinds.iter_mut().find(|k| k.0 == kind) {
            Some(k) => k.1.push(*latency),
            None => kinds.push((kind, vec![*latency])),
        }
    }
    kinds.sort_by(|a, b| quantile(&a.1, 0.5).total_cmp(&quantile(&b.1, 0.5)));
    for (kind, latencies) in &kinds {
        eprintln!(
            "profile {kind:<28} n={:<5} p50={:.3}ms",
            latencies.len(),
            quantile(latencies, 0.5)
        );
    }
    let mut sorted: Vec<&(String, f64)> = samples.iter().collect();
    sorted.sort_by(|a, b| a.1.total_cmp(&b.1));
    for q in [0.5, 0.95] {
        let rank = (q * (sorted.len() - 1) as f64).round() as usize;
        let lo = rank.saturating_sub(sorted.len() / 50);
        let hi = (rank + sorted.len() / 50).min(sorted.len() - 1);
        let around: Vec<&str> = sorted[lo..=hi].iter().map(|s| s.0.as_str()).collect();
        eprintln!(
            "profile q{q}: {} … {} … {}",
            around[0],
            sorted[rank].0,
            around[around.len() - 1]
        );
    }
}

/// `VmHWM` (peak resident set) of process `pid`, in MiB.
pub fn vm_hwm_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How the operations of one run ended.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub transport: u64,
    pub status: u64,
    pub shed: u64,
    pub mismatch: u64,
    pub cache_miss: u64,
    pub reconnects: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.transport + self.status + self.shed + self.mismatch + self.cache_miss
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.transport += other.transport;
        self.status += other.status;
        self.shed += other.shed;
        self.mismatch += other.mismatch;
        self.cache_miss += other.cache_miss;
        self.reconnects += other.reconnects;
    }

    /// The failure breakdown, one line; reconnects forced by the daemon's
    /// requests-per-connection cap are listed but are not failures.
    pub fn line(&self) -> String {
        format!(
            "failures attempted={} failed={} transport={} unexpected_status={} shed_503_429={} \
             body_mismatch={} unexpected_cache_miss={} | reconnects={}",
            self.attempted,
            self.failed(),
            self.transport,
            self.status,
            self.shed,
            self.mismatch,
            self.cache_miss,
            self.reconnects
        )
    }
}

/// Renders the result line: `{"correct", "attempted", "failed", "metrics"}`, with the
/// metrics of `table` in its order and with its units.
pub fn result_line(tally: &Tally, table: &[(&str, &str)], values: &[(&str, f64)]) -> String {
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = values
                .iter()
                .find(|v| v.0 == *name)
                .map(|v| v.1)
                .filter(|v| v.is_finite())
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed() == 0,
        tally.attempted,
        tally.failed(),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert!((quantile(&v, 0.95) - 4.8).abs() < 1e-12);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
