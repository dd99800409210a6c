//! Spans and counters recorded around calls into the program's layers.
//!
//! A span has a name, a start, an end, the span that caused it and the id of the
//! operation it belongs to. Spans and counters stay in memory during the traced run
//! and are written out once, when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// `(op, counter name, value)`.
    pub counters: Vec<(u64, &'static str, f64)>,
    op: u64,
    /// A disabled tracer records nothing, so traced and untraced runs share one code
    /// path and differ only by the recording.
    pub enabled: bool,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
            counters: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
            op: 0,
            enabled,
        }
    }

    /// Starts the spans of a new operation.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        if !self.enabled {
            return;
        }
        self.counters.push((self.op, name, value));
    }

    /// Total duration and number of the spans named `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.duration_ns() as f64, n + 1))
    }

    /// Mean duration of the spans named `name`, in `unit_ns` units (0 if none ran).
    pub fn mean(&self, name: &str, unit_ns: f64) -> f64 {
        match self.total(name) {
            (_, 0) => 0.0,
            (total, n) => total / n as f64 / unit_ns,
        }
    }

    /// Sum and number of the counter samples named `name`.
    pub fn counter(&self, name: &str) -> (f64, usize) {
        self.counters
            .iter()
            .filter(|c| c.1 == name)
            .fold((0.0, 0), |(t, n), c| (t + c.2, n + 1))
    }

    /// Mean of the counter samples named `name` (0 if none).
    pub fn counter_mean(&self, name: &str) -> f64 {
        match self.counter(name) {
            (_, 0) => 0.0,
            (total, n) => total / n as f64,
        }
    }

    /// Mean self time of the spans named `name`: each span's duration minus the
    /// durations of its child spans, in `unit_ns` units.
    pub fn self_mean(&self, name: &str, unit_ns: f64) -> f64 {
        let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                *child_ns.entry(parent).or_default() += span.duration_ns();
            }
        }
        let selves: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.duration_ns() as f64 - *child_ns.get(&i).unwrap_or(&0) as f64)
            .collect();
        if selves.is_empty() {
            0.0
        } else {
            selves.iter().sum::<f64>() / selves.len() as f64 / unit_ns
        }
    }

    /// Writes every span and counter as tab-separated lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# span\tid\tname\top\tparent\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "span\t{id}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "# counter\top\tname\tvalue")?;
        for (op, name, value) in &self.counters {
            writeln!(out, "counter\t{op}\t{name}\t{value}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.next_op();
        let root = t.open("root", None);
        t.span("child", Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let root_ms = t.mean("root", 1e6);
        let child_ms = t.mean("child", 1e6);
        assert!(child_ms >= 2.0);
        assert!((t.self_mean("root", 1e6) - (root_ms - child_ms)).abs() < 1e-9);
        assert_eq!(t.mean("absent", 1e6), 0.0);
    }
}
