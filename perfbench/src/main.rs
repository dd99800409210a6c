//! `perfbench` — the end-to-end and per-layer benchmark of the paper pipeline and the
//! `fcpn-served` daemon.
//!
//! ```text
//! perfbench --workload pipeline|serve_cold|serve_hot --seed N --seconds S --trace 0|1
//!           --daemon PATH --inputs DIR --trace-dir DIR [--tamper]
//! ```
//!
//! `perfbench/run.py` builds this binary and the daemon and passes the paths. The last
//! line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`,
//! holding the end-to-end metrics with `--trace 0` and the per-layer metrics with
//! `--trace 1`. `--tamper` corrupts one output before it is checked, so the run must
//! report it as failed (the smoke test uses this). Standard error gets each operation
//! kind's median latency and the kinds around p50 and p95.

mod pipeline;
mod pool;
mod report;
mod serve;
mod trace;

use report::{END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Metric values by name, in the order of a metric table.
pub type Values = Vec<(&'static str, f64)>;

/// Set-ups per run, at least; `setup_s` is their median.
const SETUPS: usize = 3;
/// Seconds of set-up per run, at least, so that a set-up of a few milliseconds is
/// repeated often enough, and over a long enough stretch, for a steady median.
const SETUP_SECONDS: f64 = 2.0;

/// The settings of one run.
#[derive(Debug)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub daemon: PathBuf,
    pub inputs: PathBuf,
    pub trace_dir: PathBuf,
    pub tamper: bool,
}

impl Run {
    /// Whether set-up should run again: at least [`SETUPS`] times and for at least
    /// [`SETUP_SECONDS`].
    pub fn more_setups(&self, done: &[f64]) -> bool {
        done.len() < SETUPS || done.iter().sum::<f64>() < SETUP_SECONDS
    }

    /// When measurement starts and ends, for a run starting now. Every run first
    /// spends half its length on unmeasured (but checked) operations: the first
    /// seconds of a process, and of load on the host, run measurably faster than the
    /// steady state, and without this the run-to-run spread was about twice as wide.
    pub fn window(&self) -> (Instant, Instant) {
        let measure_from = Instant::now() + self.seconds / 2;
        (measure_from, measure_from + self.seconds)
    }

    fn parse(args: &[String]) -> Result<Run, String> {
        let mut run = Run {
            workload: String::new(),
            seed: 1,
            seconds: Duration::from_secs(10),
            trace: false,
            daemon: PathBuf::new(),
            inputs: PathBuf::from("perfbench/inputs"),
            trace_dir: PathBuf::from(".bench_build/perfbench"),
            tamper: false,
        };
        let mut i = 0;
        while i < args.len() {
            if args[i] == "--tamper" {
                run.tamper = true;
                i += 1;
                continue;
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("bad {} {value}", args[i]))
            };
            match args[i].as_str() {
                "--workload" => run.workload = value.clone(),
                "--seed" => run.seed = number()?,
                "--seconds" => {
                    run.seconds =
                        Duration::from_secs_f64(value.parse().map_err(|_| "bad --seconds")?)
                }
                "--trace" => run.trace = number()? != 0,
                "--daemon" => run.daemon = value.into(),
                "--inputs" => run.inputs = value.into(),
                "--trace-dir" => run.trace_dir = value.into(),
                other => return Err(format!("unknown argument {other}")),
            }
            i += 2;
        }
        Ok(run)
    }

    /// Writes the traced run's spans and counters under the trace directory.
    pub fn write_trace(&self, tr: &Tracer) -> Result<(), String> {
        let path = self
            .trace_dir
            .join(format!("trace-{}-{}.tsv", self.workload, self.seed));
        tr.write(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Every per-layer metric, derived from the traced run's spans and counters; `extra`
/// supplies the ones measured elsewhere. A layer that did not run reads 0.
pub fn per_layer(tr: &Tracer, extra: &[(&str, f64)]) -> Values {
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let total = |span: &str| tr.total(span).0;
    let sum = |counter: &str| tr.counter(counter).0;
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let value = match extra.iter().find(|e| e.0 == name) {
                Some(e) => e.1,
                None => match name {
                    "qss.us_per_allocation" => {
                        ratio(total("qss.schedule") / 1e3, sum("qss.allocations"))
                    }
                    "exec.ns_per_event" => ratio(total("exec.run"), sum("exec.events")),
                    "exec.events_per_s" => ratio(sum("exec.events"), total("exec.run") / 1e9),
                    "statespace.states_per_s" => {
                        ratio(sum("statespace.states"), total("statespace.explore") / 1e9)
                    }
                    "handlers.self_ms" => tr.self_mean("handlers.handle", 1e6),
                    _ => {
                        let us = name.strip_suffix("_us").or(name.strip_suffix(".us"));
                        match (name.strip_suffix("_ms"), us) {
                            (Some(span), _) => tr.mean(span, 1e6),
                            (_, Some(span)) => tr.mean(span, 1e3),
                            _ => tr.counter_mean(name),
                        }
                    }
                },
            };
            (name, value)
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match Run::parse(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = pool::load(&run.inputs).and_then(|inputs| match run.workload.as_str() {
        "pipeline" => pipeline::run(&run, &inputs),
        "serve_cold" => serve::run(&run, &inputs, false),
        "serve_hot" => serve::run(&run, &inputs, true),
        other => Err(format!("unknown workload `{other}`")),
    });
    match outcome {
        Ok((tally, metrics)) if tally.attempted > 0 => {
            println!("{}", tally.line());
            let table: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
            println!("{}", report::result_line(&tally, table, &metrics));
        }
        Ok(_) => {
            eprintln!("perfbench: no operation completed");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
