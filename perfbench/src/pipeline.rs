//! The `pipeline` workload: the paper pipeline as a library user runs it, one thread,
//! closed loop.
//!
//! One operation takes one net through `parse_net` → `quasi_static_schedule` →
//! `fcpn_codegen::synthesize` → `emit_c` → `CompiledProgram::compile` (its latency),
//! then runs [`ACTIVATIONS_PER_TASK`] activations of each task on an `ExecSession`
//! with a seeded resolver. Each operation is checked against independent references: every schedule
//! cycle is replayed with the checked `PetriNet::fire` and must return to the initial
//! marking; the bytecode's fire counts must equal the tree-walking `Interpreter`'s on
//! the first [`PREFIX`] activations; `figure7` must come out NotSchedulable; the C text
//! must be as long as in set-up.

use crate::pool::{self, Deck, Input, Kind, Rng};
use crate::report::{self, Tally};
use crate::trace::Tracer;
use crate::{Run, Values};
use fcpn_codegen::{
    emit_c, synthesize, CEmitOptions, ChoiceResolver, CompiledProgram, ExecSession, Interpreter,
    Program, SynthesisOptions,
};
use fcpn_petri::io::parse_net;
use fcpn_petri::{PetriNet, PlaceId, TransitionId};
use fcpn_qss::{
    allocation_iter_gray, quasi_static_schedule, AllocationOptions, QssOptions, QssOutcome,
};
use std::time::{Duration, Instant};

/// Activations of each task per operation; the tasks take turns, round-robin.
pub const ACTIVATIONS_PER_TASK: usize = 1024;
/// Activations replayed on the `Interpreter` to check the bytecode.
pub const PREFIX: usize = 64;

/// Draw weights per deck of 100 operations. The light inputs hold 80 of 100 and
/// `figure5` the middle 28 of them, so p50 sits inside the `figure5` block. Heavy
/// (`atm_q4`, `choice_chain_12`) is 11 in 100, and `atm_q4` holds ranks 89–98, so
/// p95 sits inside its block.
pub const WEIGHTS: [(&str, usize); 10] = [
    ("figure2", 8),
    ("figure3a", 8),
    ("figure4", 12),
    ("figure7", 8),
    ("figure5", 28),
    ("choice_chain_6", 16),
    ("atm_q2", 4),
    ("choice_chain_10", 5),
    ("atm_q4", 10),
    ("choice_chain_12", 1),
];

/// A resolver that picks choice arms from a seeded stream.
struct SeededResolver(Rng);

impl ChoiceResolver for SeededResolver {
    fn resolve(&mut self, _place: PlaceId, candidates: &[TransitionId]) -> TransitionId {
        candidates[self.0.below(candidates.len())]
    }
}

/// The times of one operation.
struct OpResult {
    /// Text to bytecode plus C.
    latency: Duration,
    /// Latency plus the activations.
    busy: Duration,
}

/// One checked operation. `expected_c` is the C length of this net from set-up
/// (`None` for the unschedulable input).
fn run_op(
    text: &str,
    expected_c: Option<usize>,
    resolver_seed: u64,
    tr: &mut Tracer,
    tamper: bool,
) -> Result<OpResult, String> {
    tr.next_op();
    let start = Instant::now();
    let root = tr.open("op", None);
    let net = tr
        .span("io.parse_net", Some(root), || parse_net(text))
        .map_err(|e| format!("parse: {e}"))?;
    let outcome = tr
        .span("qss.schedule", Some(root), || {
            quasi_static_schedule(&net, &QssOptions::default())
        })
        .map_err(|e| format!("schedule: {e}"))?;
    if tr.enabled {
        let allocations = allocation_iter_gray(&net, AllocationOptions::default())
            .map_err(|e| format!("allocations: {e}"))?
            .total();
        tr.count("qss.allocations", allocations as f64);
    }
    let schedule = match outcome {
        QssOutcome::NotSchedulable(_) => {
            let latency = start.elapsed();
            tr.close(root);
            return match expected_c {
                None => Ok(OpResult {
                    latency,
                    busy: latency,
                }),
                Some(_) => Err(format!("{} reported NotSchedulable", net.name())),
            };
        }
        QssOutcome::Schedulable(schedule) => schedule,
    };
    tr.count("qss.cycles", schedule.cycle_count() as f64);
    let program = tr
        .span("codegen.synthesize", Some(root), || {
            synthesize(&net, &schedule, SynthesisOptions::default())
        })
        .map_err(|e| format!("synthesize: {e}"))?;
    tr.count("codegen.ir_statements", program.size() as f64);
    let c = tr.span("codegen.emit_c", Some(root), || {
        emit_c(&program, &net, CEmitOptions::default())
    });
    let compiled = tr.span("codegen.compile", Some(root), || {
        CompiledProgram::compile(&program, &net)
    });
    tr.count("codegen.bytecode_ops", compiled.op_count() as f64);
    let latency = start.elapsed();

    let exec_span = tr.open("exec.run", Some(root));
    let mut session = ExecSession::new(&compiled);
    let mut resolver = SeededResolver(Rng::new(resolver_seed));
    let mut events = pump(&mut session, 0, PREFIX, &mut resolver)?;
    let mut prefix_counts = session.fire_counts().to_vec();
    let activations = ACTIVATIONS_PER_TASK * compiled.task_count();
    events += pump(&mut session, PREFIX, activations, &mut resolver)?;
    tr.close(exec_span);
    tr.count("exec.events", events as f64);
    let busy = start.elapsed();
    tr.close(root);

    // Checks, outside every timed region.
    if expected_c.is_none() {
        return Err(format!("{} should be NotSchedulable", net.name()));
    }
    if expected_c != Some(c.len()) {
        return Err(format!("{}: C text length changed", net.name()));
    }
    replay_cycles(
        &net,
        &schedule
            .cycles
            .iter()
            .map(|c| &c.sequence[..])
            .collect::<Vec<_>>(),
    )?;
    if tamper {
        prefix_counts[0] += 1;
    }
    let reference = interpret_prefix(&program, &net, resolver_seed)?;
    if reference != prefix_counts {
        return Err(format!(
            "{}: bytecode and interpreter fire counts differ",
            net.name()
        ));
    }
    Ok(OpResult { latency, busy })
}

/// Runs activations `from..to` of the round-robin activation stream.
fn pump(
    session: &mut ExecSession<'_>,
    from: usize,
    to: usize,
    resolver: &mut SeededResolver,
) -> Result<u64, String> {
    let tasks = session.compiled().task_count();
    if tasks == 1 {
        let fired = session
            .run_batch(0, (to - from) as u64, resolver)
            .map_err(|e| format!("exec: {e}"))?;
        return Ok(fired.len() as u64);
    }
    let mut events = 0u64;
    for activation in from..to {
        events += session
            .run_task(activation % tasks, resolver)
            .map_err(|e| format!("exec: {e}"))?
            .len() as u64;
    }
    Ok(events)
}

/// Fire counts of the `Interpreter` after the first [`PREFIX`] activations.
fn interpret_prefix(program: &Program, net: &PetriNet, seed: u64) -> Result<Vec<u64>, String> {
    let mut interpreter = Interpreter::new(program, net);
    let mut resolver = SeededResolver(Rng::new(seed));
    for activation in 0..PREFIX {
        interpreter
            .run_task(activation % program.task_count(), &mut resolver)
            .map_err(|e| format!("interpreter: {e}"))?;
    }
    Ok(interpreter.fire_counts().to_vec())
}

/// Every cycle, fired with the checked `PetriNet::fire` from the initial marking, must
/// end at the initial marking.
pub fn replay_cycles(net: &PetriNet, cycles: &[&[TransitionId]]) -> Result<(), String> {
    for cycle in cycles {
        let mut marking = net.initial_marking().clone();
        for &t in *cycle {
            net.fire(&mut marking, t)
                .map_err(|e| format!("{}: cycle does not fire: {e}", net.name()))?;
        }
        if &marking != net.initial_marking() {
            return Err(format!("{}: cycle does not return to M0", net.name()));
        }
    }
    Ok(())
}

/// Set-up: the expected C length of every pool net, found by one pass of the chain
/// over each (which also leaves every lazy initialisation done before timing).
pub fn c_lengths(inputs: &[Input]) -> Result<Vec<Option<usize>>, String> {
    inputs
        .iter()
        .map(|input| {
            if input.kind != Kind::Net {
                return Ok(None);
            }
            let net = parse_net(&input.text).map_err(|e| format!("{}: {e}", input.label))?;
            match quasi_static_schedule(&net, &QssOptions::default())
                .map_err(|e| format!("{}: {e}", input.label))?
            {
                QssOutcome::NotSchedulable(_) => Ok(None),
                QssOutcome::Schedulable(schedule) => {
                    let program = synthesize(&net, &schedule, SynthesisOptions::default())
                        .map_err(|e| format!("{}: {e}", input.label))?;
                    let c = emit_c(&program, &net, CEmitOptions::default());
                    let _ = CompiledProgram::compile(&program, &net);
                    Ok(Some(c.len()))
                }
            }
        })
        .collect()
}

/// The operations of a run: pool index and resolver seed, from the workload seed.
struct Ops {
    deck: Deck<usize>,
    rng: Rng,
}

impl Ops {
    fn new(seed: u64) -> Ops {
        let weights: Vec<(usize, usize)> = WEIGHTS
            .iter()
            .map(|&(label, n)| (pool::index_of(label), n))
            .collect();
        Ops {
            deck: Deck::new(&weights, Rng::new(seed)),
            rng: Rng::new(seed.wrapping_add(1)),
        }
    }

    fn next(&mut self) -> (usize, u64) {
        (self.deck.draw(), self.rng.next_u64())
    }
}

pub fn run(run: &Run, inputs: &[Input]) -> Result<(Tally, Values), String> {
    // Set-up, several times; the last result is used.
    let mut setups = Vec::new();
    let mut expected_c = Vec::new();
    while run.more_setups(&setups) {
        let start = Instant::now();
        expected_c = c_lengths(inputs)?;
        setups.push(start.elapsed().as_secs_f64());
    }
    let generated_c_bytes: usize = expected_c.iter().flatten().sum();

    // The untraced run: end-to-end metrics. Its warm-up draws from a stream of its
    // own, so the traced run replays exactly the measured operations.
    let mut tally = Tally::default();
    let mut tr = Tracer::new(false);
    let mut warm_ops = Ops::new(!run.seed);
    let (measure_from, deadline) = run.window();
    while Instant::now() < measure_from {
        let (input, seed) = warm_ops.next();
        tally.attempted += 1;
        if let Err(e) = run_op(&inputs[input].text, expected_c[input], seed, &mut tr, false) {
            eprintln!("pipeline: warm-up operation failed: {e}");
            tally.mismatch += 1;
        }
    }
    let mut ops = Ops::new(run.seed);
    let (mut latencies, mut busy, mut kinds) = (Vec::new(), Vec::new(), Vec::new());
    let mut tamper = run.tamper;
    while Instant::now() < deadline {
        let (input, seed) = ops.next();
        tally.attempted += 1;
        // `--tamper` corrupts the first schedulable operation's output.
        let tampered = tamper && expected_c[input].is_some();
        tamper &= !tampered;
        match run_op(
            &inputs[input].text,
            expected_c[input],
            seed,
            &mut tr,
            tampered,
        ) {
            Ok(out) => {
                latencies.push(out.latency.as_secs_f64() * 1e3);
                busy.push(out.busy.as_secs_f64());
                kinds.push(inputs[input].label.to_string());
            }
            Err(e) => {
                eprintln!("pipeline: operation {} failed: {e}", tally.attempted);
                tally.mismatch += 1;
            }
        }
    }
    let busy_s: f64 = busy.iter().sum();
    report::print_profile(
        &kinds
            .into_iter()
            .zip(latencies.iter().copied())
            .collect::<Vec<_>>(),
    );
    if !run.trace {
        let metrics = vec![
            ("setup_s", report::quantile(&setups, 0.5)),
            ("ops_per_s", busy.len() as f64 / busy_s),
            ("latency_ms_p50", report::quantile(&latencies, 0.5)),
            ("latency_ms_p95", report::quantile(&latencies, 0.95)),
            (
                "ok_ratio",
                1.0 - tally.failed() as f64 / tally.attempted as f64,
            ),
            ("peak_rss_mb", report::vm_hwm_mb("self")),
            ("generated_c_bytes", generated_c_bytes as f64),
        ];
        return Ok((tally, metrics));
    }

    // The traced run replays the same operations, at most as many and for at most as
    // long as the untraced run.
    let mut ops = Ops::new(run.seed);
    let mut tr = Tracer::new(true);
    let mut traced_busy = Vec::new();
    let deadline = Instant::now() + run.seconds;
    while traced_busy.len() < busy.len() && Instant::now() < deadline {
        let (input, seed) = ops.next();
        let out = run_op(&inputs[input].text, expected_c[input], seed, &mut tr, false)?;
        traced_busy.push(out.busy.as_secs_f64());
    }
    let replayed = traced_busy.len();
    let overhead = traced_busy.iter().sum::<f64>() / busy[..replayed].iter().sum::<f64>();
    run.write_trace(&tr)?;
    Ok((
        tally,
        crate::per_layer(&tr, &[("trace.overhead_ratio", overhead)]),
    ))
}
