//! `paper_runs`: the paper's own claims as a workload. One trial is
//! `run_game` in `Atomic`, `Linearizable` and `WriteStrongLinearizable` modes
//! at n = 5, plus one seeded `random_run` of Algorithm 2 and of Algorithm 4,
//! each history checked linearizable, and Algorithm 3's
//! `vector_linearization` validated against the Algorithm 2 history.
//!
//! A trial fails when the linearizable game terminates (Theorem 6), the
//! write strongly-linearizable or atomic game does not (Theorem 7), or an
//! Algorithm 2/4 history or Algorithm 3 linearization is rejected
//! (Theorems 10 and 12).

use crate::common::{derive, mean, metric, micros_since, repeated_setup, Stop, Tally};
use crate::trace::{self, Span};
use crate::{LayerCheck, Pass};
use rlt_game::{run_game, GameConfig};
use rlt_registers::schedule::{random_run, WorkloadParams};
use rlt_registers::{vector_linearization, LamportSim, VectorSim};
use rlt_sim::RegisterMode;
use rlt_spec::Checker;
use std::collections::BTreeMap;
use std::time::Instant;

/// Game processes.
const GAME_N: usize = 5;
/// Register-algorithm processes.
const REG_N: usize = 4;
/// Scheduler decisions per register run.
const REG_DECISIONS: usize = 120;
/// Warm-up trials, from a seed stream disjoint from the timed one.
const WARM_TRIALS: u64 = 20;
/// Seed-stream tags.
const TAG_TIMED: u64 = 0x9A9E;
const TAG_WARM: u64 = 0x3A56;

/// The game modes in reporting order, with their span names.
const MODES: [(RegisterMode, &str); 3] = [
    (RegisterMode::Linearizable, "game.linearizable"),
    (RegisterMode::WriteStrongLinearizable, "game.write_strong"),
    (RegisterMode::Atomic, "game.atomic"),
];

/// Opens a span only in the traced pass.
fn span(traced: bool, name: &'static str) -> Option<trace::Guard> {
    traced.then(|| trace::span(name, 0))
}

/// Runs one trial; returns `true` iff every outcome matches the theorems.
/// Game spans carry the executed round count as their request id.
fn trial(seed: u64, checker: &Checker<i64>, traced: bool) -> bool {
    let config = GameConfig::new(GAME_N);
    let mut ok = true;
    for (mode, name) in MODES {
        let t0 = trace::now_ns();
        let outcome = run_game(mode, &config, seed);
        if traced {
            trace::record_between(name, outcome.rounds_executed, t0, trace::now_ns());
        }
        ok &= match mode {
            RegisterMode::Linearizable => {
                !outcome.all_returned && outcome.rounds_executed == config.max_rounds
            }
            _ => outcome.all_returned,
        };
    }
    let params = WorkloadParams {
        decisions: REG_DECISIONS,
        write_fraction: 0.5,
    };
    let mut vector = VectorSim::new(REG_N);
    {
        let _s = span(traced, "registers.alg2");
        random_run(&mut vector, seed ^ 0xA2, params);
    }
    let mut lamport = LamportSim::new(REG_N);
    {
        let _s = span(traced, "registers.alg4");
        random_run(&mut lamport, seed ^ 0xA4, params);
    }
    let trace_2 = vector.trace();
    {
        let _s = span(traced, "engine.check");
        ok &= checker.check(&trace_2.history).is_linearizable();
        ok &= checker.check(&lamport.history()).is_linearizable();
    }
    let linearization = {
        let _s = span(traced, "registers.alg3");
        vector_linearization(&trace_2, None)
    };
    ok && linearization.is_some_and(|l| l.is_linearization_of(&trace_2.history, &0))
}

/// Set-up: the trial seed stream and a warm-up over disjoint seeds.
fn setup(seed: u64) -> (u64, Tally) {
    let checker = Checker::new(0i64);
    let mut tally = Tally::default();
    let warm = derive(seed, TAG_WARM);
    for i in 0..WARM_TRIALS {
        if !trial(warm ^ i, &checker, false) {
            tally.divergences += 1;
        }
    }
    (derive(seed, TAG_TIMED), tally)
}

fn judge(ok: bool, tally: &mut Tally) {
    tally.attempted += 1;
    if !ok {
        tally.failed += 1;
        tally.divergences += 1;
    }
}

/// The untraced run: repeated set-ups (their median is reported), then
/// trials until the stop condition.
pub fn run(seed: u64, stop: impl Fn() -> Stop) -> (Pass, Vec<f64>) {
    let ((base, warm), setups) = repeated_setup(|| setup(seed), drop);
    let stop = stop();
    let checker = Checker::new(0i64);
    let mut p = Pass::start(&stop);
    p.tally.divergences = warm.divergences;
    let mut k = 0u64;
    while !stop.done(k) {
        let s0 = Instant::now();
        let ok = trial(base ^ k, &checker, false);
        p.record(micros_since(s0), 1.0);
        judge(ok, &mut p.tally);
        k += 1;
    }
    p.finish();
    (p, setups)
}

/// The traced run: each trial runs untraced (timed) and then traced on the
/// same seed.
pub fn traced(seed: u64, seconds: f64, ops: Option<u64>) -> LayerCheck {
    let base = derive(seed, TAG_TIMED);
    let checker = Checker::new(0i64);
    let stop = Stop::new(seconds, ops);
    let mut tally = Tally::default();
    let (mut untraced, mut traced_us) = (Vec::new(), Vec::new());
    let _ = trace::drain();
    let mut k = 0u64;
    while !stop.done(k) {
        let s0 = Instant::now();
        judge(trial(base ^ k, &checker, false), &mut tally);
        untraced.push(micros_since(s0));
        let s1 = Instant::now();
        {
            let _s = trace::span("paper.trial", k);
            judge(trial(base ^ k, &checker, true), &mut tally);
        }
        traced_us.push(micros_since(s1));
        k += 1;
    }
    let spans = trace::drain();
    let n = k.max(1) as f64;
    let total = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .sum::<f64>()
    };
    let per_round = |name: &str| {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.micros() / s.req.max(1) as f64)
            .collect();
        mean(&v)
    };
    let game: f64 = MODES.iter().map(|(_, name)| total(name)).sum();
    let registers = total("registers.alg2") + total("registers.alg4") + total("registers.alg3");
    let engine = total("engine.check");
    // Each trial's own time outside the game, register and engine spans
    // nested in it: outcome checks and history assembly.
    let mut nested: BTreeMap<u64, f64> = BTreeMap::new();
    for s in &spans {
        *nested.entry(s.parent).or_default() += s.micros();
    }
    let residuals = spans
        .iter()
        .filter(|s| s.name == "paper.trial")
        .map(|s| s.micros() - nested.get(&s.id).copied().unwrap_or(0.0))
        .collect();
    let metrics = vec![
        metric(
            "game.round_us.linearizable",
            per_round("game.linearizable"),
            "us",
        ),
        metric(
            "game.round_us.write_strong",
            per_round("game.write_strong"),
            "us",
        ),
        metric("game.round_us.atomic", per_round("game.atomic"), "us"),
        metric("registers.alg2_run_us", total("registers.alg2") / n, "us"),
        metric("registers.alg4_run_us", total("registers.alg4") / n, "us"),
        metric("registers.alg3_us", total("registers.alg3") / n, "us"),
    ];
    LayerCheck {
        workload: "paper_runs",
        metrics,
        layers: vec![
            ("game", game / n),
            ("registers", registers / n),
            ("engine", engine / n),
        ],
        residuals,
        untraced_us: mean(&untraced),
        traced_us: mean(&traced_us),
        ops: k as f64,
        tally,
        spans,
    }
}
