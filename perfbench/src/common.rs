//! Shared plumbing: command-line arguments, seeded derivation, summary
//! statistics, the result line, and the host facts every run records.

use rlt_spec::{History, OpKind, Operation, Value};
use std::time::{Duration, Instant};

/// Seed used when `--seed` is absent (also recorded in `perfbench/manifest.json`).
pub const DEFAULT_SEED: u64 = 1;

/// How many times each workload builds its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (`check_http`, `monitor_stream`, `fuzz_rediscovery`, `paper_runs`).
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured seconds of the run.
    pub seconds: f64,
    /// `true` for the traced per-layer run.
    pub trace: bool,
    /// Fixed-work mode: each measured pass does exactly this many operations
    /// instead of running for `seconds` (used by the count-determinism test).
    pub ops: Option<u64>,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1 [--ops N]`.
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            ops: None,
        };
        while let Some(flag) = argv.next() {
            let value = argv
                .next()
                .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
            let bad = || format!("bad value `{value}` for `{flag}`");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--ops" => args.ops = Some(value.parse().map_err(|_| bad())?),
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        if args.workload.is_empty() {
            return Err("missing `--workload`".to_string());
        }
        if args.seconds.is_nan() || args.seconds <= 0.0 {
            return Err("`--seconds` must be positive".to_string());
        }
        Ok(args)
    }
}

/// Builds a set-up [`SETUP_REPEATS`] times, handing all but the last to
/// `discard`. Returns the last one and the seconds each build took.
pub fn repeated_setup<T>(
    mut build: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        let (built, us) = timed(&mut build);
        secs.push(us / 1e6);
        if let Some(old) = kept.replace(built) {
            discard(old);
        }
    }
    (kept.expect("SETUP_REPEATS is positive"), secs)
}

/// When a measured pass stops: at a deadline, or after a fixed operation count.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Run until this instant.
    At(Instant),
    /// Run exactly this many operations.
    After(u64),
}

impl Stop {
    /// A pass lasting `seconds` (or `ops` operations in fixed-work mode).
    pub fn new(seconds: f64, ops: Option<u64>) -> Stop {
        match ops {
            Some(n) => Stop::After(n),
            None => Stop::At(Instant::now() + Duration::from_secs_f64(seconds)),
        }
    }

    /// `true` once operation number `done` (0-based count so far) should not start.
    pub fn done(&self, done: u64) -> bool {
        match self {
            Stop::At(t) => Instant::now() >= *t,
            Stop::After(n) => done >= *n,
        }
    }

    /// Operations for one of `parts` equal shares (fixed-work mode only).
    pub fn share(&self, parts: u64, part: u64) -> Stop {
        match self {
            Stop::At(t) => Stop::At(*t),
            Stop::After(n) => Stop::After(n / parts + u64::from(part < n % parts)),
        }
    }
}

/// SplitMix64 finalizer: derives independent seeds from one `--seed`. The
/// fuzz module uses the same mixer, so the fuzz wrapper re-derives its seeds
/// with it.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seed for stream `tag` of run seed `seed`.
#[must_use]
pub fn derive(seed: u64, tag: u64) -> u64 {
    mix64(seed ^ mix64(tag))
}

/// Maps the i64 workload domain into [`Value`] bijectively (`0` is the initial
/// value on both sides), so verdicts over the mapped history are the verdicts
/// of the original.
#[must_use]
pub fn to_value_history(h: &History<i64>) -> History<Value> {
    let val = |v: i64| if v == 0 { Value::Init } else { Value::Int(v) };
    let ops = h
        .operations()
        .iter()
        .map(|op| Operation {
            id: op.id,
            process: op.process,
            register: op.register,
            kind: match &op.kind {
                OpKind::Write(v) => OpKind::Write(val(*v)),
                OpKind::Read(Some(v)) => OpKind::Read(Some(val(*v))),
                OpKind::Read(None) => OpKind::Read(None),
            },
            invoked_at: op.invoked_at,
            responded_at: op.responded_at,
        })
        .collect();
    History::from_operations(ops)
}

/// Microseconds elapsed since `t0`.
#[must_use]
pub fn micros_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// Times `f`, returning its result and the elapsed microseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, micros_since(t0))
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation; 0 when empty.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Arithmetic mean; 0 when empty.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 if unreadable.
#[must_use]
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output matched its direct library counterpart.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (shed request, I/O error, censored hunt or
    /// unverified trophy, contradicted theorem).
    pub failed: u64,
    /// Metrics of the result line.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The result line: one JSON object with `correct`, `attempted`, `failed`
    /// and `metrics`.
    #[must_use]
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Correctness and failure tallies of one measured pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed without contradicting the library.
    pub failed: u64,
    /// Outputs that contradict the direct library result.
    pub divergences: u64,
}

impl Tally {
    /// Adds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.divergences += other.divergences;
    }
}
