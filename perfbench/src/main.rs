//! The repository benchmark: four seeded closed-loop workloads over the
//! checking stack, each output checked against the direct library result.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <check_http|monitor_stream|fuzz_rediscovery|paper_runs> \
//!     --seed <n> --seconds <s> --trace <0|1> [--ops <n>]
//! ```
//!
//! With `--trace 0` the run sets the workload up five times (the median is
//! `setup_s`), measures it for `--seconds`, and reports the end-to-end
//! metrics. With `--trace 1` it runs every workload in alternating untraced
//! and traced passes, the traced ones with in-memory spans around public
//! calls made from this crate, and reports the per-layer metrics, the
//! layer-sum self-check and the tracing overhead. `--ops n` replaces the time limit with a fixed operation count,
//! which makes every count metric repeat exactly. The last line of standard
//! output is the JSON result; any output that contradicts the library makes
//! `correct` false and the exit code 1.

mod check_http;
mod common;
mod fuzzing;
mod monitor;
mod paper;
mod record;
mod serving;
mod trace;

use common::{mean, metric, quantile, ratio, rss_peak_mb, Args, Metric, Report, Stop, Tally};
pub use record::Pass;
use record::WINDOWS;
use std::path::PathBuf;

/// The workloads, in the order the traced run visits them.
const WORKLOADS: [&str; 4] = [
    "check_http",
    "monitor_stream",
    "fuzz_rediscovery",
    "paper_runs",
];

/// Allowed distance of a workload's layer-time sum (unattributed time
/// included) from its untraced end-to-end time, as a share of the latter.
const LAYER_SUM_TOLERANCE: f64 = 0.10;

/// Largest share of operations whose residual may be negative. Timing noise
/// makes a few negative; a layer measured too long makes most of them so.
const NEGATIVE_RESIDUAL_LIMIT: f64 = 0.25;

/// The traced pass of one workload, split into layers.
#[derive(Debug)]
pub struct LayerCheck {
    /// Workload name.
    pub workload: &'static str,
    /// Per-layer metrics this workload measures.
    pub metrics: Vec<Metric>,
    /// Mean time per operation of each measured layer, microseconds.
    pub layers: Vec<(&'static str, f64)>,
    /// Per operation, the traced operation's time the measured layers leave
    /// unexplained, microseconds. Negative when the layers claim more time
    /// than the operation took.
    pub residuals: Vec<f64>,
    /// Mean untraced end-to-end time per operation, microseconds.
    pub untraced_us: f64,
    /// Mean traced end-to-end time per operation, microseconds.
    pub traced_us: f64,
    /// Operations of the traced pass.
    pub ops: f64,
    /// Failures and divergences of both passes.
    pub tally: Tally,
    /// The spans themselves, written out at the end of the run.
    pub spans: Vec<trace::Span>,
}

/// Logical CPUs of the host, from `/proc/cpuinfo` (0 if unreadable).
fn host_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// Microseconds one pass of the kept reference checker takes over a fixed
/// corpus (median of seven passes): the host-speed base for ratios.
fn host_calibration() -> f64 {
    let corpus = rlt_bench::small_history_corpus(256, 14, 2, 42);
    let passes: Vec<f64> = (0..7)
        .map(|_| {
            common::timed(|| {
                corpus
                    .iter()
                    .filter(|h| {
                        rlt_spec::reference::reference_check_linearizable(
                            h,
                            &0,
                            rlt_spec::DEFAULT_STATE_LIMIT,
                        )
                        .is_some()
                    })
                    .count()
            })
            .1
        })
        .collect();
    quantile(&passes, 0.5)
}

/// Whether a run is correct: no output contradicted the library, and no
/// operation failed. No operation fails at this commit (no request is shed
/// at two closed-loop clients, and no hunt is censored), so a failure is a
/// regression and not a faster answer.
fn verdict(tally: &Tally) -> bool {
    if tally.failed > 0 {
        eprintln!(
            "FAILED: {} of {} operations failed",
            tally.failed, tally.attempted
        );
    }
    tally.divergences == 0 && tally.failed == 0
}

fn untraced(args: &Args) -> Report {
    let stop = || Stop::new(args.seconds, args.ops);
    let mut untrophied = None;
    let (pass, setups) = match args.workload.as_str() {
        "check_http" => check_http::run(args.seed, stop),
        "monitor_stream" => monitor::run(args.seed, stop),
        "fuzz_rediscovery" => {
            let (pass, setups, n) = fuzzing::run(args.seed, stop);
            untrophied = Some(n);
            (pass, setups)
        }
        _ => paper::run(args.seed, stop),
    };
    // The tail has at least ten samples beyond it in a window: p90 for fuzz
    // seeds and p95 for paper trials (a few hundred per window). check_http
    // uses p99, which falls among the large bodies and so prices the engine.
    // monitor_stream uses p95: its p99 is set by polls stalled behind a
    // sessions-mutex holder the host preempted, and moved by 30% between
    // runs of one build where p95 moved by 10%.
    let tail_q = match args.workload.as_str() {
        "check_http" => 0.99,
        "fuzz_rediscovery" => 0.90,
        _ => 0.95,
    };
    let (throughput, p50, tail) = pass.windowed(tail_q);
    let setup = quantile(&setups, 0.5);
    let rss = rss_peak_mb();
    let failed_frac = ratio(pass.tally.failed as f64, pass.tally.attempted as f64);
    // The workload's own names for the same numbers.
    let named: Vec<(&str, f64, &str)> = match args.workload.as_str() {
        "check_http" => vec![
            ("check_rps", throughput, "1/s"),
            ("check_p50_us", p50, "us"),
            ("check_p99_us", tail, "us"),
        ],
        "monitor_stream" => vec![
            ("events_per_s", throughput, "1/s"),
            ("poll_p50_us", p50, "us"),
            ("poll_p95_us", tail, "us"),
        ],
        "fuzz_rediscovery" => vec![
            ("trophy_ms_p50", p50 / 1e3, "ms"),
            ("trophy_ms_p90", tail / 1e3, "ms"),
            ("seeds_per_s", throughput, "1/s"),
        ],
        _ => vec![
            ("paper_trials_per_s", throughput, "1/s"),
            ("trial_p50_us", p50, "us"),
            ("trial_p95_us", tail, "us"),
        ],
    };
    for (name, value, unit) in named {
        println!("{}.{name} {value} {unit}", args.workload);
    }
    println!(
        "{}.samples {} in {WINDOWS} windows, tail quantile {tail_q}",
        args.workload,
        pass.ops()
    );
    println!("{}.failed_frac {failed_frac} ratio", args.workload);
    if let Some(n) = untrophied {
        let frac = ratio(n as f64, pass.tally.attempted as f64);
        println!("{}.untrophied_frac {frac} ratio", args.workload);
    }
    // Taken after the timed pass, so it lengthens neither set-up nor the
    // measurement; it tells host drift apart from program change.
    println!(
        "host: cpus {} pool_width {} calib_us {}",
        host_cpus(),
        rayon::current_num_threads(),
        host_calibration()
    );
    Report {
        correct: verdict(&pass.tally),
        attempted: pass.tally.attempted.max(1),
        failed: pass.tally.failed,
        metrics: vec![
            metric("setup_s", setup, "s"),
            metric("throughput_per_s", throughput, "1/s"),
            metric("latency_p50_us", p50, "us"),
            metric("latency_tail_us", tail, "us"),
            metric("rss_peak_mb", rss, "MB"),
        ],
    }
}

fn traced(args: &Args) -> Report {
    let calib = host_calibration();
    let span_ns = trace::span_cost_ns(100_000);
    // Every workload gets an equal share of the time, split between
    // alternating untraced and traced passes, so each run reports every
    // per-layer metric and every self-check.
    let share = args.seconds / WORKLOADS.len() as f64;
    let mut checks = Vec::new();
    for w in WORKLOADS {
        checks.push(match w {
            "check_http" => check_http::traced(args.seed, share, args.ops),
            "monitor_stream" => monitor::traced(args.seed, share, args.ops),
            "fuzz_rediscovery" => fuzzing::traced(args.seed, share, args.ops),
            _ => paper::traced(args.seed, share, args.ops),
        });
    }
    let mut tally = Tally::default();
    let mut metrics = Vec::new();
    let mut spans = Vec::new();
    let mut self_check = true;
    for c in &mut checks {
        tally.absorb(c.tally);
        metrics.append(&mut c.metrics);
        let unattributed = mean(&c.residuals);
        let negative = ratio(
            c.residuals.iter().filter(|&&r| r < 0.0).count() as f64,
            c.residuals.len() as f64,
        );
        let sum = c.layers.iter().map(|(_, us)| us).sum::<f64>() + unattributed;
        let sum_ratio = ratio(sum, c.untraced_us);
        let overhead = ratio(c.spans.len() as f64 * span_ns / 1e3, c.traced_us * c.ops);
        let layers: Vec<String> = c
            .layers
            .iter()
            .map(|(name, us)| format!("{name} {us:.1}"))
            .collect();
        println!(
            "{}: layers(us/op) {}, unattributed {unattributed:.1} ({negative:.3} of ops negative) | sum {sum:.1} vs untraced {:.1} (ratio {sum_ratio:.3}), traced {:.1}, span overhead {:.4}",
            c.workload,
            layers.join(", "),
            c.untraced_us,
            c.traced_us,
            overhead
        );
        let mut fault = Vec::new();
        if (sum_ratio - 1.0).abs() > LAYER_SUM_TOLERANCE {
            fault.push(format!("layer sum is {sum_ratio:.3} of the untraced time"));
        }
        if unattributed < 0.0 || negative > NEGATIVE_RESIDUAL_LIMIT {
            fault.push(format!(
                "layers exceed the traced operation (unattributed {unattributed:.1} us, {negative:.3} of ops negative)"
            ));
        }
        if !fault.is_empty() {
            eprintln!("self-check: {}: {}", c.workload, fault.join("; "));
            self_check = false;
        }
        metrics.push(metric(
            format!("trace.{}.layer_sum_gap", c.workload),
            (sum_ratio - 1.0).abs(),
            "ratio",
        ));
        metrics.push(metric(
            format!("trace.{}.unattributed_frac", c.workload),
            ratio(unattributed, c.untraced_us),
            "ratio",
        ));
        metrics.push(metric(
            format!("trace.{}.negative_residual_frac", c.workload),
            negative,
            "ratio",
        ));
        metrics.push(metric(
            format!("trace.{}.overhead_frac", c.workload),
            overhead,
            "ratio",
        ));
        spans.append(&mut c.spans);
    }
    metrics.push(metric("host.calib_us", calib, "us"));
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    let path = dir
        .join("perfbench-traces")
        .join(format!("{}-{}.tsv", args.workload, args.seed));
    match trace::write(&path, &spans) {
        Ok(()) => println!("trace: {} spans written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
    println!(
        "host: cpus {} pool_width {} calib_us {calib} span_ns {span_ns} self_check {}",
        host_cpus(),
        rayon::current_num_threads(),
        if self_check {
            "ok"
        } else {
            "outside tolerance"
        }
    );
    Report {
        correct: verdict(&tally),
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics,
    }
}

fn main() {
    // The fork-join pool is two wide unless the caller pins it (the count
    // test compares RLT_THREADS=1 with RLT_THREADS=2). Set before any pool
    // is built, while the process has one thread.
    if std::env::var_os("RLT_THREADS").is_none() {
        std::env::set_var("RLT_THREADS", "2");
    }
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) if WORKLOADS.contains(&a.workload.as_str()) => a,
        Ok(a) => {
            eprintln!("unknown workload `{}`; one of {WORKLOADS:?}", a.workload);
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    println!("{}", report.json());
    std::process::exit(if report.correct { 0 } else { 1 });
}
