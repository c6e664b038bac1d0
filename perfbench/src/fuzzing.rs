//! `fuzz_rediscovery`: for each scenario seed of a seeded block,
//! `fuzz_faulty_rediscovery(seed, FuzzConfig::default())` runs to its first
//! verified, ddmin-minimized trophy, corpus recording included.
//!
//! A seed whose report is censored (the delivery budget ran dry) or holds an
//! unverified trophy is a failed operation. A seed that runs every
//! generation of the default configuration without finding a trophy (about
//! 2 in 1 000 scenario seeds) completed its hunt; it is counted and reported
//! separately as `untrophied`. A trophy that does not replay
//! bit-identically twice, or is no longer rejected by the checker, is a
//! divergence.

use crate::common::{
    derive, metric, micros_since, mix64, quantile, ratio, repeated_setup, timed, Stop, Tally,
};
use crate::trace::{self, Span};
use crate::{LayerCheck, Pass};
use rlt_mp::fuzz::Inspection;
use rlt_mp::{
    analyze, canonicalize, fuzz, fuzz_faulty_rediscovery, record_clean_corpus, scrub, ClusterModel,
    FaultyAbdCluster, FuzzConfig, FuzzReport, FuzzTarget, LinearizabilityTarget, MinimizeReport,
    Schedule, TriagePolicy,
};
use rlt_spec::{Checker, ProcessId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Warm-up seeds, from a block disjoint from the timed one.
const WARM_SEEDS: u64 = 16;
/// Inspected schedules per seed kept for the triage re-run.
const TRIAGE_SAMPLE: usize = 32;
/// Seed-block tags.
const TAG_TIMED: u64 = 0xF022;
const TAG_WARM: u64 = 0x3A55;

/// First scenario seed of the block for `tag`.
fn block(seed: u64, tag: u64) -> u64 {
    derive(seed, tag) >> 16
}

fn fresh_faulty() -> FaultyAbdCluster {
    FaultyAbdCluster::new(5, ProcessId(0))
}

fn model() -> ClusterModel {
    ClusterModel::single_writer(5, ProcessId(0)).without_write_backs()
}

/// How one seed's hunt ended.
enum Hunt {
    /// A verified, minimized trophy.
    Trophy(Schedule),
    /// Every generation ran without a trophy.
    Untrophied,
    /// Censored, or the trophy did not verify.
    Failed,
}

fn judge(report: &FuzzReport) -> Hunt {
    match report.trophies.first() {
        _ if report.censored => Hunt::Failed,
        Some(t) if t.verified => Hunt::Trophy(t.minimized.clone()),
        Some(_) => Hunt::Failed,
        None => Hunt::Untrophied,
    }
}

/// Counts one seed into `tally`; returns the trophy, if any.
fn count(report: &FuzzReport, tally: &mut Tally, untrophied: &mut u64) -> Option<Schedule> {
    tally.attempted += 1;
    match judge(report) {
        Hunt::Trophy(t) => return Some(t),
        Hunt::Untrophied => *untrophied += 1,
        Hunt::Failed => tally.failed += 1,
    }
    None
}

/// Replays a trophy twice on fresh clusters: both histories must be
/// identical and still rejected by the checker.
fn trophy_holds(schedule: &Schedule) -> bool {
    let mut a = fresh_faulty();
    let da = schedule.replay_on(&mut a);
    let mut b = fresh_faulty();
    let db = schedule.replay_on(&mut b);
    let checker = Checker::new(0i64);
    da == db
        && a.history() == b.history()
        && matches!(checker.check(&a.history()).outcome(), Ok(false))
}

/// Set-up: the seed block and a warm-up over seeds disjoint from it.
fn setup(seed: u64) -> u64 {
    let warm = block(seed, TAG_WARM);
    for s in warm..warm + WARM_SEEDS {
        let _ = fuzz_faulty_rediscovery(s, &FuzzConfig::default());
    }
    block(seed, TAG_TIMED)
}

/// The untraced run: repeated set-ups (their median is reported), then seeds
/// of the block in order until the stop condition, then every trophy
/// re-verified. Also returns the count of untrophied seeds.
pub fn run(seed: u64, stop: impl Fn() -> Stop) -> (Pass, Vec<f64>, u64) {
    let (base, setups) = repeated_setup(|| setup(seed), drop);
    let stop = stop();
    let config = FuzzConfig::default();
    let mut trophies = Vec::new();
    let mut untrophied = 0;
    let mut p = Pass::start(&stop);
    let mut k = 0u64;
    while !stop.done(k) {
        let s0 = Instant::now();
        let report = fuzz_faulty_rediscovery(base + k, &config);
        p.record(micros_since(s0), 1.0);
        trophies.extend(count(&report, &mut p.tally, &mut untrophied));
        k += 1;
    }
    p.finish();
    p.tally.divergences += trophies.iter().filter(|t| !trophy_holds(t)).count() as u64;
    (p, setups, untrophied)
}

/// A benchmark-owned target that delegates every call to the rediscovery
/// target and records spans around them: `engine.inspect` around
/// [`FuzzTarget::inspect`], `minimize.ddmin` around [`FuzzTarget::minimize`],
/// and `delivery.replay` for the gap between `fresh()` returning and the
/// replayed cluster being inspected (or the next `fresh()`) on one thread.
struct TracedTarget<T> {
    inner: T,
    deliveries: AtomicU64,
    ddmin_replays: AtomicU64,
    sample: Mutex<Vec<Schedule>>,
}

impl<T: FuzzTarget> FuzzTarget for TracedTarget<T> {
    type Cluster = T::Cluster;

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fresh(&self) -> T::Cluster {
        close_replay();
        let cluster = self.inner.fresh();
        trace::set_mark();
        cluster
    }

    fn inspect(&self, schedule: &Schedule, replayed: &T::Cluster) -> Inspection {
        close_replay();
        self.deliveries
            .fetch_add(schedule.delivery_count() as u64, Ordering::Relaxed);
        {
            let mut sample = self.sample.lock().unwrap_or_else(|e| e.into_inner());
            if sample.len() < TRIAGE_SAMPLE {
                sample.push(schedule.clone());
            }
        }
        let _span = trace::span("engine.inspect", 0);
        self.inner.inspect(schedule, replayed)
    }

    fn minimize(&self, schedule: &Schedule, seed: u64) -> MinimizeReport {
        let report = {
            let _span = trace::span("minimize.ddmin", 0);
            self.inner.minimize(schedule, seed)
        };
        self.ddmin_replays
            .fetch_add(report.replays_tried, Ordering::Relaxed);
        report
    }

    fn triage(&self) -> TriagePolicy {
        self.inner.triage()
    }
}

/// Records the replay since this thread's last `fresh()`, if one is open.
fn close_replay() {
    if let Some(start) = trace::take_mark() {
        trace::record_between("delivery.replay", 0, start, trace::now_ns());
    }
}

/// One seed of `fuzz_faulty_rediscovery`, re-assembled from its public parts
/// with the traced target. The corpus seed is re-derived with the same
/// SplitMix64 mixer the library uses.
fn traced_seed(scenario: u64, config: &FuzzConfig) -> (FuzzReport, u64, u64, Vec<Schedule>) {
    let _seed_span = trace::span("fuzz.seed", scenario);
    let seeds = {
        let _span = trace::span("fuzz.record", scenario);
        record_clean_corpus(fresh_faulty, 3, 60, mix64(scenario ^ 0x5EED), false)
    };
    let target = TracedTarget {
        inner: LinearizabilityTarget::new("faulty-abd", fresh_faulty as fn() -> FaultyAbdCluster)
            .with_model(model()),
        deliveries: AtomicU64::new(0),
        ddmin_replays: AtomicU64::new(0),
        sample: Mutex::new(Vec::new()),
    };
    let config = FuzzConfig {
        seed: scenario,
        ..config.clone()
    };
    let report = {
        let _span = trace::span("fuzz.run", scenario);
        fuzz(&target, &seeds, &config)
    };
    close_replay();
    let sample = target
        .sample
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    (
        report,
        target.deliveries.into_inner(),
        target.ddmin_replays.into_inner(),
        sample,
    )
}

/// Per-seed thread times of one traced seed, in microseconds.
#[derive(Debug, Default, Clone, Copy)]
struct SeedTimes {
    wall: f64,
    record: f64,
    run_main_self: f64,
    replay: f64,
    inspect: f64,
    minimize: f64,
    worker: f64,
}

/// Sums one seed's spans by name, separating the seed's own thread from the
/// pool's other threads.
fn seed_times(spans: &[Span]) -> SeedTimes {
    let Some(root) = spans.iter().find(|s| s.name == "fuzz.seed") else {
        return SeedTimes::default();
    };
    let mut t = SeedTimes {
        wall: root.micros(),
        ..SeedTimes::default()
    };
    let mut main_children = 0.0;
    for s in spans {
        let us = s.micros();
        match s.name {
            "fuzz.record" => t.record += us,
            "fuzz.run" => t.run_main_self += us,
            "delivery.replay" => t.replay += us,
            "engine.inspect" => t.inspect += us,
            "minimize.ddmin" => t.minimize += us,
            _ => continue,
        }
        if matches!(
            s.name,
            "delivery.replay" | "engine.inspect" | "minimize.ddmin"
        ) {
            if s.thread == root.thread {
                main_children += us;
            } else {
                t.worker += us;
            }
        }
    }
    t.run_main_self -= main_children;
    t
}

/// The traced run: each seed of the block runs untraced (timed) and then
/// traced; the traced report must equal the untraced one.
pub fn traced(seed: u64, seconds: f64, ops: Option<u64>) -> LayerCheck {
    let base = block(seed, TAG_TIMED);
    let config = FuzzConfig::default();
    let width = rayon::current_num_threads() as f64;
    let stop = Stop::new(seconds, ops);
    let mut tally = Tally::default();
    let mut untraced = Vec::new();
    let mut traced_us = Vec::new();
    let mut all_spans = Vec::new();
    let (mut executed, mut rejected, mut budget, mut deliveries, mut replays) = (0u64, 0, 0, 0, 0);
    let mut triage_us = Vec::new();
    let mut untrophied = 0;
    let mut times = Vec::new();
    let mut layer = [0.0f64; 6];
    let mut residuals = Vec::new();
    let _ = trace::drain();
    let mut k = 0u64;
    while !stop.done(k) {
        let scenario = base + k;
        let s0 = Instant::now();
        let plain = fuzz_faulty_rediscovery(scenario, &config);
        untraced.push(micros_since(s0));
        let s1 = Instant::now();
        let (report, d, r, sample) = traced_seed(scenario, &config);
        traced_us.push(micros_since(s1));
        let spans = trace::drain();
        if let Some(t) = count(&report, &mut tally, &mut untrophied) {
            if !trophy_holds(&t) {
                tally.divergences += 1;
            }
        }
        if report != plain {
            eprintln!("DIVERGENCE: traced fuzz report differs on scenario seed {scenario}");
            tally.divergences += 1;
        }
        executed += report.mutants_executed;
        rejected += report.statically_rejected;
        budget += report.budget_used;
        deliveries += d;
        replays += r;
        let mut seed_triage = Vec::new();
        for s in &sample {
            let (_, us) = timed(|| canonicalize(&scrub(s, &analyze(s, &model()))));
            seed_triage.push(us);
        }
        let t = seed_times(&spans);
        // Wall shares: summed thread time of each layer scaled by the seed's
        // wall time over the busy time of all pool threads, so work the two
        // threads did at once is not counted twice.
        let busy = t.wall + t.worker;
        let scale = ratio(t.wall, busy);
        let triaged = (report.statically_rejected + report.mutants_executed) as f64;
        let analyze_share = crate::common::mean(&seed_triage) * triaged;
        for (slot, v) in layer.iter_mut().zip([
            t.run_main_self,
            t.record,
            analyze_share,
            t.replay,
            t.inspect,
            t.minimize,
        ]) {
            *slot += v * scale;
        }
        // The fuzz loop's own time beyond the triage estimate: mutation and
        // corpus upkeep inside `fuzz()`, which has no public seam.
        residuals.push((t.run_main_self - analyze_share) * scale);
        triage_us.extend(seed_triage);
        times.push((t, busy));
        all_spans.extend(spans);
        k += 1;
    }
    let n = k.max(1) as f64;
    let per_seed = |x: u64| x as f64 / n;
    let sum = |f: fn(&SeedTimes) -> f64| times.iter().map(|(t, _)| f(t)).sum::<f64>() / n;
    let busy_total: f64 = times.iter().map(|(_, b)| b).sum();
    let wall_total: f64 = times.iter().map(|(t, _)| t.wall).sum();
    let metrics = vec![
        metric("fuzz.self_ms", layer[0] / n / 1e3, "ms/seed"),
        metric("fuzz.record_ms", sum(|t| t.record) / 1e3, "ms/seed"),
        metric("fuzz.mutants_executed", per_seed(executed), "count/seed"),
        metric("fuzz.budget_used", per_seed(budget), "count/seed"),
        metric("fuzz.untrophied_frac", per_seed(untrophied), "ratio"),
        metric("analyze.triage_us_p50", quantile(&triage_us, 0.5), "us"),
        metric(
            "analyze.reject_ratio",
            ratio(rejected as f64, (rejected + executed) as f64),
            "ratio",
        ),
        metric(
            "analyze.statically_rejected",
            per_seed(rejected),
            "count/seed",
        ),
        metric("delivery.replay_us_total", sum(|t| t.replay), "us/seed"),
        metric("delivery.deliveries", per_seed(deliveries), "count/seed"),
        metric("minimize.ddmin_ms", sum(|t| t.minimize) / 1e3, "ms/seed"),
        metric("minimize.replays", per_seed(replays), "count/seed"),
        metric("engine.inspect_us_total", sum(|t| t.inspect), "us/seed"),
        metric(
            "rayon.busy_frac",
            ratio(busy_total, wall_total * width),
            "ratio",
        ),
    ];
    LayerCheck {
        workload: "fuzz_rediscovery",
        metrics,
        layers: vec![
            ("fuzz.record", layer[1] / n),
            ("analyze", layer[2] / n),
            ("delivery", layer[3] / n),
            ("engine", layer[4] / n),
            ("minimize", layer[5] / n),
        ],
        residuals,
        untraced_us: crate::common::mean(&untraced),
        traced_us: crate::common::mean(&traced_us),
        ops: k as f64,
        tally,
        spans: all_spans,
    }
}
