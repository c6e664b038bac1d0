//! Fixed-memory latency recording for the untraced passes.
//!
//! Operations are counted into log-bucketed histograms, one per time window
//! of the pass, instead of being stored one by one: the recording's memory
//! then stays the same however many operations a run completes, so
//! `rss_peak_mb` measures the program and not the benchmark's bookkeeping.

use crate::common::{quantile, Stop, Tally};
use crate::trace;

/// Time windows of a timed pass (see [`Pass::windowed`]).
pub const WINDOWS: usize = 10;

/// Which of the per-window values [`Pass::windowed`] reports: the quartile
/// on the fast side.
const QUIET_QUARTILE: f64 = 0.25;

/// Smallest latency a bucket resolves, microseconds.
const MIN_US: f64 = 0.01;
/// Relative bucket width: each bucket is 0.5% wider than the previous one.
const LN_STEP: f64 = 0.005;
/// Buckets from [`MIN_US`] up to about 30 minutes.
const BUCKETS: usize = 5200;

fn bucket(us: f64) -> usize {
    ((us.max(MIN_US) / MIN_US).ln() / LN_STEP).min((BUCKETS - 1) as f64) as usize
}

fn bucket_floor(b: usize) -> f64 {
    MIN_US * (b as f64 * LN_STEP).exp()
}

/// Latencies and completed units of one window.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
    units: f64,
    sum_us: f64,
}

impl Hist {
    fn add(&mut self, latency_us: f64, units: f64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[bucket(latency_us)] += 1;
        self.n += 1;
        self.units += units;
        self.sum_us += latency_us;
    }

    fn merge(&mut self, other: &Hist) {
        if other.n == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.units += other.units;
        self.sum_us += other.sum_us;
    }

    /// The `q`-quantile, interpolated linearly inside its bucket.
    fn quantile(&self, q: f64) -> f64 {
        let rank = q * (self.n.saturating_sub(1)) as f64;
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + u64::from(c)) as f64 > rank {
                let within = (rank - below as f64 + 0.5) / f64::from(c);
                let (lo, hi) = (bucket_floor(b), bucket_floor(b + 1));
                return lo + (hi - lo) * within.clamp(0.0, 1.0);
            }
            below += u64::from(c);
        }
        0.0
    }
}

/// One measured pass of a workload: per-window histograms of its
/// operations, plus failures and divergences.
#[derive(Debug, Default)]
pub struct Pass {
    windows: Vec<Hist>,
    start_ns: u64,
    window_ns: u64,
    end_ns: u64,
    /// Failures and divergences.
    pub tally: Tally,
}

impl Pass {
    /// An empty pass starting now. A timed pass splits its planned duration
    /// into [`WINDOWS`] windows; a fixed-work pass has one window.
    #[must_use]
    pub fn start(stop: &Stop) -> Pass {
        let start_ns = trace::now_ns();
        let window_ns = match stop {
            Stop::At(t) => {
                let planned = t.saturating_duration_since(std::time::Instant::now());
                (planned.as_nanos() as u64 / WINDOWS as u64).max(1)
            }
            Stop::After(_) => u64::MAX,
        };
        Pass {
            windows: vec![Hist::default(); WINDOWS],
            start_ns,
            window_ns,
            ..Pass::default()
        }
    }

    /// An empty pass with this pass's windows, for one client thread.
    #[must_use]
    pub fn recorder(&self) -> Pass {
        Pass {
            windows: vec![Hist::default(); self.windows.len()],
            start_ns: self.start_ns,
            window_ns: self.window_ns,
            ..Pass::default()
        }
    }

    /// Records an operation completing now.
    pub fn record(&mut self, latency_us: f64, units: f64) {
        let offset = trace::now_ns().saturating_sub(self.start_ns) / self.window_ns;
        let last = self.windows.len() - 1;
        self.windows[(offset as usize).min(last)].add(latency_us, units);
    }

    /// Ends the pass now.
    pub fn finish(&mut self) {
        self.end_ns = trace::now_ns();
    }

    /// Adds another pass's operations (window by window) and tallies.
    pub fn absorb(&mut self, other: Pass) {
        if self.windows.len() < other.windows.len() {
            self.windows.resize(other.windows.len(), Hist::default());
        }
        for (a, b) in self.windows.iter_mut().zip(&other.windows) {
            a.merge(b);
        }
        self.tally.absorb(other.tally);
    }

    /// Operations recorded.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.windows.iter().map(|w| w.n).sum()
    }

    /// Mean latency in microseconds.
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        let sum: f64 = self.windows.iter().map(|w| w.sum_us).sum();
        crate::common::ratio(sum, self.ops() as f64)
    }

    /// Throughput, median latency and tail latency (quantile `tail_q`), each
    /// computed per window, then taken at the fast-side quartile of the
    /// windows: the highest quartile of throughputs and the lowest of
    /// latencies. Outside load on a shared host only ever slows windows down,
    /// so the quieter windows change with the program, not with its
    /// neighbours, as long as a quarter of the run is undisturbed; a slower
    /// program slows every window.
    #[must_use]
    pub fn windowed(&self, tail_q: f64) -> (f64, f64, f64) {
        let (mut rate, mut p50, mut tail) = (Vec::new(), Vec::new(), Vec::new());
        for (i, w) in self.windows.iter().enumerate().filter(|(_, w)| w.n > 0) {
            let from = self
                .start_ns
                .saturating_add(self.window_ns.saturating_mul(i as u64));
            let to = if i + 1 == self.windows.len() {
                self.end_ns
            } else {
                self.end_ns.min(from.saturating_add(self.window_ns))
            };
            rate.push(w.units / (to.saturating_sub(from).max(1) as f64 / 1e9));
            p50.push(w.quantile(0.5));
            tail.push(w.quantile(tail_q));
        }
        (
            quantile(&rate, 1.0 - QUIET_QUARTILE),
            quantile(&p50, QUIET_QUARTILE),
            quantile(&tail, QUIET_QUARTILE),
        )
    }
}
