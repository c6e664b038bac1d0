//! `check_http`: `POST /check` over loopback against
//! `serve(AppConfig::default())` from two closed-loop keep-alive clients.
//!
//! Request sizes are seeded and heavy-tailed: most bodies are small
//! `lamport_history` runs of 80–320 decisions (p50 prices HTTP, service and
//! wire); exactly one in fifty, at seeded positions, is a history of four
//! `distinct_value_workload` registers, which needs a real multi-register,
//! large-key search and sets p99. Every twentieth request of a client resends its previous body, and the
//! distinct bodies outnumber the service's 1 024-entry interning cache, so the
//! cache both hits and evicts. Both shares are assumptions, not a measured
//! caller mix; `manifest.json` records why and what they set. Every response
//! must equal the direct library verdict byte for byte.

use crate::common::{
    derive, mean, metric, micros_since, quantile, ratio, timed, to_value_history, Stop, Tally,
};
use crate::serving::{self, judge, rid, Client, ClientOut, Server, Traffic, CLIENTS};
use crate::trace::{self, Span};
use crate::{LayerCheck, Pass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlt_bench::{distinct_value_workload, lamport_workload};
use rlt_server::AppConfig;
use rlt_server::CheckService;
use rlt_spec::wire::{format_history, parse_history, verdict_to_json};
use rlt_spec::{Checker, History, OpId, RegisterId, ThreadPolicy, Time, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Distinct timed bodies per run (more than the service cache's 1 024 entries).
const DISTINCT: usize = 3072;
/// Warm-up bodies, drawn from a seed stream disjoint from the timed one.
const WARM: usize = 64;
/// Per-mille of bodies that are large (multi-register, large-key). An
/// assumption: twice the 1% above p99, so that p99 prices the engine on large
/// searches, as the workload is meant to.
const LARGE_PERMILLE: u32 = 20;
/// Registers of a large body; their costs add, which narrows the spread of
/// large-body costs across seeds.
const LARGE_REGISTERS: usize = 4;
/// Every this many requests, a client resends its previous body. An
/// assumption: a small share that still makes the cache hit in every window;
/// the cache hit ratio follows it (about 1 in 20).
const RESEND_EVERY: u64 = 20;
/// How far each traced-run round starts into a client's share.
const ROUND_OFFSET: usize = 317;
/// Seed-stream tags.
const TAG_TIMED: u64 = 0xC4EC;
const TAG_WARM: u64 = 0x3A53;

/// One request body and the verdict the library gives for it.
#[derive(Debug)]
struct Body {
    text: String,
    expected: String,
}

/// The seeded inputs of one run.
#[derive(Debug)]
pub struct Inputs {
    bodies: Vec<Body>,
    warm: Vec<Body>,
}

/// A multi-register large-key history: [`LARGE_REGISTERS`] independent
/// `distinct_value_workload` registers on one timeline (ids, registers and
/// times remapped as `multi_register_workload` does).
fn large_body(seed: u64) -> History<i64> {
    let k = LARGE_REGISTERS as u64;
    let mut ops = Vec::new();
    for r in 0..LARGE_REGISTERS {
        for op in distinct_value_workload(112, 8, seed.wrapping_add(r as u64)).operations() {
            let mut op = op.clone();
            op.id = OpId(ops.len() as u64);
            op.register = RegisterId(r);
            op.invoked_at = Time(op.invoked_at.0 * k + r as u64);
            op.responded_at = op.responded_at.map(|t| Time(t.0 * k + r as u64));
            ops.push(op);
        }
    }
    History::from_operations(ops)
}

/// The service's checker configuration, built the way the service builds it.
fn service_checker() -> Checker<Value> {
    CheckService::new(AppConfig::default()).build_checker()
}

/// `count` bodies of `seed` with their verdicts. Exactly [`LARGE_PERMILLE`]
/// per mille of them are large, at seeded positions: a random count would
/// move the mix, and with it every timing, from seed to seed.
fn bodies(seed: u64, count: usize, checker: &Checker<Value>) -> Vec<Body> {
    let mut rng = StdRng::seed_from_u64(seed);
    let large = (count * LARGE_PERMILLE as usize).div_ceil(1000);
    let mut order: Vec<usize> = (0..count).collect();
    for i in 0..large {
        order.swap(i, rng.gen_range(i..count));
    }
    let large: BTreeSet<usize> = order[..large].iter().copied().collect();
    (0..count)
        .map(|i| {
            let s = rng.gen::<u64>();
            let history = if large.contains(&i) {
                large_body(s)
            } else {
                lamport_workload(3, rng.gen_range(80..=320), s)
            };
            let history = to_value_history(&history);
            let text = format_history(&history);
            let expected = verdict_to_json(&checker.check(&history));
            Body { text, expected }
        })
        .collect()
}

impl Inputs {
    /// Generates the timed and warm-up bodies of `seed` with their verdicts.
    #[must_use]
    pub fn new(seed: u64) -> Inputs {
        let checker = service_checker();
        Inputs {
            bodies: bodies(derive(seed, TAG_TIMED), DISTINCT, &checker),
            warm: bodies(derive(seed, TAG_WARM), WARM, &checker),
        }
    }
}

/// Which body a client sends next: its own share in order, except that every
/// [`RESEND_EVERY`]th request resends the body it sent just before.
struct Picker {
    own: Vec<usize>,
    next: usize,
    sent: u64,
}

impl Picker {
    /// Round `round` of a traced run continues the client's share at a
    /// different offset.
    fn new(client: usize, round: u64) -> Picker {
        Picker {
            own: (client..DISTINCT).step_by(CLIENTS).collect(),
            next: round as usize * ROUND_OFFSET,
            sent: 0,
        }
    }

    fn pick(&mut self) -> usize {
        self.sent += 1;
        if !self.sent.is_multiple_of(RESEND_EVERY) {
            self.next += 1;
        }
        self.own[(self.next - 1) % self.own.len()]
    }
}

/// Sends one body and judges the response.
fn send(conn: &mut httpd::Client, rid: u64, body: &Body, tally: &mut Tally) {
    let resp = conn.post(&format!("/check?rid={rid}"), &body.text);
    let Some(served) = judge("/check", resp, tally) else {
        return;
    };
    if served != body.expected {
        if tally.divergences == 0 {
            eprintln!(
                "DIVERGENCE on /check: served {served} vs library {}",
                body.expected
            );
        }
        tally.divergences += 1;
    }
}

impl Traffic for Inputs {
    /// `(request id, body index)` per traced request.
    type Sent = (u64, usize);

    /// The warm-up bodies, twice, so the cache path is warm too.
    fn warm(&self, conn: &mut httpd::Client) -> Tally {
        let mut tally = Tally::default();
        for round in 0..2u64 {
            for (i, body) in self.warm.iter().enumerate() {
                send(conn, rid(CLIENTS, round << 20 | i as u64), body, &mut tally);
            }
        }
        tally
    }

    fn client(&self, conn: &mut httpd::Client, me: &Client<'_>, out: &mut ClientOut<(u64, usize)>) {
        let mut picker = Picker::new(me.index, me.round);
        let mut seq = 0u64;
        while !me.stop.done(seq) {
            let b = picker.pick();
            let id = rid(me.index, me.round << 30 | seq);
            if let Some(turns) = me.turns {
                turns.wait_for(seq * CLIENTS as u64 + me.index as u64);
            }
            let t0 = Instant::now();
            {
                let _span = me.traced.then(|| trace::span("httpd.request", id));
                send(conn, id, &self.bodies[b], &mut out.rec.tally);
            }
            out.rec.record(micros_since(t0), 1.0);
            if let Some(turns) = me.turns {
                turns.advance();
            }
            if me.traced {
                out.sent.push((id, b));
            }
            seq += 1;
        }
    }
}

/// The untraced run: repeated set-ups (their median is reported), then one
/// timed pass.
pub fn run(seed: u64, stop: impl Fn() -> Stop) -> (Pass, Vec<f64>) {
    serving::run(|| Inputs::new(seed), stop)
}

/// Direct re-runs of one body's wire and engine steps.
#[derive(Debug, Clone, Copy, Default)]
struct Direct {
    parse_us: f64,
    check_us: f64,
    check_seq_us: f64,
    render_us: f64,
    states: u64,
    memo_hits: u64,
    memo_probes: u64,
}

/// Median time of three calls of `f`, with the last result.
fn median3<R>(mut f: impl FnMut() -> R) -> (R, f64) {
    let (_, a) = timed(&mut f);
    let (_, b) = timed(&mut f);
    let (r, c) = timed(&mut f);
    (r, quantile(&[a, b, c], 0.5))
}

/// Each step runs three times and keeps its median, so a body is timed warm,
/// as the service handles it right after reading it.
fn direct(text: &str, auto: &Checker<Value>, seq: &Checker<Value>) -> Direct {
    let (history, parse_us) = median3(|| parse_history(text).expect("timed bodies parse"));
    let ((verdict, _sketch), check_us) = median3(|| auto.check_sketched(&history));
    let (_, check_seq_us) = median3(|| seq.check_sketched(&history));
    let (_, render_us) = median3(|| verdict_to_json(&verdict));
    let stats = verdict.stats();
    Direct {
        parse_us,
        check_us,
        check_seq_us,
        render_us,
        states: stats.states_explored,
        memo_hits: stats.memo.hits,
        memo_probes: stats.memo.probes,
    }
}

/// The traced run: untraced and traced passes over the same inputs,
/// alternating between a plain and a traced server, then the per-layer split
/// of the traced requests.
pub fn traced(seed: u64, seconds: f64, ops: Option<u64>) -> LayerCheck {
    let inputs = Inputs::new(seed);
    // Cache and shed counters of the traced server; the warm-up's are
    // subtracted.
    let counters = |server: &Server| {
        let m = &server.service().metrics;
        let load = |a: &AtomicU64| a.load(Ordering::SeqCst) as f64;
        [
            load(&m.cache_hits),
            load(&m.check_requests),
            load(&m.rejected_backpressure) + load(&m.rejected_oversize),
        ]
    };
    let r = serving::traced_rounds(&inputs, seconds, ops, counters);
    let (before, after) = r.snapshots;
    let cache_hits = after[0] - before[0];
    let cache_ratio = ratio(cache_hits, after[1] - before[1]);
    let shed = after[2];
    let (spans, sent) = (r.spans, r.sent);

    // Direct wire and engine steps on every distinct body the pass sent.
    let service = CheckService::new(AppConfig::default());
    let auto = service.build_checker();
    let cfg = service.config();
    let seq = Checker::builder(Value::Init)
        .state_budget(cfg.state_budget)
        .enumeration_work_cap(cfg.enumeration_work_cap)
        .threads(ThreadPolicy::Sequential)
        .witness(cfg.witness)
        .build();
    let used: BTreeSet<usize> = sent.iter().map(|&(_, b)| b).collect();
    let directs: BTreeMap<usize, Direct> = used
        .iter()
        .map(|&b| (b, direct(&inputs.bodies[b].text, &auto, &seq)))
        .collect();

    let split = split_requests(&spans, &sent, &directs);
    let d: Vec<&Direct> = directs.values().collect();
    let col = |f: fn(&Direct) -> f64| d.iter().map(|x| f(x)).collect::<Vec<f64>>();
    let states: u64 = d.iter().map(|x| x.states).sum();
    let hits: u64 = d.iter().map(|x| x.memo_hits).sum();
    let probes: u64 = d.iter().map(|x| x.memo_probes).sum();
    let metrics = vec![
        metric(
            "httpd.transport_us_p50",
            quantile(&split.transport, 0.5),
            "us",
        ),
        metric("service.route_us_p50", quantile(&split.route, 0.5), "us"),
        metric("service.cache_hit_ratio", cache_ratio, "ratio"),
        metric("service.cache_hits", cache_hits, "count"),
        metric("service.shed", shed, "count"),
        metric("wire.parse_us_p50", quantile(&split.parse, 0.5), "us"),
        metric(
            "wire.render_us_p50",
            quantile(&col(|x| x.render_us), 0.5),
            "us",
        ),
        metric(
            "engine.check_us_p50",
            quantile(&col(|x| x.check_us), 0.5),
            "us",
        ),
        metric(
            "engine.check_us_p99",
            quantile(&col(|x| x.check_us), 0.99),
            "us",
        ),
        metric(
            "engine.check_seq_us_p99",
            quantile(&col(|x| x.check_seq_us), 0.99),
            "us",
        ),
        metric(
            "engine.states_explored",
            ratio(states as f64, d.len() as f64),
            "count/check",
        ),
        metric(
            "engine.memo_hit_ratio",
            ratio(hits as f64, probes as f64),
            "ratio",
        ),
    ];
    LayerCheck {
        workload: "check_http",
        metrics,
        layers: vec![
            ("httpd", mean(&split.transport)),
            ("wire", mean(&split.parse) + mean(&split.render)),
            ("engine", mean(&split.check)),
        ],
        residuals: split.residual,
        untraced_us: r.base.mean_us(),
        traced_us: r.traced.mean_us(),
        ops: r.traced.ops() as f64,
        tally: r.traced.tally,
        spans,
    }
}

/// Per-request layer times of the traced pass.
#[derive(Debug, Default)]
struct Split {
    transport: Vec<f64>,
    route: Vec<f64>,
    parse: Vec<f64>,
    check: Vec<f64>,
    render: Vec<f64>,
    residual: Vec<f64>,
}

/// Splits each traced request into transport (client span minus handler
/// span), wire parse and render, and engine check (cache misses only),
/// leaving the rest of the handler span unattributed: the service's own
/// work, which has no public seam inside `route`. Hits and misses are
/// replayed through a model of the service's clear-when-full cache, which
/// starts out holding the warm-up bodies, in the order the handler spans
/// began.
fn split_requests(
    spans: &[Span],
    sent: &[(u64, usize)],
    directs: &BTreeMap<usize, Direct>,
) -> Split {
    let mut client: BTreeMap<u64, f64> = BTreeMap::new();
    let mut route: BTreeMap<u64, (u64, f64)> = BTreeMap::new();
    for s in spans {
        match s.name {
            "httpd.request" => {
                client.insert(s.req, s.micros());
            }
            "service.route" => {
                route.insert(s.req, (s.start, s.micros()));
            }
            _ => {}
        }
    }
    let body_of: BTreeMap<u64, usize> = sent.iter().copied().collect();
    let mut order: Vec<(u64, u64)> = route.iter().map(|(&id, &(start, _))| (start, id)).collect();
    order.sort_unstable();
    let capacity = AppConfig::default().cache_capacity;
    let mut cache: BTreeSet<usize> = (DISTINCT..DISTINCT + WARM).collect();
    let mut split = Split::default();
    for (_, id) in order {
        let (Some(&b), Some(&total)) = (body_of.get(&id), client.get(&id)) else {
            continue;
        };
        let handler = route[&id].1;
        let d = directs[&b];
        let hit = cache.contains(&b);
        if !hit {
            if cache.len() >= capacity {
                cache.clear();
            }
            cache.insert(b);
        }
        let (check, render) = if hit {
            (0.0, 0.0)
        } else {
            (d.check_us, d.render_us)
        };
        split.transport.push(total - handler);
        split.route.push(handler);
        split.parse.push(d.parse_us);
        split.check.push(check);
        split.render.push(render);
        split.residual.push(handler - d.parse_us - check - render);
    }
    split
}
