//! `monitor_stream`: two concurrent monitoring sessions over loopback, one
//! per client. Each client streams a long seeded invocation-ordered
//! multi-register history as small `POST /sessions/{id}/events` chunks,
//! polls `GET /sessions/{id}/verdict` after every chunk, then deletes the
//! session and starts its next stream. A poll is one chunk POST plus its
//! verdict GET. Each session's final verdict must equal a direct
//! `IncrementalChecker` fed the same operations.

use crate::common::{
    derive, mean, metric, micros_since, quantile, ratio, timed, to_value_history, Stop, Tally,
};
use crate::serving::{self, judge, rid, Client, ClientOut, Traffic, CLIENTS};
use crate::trace::{self, Span};
use crate::{LayerCheck, Pass};
use rlt_bench::{invocation_ordered, multi_register_workload};
use rlt_server::{AppConfig, CheckService};
use rlt_spec::wire::{parse_history, verdict_to_json};
use rlt_spec::{IncrementalStats, OpKind, Operation, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// Streams each client cycles through: enough that the mean stream length,
/// and with it the per-poll cost, hardly moves from seed to seed.
const STREAMS_PER_CLIENT: usize = 32;
/// Registers per stream.
const REGISTERS: usize = 3;
/// Scheduler decisions per register (a stream has about 0.2 ops per decision
/// and register).
const DECISIONS: usize = 320;
/// Events (invocations and completions) per chunk: the chunk size of the
/// repository's own session load (`SESSION_CHUNK_EVENTS` in `server_load`).
const CHUNK_EVENTS: usize = 16;
/// Warm-up streams, from a seed stream disjoint from the timed one.
const WARM_STREAMS: usize = 6;
/// Seed-stream tags.
const TAG_TIMED: u64 = 0x5E55;
const TAG_WARM: u64 = 0x3A54;

/// One seeded stream: its chunk bodies and the final verdict the library
/// gives for the whole history.
#[derive(Debug)]
struct Stream {
    chunks: Vec<String>,
    expected: String,
}

/// The seeded inputs of one run.
#[derive(Debug)]
pub struct Inputs {
    streams: Vec<Stream>,
    warm: Vec<Stream>,
}

/// One wire line of an event: the pending form for an invocation, the full
/// op line for a completion.
fn op_line(op: &Operation<Value>, completed: bool) -> String {
    let (verb, value) = match &op.kind {
        OpKind::Write(v) => ("write", v.to_string()),
        OpKind::Read(Some(v)) if completed => ("read", v.to_string()),
        OpKind::Read(_) => ("read", "?".to_string()),
    };
    let resp = match op.responded_at {
        Some(t) if completed => format!("t{}", t.0),
        _ => String::new(),
    };
    format!(
        "op{} {} {} {verb} {value} @ t{}..{resp}\n",
        op.id.0, op.process, op.register, op.invoked_at.0
    )
}

fn stream(seed: u64) -> Stream {
    let history = invocation_ordered(&multi_register_workload(REGISTERS, DECISIONS, seed));
    let history = to_value_history(&history);
    let ops = history.operations();
    let mut events: Vec<(u64, usize, bool)> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        events.push((op.invoked_at.0, i, false));
        if let Some(r) = op.responded_at {
            events.push((r.0, i, true));
        }
    }
    events.sort_unstable();
    let chunks = events
        .chunks(CHUNK_EVENTS)
        .map(|chunk| {
            // An op invoked and completed inside one chunk is sent once, as its
            // completed line (wire bodies have unique ids).
            let mut order: Vec<usize> = Vec::new();
            let mut latest: BTreeMap<usize, bool> = BTreeMap::new();
            for &(_, i, completed) in chunk {
                if latest.insert(i, completed).is_none() {
                    order.push(i);
                }
            }
            order.iter().map(|i| op_line(&ops[*i], latest[i])).collect()
        })
        .collect();
    let mut direct = service().build_checker().incremental();
    direct.sync_with_ops(ops);
    let expected = format!(
        "{{\"verdict\":{},",
        verdict_to_json(direct.verdict().as_verdict())
    );
    Stream { chunks, expected }
}

fn service() -> CheckService {
    CheckService::new(AppConfig::default())
}

impl Inputs {
    /// Generates the timed and warm-up streams of `seed` with their verdicts.
    #[must_use]
    pub fn new(seed: u64) -> Inputs {
        let gen = |tag, count| {
            (0..count as u64)
                .map(|i| stream(derive(seed, tag) ^ i))
                .collect()
        };
        Inputs {
            streams: gen(TAG_TIMED, STREAMS_PER_CLIENT * CLIENTS),
            warm: gen(TAG_WARM, WARM_STREAMS),
        }
    }
}

/// `(post rid, get rid, stream, chunk)` per traced poll.
type Poll = (u64, u64, usize, usize);

/// Streams one history through a fresh session. Returns `false` if the
/// stop condition cut the stream short.
fn stream_once(
    conn: &mut httpd::Client,
    (c, seq): (usize, &mut u64),
    (index, stream): (usize, &Stream),
    deadline: Option<Instant>,
    traced: bool,
    out: &mut ClientOut<Poll>,
) -> bool {
    let mut next_rid = || {
        *seq += 1;
        rid(c, *seq)
    };
    let created = conn.post(&format!("/sessions?rid={}", next_rid()), "");
    let Some(body) = judge("POST /sessions", created, &mut out.rec.tally) else {
        return true;
    };
    let Some(id) = body
        .trim_start_matches("{\"session\":")
        .split(',')
        .next()
        .and_then(|s| s.parse::<u64>().ok())
    else {
        eprintln!("DIVERGENCE on POST /sessions: no session id in {body}");
        out.rec.tally.divergences += 1;
        return true;
    };
    let mut last = String::new();
    let mut finished = true;
    for (k, chunk) in stream.chunks.iter().enumerate() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            finished = false;
            break;
        }
        let (post_id, get_id) = (next_rid(), next_rid());
        let t0 = Instant::now();
        let verdict = {
            let _span = traced.then(|| trace::span("monitor.poll", post_id));
            let posted = {
                let _span = traced.then(|| trace::span("httpd.request", post_id));
                conn.post(&format!("/sessions/{id}/events?rid={post_id}"), chunk)
            };
            let posted = judge("POST events", posted, &mut out.rec.tally);
            let got = {
                let _span = traced.then(|| trace::span("httpd.request", get_id));
                conn.get(&format!("/sessions/{id}/verdict?rid={get_id}"))
            };
            posted.and(judge("GET verdict", got, &mut out.rec.tally))
        };
        out.rec
            .record(micros_since(t0), chunk.lines().count() as f64);
        if traced {
            out.sent.push((post_id, get_id, index, k));
        }
        if let Some(v) = verdict {
            last = v;
        }
    }
    if finished && !last.starts_with(&stream.expected) {
        if out.rec.tally.divergences == 0 {
            eprintln!(
                "DIVERGENCE on session verdict: served {last} vs library {}...",
                stream.expected
            );
        }
        out.rec.tally.divergences += 1;
    }
    let deleted = conn.delete(&format!("/sessions/{id}?rid={}", next_rid()));
    judge("DELETE session", deleted, &mut out.rec.tally);
    finished
}

impl Traffic for Inputs {
    type Sent = Poll;

    fn warm(&self, conn: &mut httpd::Client) -> Tally {
        let mut out = ClientOut {
            rec: Pass::start(&Stop::After(0)),
            sent: Vec::new(),
        };
        let mut seq = 0u64;
        for s in &self.warm {
            stream_once(conn, (CLIENTS, &mut seq), (0, s), None, false, &mut out);
        }
        out.rec.tally
    }

    /// Round `round` of a traced run starts at a different stream of the
    /// client's share.
    fn client(&self, conn: &mut httpd::Client, me: &Client<'_>, out: &mut ClientOut<Poll>) {
        let mut seq = me.round << 30;
        let deadline = match me.stop {
            Stop::At(t) => Some(t),
            Stop::After(_) => None,
        };
        let own: Vec<usize> = (me.index..self.streams.len()).step_by(CLIENTS).collect();
        let mut done = 0u64;
        while !me.stop.done(done) {
            let index = own[(done + 5 * me.round) as usize % own.len()];
            let s = (index, &self.streams[index]);
            if !stream_once(conn, (me.index, &mut seq), s, deadline, me.traced, out) {
                break;
            }
            done += 1;
        }
    }
}

/// The untraced run: repeated set-ups (their median is reported), then one
/// timed pass.
pub fn run(seed: u64, stop: impl Fn() -> Stop) -> (Pass, Vec<f64>) {
    serving::run(|| Inputs::new(seed), stop)
}

/// Direct re-run of one chunk's wire and incremental steps.
#[derive(Debug, Clone, Copy, Default)]
struct ChunkCost {
    parse_us: f64,
    sync_us: f64,
    verdict_us: f64,
    render_us: f64,
}

/// Feeds one stream's chunks to a direct session the way the service merges
/// them, timing each step; returns per-chunk costs and the session counters.
fn replay_direct(stream: &Stream) -> (Vec<ChunkCost>, IncrementalStats) {
    let mut session = service().build_checker().incremental();
    let mut target: Vec<Operation<Value>> = Vec::new();
    let mut index: BTreeMap<u64, usize> = BTreeMap::new();
    let mut costs = Vec::with_capacity(stream.chunks.len());
    for chunk in &stream.chunks {
        let (parsed, parse_us) = timed(|| parse_history(chunk).expect("chunks parse"));
        for op in parsed.operations() {
            match index.get(&op.id.0) {
                Some(&i) => target[i] = op.clone(),
                None => {
                    index.insert(op.id.0, target.len());
                    target.push(op.clone());
                }
            }
        }
        let ((), sync_us) = timed(|| session.sync_with_ops(&target));
        let (verdict, verdict_us) = timed(|| session.verdict());
        let (_, render_us) = timed(|| verdict_to_json(verdict.as_verdict()));
        costs.push(ChunkCost {
            parse_us,
            sync_us,
            verdict_us,
            render_us,
        });
    }
    (costs, session.stats())
}

/// The traced run: untraced and traced passes over the same streams,
/// alternating between a plain and a traced server, then the per-layer split
/// of the traced polls.
pub fn traced(seed: u64, seconds: f64, ops: Option<u64>) -> LayerCheck {
    let inputs = Inputs::new(seed);
    let r = serving::traced_rounds(&inputs, seconds, ops, |_| ());
    let (spans, polls) = (r.spans, r.sent);

    let mut used: Vec<usize> = polls.iter().map(|&(_, _, s, _)| s).collect();
    used.sort_unstable();
    used.dedup();
    let mut costs: BTreeMap<usize, Vec<ChunkCost>> = BTreeMap::new();
    let mut stats = IncrementalStats::default();
    for &s in &used {
        let (c, st) = replay_direct(&inputs.streams[s]);
        costs.insert(s, c);
        stats.registers_resumed += st.registers_resumed;
        stats.registers_researched += st.registers_researched;
        stats.full_fallbacks += st.full_fallbacks;
        stats.incremental_states += st.incremental_states;
    }
    let all: Vec<ChunkCost> = costs.values().flatten().copied().collect();
    let col = |f: fn(&ChunkCost) -> f64| all.iter().map(f).collect::<Vec<f64>>();

    let split = split_polls(&spans, &polls, &costs);
    let streams = used.len() as f64;
    let resumed = stats.registers_resumed as f64;
    let metrics = vec![
        metric(
            "httpd.poll_transport_us_p50",
            quantile(&split.transport, 0.5),
            "us",
        ),
        metric(
            "wire.render_verdict_us_p99",
            quantile(&col(|c| c.render_us), 0.99),
            "us",
        ),
        metric(
            "incremental.sync_us_p99",
            quantile(&col(|c| c.sync_us), 0.99),
            "us",
        ),
        metric(
            "incremental.verdict_us_p99",
            quantile(&col(|c| c.verdict_us), 0.99),
            "us",
        ),
        metric(
            "incremental.resume_ratio",
            ratio(resumed, resumed + stats.registers_researched as f64),
            "ratio",
        ),
        metric(
            "incremental.full_fallbacks",
            ratio(stats.full_fallbacks as f64, streams),
            "count/stream",
        ),
        metric(
            "incremental.states",
            ratio(stats.incremental_states as f64, streams),
            "count/stream",
        ),
    ];
    LayerCheck {
        workload: "monitor_stream",
        metrics,
        layers: vec![
            ("httpd", mean(&split.transport)),
            ("wire", mean(&split.wire)),
            ("incremental", mean(&split.incremental)),
        ],
        residuals: split.residual,
        untraced_us: r.base.mean_us(),
        traced_us: r.traced.mean_us(),
        ops: r.traced.ops() as f64,
        tally: r.traced.tally,
        spans,
    }
}

/// Per-poll layer times of the traced pass.
#[derive(Debug, Default)]
struct Split {
    transport: Vec<f64>,
    wire: Vec<f64>,
    incremental: Vec<f64>,
    residual: Vec<f64>,
}

/// Splits each traced poll into transport (poll span minus both handler
/// spans), wire (chunk parse, verdict render) and incremental (sync,
/// verdict), leaving the rest of both handler spans unattributed: the
/// service's own work (session lookup and merge, the sessions mutex), which
/// has no public seam inside `route`.
fn split_polls(spans: &[Span], polls: &[Poll], costs: &BTreeMap<usize, Vec<ChunkCost>>) -> Split {
    let mut poll: BTreeMap<u64, f64> = BTreeMap::new();
    let mut route: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        match s.name {
            "monitor.poll" => {
                poll.insert(s.req, s.micros());
            }
            "service.route" => {
                route.insert(s.req, s.micros());
            }
            _ => {}
        }
    }
    let mut split = Split::default();
    for &(post, get, s, k) in polls {
        let (Some(total), Some(rp), Some(rg)) =
            (poll.get(&post), route.get(&post), route.get(&get))
        else {
            continue;
        };
        let c = costs[&s][k];
        let wire = c.parse_us + c.render_us;
        let incremental = c.sync_us + c.verdict_us;
        split.transport.push(total - rp - rg);
        split.wire.push(wire);
        split.incremental.push(incremental);
        split.residual.push(rp + rg - wire - incremental);
    }
    split
}
