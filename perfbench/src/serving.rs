//! The server under load, plain or traced, and the client-side driver the two
//! HTTP workloads share: warm-up, closed-loop passes of [`CLIENTS`] keep-alive
//! clients, the untraced run and the alternating rounds of the traced run.
//! Each workload supplies only its traffic, through [`Traffic`].

use crate::common::{repeated_setup, Stop, Tally};
use crate::trace::{self, Span};
use crate::Pass;
use rlt_server::{handlers, serve, AppConfig, CheckService, ServerHandle};
use std::net::SocketAddr;
use std::sync::Arc;

/// Concurrent keep-alive clients of each HTTP workload (the host has two cores).
pub const CLIENTS: usize = 2;

/// Alternating untraced/traced pass pairs of a traced run: short passes, so
/// that a change in host speed reaches both sides alike.
const ROUNDS: u64 = 10;

/// The status the service sheds load with (backpressure, oversize, session
/// limit).
const SHED: u16 = 429;

/// A running service: exactly `serve(AppConfig::default())`, or the same
/// service behind an `httpd::Server` whose handler wraps
/// [`handlers::route`] in a `service.route` span.
#[derive(Debug)]
pub enum Server {
    /// `rlt_server::serve` as shipped.
    Plain(ServerHandle),
    /// The same service and HTTP settings, with a timing handler.
    Traced {
        /// The HTTP front end.
        http: httpd::Server,
        /// The service behind it.
        service: Arc<CheckService>,
    },
}

impl Server {
    /// Binds a server on an ephemeral loopback port.
    pub fn start(traced: bool) -> std::io::Result<Server> {
        let config = AppConfig::default();
        if !traced {
            return serve(config).map(Server::Plain);
        }
        let http_config = httpd::ServerConfig {
            addr: config.addr.clone(),
            workers: config.workers,
            max_body: config.max_body,
        };
        let service = Arc::new(CheckService::new(config));
        let routed = Arc::clone(&service);
        let http = httpd::Server::bind(
            &http_config,
            Arc::new(move |req: &httpd::Request| {
                let _span = trace::span("service.route", request_id(req));
                handlers::route(&routed, req)
            }),
        )?;
        Ok(Server::Traced { http, service })
    }

    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        match self {
            Server::Plain(h) => h.addr(),
            Server::Traced { http, .. } => http.local_addr(),
        }
    }

    /// The service layer behind the HTTP front end.
    #[must_use]
    pub fn service(&self) -> &Arc<CheckService> {
        match self {
            Server::Plain(h) => h.service(),
            Server::Traced { service, .. } => service,
        }
    }

    /// Graceful shutdown; returns once every server thread has ended.
    pub fn shutdown(self) {
        match self {
            Server::Plain(h) => h.shutdown(),
            Server::Traced { http, .. } => http.shutdown(),
        }
    }
}

/// The request id a client put in the query string (`?rid=N`), 0 if none.
#[must_use]
pub fn request_id(req: &httpd::Request) -> u64 {
    req.query
        .as_deref()
        .and_then(|q| q.strip_prefix("rid="))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Request id `seq` of client `client` (never 0).
#[must_use]
pub fn rid(client: usize, seq: u64) -> u64 {
    ((client as u64 + 1) << 40) | seq
}

/// Judges one HTTP exchange and returns the body of a 2xx response. A shed
/// response or an I/O error is a failed operation. Any other status is a
/// divergence: the library accepts every body the benchmark sends.
pub fn judge(
    what: &str,
    resp: std::io::Result<httpd::HttpResponse>,
    tally: &mut Tally,
) -> Option<String> {
    tally.attempted += 1;
    match resp {
        Ok(r) if (200..300).contains(&r.status) => return Some(r.body),
        Ok(r) if r.status == SHED => tally.failed += 1,
        Ok(r) => {
            if tally.divergences == 0 {
                eprintln!("DIVERGENCE on {what}: status {} {}", r.status, r.body);
            }
            tally.divergences += 1;
        }
        Err(e) => {
            if tally.failed == 0 {
                eprintln!("FAILED {what}: {e}");
            }
            tally.failed += 1;
        }
    }
    None
}

/// Strict alternation of the clients in fixed-work mode, so the server sees
/// one deterministic request order and its cache counters repeat exactly.
#[derive(Debug, Default)]
pub struct Turns {
    turn: std::sync::Mutex<u64>,
    moved: std::sync::Condvar,
}

impl Turns {
    /// Blocks until global turn `t` comes up.
    pub fn wait_for(&self, t: u64) {
        let mut turn = self.turn.lock().unwrap_or_else(|e| e.into_inner());
        while *turn != t {
            turn = self.moved.wait(turn).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Ends the current turn.
    pub fn advance(&self) {
        *self.turn.lock().unwrap_or_else(|e| e.into_inner()) += 1;
        self.moved.notify_all();
    }
}

/// One client's part of a pass.
#[derive(Debug)]
pub struct Client<'a> {
    /// Client index, `0..CLIENTS`.
    pub index: usize,
    /// When this client stops (its share of a fixed-work pass).
    pub stop: Stop,
    /// Round of the traced run (0 in the untraced run).
    pub round: u64,
    /// Turn order of a fixed-work pass.
    pub turns: Option<&'a Turns>,
    /// Whether this pass records spans.
    pub traced: bool,
}

/// What one client did: its recording and, in a traced pass, what the layer
/// split needs per operation.
#[derive(Debug)]
pub struct ClientOut<T> {
    /// Latencies and tallies.
    pub rec: Pass,
    /// Per-operation records of a traced pass.
    pub sent: Vec<T>,
}

/// The traffic of one HTTP workload.
pub trait Traffic: Sync {
    /// What a traced client keeps per operation for the layer split.
    type Sent: Send;
    /// Sends the warm-up traffic over `conn`; returns its tally.
    fn warm(&self, conn: &mut httpd::Client) -> Tally;
    /// Runs one client's share of a pass over `conn`.
    fn client(&self, conn: &mut httpd::Client, me: &Client<'_>, out: &mut ClientOut<Self::Sent>);
}

/// Binds a server and sends the warm-up traffic.
fn bind_and_warm<W: Traffic>(w: &W, traced: bool) -> (Server, Tally) {
    let server = Server::start(traced).expect("bind the server");
    let mut conn = httpd::Client::connect(server.addr()).expect("connect");
    let tally = w.warm(&mut conn);
    (server, tally)
}

/// One measured pass of the [`CLIENTS`] clients.
fn pass<W: Traffic>(
    w: &W,
    server: &Server,
    (stop, round): (Stop, u64),
    traced: bool,
) -> (Pass, Vec<W::Sent>) {
    let turns = matches!(stop, Stop::After(_)).then(Turns::default);
    let mut p = Pass::start(&stop);
    let outs: Vec<ClientOut<W::Sent>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|index| {
                let me = Client {
                    index,
                    stop: stop.share(CLIENTS as u64, index as u64),
                    round,
                    turns: turns.as_ref(),
                    traced,
                };
                let mut out = ClientOut {
                    rec: p.recorder(),
                    sent: Vec::new(),
                };
                s.spawn(move || {
                    let mut conn = httpd::Client::connect(server.addr()).expect("connect");
                    w.client(&mut conn, &me, &mut out);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    p.finish();
    let mut sent = Vec::new();
    for out in outs {
        p.absorb(out.rec);
        sent.extend(out.sent);
    }
    (p, sent)
}

/// Adds a warm-up's failures and divergences to a pass's tally.
fn count_warm(tally: &mut Tally, warm: Tally) {
    tally.failed += warm.failed;
    tally.divergences += warm.divergences;
}

/// The untraced run: repeated set-ups (input generation with library
/// verdicts, server bind, warm-up; their median is reported), then one timed
/// pass.
pub fn run<W: Traffic>(build: impl Fn() -> W, stop: impl Fn() -> Stop) -> (Pass, Vec<f64>) {
    let ((w, (server, warm)), setups) = repeated_setup(
        || {
            let w = build();
            let bound = bind_and_warm(&w, false);
            (w, bound)
        },
        |(_, (server, _))| server.shutdown(),
    );
    let (mut p, _) = pass(&w, &server, (stop(), 0), false);
    count_warm(&mut p.tally, warm);
    server.shutdown();
    (p, setups)
}

/// The passes of a traced run.
#[derive(Debug)]
pub struct Rounds<T, S> {
    /// The untraced passes, on a plain server.
    pub base: Pass,
    /// The traced passes, on a traced server; its tally holds every pass's
    /// and warm-up's failures and divergences.
    pub traced: Pass,
    /// What the traced clients kept per operation.
    pub sent: Vec<T>,
    /// Spans of the traced passes.
    pub spans: Vec<Span>,
    /// `snapshot` of the traced server after its warm-up and after the passes.
    pub snapshots: (S, S),
}

/// The traced run: untraced and traced passes over the same inputs,
/// alternating between a plain and a traced server. The second pass of a
/// round runs measurably slower, so the order alternates between rounds.
pub fn traced_rounds<W: Traffic, S>(
    w: &W,
    seconds: f64,
    ops: Option<u64>,
    snapshot: impl Fn(&Server) -> S,
) -> Rounds<W::Sent, S> {
    let rounds = if ops.is_some() { 1 } else { ROUNDS };
    let stop = || Stop::new(seconds / (2 * rounds) as f64, ops);
    let (plain, warm_plain) = bind_and_warm(w, false);
    let (server, warm_traced) = bind_and_warm(w, true);
    let before = snapshot(&server);
    let _ = trace::drain();
    let (mut base, mut traced, mut sent) = (Pass::default(), Pass::default(), Vec::new());
    for round in 0..rounds {
        for tracing in [round % 2 == 1, round % 2 == 0] {
            if tracing {
                let (p, s) = pass(w, &server, (stop(), round), true);
                traced.absorb(p);
                sent.extend(s);
            } else {
                base.absorb(pass(w, &plain, (stop(), round), false).0);
            }
        }
    }
    let spans = trace::drain();
    let after = snapshot(&server);
    plain.shutdown();
    server.shutdown();
    let base_tally = std::mem::take(&mut base.tally);
    count_warm(&mut traced.tally, base_tally);
    count_warm(&mut traced.tally, warm_plain);
    count_warm(&mut traced.tally, warm_traced);
    Rounds {
        base,
        traced,
        sent,
        spans,
        snapshots: (before, after),
    }
}
