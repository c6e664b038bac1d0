//! Experiment E16: a client round trip against the in-process checking server.
//!
//! Boots `rlt-server` on an ephemeral loopback port and walks the whole HTTP
//! surface from a keep-alive client:
//!
//! 1. `POST /check` — a wire-format history in, a JSON verdict out, pinned
//!    byte-for-byte against the direct `Checker::check` call on the same knobs;
//! 2. `POST /check_many` — a `---`-separated batch, one JSON array back;
//! 3. `POST /linearizations` — the work-capped witness enumeration;
//! 4. a monitoring session: `POST /sessions`, events streamed in two
//!    `POST /sessions/{id}/events` chunks (a pending read completes in the
//!    second), `GET /sessions/{id}/verdict` after each;
//! 5. `GET /metrics?deterministic=1` — the counter subset CI diffs;
//! 6. malformed bodies: a line-numbered `400` from `POST /check`, and, on the
//!    session, an events body out of invocation order, a completion of one of
//!    its ops, and a `400` for an event that reuses a recorded time.
//!
//! Every printed line is deterministic (seeded values, counters only), so CI
//! diffs the output across `RLT_THREADS` settings.
//!
//! Run with: `cargo run --release --example check_server`

use httpd::Client;
use rlt_core::server::{serve, AppConfig};
use rlt_core::spec::wire::{parse_history, verdict_to_json};
use rlt_core::spec::Value;

const NEW_OLD_INVERSION: &str = "\
# A new/old inversion: the read overlapping the write returns the new value,
# then a later read returns the stale initial value.
op0 p0 R0 write 1 @ t1..t4
op1 p1 R0 read 1 @ t2..t3
op2 p1 R0 read init @ t5..t6
";

fn main() {
    let handle = serve(AppConfig::default()).expect("bind the checking server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // 1. One-shot check, differentially pinned against the library call.
    let resp = client
        .post("/check", NEW_OLD_INVERSION)
        .expect("POST /check");
    let direct = handle
        .service()
        .build_checker()
        .check(&parse_history(NEW_OLD_INVERSION).expect("wire parse"));
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, verdict_to_json(&direct));
    println!("POST /check          -> {} {}", resp.status, resp.body);

    // 2. A batch: the same violating history plus a linearizable one.
    let batch =
        format!("{NEW_OLD_INVERSION}---\nop0 p0 R0 write 2 @ t1..t2\nop1 p1 R0 read 2 @ t3..t4\n");
    let resp = client
        .post("/check_many", &batch)
        .expect("POST /check_many");
    assert_eq!(resp.status, 200);
    println!("POST /check_many     -> {} {}", resp.status, resp.body);

    // 3. Enumerate the linearizations of the linearizable prefix.
    let prefix = "op0 p0 R0 write 1 @ t1..t4\nop1 p1 R0 read 1 @ t2..t3\n";
    let resp = client
        .post("/linearizations?max=4", prefix)
        .expect("POST /linearizations");
    assert_eq!(resp.status, 200);
    println!("POST /linearizations -> {} {}", resp.status, resp.body);

    // 4. A monitoring session fed the same events in two chunks: the verdict
    //    flips from linearizable (read pending) to non-linearizable once the
    //    second read completes with the stale initial value.
    let resp = client.post("/sessions", "").expect("POST /sessions");
    assert_eq!(resp.status, 201);
    println!("POST /sessions       -> {} {}", resp.status, resp.body);
    let id: u64 = resp
        .body
        .trim_start_matches("{\"session\":")
        .split(',')
        .next()
        .and_then(|s| s.parse().ok())
        .expect("session id");
    let chunks = [
        "op0 p0 R0 write 1 @ t1..t4\nop1 p1 R0 read 1 @ t2..t3\nop2 p1 R0 read ? @ t5..\n",
        "op2 p1 R0 read init @ t5..t6\n",
    ];
    for chunk in chunks {
        let resp = client
            .post(&format!("/sessions/{id}/events"), chunk)
            .expect("POST events");
        assert_eq!(resp.status, 200);
        let verdict = client
            .get(&format!("/sessions/{id}/verdict"))
            .expect("GET verdict");
        assert_eq!(verdict.status, 200);
        println!("  events {} -> verdict {}", resp.body, verdict.body);
    }
    // The monitored verdict matches the one-shot check of the full history.
    let monitored = client
        .get(&format!("/sessions/{id}/verdict"))
        .expect("GET verdict");
    assert!(monitored.body.contains("\"decision\":false"));

    // 5. The deterministic counter subset.
    let resp = client
        .get("/metrics?deterministic=1")
        .expect("GET /metrics");
    assert_eq!(resp.status, 200);
    println!("GET /metrics         -> {} {}", resp.status, resp.body);

    // A malformed body comes back as a line-numbered 400, not a dropped socket.
    let resp = client
        .post("/check", "op0 p0 R0 write 1 @ t1..t4\nnot a history line\n")
        .expect("POST /check");
    assert_eq!(resp.status, 400);
    println!("malformed body       -> {} {}", resp.status, resp.body);

    // An events body listed out of invocation order, then the completion of one
    // of its ops; an event reusing a recorded time is a 400 naming its op.
    let events = format!("/sessions/{id}/events");
    let unordered = "op4 p0 R0 write 2 @ t8..\nop3 p1 R0 read ? @ t7..\n";
    let unordered = client.post(&events, unordered).expect("POST events");
    let done = client
        .post(&events, "op4 p0 R0 write 2 @ t8..t9\n")
        .expect("POST events");
    let reused = client
        .post(&events, "op3 p1 R0 read 2 @ t7..t9\n")
        .expect("POST events");
    assert_eq!(
        (unordered.status, done.status, reused.status),
        (200, 200, 400)
    );
    println!(
        "out-of-order events  -> {} then completion {}, reused time {} {}",
        unordered.status, done.status, reused.status, reused.body
    );

    handle.shutdown();
    let _ = Value::Init; // the server's value domain, re-exported for clients
    println!("server drained and shut down");
}
