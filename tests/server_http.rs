//! Integration tests for the HTTP checking service: failure paths (line-numbered
//! 400s, load-shedding 429s, 404s), graceful shutdown draining, and the
//! differential pin — every verdict served over HTTP is byte-identical to the
//! direct library call under every thread policy.

use httpd::Client;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlt_core::server::{serve, AppConfig, ServerHandle};
use rlt_core::spec::wire::{format_history, parse_history, verdict_to_json};
use rlt_core::spec::{History, HistoryBuilder, OpId, ProcessId, RegisterId, ThreadPolicy, Value};

/// A random well-formed `History<Value>` with a pending tail (same shape as the
/// wire-codec property corpus).
fn random_history(seed: u64, max_ops: usize) -> History<Value> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b: HistoryBuilder<Value> = HistoryBuilder::new();
    let mut open: Vec<(OpId, bool)> = Vec::new();
    let value = |rng: &mut StdRng| match rng.gen_range(0..3) {
        0 => Value::Init,
        1 => Value::Int(rng.gen_range(1..4)),
        _ => Value::Pair(rng.gen_range(0..3), rng.gen_range(0..3)),
    };
    for _ in 0..rng.gen_range(1..=max_ops) {
        let p = ProcessId(rng.gen_range(0..3));
        let r = RegisterId(rng.gen_range(0..2));
        if rng.gen_bool(0.5) {
            let v = value(&mut rng);
            open.push((b.invoke_write(p, r, v), false));
        } else {
            open.push((b.invoke_read(p, r), true));
        }
        while !open.is_empty() && rng.gen_bool(0.5) {
            let (id, is_read) = open.swap_remove(rng.gen_range(0..open.len()));
            if is_read {
                let v = value(&mut rng);
                b.respond_read(id, v);
            } else {
                b.respond_write(id);
            }
        }
    }
    b.build()
}

fn server(config: AppConfig) -> (ServerHandle, Client) {
    let handle = serve(config).expect("bind");
    let client = Client::connect(handle.addr()).expect("connect");
    (handle, client)
}

#[test]
fn malformed_bodies_get_line_numbered_400() {
    let (handle, mut client) = server(AppConfig::default());
    let cases: &[(&str, usize)] = &[
        ("not a history line\n", 1),
        ("op0 p0 R0 write 1 @ t1..t2\nop0 p0 R0 read 1 @ t3..t4\n", 2),
        ("op0 p0 R0 write 1 @ t2..t1\n", 1),
        ("op0 p0 R0 write what @ t1..t2\n", 1),
        ("op0 p0 R0 poke 1 @ t1..t2\n", 1),
        ("# comment only\nop0 p0 R0 write 1 @ t1..t1\n", 2),
        ("op0 p0 R0 read ? @ t1..t2\n", 1),
    ];
    for (body, line) in cases {
        let resp = client.post("/check", body).expect("POST /check");
        assert_eq!(resp.status, 400, "{body:?} -> {}", resp.body);
        assert!(
            resp.body.contains(&format!("history line {line}:")),
            "{body:?} -> {}",
            resp.body
        );
    }
    // The connection survives every 400 — a good request still round-trips.
    let resp = client
        .post("/check", "op0 p0 R0 write 1 @ t1..t2\n")
        .expect("POST /check");
    assert_eq!(resp.status, 200);
    let metrics = client.get("/metrics?deterministic=1").expect("metrics");
    assert!(metrics
        .body
        .contains(&format!("\"parse_errors\":{}", cases.len())));
    handle.shutdown();
}

#[test]
fn oversized_histories_shed_with_429() {
    let config = AppConfig {
        max_ops: 2,
        ..AppConfig::default()
    };
    let (handle, mut client) = server(config);
    let big =
        "op0 p0 R0 write 1 @ t1..t2\nop1 p0 R0 write 2 @ t3..t4\nop2 p0 R0 write 3 @ t5..t6\n";
    let resp = client.post("/check", big).expect("POST /check");
    assert_eq!(resp.status, 429, "{}", resp.body);
    assert!(resp.body.contains("2"), "names the cap: {}", resp.body);
    // Within the cap the same server still answers.
    let resp = client
        .post("/check", "op0 p0 R0 write 1 @ t1..t2\n")
        .expect("POST /check");
    assert_eq!(resp.status, 200);
    let metrics = client.get("/metrics?deterministic=1").expect("metrics");
    assert!(metrics.body.contains("\"rejected_oversize\":1"));
    handle.shutdown();

    // A body over the transport cap never reaches the service at all: 413.
    let config = AppConfig {
        max_body: 64,
        ..AppConfig::default()
    };
    let (handle, mut client) = server(config);
    let resp = client.post("/check", big).expect("POST /check");
    assert_eq!(resp.status, 413);
    handle.shutdown();
}

#[test]
fn backpressure_sheds_with_429_when_aggregate_budget_exhausted() {
    let config = AppConfig {
        aggregate_state_budget: 1,
        ..AppConfig::default()
    };
    let (handle, mut client) = server(config);
    let resp = client
        .post("/check", "op0 p0 R0 write 1 @ t1..t2\n")
        .expect("POST /check");
    assert_eq!(resp.status, 429, "{}", resp.body);
    let metrics = client.get("/metrics?deterministic=1").expect("metrics");
    assert!(metrics.body.contains("\"rejected_backpressure\":1"));
    assert_eq!(
        handle.service().in_flight_cost(),
        0,
        "guard released on shed"
    );
    handle.shutdown();
}

#[test]
fn unknown_sessions_and_routes_get_404_wrong_methods_405() {
    let (handle, mut client) = server(AppConfig::default());
    let resp = client.get("/sessions/999/verdict").expect("GET verdict");
    assert_eq!(resp.status, 404, "{}", resp.body);
    let resp = client
        .post("/sessions/999/events", "op0 p0 R0 write 1 @ t1..t2\n")
        .expect("POST events");
    assert_eq!(resp.status, 404);
    let resp = client.delete("/sessions/999").expect("DELETE session");
    assert_eq!(resp.status, 404);
    let resp = client.get("/no/such/route").expect("GET");
    assert_eq!(resp.status, 404);
    let resp = client.get("/check").expect("GET /check");
    assert_eq!(resp.status, 405);
    let resp = client.post("/metrics", "").expect("POST /metrics");
    assert_eq!(resp.status, 405);
    // A deleted session is gone — its id is not reused.
    let created = client.post("/sessions", "").expect("POST /sessions");
    assert_eq!(created.status, 201);
    let id: u64 = created
        .body
        .trim_start_matches("{\"session\":")
        .split(',')
        .next()
        .and_then(|s| s.parse().ok())
        .expect("session id");
    assert_eq!(
        client
            .delete(&format!("/sessions/{id}"))
            .expect("DELETE")
            .status,
        204
    );
    assert_eq!(
        client
            .get(&format!("/sessions/{id}/verdict"))
            .expect("GET")
            .status,
        404
    );
    handle.shutdown();
}

#[test]
fn shutdown_drains_in_flight_checks() {
    let handle = serve(AppConfig::default()).expect("bind");
    let addr = handle.addr();
    let body = format_history(&random_history(9, 24));
    let worker = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client.post("/check", &body).expect("in-flight POST /check")
    });
    // Shut down once the server has received the request, which may still be in
    // flight: the worker's response must be a completed 200, never a dropped
    // socket. (A fixed sleep here raced the worker's connect on a loaded host.)
    let received = || {
        handle
            .service()
            .metrics
            .check_requests
            .load(std::sync::atomic::Ordering::SeqCst)
            > 0
    };
    // Poll for at most ~10 s.
    for _ in 0..100_000 {
        if received() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(100));
    }
    handle.shutdown();
    let resp = worker.join().expect("worker thread");
    assert_eq!(resp.status, 200, "{}", resp.body);
    // The listener is gone afterwards.
    assert!(Client::connect(addr)
        .and_then(|mut c| c.get("/health"))
        .is_err());
}

/// The differential pin: the verdict served over HTTP is byte-identical to the
/// direct `Checker::check` call with the server's own knobs, at every thread
/// policy — and identical across policies.
#[test]
fn served_verdicts_match_library_at_every_thread_policy() {
    let bodies: Vec<String> = (0..12)
        .map(|seed| format_history(&random_history(seed, 20)))
        .collect();
    let mut per_policy: Vec<Vec<String>> = Vec::new();
    for threads in [
        ThreadPolicy::Sequential,
        ThreadPolicy::Auto,
        ThreadPolicy::Fixed(2),
    ] {
        let config = AppConfig {
            threads,
            ..AppConfig::default()
        };
        let (handle, mut client) = server(config);
        let direct = handle.service().build_checker();
        let mut served = Vec::new();
        for body in &bodies {
            let resp = client.post("/check", body).expect("POST /check");
            assert_eq!(resp.status, 200, "{}", resp.body);
            let expected = verdict_to_json(&direct.check(&parse_history(body).expect("parses")));
            assert_eq!(resp.body, expected, "policy {threads:?}");
            served.push(resp.body);
        }
        per_policy.push(served);
        handle.shutdown();
    }
    assert_eq!(per_policy[0], per_policy[1], "Sequential vs Auto");
    assert_eq!(per_policy[0], per_policy[2], "Sequential vs Fixed(2)");
}

/// The monitoring-session pin: after every event chunk, the served verdict is
/// byte-identical to a direct `IncrementalChecker` fed the same prefix, and the
/// served history echoes the session's operation stream.
#[test]
fn session_verdicts_match_direct_incremental_checker() {
    let (handle, mut client) = server(AppConfig::default());
    let history = random_history(42, 24);
    let ops = history.operations();
    let created = client.post("/sessions", "").expect("POST /sessions");
    assert_eq!(created.status, 201);
    let id: u64 = created
        .body
        .trim_start_matches("{\"session\":")
        .split(',')
        .next()
        .and_then(|s| s.parse().ok())
        .expect("session id");

    let mut direct = handle.service().build_checker().incremental();
    for chunk in ops.chunks(5) {
        let body = format_history(&History::from_operations(chunk.to_vec()));
        let resp = client
            .post(&format!("/sessions/{id}/events"), &body)
            .expect("POST events");
        assert_eq!(resp.status, 200, "{}", resp.body);
        for op in chunk {
            direct.append(op.clone());
        }
        let served = client
            .get(&format!("/sessions/{id}/verdict"))
            .expect("GET verdict");
        assert_eq!(served.status, 200);
        let expected = format!(
            "{{\"verdict\":{},",
            verdict_to_json(direct.verdict().as_verdict())
        );
        assert!(
            served.body.starts_with(&expected),
            "served {} vs library {}",
            served.body,
            expected
        );
    }
    // The echoed history parses back to exactly the session's operations.
    let echoed = client
        .get(&format!("/sessions/{id}/history"))
        .expect("GET history");
    assert_eq!(echoed.status, 200);
    assert_eq!(
        parse_history(&echoed.body)
            .expect("echo parses")
            .operations(),
        ops
    );
    handle.shutdown();
}

/// Malformed events bodies against a live session: each is a 400 naming the
/// offending op, and afterwards the same session still takes a good chunk and
/// serves the verdict of a direct `IncrementalChecker` fed the same bodies. The
/// first two rows are well-formed: a body listed out of invocation order, then a
/// completion of one of its ops.
#[test]
fn malformed_session_events_are_400s_and_the_session_survives() {
    // op0 complete, op1 a pending write, op2 a pending read; last event at t4.
    let seed = "op0 p0 R0 write 1 @ t1..t2\nop1 p1 R0 write 2 @ t3..\nop2 p2 R0 read ? @ t4..\n";
    // (events body, `None` for a 200 or `Some((op, phrase))` for a 400)
    let rows: &[(&str, Option<(&str, &str)>)] = &[
        ("op4 p3 R0 write 4 @ t6..\nop3 p4 R0 read ? @ t5..\n", None),
        ("op3 p4 R0 read 2 @ t5..t7\n", None),
        (
            "op2 p2 R0 read ? @ t4..t9\n",
            Some(("op2", "completed read")),
        ),
        (
            "op0 p0 R0 write 5 @ t10..t11\n",
            Some(("op0", "duplicate operation id")),
        ),
        (
            "op9 p3 R0 write 3 @ t1..t12\n",
            Some(("op9", "duplicate event time")),
        ),
        (
            "op1 p1 R0 write 2 @ t3..t4\n",
            Some(("op1", "duplicate event time")),
        ),
        (
            "op1 p1 R0 write 9 @ t3..t10\n",
            Some(("op1", "contradicts")),
        ),
        (
            "op0 p0 R0 write 1 @ t1..t10\n",
            Some(("op0", "duplicate operation id")),
        ),
        (
            "op9 p3 R0 write 3 @ t18446744073709551615..\n",
            Some(("op9", "out of range")),
        ),
    ];
    let (handle, mut client) = server(AppConfig::default());
    let created = client.post("/sessions", seed).expect("POST /sessions");
    assert_eq!(created.status, 201, "{}", created.body);
    let id: u64 = created
        .body
        .trim_start_matches("{\"session\":")
        .split(',')
        .next()
        .and_then(|s| s.parse().ok())
        .expect("session id");
    let events = format!("/sessions/{id}/events");
    let mut direct = handle.service().build_checker().incremental();
    let mut feed = |body: &str| {
        if let Ok(history) = parse_history(body) {
            let _ = direct.try_extend(history.operations());
        }
        verdict_to_json(direct.verdict().as_verdict())
    };
    feed(seed);
    for (k, (body, expected)) in rows.iter().enumerate() {
        let resp = client.post(&events, body).expect("POST events");
        feed(body);
        match expected {
            None => assert_eq!(resp.status, 200, "{body:?} -> {}", resp.body),
            Some((op, phrase)) => {
                assert_eq!(resp.status, 400, "{body:?} -> {}", resp.body);
                assert!(
                    resp.body.contains(op) && resp.body.contains(phrase),
                    "{body:?} -> {}",
                    resp.body
                );
            }
        }
        // The same session takes a good chunk (fresh ids, later times) and
        // serves the library's verdict.
        let (op, t) = (100 + 2 * k, 100 + 4 * k);
        let good = format!(
            "op{op} p5 R1 write {k} @ t{t}..t{}\nop{} p6 R1 read {k} @ t{}..t{}\n",
            t + 1,
            op + 1,
            t + 2,
            t + 3
        );
        let resp = client.post(&events, &good).expect("POST events");
        assert_eq!(resp.status, 200, "after {body:?}: {}", resp.body);
        let expected = format!("{{\"verdict\":{},", feed(&good));
        let served = client
            .get(&format!("/sessions/{id}/verdict"))
            .expect("GET verdict");
        assert_eq!(served.status, 200);
        assert!(
            served.body.starts_with(&expected),
            "after {body:?}: served {} vs library {expected}",
            served.body
        );
    }
    handle.shutdown();
}

#[test]
fn analyze_reports_line_numbered_diagnostics_as_stable_json() {
    let (handle, mut client) = server(AppConfig::default());
    // A clean schedule under the permissive model.
    let resp = client
        .post("/analyze", "write 7\ncrash 1\nrecover 1\n")
        .expect("POST /analyze");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(
        resp.body,
        "{\"clean\":true,\"steps\":3,\"dead_steps\":0,\"diagnostics\":[]}"
    );
    // Dead steps come back with real source line numbers (comments counted).
    let resp = client
        .post("/analyze", "# preamble\n\nrecover 2\nheal 9\n")
        .expect("POST /analyze");
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.body,
        "{\"clean\":false,\"steps\":2,\"dead_steps\":2,\"diagnostics\":[\
         {\"step\":0,\"line\":3,\"severity\":\"dead\",\"code\":\"dead-recover\",\
         \"message\":\"process 2 is not crashed here\"},\
         {\"step\":1,\"line\":4,\"severity\":\"dead\",\"code\":\"dead-heal\",\
         \"message\":\"no partition with id 9 is installed\"}]}"
    );
    // Shaped models unlock protocol-role diagnostics.
    let resp = client
        .post("/analyze/faulty-abd", "read 2\ndeliver 2->1 wb-req#1\n")
        .expect("POST /analyze/faulty-abd");
    assert_eq!(resp.status, 200);
    assert!(
        resp.body.contains("\"code\":\"no-write-back\""),
        "{}",
        resp.body
    );
    // Byte-stability: the same body twice produces the same bytes.
    let again = client
        .post("/analyze/faulty-abd", "read 2\ndeliver 2->1 wb-req#1\n")
        .expect("repeat");
    assert_eq!(resp.body, again.body);
    handle.shutdown();
}

#[test]
fn analyze_maps_errors_to_400_404_405() {
    let (handle, mut client) = server(AppConfig::default());
    let resp = client
        .post("/analyze", "write 1\nbogus step\n")
        .expect("POST /analyze");
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("schedule line 2:"), "{}", resp.body);
    let resp = client
        .post("/analyze/no-such-cluster", "write 1\n")
        .expect("POST unknown model");
    assert_eq!(resp.status, 404, "{}", resp.body);
    let resp = client.get("/analyze").expect("GET /analyze");
    assert_eq!(resp.status, 405, "{}", resp.body);
    handle.shutdown();
}
