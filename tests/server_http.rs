//! Integration tests for the HTTP checking service: failure paths (line-numbered
//! 400s, load-shedding 429s, 404s), graceful shutdown draining, response
//! framing, and the differential pin — every verdict served over HTTP, cached or
//! not, is byte-identical to the direct library call.

mod common;

use common::random_history;
use httpd::Client;
use rlt_core::server::handlers::route;
use rlt_core::server::{serve, AppConfig, CheckService, ServerHandle};
use rlt_core::spec::wire::{format_history, parse_history, verdict_to_json};
use rlt_core::spec::{History, Operation, Value};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};

/// The session id in a `POST /sessions` response body.
fn session_id(body: &str) -> u64 {
    body.trim_start_matches("{\"session\":")
        .split(',')
        .next()
        .and_then(|s| s.parse().ok())
        .expect("session id")
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
        (
            "op0 p0 R0 write 1 @ t1..\nop1 p1 R0 read 1 @ t2..t18446744073709551615\n",
            2,
        ),
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
    // A malformed body to an unknown session is a 404 as well: the id is
    // looked up before the parse result, so no parse error is counted.
    let metrics = &handle.service().metrics;
    let not_found = metrics.not_found.load(Ordering::SeqCst);
    let resp = client
        .post("/sessions/999/events", "not a history line\n")
        .expect("POST malformed events");
    assert_eq!(resp.status, 404, "{}", resp.body);
    assert_eq!(metrics.parse_errors.load(Ordering::SeqCst), 0);
    assert_eq!(metrics.not_found.load(Ordering::SeqCst), not_found + 1);
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
    let id = session_id(&created.body);
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

/// Reads one `Content-Length`-framed response off `stream`, byte by byte through
/// its head so nothing of a later response is consumed: its head and its body.
fn read_response(stream: &mut TcpStream) -> (String, String) {
    let mut head = Vec::new();
    while !head.ends_with(b"\r\n\r\n") {
        let mut byte = [0u8];
        stream.read_exact(&mut byte).expect("a response head");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("an ASCII head");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .expect("a Content-Length header");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("the response body");
    (head, String::from_utf8(body).expect("a UTF-8 body"))
}

/// Shutdown waits for a request that has started arriving. The client proves
/// its `/check` is in flight before the test shuts down: one keep-alive
/// `GET /health` round trip, so a worker owns the connection, carries the
/// `/check` head and half its body in the same write. The client sends the
/// rest only once `shutdown()` is on its way, on another thread; the worker
/// keeps reading a started request even while stopping.
#[test]
fn shutdown_drains_in_flight_checks() {
    let handle = serve(AppConfig::default()).expect("bind");
    let addr = handle.addr();
    let body = format_history(&random_history(9, 24));
    let direct = handle.service().build_checker();
    let expected = verdict_to_json(&direct.check(&parse_history(&body).expect("parses")));
    let (in_flight_tx, in_flight_rx) = std::sync::mpsc::channel();
    let (stopping_tx, stopping_rx) = std::sync::mpsc::channel();
    let client = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let (first, rest) = body.as_bytes().split_at(body.len() / 2);
        let mut out = format!(
            "GET /health HTTP/1.1\r\nHost: rlt\r\n\r\n\
             POST /check HTTP/1.1\r\nHost: rlt\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        out.extend_from_slice(first);
        stream
            .write_all(&out)
            .expect("write the health check and half a /check");
        let (head, _) = read_response(&mut stream);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        in_flight_tx.send(()).expect("signal the request in flight");
        stopping_rx.recv().expect("shutdown is on its way");
        stream
            .write_all(rest)
            .expect("write the rest of the /check");
        read_response(&mut stream)
    });
    in_flight_rx
        .recv()
        .expect("the client's /check is in flight");
    let shutdown = std::thread::spawn(move || {
        stopping_tx.send(()).expect("release the client");
        handle.shutdown();
    });
    let (head, served) = client.join().expect("client thread");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}{served}");
    assert_eq!(served, expected);
    shutdown.join().expect("shutdown returns");
    // The listener is gone afterwards.
    assert!(Client::connect(addr)
        .and_then(|mut c| c.get("/health"))
        .is_err());
}

/// The differential pin: the verdict served over HTTP is byte-identical to the
/// direct `Checker::check` call with the server's own knobs.
#[test]
fn served_verdicts_match_library_at_every_thread_policy() {
    let (handle, mut client) = server(AppConfig::default());
    let direct = handle.service().build_checker();
    for seed in 0..12 {
        let body = format_history(&random_history(seed, 20));
        let resp = client.post("/check", &body).expect("POST /check");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let expected = verdict_to_json(&direct.check(&parse_history(&body).expect("parses")));
        assert_eq!(resp.body, expected, "seed {seed}");
    }
    handle.shutdown();
}

/// The interning cache's hit path over HTTP. With room for 4 verdicts, 12
/// bodies sent in groups of 3, each group 3 times, hit, miss and clear the
/// cache; every 200 still equals the library's verdict. Malformed and
/// oversized bodies are never cached: every repeat is rejected and counted.
#[test]
fn cached_verdicts_match_library_and_bad_bodies_are_never_cached() {
    let config = AppConfig {
        cache_capacity: 4,
        max_ops: 20,
        ..AppConfig::default()
    };
    let (handle, mut client) = server(config);
    let metrics = &handle.service().metrics;
    let count = |counter: &AtomicU64| counter.load(Ordering::SeqCst);
    let direct = handle.service().build_checker();
    let bodies: Vec<String> = (0..12)
        .map(|seed| format_history(&random_history(seed, 20)))
        .collect();
    let malformed = "op0 p0 R0 write 1 @ t2..t1\n";
    let oversized: String = (0..21u64)
        .map(|i| format!("op{i} p0 R0 write {i} @ t{}..t{}\n", 2 * i + 1, 2 * i + 2))
        .collect();
    let rejects = [
        (malformed, 400, &metrics.parse_errors),
        (oversized.as_str(), 429, &metrics.rejected_oversize),
    ];
    for (g, group) in bodies.chunks(3).enumerate() {
        for _ in 0..3 {
            for body in group {
                let resp = client.post("/check", body).expect("POST /check");
                assert_eq!(resp.status, 200, "{}", resp.body);
                let expected =
                    verdict_to_json(&direct.check(&parse_history(body).expect("parses")));
                assert_eq!(resp.body, expected, "group {g}");
            }
            if g == 1 {
                for &(body, status, counter) in &rejects {
                    let before = count(counter);
                    let resp = client.post("/check", body).expect("POST /check");
                    assert_eq!(resp.status, status, "{}", resp.body);
                    assert_eq!(count(counter), before + 1, "every repeat is counted");
                }
            }
        }
    }
    let (hits, misses) = (count(&metrics.cache_hits), count(&metrics.cache_misses));
    assert_eq!(count(&metrics.check_requests), hits + misses);
    assert!(hits > 0, "repeats hit the cache");
    assert!(misses > 12, "clear-on-full re-misses: {misses}");
    assert_eq!(count(&metrics.parse_errors), 3);
    assert_eq!(count(&metrics.rejected_oversize), 3);
    handle.shutdown();
}

/// A `204` ends at its blank line: on a kept-alive connection, the response to
/// a request pipelined behind `DELETE` starts right after the 204 head.
#[test]
fn no_content_reply_has_no_body() {
    let (handle, mut client) = server(AppConfig::default());
    let created = client.post("/sessions", "").expect("POST /sessions");
    let id = session_id(&created.body);
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .write_all(
            format!(
                "DELETE /sessions/{id} HTTP/1.1\r\nHost: rlt\r\n\r\n\
                 GET /health HTTP/1.1\r\nHost: rlt\r\nConnection: close\r\n\r\n"
            )
            .as_bytes(),
        )
        .expect("write both requests");
    let mut out = String::new();
    stream
        .read_to_string(&mut out)
        .expect("read both responses");
    let (head, rest) = out.split_once("\r\n\r\n").expect("a response head");
    assert!(head.starts_with("HTTP/1.1 204"), "{out}");
    assert!(!head.contains("Content-Length"), "{out}");
    assert!(rest.starts_with("HTTP/1.1 200"), "{out}");
    handle.shutdown();
}

/// One events body: `chunk` in wire text.
fn events_body(chunk: &[Operation<Value>]) -> String {
    format_history(&History::from_operations(chunk.to_vec()))
}

/// Streams `history` into session `id` in chunks of 5 ops and polls the
/// verdict after every chunk. Every poll must start with the verdict of a
/// direct `IncrementalChecker` fed the same prefix.
fn stream_and_poll(client: &mut Client, service: &CheckService, id: u64, history: &History<Value>) {
    let mut direct = service.build_checker().incremental();
    for chunk in history.operations().chunks(5) {
        let resp = client
            .post(&format!("/sessions/{id}/events"), &events_body(chunk))
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
            "session {id}: served {} vs library {expected}",
            served.body
        );
    }
}

/// The monitoring-session pin: after every event chunk, the served verdict is
/// byte-identical to a direct `IncrementalChecker` fed the same prefix, and the
/// served history echoes the session's operation stream.
#[test]
fn session_verdicts_match_direct_incremental_checker() {
    let (handle, mut client) = server(AppConfig::default());
    let history = random_history(42, 24);
    let created = client.post("/sessions", "").expect("POST /sessions");
    assert_eq!(created.status, 201);
    let id = session_id(&created.body);
    stream_and_poll(&mut client, handle.service(), id, &history);
    // The echoed history parses back to exactly the session's operations.
    let echoed = client
        .get(&format!("/sessions/{id}/history"))
        .expect("GET history");
    assert_eq!(echoed.status, 200);
    assert_eq!(
        parse_history(&echoed.body)
            .expect("echo parses")
            .operations(),
        history.operations()
    );
    handle.shutdown();
}

/// Sessions driven at the same time. Four clients, one per default worker,
/// each stream their own seeded sessions in chunks and poll the verdict after
/// every chunk. Every poll starts with the verdict of a direct
/// `IncrementalChecker` over the same prefix, and the deterministic counters
/// equal, byte for byte, a sequential replay of the same streams on a fresh
/// service: they are sums and one HLL max-merge, so no interleaving moves them.
#[test]
fn concurrent_sessions_match_the_library_and_a_sequential_replay() {
    const CLIENTS: u64 = 4;
    const SESSIONS: u64 = 3;
    let histories = |c: u64| (0..SESSIONS).map(move |k| random_history(100 + c * SESSIONS + k, 24));
    let handle = serve(AppConfig::default()).expect("bind");
    let (addr, service) = (handle.addr(), handle.service());
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for history in histories(c) {
                    let created = client.post("/sessions", "").expect("POST /sessions");
                    assert_eq!(created.status, 201, "{}", created.body);
                    let id = session_id(&created.body);
                    stream_and_poll(&mut client, service, id, &history);
                    let deleted = client.delete(&format!("/sessions/{id}")).expect("DELETE");
                    assert_eq!(deleted.status, 204);
                }
            });
        }
    });
    let replay = CheckService::new(AppConfig::default());
    for c in 0..CLIENTS {
        for history in histories(c) {
            let (id, _) = replay.create_session("").expect("create");
            for chunk in history.operations().chunks(5) {
                replay
                    .session_events(id, &events_body(chunk))
                    .expect("events");
                replay.session_verdict(id).expect("verdict");
            }
            replay.delete_session(id).expect("delete");
        }
    }
    let mut client = Client::connect(addr).expect("connect");
    let served = client.get("/metrics?deterministic=1").expect("metrics");
    assert_eq!(served.body, replay.metrics_json(true));
    assert!(
        served.body.contains("\"sessions_created\":12,"),
        "{}",
        served.body
    );
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

/// One request through the routing table, with no socket: `(status, body)`.
fn route_text(service: &CheckService, method: &str, target: &str, body: &str) -> (u16, String) {
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path, Some(query.to_string())),
        None => (target, None),
    };
    let request = httpd::Request {
        method: method.to_string(),
        path: path.to_string(),
        query,
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    };
    let response = route(service, &request);
    let body = String::from_utf8(response.body).expect("UTF-8 response body");
    (response.status, body)
}

/// Every served JSON shape, byte for byte. A JSON writer that replaces the
/// hand-rolled `format!` rendering must reproduce these exactly.
#[test]
fn served_json_shapes_are_byte_pinned() {
    // Tagged, pair and ⊥ values, and a pending write a later read observes.
    const CHECK: &str = "op0 p0 R0 write (5#2) @ t1..t2\nop1 p1 R0 read (5#2) @ t3..t4\n\
                         op2 p0 R1 write [0,3] @ t5..t6\nop3 p1 R1 write ⊥ @ t7..t8\n\
                         op4 p2 R1 read ⊥ @ t9..t10\nop5 p2 R0 write 7 @ t11..\n\
                         op6 p1 R0 read 7 @ t12..t13\n";
    const STALE: &str = "op0 p0 R0 write 1 @ t1..t2\nop1 p1 R0 read 0 @ t3..t4\n";
    // Three concurrent writes: six orders.
    const ORDERS: &str =
        "op0 p0 R0 write 1 @ t1..t4\nop1 p1 R0 write 2 @ t2..t5\nop2 p2 R0 write 3 @ t3..t6\n";
    const CHECK_STATS: &str = r#""stats":{"states_explored":9,"states_memoized":0,"enumeration_nodes":0,"memo_probes":7,"memo_hits":0,"memo_arena_high_water":8}"#;
    let check_witness = concat!(
        r#"{"decision":true,"witness":["#,
        r#"{"op":0,"process":0,"register":0,"kind":"write","value":"(5#2)"},"#,
        r#"{"op":1,"process":1,"register":0,"kind":"read","value":"(5#2)"},"#,
        r#"{"op":2,"process":0,"register":1,"kind":"write","value":"[0,3]"},"#,
        r#"{"op":3,"process":1,"register":1,"kind":"write","value":"⊥"},"#,
        r#"{"op":4,"process":2,"register":1,"kind":"read","value":"⊥"},"#,
        r#"{"op":5,"process":2,"register":0,"kind":"write","value":"7"},"#,
        r#"{"op":6,"process":1,"register":0,"kind":"read","value":"7"}],"#,
    );
    let check = format!("{check_witness}{CHECK_STATS}}}");
    let stale = r#"{"decision":false,"witness":null,"stats":{"states_explored":2,"states_memoized":0,"enumeration_nodes":0,"memo_probes":2,"memo_hits":0,"memo_arena_high_water":4}}"#;

    let service = CheckService::new(AppConfig::default());
    let exchanges: Vec<(&str, &str, String, u16, String)> = vec![
        ("POST", "/check", CHECK.to_string(), 200, check.clone()),
        (
            "POST",
            "/check_many",
            format!("{CHECK}---\n{STALE}"),
            200,
            format!("[{check},{stale}]"),
        ),
        (
            "POST",
            "/linearizations",
            ORDERS.to_string(),
            200,
            r#"{"linearizations":[[0,1,2],[0,2,1],[1,0,2],[1,2,0],[2,0,1],[2,1,0]],"count":6,"truncated":false,"work_capped":false}"#.to_string(),
        ),
        (
            "POST",
            "/linearizations?max=2",
            ORDERS.to_string(),
            200,
            r#"{"linearizations":[[0,1,2],[0,2,1]],"count":2,"truncated":true,"work_capped":false}"#.to_string(),
        ),
        (
            "POST",
            "/sessions",
            "op0 p0 R0 write 1 @ t1..t2\n".to_string(),
            201,
            r#"{"session":1,"ops":1}"#.to_string(),
        ),
        (
            "POST",
            "/sessions/1/events",
            "op1 p1 R0 read 1 @ t3..t4\nop2 p1 R0 write 2 @ t5..\n".to_string(),
            200,
            r#"{"ops":3}"#.to_string(),
        ),
        (
            "GET",
            "/sessions/1/verdict",
            String::new(),
            200,
            concat!(
                r#"{"verdict":{"decision":true,"witness":["#,
                r#"{"op":0,"process":0,"register":0,"kind":"write","value":"1"},"#,
                r#"{"op":1,"process":1,"register":0,"kind":"read","value":"1"}],"#,
                r#""stats":{"states_explored":3,"states_memoized":0,"enumeration_nodes":0,"memo_probes":2,"memo_hits":0,"memo_arena_high_water":4}},"#,
                r#""incremental":{"ops_appended":3,"completions":2,"verdicts":1,"registers_reused":0,"registers_resumed":0,"registers_researched":1,"incremental_states":3,"full_rebuilds":0,"full_fallbacks":0}}"#,
            )
            .to_string(),
        ),
        // The offending token carries a quote, a backslash and a control byte.
        (
            "POST",
            "/check",
            "op0 p0 R0 write [a\"\\\u{1},1] @ t1..t2\n".to_string(),
            400,
            r#"{"error":"history line 1: bad pair component `a\"\\\u0001` in `[a\"\\\u0001,1]`"}"#.to_string(),
        ),
        (
            "GET",
            "/nope",
            String::new(),
            404,
            r#"{"error":"no such resource `/nope`"}"#.to_string(),
        ),
        (
            "GET",
            "/check",
            String::new(),
            405,
            r#"{"error":"method not allowed"}"#.to_string(),
        ),
        ("GET", "/health", String::new(), 200, r#"{"status":"ok"}"#.to_string()),
        (
            "GET",
            "/metrics?deterministic=1",
            String::new(),
            200,
            concat!(
                r#"{"check_requests":1,"check_many_requests":1,"check_many_histories":2,"#,
                r#""linearization_requests":2,"sessions_created":1,"session_events":3,"#,
                r#""session_verdicts":1,"verdicts_linearizable":3,"verdicts_not_linearizable":1,"#,
                r#""verdicts_inconclusive":0,"cache_hits":0,"cache_misses":1,"parse_errors":1,"#,
                r#""not_found":1,"rejected_backpressure":0,"rejected_oversize":0,"#,
                r#""distinct_states_estimate":6}"#,
            )
            .to_string(),
        ),
    ];
    for (method, target, body, status, expected) in exchanges {
        assert_eq!(
            route_text(&service, method, target, &body),
            (status, expected),
            "{method} {target}"
        );
    }

    // Witness recording off, and a state budget too small to decide.
    let witness_off = CheckService::new(AppConfig {
        witness: false,
        ..AppConfig::default()
    });
    assert_eq!(
        route_text(&witness_off, "POST", "/check", CHECK),
        (
            200,
            format!(r#"{{"decision":true,"witness":null,{CHECK_STATS}}}"#)
        )
    );
    let starved = CheckService::new(AppConfig {
        state_budget: 1,
        ..AppConfig::default()
    });
    assert_eq!(
        route_text(&starved, "POST", "/check", CHECK),
        (
            200,
            r#"{"decision":null,"witness":null,"stats":{"states_explored":2,"states_memoized":0,"enumeration_nodes":0,"memo_probes":1,"memo_hits":0,"memo_arena_high_water":2}}"#.to_string()
        )
    );
    // An enumeration that runs out of work before its first order.
    let capped = CheckService::new(AppConfig {
        enumeration_work_cap: 3,
        ..AppConfig::default()
    });
    assert_eq!(
        route_text(&capped, "POST", "/linearizations", ORDERS),
        (
            200,
            r#"{"linearizations":[],"count":0,"truncated":false,"work_capped":true}"#.to_string()
        )
    );
}
