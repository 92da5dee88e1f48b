//! The two server workloads, `serve_check` and `serve_monitor`: closed loops
//! of keep-alive clients against one in-process `rlt-server` with the default
//! `AppConfig`, untraced and traced.

use crate::inputs::{self, Stream, Zipf, CHECK_POOL, CHECK_ZIPF};
use crate::stats::{json_u64, mean, median, object, StealMonitor, Windowed};
use crate::trace::Trace;
use crate::{repeat_setup, Failures, Report, Traced};
use httpd::{Client, HttpResponse};
use rlt_server::{handlers, serve, AppConfig, CheckService, ServerHandle};
use rlt_spec::wire::{parse_history, verdict_to_json};
use rlt_spec::{
    CheckStats, Engine, ScratchPool, Value, DEFAULT_SPLIT_THRESHOLD, DEFAULT_STATE_LIMIT,
};
use std::io::{Read as _, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop clients: one per CPU of the reference 2-CPU host.
pub const CLIENTS: usize = 2;
/// Requests per client of the cache warm-up inside each `serve_check` set-up.
/// The warm-ups run [`CLIENTS`] clients like the timed loop: a single
/// client's ping-pong with the server idles and wakes the CPUs on every
/// request, and on a virtual machine those wake-ups vary far more from run
/// to run than busy CPUs do.
const CHECK_WARMUP: usize = 1000;
/// Requests of the sequential pass that produces the deterministic counters.
const COUNTER_REQUESTS: usize = 16384;
/// Sessions per client of the `serve_monitor` warm-up, and streams of its
/// counter pass.
const MONITOR_WARMUP: usize = 4;
const MONITOR_COUNTER_STREAMS: usize = 16;

/// The library's answer for every pool body: verdict JSON plus its search
/// statistics (the counter pass sums them over cache misses).
fn check_oracle(service: &CheckService, bodies: &[String]) -> Vec<(String, CheckStats)> {
    let checker = service.build_checker();
    bodies
        .iter()
        .map(|body| {
            let verdict = checker.check(&parse_history(body).expect("generated bodies parse"));
            (verdict_to_json(&verdict), verdict.stats())
        })
        .collect()
}

fn post(client: &mut Client, path: &str, body: &str) -> Result<HttpResponse, String> {
    client
        .post(path, body)
        .map_err(|e| format!("POST {path}: {e}"))
}

pub fn serve_check(seed: u64, seconds: f64) -> Report {
    let mut fails = Failures::default();
    let ((handle, bodies, zipf), setup_s) = repeat_setup(
        || {
            let handle = serve(AppConfig::default()).expect("bind the checking service");
            let bodies = inputs::check_pool(seed);
            let zipf = Zipf::new(CHECK_POOL, CHECK_ZIPF, seed);
            std::thread::scope(|s| {
                for c in 0..CLIENTS {
                    let (bodies, zipf, addr) = (&bodies, &zipf, handle.addr());
                    s.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        let mut rng = inputs::rng(seed, 7, c as u64);
                        for _ in 0..CHECK_WARMUP {
                            let resp = client.post("/check", &bodies[zipf.sample(&mut rng)]);
                            assert!(
                                matches!(resp, Ok(ref r) if r.status == 200),
                                "warm-up request failed: {resp:?}"
                            );
                        }
                    });
                }
            });
            (handle, bodies, zipf)
        },
        |(handle, _, _)| handle.shutdown(),
    );
    let oracle = check_oracle(handle.service(), &bodies);
    let metrics = &handle.service().metrics;
    let (hits0, misses0) = (
        metrics.cache_hits.load(Ordering::SeqCst),
        metrics.cache_misses.load(Ordering::SeqCst),
    );

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let monitor = StealMonitor::start(start);
    let results: Vec<(Windowed, u64, Failures)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (bodies, oracle, zipf, addr) = (&bodies, &oracle, &zipf, handle.addr());
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut rng = inputs::rng(seed, 8, c as u64);
                    let (mut lat, mut sent, mut fails) =
                        (Windowed::new(start), 0u64, Failures::default());
                    while Instant::now() < deadline {
                        let k = zipf.sample(&mut rng);
                        let t = Instant::now();
                        let resp = post(&mut client, "/check", &bodies[k]);
                        lat.record(t.elapsed());
                        sent += 1;
                        match resp {
                            Ok(r) if r.status == 200 && r.body == oracle[k].0 => {}
                            Ok(r) => fails.fail(format!(
                                "body {k}: status {} served {} but the library says {}",
                                r.status, r.body, oracle[k].0
                            )),
                            Err(e) => fails.fail(e),
                        }
                    }
                    (lat, sent, fails)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let steal = monitor.finish();
    let (mut lat, mut sent) = (Windowed::new(start), 0);
    for (l, n, f) in results {
        lat.merge(l);
        sent += n;
        fails.merge(f);
    }
    let hits = metrics.cache_hits.load(Ordering::SeqCst) - hits0;
    let misses = metrics.cache_misses.load(Ordering::SeqCst) - misses0;
    handle.shutdown();

    // Deterministic counters: one sequential pass over a fixed seeded request
    // stream on a fresh service, so cache order is a function of the seed.
    let service = CheckService::new(AppConfig::default());
    let mut rng = inputs::rng(seed, 9, 0);
    let (mut states, mut memo_hits, mut memo_probes) = (0u64, 0u64, 0u64);
    let mut distinct = std::collections::BTreeSet::new();
    for _ in 0..COUNTER_REQUESTS {
        let k = zipf.sample(&mut rng);
        distinct.insert(k);
        let before = service.metrics.cache_misses.load(Ordering::SeqCst);
        match service.check_text(&bodies[k]) {
            Ok(json) if json == oracle[k].0 => {}
            other => fails.fail(format!("counter pass, body {k}: {other:?}")),
        }
        if service.metrics.cache_misses.load(Ordering::SeqCst) > before {
            let stats = oracle[k].1;
            states += stats.states_explored;
            memo_hits += stats.memo.hits;
            memo_probes += stats.memo.probes;
        }
    }
    let counters = object(&[
        ("requests", COUNTER_REQUESTS.to_string()),
        // Misses beyond the distinct bodies are re-misses after a cache clear.
        ("distinct_bodies", distinct.len().to_string()),
        ("engine_states", states.to_string()),
        ("engine_memo_hits", memo_hits.to_string()),
        ("engine_memo_probes", memo_probes.to_string()),
        ("service", service.metrics_json(true)),
    ]);

    let w = lat.summary(seconds, &steal);
    Report {
        attempted: sent,
        fails,
        clients: CLIENTS,
        samples: vec![("windows", w.windows), ("latency", w.samples)],
        counters,
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("throughput_per_s", w.throughput, "1/s"),
            ("latency_p50_us", w.p50, "us"),
            ("latency_p99_us", w.p99, "us"),
            (
                "cache_hit_share",
                hits as f64 / (hits + misses).max(1) as f64,
                "ratio",
            ),
            ("steal_share", mean(&steal), "ratio"),
        ],
    }
}

/// Parses the session id out of a `POST /sessions` response.
fn session_id(resp: &HttpResponse) -> Option<u64> {
    (resp.status == 201)
        .then(|| json_u64(&resp.body, "session"))
        .flatten()
}

/// The per-client `serve_monitor` loop state.
struct MonitorClient {
    events: Windowed,
    polls: Windowed,
    requests: u64,
    fails: Failures,
}

impl MonitorClient {
    fn new(start: Instant) -> Self {
        MonitorClient {
            events: Windowed::new(start),
            polls: Windowed::new(start),
            requests: 0,
            fails: Failures::default(),
        }
    }

    fn expect_status(
        &mut self,
        what: &str,
        resp: Result<HttpResponse, String>,
        status: u16,
    ) -> Option<HttpResponse> {
        self.requests += 1;
        match resp {
            Ok(r) if r.status == status => Some(r),
            Ok(r) => {
                self.fails
                    .fail(format!("{what}: status {} body {}", r.status, r.body));
                None
            }
            Err(e) => {
                self.fails.fail(e);
                None
            }
        }
    }

    /// One whole session: create, stream every chunk with a verdict poll
    /// after each, compare the final verdict with the library, delete.
    fn session(&mut self, client: &mut Client, stream: &Stream, expected: &str) {
        let created = post(client, "/sessions", "");
        let Some(id) = self
            .expect_status("POST /sessions", created, 201)
            .as_ref()
            .and_then(session_id)
        else {
            return;
        };
        let (events_path, verdict_path) = (
            format!("/sessions/{id}/events"),
            format!("/sessions/{id}/verdict"),
        );
        let mut last = String::new();
        for chunk in &stream.chunks {
            let t = Instant::now();
            let resp = post(client, &events_path, chunk);
            self.events.record(t.elapsed());
            self.expect_status("POST events", resp, 200);
            let t = Instant::now();
            let resp = client.get(&verdict_path).map_err(|e| e.to_string());
            self.polls.record(t.elapsed());
            if let Some(r) = self.expect_status("GET verdict", resp, 200) {
                last = r.body;
            }
        }
        if !last.starts_with(expected) {
            self.fails.fail(format!(
                "session verdict {last} diverges from the library's {expected}"
            ));
        }
        let resp = client
            .delete(&format!("/sessions/{id}"))
            .map_err(|e| e.to_string());
        self.expect_status("DELETE session", resp, 204);
    }
}

pub fn serve_monitor(seed: u64, seconds: f64) -> Report {
    let mut fails = Failures::default();
    let ((handle, streams), setup_s) = repeat_setup(
        || {
            let handle = serve(AppConfig::default()).expect("bind the checking service");
            let streams = inputs::session_streams(seed);
            std::thread::scope(|s| {
                for c in 0..CLIENTS {
                    let (streams, addr) = (&streams, handle.addr());
                    s.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        let mut warm = MonitorClient::new(Instant::now());
                        for stream in streams.iter().skip(c).step_by(CLIENTS).take(MONITOR_WARMUP) {
                            warm.session(&mut client, stream, "");
                        }
                        assert_eq!(
                            warm.fails.count, 0,
                            "warm-up failed: {:?}",
                            warm.fails.notes
                        );
                    });
                }
            });
            (handle, streams)
        },
        |(handle, _)| handle.shutdown(),
    );
    let expected: Vec<String> = streams
        .iter()
        .map(|s| inputs::expected_session_verdict(handle.service(), s))
        .collect();

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let monitor = StealMonitor::start(start);
    let results: Vec<MonitorClient> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (streams, expected, addr) = (&streams, &expected, handle.addr());
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut rng = inputs::rng(seed, 10, c as u64);
                    let mut me = MonitorClient::new(start);
                    while Instant::now() < deadline {
                        let k = rand::Rng::gen_range(&mut rng, 0..streams.len());
                        me.session(&mut client, &streams[k], &expected[k]);
                    }
                    me
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let steal = monitor.finish();
    let mut all = MonitorClient::new(start);
    for r in results {
        all.events.merge(r.events);
        all.polls.merge(r.polls);
        all.requests += r.requests;
        fails.merge(r.fails);
    }
    handle.shutdown();

    // Deterministic counters: the first streams, sequentially, on a fresh
    // service; incremental reuse is read from each session's final verdict.
    let service = CheckService::new(AppConfig::default());
    let mut reuse = [0u64; 4];
    for (k, stream) in streams.iter().enumerate().take(MONITOR_COUNTER_STREAMS) {
        let (id, _) = service.create_session("").expect("create session");
        let mut last = String::new();
        for chunk in &stream.chunks {
            if let Err(e) = service.session_events(id, chunk) {
                fails.fail(format!("counter pass, stream {k}: {e:?}"));
            }
            last = service.session_verdict(id).unwrap_or_default();
        }
        if !last.starts_with(&expected[k]) {
            fails.fail(format!("counter pass, stream {k}: verdict {last}"));
        }
        for (slot, key) in reuse.iter_mut().zip([
            "registers_reused",
            "registers_resumed",
            "registers_researched",
            "incremental_states",
        ]) {
            *slot += json_u64(&last, key).unwrap_or(0);
        }
        let _ = service.delete_session(id);
    }
    let counters = object(&[
        ("streams", MONITOR_COUNTER_STREAMS.to_string()),
        ("registers_reused", reuse[0].to_string()),
        ("registers_resumed", reuse[1].to_string()),
        ("registers_researched", reuse[2].to_string()),
        ("incremental_states", reuse[3].to_string()),
        ("service", service.metrics_json(true)),
    ]);

    let (events, polls) = (
        all.events.summary(seconds, &steal),
        all.polls.summary(seconds, &steal),
    );
    Report {
        attempted: all.requests,
        fails,
        clients: CLIENTS,
        samples: vec![
            ("windows", events.windows),
            ("latency", events.samples),
            ("poll", polls.samples),
        ],
        counters,
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("throughput_per_s", events.throughput, "1/s"),
            ("latency_p50_us", events.p50, "us"),
            ("latency_p99_us", events.p99, "us"),
            ("poll_p50_us", polls.p50, "us"),
            ("poll_p99_us", polls.p99, "us"),
            ("steal_share", mean(&steal), "ratio"),
        ],
    }
}

// ---------------------------------------------------------------------------
// Traced mode
// ---------------------------------------------------------------------------
//
// Span tree of one traced request (`twin` spans re-run the same public call
// on an identically configured instance that saw the same request order):
//
//   httpd.request | httpd.poll          client round trip (real)
//     httpd.handler                     the server's handler call (real)
//       handlers.route                  `handlers::route` (twin)
//         service.check_text            `CheckService` call (twin) …
//           wire.parse, checker.check → engine.build + engine.search, wire.render
//         service.session_events → wire.parse + incremental.sync
//         service.session_verdict → incremental.verdict + wire.render
//
// `httpd.handler` minus the twin route is what the twins cannot explain: it
// is left out of every layer sum and shows as `trace.unaccounted_share`.

/// What `rlt_server::serve` builds, with the handler call recorded as the
/// `httpd.handler` span of the op named in the `op=` query parameter.
fn traced_server(trace: &Arc<Trace>) -> httpd::Server {
    let config = AppConfig::default();
    let http = httpd::ServerConfig {
        addr: config.addr.clone(),
        workers: config.workers,
        max_body: config.max_body,
    };
    let service = Arc::new(CheckService::new(config));
    let trace = Arc::clone(trace);
    httpd::Server::bind(
        &http,
        Arc::new(move |req: &httpd::Request| {
            let start = Instant::now();
            let resp = handlers::route(&service, req);
            let op = req.query.as_deref().and_then(|q| q.strip_prefix("op="));
            if let Some(op) = op.and_then(|v| v.parse().ok()) {
                let root = if req.method == "GET" {
                    "httpd.poll"
                } else {
                    "httpd.request"
                };
                trace.record(
                    op,
                    "httpd.handler",
                    Some(root),
                    (start, Instant::now()),
                    false,
                );
            }
            resp
        }),
    )
    .expect("bind the traced checking service")
}

/// The request `handlers::route` sees for `method path` with `body`.
fn request(method: &str, path: &str, body: &str) -> httpd::Request {
    httpd::Request {
        method: method.to_string(),
        path: path.to_string(),
        query: None,
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    }
}

/// Copies `from` into `to`, counting the bytes, until `from` ends; then ends
/// the write side of `to` so the peer sees the close.
fn pump(mut from: TcpStream, mut to: TcpStream, count: &AtomicU64) {
    let mut buf = [0u8; 16 * 1024];
    while let Ok(n @ 1..) = from.read(&mut buf) {
        count.fetch_add(n as u64, Ordering::SeqCst);
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

/// Bytes each `POST /check` of `bodies` puts on the sockets, both directions,
/// heads included. An `httpd::Client` talks to a fresh `rlt_server::serve`
/// through a loopback relay that counts what it forwards, so a change to the
/// framing on either side shows. The response is counted before the client
/// reads it and the server answers only a whole request, so the count after
/// each response is exact.
fn socket_bytes(bodies: &[&str]) -> Result<Vec<f64>, String> {
    let server = serve(AppConfig::default()).expect("bind the checking service");
    let relay = TcpListener::bind("127.0.0.1:0").expect("bind the relay");
    let relay_addr = relay.local_addr().expect("relay address");
    let (count, stop) = (AtomicU64::new(0), AtomicBool::new(false));
    let result = std::thread::scope(|s| {
        let (count, stop, upstream) = (&count, &stop, server.addr());
        // Relays every connection the client dials (it re-dials once when a
        // kept-alive connection dies) until `stop`.
        s.spawn(move || {
            for down in relay.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(down) = down else { continue };
                let up = TcpStream::connect(upstream).expect("relay connect");
                let _ = (down.set_nodelay(true), up.set_nodelay(true));
                let (down2, up2) = (
                    down.try_clone().expect("clone"),
                    up.try_clone().expect("clone"),
                );
                s.spawn(move || pump(down2, up2, count));
                s.spawn(move || pump(up, down, count));
            }
        });
        let mut client = Client::connect(relay_addr).expect("connect");
        let mut bytes = Vec::with_capacity(bodies.len());
        let mut outcome = Ok(());
        for body in bodies {
            let before = count.load(Ordering::SeqCst);
            match post(&mut client, "/check", body) {
                Ok(r) if r.status == 200 => {
                    bytes.push((count.load(Ordering::SeqCst) - before) as f64);
                }
                Ok(r) => outcome = Err(format!("relayed /check: status {}", r.status)),
                Err(e) => outcome = Err(e),
            }
            if outcome.is_err() {
                break;
            }
        }
        // Closing the client ends its relayed connections; the wake-up
        // connection ends the accept loop.
        drop(client);
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(relay_addr);
        outcome.map(|()| bytes)
    });
    server.shutdown();
    result
}

/// Bodies of the first requests of the traced `serve_check` loop that
/// [`socket_bytes`] re-sends.
const BYTES_SAMPLE: usize = 512;

/// `(cache hits, cache misses, refused)` from `/metrics?deterministic=1`.
fn service_counts(client: &mut Client) -> (u64, u64, u64) {
    let m = client
        .get("/metrics?deterministic=1")
        .map(|r| r.body)
        .unwrap_or_default();
    let n = |k: &str| json_u64(&m, k).unwrap_or(0);
    let refused =
        n("parse_errors") + n("not_found") + n("rejected_backpressure") + n("rejected_oversize");
    (n("cache_hits"), n("cache_misses"), refused)
}

/// Two instances fed the same requests: an untraced `rlt_server::serve` for
/// the overhead share and the traced one. Which goes first alternates, so
/// neither inherits the other's warm caches.
struct Pair {
    plain: ServerHandle,
    traced: httpd::Server,
    plain_client: Client,
    client: Client,
    plain_us: f64,
    traced_us: f64,
}

impl Pair {
    fn new(trace: &Arc<Trace>) -> Pair {
        let plain = serve(AppConfig::default()).expect("bind the checking service");
        let traced = traced_server(trace);
        let plain_client = Client::connect(plain.addr()).expect("connect");
        let client = Client::connect(traced.local_addr()).expect("connect");
        Pair {
            plain,
            traced,
            plain_client,
            client,
            plain_us: 0.0,
            traced_us: 0.0,
        }
    }

    /// Sends `method body` to `plain_path` and, as op `op`, to `path`;
    /// returns (traced response, untraced response).
    fn send(
        &mut self,
        trace: &Trace,
        op: u64,
        (method, body): (&str, &str),
        plain_path: &str,
        path: &str,
    ) -> (std::io::Result<HttpResponse>, std::io::Result<HttpResponse>) {
        let timed = |client: &mut Client, path: &str| {
            let start = Instant::now();
            let resp = client.request(method, path, body);
            (resp, (start, Instant::now()))
        };
        let traced_path = format!("{path}?op={op}");
        let (plain, traced);
        if op.is_multiple_of(2) {
            plain = timed(&mut self.plain_client, plain_path);
            traced = timed(&mut self.client, &traced_path);
        } else {
            traced = timed(&mut self.client, &traced_path);
            plain = timed(&mut self.plain_client, plain_path);
        }
        let root = if method == "GET" {
            "httpd.poll"
        } else {
            "httpd.request"
        };
        trace.record(op, root, None, traced.1, false);
        let us = |(a, b): (Instant, Instant)| (b - a).as_secs_f64() * 1e6;
        self.traced_us += us(traced.1);
        self.plain_us += us(plain.1);
        (traced.0, plain.0)
    }

    /// Refused-request count of the traced instance; shuts both down.
    fn finish(mut self) -> ((u64, u64, u64), f64) {
        let counts = service_counts(&mut self.client);
        drop((self.client, self.plain_client));
        self.traced.shutdown();
        self.plain.shutdown();
        (counts, self.traced_us / self.plain_us - 1.0)
    }
}

pub fn traced_check(seed: u64, seconds: f64, trace: &Arc<Trace>) -> Traced {
    let mut fails = Failures::default();
    let bodies = inputs::check_pool(seed);
    let zipf = Zipf::new(CHECK_POOL, CHECK_ZIPF, seed);
    let mut pair = Pair::new(trace);
    let oracle = check_oracle(pair.plain.service(), &bodies);
    let (twin_route, twin) = (
        CheckService::new(AppConfig::default()),
        CheckService::new(AppConfig::default()),
    );
    let checker = twin.build_checker();
    let scratch = ScratchPool::new();
    let mut rng = inputs::rng(seed, 11, 0);
    let (mut sample, mut parsed): (Vec<&str>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut op = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let k = zipf.sample(&mut rng);
        let body = &bodies[k];
        op += 1;
        let resp = match pair.send(trace, op, ("POST", body), "/check", "/check") {
            (Ok(r), Ok(p)) if r.status == 200 && r.body == oracle[k].0 && p.body == r.body => r,
            other => {
                fails.fail(format!("traced body {k}: {other:?}"));
                continue;
            }
        };
        if sample.len() < BYTES_SAMPLE {
            sample.push(body);
        }
        parsed.push(body.len() as f64);
        trace.time(op, "handlers.route", Some("httpd.handler"), true, || {
            handlers::route(&twin_route, &request("POST", "/check", body))
        });
        let misses = twin.metrics.cache_misses.load(Ordering::SeqCst);
        let json = trace.time(
            op,
            "service.check_text",
            Some("handlers.route"),
            true,
            || twin.check_text(body),
        );
        if json.as_deref() != Ok(resp.body.as_str()) {
            fails.fail(format!("twin diverged on body {k}"));
        }
        let history = trace
            .time(op, "wire.parse", Some("service.check_text"), true, || {
                parse_history(body)
            })
            .expect("generated bodies parse");
        if twin.metrics.cache_misses.load(Ordering::SeqCst) > misses {
            let (verdict, _) = trace.time(
                op,
                "checker.check",
                Some("service.check_text"),
                true,
                || checker.check_sketched(&history),
            );
            let init = Value::Init;
            let engine = trace.time(op, "engine.build", Some("checker.check"), true, || {
                Engine::new(&history, &init).with_split_threshold(DEFAULT_SPLIT_THRESHOLD)
            });
            trace.time(op, "engine.search", Some("checker.check"), true, || {
                engine.check_with(DEFAULT_STATE_LIMIT, &scratch)
            });
            trace.time(op, "wire.render", Some("service.check_text"), true, || {
                verdict_to_json(&verdict)
            });
        }
    }
    let ((hits, misses, refused), overhead) = pair.finish();
    let mut bytes = socket_bytes(&sample).unwrap_or_else(|e| {
        fails.fail(e);
        Vec::new()
    });
    let layers = [
        "httpd.request",
        "handlers.route",
        "service.check_text",
        "wire.parse",
        "checker.check",
        "engine.build",
        "engine.search",
        "wire.render",
    ];
    Traced {
        metrics: vec![
            ("httpd.self_us", trace.median_self_us("httpd.request"), "us"),
            ("httpd.bytes_per_req", median(&mut bytes), "bytes"),
            (
                "handlers.self_us",
                trace.median_self_us("handlers.route"),
                "us",
            ),
            (
                "service.check_self_us",
                trace.median_self_us("service.check_text"),
                "us",
            ),
            (
                "service.cache_hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
                "ratio",
            ),
            ("service.refused", refused as f64, "count"),
            ("wire.parse_us", trace.median_us("wire.parse"), "us"),
            ("wire.render_us", trace.median_us("wire.render"), "us"),
            ("wire.bytes_parsed", median(&mut parsed), "bytes"),
            (
                "trace.unaccounted_share.serve_check",
                trace.unaccounted_share("httpd.request", &layers, 1.0, 0.0),
                "ratio",
            ),
            ("trace.overhead_share.serve_check", overhead, "ratio"),
        ],
        attempted: op,
        fails,
    }
}

pub fn traced_monitor(seed: u64, seconds: f64, trace: &Arc<Trace>) -> Traced {
    let mut fails = Failures::default();
    let streams = inputs::session_streams(seed);
    let mut pair = Pair::new(trace);
    let expected: Vec<String> = streams
        .iter()
        .map(|s| inputs::expected_session_verdict(pair.plain.service(), s))
        .collect();
    let (twin_route, twin) = (
        CheckService::new(AppConfig::default()),
        CheckService::new(AppConfig::default()),
    );
    let mut rng = inputs::rng(seed, 12, 0);
    let (mut reuse, mut states) = ([0u64; 2], Vec::new());
    let mut op = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let k = rand::Rng::gen_range(&mut rng, 0..streams.len());
        let stream = &streams[k];
        let plain_id = post(&mut pair.plain_client, "/sessions", "");
        let id = post(&mut pair.client, "/sessions", "");
        let (Some(plain_id), Some(id)) = (
            plain_id.ok().as_ref().and_then(session_id),
            id.ok().as_ref().and_then(session_id),
        ) else {
            fails.fail("POST /sessions failed".to_string());
            continue;
        };
        let route_id = json_u64(
            &String::from_utf8_lossy(
                &handlers::route(&twin_route, &request("POST", "/sessions", "")).body,
            ),
            "session",
        )
        .expect("twin session");
        let (twin_id, _) = twin.create_session("").expect("twin session");
        let mut mirror = twin.build_checker().incremental();
        let mut last = String::new();
        for (chunk, target) in stream.chunks.iter().zip(&stream.targets) {
            for (method, what, body) in [("POST", "events", chunk.as_str()), ("GET", "verdict", "")]
            {
                op += 1;
                match pair.send(
                    trace,
                    op,
                    (method, body),
                    &format!("/sessions/{plain_id}/{what}"),
                    &format!("/sessions/{id}/{what}"),
                ) {
                    (Ok(r), Ok(p)) if r.status == 200 && p.status == 200 => {
                        if what == "verdict" {
                            last = r.body;
                        }
                    }
                    other => fails.fail(format!("traced session {k}: {other:?}")),
                }
                trace.time(op, "handlers.route", Some("httpd.handler"), true, || {
                    handlers::route(
                        &twin_route,
                        &request(method, &format!("/sessions/{route_id}/{what}"), body),
                    )
                });
                if what == "events" {
                    let applied = trace.time(
                        op,
                        "service.session_events",
                        Some("handlers.route"),
                        true,
                        || twin.session_events(twin_id, chunk),
                    );
                    if applied.is_err() {
                        fails.fail(format!("twin rejected a chunk of stream {k}"));
                    }
                    trace
                        .time(
                            op,
                            "wire.parse",
                            Some("service.session_events"),
                            true,
                            || parse_history(chunk),
                        )
                        .expect("generated chunks parse");
                    trace.time(
                        op,
                        "incremental.sync",
                        Some("service.session_events"),
                        true,
                        || mirror.sync_with_ops(target),
                    );
                } else {
                    let _ = trace.time(
                        op,
                        "service.session_verdict",
                        Some("handlers.route"),
                        true,
                        || twin.session_verdict(twin_id),
                    );
                    let verdict = trace.time(
                        op,
                        "incremental.verdict",
                        Some("service.session_verdict"),
                        true,
                        || mirror.verdict(),
                    );
                    trace.time(
                        op,
                        "wire.render",
                        Some("service.session_verdict"),
                        true,
                        || verdict_to_json(verdict.as_verdict()),
                    );
                }
            }
        }
        if !last.starts_with(&expected[k]) {
            fails.fail(format!("traced session verdict diverges on stream {k}"));
        }
        let stats = mirror.stats();
        reuse[0] += stats.registers_reused + stats.registers_resumed;
        reuse[1] += stats.registers_researched;
        states.push(stats.incremental_states as f64);
        let _ = pair.plain_client.delete(&format!("/sessions/{plain_id}"));
        let _ = pair.client.delete(&format!("/sessions/{id}"));
        let _ = handlers::route(
            &twin_route,
            &request("DELETE", &format!("/sessions/{route_id}"), ""),
        );
        let _ = twin.delete_session(twin_id);
    }
    let ((_, _, refused), overhead) = pair.finish();
    if refused > 0 {
        fails.fail(format!(
            "the traced monitor service refused {refused} requests"
        ));
    }
    let mut session_self = trace.self_times("service.session_events");
    session_self.extend(trace.self_times("service.session_verdict"));
    let layers = [
        "httpd.request",
        "handlers.route",
        "service.session_events",
        "wire.parse",
        "incremental.sync",
    ];
    Traced {
        metrics: vec![
            ("service.session_self_us", median(&mut session_self), "us"),
            (
                "incremental.sync_us",
                trace.median_us("incremental.sync"),
                "us",
            ),
            (
                "incremental.verdict_us",
                trace.median_us("incremental.verdict"),
                "us",
            ),
            (
                "incremental.reuse_ratio",
                reuse[0] as f64 / (reuse[0] + reuse[1]).max(1) as f64,
                "ratio",
            ),
            ("incremental.states", median(&mut states), "count"),
            (
                "trace.unaccounted_share.serve_monitor",
                trace.unaccounted_share("httpd.request", &layers, 1.0, 0.0),
                "ratio",
            ),
            ("trace.overhead_share.serve_monitor", overhead, "ratio"),
        ],
        attempted: op,
        fails,
    }
}
