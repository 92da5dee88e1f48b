//! Deterministic load generator for `rlt-server` — experiment E16.
//!
//! Boots in-process server instances, drives them over real loopback HTTP with
//! the tracked seeded workloads, and writes `BENCH_server.json` with
//! checks/sec and latency rows. Every row reports its latency sample count and
//! median; a row of at least 40 samples also reports p95, and a smaller row
//! reports its median alone, since any higher percentile would be no tail:
//!
//! * `check` rows — the 80/160/320-decision `lamport_history` workloads through
//!   `POST /check` with the interning cache off (every request runs a real
//!   search), 4 concurrent keep-alive clients, each client owning a disjoint
//!   set of distinct bodies so cache/backpressure counters stay deterministic.
//! * `check_cached` row — the 160-decision workload through a second instance
//!   with the interning cache on, single sequential client: first pass misses,
//!   every later round hits.
//! * `session` row — a 160-decision stream fed to one `IncrementalChecker`
//!   monitoring session as chunked `POST /sessions/{id}/events` bodies
//!   (invocations and completions in event-time order) with a
//!   `GET /sessions/{id}/verdict` poll per chunk.
//!
//! Every response is differentially pinned against the direct library call
//! (`Checker::check` / `IncrementalChecker::verdict` under the same knobs): any
//! byte of divergence aborts the run. Wall-clock numbers go to the JSON file
//! and stderr; stdout carries exactly one line — the two instances'
//! deterministic `/metrics` counters — which CI diffs across `RLT_THREADS`
//! settings.
//!
//! Usage: `cargo run --release -p rlt-bench --bin server_load [out.json]`
//! (default: `BENCH_server.json`)

use httpd::Client;
use rlt_bench::tracked::{WORKLOAD_PROCESSES, WORKLOAD_SEED};
use rlt_bench::{host_cpus, invocation_ordered, lamport_workload};
use rlt_server::{serve, AppConfig, ServerHandle};
use rlt_spec::wire::{format_history, parse_history, verdict_to_json};
use rlt_spec::{History, OpKind, Operation, Value};
use std::fmt::Write as _;
use std::time::Instant;

/// Decision counts of the tracked `/check` workloads.
const CHECK_SIZES: &[usize] = &[80, 160, 320];
/// Distinct seeded histories per workload (disjointly partitioned over clients).
const DISTINCT: usize = 8;
/// Concurrent keep-alive clients in the `check` load phase.
const CLIENTS: usize = 4;
/// Rounds per client over its owned bodies.
const ROUNDS: usize = 25;
/// Decision count of the monitoring-session stream.
const SESSION_DECISIONS: usize = 160;
/// Events (invocations + completions) per `POST /sessions/{id}/events` body.
const SESSION_CHUNK_EVENTS: usize = 16;
/// Fewest latency samples for which a row reports p95 (at 200 samples, ten lie
/// beyond it).
const MIN_TAIL_SAMPLES: usize = 40;

/// Maps the i64 workload domain into [`Value`] bijectively (`0` is the initial
/// value on both sides), so verdicts over the mapped history are the verdicts
/// of the original.
fn val(v: i64) -> Value {
    if v == 0 {
        Value::Init
    } else {
        Value::Int(v)
    }
}

fn to_value_history(h: &History<i64>) -> History<Value> {
    let ops = h
        .operations()
        .iter()
        .map(|op| Operation {
            id: op.id,
            process: op.process,
            register: op.register,
            kind: match &op.kind {
                OpKind::Write(v) => OpKind::Write(val(*v)),
                OpKind::Read(Some(v)) => OpKind::Read(Some(val(*v))),
                OpKind::Read(None) => OpKind::Read(None),
            },
            invoked_at: op.invoked_at,
            responded_at: op.responded_at,
        })
        .collect();
    History::from_operations(ops)
}

struct Row {
    endpoint: &'static str,
    workload: String,
    ops: usize,
    requests: usize,
    clients: usize,
    checks_per_sec: f64,
    /// Per-request latencies (µs), sorted.
    latencies: Vec<u128>,
    divergences: usize,
}

impl Row {
    fn p50_micros(&self) -> u128 {
        percentile(&self.latencies, 0.50)
    }

    /// `None` below [`MIN_TAIL_SAMPLES`] samples.
    fn p95_micros(&self) -> Option<u128> {
        (self.latencies.len() >= MIN_TAIL_SAMPLES).then(|| percentile(&self.latencies, 0.95))
    }
}

fn percentile(sorted: &[u128], p: f64) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn log_row(r: &Row) {
    eprintln!(
        "{:>13} {} ({} clients): {} reqs, {:.0} checks/s, {} samples, p50 {} µs{}, {} divergences",
        r.endpoint,
        r.workload,
        r.clients,
        r.requests,
        r.checks_per_sec,
        r.latencies.len(),
        r.p50_micros(),
        r.p95_micros()
            .map_or_else(String::new, |p95| format!(", p95 {p95} µs")),
        r.divergences
    );
}

/// The distinct seeded wire bodies of one tracked workload.
fn bodies_for(decisions: usize) -> Vec<String> {
    (0..DISTINCT)
        .map(|i| {
            format_history(&to_value_history(&lamport_workload(
                WORKLOAD_PROCESSES,
                decisions,
                WORKLOAD_SEED + i as u64,
            )))
        })
        .collect()
}

/// Differentially pins each body's HTTP verdict against the direct library
/// call; returns the divergence count (always 0 on a healthy build — the
/// caller asserts).
fn pin_bodies(handle: &ServerHandle, bodies: &[String]) -> usize {
    let direct = handle.service().build_checker();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut divergences = 0;
    for body in bodies {
        let resp = client.post("/check", body).expect("POST /check");
        let expected = verdict_to_json(&direct.check(&parse_history(body).expect("wire parse")));
        if resp.status != 200 || resp.body != expected {
            eprintln!(
                "DIVERGENCE: status {} body {} vs library {}",
                resp.status, resp.body, expected
            );
            divergences += 1;
        }
    }
    divergences
}

/// The concurrent load phase: `CLIENTS` threads, each sending its disjoint body
/// share for `ROUNDS` rounds over one keep-alive connection. Returns sorted
/// per-request latencies (µs) and the phase wall time.
fn load_phase(handle: &ServerHandle, bodies: &[String]) -> (Vec<u128>, f64) {
    let start = Instant::now();
    let mut joins = Vec::new();
    for c in 0..CLIENTS {
        let share: Vec<String> = bodies.iter().skip(c).step_by(CLIENTS).cloned().collect();
        let addr = handle.addr();
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let mut latencies = Vec::with_capacity(ROUNDS * share.len());
            for _ in 0..ROUNDS {
                for body in &share {
                    let t0 = Instant::now();
                    let resp = client.post("/check", body).expect("POST /check");
                    latencies.push(t0.elapsed().as_micros());
                    assert_eq!(resp.status, 200, "load request failed: {}", resp.body);
                }
            }
            latencies
        }));
    }
    let mut latencies: Vec<u128> = Vec::new();
    for j in joins {
        latencies.extend(j.join().expect("client thread"));
    }
    let wall = start.elapsed().as_secs_f64();
    latencies.sort_unstable();
    (latencies, wall)
}

/// The `session` row: streams one workload's events through a monitoring
/// session, polling the verdict after every chunk, and pins the final verdict
/// against a direct [`rlt_spec::IncrementalChecker`].
fn session_row(handle: &ServerHandle) -> Row {
    let history = invocation_ordered(&lamport_workload(
        WORKLOAD_PROCESSES,
        SESSION_DECISIONS,
        WORKLOAD_SEED,
    ));
    let history = to_value_history(&history);
    let ops = history.operations();
    // The event stream a live monitor sees: invocations and completions in
    // event-time order.
    let mut events: Vec<(u64, usize, bool)> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        events.push((op.invoked_at.0, i, false));
        if let Some(r) = op.responded_at {
            events.push((r.0, i, true));
        }
    }
    events.sort_unstable();
    let chunks: Vec<String> = events
        .chunks(SESSION_CHUNK_EVENTS)
        .map(|chunk| {
            // Coalesce within the chunk: an op invoked *and* completed here is
            // sent once, as its completed line (wire bodies have unique ids).
            let mut order: Vec<usize> = Vec::new();
            let mut latest: Vec<Option<bool>> = vec![None; ops.len()];
            for &(_, i, completed) in chunk {
                if latest[i].is_none() {
                    order.push(i);
                }
                latest[i] = Some(completed);
            }
            let mut body = String::new();
            for i in order {
                body.push_str(&op_line(&ops[i], latest[i].expect("recorded")));
                body.push('\n');
            }
            body
        })
        .collect();

    let mut client = Client::connect(handle.addr()).expect("connect");
    let created = client.post("/sessions", "").expect("POST /sessions");
    assert_eq!(created.status, 201, "{}", created.body);
    let id: u64 = created
        .body
        .trim_start_matches("{\"session\":")
        .split(',')
        .next()
        .and_then(|s| s.parse().ok())
        .expect("session id");

    let start = Instant::now();
    let mut latencies = Vec::with_capacity(chunks.len());
    let mut last_verdict = String::new();
    for chunk in &chunks {
        let resp = client
            .post(&format!("/sessions/{id}/events"), chunk)
            .expect("POST events");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let t0 = Instant::now();
        let resp = client
            .get(&format!("/sessions/{id}/verdict"))
            .expect("GET verdict");
        latencies.push(t0.elapsed().as_micros());
        assert_eq!(resp.status, 200, "{}", resp.body);
        last_verdict = resp.body;
    }
    let wall = start.elapsed().as_secs_f64();

    // Differential pin: the final served verdict vs a direct incremental
    // session over the same operation stream, same knobs.
    let mut direct = handle.service().build_checker().incremental();
    direct.sync_with_ops(ops);
    let expected = format!(
        "{{\"verdict\":{},",
        verdict_to_json(direct.verdict().as_verdict())
    );
    let divergences = usize::from(!last_verdict.starts_with(&expected));
    if divergences > 0 {
        eprintln!("DIVERGENCE: session verdict {last_verdict} vs library {expected}...");
    }
    latencies.sort_unstable();
    Row {
        endpoint: "session",
        workload: format!("lamport_stream/{SESSION_DECISIONS}"),
        ops: ops.len(),
        requests: 1 + 2 * chunks.len(),
        clients: 1,
        checks_per_sec: chunks.len() as f64 / wall,
        latencies,
        divergences,
    }
}

/// One wire line of an event: the pending form for an invocation, the full op
/// line for a completion.
fn op_line(op: &Operation<Value>, completed: bool) -> String {
    let (verb, value) = match &op.kind {
        OpKind::Write(v) => ("write", v.to_string()),
        OpKind::Read(Some(v)) if completed => ("read", v.to_string()),
        OpKind::Read(_) => ("read", "?".to_string()),
    };
    let resp = if completed {
        format!("t{}", op.responded_at.expect("completion has response").0)
    } else {
        String::new()
    };
    format!(
        "op{} {} {} {verb} {value} @ t{}..{resp}",
        op.id.0, op.process, op.register, op.invoked_at.0
    )
}

/// The `check_cached` row: a fresh instance with the interning cache on, one
/// sequential client — first pass misses, every later round hits.
fn cached_row(bodies: &[String]) -> (Row, String) {
    let handle = serve(AppConfig::default()).expect("bind cached instance");
    let divergences = pin_bodies(&handle, bodies);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let start = Instant::now();
    let mut latencies = Vec::with_capacity(ROUNDS * bodies.len());
    for _ in 0..ROUNDS {
        for body in bodies {
            let t0 = Instant::now();
            let resp = client.post("/check", body).expect("POST /check");
            latencies.push(t0.elapsed().as_micros());
            assert_eq!(resp.status, 200, "{}", resp.body);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let row = Row {
        endpoint: "check_cached",
        workload: format!("lamport_history/{}", CHECK_SIZES[1]),
        ops: parse_history(&bodies[0]).expect("parse").operations().len(),
        requests: ROUNDS * bodies.len(),
        clients: 1,
        checks_per_sec: (ROUNDS * bodies.len()) as f64 / wall,
        latencies,
        divergences,
    };
    let counters = handle.service().metrics_json(true);
    handle.shutdown();
    (row, counters)
}

fn write_json(rows: &[Row], out_path: &str) {
    let mut json = format!(
        "{{\n  \"experiment\": \"E16-server-throughput-latency\",\n  \"host_cpus\": {},\n  \"rows\": [\n",
        host_cpus()
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"endpoint\": \"{}\", \"workload\": \"{}\", \"ops\": {}, \
             \"requests\": {}, \"clients\": {}, \"checks_per_sec\": {:.1}, \
             \"samples\": {}, \"p50_micros\": {}{}, \"divergences\": {}}}{}",
            r.endpoint,
            r.workload,
            r.ops,
            r.requests,
            r.clients,
            r.checks_per_sec,
            r.latencies.len(),
            r.p50_micros(),
            r.p95_micros()
                .map_or_else(String::new, |p95| format!(", \"p95_micros\": {p95}")),
            r.divergences,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(out_path, &json).expect("write server summary JSON");
    eprintln!("wrote {out_path}");
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_server.json".into());
    let mut rows = Vec::new();

    // Instance A: cache off, so every `check` request prices a real search.
    let config = AppConfig {
        cache_capacity: 0,
        ..AppConfig::default()
    };
    let handle = serve(config).expect("bind load instance");
    for &decisions in CHECK_SIZES {
        let bodies = bodies_for(decisions);
        let divergences = pin_bodies(&handle, &bodies);
        assert_eq!(
            divergences, 0,
            "verdict divergence on lamport_history/{decisions}"
        );
        let (latencies, wall) = load_phase(&handle, &bodies);
        let row = Row {
            endpoint: "check",
            workload: format!("lamport_history/{decisions}"),
            ops: parse_history(&bodies[0]).expect("parse").operations().len(),
            requests: latencies.len(),
            clients: CLIENTS,
            checks_per_sec: latencies.len() as f64 / wall,
            latencies,
            divergences,
        };
        log_row(&row);
        rows.push(row);
    }
    let row = session_row(&handle);
    assert_eq!(row.divergences, 0, "session verdict divergence");
    log_row(&row);
    rows.push(row);
    let load_counters = handle.service().metrics_json(true);
    handle.shutdown();

    // Instance B: the interning cache at work on repeated bodies.
    let (row, cached_counters) = cached_row(&bodies_for(CHECK_SIZES[1]));
    assert_eq!(
        row.divergences, 0,
        "verdict divergence on the cached instance"
    );
    log_row(&row);
    rows.push(row);

    write_json(&rows, &out_path);
    // The single stdout line: deterministic counters of both instances. CI
    // diffs this across default and RLT_THREADS=1 runs.
    println!("{{\"load\":{load_counters},\"cached\":{cached_counters}}}");
}
