//! Seeded inputs. Every workload input is a pure function of `--seed`; the
//! program under test only ever sees the generated histories and seeds.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlt_bench::{
    distinct_value_workload, invocation_ordered, lamport_workload, multi_register_workload,
};
use rlt_server::CheckService;
use rlt_spec::wire::{format_history, verdict_to_json};
use rlt_spec::{History, OpKind, Operation, Value};
use std::collections::BTreeMap;

/// SplitMix64 finalizer — the same mixer `rlt_mp::fuzz` derives its corpus
/// seeds with, which the traced fuzz driver must reproduce exactly.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// An independent stream seed for item `i` of the input family `tag`.
pub fn derive(seed: u64, tag: u64, i: u64) -> u64 {
    mix64(seed ^ mix64(tag ^ mix64(i)))
}

pub fn rng(seed: u64, tag: u64, i: u64) -> StdRng {
    StdRng::seed_from_u64(derive(seed, tag, i))
}

/// Maps the generators' `i64` domain onto wire [`Value`]s bijectively (`0` is
/// the initial value on both sides), so verdicts carry over unchanged.
pub fn to_value_history(h: &History<i64>) -> History<Value> {
    let val = |v: i64| if v == 0 { Value::Init } else { Value::Int(v) };
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

/// Distinct `/check` bodies in the `serve_check` pool: half again the
/// service's 1024-entry verdict cache, so its clear-on-full eviction runs.
pub const CHECK_POOL: usize = 1536;
/// Zipf exponent of body popularity. Chosen so the cache-hit share sits near
/// four fifths, well away from one half (see the README).
pub const CHECK_ZIPF: f64 = 1.1;

/// The `serve_check` body pool: `lamport_history` at 80/160/320 decisions and
/// `multi_register_3x/40`, round-robin over the four shapes.
pub fn check_pool(seed: u64) -> Vec<String> {
    (0..CHECK_POOL as u64)
        .map(|k| {
            let s = derive(seed, 1, k);
            let h = match k % 4 {
                0 => lamport_workload(3, 80, s),
                1 => lamport_workload(3, 160, s),
                2 => lamport_workload(3, 320, s),
                _ => multi_register_workload(3, 40, s),
            };
            format_history(&to_value_history(&h))
        })
        .collect()
}

/// Skewed popularity over `n` items: rank `r` has weight `1/(r+1)^s`. Rank
/// `r` goes to an item of shape `r % 4` (the pool is round-robin over four
/// shapes) and a seeded shuffle picks which one, so every seed gives the
/// popular ranks the same shape mix and only the histories differ.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    item_of_rank: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut item_of_rank: Vec<usize> = (0..n).collect();
        let mut r = rng(seed, 2, 0);
        for i in (4..n).rev() {
            // Swap only within a shape class (same index mod 4).
            let j = r.gen_range(0..=i / 4) * 4 + i % 4;
            item_of_rank.swap(i, j);
        }
        Zipf { cdf, item_of_rank }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.item_of_rank[rank]
    }
}

/// Events (invocations plus completions) per `POST /sessions/{id}/events`.
pub const CHUNK_EVENTS: usize = 16;
/// Distinct monitored streams in the `serve_monitor` pool.
pub const STREAMS: usize = 32;

/// One monitored history, cut into the event bodies a live monitor posts.
#[derive(Debug, Clone)]
pub struct Stream {
    pub chunks: Vec<String>,
    /// The session's cumulative operation list after each chunk, exactly as
    /// the service grows it (new ops appended, completions replaced in place).
    pub targets: Vec<Vec<Operation<Value>>>,
}

/// `serve_monitor` streams: invocation-ordered `lamport_history/160` and
/// `multi_register_3x/160`, alternating.
pub fn session_streams(seed: u64) -> Vec<Stream> {
    (0..STREAMS as u64)
        .map(|k| {
            let s = derive(seed, 3, k);
            let h = if k % 2 == 0 {
                lamport_workload(3, 160, s)
            } else {
                multi_register_workload(3, 160, s)
            };
            stream_of(&to_value_history(&invocation_ordered(&h)))
        })
        .collect()
}

fn stream_of(history: &History<Value>) -> Stream {
    let ops = history.operations();
    let mut events: Vec<(u64, usize, bool)> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        events.push((op.invoked_at.0, i, false));
        if let Some(r) = op.responded_at {
            events.push((r.0, i, true));
        }
    }
    events.sort_unstable();
    let mut target: Vec<Operation<Value>> = Vec::new();
    let mut slot: BTreeMap<usize, usize> = BTreeMap::new();
    let mut chunks = Vec::new();
    let mut targets = Vec::new();
    for chunk in events.chunks(CHUNK_EVENTS) {
        // An op invoked and completed within one chunk is sent once, completed.
        let mut order: Vec<usize> = Vec::new();
        let mut latest: BTreeMap<usize, bool> = BTreeMap::new();
        for &(_, i, completed) in chunk {
            if latest.insert(i, completed).is_none() {
                order.push(i);
            }
        }
        let mut body = String::new();
        for i in order {
            let op = if latest[&i] {
                ops[i].clone()
            } else {
                pending(&ops[i])
            };
            body.push_str(&op_line(&op));
            body.push('\n');
            match slot.get(&i) {
                Some(&at) => target[at] = op,
                None => {
                    slot.insert(i, target.len());
                    target.push(op);
                }
            }
        }
        chunks.push(body);
        targets.push(target.clone());
    }
    Stream { chunks, targets }
}

fn pending(op: &Operation<Value>) -> Operation<Value> {
    let mut op = op.clone();
    if let OpKind::Read(_) = op.kind {
        op.kind = OpKind::Read(None);
    }
    op.responded_at = None;
    op
}

/// One wire line: the pending form `@ tI..` or the completed `@ tI..tR`.
fn op_line(op: &Operation<Value>) -> String {
    let (verb, value) = match &op.kind {
        OpKind::Write(v) => ("write", v.to_string()),
        OpKind::Read(Some(v)) => ("read", v.to_string()),
        OpKind::Read(None) => ("read", "?".to_string()),
    };
    let resp = op
        .responded_at
        .map_or(String::new(), |t| format!("t{}", t.0));
    format!(
        "op{} {} {} {verb} {value} @ t{}..{resp}",
        op.id.0, op.process, op.register, op.invoked_at.0
    )
}

/// The final verdict a session over `stream` must serve: a direct
/// [`rlt_spec::IncrementalChecker`] over the same operations, same knobs.
pub fn expected_session_verdict(service: &CheckService, stream: &Stream) -> String {
    let mut direct = service.build_checker().incremental();
    direct.sync_with_ops(stream.targets.last().expect("streams are non-empty"));
    format!(
        "{{\"verdict\":{},",
        verdict_to_json(direct.verdict().as_verdict())
    )
}

/// Seeded histories per `check_heavy` shape.
pub const HEAVY_PER_SHAPE: u64 = 128;
/// The `check_heavy` shapes.
pub const HEAVY_SHAPES: [&str; 3] = ["multi_register_3x_160", "lamport_320", "distinct_value_112"];

/// `check_heavy` histories, shape-interleaved: per-register fan-out,
/// one long register, and wide concurrency on the multi-word memo path
/// (112 ops, bursts of 6 concurrent writes: past the one-word taken bitset,
/// with a search cost that varies less across seeds than wider bursts).
pub fn heavy_pool(seed: u64) -> Vec<(usize, History<i64>)> {
    let mut out = Vec::new();
    for k in 0..HEAVY_PER_SHAPE {
        for (shape, _) in HEAVY_SHAPES.iter().enumerate() {
            let s = derive(seed, 4 + shape as u64, k);
            let h = match shape {
                0 => multi_register_workload(3, 160, s),
                1 => lamport_workload(3, 320, s),
                _ => distinct_value_workload(112, 6, s),
            };
            out.push((shape, h));
        }
    }
    out
}

/// The `fuzz_campaign` scenario seeds.
pub fn scenario_seeds(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| derive(seed, 6, i)).collect()
}
