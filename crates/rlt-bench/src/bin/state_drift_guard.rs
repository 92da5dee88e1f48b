//! CI guard against silent search-semantics drift.
//!
//! `BENCH_checkers.json` tracks two kinds of numbers: wall-clock measurements (which
//! legitimately move between hosts and PRs) and the **deterministic search
//! counters** — `states_explored` / `states_memoized` — which are part of the
//! engine's canonical semantics and must only change when a PR *intentionally*
//! changes what the search explores. A perf refactor that accidentally perturbs the
//! search (a reordered candidate scan, a broken memo key, a shard-geometry change)
//! would historically have shown up only as a mysteriously shifted counter in a
//! regenerated JSON, easy to wave through.
//!
//! This bin recomputes the counters of every tracked deterministic row — the
//! workload geometry comes from [`rlt_bench::tracked`], the same constants
//! `checkers_summary` measures with — and diffs them against the tracked JSON,
//! failing loudly on any mismatch. Solo checks run on the calling thread; the
//! `engine_batch` rows are recomputed through [`Checker::check_many`], whose fan-out
//! follows the ambient pool, so CI runs the guard under more than one
//! `RLT_THREADS` to double as a determinism check of the batch path.
//!
//! Usage: `cargo run --release -p rlt-bench --bin state_drift_guard \
//!     [BENCH_checkers.json]`

use rlt_bench::tracked::{
    BATCH_SIZE, DISTINCT_VALUE_BURST, DISTINCT_VALUE_OPS, INCREMENTAL_MULTI_DECISIONS,
    MULTI_REGISTERS, REUSE_MAX_OPS, REUSE_REGISTERS, REUSE_SEED, WORKLOAD_PROCESSES, WORKLOAD_SEED,
};
use rlt_bench::{
    distinct_value_workload, incremental_sweep, invocation_ordered, lamport_workload,
    multi_register_workload, small_history_corpus, stream_checker,
};
use rlt_spec::{Checker, History, ThreadPolicy, Verdict};
use std::collections::HashMap;

/// Extracts the string value of `"key": "..."` from one JSON row line.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(&line[start..end])
}

/// Extracts the numeric value of `"key": N` from one JSON row line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .ok()
}

/// Recomputation runs under [`ThreadPolicy::Auto`] deliberately: the counters are
/// defined to be identical at any pool width, so running the guard under different
/// `RLT_THREADS` (as CI does) spreads the `check_many` batches over scoped threads
/// too.
fn ambient_checker() -> Checker<i64> {
    Checker::builder(0i64).threads(ThreadPolicy::Auto).build()
}

fn count_one(checker: &Checker<i64>, history: &History<i64>) -> (u64, u64) {
    count_sum([checker.check(history)])
}

/// Sums the (explored, memoized) counters over a set of verdicts.
fn count_sum(verdicts: impl IntoIterator<Item = Verdict<i64>>) -> (u64, u64) {
    verdicts.into_iter().fold((0, 0), |(e, m), v| {
        let stats = v.stats();
        (e + stats.states_explored, m + stats.states_memoized)
    })
}

/// Recomputes the deterministic counters of one tracked row kind, or `None` for rows
/// without deterministic counters (the pre-engine `reference` checker reports none)
/// or unknown workloads (reported as drift by the caller).
/// Recomputes one E15 stream row: `incremental` rows track the session's own
/// (`incremental_states`, `memo_entries_reused`) counters; `recheck_scratch` rows
/// track the batch counters summed over every prefix. Both are deterministic at any
/// thread policy (the incremental session replays the engine's budget accounting).
fn count_stream(kind: &str, history: &History<i64>) -> (u64, u64) {
    let prefixes = history.all_prefixes();
    if kind == "incremental" {
        let (session, _) = incremental_sweep(&prefixes);
        let stats = session.stats();
        (stats.incremental_states, stats.memo_entries_reused)
    } else {
        let checker = stream_checker();
        count_sum(prefixes.iter().map(|p| checker.check(p)))
    }
}

fn recompute(checker: &str, workload: &str) -> Option<(u64, u64)> {
    let size: usize = workload.rsplit('/').next()?.parse().ok()?;
    let series = workload.split('/').next()?;
    match (checker, series) {
        ("engine", "lamport_history") => Some(count_one(
            &ambient_checker(),
            &lamport_workload(WORKLOAD_PROCESSES, size, WORKLOAD_SEED),
        )),
        ("engine", _) if series == format!("multi_register_{MULTI_REGISTERS}x") => Some(count_one(
            &ambient_checker(),
            &multi_register_workload(MULTI_REGISTERS, size, WORKLOAD_SEED),
        )),
        ("engine_batch", _) => {
            let batch: Vec<History<i64>> = (0..BATCH_SIZE)
                .map(|s| multi_register_workload(MULTI_REGISTERS, size, WORKLOAD_SEED + s))
                .collect();
            Some(count_sum(ambient_checker().check_many(&batch)))
        }
        ("checker_reused" | "checker_fresh", "small_history_corpus") => {
            let checker = ambient_checker();
            Some(count_sum(
                small_history_corpus(size, REUSE_MAX_OPS, REUSE_REGISTERS, REUSE_SEED)
                    .iter()
                    .map(|h| checker.check(h)),
            ))
        }
        // E15 streams: the workload is the full prefix family of the named history.
        ("incremental" | "recheck_scratch", "lamport_stream") => Some(count_stream(
            checker,
            &lamport_workload(WORKLOAD_PROCESSES, size, WORKLOAD_SEED),
        )),
        ("incremental" | "recheck_scratch", _)
            if series == format!("multi_register_{MULTI_REGISTERS}x_stream") =>
        {
            assert_eq!(
                size, INCREMENTAL_MULTI_DECISIONS,
                "tracked multi-register stream decisions"
            );
            Some(count_stream(
                checker,
                &invocation_ordered(&multi_register_workload(
                    MULTI_REGISTERS,
                    size,
                    WORKLOAD_SEED,
                )),
            ))
        }
        ("memo_arena", "distinct_value_register") => {
            assert_eq!(size, DISTINCT_VALUE_OPS, "tracked memo_arena workload size");
            Some(count_one(
                &ambient_checker(),
                &distinct_value_workload(DISTINCT_VALUE_OPS, DISTINCT_VALUE_BURST, WORKLOAD_SEED),
            ))
        }
        _ => None,
    }
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_checkers.json".into());
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read tracked summary {path}: {e}"));
    let mut cache: HashMap<(String, String), Option<(u64, u64)>> = HashMap::new();
    let mut verified = 0usize;
    let mut skipped = 0usize;
    let mut drifted = 0usize;
    for line in text.lines().filter(|l| l.contains("\"checker\"")) {
        let checker = field_str(line, "checker").expect("row has a checker field");
        if checker == "reference" {
            skipped += 1; // the reference API reports no statistics
            continue;
        }
        let workload = field_str(line, "workload").expect("row has a workload field");
        let tracked = (
            field_u64(line, "states_explored").expect("row has states_explored"),
            field_u64(line, "states_memoized").expect("row has states_memoized"),
        );
        // checker_reused and checker_fresh rows share one recomputation (scratch
        // reuse is unobservable); key the cache by the recompute class, not the row
        // label.
        let class = if checker == "checker_fresh" {
            "checker_reused"
        } else {
            checker
        };
        let key = (class.to_string(), workload.to_string());
        let recomputed = cache
            .entry(key)
            .or_insert_with(|| recompute(checker, workload));
        match recomputed {
            Some(counters) if *counters == tracked => verified += 1,
            Some((explored, memoized)) => {
                drifted += 1;
                eprintln!(
                    "DRIFT {checker} {workload}: tracked explored/memoized \
                     {}/{} but the engine now computes {explored}/{memoized}",
                    tracked.0, tracked.1
                );
            }
            None => {
                drifted += 1;
                eprintln!("DRIFT {checker} {workload}: unknown tracked row kind");
            }
        }
    }
    assert!(
        verified > 0,
        "no deterministic rows found in {path} — wrong file?"
    );
    eprintln!(
        "state drift guard: {verified} rows verified, {skipped} skipped (no stats), \
         {drifted} drifted"
    );
    if drifted > 0 {
        eprintln!(
            "search counters moved: if intentional, regenerate BENCH_checkers.json \
             with checkers_summary in this commit and say why in EXPERIMENTS.md"
        );
        std::process::exit(1);
    }
}
