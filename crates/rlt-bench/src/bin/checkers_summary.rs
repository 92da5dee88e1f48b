//! Machine-readable summaries of the repo's benchmark experiments.
//!
//! Emits three JSON artifacts so every experiment has a tracked perf trajectory
//! across PRs (see `EXPERIMENTS.md`):
//!
//! * `BENCH_checkers.json` — experiments E10 (checker scaling), E11 (batch
//!   scaling), E12 (memo arena), and E15 (incremental prefix-reuse sessions vs
//!   recheck-from-scratch on growing streams, amortized per event): the
//!   engine-backed [`Checker`] session vs the pre-engine reference checker on the
//!   `lamport_history` and `multi_register_3x` workloads, 16-history `check_many`
//!   batches across thread-pool widths (an `Auto` checker inside a fixed-width
//!   rayon pool), the `checker_reused` / `checker_fresh` scratch-reuse pair on the
//!   small-history corpus (one checker for the corpus vs a new checker per
//!   history), and the `memo_arena` row (large-key many-distinct-value workload).
//!   Every row carries a `threads` field plus the memo-table counters
//!   (`memo_probes` / `memo_hits` / `memo_arena_hwm`); every check runs on one
//!   thread, so only the `engine_batch` rows have `threads` above 1. A second
//!   array, `enumeration_rows`, pins the enumeration walks: orders emitted and
//!   enumeration nodes visited by `Checker::linearizations` drains (single-register
//!   and product walks, full and first-64) and by the Theorem 13 family check. A
//!   third, `algorithm3_rows`, times Algorithm 3 (the on-line write
//!   strong-linearization function) on Algorithm 2 traces of growing length, and
//!   the engine on the head-to-head trace. Every field but `mean_wall_nanos` and
//!   `iterations` is deterministic, and CI diffs the regenerated file against the
//!   tracked one with those two masked.
//! * `BENCH_game.json` — experiment E2: cost of 10-round Figure 1/2 games per
//!   register mode and process count, plus full termination experiments. Each
//!   row's `mean_rounds` comes from a fixed block of seeds, so CI diffs this file
//!   the same way.
//! * `BENCH_abd.json` — experiments E3 (ABD write+read round-trip cost as the
//!   cluster grows and under minority crashes), E13 (adversarial message schedules:
//!   deliveries-to-counterexample per delivery adversary on the faulty cluster, plus
//!   the minimized failing schedule), E14 (the same hunt under loss with retries),
//!   E15 (the hunt timed with incremental vs from-scratch rechecks) and E17/E18
//!   (schedule fuzzing and static triage) — written by `rlt_bench::abd_summary`;
//!   this bin is the file's only writer.
//!
//! Usage: `cargo run --release -p rlt-bench --bin checkers_summary \
//!     [checkers.json [game.json [abd.json]]]`
//! (defaults: `BENCH_checkers.json`, `BENCH_game.json`, `BENCH_abd.json`)

use rlt_bench::tracked::{
    BATCH_SIZE, DISTINCT_VALUE_BURST, DISTINCT_VALUE_OPS, INCREMENTAL_MULTI_DECISIONS,
    MULTI_REGISTERS, REUSE_CORPUS, REUSE_MAX_OPS, REUSE_REGISTERS, REUSE_SEED, WORKLOAD_PROCESSES,
    WORKLOAD_SEED,
};
use rlt_bench::{
    best_mean_time, distinct_value_workload, host_cpus, incremental_resweep, incremental_sweep,
    invocation_ordered, lamport_workload, mean_time, multi_register_workload, small_history_corpus,
    stream_checker, vector_workload,
};
use rlt_game::{run_game, termination_experiment, GameConfig};
use rlt_registers::algorithm3::vector_linearization;
use rlt_registers::counterexample::theorem13_family;
use rlt_sim::RegisterMode;
use rlt_spec::reference::reference_check_linearizable;
use rlt_spec::{Checker, History, MemoStats, DEFAULT_STATE_LIMIT};
use std::fmt::Write as _;

/// Decision counts for the single-register scaling series. 80 was the ceiling of the
/// pre-engine checker's bench coverage; 160/320 exercise the engine headroom.
const SINGLE_REGISTER_SIZES: &[usize] = &[20, 40, 80, 160, 320];

/// Decision counts per register for the multi-register composition series.
const MULTI_REGISTER_SIZES: &[usize] = &[20, 40, 80, 160];

/// Decision counts of the E15 growing single-register streams: a live history that
/// grows one event at a time, re-checked after every event.
const INCREMENTAL_STREAM_SIZES: &[usize] = &[80, 160, 320];

/// Sizes the reference checker participates in (its historical bench ceiling).
const REFERENCE_CEILING: usize = 80;

/// Pool widths measured by the E11 batch rows.
const THREAD_COUNTS: &[usize] = &[1, 2, 4];

/// Orders pulled by the partial enumeration rows: the checking service's default
/// `max_linearizations`.
const ENUMERATION_PREFIX: usize = 64;

/// Enumeration rows: workload, decisions (per register for the multi-register
/// series), and how many orders to pull (`None` drains the whole space). The
/// single-register histories take the joint walk, the multi-register ones the
/// lazy interleaving product.
const ENUMERATION_SIZES: &[(&str, usize, Option<usize>)] = &[
    ("lamport_history", 80, None),
    ("lamport_history", 160, None),
    ("multi_register_3x", 12, None),
    ("multi_register_3x", 40, Some(ENUMERATION_PREFIX)),
    ("multi_register_3x", 80, Some(ENUMERATION_PREFIX)),
];

/// Algorithm 3 rows: processes, decisions and seed of each Algorithm 2 trace, and
/// whether the engine checks the same trace (the head-to-head row).
const ALGORITHM3_TRACES: &[(usize, usize, u64, bool)] = &[
    (4, 20, 11, false),
    (4, 60, 11, false),
    (4, 120, 11, false),
    (3, 40, 5, true),
];

/// Seeds `1..=GAME_SEEDS` give each `game_10_rounds` row its `mean_rounds`.
const GAME_SEEDS: u64 = 1000;

// Workload geometry (sizes, seeds, thresholds) lives in `rlt_bench::tracked`.

struct Row {
    checker: &'static str,
    workload: String,
    ops: usize,
    threads: usize,
    linearizable: bool,
    states_explored: u64,
    states_memoized: u64,
    memo: MemoStats,
    mean_wall_nanos: u128,
    iterations: u64,
    limit_hit: bool,
}

/// Folds the memo counters of a batch/corpus probe: probes and hits sum, the arena
/// high-water is a maximum (it is already a per-check max).
fn fold_memo<'a>(probes: impl Iterator<Item = &'a rlt_spec::Verdict<i64>>) -> MemoStats {
    let mut memo = MemoStats::default();
    for verdict in probes {
        memo.probes += verdict.stats().memo.probes;
        memo.hits += verdict.stats().memo.hits;
        memo.arena_high_water = memo
            .arena_high_water
            .max(verdict.stats().memo.arena_high_water);
    }
    memo
}

fn measure_engine(workload: &str, history: &History<i64>) -> Row {
    let checker = Checker::new(0i64);
    let probe = checker.check(history);
    let (mean_wall_nanos, iterations, linearizable) =
        mean_time(|| checker.check(history).is_linearizable());
    Row {
        checker: "engine",
        workload: workload.to_string(),
        ops: history.len(),
        threads: 1,
        linearizable,
        states_explored: probe.stats().states_explored,
        states_memoized: probe.stats().states_memoized,
        memo: probe.stats().memo,
        mean_wall_nanos,
        iterations,
        limit_hit: !probe.is_conclusive(),
    }
}

/// A 16-history `check_many` batch through an `Auto` checker inside a
/// `threads`-wide pool; `mean_wall_nanos` is per *history* so the row is directly
/// comparable with the single-check rows.
fn measure_engine_batch(workload: &str, histories: &[History<i64>], threads: usize) -> Row {
    let checker = Checker::new(0i64);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build the batch pool");
    let probe = pool.install(|| checker.check_many(histories));
    let (mean_batch_nanos, iterations, linearizable) = mean_time(|| {
        pool.install(|| checker.check_many(histories))
            .iter()
            .all(rlt_spec::Verdict::is_linearizable)
    });
    Row {
        checker: "engine_batch",
        workload: workload.to_string(),
        ops: histories.iter().map(History::len).sum::<usize>() / histories.len(),
        threads,
        linearizable,
        states_explored: probe.iter().map(|r| r.stats().states_explored).sum(),
        states_memoized: probe.iter().map(|r| r.stats().states_memoized).sum(),
        memo: fold_memo(probe.iter()),
        mean_wall_nanos: mean_batch_nanos / histories.len().max(1) as u128,
        iterations,
        limit_hit: probe.iter().any(|r| !r.is_conclusive()),
    }
}

/// Scratch-arena reuse on the small-history corpus: one reused session vs a new
/// checker per call (`reuse = false`), whose scratch pool starts empty, so the
/// diff is allocation; `mean_wall_nanos` is per history.
fn measure_checker_reuse(workload: &str, histories: &[History<i64>], reuse: bool) -> Row {
    let session = Checker::new(0i64);
    let probe: Vec<_> = histories.iter().map(|h| session.check(h)).collect();
    // `filter(..).count()`, not `all(..)`: every history must actually be checked (a
    // short-circuiting combinator would stop at the first violation and measure
    // almost nothing).
    let (mean_corpus_nanos, iterations, linearizable) = mean_time(|| {
        let linearizable = if reuse {
            histories
                .iter()
                .filter(|h| session.check(h).is_linearizable())
                .count()
        } else {
            histories
                .iter()
                .filter(|h| Checker::new(0i64).check(h).is_linearizable())
                .count()
        };
        linearizable == histories.len()
    });
    Row {
        checker: if reuse {
            "checker_reused"
        } else {
            "checker_fresh"
        },
        workload: workload.to_string(),
        ops: histories.iter().map(History::len).sum::<usize>() / histories.len(),
        threads: 1,
        linearizable,
        states_explored: probe.iter().map(|r| r.stats().states_explored).sum(),
        states_memoized: probe.iter().map(|r| r.stats().states_memoized).sum(),
        memo: fold_memo(probe.iter()),
        mean_wall_nanos: mean_corpus_nanos / histories.len().max(1) as u128,
        iterations,
        limit_hit: probe.iter().any(|r| !r.is_conclusive()),
    }
}

/// The E15 `incremental` rows: one [`rlt_spec::IncrementalChecker`] session swept
/// over every growing prefix of the workload, verdict per event. `mean_wall_nanos`
/// is **amortized per event** (sweep wall time over event count), directly
/// comparable with the `recheck_scratch` rows; `states_explored` is the session's
/// own `incremental_states` and `states_memoized` its `memo_entries_reused` — both
/// deterministic.
fn measure_incremental(workload: &str, history: &History<i64>) -> Row {
    let prefixes = history.all_prefixes();
    let events = (prefixes.len() - 1).max(1) as u128;
    let (mut session, _) = incremental_sweep(&prefixes);
    let stats = session.stats();
    let (mean_sweep_nanos, iterations, linearizable) =
        best_mean_time(|| incremental_resweep(&mut session, &prefixes));
    Row {
        checker: "incremental",
        workload: workload.to_string(),
        ops: history.len(),
        threads: 1,
        linearizable,
        states_explored: stats.incremental_states,
        states_memoized: stats.memo_entries_reused,
        memo: MemoStats::default(),
        mean_wall_nanos: mean_sweep_nanos / events,
        iterations,
        limit_hit: stats.full_fallbacks > 0,
    }
}

/// The E15 baseline: the same growing stream re-checked from scratch with
/// [`Checker::check`] after every event. `mean_wall_nanos` is amortized per event;
/// the counters are the sums over every prefix.
fn measure_recheck_scratch(workload: &str, history: &History<i64>) -> Row {
    let checker = stream_checker();
    let prefixes = history.all_prefixes();
    let events = (prefixes.len() - 1).max(1) as u128;
    let probe: Vec<_> = prefixes.iter().map(|p| checker.check(p)).collect();
    let (mean_sweep_nanos, iterations, linearizable) = best_mean_time(|| {
        prefixes
            .iter()
            .filter(|p| checker.check(p).is_linearizable())
            .count()
            == prefixes.len()
    });
    Row {
        checker: "recheck_scratch",
        workload: workload.to_string(),
        ops: history.len(),
        threads: 1,
        linearizable,
        states_explored: probe.iter().map(|r| r.stats().states_explored).sum(),
        states_memoized: probe.iter().map(|r| r.stats().states_memoized).sum(),
        memo: fold_memo(probe.iter()),
        mean_wall_nanos: mean_sweep_nanos / events,
        iterations,
        limit_hit: probe.iter().any(|r| !r.is_conclusive()),
    }
}

fn measure_reference(workload: &str, history: &History<i64>) -> Row {
    let (mean_wall_nanos, iterations, linearizable) =
        mean_time(|| reference_check_linearizable(history, &0, DEFAULT_STATE_LIMIT).is_some());
    Row {
        checker: "reference",
        workload: workload.to_string(),
        ops: history.len(),
        threads: 1,
        linearizable,
        states_explored: 0, // the reference API reports no statistics
        states_memoized: 0,
        memo: MemoStats::default(),
        mean_wall_nanos,
        iterations,
        limit_hit: false,
    }
}

fn log_row(r: &Row) {
    eprintln!(
        "{:>15} {} (t={}): {} ops, {} states, {:.3} ms/iter over {} iters{}",
        r.checker,
        r.workload,
        r.threads,
        r.ops,
        r.states_explored,
        r.mean_wall_nanos as f64 / 1e6,
        r.iterations,
        if r.limit_hit { " (LIMIT HIT)" } else { "" }
    );
}

fn checker_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for &decisions in SINGLE_REGISTER_SIZES {
        let history = lamport_workload(WORKLOAD_PROCESSES, decisions, WORKLOAD_SEED);
        let name = format!("lamport_history/{decisions}");
        let row = measure_engine(&name, &history);
        log_row(&row);
        rows.push(row);
        if decisions <= REFERENCE_CEILING {
            let row = measure_reference(&name, &history);
            log_row(&row);
            rows.push(row);
        }
    }
    for &decisions in MULTI_REGISTER_SIZES {
        let history = multi_register_workload(MULTI_REGISTERS, decisions, WORKLOAD_SEED);
        let name = format!("multi_register_{MULTI_REGISTERS}x/{decisions}");
        let row = measure_engine(&name, &history);
        log_row(&row);
        rows.push(row);
        if decisions <= REFERENCE_CEILING {
            let row = measure_reference(&name, &history);
            log_row(&row);
            rows.push(row);
        }
        // E11: 16-history batches of the same workload across pool widths.
        let batch: Vec<History<i64>> = (0..BATCH_SIZE)
            .map(|s| multi_register_workload(MULTI_REGISTERS, decisions, WORKLOAD_SEED + s))
            .collect();
        for &threads in THREAD_COUNTS {
            let row = measure_engine_batch(&name, &batch, threads);
            log_row(&row);
            rows.push(row);
        }
    }
    let corpus = small_history_corpus(REUSE_CORPUS, REUSE_MAX_OPS, REUSE_REGISTERS, REUSE_SEED);
    let name = format!("small_history_corpus/{REUSE_CORPUS}");
    for reuse in [true, false] {
        let row = measure_checker_reuse(&name, &corpus, reuse);
        log_row(&row);
        rows.push(row);
    }
    let history = distinct_value_workload(DISTINCT_VALUE_OPS, DISTINCT_VALUE_BURST, WORKLOAD_SEED);
    let name = format!("distinct_value_register/{DISTINCT_VALUE_OPS}");
    // E12: the arena-backed memo table on two-word taken bitsets.
    let row = Row {
        checker: "memo_arena",
        ..measure_engine(&name, &history)
    };
    log_row(&row);
    rows.push(row);
    // E15: incremental sessions vs recheck-from-scratch on growing streams.
    for &decisions in INCREMENTAL_STREAM_SIZES {
        let history = lamport_workload(WORKLOAD_PROCESSES, decisions, WORKLOAD_SEED);
        let name = format!("lamport_stream/{decisions}");
        for row in [
            measure_incremental(&name, &history),
            measure_recheck_scratch(&name, &history),
        ] {
            log_row(&row);
            rows.push(row);
        }
    }
    let history = invocation_ordered(&multi_register_workload(
        MULTI_REGISTERS,
        INCREMENTAL_MULTI_DECISIONS,
        WORKLOAD_SEED,
    ));
    let name = format!("multi_register_{MULTI_REGISTERS}x_stream/{INCREMENTAL_MULTI_DECISIONS}");
    for row in [
        measure_incremental(&name, &history),
        measure_recheck_scratch(&name, &history),
    ] {
        log_row(&row);
        rows.push(row);
    }
    rows
}

/// One enumeration row: orders emitted and enumeration nodes visited (the
/// `nodes_visited` work counter), and whether the work cap stopped the walk.
struct EnumerationRow {
    workload: String,
    ops: usize,
    orders: usize,
    enumeration_nodes: u64,
    work_capped: bool,
    mean_wall_nanos: u128,
    iterations: u64,
}

/// Pulls up to `limit` orders (all of them for `None`) from
/// `Checker::linearizations`: the orders pulled, the nodes visited, and whether
/// the work cap tripped.
fn drain_linearizations(history: &History<i64>, limit: Option<usize>) -> (usize, u64, bool) {
    let checker = Checker::new(0i64);
    let mut lins = checker.linearizations(history);
    let mut orders = 0;
    let mut capped = false;
    while limit.is_none_or(|l| orders < l) {
        match lins.next() {
            Some(Ok(_)) => orders += 1,
            Some(Err(_)) => {
                capped = true;
                break;
            }
            None => break,
        }
    }
    (orders, lins.nodes_visited(), capped)
}

fn enumeration_rows() -> Vec<EnumerationRow> {
    let mut rows = Vec::new();
    for &(series, decisions, limit) in ENUMERATION_SIZES {
        let history = if series == "lamport_history" {
            lamport_workload(WORKLOAD_PROCESSES, decisions, WORKLOAD_SEED)
        } else {
            multi_register_workload(MULTI_REGISTERS, decisions, WORKLOAD_SEED)
        };
        let (orders, enumeration_nodes, work_capped) = drain_linearizations(&history, limit);
        let (mean_wall_nanos, iterations, _) =
            mean_time(|| drain_linearizations(&history, limit).0 == orders);
        let suffix = limit.map_or(String::new(), |l| format!("/first_{l}"));
        rows.push(EnumerationRow {
            workload: format!("{series}/{decisions}{suffix}"),
            ops: history.len(),
            orders,
            enumeration_nodes,
            work_capped,
            mean_wall_nanos,
            iterations,
        });
    }
    // The Theorem 13 family (Figure 4), timed with its construction: base
    // linearizations examined, and every enumeration node the base and extension
    // streams visited.
    let probe = theorem13_family();
    let (mean_wall_nanos, iterations, _) = mean_time(|| !theorem13_family().report.admits);
    rows.push(EnumerationRow {
        workload: "theorem13_family/check_write_strong".to_string(),
        ops: probe.base.len(),
        orders: probe.report.base_linearizations.len(),
        enumeration_nodes: probe.report.stats.enumeration_nodes,
        work_capped: false,
        mean_wall_nanos,
        iterations,
    });
    for r in &rows {
        eprintln!(
            "{:>15} {}: {} ops, {} orders, {} nodes, {:.3} ms/iter over {} iters{}",
            "enumeration",
            r.workload,
            r.ops,
            r.orders,
            r.enumeration_nodes,
            r.mean_wall_nanos as f64 / 1e6,
            r.iterations,
            if r.work_capped { " (WORK CAPPED)" } else { "" }
        );
    }
    rows
}

/// One Algorithm 3 row: Algorithm 3 (or, on the head-to-head trace, the engine)
/// on one Algorithm 2 trace. `linearized` says that Algorithm 3's output is a
/// linearization of the trace's history, or that the engine found one.
struct Algorithm3Row {
    checker: &'static str,
    workload: String,
    ops: usize,
    linearized: bool,
    /// The engine's search states; Algorithm 3 does not search.
    states_explored: Option<u64>,
    mean_wall_nanos: u128,
    iterations: u64,
}

fn algorithm3_rows() -> Vec<Algorithm3Row> {
    let mut rows = Vec::new();
    for &(processes, decisions, seed, head_to_head) in ALGORITHM3_TRACES {
        let trace = vector_workload(processes, decisions, seed).trace();
        let workload = format!("vector_trace_{processes}p/{decisions}");
        let linearized = vector_linearization(&trace, None)
            .is_some_and(|lin| lin.is_linearization_of(&trace.history, &0));
        let (mean_wall_nanos, iterations, _) =
            mean_time(|| vector_linearization(&trace, None).is_some());
        rows.push(Algorithm3Row {
            checker: "algorithm3",
            workload: workload.clone(),
            ops: trace.history.len(),
            linearized,
            states_explored: None,
            mean_wall_nanos,
            iterations,
        });
        if head_to_head {
            let checker = Checker::new(0i64);
            let probe = checker.check(&trace.history);
            let (mean_wall_nanos, iterations, linearized) =
                mean_time(|| checker.check(&trace.history).is_linearizable());
            rows.push(Algorithm3Row {
                checker: "engine",
                workload,
                ops: trace.history.len(),
                linearized,
                states_explored: Some(probe.stats().states_explored),
                mean_wall_nanos,
                iterations,
            });
        }
    }
    for r in &rows {
        eprintln!(
            "{:>15} {}: {} ops, linearized {}, {:.3} ms/iter over {} iters",
            r.checker,
            r.workload,
            r.ops,
            r.linearized,
            r.mean_wall_nanos as f64 / 1e6,
            r.iterations
        );
    }
    rows
}

fn write_checkers_json(
    rows: &[Row],
    enumeration: &[EnumerationRow],
    algorithm3: &[Algorithm3Row],
    out_path: &str,
) {
    // Hand-rolled JSON: the workspace deliberately has no serialization dependency.
    let mut json = format!(
        "{{\n  \"experiment\": \"E10-E11-checker-and-parallel-scaling\",\n  \"host_cpus\": {},\n  \"rows\": [\n",
        host_cpus()
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"checker\": \"{}\", \"workload\": \"{}\", \"ops\": {}, \
             \"threads\": {}, \"linearizable\": {}, \"states_explored\": {}, \
             \"states_memoized\": {}, \"memo_probes\": {}, \"memo_hits\": {}, \
             \"memo_arena_hwm\": {}, \"mean_wall_nanos\": {}, \"iterations\": {}, \
             \"limit_hit\": {}}}{}",
            r.checker,
            r.workload,
            r.ops,
            r.threads,
            r.linearizable,
            r.states_explored,
            r.states_memoized,
            r.memo.probes,
            r.memo.hits,
            r.memo.arena_high_water,
            r.mean_wall_nanos,
            r.iterations,
            r.limit_hit,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"enumeration_rows\": [\n");
    for (i, r) in enumeration.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}\", \"ops\": {}, \"orders\": {}, \
             \"enumeration_nodes\": {}, \"work_capped\": {}, \
             \"mean_wall_nanos\": {}, \"iterations\": {}}}{}",
            r.workload,
            r.ops,
            r.orders,
            r.enumeration_nodes,
            r.work_capped,
            r.mean_wall_nanos,
            r.iterations,
            if i + 1 < enumeration.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"algorithm3_rows\": [\n");
    for (i, r) in algorithm3.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"checker\": \"{}\", \"workload\": \"{}\", \"ops\": {}, \
             \"linearized\": {}, \"states_explored\": {}, \
             \"mean_wall_nanos\": {}, \"iterations\": {}}}{}",
            r.checker,
            r.workload,
            r.ops,
            r.linearized,
            r.states_explored
                .map_or_else(|| "null".to_string(), |s| s.to_string()),
            r.mean_wall_nanos,
            r.iterations,
            if i + 1 < algorithm3.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(out_path, &json).expect("write checkers summary JSON");
    eprintln!("wrote {out_path}");
}

fn write_game_json(out_path: &str) {
    // E2: per-mode cost of 10-round games and of a 100-trial termination
    // experiment.
    struct GameRow {
        bench: &'static str,
        mode: &'static str,
        processes: usize,
        mean_wall_nanos: u128,
        iterations: u64,
        /// `None` when no trial terminated (serialized as JSON `null`, never `NaN`).
        mean_rounds: Option<f64>,
    }
    let mut rows: Vec<GameRow> = Vec::new();
    for &n in &[4usize, 8] {
        let cfg = GameConfig::new(n).with_max_rounds(10);
        for (label, mode) in [
            ("linearizable", RegisterMode::Linearizable),
            ("write_strong", RegisterMode::WriteStrongLinearizable),
            ("atomic", RegisterMode::Atomic),
        ] {
            let total_rounds: u64 = (1..=GAME_SEEDS)
                .map(|seed| run_game(mode, &cfg, seed).rounds_executed)
                .sum();
            let mut seed = 0u64;
            let (mean_wall_nanos, iterations, _) = mean_time(|| {
                seed += 1;
                run_game(mode, &cfg, seed).all_returned
            });
            rows.push(GameRow {
                bench: "game_10_rounds",
                mode: label,
                processes: n,
                mean_wall_nanos,
                iterations,
                mean_rounds: Some(total_rounds as f64 / GAME_SEEDS as f64),
            });
        }
    }
    let cfg = GameConfig::new(5).with_max_rounds(64);
    for (label, mode) in [
        ("write_strong", RegisterMode::WriteStrongLinearizable),
        ("atomic", RegisterMode::Atomic),
    ] {
        let mut last_mean_round = None;
        let (mean_wall_nanos, iterations, _) = mean_time(|| {
            let stats = termination_experiment(mode, &cfg, 100, 3);
            last_mean_round = stats.mean_termination_round;
            stats.terminated_fraction > 0.99
        });
        rows.push(GameRow {
            bench: "termination_experiment_100_trials",
            mode: label,
            processes: 5,
            mean_wall_nanos,
            iterations,
            mean_rounds: last_mean_round,
        });
    }
    let mut json = format!(
        "{{\n  \"experiment\": \"E2-game-cost\",\n  \"host_cpus\": {},\n  \"rows\": [\n",
        host_cpus()
    );
    for (i, r) in rows.iter().enumerate() {
        let mean_rounds_json = r
            .mean_rounds
            .map_or_else(|| "null".to_string(), |m| format!("{m:.3}"));
        eprintln!(
            "{:>15} {} n={}: {:.3} ms/iter over {} iters (mean rounds {})",
            r.bench,
            r.mode,
            r.processes,
            r.mean_wall_nanos as f64 / 1e6,
            r.iterations,
            mean_rounds_json
        );
        let _ = writeln!(
            json,
            "    {{\"bench\": \"{}\", \"mode\": \"{}\", \"processes\": {}, \
             \"mean_wall_nanos\": {}, \"iterations\": {}, \"mean_rounds\": {}}}{}",
            r.bench,
            r.mode,
            r.processes,
            r.mean_wall_nanos,
            r.iterations,
            mean_rounds_json,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(out_path, &json).expect("write game summary JSON");
    eprintln!("wrote {out_path}");
}

fn main() {
    let mut args = std::env::args().skip(1);
    let checkers_path = args.next().unwrap_or_else(|| "BENCH_checkers.json".into());
    let game_path = args.next().unwrap_or_else(|| "BENCH_game.json".into());
    let abd_path = args.next().unwrap_or_else(|| "BENCH_abd.json".into());

    let rows = checker_rows();
    let enumeration = enumeration_rows();
    let algorithm3 = algorithm3_rows();
    write_checkers_json(&rows, &enumeration, &algorithm3, &checkers_path);
    write_game_json(&game_path);
    rlt_bench::abd_summary::write_abd_json(&abd_path);
}
