//! Experiments E10/E11 (engineering): scaling of the analysis tools.
//!
//! * The general-purpose linearizability checker (backtracking with memoization) vs
//!   history length (E10), through a reused [`Checker`] session.
//! * `check_many` batches across thread-pool widths (E11).
//! * The arena-backed memo table on the large-key workload (E12).
//! * Reused-session vs fresh-per-call checking on the small-history corpus, where
//!   allocation is a visible fraction of check time (the `checker_reuse` group).
//! * Algorithm 3 (the on-line write strong-linearization function) vs trace length — it
//!   runs in low polynomial time, which is why the write-strong prefix checks over all
//!   prefixes are feasible.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rlt_bench::tracked::{DISTINCT_VALUE_BURST, DISTINCT_VALUE_OPS, WORKLOAD_SEED};
use rlt_bench::{
    distinct_value_workload, incremental_sweep, lamport_workload, multi_register_workload,
    small_history_corpus, stream_checker, vector_workload,
};
use rlt_registers::algorithm3::vector_linearization;
use rlt_spec::reference::reference_check_linearizable;
use rlt_spec::{Checker, History, ThreadPolicy, DEFAULT_STATE_LIMIT};
use std::hint::black_box;

fn linearizability_checker(c: &mut Criterion) {
    let mut group = c.benchmark_group("check_linearizable");
    group.sample_size(20);
    let checker = Checker::new(0i64);
    // 80 decisions was the ceiling of the pre-engine checker's coverage; the interned
    // bitset engine reaches 160 and 320 comfortably under the state limit.
    for &decisions in &[20usize, 40, 80, 160, 320] {
        let history = lamport_workload(3, decisions, 7);
        group.bench_with_input(
            BenchmarkId::new("lamport_history", history.len()),
            &history,
            |b, h| {
                b.iter(|| black_box(checker.check(h).is_linearizable()));
            },
        );
    }
    group.finish();
}

/// E15: one incremental session swept over a growing history (verdict after every
/// event) against re-checking every prefix from scratch. The tracked amortized
/// numbers live in `BENCH_checkers.json`; this group gives Criterion's view.
fn incremental_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_stream");
    group.sample_size(10);
    for &decisions in &[80usize, 320] {
        let history = lamport_workload(3, decisions, WORKLOAD_SEED);
        let prefixes = history.all_prefixes();
        group.bench_with_input(
            BenchmarkId::new("incremental", history.len()),
            &prefixes,
            |b, prefixes| {
                b.iter(|| black_box(incremental_sweep(prefixes).1));
            },
        );
        let checker = stream_checker();
        group.bench_with_input(
            BenchmarkId::new("recheck_scratch", history.len()),
            &prefixes,
            |b, prefixes| {
                b.iter(|| {
                    black_box(
                        prefixes
                            .iter()
                            .filter(|p| checker.check(p).is_linearizable())
                            .count(),
                    )
                });
            },
        );
    }
    group.finish();
}

fn engine_vs_reference(c: &mut Criterion) {
    // Head-to-head on the 80-decision workload (the old ceiling): the engine against
    // the pre-rewrite checker kept in `rlt_spec::reference`. EXPERIMENTS.md tracks the
    // ratio; the acceptance bar is >= 5x.
    let mut group = c.benchmark_group("engine_vs_reference_80_decisions");
    group.sample_size(20);
    let history = lamport_workload(3, 80, 7);
    let checker = Checker::new(0i64);
    group.bench_function("engine", |b| {
        b.iter(|| black_box(checker.check(&history).is_linearizable()));
    });
    group.bench_function("reference", |b| {
        b.iter(|| {
            black_box(reference_check_linearizable(&history, &0, DEFAULT_STATE_LIMIT).is_some())
        });
    });
    group.finish();
}

fn parallel_engine_scaling(c: &mut Criterion) {
    // Experiment E11: 16-history `check_many` batches of the multi-register
    // composition workload across pool widths, through `ThreadPolicy::Fixed`
    // checkers. Each check runs on one thread; the batch fans whole histories across
    // the pool. Results are bit-identical across widths (pinned by the rlt-spec
    // `parallel` suite); only wall time may move.
    let mut group = c.benchmark_group("parallel_engine_multi_register_3x");
    group.sample_size(20);
    let batch: Vec<History<i64>> = (0..16)
        .map(|s| multi_register_workload(3, 80, 7 + s))
        .collect();
    for &threads in &[1usize, 2, 4] {
        let checker = Checker::builder(0i64)
            .threads(ThreadPolicy::Fixed(threads))
            .build();
        group.bench_with_input(
            BenchmarkId::new("batch16_threads", threads),
            &batch,
            |b, hs| {
                b.iter(|| black_box(checker.check_many(hs).len()));
            },
        );
    }
    group.finish();
}

fn checker_reuse(c: &mut Criterion) {
    // Scratch-arena reuse on the small-history corpus: one reused session vs a fresh
    // checker (cold arenas) per call, so the diff is allocation. Verdicts are
    // identical either way.
    let mut group = c.benchmark_group("checker_reuse");
    group.sample_size(20);
    let corpus = small_history_corpus(256, 14, 2, 42);
    let reused = Checker::new(0i64);
    group.bench_function("reused_checker", |b| {
        b.iter(|| {
            black_box(
                corpus
                    .iter()
                    .filter(|h| reused.check(h).is_linearizable())
                    .count(),
            )
        });
    });
    group.bench_function("fresh_checker_per_call", |b| {
        b.iter(|| {
            black_box(
                corpus
                    .iter()
                    .filter(|h| {
                        Checker::builder(0i64)
                            .scratch_reuse(false)
                            .build()
                            .check(h)
                            .is_linearizable()
                    })
                    .count(),
            )
        });
    });
    group.finish();
}

fn memo_arena_large_keys(c: &mut Criterion) {
    // Experiment E12: the arena-backed memo table on the many-distinct-value
    // large-key workload (112 ops => two-word taken bitsets, so every memo key takes
    // the skip-compacted multi-word path).
    let mut group = c.benchmark_group("memo_arena_distinct_values");
    group.sample_size(20);
    let history = distinct_value_workload(DISTINCT_VALUE_OPS, DISTINCT_VALUE_BURST, WORKLOAD_SEED);
    let checker = Checker::new(0i64);
    group.bench_function("engine", |b| {
        b.iter(|| black_box(checker.check(&history).is_linearizable()));
    });
    group.finish();
}

fn algorithm3_linearization(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithm3_vector_linearization");
    group.sample_size(20);
    for &decisions in &[20usize, 60, 120] {
        let sim = vector_workload(4, decisions, 11);
        let trace = sim.trace();
        group.bench_with_input(
            BenchmarkId::new("trace_ops", trace.history.len()),
            &trace,
            |b, t| {
                b.iter(|| black_box(vector_linearization(t, None).is_some()));
            },
        );
    }
    group.finish();
}

fn algorithm3_vs_general_checker(c: &mut Criterion) {
    // Head-to-head on the same workload: the specialized on-line function vs the
    // exponential-in-the-worst-case search.
    let mut group = c.benchmark_group("algorithm3_vs_general_checker");
    group.sample_size(20);
    let sim = vector_workload(3, 40, 5);
    let trace = sim.trace();
    let checker = Checker::new(0i64);
    group.bench_function("algorithm3", |b| {
        b.iter(|| black_box(vector_linearization(&trace, None).is_some()));
    });
    group.bench_function("general_checker", |b| {
        b.iter(|| black_box(checker.check(&trace.history).is_linearizable()));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = linearizability_checker, incremental_stream, engine_vs_reference, parallel_engine_scaling, checker_reuse, memo_arena_large_keys, algorithm3_linearization, algorithm3_vs_general_checker
}
criterion_main!(benches);
