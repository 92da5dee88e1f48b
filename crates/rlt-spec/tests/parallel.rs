//! Parallel-determinism suite: `check_many` batches pinned to solo checks, through
//! the [`Checker`] session API.
//!
//! Every check runs on the calling thread; the one place the checker forks is
//! [`Checker::check_many`], which fans whole histories across a pool. The contract is
//! that thread policy is *unobservable* in results: every batch entry — verdict,
//! witness, and statistics — is bit-identical to a solo [`Checker::check`] of the
//! same history under [`ThreadPolicy::Sequential`] and [`ThreadPolicy::Auto`] on
//! pools of any width (a fixed width is `Auto` inside that pool's `install`). These
//! tests diff the
//! batches against solo checks on the seeded corpus the engine-vs-reference
//! differential suite uses, plus a tiny-budget corpus whose checks run dry
//! mid-search, and pin that enumeration and family reports ignore pool width.

mod common;

use common::random_history;
use rlt_spec::reference::reference_enumerate_linearizations;
use rlt_spec::{
    Checker, Engine, ExtensionFamily, History, HistoryBuilder, OpId, ProcessId, RegisterId,
    ThreadPolicy,
};

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build pool")
}

fn checker(policy: ThreadPolicy, budget: u64) -> Checker<i64> {
    Checker::builder(0i64)
        .state_budget(budget)
        .threads(policy)
        .build()
}

/// Runs `histories` through `check_many` at state budget `budget` under every
/// thread policy — `Sequential`, and `Auto` inside 2- and 4-wide pools — and diffs
/// each batch entry against a solo [`Checker::check`] of the same history.
fn assert_batches_match_solo(histories: &[History<i64>], budget: u64) {
    let solo_checker = checker(ThreadPolicy::Sequential, budget);
    let solo: Vec<_> = histories.iter().map(|h| solo_checker.check(h)).collect();
    let mut batches = vec![(
        "Sequential".to_string(),
        checker(ThreadPolicy::Sequential, budget).check_many(histories),
    )];
    for threads in [2usize, 4] {
        let auto = checker(ThreadPolicy::Auto, budget);
        batches.push((
            format!("Auto in a {threads}-wide pool"),
            pool(threads).install(|| auto.check_many(histories)),
        ));
    }
    for (label, batch) in batches {
        assert_eq!(batch.len(), solo.len(), "{label}: batch length");
        for (i, (got, want)) in batch.iter().zip(&solo).enumerate() {
            assert_eq!(
                got, want,
                "{label}, budget {budget}: history {i} diverged: {}",
                histories[i]
            );
        }
    }
}

#[test]
fn verdicts_are_bit_identical_across_thread_policies() {
    // The full 3,000-history differential corpus, one batch per policy.
    let histories: Vec<_> = (1..=3usize)
        .flat_map(|registers| {
            (0..1_000u64)
                .map(move |seed| random_history(seed * 3 + registers as u64, 10, registers))
        })
        .collect();
    assert_batches_match_solo(&histories, u64::MAX);
}

#[test]
fn tiny_state_budgets_replay_identically() {
    // With budgets this small most checks run dry mid-search: every batch entry must
    // reproduce the solo check's truncated statistics and inconclusive verdict.
    let histories: Vec<_> = (0..300u64)
        .map(|seed| random_history(seed + 5_000, 12, 3))
        .collect();
    for budget in [0u64, 1, 2, 5, 17, 64] {
        assert_batches_match_solo(&histories, budget);
    }
}

#[test]
fn batch_verdicts_match_individual_verdicts_at_any_width() {
    let histories: Vec<_> = (0..200u64)
        .map(|seed| random_history(seed * 11 + 1, 10, 3))
        .collect();
    let solo_checker = checker(ThreadPolicy::Sequential, u64::MAX);
    let solo: Vec<_> = histories.iter().map(|h| solo_checker.check(h)).collect();
    for policy in [ThreadPolicy::Sequential, ThreadPolicy::Auto] {
        let batch = checker(policy, u64::MAX).check_many(&histories);
        assert_eq!(batch, solo, "batch diverged under {policy:?}");
    }
    let auto = checker(ThreadPolicy::Auto, u64::MAX);
    for threads in [2usize, 4] {
        let batch = pool(threads).install(|| auto.check_many(&histories));
        assert_eq!(batch, solo, "batch diverged in a {threads}-wide pool");
    }
}

#[test]
fn multi_register_enumeration_matches_reference_exactly() {
    // The lazy interleaving product against the pre-engine reference enumerator on
    // three-register histories (the in-crate differential suite covers 1–2 registers):
    // same orders, same emission sequence.
    for seed in 0..300u64 {
        let h = random_history(seed * 13 + 3, 8, 3);
        let engine = Engine::new(&h, &0);
        let product: Vec<Vec<OpId>> = engine
            .enumerate(10_000, u64::MAX)
            .expect("within work cap")
            .iter()
            .map(|order| order.iter().map(|&i| engine.op(i).id).collect())
            .collect();
        let reference: Vec<Vec<OpId>> = reference_enumerate_linearizations(&h, &0, 10_000)
            .iter()
            .map(|s| s.op_ids())
            .collect();
        assert_eq!(
            product, reference,
            "enumeration diverged on seed {seed}: {h}"
        );
    }
}

#[test]
fn enumeration_output_is_independent_of_thread_count() {
    // Enumeration itself is sequential by design, but it is reached through
    // pool-installed call sites (the strong.rs family checks); pin the output anyway.
    let seq_pool = pool(1);
    let par_pool = pool(4);
    let checker = Checker::new(0i64);
    for seed in 0..100u64 {
        let h = random_history(seed * 17 + 7, 9, 2);
        let sequential = seq_pool.install(|| checker.enumerate(&h, 10_000));
        let parallel = par_pool.install(|| checker.enumerate(&h, 10_000));
        assert_eq!(sequential.unwrap(), parallel.unwrap(), "seed {seed}");
    }
}

#[test]
fn extension_family_reports_are_identical_across_thread_counts() {
    // The Theorem 13 miniature family (two conflicting extensions) through the lazy
    // member enumeration: the report — including which extension blocks each base
    // linearization and the enumeration node count — must not depend on pool width.
    const R: RegisterId = RegisterId(0);
    let mut b = HistoryBuilder::new();
    let w1 = b.invoke_write(ProcessId(1), R, 1i64);
    let w2 = b.invoke_write(ProcessId(2), R, 2i64);
    b.respond_write(w2);
    let base = b.snapshot();
    let mut ba = b.clone();
    ba.respond_write(w1);
    ba.read(ProcessId(3), R, 2i64);
    let ext_a = ba.build();
    let mut bb = b.clone();
    bb.respond_write(w1);
    bb.read(ProcessId(3), R, 1i64);
    let ext_b = bb.build();
    let family = ExtensionFamily::new(base, vec![ext_a, ext_b], 0i64);

    let baseline_ws = pool(1).install(|| family.check_write_strong(1_000));
    let baseline_strong = pool(1).install(|| family.check_strong(1_000));
    assert!(!baseline_ws.admits);
    for threads in [2usize, 4] {
        let pool = pool(threads);
        assert_eq!(
            pool.install(|| family.check_write_strong(1_000)),
            baseline_ws,
            "write-strong report diverged at {threads} threads"
        );
        assert_eq!(
            pool.install(|| family.check_strong(1_000)),
            baseline_strong,
            "strong report diverged at {threads} threads"
        );
    }
}
