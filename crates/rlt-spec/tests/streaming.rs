//! Streaming-enumeration suite: the lazy [`Linearizations`] iterator on the same
//! seeded corpus the differential suite uses. (Its emission order is pinned
//! against the reference enumerator by the differential and parallel suites.)
//!
//! Two contracts are pinned here:
//!
//! * **Laziness** — `take(1)` performs strictly less enumeration work than a full
//!   drain (measured by the exposed [`Linearizations::nodes_visited`] counter), and
//!   dropping the iterator mid-way is safe at any point.
//! * **Short-circuiting consumers** — [`ExtensionFamily`] checks driven by the
//!   streaming iterator visit strictly fewer enumeration nodes than draining
//!   `max_linearizations` orders per member, on families whose extensions match
//!   early.

mod common;

use common::random_history;
use rlt_spec::{
    Checker, ExtensionFamily, History, HistoryBuilder, Linearizations, OpId, ProcessId, RegisterId,
};

/// Pulls up to `max` orders from a fresh iterator (the eager per-member behavior of
/// the pre-streaming family check) and reports the node counter.
fn drained_nodes(checker: &Checker<i64>, h: &History<i64>, max: usize) -> u64 {
    let mut it = checker.linearizations(h);
    let mut pulled = 0usize;
    while pulled < max {
        match it.next() {
            Some(Ok(_)) => pulled += 1,
            Some(Err(err)) => panic!("unexpected work-cap error: {err}"),
            None => break,
        }
    }
    it.nodes_visited()
}

#[test]
fn take_one_does_strictly_less_work_than_a_full_drain() {
    // The acceptance bar: on the 3-register corpus, pulling one order must cost
    // strictly fewer enumeration nodes than a full drain. Individual histories with
    // a unique linearization can tie, so the assertion sums over the corpus — and
    // also checks per-history that take(1) never exceeds the drain.
    let checker = Checker::new(0i64);
    let mut lazy_total = 0u64;
    let mut eager_total = 0u64;
    for seed in 0..1_000u64 {
        let h = random_history(seed * 3 + 3, 10, 3);
        let mut lazy_iter = checker.linearizations(&h);
        let first = lazy_iter.next();
        let lazy = lazy_iter.nodes_visited();
        drop(lazy_iter);
        let eager = drained_nodes(&checker, &h, usize::MAX);
        assert!(
            lazy <= eager,
            "take(1) out-worked the full drain on seed {seed}: {lazy} vs {eager}"
        );
        // Content check: the first order is a linearization, and there is one
        // exactly when the checker says the history is linearizable.
        match first {
            Some(Ok(order)) => {
                let lin = checker.linearizations(&h).materialize(&order);
                assert!(lin.is_linearization_of(&h, &0), "seed {seed}");
            }
            Some(Err(err)) => panic!("unexpected work-cap error on seed {seed}: {err}"),
            None => assert!(!checker.check(&h).is_linearizable(), "seed {seed}"),
        }
        lazy_total += lazy;
        eager_total += eager;
    }
    assert!(
        lazy_total < eager_total,
        "take(1) must be strictly lazier over the corpus: {lazy_total} vs {eager_total}"
    );
}

#[test]
fn iterator_can_be_dropped_at_any_point() {
    let checker = Checker::new(0i64);
    for seed in 0..50u64 {
        let h = random_history(seed * 5 + 1, 9, 2);
        // Never pulled.
        let unused: Linearizations<'_, i64> = checker.linearizations(&h);
        drop(unused);
        // Dropped mid-iteration: the already-yielded prefix must match a later
        // full drain's, so dropping does not disturb later sessions on the same
        // checker.
        let mut it = checker.linearizations(&h);
        let mut prefix = Vec::new();
        for _ in 0..3 {
            match it.next() {
                Some(Ok(order)) => prefix.push(order),
                Some(Err(err)) => panic!("unexpected work-cap error: {err}"),
                None => break,
            }
        }
        drop(it);
        let drained: Vec<Vec<OpId>> = checker
            .linearizations(&h)
            .collect::<Result<_, _>>()
            .expect("within work cap");
        assert_eq!(prefix, drained[..prefix.len()], "seed {seed}");
    }
}

#[test]
fn work_cap_yields_one_error_then_fuses() {
    let mut b = HistoryBuilder::new();
    let ids: Vec<_> = (0..8)
        .map(|i| b.invoke_write(ProcessId(i), RegisterId(0), i as i64 + 1))
        .collect();
    for id in ids {
        b.respond_write(id);
    }
    let h = b.build();
    let checker = Checker::builder(0i64).enumeration_work_cap(10).build();
    let mut it = checker.linearizations(&h);
    let mut seen_orders = 0usize;
    let err = loop {
        match it.next() {
            Some(Ok(_)) => seen_orders += 1,
            Some(Err(err)) => break err,
            None => panic!("the cap must trip before the 8! orders are exhausted"),
        }
    };
    assert!(err.nodes_visited > 10);
    assert_eq!(it.nodes_visited(), err.nodes_visited);
    assert!(it.next().is_none(), "after the error the iterator fuses");
    assert!(it.next().is_none());
    assert!(seen_orders <= 10);
}

#[test]
fn family_checks_short_circuit_through_the_stream() {
    // A family that admits: the base's single write extends to the extension's very
    // first linearization, so the streaming check pulls a couple of orders where the
    // eager path materialized up to `max_linearizations` from the extension's 7!-order
    // space. The report's node counter must come in strictly under the eager cost.
    const R: RegisterId = RegisterId(0);
    let mut b = HistoryBuilder::new();
    b.write(ProcessId(0), R, 100i64);
    let base = b.snapshot();
    let ids: Vec<_> = (0..7)
        .map(|i| b.invoke_write(ProcessId(1 + i), R, i as i64 + 1))
        .collect();
    for id in ids {
        b.respond_write(id);
    }
    let ext = b.build();
    let max_linearizations = 2_000usize;

    let family = ExtensionFamily::new(base.clone(), vec![ext.clone()], 0i64);
    let report = family.check_write_strong(max_linearizations);
    assert!(report.admits);

    let checker = Checker::new(0i64);
    let eager_nodes = drained_nodes(&checker, &base, max_linearizations)
        + drained_nodes(&checker, &ext, max_linearizations);
    assert!(
        report.stats.enumeration_nodes < eager_nodes,
        "streaming family check must beat eager materialization: {} vs {eager_nodes}",
        report.stats.enumeration_nodes
    );
}
