//! Differential tests: the engine-backed [`Checker`] against the pre-rewrite
//! reference implementation (`rlt_spec::reference`), on thousands of seeded random
//! histories.
//!
//! Each history mixes pending and completed operations over 1–3 registers with a small
//! value domain (so read values frequently collide with — and frequently contradict —
//! written values, exercising both verdicts). For every history:
//!
//! * the checker's linearizable/not verdict must equal the reference's;
//! * every witness either checker returns must pass the full Definition 2 check
//!   (`SeqHistory::is_linearization_of`);
//! * on the smaller histories, the checker's eager enumeration must produce exactly
//!   the reference enumeration (same orders, same sequence).
//!
//! One `Checker` session is reused across each corpus — that is the intended usage
//! pattern, and it routes every check through the warm-scratch path.
//!
//! The generator lists operations in invocation order, as recorders do. A second pass
//! permutes each corpus history's operation list with a seeded shuffle, which is the
//! input that makes the engine's preds rows non-monotone and keeps its candidate scan
//! on the full untaken window.

mod common;

use common::random_history;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlt_spec::reference::{reference_check_linearizable, reference_enumerate_linearizations};
use rlt_spec::{parse_history, Checker, History, OpId, Value};

/// `h` with its operation list permuted by a Fisher–Yates shuffle seeded from `seed`.
fn shuffled(h: &History<i64>, seed: u64) -> History<i64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_5a1f);
    let mut ops = h.operations().to_vec();
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.gen_range(0..=i));
    }
    History::from_operations(ops)
}

#[test]
fn checker_verdicts_match_reference_on_1000_histories_per_register_count() {
    let checker = Checker::builder(0i64).state_budget(u64::MAX).build();
    let mut linearizable = 0u32;
    let mut total = 0u32;
    for registers in 1..=3usize {
        for seed in 0..1_000u64 {
            let h = random_history(seed * 3 + registers as u64, 10, registers);
            let verdict = checker.check(&h);
            let reference = reference_check_linearizable(&h, &0, u64::MAX);
            assert_eq!(
                verdict.is_linearizable(),
                reference.is_some(),
                "verdict mismatch on seed {seed} with {registers} register(s): {h}"
            );
            assert!(verdict.is_conclusive());
            total += 1;
            if let Some(witness) = verdict.witness() {
                linearizable += 1;
                assert!(
                    witness.is_linearization_of(&h, &0),
                    "checker witness fails Definition 2 on seed {seed} ({registers} regs): {h}\nwitness: {witness}"
                );
            }
            if let Some(witness) = &reference {
                assert!(
                    witness.is_linearization_of(&h, &0),
                    "reference witness fails Definition 2 on seed {seed} ({registers} regs): {h}"
                );
            }
        }
    }
    // The generator must exercise both verdicts heavily for the diff to mean anything.
    assert!(
        linearizable > 200,
        "only {linearizable} linearizable of {total}"
    );
    assert!(
        total - linearizable > 200,
        "only {} non-linearizable of {total}",
        total - linearizable
    );
}

#[test]
fn checker_enumeration_matches_reference_exactly() {
    let checker = Checker::new(0i64);
    for registers in 1..=2usize {
        for seed in 0..300u64 {
            let h = random_history(seed * 7 + registers as u64, 7, registers);
            let engine: Vec<Vec<OpId>> = checker
                .enumerate(&h, 10_000)
                .expect("within work cap")
                .iter()
                .map(|s| s.op_ids())
                .collect();
            let reference: Vec<Vec<OpId>> = reference_enumerate_linearizations(&h, &0, 10_000)
                .iter()
                .map(|s| s.op_ids())
                .collect();
            assert_eq!(
                engine, reference,
                "enumeration mismatch on seed {seed} with {registers} register(s): {h}"
            );
        }
    }
}

#[test]
fn checker_states_never_exceed_reference_exploration_order_on_multi_register() {
    // Per-register composition: on histories spanning several registers, the engine's
    // explored-state count must stay at the sum of small per-register searches. Checked
    // coarsely: states explored never exceeds 4 * ops + 64 on these small histories
    // (the joint search's worst case grows multiplicatively instead).
    let checker = Checker::builder(0i64).state_budget(u64::MAX).build();
    for seed in 0..500u64 {
        let h = random_history(seed + 77, 10, 3);
        let verdict = checker.check(&h);
        let bound = 4 * h.len() as u64 + 64;
        assert!(
            verdict.stats().states_explored <= bound,
            "seed {seed}: {} states on a {}-op history (bound {bound})",
            verdict.stats().states_explored,
            h.len()
        );
    }
}

#[test]
fn shuffled_histories_match_reference_verdicts_and_enumerations() {
    let checker = Checker::builder(0i64).state_budget(u64::MAX).build();
    for registers in 1..=3usize {
        for seed in 0..1_000u64 {
            let h = shuffled(
                &random_history(seed * 3 + registers as u64, 10, registers),
                seed,
            );
            let verdict = checker.check(&h);
            let reference = reference_check_linearizable(&h, &0, u64::MAX);
            assert_eq!(
                verdict.is_linearizable(),
                reference.is_some(),
                "verdict mismatch on shuffled seed {seed} with {registers} register(s): {h}"
            );
            if let Some(witness) = verdict.witness() {
                assert!(
                    witness.is_linearization_of(&h, &0),
                    "checker witness fails Definition 2 on shuffled seed {seed}: {h}"
                );
            }
        }
    }
    for registers in 1..=2usize {
        for seed in 0..300u64 {
            let h = shuffled(
                &random_history(seed * 7 + registers as u64, 7, registers),
                seed,
            );
            let engine: Vec<Vec<OpId>> = checker
                .enumerate(&h, 10_000)
                .expect("within work cap")
                .iter()
                .map(|s| s.op_ids())
                .collect();
            let reference: Vec<Vec<OpId>> = reference_enumerate_linearizations(&h, &0, 10_000)
                .iter()
                .map(|s| s.op_ids())
                .collect();
            assert_eq!(
                engine, reference,
                "enumeration mismatch on shuffled seed {seed} with {registers} register(s): {h}"
            );
        }
    }
}

#[test]
fn a_read_listed_before_the_write_it_returns_is_linearizable() {
    // The read's preds row holds the write, the write's row is empty: the rows are
    // not monotone, so the first blocked op must not end the candidate scan.
    let h = parse_history("op1 p1 R0 read 5 @ t3..t4\nop0 p0 R0 write 5 @ t1..t2\n")
        .expect("well-formed");
    let checker = Checker::new(Value::Init);
    assert!(checker.check(&h).is_linearizable());
    assert_eq!(checker.enumerate(&h, 16).expect("within work cap").len(), 1);
}
