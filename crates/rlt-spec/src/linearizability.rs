//! Default budgets of the linearizability checker.
//!
//! The checking surface lives on [`crate::Checker`]: one builder-configured
//! session object with [`check`](crate::Checker::check) /
//! [`check_many`](crate::Checker::check_many) /
//! [`linearizations`](crate::Checker::linearizations). This module owns the
//! default budget constants the builder starts from.

pub use crate::engine::EnumerationLimitExceeded;

/// Default cap on the number of search states explored by a [`crate::Checker`] check.
pub const DEFAULT_STATE_LIMIT: u64 = 20_000_000;

/// Default cap on search nodes visited by a [`crate::Checker`] enumeration (eager or
/// streaming) before it declares the input adversarial and fails with
/// [`EnumerationLimitExceeded`].
pub const DEFAULT_ENUMERATION_WORK_LIMIT: u64 = 20_000_000;

#[cfg(test)]
mod tests {
    use super::{EnumerationLimitExceeded, DEFAULT_STATE_LIMIT};
    use crate::checker::Checker;
    use crate::history::{History, HistoryBuilder};
    use crate::ids::{OpId, ProcessId, RegisterId};

    const R: RegisterId = RegisterId(0);

    fn checker() -> Checker<i64> {
        Checker::new(0i64)
    }

    #[test]
    fn sequential_history_is_linearizable() {
        let mut b = HistoryBuilder::new();
        b.write(ProcessId(0), R, 1i64);
        b.read(ProcessId(1), R, 1i64);
        b.write(ProcessId(0), R, 2i64);
        b.read(ProcessId(1), R, 2i64);
        let h = b.build();
        let witness = checker()
            .check(&h)
            .into_witness()
            .expect("should be linearizable");
        assert!(witness.is_linearization_of(&h, &0));
    }

    #[test]
    fn stale_read_after_write_is_not_linearizable() {
        let mut b = HistoryBuilder::new();
        b.write(ProcessId(0), R, 1i64);
        b.read(ProcessId(1), R, 0i64);
        let h = b.build();
        assert!(!checker().check(&h).is_linearizable());
    }

    #[test]
    fn concurrent_write_allows_either_read_value() {
        // Write of 1 concurrent with a read: the read may return 0 or 1.
        for read_val in [0i64, 1i64] {
            let mut b = HistoryBuilder::new();
            let w = b.invoke_write(ProcessId(0), R, 1i64);
            let r = b.invoke_read(ProcessId(1), R);
            b.respond_read(r, read_val);
            b.respond_write(w);
            let h = b.build();
            assert!(
                checker().check(&h).is_linearizable(),
                "read of {read_val} should be allowed"
            );
        }
    }

    #[test]
    fn new_old_inversion_is_rejected() {
        // Classic non-linearizable pattern: r1 reads the new value, then a later
        // (non-overlapping) r2 reads the old value, while the write has completed
        // before both reads... build it so the write completes first.
        let mut b = HistoryBuilder::new();
        b.write(ProcessId(0), R, 1i64);
        b.read(ProcessId(1), R, 1i64);
        b.read(ProcessId(2), R, 0i64);
        let h = b.build();
        assert!(!checker().check(&h).is_linearizable());
    }

    #[test]
    fn pending_write_can_explain_read() {
        // A write that never responds can still be linearized to justify a read.
        let mut b = HistoryBuilder::new();
        let _w = b.invoke_write(ProcessId(0), R, 7i64);
        b.read(ProcessId(1), R, 7i64);
        let h = b.build();
        let witness = checker()
            .check(&h)
            .into_witness()
            .expect("pending write should justify read");
        assert_eq!(witness.writes().len(), 1);
    }

    #[test]
    fn pending_write_may_also_be_dropped() {
        let mut b = HistoryBuilder::new();
        let _w = b.invoke_write(ProcessId(0), R, 7i64);
        b.read(ProcessId(1), R, 0i64);
        let h = b.build();
        assert!(checker().check(&h).is_linearizable());
    }

    #[test]
    fn multi_register_histories_are_checked_jointly() {
        let r1 = RegisterId(1);
        let mut b = HistoryBuilder::new();
        b.write(ProcessId(0), R, 1i64);
        b.write(ProcessId(0), r1, 2i64);
        b.read(ProcessId(1), R, 1i64);
        b.read(ProcessId(1), r1, 2i64);
        let h = b.build();
        assert!(checker().check(&h).is_linearizable());

        let mut b = HistoryBuilder::new();
        b.write(ProcessId(0), R, 1i64);
        b.read(ProcessId(1), r1, 1i64); // wrong register never written
        let h = b.build();
        assert!(!checker().check(&h).is_linearizable());
    }

    #[test]
    fn multi_register_witness_respects_cross_register_real_time() {
        // Sequential chain alternating registers: the merged witness must interleave
        // the per-register linearizations in real-time order.
        let r1 = RegisterId(1);
        let mut b = HistoryBuilder::new();
        b.write(ProcessId(0), R, 1i64);
        b.write(ProcessId(0), r1, 10i64);
        b.write(ProcessId(0), R, 2i64);
        b.read(ProcessId(1), r1, 10i64);
        b.read(ProcessId(1), R, 2i64);
        b.write(ProcessId(0), r1, 20i64);
        b.read(ProcessId(1), r1, 20i64);
        let h = b.build();
        let witness = checker().check(&h).into_witness().expect("linearizable");
        assert!(witness.is_linearization_of(&h, &0));
    }

    #[test]
    fn the_paper_theorem6_pattern_is_linearizable() {
        // The key step of the Theorem 6 adversary: p0 writes [0,1], p1's write of [1,1]
        // overlaps all the players' reads; players read [0,1] then [1,1]. This must be
        // accepted by plain linearizability.
        use crate::value::Value;
        let mut b = HistoryBuilder::new();
        let w0 = b.invoke_write(ProcessId(0), R, Value::Pair(0, 1));
        let w1 = b.invoke_write(ProcessId(1), R, Value::Pair(1, 1));
        let r1a = b.invoke_read(ProcessId(2), R);
        b.respond_write(w0);
        b.respond_read(r1a, Value::Pair(0, 1));
        let r1b = b.invoke_read(ProcessId(2), R);
        b.respond_read(r1b, Value::Pair(1, 1));
        b.respond_write(w1);
        let h = b.build();
        assert!(Checker::new(Value::Init).check(&h).is_linearizable());
    }

    #[test]
    fn verdict_exposes_statistics() {
        let mut b = HistoryBuilder::new();
        b.write(ProcessId(0), R, 1i64);
        let h = b.build();
        let verdict = checker().check(&h);
        assert!(verdict.is_linearizable());
        assert!(verdict.stats().states_explored >= 1);
        assert!(verdict.is_conclusive());
    }

    #[test]
    fn state_budget_aborts_and_is_reported() {
        // Many concurrent pending writes plus a read: a tiny budget cannot finish.
        let mut b = HistoryBuilder::new();
        for i in 0..8 {
            let _ = b.invoke_write(ProcessId(i), R, i as i64 + 1);
        }
        b.read(ProcessId(9), R, 4i64);
        let h = b.build();
        let verdict = Checker::builder(0i64).state_budget(2).build().check(&h);
        assert!(!verdict.is_conclusive());
        assert!(!verdict.is_linearizable());
        let relaxed = Checker::builder(0i64)
            .state_budget(DEFAULT_STATE_LIMIT)
            .build()
            .check(&h);
        assert!(relaxed.is_conclusive());
    }

    #[test]
    fn enumerate_finds_both_orders_of_concurrent_writes() {
        let mut b = HistoryBuilder::new();
        let w0 = b.invoke_write(ProcessId(0), R, 1i64);
        let w1 = b.invoke_write(ProcessId(1), R, 2i64);
        b.respond_write(w0);
        b.respond_write(w1);
        let h = b.build();
        let all = checker().enumerate(&h, 100).unwrap();
        // Both interleavings of the two concurrent writes must appear.
        let orders: Vec<Vec<OpId>> = all.iter().map(|s| s.write_ids()).collect();
        assert!(orders.contains(&vec![OpId(0), OpId(1)]));
        assert!(orders.contains(&vec![OpId(1), OpId(0)]));
    }

    #[test]
    fn enumerate_respects_real_time_order() {
        let mut b = HistoryBuilder::new();
        b.write(ProcessId(0), R, 1i64);
        b.write(ProcessId(0), R, 2i64);
        let h = b.build();
        let all = checker().enumerate(&h, 100).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].write_ids(), vec![OpId(0), OpId(1)]);
    }

    #[test]
    fn enumeration_work_cap_is_reported() {
        let mut b = HistoryBuilder::new();
        let ids: Vec<_> = (0..8)
            .map(|i| b.invoke_write(ProcessId(i), R, i as i64 + 1))
            .collect();
        for id in ids {
            b.respond_write(id);
        }
        let h = b.build();
        let tight = Checker::builder(0i64).enumeration_work_cap(10).build();
        let err: EnumerationLimitExceeded = tight.enumerate(&h, usize::MAX).unwrap_err();
        assert!(err.nodes_visited > 10);
        // A generous cap succeeds on the same history.
        assert!(checker().enumerate(&h, 10).is_ok());
    }

    #[test]
    fn empty_history_is_linearizable() {
        let h: History<i64> = History::new();
        let witness = checker().check(&h).into_witness().unwrap();
        assert!(witness.is_empty());
    }

    #[test]
    fn every_witness_is_a_valid_linearization() {
        // A moderately concurrent history; whatever witness comes back must satisfy the
        // full Definition 2 check.
        let mut b = HistoryBuilder::new();
        let w0 = b.invoke_write(ProcessId(0), R, 10i64);
        let w1 = b.invoke_write(ProcessId(1), R, 20i64);
        let r0 = b.invoke_read(ProcessId(2), R);
        b.respond_write(w0);
        b.respond_read(r0, 20i64);
        let r1 = b.invoke_read(ProcessId(3), R);
        b.respond_write(w1);
        b.respond_read(r1, 20i64);
        let h = b.build();
        let witness = checker().check(&h).into_witness().expect("linearizable");
        assert!(witness.is_linearization_of(&h, &0));
    }
}
