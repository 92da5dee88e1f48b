//! SWMR registers: the canonical linearization and the `f*` construction of Theorem 14.
//!
//! Theorem 14 states that *any* linearizable implementation of a SWMR register is
//! necessarily write strongly-linearizable. The proof (Appendix E) takes an arbitrary
//! linearization function `f` and builds `f*` by dropping a trailing incomplete write
//! from `f(H)`; the resulting write sequence of `f*(H)` is exactly the set of writes
//! that are either complete or read by some reader, ordered by their (total, since the
//! writer is unique) start-time order — which depends on `H` alone and is therefore
//! automatically prefix-stable.
//!
//! This module provides:
//!
//! * [`swmr_star`] — the `f*` transformation applied to any strategy's output;
//! * [`effective_swmr_writes`] — the write sequence that `f*` is guaranteed to produce
//!   (Claims 67.1 and 67.2);
//! * [`SwmrCanonical`] / [`canonical_swmr_strategy`] — a concrete deterministic
//!   linearization strategy for SWMR histories whose write order is the start-time
//!   order, used to check Theorem 14 on recorded ABD histories.

use crate::checker::Checker;
use crate::history::History;
use crate::ids::{OpId, ProcessId, RegisterId};
use crate::op::Operation;
use crate::sequential::SeqHistory;
use crate::strategy::LinearizationStrategy;
use crate::value::RegisterValue;
use std::collections::BTreeMap;

/// Returns `true` if the history is single-writer for every register it touches: all
/// writes to a given register are issued by one process, and that process never has two
/// of its writes to the register overlap (it writes sequentially).
#[must_use]
pub fn is_swmr_history<V: Clone>(h: &History<V>) -> bool {
    let mut writer_of: BTreeMap<RegisterId, ProcessId> = BTreeMap::new();
    for w in h.writes() {
        match writer_of.get(&w.register) {
            Some(p) if *p != w.process => return false,
            Some(_) => {}
            None => {
                writer_of.insert(w.register, w.process);
            }
        }
    }
    // Writes by the single writer must not be concurrent with each other (Observation 65
    // part 1) and at most one may be incomplete (part 2).
    for reg in h.registers() {
        let writes: Vec<&Operation<V>> = h.on_register(reg).filter(|o| o.is_write()).collect();
        let pending = writes.iter().filter(|w| w.is_pending()).count();
        if pending > 1 {
            return false;
        }
        for (i, a) in writes.iter().enumerate() {
            for b in writes.iter().skip(i + 1) {
                if a.concurrent_with(b) {
                    return false;
                }
            }
        }
    }
    true
}

/// The sequence of *effective* writes of a SWMR history: every write that is complete or
/// whose value is returned by some read, in invocation order (per register, then by
/// invocation time globally).
///
/// By Claims 67.1 and 67.2 of the paper, this is exactly the write sequence of `f*(H)`
/// for any linearization function `f`, which is why every linearizable SWMR
/// implementation is write strongly-linearizable.
#[must_use]
pub fn effective_swmr_writes<V: RegisterValue>(h: &History<V>) -> Vec<OpId> {
    let mut writes: Vec<&Operation<V>> = h
        .writes()
        .filter(|w| {
            w.is_complete()
                || h.reads().any(|r| {
                    r.register == w.register
                        && r.read_value().is_some()
                        && r.read_value() == w.written_value()
                })
        })
        .collect();
    writes.sort_by_key(|w| w.invoked_at);
    writes.iter().map(|w| w.id).collect()
}

/// The `f*` transformation of Theorem 14: if the last operation of `f(H)` is a write
/// that is incomplete in `H`, drop it; otherwise return `f(H)` unchanged.
#[must_use]
pub fn swmr_star<V: RegisterValue>(f_output: SeqHistory<V>, h: &History<V>) -> SeqHistory<V> {
    let ops = f_output.operations();
    if let Some(last) = ops.last() {
        let incomplete_write =
            last.is_write() && h.get(last.id).map(|o| o.is_pending()).unwrap_or(false);
        if incomplete_write {
            return SeqHistory::from_ops(ops[..ops.len() - 1].to_vec());
        }
    }
    f_output
}

/// A deterministic linearization strategy for SWMR histories.
///
/// Writes are ordered by invocation time (they are totally ordered in real time for a
/// single writer); a pending write is included only if some read returned its value.
/// Each read is placed immediately after the write whose value it returned (or before
/// every write if it returned the initial value), with reads of the same write ordered
/// by invocation time. The output is validated against Definition 2; `None` is returned
/// if the input history is not linearizable under this placement.
#[derive(Debug, Clone)]
pub struct SwmrCanonical<V> {
    /// Initial value of every register in the histories this strategy is applied to.
    pub init: V,
}

impl<V: RegisterValue> LinearizationStrategy<V> for SwmrCanonical<V> {
    fn linearize(&self, h: &History<V>) -> Option<SeqHistory<V>> {
        if !is_swmr_history(h) {
            return None;
        }
        let effective = effective_swmr_writes(h);
        let mut ops: Vec<Operation<V>> = Vec::new();
        let write_ops: Vec<Operation<V>> = effective
            .iter()
            .map(|id| {
                let mut w = h.get(*id).expect("effective write must exist").clone();
                if w.responded_at.is_none() {
                    w.responded_at = Some(h.max_time().next());
                }
                w
            })
            .collect();

        // Reads of the initial value come first.
        let mut initial_reads: Vec<&Operation<V>> = h
            .reads()
            .filter(|r| r.read_value() == Some(&self.init))
            .collect();
        initial_reads.sort_by_key(|r| r.invoked_at);
        ops.extend(initial_reads.into_iter().cloned());

        for w in &write_ops {
            ops.push(w.clone());
            let mut readers: Vec<&Operation<V>> = h
                .reads()
                .filter(|r| {
                    r.register == w.register
                        && r.read_value().is_some()
                        && r.read_value() == w.written_value()
                        && r.read_value() != Some(&self.init)
                })
                .collect();
            readers.sort_by_key(|r| r.invoked_at);
            ops.extend(readers.into_iter().cloned());
        }

        // Completed reads whose value matches no effective write and is not the initial
        // value cannot be placed: the history is not linearizable under this strategy.
        for r in h.reads().filter(|r| r.is_complete()) {
            if !ops.iter().any(|o| o.id == r.id) {
                return None;
            }
        }

        let seq = SeqHistory::from_ops(ops);
        if seq.is_linearization_of(h, &self.init) {
            Some(seq)
        } else {
            // Fall back to the general checker (any linearization will do for property
            // L); its write order still agrees with invocation order because writes of a
            // SWMR register are totally ordered in real time.
            Checker::new(self.init.clone()).check(h).into_witness()
        }
    }
}

/// Convenience constructor for [`SwmrCanonical`].
#[must_use]
pub fn canonical_swmr_strategy<V: RegisterValue>(init: V) -> SwmrCanonical<V> {
    SwmrCanonical { init }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;
    use crate::strategy::check_write_strong_prefix_property;

    const R: RegisterId = RegisterId(0);
    const WRITER: ProcessId = ProcessId(0);

    #[test]
    fn swmr_detection() {
        let mut b = HistoryBuilder::new();
        b.write(WRITER, R, 1i64);
        b.write(WRITER, R, 2i64);
        b.read(ProcessId(1), R, 2i64);
        let h = b.build();
        assert!(is_swmr_history(&h));

        let mut b = HistoryBuilder::new();
        b.write(ProcessId(0), R, 1i64);
        b.write(ProcessId(1), R, 2i64);
        let h = b.build();
        assert!(!is_swmr_history(&h));
    }

    #[test]
    fn effective_writes_include_read_pending_writes() {
        let mut b = HistoryBuilder::new();
        let w1 = b.write(WRITER, R, 1i64);
        let w2 = b.invoke_write(WRITER, R, 2i64); // pending
        b.read(ProcessId(1), R, 2i64); // but its value is read
        let h = b.build();
        let eff = effective_swmr_writes(&h);
        assert_eq!(eff, vec![w1, w2]);
    }

    #[test]
    fn effective_writes_exclude_unread_pending_writes() {
        let mut b = HistoryBuilder::new();
        let w1 = b.write(WRITER, R, 1i64);
        let _w2 = b.invoke_write(WRITER, R, 2i64); // pending, never read
        let h = b.build();
        let eff = effective_swmr_writes(&h);
        assert_eq!(eff, vec![w1]);
    }

    #[test]
    fn star_drops_trailing_incomplete_write() {
        let mut b = HistoryBuilder::new();
        let w1 = b.write(WRITER, R, 1i64);
        let w2 = b.invoke_write(WRITER, R, 2i64); // pending
        let h = b.build();
        let f_output = Checker::new(0i64).check(&h).into_witness().unwrap();
        let starred = swmr_star(f_output.clone(), &h);
        // If the checker chose to include the pending write at the end, f* must drop it.
        if f_output.op_ids().last() == Some(&w2) {
            assert_eq!(starred.op_ids().last(), Some(&w1));
        } else {
            assert_eq!(starred, f_output);
        }
    }

    #[test]
    fn star_keeps_trailing_complete_write() {
        let mut b = HistoryBuilder::new();
        b.write(WRITER, R, 1i64);
        b.write(WRITER, R, 2i64);
        let h = b.build();
        let f_output = Checker::new(0i64).check(&h).into_witness().unwrap();
        let starred = swmr_star(f_output.clone(), &h);
        assert_eq!(starred, f_output);
    }

    #[test]
    fn canonical_strategy_linearizes_and_is_write_strong() {
        // Writer writes 1, 2, 3 sequentially; two readers read concurrently.
        let mut b = HistoryBuilder::new();
        b.write(WRITER, R, 1i64);
        let r1 = b.invoke_read(ProcessId(1), R);
        let w2 = b.invoke_write(WRITER, R, 2i64);
        b.respond_read(r1, 1i64);
        b.respond_write(w2);
        let r2 = b.invoke_read(ProcessId(2), R);
        let w3 = b.invoke_write(WRITER, R, 3i64);
        b.respond_read(r2, 2i64);
        b.respond_write(w3);
        b.read(ProcessId(1), R, 3i64);
        let h = b.build();

        let strategy = canonical_swmr_strategy(0i64);
        let seq = strategy.linearize(&h).expect("linearizable");
        assert!(seq.is_linearization_of(&h, &0));
        // Theorem 14: the canonical strategy is write strongly-linearizable across all
        // prefixes.
        assert!(check_write_strong_prefix_property(&strategy, &h, &0).is_ok());
    }

    #[test]
    fn canonical_strategy_reads_initial_value() {
        let mut b = HistoryBuilder::new();
        let r = b.invoke_read(ProcessId(1), R);
        let w = b.invoke_write(WRITER, R, 5i64);
        b.respond_read(r, 0i64);
        b.respond_write(w);
        let h = b.build();
        let strategy = canonical_swmr_strategy(0i64);
        let seq = strategy.linearize(&h).expect("linearizable");
        assert!(seq.is_linearization_of(&h, &0));
        assert_eq!(seq.operations()[0].id, r);
    }

    #[test]
    fn canonical_strategy_rejects_impossible_reads() {
        let mut b = HistoryBuilder::new();
        b.write(WRITER, R, 1i64);
        b.read(ProcessId(1), R, 42i64); // value never written
        let h = b.build();
        let strategy = canonical_swmr_strategy(0i64);
        assert!(strategy.linearize(&h).is_none());
    }

    #[test]
    fn canonical_strategy_refuses_mwmr_histories() {
        let mut b = HistoryBuilder::new();
        b.write(ProcessId(0), R, 1i64);
        b.write(ProcessId(1), R, 2i64);
        let h = b.build();
        let strategy = canonical_swmr_strategy(0i64);
        assert!(strategy.linearize(&h).is_none());
    }

    #[test]
    fn theorem14_shape_on_multi_register_swmr_history() {
        // Two SWMR registers with different writers; readers cross-read. The canonical
        // strategy must stay write strongly-linearizable.
        let r_b = RegisterId(1);
        let mut b = HistoryBuilder::new();
        b.write(ProcessId(0), R, 10i64);
        b.write(ProcessId(1), r_b, 20i64);
        let rd1 = b.invoke_read(ProcessId(2), R);
        let rd2 = b.invoke_read(ProcessId(3), r_b);
        b.respond_read(rd1, 10i64);
        b.respond_read(rd2, 20i64);
        b.write(ProcessId(0), R, 11i64);
        let h = b.build();
        let strategy = canonical_swmr_strategy(0i64);
        assert!(check_write_strong_prefix_property(&strategy, &h, &0).is_ok());
    }
}
