//! Sequential histories and the register sequential specification (Definition 2).

use crate::history::History;
use crate::ids::{OpId, RegisterId};
use crate::op::{OpKind, Operation};
use std::collections::BTreeMap;
use std::fmt;

/// A sequential history: a total order of operations, each carrying its value.
///
/// This is the codomain of linearization functions (Definition 2). Every operation in a
/// sequential history is complete: pending operations from the concurrent history either
/// get a matching response added or are dropped.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SeqHistory<V> {
    ops: Vec<Operation<V>>,
}

impl<V: Clone + Eq> SeqHistory<V> {
    /// Creates an empty sequential history.
    #[must_use]
    pub fn new() -> Self {
        SeqHistory { ops: Vec::new() }
    }

    /// Creates a sequential history from an ordered list of operations.
    ///
    /// # Panics
    ///
    /// Panics if any read operation has no return value (`OpKind::Read(None)`).
    #[must_use]
    pub fn from_ops(ops: Vec<Operation<V>>) -> Self {
        for op in &ops {
            if let OpKind::Read(None) = op.kind {
                panic!("sequential history contains a read without a return value");
            }
        }
        SeqHistory { ops }
    }

    /// The operations in linearization order.
    #[must_use]
    pub fn operations(&self) -> &[Operation<V>] {
        &self.ops
    }

    /// Number of operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends an operation at the end of the order.
    pub fn push(&mut self, op: Operation<V>) {
        self.ops.push(op);
    }

    /// The operation ids in linearization order.
    #[must_use]
    pub fn op_ids(&self) -> Vec<OpId> {
        self.ops.iter().map(|o| o.id).collect()
    }

    /// The subsequence of write operations, in linearization order.
    #[must_use]
    pub fn writes(&self) -> Vec<&Operation<V>> {
        self.ops.iter().filter(|o| o.is_write()).collect()
    }

    /// The ids of write operations in linearization order.
    #[must_use]
    pub fn write_ids(&self) -> Vec<OpId> {
        self.ops
            .iter()
            .filter(|o| o.is_write())
            .map(|o| o.id)
            .collect()
    }

    /// Position of an operation in the linearization order, if present.
    #[must_use]
    pub fn position(&self, id: OpId) -> Option<usize> {
        self.ops.iter().position(|o| o.id == id)
    }

    /// Returns `true` if the full sequence of `self` is a prefix of the sequence of
    /// `other` (compared by operation id). This is property (P) of Definition 3.
    #[must_use]
    pub fn is_sequence_prefix_of(&self, other: &SeqHistory<V>) -> bool {
        let a = self.op_ids();
        let b = other.op_ids();
        a.len() <= b.len() && a == b[..a.len()]
    }

    /// Returns `true` if the sequence of *writes* of `self` is a prefix of the sequence
    /// of writes of `other` (compared by operation id). This is property (P) of
    /// Definition 4.
    #[must_use]
    pub fn is_write_prefix_of(&self, other: &SeqHistory<V>) -> bool {
        let a = self.write_ids();
        let b = other.write_ids();
        a.len() <= b.len() && a == b[..a.len()]
    }

    /// Checks property 3 of Definition 2 for every register in the history: each read
    /// returns the value of the last preceding write in the sequence, or `init` if no
    /// write precedes it.
    #[must_use]
    pub fn is_legal(&self, init: &V) -> bool {
        is_legal_register_sequence(&self.ops, init)
    }

    /// Checks property 2 of Definition 2: for every pair of operations in the sequence,
    /// if one precedes the other in the concurrent history `h` then their order in the
    /// sequence agrees.
    #[must_use]
    pub fn respects_real_time(&self, h: &History<V>) -> bool {
        for (i, a) in self.ops.iter().enumerate() {
            for b in &self.ops[i + 1..] {
                // b is after a in the sequence; so b must not precede a in real time.
                let (Some(ha), Some(hb)) = (h.get(a.id), h.get(b.id)) else {
                    continue;
                };
                if hb.precedes(ha) {
                    return false;
                }
            }
        }
        true
    }

    /// Checks property 1 of Definition 2: the sequence contains every completed
    /// operation of `h`, and contains only operations of `h`.
    #[must_use]
    pub fn contains_all_completed(&self, h: &History<V>) -> bool {
        let ids: Vec<OpId> = self.op_ids();
        for op in h.completed() {
            if !ids.contains(&op.id) {
                return false;
            }
        }
        // No duplicates and no foreign operations.
        let mut sorted = ids.clone();
        sorted.sort();
        sorted.dedup();
        if sorted.len() != ids.len() {
            return false;
        }
        ids.iter().all(|id| h.get(*id).is_some())
    }

    /// Checks that the values carried by the sequence agree with those recorded in the
    /// history: a completed read must return in the sequence exactly the value it
    /// returned in `h`, and a write must write the same value.
    #[must_use]
    pub fn values_agree_with(&self, h: &History<V>) -> bool {
        for op in &self.ops {
            let Some(horig) = h.get(op.id) else {
                return false;
            };
            match (&op.kind, &horig.kind) {
                (OpKind::Write(a), OpKind::Write(b)) => {
                    if a != b {
                        return false;
                    }
                }
                (OpKind::Read(Some(a)), OpKind::Read(Some(b))) => {
                    if a != b {
                        return false;
                    }
                }
                // A pending read in the history may be completed with any value in the
                // sequence (a matching response is added), so no constraint.
                (OpKind::Read(Some(_)), OpKind::Read(None)) => {}
                _ => return false,
            }
        }
        true
    }

    /// Full check that `self` is a linearization of `h` with respect to the register
    /// type initialized to `init` (all three properties of Definition 2).
    #[must_use]
    pub fn is_linearization_of(&self, h: &History<V>, init: &V) -> bool {
        self.contains_all_completed(h)
            && self.respects_real_time(h)
            && self.values_agree_with(h)
            && self.is_legal(init)
    }
}

impl<V: fmt::Debug> fmt::Display for SeqHistory<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match &op.kind {
                OpKind::Write(v) => write!(f, "{}:{}.w({:?})", op.process, op.register, v)?,
                OpKind::Read(v) => write!(f, "{}:{}.r→{:?}", op.process, op.register, v)?,
            }
        }
        write!(f, "⟩")
    }
}

/// Checks property 3 of Definition 2 over an ordered slice of operations: every read
/// returns the value written by the last write on the *same register* before it in the
/// sequence, or `init` if there is none.
#[must_use]
pub fn is_legal_register_sequence<V: Clone + Eq>(ops: &[Operation<V>], init: &V) -> bool {
    let mut state: BTreeMap<RegisterId, V> = BTreeMap::new();
    for op in ops {
        match &op.kind {
            OpKind::Write(v) => {
                state.insert(op.register, v.clone());
            }
            OpKind::Read(Some(v)) => {
                let current = state.get(&op.register).unwrap_or(init);
                if current != v {
                    return false;
                }
            }
            OpKind::Read(None) => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;
    use crate::ids::{ProcessId, Time};

    fn op_w(id: u64, reg: usize, v: i64) -> Operation<i64> {
        Operation {
            id: OpId(id),
            process: ProcessId(0),
            register: RegisterId(reg),
            kind: OpKind::Write(v),
            invoked_at: Time(id * 2 + 1),
            responded_at: Some(Time(id * 2 + 2)),
        }
    }

    fn op_r(id: u64, reg: usize, v: i64) -> Operation<i64> {
        Operation {
            id: OpId(id),
            process: ProcessId(1),
            register: RegisterId(reg),
            kind: OpKind::Read(Some(v)),
            invoked_at: Time(id * 2 + 1),
            responded_at: Some(Time(id * 2 + 2)),
        }
    }

    #[test]
    fn legal_sequence_single_register() {
        let seq = vec![op_w(0, 0, 5), op_r(1, 0, 5), op_w(2, 0, 7), op_r(3, 0, 7)];
        assert!(is_legal_register_sequence(&seq, &0));
        let bad = vec![op_w(0, 0, 5), op_r(1, 0, 7)];
        assert!(!is_legal_register_sequence(&bad, &0));
    }

    #[test]
    fn legal_sequence_reads_initial_value() {
        let seq = vec![op_r(0, 0, 0), op_w(1, 0, 3), op_r(2, 0, 3)];
        assert!(is_legal_register_sequence(&seq, &0));
        let bad = vec![op_r(0, 0, 1)];
        assert!(!is_legal_register_sequence(&bad, &0));
    }

    #[test]
    fn legal_sequence_multi_register_is_independent() {
        let seq = vec![op_w(0, 0, 1), op_w(1, 1, 2), op_r(2, 0, 1), op_r(3, 1, 2)];
        assert!(is_legal_register_sequence(&seq, &0));
        let bad = vec![op_w(0, 0, 1), op_r(1, 1, 1)];
        assert!(!is_legal_register_sequence(&bad, &0));
    }

    #[test]
    fn pending_read_in_sequence_is_illegal() {
        let op: Operation<i64> = Operation {
            id: OpId(0),
            process: ProcessId(0),
            register: RegisterId(0),
            kind: OpKind::Read(None),
            invoked_at: Time(1),
            responded_at: Some(Time(2)),
        };
        assert!(!is_legal_register_sequence(&[op], &0));
    }

    #[test]
    fn write_prefix_and_sequence_prefix() {
        let a = SeqHistory::from_ops(vec![op_w(0, 0, 1), op_r(1, 0, 1)]);
        let b = SeqHistory::from_ops(vec![op_w(0, 0, 1), op_r(1, 0, 1), op_w(2, 0, 2)]);
        assert!(a.is_sequence_prefix_of(&b));
        assert!(a.is_write_prefix_of(&b));
        assert!(!b.is_sequence_prefix_of(&a));

        // Same writes, different read placement: still a write-prefix but not a
        // sequence-prefix.
        let c = SeqHistory::from_ops(vec![op_w(0, 0, 1), op_w(2, 0, 2), op_r(1, 0, 2)]);
        assert!(a.is_write_prefix_of(&c));
        assert!(!a.is_sequence_prefix_of(&c));
    }

    #[test]
    fn respects_real_time_detects_inversion() {
        let mut b = HistoryBuilder::new();
        let w1 = b.write(ProcessId(0), RegisterId(0), 1i64);
        let w2 = b.write(ProcessId(0), RegisterId(0), 2i64);
        let h = b.build();
        let o1 = h.get(w1).unwrap().clone();
        let o2 = h.get(w2).unwrap().clone();
        let good = SeqHistory::from_ops(vec![o1.clone(), o2.clone()]);
        let bad = SeqHistory::from_ops(vec![o2, o1]);
        assert!(good.respects_real_time(&h));
        assert!(!bad.respects_real_time(&h));
    }

    #[test]
    fn contains_all_completed_detects_missing_and_foreign() {
        let mut b = HistoryBuilder::new();
        let w1 = b.write(ProcessId(0), RegisterId(0), 1i64);
        let w2 = b.write(ProcessId(0), RegisterId(0), 2i64);
        let h = b.build();
        let o1 = h.get(w1).unwrap().clone();
        let o2 = h.get(w2).unwrap().clone();
        let missing = SeqHistory::from_ops(vec![o1.clone()]);
        assert!(!missing.contains_all_completed(&h));
        let full = SeqHistory::from_ops(vec![o1.clone(), o2.clone()]);
        assert!(full.contains_all_completed(&h));
        let foreign = SeqHistory::from_ops(vec![o1, o2, op_w(99, 0, 9)]);
        assert!(!foreign.contains_all_completed(&h));
    }

    #[test]
    fn values_agree_with_history() {
        let mut b = HistoryBuilder::new();
        let w1 = b.write(ProcessId(0), RegisterId(0), 1i64);
        let r1 = b.read(ProcessId(1), RegisterId(0), 1i64);
        let h = b.build();
        let mut o_w = h.get(w1).unwrap().clone();
        let o_r = h.get(r1).unwrap().clone();
        let seq = SeqHistory::from_ops(vec![o_w.clone(), o_r.clone()]);
        assert!(seq.values_agree_with(&h));
        // Tamper with the write value.
        o_w.kind = OpKind::Write(9);
        let tampered = SeqHistory::from_ops(vec![o_w, o_r]);
        assert!(!tampered.values_agree_with(&h));
    }

    #[test]
    fn full_linearization_check() {
        let mut b = HistoryBuilder::new();
        let w1 = b.write(ProcessId(0), RegisterId(0), 1i64);
        let r1 = b.read(ProcessId(1), RegisterId(0), 1i64);
        let h = b.build();
        let o_w = h.get(w1).unwrap().clone();
        let o_r = h.get(r1).unwrap().clone();
        let seq = SeqHistory::from_ops(vec![o_w.clone(), o_r.clone()]);
        assert!(seq.is_linearization_of(&h, &0));
        let wrong_order = SeqHistory::from_ops(vec![o_r, o_w]);
        assert!(!wrong_order.is_linearization_of(&h, &0));
    }

    #[test]
    #[should_panic(expected = "read without a return value")]
    fn from_ops_rejects_valueless_reads() {
        let op: Operation<i64> = Operation {
            id: OpId(0),
            process: ProcessId(0),
            register: RegisterId(0),
            kind: OpKind::Read(None),
            invoked_at: Time(1),
            responded_at: Some(Time(2)),
        };
        let _ = SeqHistory::from_ops(vec![op]);
    }

    #[test]
    fn position_and_push() {
        let mut seq = SeqHistory::new();
        assert!(seq.is_empty());
        seq.push(op_w(0, 0, 1));
        seq.push(op_r(1, 0, 1));
        assert_eq!(seq.len(), 2);
        assert_eq!(seq.position(OpId(1)), Some(1));
        assert_eq!(seq.position(OpId(7)), None);
    }
}
