//! Concurrent histories of register operations, prefix extraction, and the one
//! validator of the history rules.

use crate::ids::{OpId, ProcessId, RegisterId, Time};
use crate::op::{OpKind, Operation};
use std::collections::BTreeSet;
use std::fmt;

/// A (possibly concurrent) history of register operations.
///
/// A history is a record of invocation and response events; here each [`Operation`]
/// stores its invocation time and, once it responds, its response time. All event times
/// inside one history are distinct, so the real-time order of events is total and
/// prefixes of the history are identified by a cut-off [`Time`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct History<V> {
    ops: Vec<Operation<V>>,
}

impl<V: Clone> History<V> {
    /// Creates an empty history.
    #[must_use]
    pub fn new() -> Self {
        History { ops: Vec::new() }
    }

    /// Creates a history from a list of operations.
    ///
    /// # Panics
    ///
    /// Panics with the history validator's message if an operation breaks a
    /// history rule: a response at or before its invocation, an event after
    /// [`Time::LAST`], a completed read without a value, or a reused id or time.
    #[must_use]
    pub fn from_operations(ops: Vec<Operation<V>>) -> Self {
        let mut validator = Validator::default();
        for op in &ops {
            if let Err(message) = validator.admit(op) {
                panic!("{message}");
            }
        }
        History { ops }
    }

    /// All operations, in the order they were given. [`History::from_operations`]
    /// and [`parse_history`](crate::wire::parse_history) keep the caller's order;
    /// [`HistoryBuilder`] lists each operation at its invocation, so a built history
    /// is in invocation order. The checkers are correct on any order, and fastest on
    /// invocation order.
    #[must_use]
    pub fn operations(&self) -> &[Operation<V>] {
        &self.ops
    }

    /// Appends an operation the caller has already admitted through the
    /// history validator (the wire parser, the incremental session).
    pub(crate) fn push_unchecked(&mut self, op: Operation<V>) {
        self.ops.push(op);
    }

    /// Removes every operation, keeping the allocation, for the incremental
    /// session's [`reset`](crate::IncrementalChecker::reset).
    pub(crate) fn clear_ops(&mut self) {
        self.ops.clear();
    }

    /// Mutable access to one operation by position, for the incremental session's
    /// in-place completion of a pending op. Same invariant caveat as
    /// [`History::push_unchecked`].
    pub(crate) fn op_mut(&mut self, index: usize) -> &mut Operation<V> {
        &mut self.ops[index]
    }

    /// The number of operations (complete or pending) in the history.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the history contains no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Looks up an operation by id.
    #[must_use]
    pub fn get(&self, id: OpId) -> Option<&Operation<V>> {
        self.ops.iter().find(|o| o.id == id)
    }

    /// Iterator over completed operations.
    pub fn completed(&self) -> impl Iterator<Item = &Operation<V>> {
        self.ops.iter().filter(|o| o.is_complete())
    }

    /// Iterator over pending operations.
    pub fn pending(&self) -> impl Iterator<Item = &Operation<V>> {
        self.ops.iter().filter(|o| o.is_pending())
    }

    /// Iterator over write operations.
    pub fn writes(&self) -> impl Iterator<Item = &Operation<V>> {
        self.ops.iter().filter(|o| o.is_write())
    }

    /// Iterator over read operations.
    pub fn reads(&self) -> impl Iterator<Item = &Operation<V>> {
        self.ops.iter().filter(|o| o.is_read())
    }

    /// Iterator over operations on a specific register.
    pub fn on_register(&self, reg: RegisterId) -> impl Iterator<Item = &Operation<V>> + '_ {
        self.ops.iter().filter(move |o| o.register == reg)
    }

    /// The set of registers touched by this history.
    #[must_use]
    pub fn registers(&self) -> BTreeSet<RegisterId> {
        self.ops.iter().map(|o| o.register).collect()
    }

    /// The largest event time appearing in the history, or `Time::ZERO` if empty.
    #[must_use]
    pub fn max_time(&self) -> Time {
        self.ops
            .iter()
            .flat_map(|o| std::iter::once(o.invoked_at).chain(o.responded_at))
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// All event times (invocations and responses) in increasing order.
    #[must_use]
    pub fn event_times(&self) -> Vec<Time> {
        let mut times: Vec<Time> = self
            .ops
            .iter()
            .flat_map(|o| std::iter::once(o.invoked_at).chain(o.responded_at))
            .collect();
        times.sort();
        times
    }

    /// Extracts the prefix of the history containing exactly the events at times `<= t`.
    ///
    /// Operations invoked after `t` disappear; operations whose response is after `t`
    /// become pending, and the return value of a read that has not yet responded is
    /// erased (it is not part of the prefix).
    #[must_use]
    pub fn prefix_at(&self, t: Time) -> History<V> {
        let ops = self
            .ops
            .iter()
            .filter(|o| o.invoked_at <= t)
            .map(|o| {
                let mut op = o.clone();
                if op.responded_at.map(|r| r > t).unwrap_or(false) {
                    op.responded_at = None;
                    if let OpKind::Read(_) = op.kind {
                        op.kind = OpKind::Read(None);
                    }
                }
                op
            })
            .collect();
        History { ops }
    }

    /// Returns every proper and improper prefix of the history, one per event time,
    /// starting from the empty history.
    #[must_use]
    pub fn all_prefixes(&self) -> Vec<History<V>> {
        let mut prefixes = vec![History::new()];
        for t in self.event_times() {
            prefixes.push(self.prefix_at(t));
        }
        prefixes
    }
}

impl<V: Clone + Eq> History<V> {
    /// Returns `true` if `self` is a prefix of `other`: every event of `self` appears in
    /// `other` at the same time, and `other` contains no extra event at a time earlier
    /// than or equal to the last event of `self`.
    #[must_use]
    pub fn is_prefix_of(&self, other: &History<V>) -> bool {
        let cut = self.max_time();
        let reconstructed = other.prefix_at(cut);
        // Compare the full operation records (ids, processes, registers, kinds, times);
        // the order of operations inside the vec is irrelevant, so sort by id first.
        let key = |h: &History<V>| {
            let mut v: Vec<&Operation<V>> = h.ops.iter().collect();
            v.sort_by_key(|o| o.id);
            v.into_iter().cloned().collect::<Vec<_>>()
        };
        if self.is_empty() {
            return true;
        }
        key(self) == key(&reconstructed)
    }
}

/// The history validator: the rules of Section 2, admitted one operation at a
/// time. A response comes after its invocation, no event is later than
/// [`Time::LAST`] (a witness responds pending operations the tick after the last
/// event), a completed read carries a value, and ids and event times are fresh.
/// [`History::from_operations`], [`parse_history`](crate::wire::parse_history) and
/// [`IncrementalChecker::try_extend`](crate::IncrementalChecker::try_extend) all
/// check through [`Validator::check`]; a broken rule comes back as its message.
#[derive(Debug, Default)]
pub(crate) struct Validator {
    ids: BTreeSet<OpId>,
    times: BTreeSet<Time>,
}

impl Validator {
    /// Admits `op`, remembering its id and event times.
    pub(crate) fn admit<V>(&mut self, op: &Operation<V>) -> Result<(), String> {
        if !self.ids.insert(op.id) {
            return Err(format!("duplicate operation id `{}`", op.id));
        }
        Self::check(op, |t| self.times.insert(t))
    }

    /// Every rule but the fresh id, for a caller that keeps its own record of
    /// ids and event times (an incremental session, whose recorded ids may
    /// repeat or complete): `fresh_time` is asked about the invocation, then
    /// the response time.
    pub(crate) fn check<V>(
        op: &Operation<V>,
        mut fresh_time: impl FnMut(Time) -> bool,
    ) -> Result<(), String> {
        let id = op.id;
        let inv = op.invoked_at;
        if let Some(resp) = op.responded_at.filter(|&r| r <= inv) {
            return Err(format!(
                "operation `{id}`: response time `{resp}` does not follow invocation time `{inv}`"
            ));
        }
        let last = op.responded_at.unwrap_or(inv);
        if last > Time::LAST {
            return Err(format!(
                "operation `{id}` has an event at `{last}`, after the last event time `{}`: \
                 it leaves a witness no tick after the last event",
                Time::LAST
            ));
        }
        if op.is_complete() && matches!(op.kind, OpKind::Read(None)) {
            return Err(format!(
                "completed read `{id}` has no return value: `?` marks a pending read"
            ));
        }
        for t in std::iter::once(inv).chain(op.responded_at) {
            if !fresh_time(t) {
                return Err(format!("duplicate event time `{t}` of operation `{id}`"));
            }
        }
        Ok(())
    }
}

impl<V: fmt::Debug> fmt::Display for History<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "history ({} ops):", self.ops.len())?;
        for op in &self.ops {
            writeln!(f, "  {op}")?;
        }
        Ok(())
    }
}

/// Incremental builder of [`History`] values with an internal logical clock.
///
/// Each call advances the clock by one tick, so event times are automatically distinct
/// and ordered by call order. This mirrors how the paper's figures lay events on a
/// timeline.
#[derive(Debug, Clone)]
pub struct HistoryBuilder<V> {
    ops: Vec<Operation<V>>,
    clock: Time,
    next_id: u64,
}

impl<V: Clone> Default for HistoryBuilder<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone> HistoryBuilder<V> {
    /// Creates an empty builder with the clock at zero.
    #[must_use]
    pub fn new() -> Self {
        HistoryBuilder {
            ops: Vec::new(),
            clock: Time::ZERO,
            next_id: 0,
        }
    }

    fn tick(&mut self) -> Time {
        self.clock = self.clock.next();
        self.clock
    }

    /// Current value of the internal clock (time of the most recent event).
    #[must_use]
    pub fn now(&self) -> Time {
        self.clock
    }

    /// Invokes a write of `value` to `register` by `process`; returns the operation id.
    pub fn invoke_write(&mut self, process: ProcessId, register: RegisterId, value: V) -> OpId {
        let id = OpId(self.next_id);
        self.next_id += 1;
        let t = self.tick();
        self.ops.push(Operation {
            id,
            process,
            register,
            kind: OpKind::Write(value),
            invoked_at: t,
            responded_at: None,
        });
        id
    }

    /// Invokes a read of `register` by `process`; returns the operation id.
    pub fn invoke_read(&mut self, process: ProcessId, register: RegisterId) -> OpId {
        let id = OpId(self.next_id);
        self.next_id += 1;
        let t = self.tick();
        self.ops.push(Operation {
            id,
            process,
            register,
            kind: OpKind::Read(None),
            invoked_at: t,
            responded_at: None,
        });
        id
    }

    /// The operation `id` and the time of its response. Ids are issued 0, 1, 2, …
    /// and ops pushed in that order, so an id is its own index.
    fn responding(&mut self, id: OpId) -> (&mut Operation<V>, Time) {
        let t = self.tick();
        let op = usize::try_from(id.0)
            .ok()
            .and_then(|i| self.ops.get_mut(i))
            .expect("unknown operation id");
        debug_assert_eq!(op.id, id, "builder ops are indexed by id");
        (op, t)
    }

    /// Records the response of a pending write.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a pending write in this builder.
    pub fn respond_write(&mut self, id: OpId) {
        let (op, t) = self.responding(id);
        assert!(op.is_write(), "respond_write on a read operation");
        assert!(op.responded_at.is_none(), "operation already responded");
        op.responded_at = Some(t);
    }

    /// Records the response of a pending read returning `value`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a pending read in this builder.
    pub fn respond_read(&mut self, id: OpId, value: V) {
        let (op, t) = self.responding(id);
        assert!(op.is_read(), "respond_read on a write operation");
        assert!(op.responded_at.is_none(), "operation already responded");
        op.kind = OpKind::Read(Some(value));
        op.responded_at = Some(t);
    }

    /// A complete write (invocation immediately followed by response); returns its id.
    pub fn write(&mut self, process: ProcessId, register: RegisterId, value: V) -> OpId {
        let id = self.invoke_write(process, register, value);
        self.respond_write(id);
        id
    }

    /// A complete read returning `value`; returns its id.
    pub fn read(&mut self, process: ProcessId, register: RegisterId, value: V) -> OpId {
        let id = self.invoke_read(process, register);
        self.respond_read(id, value);
        id
    }

    /// The operations recorded so far, borrowed in place, in invocation order.
    #[must_use]
    pub fn operations(&self) -> &[Operation<V>] {
        &self.ops
    }

    /// Finishes the builder and returns the history.
    #[must_use]
    pub fn build(self) -> History<V> {
        History { ops: self.ops }
    }

    /// Returns a snapshot history of everything recorded so far without consuming the
    /// builder.
    #[must_use]
    pub fn snapshot(&self) -> History<V> {
        History {
            ops: self.ops.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> History<i64> {
        let mut b = HistoryBuilder::new();
        let w1 = b.invoke_write(ProcessId(0), RegisterId(0), 1);
        let r1 = b.invoke_read(ProcessId(1), RegisterId(0));
        b.respond_write(w1);
        b.respond_read(r1, 1);
        let _w2 = b.invoke_write(ProcessId(2), RegisterId(0), 2); // stays pending
        b.build()
    }

    #[test]
    fn builder_assigns_increasing_times_and_ids() {
        let h = sample();
        assert_eq!(h.len(), 3);
        let times = h.event_times();
        let mut sorted = times.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(times.len(), 5); // 2 complete ops (4 events) + 1 pending (1 event)
        assert_eq!(times, sorted);
    }

    #[test]
    fn completed_and_pending_partitions() {
        let h = sample();
        assert_eq!(h.completed().count(), 2);
        assert_eq!(h.pending().count(), 1);
        assert_eq!(h.writes().count(), 2);
        assert_eq!(h.reads().count(), 1);
    }

    #[test]
    fn prefix_at_truncates_responses_and_read_values() {
        let h = sample();
        // Cut right after the two invocations (times 1 and 2): both become pending.
        let p = h.prefix_at(Time(2));
        assert_eq!(p.len(), 2);
        assert!(p.operations().iter().all(|o| o.is_pending()));
        // The read that responded later must have its value erased in the prefix.
        let read = p.operations().iter().find(|o| o.is_read()).unwrap();
        assert_eq!(read.kind, OpKind::Read(None));
    }

    #[test]
    fn prefix_is_prefix_of_original() {
        let h = sample();
        for p in h.all_prefixes() {
            assert!(p.is_prefix_of(&h), "prefix {p} not recognized");
        }
        assert!(!h.is_prefix_of(&h.prefix_at(Time(2))));
        assert!(h.is_prefix_of(&h));
    }

    #[test]
    fn all_prefixes_starts_empty_and_grows() {
        let h = sample();
        let prefixes = h.all_prefixes();
        assert!(prefixes.first().unwrap().is_empty());
        assert_eq!(prefixes.len(), h.event_times().len() + 1);
        // Monotone growth of event count.
        let mut last = 0;
        for p in &prefixes {
            let events = p.event_times().len();
            assert!(events >= last);
            last = events;
        }
    }

    #[test]
    fn from_operations_validates() {
        let op = Operation {
            id: OpId(0),
            process: ProcessId(0),
            register: RegisterId(0),
            kind: OpKind::Write(1i64),
            invoked_at: Time(1),
            responded_at: Some(Time(2)),
        };
        let h = History::from_operations(vec![op.clone()]);
        assert_eq!(h.len(), 1);
        assert_eq!(h.get(OpId(0)), Some(&op));
    }

    #[test]
    #[should_panic(expected = "duplicate operation id")]
    fn from_operations_rejects_duplicate_ids() {
        let op = Operation {
            id: OpId(0),
            process: ProcessId(0),
            register: RegisterId(0),
            kind: OpKind::Write(1i64),
            invoked_at: Time(1),
            responded_at: Some(Time(2)),
        };
        let mut op2 = op.clone();
        op2.invoked_at = Time(3);
        op2.responded_at = Some(Time(4));
        let _ = History::from_operations(vec![op, op2]);
    }

    #[test]
    #[should_panic(expected = "after the last event time")]
    fn from_operations_rejects_an_event_after_the_last_time() {
        let op = Operation {
            id: OpId(0),
            process: ProcessId(0),
            register: RegisterId(0),
            kind: OpKind::Write(1i64),
            invoked_at: Time(1),
            responded_at: Some(Time(u64::MAX)),
        };
        let _ = History::from_operations(vec![op]);
    }

    #[test]
    fn registers_and_on_register() {
        let mut b: HistoryBuilder<i64> = HistoryBuilder::new();
        b.write(ProcessId(0), RegisterId(0), 1);
        b.write(ProcessId(0), RegisterId(1), 2);
        b.write(ProcessId(0), RegisterId(1), 3);
        let h = b.build();
        assert_eq!(h.registers().len(), 2);
        assert_eq!(h.on_register(RegisterId(1)).count(), 2);
    }

    #[test]
    fn misdirected_responses_panic_with_the_builders_messages() {
        // op0 is a pending write, op1 a pending read; op2 does not exist.
        type Respond = fn(&mut HistoryBuilder<i64>);
        let panic_message = |respond: Respond| -> String {
            let mut b = HistoryBuilder::new();
            b.invoke_write(ProcessId(0), RegisterId(0), 1);
            b.invoke_read(ProcessId(1), RegisterId(0));
            let payload =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| respond(&mut b)))
                    .expect_err("the response must panic");
            payload
                .downcast_ref::<&str>()
                .map(|m| (*m).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .expect("a text panic message")
        };
        let cases: [(Respond, &str); 6] = [
            (|b| b.respond_write(OpId(2)), "unknown operation id"),
            (|b| b.respond_read(OpId(2), 1), "unknown operation id"),
            (
                |b| b.respond_write(OpId(1)),
                "respond_write on a read operation",
            ),
            (
                |b| b.respond_read(OpId(0), 1),
                "respond_read on a write operation",
            ),
            (
                |b| {
                    b.respond_write(OpId(0));
                    b.respond_write(OpId(0));
                },
                "operation already responded",
            ),
            (
                |b| {
                    b.respond_read(OpId(1), 1);
                    b.respond_read(OpId(1), 1);
                },
                "operation already responded",
            ),
        ];
        for (respond, message) in cases {
            assert_eq!(panic_message(respond), message);
        }
    }

    #[test]
    fn snapshot_does_not_consume_builder() {
        let mut b: HistoryBuilder<i64> = HistoryBuilder::new();
        b.write(ProcessId(0), RegisterId(0), 1);
        let snap = b.snapshot();
        assert_eq!(snap.len(), 1);
        b.write(ProcessId(0), RegisterId(0), 2);
        assert_eq!(b.build().len(), 2);
    }

    #[test]
    fn empty_history_properties() {
        let h: History<i64> = History::new();
        assert!(h.is_empty());
        assert_eq!(h.max_time(), Time::ZERO);
        assert!(h.is_prefix_of(&sample()));
    }
}
