//! Operations: reads and writes with invocation/response intervals.

use crate::ids::{OpId, ProcessId, RegisterId, Time};
use std::fmt;

/// The kind of a register operation together with its payload.
///
/// * A `Write(v)` carries the value being written.
/// * A `Read(resp)` carries the value returned, or `None` while the read is pending
///   (or crashed before responding).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OpKind<V> {
    /// A write of the given value.
    Write(V),
    /// A read; the payload is the returned value once the read has responded.
    Read(Option<V>),
}

impl<V> OpKind<V> {
    /// Returns `true` if this is a write operation.
    #[must_use]
    pub fn is_write(&self) -> bool {
        matches!(self, OpKind::Write(_))
    }

    /// Returns `true` if this is a read operation.
    #[must_use]
    pub fn is_read(&self) -> bool {
        matches!(self, OpKind::Read(_))
    }
}

/// A single register operation spanning an interval of time (Definition 1).
///
/// `responded_at == None` means the operation is *pending* (its response does not
/// appear in the history).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Operation<V> {
    /// Unique identifier of the operation within its history.
    pub id: OpId,
    /// The process that issued the operation.
    pub process: ProcessId,
    /// The register the operation acts on.
    pub register: RegisterId,
    /// Whether the operation is a read or a write, with its payload.
    pub kind: OpKind<V>,
    /// The time of the operation's invocation event.
    pub invoked_at: Time,
    /// The time of the operation's response event, if any.
    pub responded_at: Option<Time>,
}

impl<V> Operation<V> {
    /// Returns `true` if the operation is complete (its response appears in the history).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.responded_at.is_some()
    }

    /// Returns `true` if the operation is pending (invoked but not responded).
    #[must_use]
    pub fn is_pending(&self) -> bool {
        self.responded_at.is_none()
    }

    /// Returns `true` if this is a write operation.
    #[must_use]
    pub fn is_write(&self) -> bool {
        self.kind.is_write()
    }

    /// Returns `true` if this is a read operation.
    #[must_use]
    pub fn is_read(&self) -> bool {
        self.kind.is_read()
    }

    /// The value written, if this is a write.
    #[must_use]
    pub fn written_value(&self) -> Option<&V> {
        match &self.kind {
            OpKind::Write(v) => Some(v),
            OpKind::Read(_) => None,
        }
    }

    /// The value returned, if this is a completed read.
    #[must_use]
    pub fn read_value(&self) -> Option<&V> {
        match &self.kind {
            OpKind::Read(Some(v)) => Some(v),
            _ => None,
        }
    }

    /// Real-time precedence (Definition 1): `self` precedes `other` iff `self`'s
    /// response occurs before `other`'s invocation.
    #[must_use]
    pub fn precedes(&self, other: &Operation<V>) -> bool {
        match self.responded_at {
            Some(r) => r < other.invoked_at,
            None => false,
        }
    }

    /// Returns `true` if the two operations are concurrent (neither precedes the other).
    #[must_use]
    pub fn concurrent_with(&self, other: &Operation<V>) -> bool {
        !self.precedes(other) && !other.precedes(self)
    }

    /// Returns `true` if the operation is *active* at time `t` in the sense of the
    /// paper's Definition 21: it has been invoked by `t` and has not responded before
    /// `t` (an operation that starts at `s` and completes at `f` is active for all
    /// `s <= t <= f`; pending operations are active forever after their invocation).
    #[must_use]
    pub fn is_active_at(&self, t: Time) -> bool {
        if self.invoked_at > t {
            return false;
        }
        match self.responded_at {
            Some(r) => t <= r,
            None => true,
        }
    }
}

impl<V: fmt::Debug> fmt::Display for Operation<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let resp = match self.responded_at {
            Some(t) => format!("{t}"),
            None => "pending".to_string(),
        };
        match &self.kind {
            OpKind::Write(v) => write!(
                f,
                "{}[{} {}.write({:?}) @({},{})]",
                self.id, self.register, self.process, v, self.invoked_at, resp
            ),
            OpKind::Read(v) => write!(
                f,
                "{}[{} {}.read()->{:?} @({},{})]",
                self.id, self.register, self.process, v, self.invoked_at, resp
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(id: u64, inv: u64, resp: Option<u64>) -> Operation<i64> {
        Operation {
            id: OpId(id),
            process: ProcessId(0),
            register: RegisterId(0),
            kind: OpKind::Write(id as i64),
            invoked_at: Time(inv),
            responded_at: resp.map(Time),
        }
    }

    #[test]
    fn precedence_requires_response_before_invocation() {
        let a = write(1, 0, Some(5));
        let b = write(2, 6, Some(10));
        let c = write(3, 4, Some(12));
        assert!(a.precedes(&b));
        assert!(!b.precedes(&a));
        assert!(!a.precedes(&c)); // c invoked at 4 < a's response at 5
        assert!(a.concurrent_with(&c));
        assert!(!a.concurrent_with(&b));
    }

    #[test]
    fn pending_operation_never_precedes() {
        let pending = write(1, 0, None);
        let later = write(2, 100, Some(101));
        assert!(!pending.precedes(&later));
        assert!(pending.concurrent_with(&later));
        assert!(pending.is_pending());
        assert!(!pending.is_complete());
    }

    #[test]
    fn active_interval_matches_definition_21() {
        let op = write(1, 3, Some(7));
        assert!(!op.is_active_at(Time(2)));
        assert!(op.is_active_at(Time(3)));
        assert!(op.is_active_at(Time(5)));
        assert!(op.is_active_at(Time(7)));
        assert!(!op.is_active_at(Time(8)));

        let pending = write(2, 4, None);
        assert!(pending.is_active_at(Time(4)));
        assert!(pending.is_active_at(Time(1_000_000)));
        assert!(!pending.is_active_at(Time(3)));
    }

    #[test]
    fn written_and_read_value_accessors() {
        let w = write(1, 0, Some(1));
        assert_eq!(w.written_value(), Some(&1));
        assert_eq!(w.read_value(), None);
        assert!(w.is_write());
        assert!(!w.is_read());

        let r: Operation<i64> = Operation {
            id: OpId(9),
            process: ProcessId(2),
            register: RegisterId(1),
            kind: OpKind::Read(Some(42)),
            invoked_at: Time(1),
            responded_at: Some(Time(2)),
        };
        assert_eq!(r.read_value(), Some(&42));
        assert_eq!(r.written_value(), None);
        assert!(r.is_read());
    }

    #[test]
    fn display_renders_both_kinds() {
        let w = write(1, 0, Some(1));
        assert!(w.to_string().contains("write"));
        let r: Operation<i64> = Operation {
            id: OpId(9),
            process: ProcessId(2),
            register: RegisterId(1),
            kind: OpKind::Read(None),
            invoked_at: Time(1),
            responded_at: None,
        };
        assert!(r.to_string().contains("pending"));
    }
}
