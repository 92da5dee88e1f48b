//! Identifier newtypes shared by every layer: processes, registers, operations, and
//! logical time.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a process in the system.
///
/// The paper indexes processes `p0, p1, ..., p_{n-1}`; the wrapped value is that index.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ProcessId(pub usize);

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for ProcessId {
    fn from(value: usize) -> Self {
        ProcessId(value)
    }
}

/// Identifier of a shared register.
///
/// Histories may span several registers (Algorithm 1 uses three: `R1`, `R2`, and `C`);
/// linearizability is checked over the combined multi-register history.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct RegisterId(pub usize);

impl fmt::Display for RegisterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl From<usize> for RegisterId {
    fn from(value: usize) -> Self {
        RegisterId(value)
    }
}

/// Unique identifier of an operation within a [`crate::History`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct OpId(pub u64);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// Discrete logical time used to order invocation and response events.
///
/// Times are strictly increasing event counters assigned by the history recorder
/// (simulator or [`crate::HistoryBuilder`]); two events never share a time, which keeps
/// real-time precedence (Definition 1) unambiguous.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Time(pub u64);

impl Time {
    /// The smallest time value.
    pub const ZERO: Time = Time(0);

    /// The latest time an event may carry. A witness completes every pending
    /// operation one tick after the last event, so `Time(u64::MAX)` is never an
    /// event time.
    pub const LAST: Time = Time(u64::MAX - 1);

    /// Returns the next time tick.
    #[must_use]
    pub fn next(self) -> Time {
        Time(self.0 + 1)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<u64> for Time {
    fn from(value: u64) -> Self {
        Time(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_display_and_order() {
        assert_eq!(ProcessId(3).to_string(), "p3");
        assert!(ProcessId(1) < ProcessId(2));
        assert_eq!(ProcessId::from(7), ProcessId(7));
    }

    #[test]
    fn register_id_display_and_order() {
        assert_eq!(RegisterId(0).to_string(), "R0");
        assert!(RegisterId(0) < RegisterId(5));
        assert_eq!(RegisterId::from(2), RegisterId(2));
    }

    #[test]
    fn time_next_is_strictly_increasing() {
        let t = Time::ZERO;
        assert!(t < t.next());
        assert_eq!(t.next(), Time(1));
        assert_eq!(Time::from(9).next(), Time(10));
    }

    #[test]
    fn op_id_display() {
        assert_eq!(OpId(42).to_string(), "op42");
    }

    #[test]
    fn ids_are_hashable_and_copy() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(OpId(1));
        set.insert(OpId(1));
        assert_eq!(set.len(), 1);
        let t = Time(5);
        let t2 = t; // Copy
        assert_eq!(t, t2);
    }
}
