//! Timestamps used by the two MWMR constructions.
//!
//! * [`VectorTs`]: the vector timestamps of Algorithm 2. A component is either a finite
//!   counter or `∞`; a freshly started write initializes its timestamp to `[∞, …, ∞]`
//!   and fills components in one by one, so the (partial) timestamp only ever
//!   *decreases* in lexicographic order while it is being formed — the property the
//!   on-line linearization of Algorithm 3 relies on (Observation 25).
//! * [`LamportTs`]: the `⟨sq, pid⟩` Lamport-clock timestamps of Algorithm 4.
//!
//! Both are compared lexicographically, giving the total orders used by the readers
//! (line 14 of Algorithm 2, line 11 of Algorithm 4).

use std::cmp::Ordering;
use std::fmt;

/// One component of a vector timestamp: a finite counter or `∞`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TsEntry {
    /// A finite counter value.
    Finite(u64),
    /// The `∞` placeholder used while a timestamp is still being formed.
    Infinity,
}

impl TsEntry {
    /// Returns the finite value, if any.
    #[must_use]
    pub fn finite(self) -> Option<u64> {
        match self {
            TsEntry::Finite(v) => Some(v),
            TsEntry::Infinity => None,
        }
    }

    /// Returns `true` for the `∞` placeholder.
    #[must_use]
    pub fn is_infinity(self) -> bool {
        matches!(self, TsEntry::Infinity)
    }
}

impl PartialOrd for TsEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TsEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (TsEntry::Infinity, TsEntry::Infinity) => Ordering::Equal,
            (TsEntry::Infinity, TsEntry::Finite(_)) => Ordering::Greater,
            (TsEntry::Finite(_), TsEntry::Infinity) => Ordering::Less,
            (TsEntry::Finite(a), TsEntry::Finite(b)) => a.cmp(b),
        }
    }
}

impl fmt::Display for TsEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TsEntry::Finite(v) => write!(f, "{v}"),
            TsEntry::Infinity => write!(f, "∞"),
        }
    }
}

/// A vector timestamp of length `n` (one component per process), compared
/// lexicographically with `∞` greater than every finite value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VectorTs {
    entries: Vec<TsEntry>,
}

impl VectorTs {
    /// The all-zero timestamp of length `n` (the initial timestamp of every `Val[i]`).
    #[must_use]
    pub fn zero(n: usize) -> Self {
        VectorTs {
            entries: vec![TsEntry::Finite(0); n],
        }
    }

    /// The all-`∞` timestamp of length `n` (the reset value of `new_ts`, line 9).
    #[must_use]
    pub fn infinity(n: usize) -> Self {
        VectorTs {
            entries: vec![TsEntry::Infinity; n],
        }
    }

    /// Builds a timestamp from finite components.
    #[must_use]
    pub fn from_finite(components: &[u64]) -> Self {
        VectorTs {
            entries: components.iter().map(|&v| TsEntry::Finite(v)).collect(),
        }
    }

    /// Length of the vector.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the vector has no components.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Component accessor.
    #[must_use]
    pub fn get(&self, i: usize) -> TsEntry {
        self.entries[i]
    }

    /// Sets component `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set(&mut self, i: usize, value: TsEntry) {
        self.entries[i] = value;
    }

    /// Returns `true` if every component is finite (the timestamp is fully formed).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.entries.iter().all(|e| !e.is_infinity())
    }

    /// Returns `true` if this is the all-zero timestamp (the register's initial value).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.entries.iter().all(|e| *e == TsEntry::Finite(0))
    }

    /// The components as a slice.
    #[must_use]
    pub fn entries(&self) -> &[TsEntry] {
        &self.entries
    }
}

impl PartialOrd for VectorTs {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for VectorTs {
    fn cmp(&self, other: &Self) -> Ordering {
        // Lexicographic; shorter vectors compare by their common prefix first (the
        // constructions always use equal lengths).
        self.entries.cmp(&other.entries)
    }
}

impl fmt::Display for VectorTs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

/// A Lamport-clock timestamp `⟨sq, pid⟩` (Algorithm 4), compared lexicographically: by
/// sequence number first, then by writer id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LamportTs {
    /// The sequence number.
    pub sq: u64,
    /// The id of the process that formed the timestamp.
    pub pid: usize,
}

impl LamportTs {
    /// Creates a timestamp.
    #[must_use]
    pub fn new(sq: u64, pid: usize) -> Self {
        LamportTs { sq, pid }
    }
}

impl fmt::Display for LamportTs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{},{}⟩", self.sq, self.pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_ordering_puts_infinity_on_top() {
        assert!(TsEntry::Infinity > TsEntry::Finite(u64::MAX));
        assert!(TsEntry::Finite(3) > TsEntry::Finite(2));
        assert_eq!(TsEntry::Infinity.cmp(&TsEntry::Infinity), Ordering::Equal);
        assert_eq!(TsEntry::Finite(5).finite(), Some(5));
        assert_eq!(TsEntry::Infinity.finite(), None);
        assert!(TsEntry::Infinity.is_infinity());
    }

    #[test]
    fn vector_lexicographic_order() {
        let a = VectorTs::from_finite(&[0, 1, 0]);
        let b = VectorTs::from_finite(&[1, 0, 0]);
        let c = VectorTs::from_finite(&[0, 0, 1]);
        assert!(b > a);
        assert!(a > c);
        assert!(b > c);
    }

    #[test]
    fn partially_formed_timestamp_decreases_as_it_fills_in() {
        // Observation 25: new_ts starts at [∞,∞,∞] and only decreases (lexicographically)
        // as components are assigned.
        let mut ts = VectorTs::infinity(3);
        let mut previous = ts.clone();
        for (i, v) in [(0usize, 2u64), (1, 0), (2, 5)] {
            ts.set(i, TsEntry::Finite(v));
            assert!(ts <= previous, "{ts} should be <= {previous}");
            previous = ts.clone();
        }
        assert!(ts.is_complete());
    }

    #[test]
    fn infinity_vector_dominates_every_complete_vector() {
        let inf = VectorTs::infinity(4);
        let complete = VectorTs::from_finite(&[u64::MAX, u64::MAX, u64::MAX, u64::MAX]);
        assert!(inf > complete);
        assert!(!inf.is_complete());
        assert!(!inf.is_zero());
        assert!(VectorTs::zero(4).is_zero());
    }

    #[test]
    fn partial_vs_complete_comparison_matches_the_paper_figure3() {
        // Figure 3: w2 completes with [0,1,0]; at that moment w1 has only set its first
        // component to 0 (so it reads [0,∞,∞]) and w3 has set [0,0,∞]. The on-line
        // comparison must put w3 before w2 before w1.
        let ts_w2 = VectorTs::from_finite(&[0, 1, 0]);
        let mut ts_w1 = VectorTs::infinity(3);
        ts_w1.set(0, TsEntry::Finite(0));
        let mut ts_w3 = VectorTs::infinity(3);
        ts_w3.set(0, TsEntry::Finite(0));
        ts_w3.set(1, TsEntry::Finite(0));
        assert!(ts_w3 < ts_w2);
        assert!(ts_w2 < ts_w1);
    }

    #[test]
    fn lamport_order_breaks_ties_by_pid() {
        assert!(LamportTs::new(1, 2) > LamportTs::new(1, 1));
        assert!(LamportTs::new(2, 0) > LamportTs::new(1, 9));
        assert_eq!(LamportTs::new(3, 1).to_string(), "⟨3,1⟩");
    }

    #[test]
    fn display_formats() {
        let mut ts = VectorTs::infinity(2);
        ts.set(0, TsEntry::Finite(4));
        assert_eq!(ts.to_string(), "[4,∞]");
        assert_eq!(VectorTs::zero(2).to_string(), "[0,0]");
    }

    #[test]
    fn accessors() {
        let ts = VectorTs::from_finite(&[1, 2, 3]);
        assert_eq!(ts.len(), 3);
        assert!(!ts.is_empty());
        assert_eq!(ts.get(1), TsEntry::Finite(2));
        assert_eq!(ts.entries().len(), 3);
    }
}
