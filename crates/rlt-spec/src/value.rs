//! A concrete register value type covering every value domain the paper's algorithms
//! use, plus the trait bound alias used by the generic checkers.

use std::fmt;
use std::hash::Hash;

/// Trait alias for value types the checkers can handle.
///
/// The checkers are generic: any cloneable, totally comparable, hashable value type
/// works. [`Value`] is a ready-made concrete choice.
pub trait RegisterValue: Clone + Eq + Ord + Hash + fmt::Debug {}

impl<T> RegisterValue for T where T: Clone + Eq + Ord + Hash + fmt::Debug {}

/// A concrete register value sufficient for every algorithm in the paper.
///
/// * `Init` — the register's initial value (the "0" of Algorithm 1's `R2` and `C`).
/// * `Bot` — the `⊥` written by players in lines 19–20 of Algorithm 1.
/// * `Int(i)` — plain integer values (counter contents of `R2`, coin results in `C`).
/// * `Pair(i, j)` — the `[i, j]` tuples written into `R1` in line 3 of Algorithm 1.
/// * `Tagged { val, tag }` — a value paired with an opaque integer tag, used by the
///   MWMR constructions where readers return `(v, ts)` tuples.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Value {
    /// The register's initial value.
    #[default]
    Init,
    /// The distinguished `⊥` value.
    Bot,
    /// A plain integer.
    Int(i64),
    /// A pair `[i, j]` as written to `R1` by the hosts of Algorithm 1.
    Pair(i64, i64),
    /// A value carrying an opaque tag (e.g. a flattened timestamp).
    Tagged {
        /// The payload value.
        val: i64,
        /// The tag distinguishing the write that produced the payload.
        tag: u64,
    },
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Init => write!(f, "init"),
            Value::Bot => write!(f, "⊥"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Pair(a, b) => write!(f, "[{a},{b}]"),
            Value::Tagged { val, tag } => write!(f, "({val}#{tag})"),
        }
    }
}

impl From<i64> for Value {
    fn from(value: i64) -> Self {
        Value::Int(value)
    }
}

impl From<(i64, i64)> for Value {
    fn from(value: (i64, i64)) -> Self {
        Value::Pair(value.0, value.1)
    }
}

impl Value {
    /// Returns `true` if this value is the distinguished `⊥`.
    #[must_use]
    pub fn is_bot(&self) -> bool {
        matches!(self, Value::Bot)
    }

    /// Returns the integer payload if this value is an `Int`.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the pair payload if this value is a `Pair`.
    #[must_use]
    pub fn as_pair(&self) -> Option<(i64, i64)> {
        match self {
            Value::Pair(a, b) => Some((*a, *b)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        assert_eq!(Value::Init.to_string(), "init");
        assert_eq!(Value::Bot.to_string(), "⊥");
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Pair(0, 3).to_string(), "[0,3]");
        assert_eq!(Value::Tagged { val: 5, tag: 2 }.to_string(), "(5#2)");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(4), Value::Int(4));
        assert_eq!(Value::from((1, 2)), Value::Pair(1, 2));
    }

    #[test]
    fn accessors() {
        assert!(Value::Bot.is_bot());
        assert!(!Value::Init.is_bot());
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Bot.as_int(), None);
        assert_eq!(Value::Pair(1, 2).as_pair(), Some((1, 2)));
        assert_eq!(Value::Int(1).as_pair(), None);
    }

    #[test]
    fn default_is_init() {
        assert_eq!(Value::default(), Value::Init);
    }

    #[test]
    fn ordering_is_total() {
        let mut vs = vec![
            Value::Int(2),
            Value::Bot,
            Value::Init,
            Value::Pair(0, 1),
            Value::Int(1),
        ];
        vs.sort();
        // Sorting must not panic and must be stable under re-sorting.
        let again = {
            let mut c = vs.clone();
            c.sort();
            c
        };
        assert_eq!(vs, again);
    }
}
