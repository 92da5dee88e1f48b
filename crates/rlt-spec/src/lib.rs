//! Specification layer for register linearizability, strong linearizability, and
//! write strong-linearizability.
//!
//! This crate provides the formal vocabulary of the paper *"On Register Linearizability
//! and Termination"* (Hadzilacos, Hu, Toueg; PODC 2021) as executable Rust:
//!
//! * [`Operation`]s with invocation/response times, [`History`] objects with real-time
//!   precedence and prefix extraction (Definition 1 and the history model of Section 2).
//! * The register sequential specification (Definition 2, property 3) in
//!   [`sequential`].
//! * The [`Checker`] session: a builder-configured linearizability checker (Definition
//!   2) backed by the high-throughput search core in [`engine`] (value interning,
//!   precedence bitsets, iterative DFS, per-register composition). Each check is one
//!   search on the calling thread; [`Checker::check_many`] spreads whole histories
//!   over scoped threads with bit-identical results at any thread width. A
//!   `Checker` is reusable: it keeps search scratch warm across [`Checker::check`]
//!   calls and across the histories of a batch, and streams enumerations lazily
//!   through the [`Linearizations`] iterator.
//! * Prefix-property checkers for strong linearizability (Definition 3) and write
//!   strong-linearizability (Definition 4) over linearization *strategies*
//!   ([`strategy`]) and existential checks over explicit history families ([`strong`]),
//!   used to replay the Theorem 13 counterexample.
//! * The `f*` construction of Theorem 14 showing every linearizable SWMR register
//!   implementation is write strongly-linearizable ([`swmr`]).
//!
//! # Example
//!
//! ```
//! use rlt_spec::prelude::*;
//!
//! // A tiny history: p0 writes 1, concurrently p1 reads and sees 1.
//! let mut b = HistoryBuilder::new();
//! let reg = RegisterId(0);
//! let w = b.invoke_write(ProcessId(0), reg, 1i64);
//! let r = b.invoke_read(ProcessId(1), reg);
//! b.respond_write(w);
//! b.respond_read(r, 1i64);
//! let history = b.build();
//!
//! // One session, reused across every check of the run.
//! let checker = Checker::new(0i64);
//! let verdict = checker.check(&history);
//! assert!(verdict.is_linearizable());
//!
//! // Enumeration streams: this pulls exactly one order out of the search.
//! let first = checker.linearizations(&history).next();
//! assert!(matches!(first, Some(Ok(_))));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checker;
pub mod engine;
pub mod history;
pub mod ids;
pub mod incremental;
pub mod linearizability;
mod mirror;
pub mod op;
pub mod reference;
pub mod sequential;
pub mod strategy;
pub mod strong;
pub mod swmr;
pub mod value;
pub mod wire;

pub use checker::{CheckError, CheckStats, Checker, CheckerBuilder, ThreadPolicy, Verdict};
pub use engine::{
    CheckOutcome, Engine, EnumerationLimitExceeded, Linearizations, MemoStats, ScratchPool,
    SearchScratch, StateSketch, DEFAULT_SPLIT_THRESHOLD,
};
pub use history::{History, HistoryBuilder};
pub use ids::{OpId, ProcessId, RegisterId, Time};
pub use incremental::{IncrementalChecker, IncrementalStats, IncrementalVerdict};
pub use linearizability::{DEFAULT_ENUMERATION_WORK_LIMIT, DEFAULT_STATE_LIMIT};
pub use op::{OpKind, Operation};
pub use sequential::{is_legal_register_sequence, SeqHistory};
pub use strategy::{
    check_strong_prefix_property, check_subset_strong_prefix_property,
    check_write_strong_prefix_property, LinearizationStrategy, PrefixViolation,
};
pub use strong::{admits_write_strong_linearization, ExtensionFamily};
pub use swmr::{canonical_swmr_strategy, swmr_star, SwmrCanonical};
pub use value::Value;
pub use wire::{format_history, parse_history, verdict_to_json, WireError};

/// Convenient glob import of the most commonly used items.
pub mod prelude {
    pub use crate::checker::{CheckError, CheckStats, Checker, ThreadPolicy, Verdict};
    pub use crate::engine::{EnumerationLimitExceeded, Linearizations};
    pub use crate::history::{History, HistoryBuilder};
    pub use crate::ids::{OpId, ProcessId, RegisterId, Time};
    pub use crate::incremental::{IncrementalChecker, IncrementalStats, IncrementalVerdict};
    pub use crate::op::{OpKind, Operation};
    pub use crate::sequential::{is_legal_register_sequence, SeqHistory};
    pub use crate::strategy::{
        check_strong_prefix_property, check_write_strong_prefix_property, LinearizationStrategy,
    };
    pub use crate::value::Value;
}
