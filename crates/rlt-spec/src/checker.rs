//! The unified checking session: [`Checker`] and its builder.
//!
//! A [`Checker`] bundles everything that used to be scattered across per-call
//! parameters of the free checking functions — the initial register value, the
//! state-exploration budget, the enumeration work cap, the thread policy, and whether
//! witnesses are materialized — into one reusable session object:
//!
//! ```
//! use rlt_spec::prelude::*;
//!
//! let checker = Checker::new(0i64);
//! let mut b = HistoryBuilder::new();
//! b.write(ProcessId(0), RegisterId(0), 1i64);
//! b.read(ProcessId(1), RegisterId(0), 1i64);
//! let history = b.build();
//!
//! let verdict = checker.check(&history);
//! assert!(verdict.is_linearizable());
//! assert!(verdict.witness().unwrap().is_linearization_of(&history, &0));
//! ```
//!
//! Beyond configuration, a `Checker` is a *session*: it owns a pool of
//! [`SearchScratch`](crate::engine::SearchScratch) arenas that are reused across
//! [`Checker::check`] calls and across the histories of a [`Checker::check_many`]
//! batch, so small-history workloads stop paying per-call allocation. A fresh
//! checker's pool starts empty, so a new `Checker` per call is the cold-arena
//! baseline. The checker owns no threads: a batch fans out on whatever rayon pool
//! is current, so a caller wanting a fixed width builds one with
//! `rayon::ThreadPoolBuilder` and calls [`Checker::check_many`] inside its
//! `install`. Enumeration is exposed as the *streaming* [`Checker::linearizations`]
//! iterator, which runs the underlying search exactly as far as the consumer pulls.

use crate::engine::{
    CheckOutcome, Engine, EnumerationLimitExceeded, Linearizations, MemoStats, ScratchPool,
    StateSketch,
};
use crate::history::History;
use crate::incremental::IncrementalChecker;
use crate::linearizability::{DEFAULT_ENUMERATION_WORK_LIMIT, DEFAULT_STATE_LIMIT};
use crate::op::Operation;
use crate::sequential::SeqHistory;
use crate::value::RegisterValue;
use std::fmt;

/// How a [`Checker::check_many`] batch spreads its histories over threads.
///
/// The policy governs only batches: every other call, [`Checker::check`] included,
/// runs its search on the calling thread under any policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThreadPolicy {
    /// Fan the batch across whatever rayon pool is current at the call site (the
    /// global pool, or the pool of an enclosing `install`, which is how a caller
    /// picks a fixed width). This is the default and composes with callers that
    /// already manage pools.
    #[default]
    Auto,
    /// Check the batch's histories one after another on the calling thread: the
    /// definitional baseline the parallel batches are diffed against.
    Sequential,
}

/// Search statistics of one check (or one family check).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckStats {
    /// Search nodes visited across all witness sub-searches.
    pub states_explored: u64,
    /// Nodes pruned by memoization.
    pub states_memoized: u64,
    /// Enumeration nodes visited (zero for plain witness checks; populated by
    /// enumeration-backed checks such as [`crate::ExtensionFamily`]).
    pub enumeration_nodes: u64,
    /// Memo-table counters of the check: slot probes, hits, and the arena high-water
    /// mark. Deterministic like every other statistic — bit-identical across thread
    /// policies, pool widths, and scratch reuse.
    pub memo: MemoStats,
}

/// Why a check could not reach a conclusive verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckError {
    /// The state-exploration budget ran out before the search finished; a missing
    /// witness proves nothing. Raise the budget via
    /// [`CheckerBuilder::state_budget`].
    StateBudgetExhausted {
        /// Search nodes visited before the budget ran dry.
        states_explored: u64,
    },
    /// Enumeration exceeded its work cap (see
    /// [`CheckerBuilder::enumeration_work_cap`]).
    EnumerationLimitExceeded(EnumerationLimitExceeded),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::StateBudgetExhausted { states_explored } => write!(
                f,
                "state budget exhausted after {states_explored} search states; \
                 the verdict is inconclusive"
            ),
            CheckError::EnumerationLimitExceeded(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CheckError {}

impl From<EnumerationLimitExceeded> for CheckError {
    fn from(e: EnumerationLimitExceeded) -> Self {
        CheckError::EnumerationLimitExceeded(e)
    }
}

/// Outcome of [`Checker::check`]: a typed three-way verdict (linearizable with an
/// optional witness / not linearizable / inconclusive because the budget ran out)
/// plus search statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict<V> {
    /// `Some(true)` = linearizable, `Some(false)` = proven not linearizable, `None` =
    /// the state budget ran out before the search finished.
    decision: Option<bool>,
    witness: Option<SeqHistory<V>>,
    stats: CheckStats,
}

impl<V> Verdict<V> {
    /// The verdict of one engine search: linearizable when it found an order,
    /// inconclusive when its state budget ran out first, not linearizable
    /// otherwise. With `witness` on, `materialize` turns the found order into the
    /// witness linearization.
    pub(crate) fn from_outcome(
        outcome: &CheckOutcome,
        witness: bool,
        materialize: impl FnOnce(&[usize]) -> SeqHistory<V>,
    ) -> Self {
        let decision = if outcome.order.is_some() {
            Some(true)
        } else if outcome.limit_hit {
            None
        } else {
            Some(false)
        };
        Verdict {
            decision,
            witness: outcome
                .order
                .as_deref()
                .filter(|_| witness)
                .map(materialize),
            stats: CheckStats {
                states_explored: outcome.states_explored,
                states_memoized: outcome.states_memoized,
                enumeration_nodes: 0,
                memo: outcome.memo,
            },
        }
    }

    /// `true` iff the history was *proven* linearizable. An inconclusive check (see
    /// [`Verdict::outcome`]) returns `false` here, same as a proven violation.
    #[must_use]
    pub fn is_linearizable(&self) -> bool {
        self.decision == Some(true)
    }

    /// `true` when the search ran to completion (either verdict), `false` when the
    /// state budget ran out first.
    #[must_use]
    pub fn is_conclusive(&self) -> bool {
        self.decision.is_some()
    }

    /// The verdict as a value: `Ok(true)` / `Ok(false)` for a conclusive check,
    /// `Err(`[`CheckError::StateBudgetExhausted`]`)` when the budget ran out.
    pub fn outcome(&self) -> Result<bool, CheckError> {
        self.decision.ok_or(CheckError::StateBudgetExhausted {
            states_explored: self.stats.states_explored,
        })
    }

    /// The witness linearization, if the history is linearizable and the checker
    /// records witnesses (see [`CheckerBuilder::witness`]).
    #[must_use]
    pub fn witness(&self) -> Option<&SeqHistory<V>> {
        self.witness.as_ref()
    }

    /// Consumes the verdict, returning the witness linearization if there is one.
    #[must_use]
    pub fn into_witness(self) -> Option<SeqHistory<V>> {
        self.witness
    }

    /// Search statistics of this check.
    #[must_use]
    pub fn stats(&self) -> CheckStats {
        self.stats
    }
}

/// Builder for [`Checker`]; obtain one via [`Checker::builder`].
#[derive(Debug, Clone)]
pub struct CheckerBuilder<V> {
    init: V,
    state_budget: u64,
    enumeration_work_cap: u64,
    threads: ThreadPolicy,
    witness: bool,
}

impl<V: RegisterValue> CheckerBuilder<V> {
    /// Caps the number of search states a single [`Checker::check`] may explore
    /// before giving up with an inconclusive verdict. Default:
    /// [`DEFAULT_STATE_LIMIT`].
    #[must_use]
    pub fn state_budget(mut self, states: u64) -> Self {
        self.state_budget = states;
        self
    }

    /// Caps the number of enumeration nodes a [`Checker::linearizations`] iterator
    /// may visit before failing with
    /// [`EnumerationLimitExceeded`]. Default: [`DEFAULT_ENUMERATION_WORK_LIMIT`].
    #[must_use]
    pub fn enumeration_work_cap(mut self, nodes: u64) -> Self {
        self.enumeration_work_cap = nodes;
        self
    }

    /// Sets the thread policy of [`Checker::check_many`] batches. Default:
    /// [`ThreadPolicy::Auto`]. Thread policy is unobservable in results — verdicts,
    /// witnesses, and statistics are bit-identical across policies and pool widths;
    /// only wall-clock time moves.
    #[must_use]
    pub fn threads(mut self, policy: ThreadPolicy) -> Self {
        self.threads = policy;
        self
    }

    /// Whether [`Checker::check`] materializes witness linearizations (default:
    /// `true`). Turning this off skips the witness's operation cloning on the
    /// accept path; verdicts and statistics are unaffected.
    #[must_use]
    pub fn witness(mut self, record: bool) -> Self {
        self.witness = record;
        self
    }

    /// Finishes the builder as an [`IncrementalChecker`] session: append operations
    /// (and completions) as they happen and ask for a verdict after any prefix,
    /// paying amortized sublinear per-op cost instead of a full re-check. Verdicts
    /// are bit-identical to [`Checker::check`] on the same complete history at every
    /// thread policy; the thread policy is therefore irrelevant to the session and
    /// ignored. See [`crate::incremental`] for the
    /// reuse/invalidation rule and a live-monitor example.
    #[must_use]
    pub fn build_incremental(self) -> IncrementalChecker<V> {
        IncrementalChecker::from_config(self.init, self.state_budget, self.witness)
    }

    /// Finishes the builder.
    #[must_use]
    pub fn build(self) -> Checker<V> {
        Checker {
            init: self.init,
            state_budget: self.state_budget,
            enumeration_work_cap: self.enumeration_work_cap,
            threads: self.threads,
            witness: self.witness,
            scratch: ScratchPool::new(),
        }
    }
}

/// A reusable linearizability-checking session over one register type (fixed initial
/// value): see the [module docs](crate::checker) for the full story.
///
/// Construct with [`Checker::new`] (defaults) or [`Checker::builder`] (budgets,
/// thread policy, witness recording), then call:
///
/// * [`Checker::check`] — one history, typed [`Verdict`];
/// * [`Checker::check_many`] — a batch, fanned across the thread policy's pool, each
///   entry bit-identical to the corresponding solo [`Checker::check`];
/// * [`Checker::linearizations`] — a lazy streaming [`Linearizations`] iterator over
///   every linearization of a history.
#[derive(Debug)]
pub struct Checker<V> {
    init: V,
    state_budget: u64,
    enumeration_work_cap: u64,
    threads: ThreadPolicy,
    witness: bool,
    scratch: ScratchPool,
}

impl<V: RegisterValue> Checker<V> {
    /// A checker with default configuration: default budgets, [`ThreadPolicy::Auto`],
    /// witnesses recorded.
    #[must_use]
    pub fn new(init: V) -> Self {
        Checker::builder(init).build()
    }

    /// Starts configuring a checker for registers with initial value `init`.
    #[must_use]
    pub fn builder(init: V) -> CheckerBuilder<V> {
        CheckerBuilder {
            init,
            state_budget: DEFAULT_STATE_LIMIT,
            enumeration_work_cap: DEFAULT_ENUMERATION_WORK_LIMIT,
            threads: ThreadPolicy::Auto,
            witness: true,
        }
    }

    /// The initial register value every check of this session assumes.
    #[must_use]
    pub fn init(&self) -> &V {
        &self.init
    }

    /// Number of warm scratch arenas currently parked in the session (observability
    /// for the reuse tests and the service's `arenas_warm` gauge).
    #[must_use]
    pub fn idle_scratch_arenas(&self) -> usize {
        self.scratch.idle_arenas()
    }

    /// Starts a fresh [`IncrementalChecker`] session with this checker's
    /// configuration (initial value, state budget, witness recording). The
    /// session's verdicts are bit-identical to [`Checker::check`] on the same
    /// complete history at every thread policy. See [`crate::incremental`] for the
    /// reuse/invalidation rule and a live-monitor example.
    #[must_use]
    pub fn incremental(&self) -> IncrementalChecker<V> {
        IncrementalChecker::from_config(self.init.clone(), self.state_budget, self.witness)
    }

    /// Checks whether `history` is linearizable.
    ///
    /// The search runs on the calling thread under every [`ThreadPolicy`] (see
    /// [`Engine::check`]), so the verdict is deterministic and the value type needs
    /// no thread-safety bounds.
    #[must_use]
    pub fn check(&self, history: &History<V>) -> Verdict<V> {
        self.check_sketched(history).0
    }

    /// [`Checker::check`] plus the check's [`StateSketch`]: an HLL sketch of the
    /// distinct search configurations the check memoized, mergeable across checks by
    /// a long-lived aggregator (a checking service's `/metrics` endpoint). The
    /// verdict is the *same* object [`Checker::check`] would return — callers that
    /// also hold a direct `check` result can compare them bit-for-bit.
    #[must_use]
    pub fn check_sketched(&self, history: &History<V>) -> (Verdict<V>, StateSketch) {
        let engine = Engine::new(history, &self.init);
        let outcome = engine.check_with(self.state_budget, &self.scratch);
        let verdict = Verdict::from_outcome(&outcome, self.witness, |order| {
            order_to_seq(history, order.iter().map(|&g| engine.op(g)))
        });
        (verdict, outcome.sketch)
    }

    /// Checks a whole batch of histories; results come back in input order and every
    /// entry is bit-identical to the corresponding solo [`Checker::check`] — batching
    /// changes wall-clock time, never outcomes.
    ///
    /// Under [`ThreadPolicy::Auto`] the batch is spread over as many threads as the
    /// current rayon pool is wide (call it inside a pool's `install` for a fixed
    /// width): each call spawns that many threads minus one, scoped to the call,
    /// and the calling thread works alongside them, every thread taking the next
    /// unchecked history until none is left. The spawns are a fixed cost per call
    /// (on a 2-vCPU x86-64 host a width-2 `par_map` of trivial items takes about
    /// 24 µs, against 0.1 µs at width 1), which a batch of heavy histories repays
    /// and a batch of small ones does not. Per-thread scratch arenas come from the
    /// session pool, so the batch's allocations are amortized across its histories.
    #[must_use]
    pub fn check_many(&self, histories: &[History<V>]) -> Vec<Verdict<V>>
    where
        V: Send + Sync,
    {
        match self.threads {
            ThreadPolicy::Sequential => histories.iter().map(|h| self.check(h)).collect(),
            ThreadPolicy::Auto => rayon::par_map(histories, |h| self.check(h)),
        }
    }

    /// Streams the linearizations of `history` lazily: the returned
    /// [`Linearizations`] iterator runs the underlying search exactly as far as it is
    /// pulled, bounded by the session's enumeration work cap.
    #[must_use]
    pub fn linearizations<'s>(&'s self, history: &'s History<V>) -> Linearizations<'s, V> {
        Linearizations::new(history, &self.init, self.enumeration_work_cap)
    }
}

/// Materializes `ops` of `history`, given in linearization order, as a
/// [`SeqHistory`]: each op is cloned, and a linearized pending op is given the
/// response `history.max_time().next()` so the sequential history is well-formed.
/// Every witness and every enumerated linearization is built here.
pub(crate) fn order_to_seq<'h, V: RegisterValue + 'h>(
    history: &History<V>,
    ops: impl IntoIterator<Item = &'h Operation<V>>,
) -> SeqHistory<V> {
    let completion_time = history.max_time().next();
    let seq_ops = ops
        .into_iter()
        .map(|op| {
            let mut op = op.clone();
            if op.responded_at.is_none() {
                op.responded_at = Some(completion_time);
            }
            op
        })
        .collect();
    SeqHistory::from_ops(seq_ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;
    use crate::ids::{ProcessId, RegisterId};

    const R: RegisterId = RegisterId(0);
    const R1: RegisterId = RegisterId(1);

    fn seq_history() -> History<i64> {
        let mut b = HistoryBuilder::new();
        b.write(ProcessId(0), R, 1i64);
        b.read(ProcessId(1), R, 1i64);
        b.build()
    }

    fn fixed_width_pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build pool")
    }

    fn stale_history() -> History<i64> {
        let mut b = HistoryBuilder::new();
        b.write(ProcessId(0), R, 1i64);
        b.read(ProcessId(1), R, 0i64);
        b.build()
    }

    #[test]
    fn default_checker_decides_both_verdicts() {
        let checker = Checker::new(0i64);
        let ok = checker.check(&seq_history());
        assert!(ok.is_linearizable());
        assert!(ok.is_conclusive());
        assert_eq!(ok.outcome(), Ok(true));
        assert!(ok.witness().is_some());
        let bad = checker.check(&stale_history());
        assert!(!bad.is_linearizable());
        assert_eq!(bad.outcome(), Ok(false));
        assert!(bad.witness().is_none());
    }

    #[test]
    fn tiny_state_budget_is_inconclusive() {
        let mut b = HistoryBuilder::new();
        for i in 0..8 {
            let _ = b.invoke_write(ProcessId(i), R, i as i64 + 1);
        }
        b.read(ProcessId(9), R, 4i64);
        let h = b.build();
        let checker = Checker::builder(0i64).state_budget(2).build();
        let verdict = checker.check(&h);
        assert!(!verdict.is_conclusive());
        assert!(!verdict.is_linearizable());
        let err = verdict.outcome().unwrap_err();
        assert!(matches!(err, CheckError::StateBudgetExhausted { .. }));
        assert!(err.to_string().contains("inconclusive"));
    }

    #[test]
    fn witness_off_keeps_verdict_and_stats() {
        let h = seq_history();
        let with = Checker::new(0i64).check(&h);
        let without = Checker::builder(0i64).witness(false).build().check(&h);
        assert!(without.is_linearizable());
        assert!(without.witness().is_none());
        assert_eq!(with.stats(), without.stats());
        assert_eq!(with.outcome(), without.outcome());
    }

    #[test]
    fn thread_policies_agree_bit_for_bit() {
        let mut b = HistoryBuilder::new();
        for i in 0..3u64 {
            let _ = b.invoke_write(ProcessId(i as usize), R, i as i64 + 1);
            b.write(ProcessId(i as usize), R1, i as i64 + 10);
        }
        b.read(ProcessId(7), R, 2i64);
        b.read(ProcessId(8), R1, 12i64);
        let h = b.build();
        let sequential = Checker::builder(0i64)
            .threads(ThreadPolicy::Sequential)
            .build()
            .check(&h);
        let auto = Checker::builder(0i64).threads(ThreadPolicy::Auto).build();
        assert_eq!(auto.check(&h), sequential);
        for width in [2, 4] {
            let verdict = fixed_width_pool(width).install(|| auto.check(&h));
            assert_eq!(verdict, sequential, "width {width}");
        }
    }

    #[test]
    fn check_many_matches_solo_checks() {
        let histories: Vec<History<i64>> = (0..6)
            .map(|seed| {
                let mut b = HistoryBuilder::new();
                b.write(ProcessId(0), R, seed);
                b.write(ProcessId(0), R1, seed + 1);
                b.read(ProcessId(1), R, if seed % 2 == 0 { seed } else { 99 });
                b.build()
            })
            .collect();
        for policy in [ThreadPolicy::Auto, ThreadPolicy::Sequential] {
            let checker = Checker::builder(0i64).threads(policy).build();
            let batch = checker.check_many(&histories);
            for (i, h) in histories.iter().enumerate() {
                assert_eq!(batch[i], checker.check(h), "{policy:?} history {i}");
            }
        }
        let checker = Checker::new(0i64);
        let batch = fixed_width_pool(2).install(|| checker.check_many(&histories));
        for (i, h) in histories.iter().enumerate() {
            assert_eq!(batch[i], checker.check(h), "2-wide pool history {i}");
        }
    }

    #[test]
    fn memo_stats_are_reported_and_reuse_invisible() {
        let mut b = HistoryBuilder::new();
        for i in 0..4 {
            let id = b.invoke_write(ProcessId(i), R, i as i64 + 1);
            b.respond_write(id);
        }
        b.read(ProcessId(5), R, 1i64);
        let h = b.build();
        let warm = Checker::new(0i64);
        let first = warm.check(&h);
        let memo = first.stats().memo;
        assert!(
            memo.probes > 0,
            "every explored state probes the memo table"
        );
        assert!(memo.arena_high_water > 0);
        assert_eq!(
            memo.hits,
            first.stats().states_memoized,
            "plain witness checks prune exactly once per hit"
        );
        // A second check through the same (now warm) session and a cold checker must
        // report bit-identical stats: the memo table's logical geometry is
        // deterministic, so probe counts cannot depend on buffer warmth.
        assert_eq!(warm.check(&h).stats(), first.stats());
        let cold = Checker::new(0i64);
        assert_eq!(cold.check(&h).stats(), first.stats());
    }

    #[test]
    fn scratch_arenas_are_parked_between_calls() {
        let checker = Checker::new(0i64);
        assert_eq!(checker.idle_scratch_arenas(), 0);
        let _ = checker.check(&seq_history());
        let warm = checker.idle_scratch_arenas();
        assert!(warm >= 1, "checks must park their arenas");
        let _ = checker.check(&stale_history());
        assert_eq!(checker.idle_scratch_arenas(), warm, "arenas are reused");
    }

    #[test]
    fn materialize_completes_pending_operations() {
        let mut b = HistoryBuilder::new();
        let _w = b.invoke_write(ProcessId(0), R, 7i64);
        b.read(ProcessId(1), R, 7i64);
        let h = b.build();
        let checker = Checker::new(0i64);
        let mut lins = checker.linearizations(&h);
        let order = lins.next().unwrap().unwrap();
        let seq = lins.materialize(&order);
        assert!(seq.is_linearization_of(&h, &0));
    }
}
