//! Incremental prefix-reuse checking: amortized sublinear per-op verdicts over a
//! growing history.
//!
//! A batch [`Checker::check`](crate::Checker::check) pays the full pipeline on every
//! call — history walk, value interning, register partitioning, precedence-bitset
//! construction, and a from-scratch Wing–Gong DFS per register. A live monitor (or a
//! hunt loop re-checking after every delivery) asks the *same* question about a
//! history that grew by one event, so almost all of that work is re-derivation. An
//! [`IncrementalChecker`] session keeps the whole pipeline alive across appends:
//!
//! * the growing [`History`] itself (ops complete in place),
//! * the engine's search mirror of it — the searched ops, the value interner
//!   (first-sight dense ids) and the register partition — of the engine's own type,
//!   built by the engine's constructor on a full rebuild and extended in place by
//!   every other event, so a session's ids and partition are the engine's by
//!   construction,
//! * one persistent subproblem per register — op list, precedence bitsets, and
//!   completed counts extended in O(words) per appended op,
//! * one persistent [`SearchScratch`] per register holding the **frozen walk** of the
//!   last successful search — stack, taken bitset, partial order, completed-taken
//!   count — and its arena-backed memo table, resumed in place by
//!   [`resume_witness`](crate::engine) instead of re-descending from the empty
//!   configuration. The walk keeps its own completed-taken count: a pending write
//!   completing in place is reported to it, and the session keeps no copy.
//!
//! [`IncrementalChecker::verdict`] is **bit-identical** to
//! `Checker::check` on the same complete history — decision, witness, and every
//! statistic (`states_explored`, `states_memoized`, memo probes/hits/arena
//! high-water) — at every thread policy. The property tests grow random histories
//! one event at a time and diff the two checkers at every prefix.
//!
//! # The invalidation rule
//!
//! Appending an event classifies each register's cached search as *reusable
//! verbatim*, *resumable*, or *dirty*:
//!
//! * **New op appended at the end of a register's invocation-ordered op list**, with
//!   an invocation after every event so far: the op's predecessor set contains every
//!   completed op of the register, so it is never a Wing–Gong candidate at any
//!   configuration the frozen search visited before its success. A cached *success*
//!   stays resumable; a cached exhaustive *failure* is reused verbatim (it never
//!   reached an all-completed configuration, so the appended op never unlocks).
//! * **A pending write completing**: precedence bitsets are unchanged (its response
//!   is the latest event, after every invocation); only the success bar rises. The
//!   frozen search resumes from its success configuration.
//! * **A pending read completing** is the one event that can *retroactively tighten
//!   precedence*: the read joins the searched op set at its invocation position. If
//!   no completed-or-write op was invoked after it, it still appends at the end of
//!   the list (and stays resumable when additionally no completed op of its register
//!   responded after its invocation); otherwise it is a mid-list insert and its
//!   register's subproblem is rebuilt and re-searched from scratch. If the read
//!   returns a value whose interned id would change the engine's first-sight id
//!   assignment, the whole session mirror is rebuilt.
//! * **Geometry guards**: a frozen search is only resumed (or a frozen failure
//!   reused) while the register's taken-bitset word count and
//!   [`memo_size_class`](crate::engine) are unchanged — otherwise the frozen memo
//!   table's layout no longer matches what a from-scratch search would build, and the
//!   register is re-searched.
//! * **Out-of-order events** (an append whose invocation, or a completion whose
//!   response, is not after every event already recorded) are accepted but expensive:
//!   the session mirror is fully rebuilt.
//!
//! # The event contract
//!
//! Every event passes the history validator [`History::from_operations`] runs,
//! plus one session rule: a recorded id may only repeat its op exactly (a no-op)
//! or complete it while pending, agreeing on process, register, invocation time
//! and written value. [`IncrementalChecker::append`] and `sync_with_ops` panic on
//! a rejected event; [`IncrementalChecker::try_extend`] applies a batch up to its
//! first rejected op and returns the message, so a service can feed it untrusted
//! input. Only an event at or before the latest recorded time pays a lookup.
//!
//! Per-register searches run with private full budgets; verdict time replays the
//! batch engine's shared-budget accounting in register order and falls back to one
//! full re-check the moment the replay detects the shared budget would have run dry:
//! the engine's sequential search, run over the session's own subproblems. The
//! cached per-register witnesses merge into the global witness through the engine's
//! one merge function.
//!
//! # Live-monitor example
//!
//! ```
//! use rlt_spec::prelude::*;
//!
//! let checker = Checker::new(0i64);
//! let mut monitor = checker.incremental();
//! monitor.append(Operation {
//!     id: OpId(0),
//!     process: ProcessId(0),
//!     register: RegisterId(0),
//!     kind: OpKind::Write(7),
//!     invoked_at: Time(1),
//!     responded_at: Some(Time(2)),
//! });
//! assert!(monitor.verdict().is_linearizable());
//! // A read that returns the initial value *after* the write responded: the
//! // new/old inversion is caught on the very next event.
//! monitor.append(Operation {
//!     id: OpId(1),
//!     process: ProcessId(1),
//!     register: RegisterId(0),
//!     kind: OpKind::Read(Some(0)),
//!     invoked_at: Time(3),
//!     responded_at: Some(Time(4)),
//! });
//! assert!(!monitor.verdict().is_linearizable());
//! ```

use std::collections::HashMap;

use crate::checker::{order_to_seq, CheckStats, Verdict};
use crate::engine::{
    check_registers, memo_size_class, resume_witness, row_contains, search_witness, words_for,
    CheckOutcome, FastBuildHasher, LocalOp, ScratchPool, SearchScratch, SearchStats, StateSketch,
    SubProblem, WORD_BITS,
};
use crate::history::{History, Validator};
use crate::ids::{OpId, Time};
use crate::mirror::Mirror;
use crate::op::{OpKind, Operation};
use crate::sequential::SeqHistory;
use crate::value::RegisterValue;

/// Each recorded op's id, mapped to its index in the session's history.
type OpIndex = HashMap<OpId, usize, FastBuildHasher>;

/// One event of a [`sync_with_ops`](IncrementalChecker::sync_with_ops) diff or a
/// [`try_extend`](IncrementalChecker::try_extend) batch: an index into the slice
/// being applied, invoked or completed. The buffer holding these lives on the
/// session so a per-delivery monitor poll allocates nothing.
#[derive(Debug, Clone, Copy)]
enum SyncEvent {
    Invoke(usize),
    Complete(usize),
}

/// How an admitted op enters the session: an exact repeat (nothing to apply), a
/// new op, or the completion of the pending op at a history index.
#[derive(Debug, Clone, Copy)]
enum Admitted {
    Repeat,
    New,
    Completes(usize),
}

/// Cumulative counters of one [`IncrementalChecker`] session. Deterministic: a
/// session fed the same event sequence (and asked for verdicts at the same points)
/// reports the same counters on every run, so the tracked bench rows pin them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Operations appended (invocations; a complete op appended in one call counts
    /// once).
    pub ops_appended: u64,
    /// Completion events applied to previously pending ops.
    pub completions: u64,
    /// [`IncrementalChecker::verdict`] calls served.
    pub verdicts: u64,
    /// Per-register cached results reused verbatim (nothing changed, a frozen
    /// failure still exhaustive, or a success untouched by pending-write appends).
    pub registers_reused: u64,
    /// Frozen per-register searches resumed from their success configuration.
    pub registers_resumed: u64,
    /// Per-register searches re-run from scratch (dirty subproblem or geometry
    /// change).
    pub registers_researched: u64,
    /// Memo-table entries alive in a frozen table when a resume re-entered it —
    /// state a from-scratch check would have re-derived.
    pub memo_entries_reused: u64,
    /// Memo-table entries written by this session's own searches (resume
    /// continuations and full re-searches).
    pub memo_entries_rebuilt: u64,
    /// Search states explored by this session's own searches (resume continuations,
    /// re-searches, and full fallbacks) — the incremental cost. Compare with the
    /// batch checker's `states_explored` summed over every prefix.
    pub incremental_states: u64,
    /// Whole-session mirror rebuilds (out-of-order events or an interner id shift).
    pub full_rebuilds: u64,
    /// Verdicts that fell back to one full sequential re-check (budget replay ran
    /// dry, or a register search hit its private state limit).
    pub full_fallbacks: u64,
}

impl IncrementalStats {
    /// Search states explored per appended event — the amortized incremental cost.
    #[must_use]
    pub fn amortized_states_per_op(&self) -> f64 {
        let events = self.ops_appended + self.completions;
        if events == 0 {
            return 0.0;
        }
        self.incremental_states as f64 / events as f64
    }
}

/// The verdict of an [`IncrementalChecker`]: a plain [`Verdict`] — bit-identical to
/// what `Checker::check` returns on the same complete history — plus the session's
/// cumulative [`IncrementalStats`] at the time it was produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncrementalVerdict<V> {
    verdict: Verdict<V>,
    incremental: IncrementalStats,
}

impl<V> IncrementalVerdict<V> {
    /// The underlying batch-identical verdict.
    #[must_use]
    pub fn as_verdict(&self) -> &Verdict<V> {
        &self.verdict
    }

    /// `true` iff the prefix was *proven* linearizable. See
    /// [`Verdict::is_linearizable`].
    #[must_use]
    pub fn is_linearizable(&self) -> bool {
        self.verdict.is_linearizable()
    }

    /// `false` iff the state budget ran out. See [`Verdict::is_conclusive`].
    #[must_use]
    pub fn is_conclusive(&self) -> bool {
        self.verdict.is_conclusive()
    }

    /// The decision as a `Result`. See [`Verdict::outcome`].
    pub fn outcome(&self) -> Result<bool, crate::CheckError> {
        self.verdict.outcome()
    }

    /// The linearization witness, if one was recorded. See [`Verdict::witness`].
    #[must_use]
    pub fn witness(&self) -> Option<&SeqHistory<V>> {
        self.verdict.witness()
    }

    /// Search statistics — bit-identical to the batch checker's. See
    /// [`Verdict::stats`].
    #[must_use]
    pub fn stats(&self) -> CheckStats {
        self.verdict.stats()
    }

    /// The session's cumulative incremental counters when this verdict was produced.
    #[must_use]
    pub fn incremental_stats(&self) -> IncrementalStats {
        self.incremental
    }
}

/// Cached result of one register's last completed search: the local witness order
/// (or `None` for an exhaustive failure) and the exact [`SearchStats`] a
/// from-scratch private-budget search of the *current* subproblem would produce —
/// the invariant every reuse/resume step preserves.
#[derive(Debug)]
struct RegCache {
    order: Option<Vec<u32>>,
    stats: SearchStats,
}

/// One register's persistent state: the incrementally extended subproblem, the
/// scratch holding the frozen DFS of the cached search, and the freeze-time
/// geometry the invalidation rule compares against.
#[derive(Debug)]
struct RegisterSession {
    sub: SubProblem,
    scratch: SearchScratch,
    /// The last completed search. While it succeeded, `scratch` holds its live
    /// frozen stack: every successful search is resumable.
    cached: Option<RegCache>,
    /// Geometry at the search that produced `cached`: taken-bitset words and memo
    /// size class (the frozen table's layout), plus the op/completed counts used to
    /// detect "nothing changed".
    freeze_words: usize,
    freeze_memo_class: usize,
    freeze_len: usize,
    freeze_completed: usize,
    /// Local bitset of completed member ops — the preds row of a safely appended op.
    completed_mask: Vec<u64>,
    /// Max response tick over completed members (0 when none).
    max_resp: u64,
}

impl RegisterSession {
    /// An empty session wrapping an existing arena (possibly warm from the pool);
    /// with nothing cached, the arena's frozen state is ignored until the first fresh
    /// search reinitializes it.
    fn with_scratch(scratch: SearchScratch) -> Self {
        RegisterSession {
            sub: SubProblem {
                ops: Vec::new(),
                preds: Vec::new(),
                words: 1,
                slots: 1,
                completed: 0,
                monotone: true,
            },
            scratch,
            cached: None,
            freeze_words: 0,
            freeze_memo_class: 0,
            freeze_len: 0,
            freeze_completed: 0,
            completed_mask: vec![0],
            max_resp: 0,
        }
    }
}

/// An incremental checking session: feed it operations (and completions of
/// previously pending operations) as they happen, ask for a [`verdict`] after any
/// prefix, and pay amortized sublinear per-op cost on the common linearizable path
/// instead of a full re-check. Built from a configured checker via
/// [`Checker::incremental`](crate::Checker::incremental) or
/// [`CheckerBuilder::build_incremental`](crate::CheckerBuilder::build_incremental).
///
/// Verdicts are bit-identical to `Checker::check` on the same complete history —
/// counters included — at every thread policy; see the [module docs](self) for the
/// reuse/invalidation rule and a live-monitor example.
///
/// [`verdict`]: IncrementalChecker::verdict
#[derive(Debug)]
pub struct IncrementalChecker<V> {
    init: V,
    state_budget: u64,
    witness: bool,
    history: History<V>,
    /// Largest event tick recorded so far (0 when empty).
    max_time: u64,
    /// The search mirror of `history` — searched ops, value interner, register
    /// partition — kept in step with it event by event.
    mirror: Mirror<V>,
    /// One session per register, parallel to `mirror.registers`.
    regs: Vec<RegisterSession>,
    /// History indices of pending ops, ascending.
    pending: Vec<usize>,
    ids: OpIndex,
    /// Reused buffer of the events [`replay`](Self::replay) applies (empty
    /// between calls).
    sync_events: Vec<(u64, SyncEvent)>,
    /// Scratch arenas for new registers and the full-fallback searches.
    pool: ScratchPool,
    /// The last verdict, held until the next event invalidates it. A live monitor
    /// polls after every delivery but the history only changes on invocations and
    /// responses, so most polls are O(1) cache hits.
    cached_verdict: Option<IncrementalVerdict<V>>,
    stats: IncrementalStats,
}

impl<V: RegisterValue> IncrementalChecker<V> {
    pub(crate) fn from_config(init: V, state_budget: u64, witness: bool) -> Self {
        IncrementalChecker {
            mirror: Mirror::new(&[], &init),
            init,
            state_budget,
            witness,
            history: History::new(),
            max_time: 0,
            regs: Vec::new(),
            pending: Vec::new(),
            ids: OpIndex::default(),
            sync_events: Vec::new(),
            pool: ScratchPool::new(),
            cached_verdict: None,
            stats: IncrementalStats::default(),
        }
    }

    /// The history accumulated so far.
    #[must_use]
    pub fn history(&self) -> &History<V> {
        &self.history
    }

    /// Clears the session back to an empty history, keeping its configuration and
    /// warm buffers: register scratch arenas (frozen stacks, memo tables) are parked
    /// in the session's pool and handed back to the next run's registers, and the
    /// history and id index keep their capacity. A monitor restarting on a
    /// fresh run pays for no cold arenas, but the session is observably identical
    /// to a freshly built one — verdicts, counters, everything.
    pub fn reset(&mut self) {
        self.history.clear_ops();
        self.max_time = 0;
        self.mirror = Mirror::new(&[], &self.init);
        for sess in self.regs.drain(..) {
            self.pool.release(sess.scratch);
        }
        self.pending.clear();
        self.ids.clear();
        self.cached_verdict = None;
        self.stats = IncrementalStats::default();
    }

    /// Number of operations (complete or pending) appended so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// `true` iff no operation has been appended yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// The session's cumulative incremental counters.
    #[must_use]
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Appends one operation, or — when `op.id` matches a pending operation already
    /// in the session — applies its completion in place (the op must then agree with
    /// the pending one on process, register, invocation, and written value). An
    /// exact repeat of a recorded operation changes nothing.
    ///
    /// Events arriving in time order (every new invocation and every response after
    /// all events so far) take the incremental fast path. Out-of-order events are
    /// accepted but trigger a full mirror rebuild.
    ///
    /// # Panics
    ///
    /// Panics with the message [`try_extend`](IncrementalChecker::try_extend)
    /// would return: on the malformed inputs [`History::from_operations`] rejects
    /// (a response at or before its own invocation, an event later than
    /// [`Time::LAST`], a completed read with no return value, a reused event
    /// time) and on an op that contradicts the recorded op with its id.
    pub fn append(&mut self, op: Operation<V>) {
        match self.admit(&op) {
            Ok(Admitted::Repeat) => {}
            Ok(Admitted::New) => self.append_new(op),
            Ok(Admitted::Completes(idx)) => self.apply_completion(idx, op),
            Err(message) => panic!("{message}"),
        }
    }

    /// Appends a batch of operations/completions in order; equivalent to calling
    /// [`append`](IncrementalChecker::append) on each.
    pub fn append_batch<I: IntoIterator<Item = Operation<V>>>(&mut self, ops: I) {
        for op in ops {
            self.append(op);
        }
    }

    /// The fallible [`append`](IncrementalChecker::append) of a whole batch, for
    /// untrusted input such as a request body from
    /// [`parse_history`](crate::wire::parse_history). Admits each op in batch
    /// order under `append`'s rules (an exact repeat is skipped and not counted),
    /// then applies the ops before the first rejected one in event-time order,
    /// exactly as [`sync_with_ops`](IncrementalChecker::sync_with_ops) applies a
    /// diff. Returns how many ops were applied, and the rejected op's message.
    /// Never panics.
    pub fn try_extend(&mut self, batch: &History<V>) -> (u64, Result<(), String>) {
        let ops = batch.operations();
        let mut events = std::mem::take(&mut self.sync_events);
        let mut applied = 0;
        let mut result = Ok(());
        for (j, op) in ops.iter().enumerate() {
            match self.admit(op) {
                Ok(Admitted::Repeat) => continue,
                Ok(Admitted::New) => events.push((op.invoked_at.0, SyncEvent::Invoke(j))),
                Ok(Admitted::Completes(_)) => {}
                Err(message) => {
                    result = Err(message);
                    break;
                }
            }
            if let Some(resp) = op.responded_at {
                events.push((resp.0, SyncEvent::Complete(j)));
            }
            applied += 1;
        }
        self.replay(ops, events);
        (applied, result)
    }

    /// Brings the session up to date with `target`, which must be the session's
    /// history grown in place: the same ops at the same positions, where previously
    /// pending ops may have completed and new ops may follow. The diff is replayed
    /// in event-time order, so a monitor polling a live history (e.g. a simulator's
    /// [`History`] snapshot after more steps) stays on the incremental fast path.
    ///
    /// # Panics
    ///
    /// Panics if `target` is shorter than the session's history or disagrees with it
    /// on an already-recorded op.
    pub fn sync_with(&mut self, target: &History<V>) {
        self.sync_with_ops(target.operations());
    }

    /// [`sync_with`](IncrementalChecker::sync_with) on a raw operation slice — the
    /// same grown-in-place contract without materializing a validated [`History`]
    /// first. A live monitor polling a cluster's in-place operation record skips
    /// the per-poll clone-and-revalidate entirely; the session admits each event of
    /// the diff it applies, as [`append`](IncrementalChecker::append) does.
    pub fn sync_with_ops(&mut self, target_ops: &[Operation<V>]) {
        let have = self.history.len();
        assert!(
            target_ops.len() >= have,
            "incremental session: target history has {} ops, session already has {}",
            target_ops.len(),
            have
        );
        debug_assert!(
            self.history
                .operations()
                .iter()
                .zip(target_ops)
                .all(|(a, b)| a.id == b.id && a.invoked_at == b.invoked_at),
            "incremental session: target history diverged from the session's prefix"
        );
        let mut events = std::mem::take(&mut self.sync_events);
        for &idx in &self.pending {
            let theirs = &target_ops[idx];
            assert_eq!(
                self.history.operations()[idx].id,
                theirs.id,
                "incremental session: target history diverged at op {idx}"
            );
            if let Some(resp) = theirs.responded_at {
                events.push((resp.0, SyncEvent::Complete(idx)));
            }
        }
        for (i, op) in target_ops.iter().enumerate().skip(have) {
            events.push((op.invoked_at.0, SyncEvent::Invoke(i)));
            if let Some(resp) = op.responded_at {
                events.push((resp.0, SyncEvent::Complete(i)));
            }
        }
        self.replay(target_ops, events);
    }

    // -- event application ---------------------------------------------------

    /// Appends `events` over `ops` in event-time order, an invocation as the op's
    /// pending form and a completion as the op itself, then hands the emptied
    /// buffer back: the application path of `sync_with_ops` and `try_extend`.
    fn replay(&mut self, ops: &[Operation<V>], mut events: Vec<(u64, SyncEvent)>) {
        events.sort_unstable_by_key(|&(t, _)| t);
        for &(_, ev) in &events {
            match ev {
                SyncEvent::Invoke(i) => {
                    let mut op = ops[i].clone();
                    op.responded_at = None;
                    if matches!(op.kind, OpKind::Read(_)) {
                        op.kind = OpKind::Read(None);
                    }
                    self.append(op);
                }
                SyncEvent::Complete(i) => self.append(ops[i].clone()),
            }
        }
        events.clear();
        self.sync_events = events;
    }

    /// Checks `op` under the event contract (see the [module docs](self)). An
    /// event time after the latest recorded one is fresh without a lookup.
    fn admit(&self, op: &Operation<V>) -> Result<Admitted, String> {
        let ops = self.history.operations();
        let used = |t| {
            ops.iter()
                .any(|o| o.invoked_at == t || o.responded_at == Some(t))
        };
        let fresh = |t: Time| t.0 > self.max_time || !used(t);
        let Some(&idx) = self.ids.get(&op.id) else {
            Validator::check(op, fresh)?;
            return Ok(Admitted::New);
        };
        let recorded = &ops[idx];
        let id = op.id;
        if recorded == op {
            return Ok(Admitted::Repeat);
        }
        if op.is_pending() {
            return Err(format!("`{id}` disagrees with its recorded invocation"));
        }
        if recorded.is_complete() {
            return Err(format!("`{id}` is already completed"));
        }
        let agrees = recorded.process == op.process
            && recorded.register == op.register
            && recorded.invoked_at == op.invoked_at
            && match (&recorded.kind, &op.kind) {
                (OpKind::Write(a), OpKind::Write(b)) => a == b,
                (OpKind::Read(_), OpKind::Read(_)) => true,
                _ => false,
            };
        if !agrees {
            return Err(format!("completion of `{id}` contradicts its invocation"));
        }
        // The invocation is the pending op's own event; only the response is new.
        Validator::check(op, |t| t == op.invoked_at || fresh(t))?;
        Ok(Admitted::Completes(idx))
    }

    fn append_new(&mut self, op: Operation<V>) {
        self.cached_verdict = None;
        let idx = self.history.len();
        let in_order = self.history.is_empty() || op.invoked_at.0 > self.max_time;
        let last_event = op.responded_at.unwrap_or(op.invoked_at).0;
        let searched = op.is_complete() || op.is_write();
        if op.is_pending() {
            self.pending.push(idx);
        }
        self.ids.insert(op.id, idx);
        self.history.push_unchecked(op);
        self.stats.ops_appended += 1;
        if !in_order {
            return self.full_rebuild();
        }
        self.max_time = last_event;
        if searched {
            self.add_searched(self.mirror.searched.len(), idx);
        }
    }

    fn apply_completion(&mut self, idx: usize, op: Operation<V>) {
        self.cached_verdict = None;
        let resp = op.responded_at.expect("an admitted completion responds").0;
        let pending_pos = self
            .pending
            .binary_search(&idx)
            .expect("an admitted completion completes a pending op");
        self.pending.remove(pending_pos);
        let is_write = op.is_write();
        *self.history.op_mut(idx) = op;
        self.stats.completions += 1;
        if resp <= self.max_time {
            // A response landing before an already-recorded event.
            return self.full_rebuild();
        }
        self.max_time = resp;
        let p = self
            .mirror
            .searched
            .partition_point(|s| (s.index as usize) < idx);
        if !is_write {
            // Pending read completing: the one event that joins the searched list at
            // an *interior* position when any searched op was invoked after it.
            return self.add_searched(p, idx);
        }
        // Flip the pending write in place: its response is the latest event, so no
        // precedence row changes and the frozen search stays resumable.
        let register = self.history.operations()[idx].register;
        let k = self
            .mirror
            .registers
            .binary_search(&register)
            .expect("pending write's register has a session");
        let local = self.mirror.members[k]
            .binary_search(&(p as u32))
            .expect("pending write is a member");
        let sess = &mut self.regs[k];
        sess.sub.ops[local].completed = true;
        sess.sub.completed += 1;
        sess.scratch.complete_in_place(local);
        sess.completed_mask[local / WORD_BITS] |= 1u64 << (local % WORD_BITS);
        sess.max_resp = sess.max_resp.max(resp);
    }

    /// Records history op `idx` as searched op `p` in the mirror and in its register's
    /// subproblem. Fast path, O(words): the op lands last in the searched list, the
    /// bitset stride holds, and every completed member responded before it was
    /// invoked, so its preds row is the completed mask. Otherwise the register is
    /// rebuilt, dropping its cache — or the whole mirror, when a mid-list insert
    /// would shift the interned ids.
    fn add_searched(&mut self, p: usize, idx: usize) {
        let ops = self.history.operations();
        let Some((k, new_register)) = self.mirror.insert(ops, p, idx) else {
            return self.full_rebuild();
        };
        if new_register {
            self.regs
                .insert(k, RegisterSession::with_scratch(self.pool.acquire()));
        }
        let op = &ops[idx];
        let last = p + 1 == self.mirror.searched.len();
        let sess = &mut self.regs[k];
        let n = sess.sub.ops.len();
        if last
            && words_for(n + 1) <= sess.sub.words
            && (op.invoked_at.0 > sess.max_resp || sess.sub.completed == 0)
        {
            sess.sub.ops.push(LocalOp {
                global: p as u32,
                slot: 0,
                value: self.mirror.searched[p].value,
                is_write: op.is_write(),
                completed: op.is_complete(),
            });
            sess.sub.preds.extend_from_slice(&sess.completed_mask);
            // Rows hold only completed members, so the completed mask contains the
            // row before it and the rows stay exactly as monotone as they were.
            debug_assert!(n == 0 || row_contains(&sess.sub.preds, sess.sub.words, n, n - 1));
            if let Some(resp) = op.responded_at {
                sess.sub.completed += 1;
                sess.completed_mask[n / WORD_BITS] |= 1u64 << (n % WORD_BITS);
                sess.max_resp = sess.max_resp.max(resp.0);
            }
            return;
        }
        if !last {
            for lop in self.regs.iter_mut().flat_map(|sess| &mut sess.sub.ops) {
                if lop.global >= p as u32 {
                    lop.global += 1;
                }
            }
        }
        self.rebuild_register(k);
    }

    /// Rebuilds register `k`'s subproblem with the mirror's constructor (rows
    /// included) and drops its cache. The scratch is kept for its warm buffers.
    fn rebuild_register(&mut self, k: usize) {
        let ops = self.history.operations();
        let sess = &mut self.regs[k];
        sess.sub = self.mirror.subproblem(ops, k);
        sess.completed_mask = vec![0; sess.sub.words];
        sess.max_resp = 0;
        for (local, lop) in sess.sub.ops.iter().enumerate() {
            if let Some(resp) = self.mirror.op(ops, lop.global as usize).responded_at {
                sess.max_resp = sess.max_resp.max(resp.0);
                sess.completed_mask[local / WORD_BITS] |= 1u64 << (local % WORD_BITS);
            }
        }
        sess.cached = None;
    }

    /// Rebuilds the whole mirror — searched ops, interner, registers, subproblems —
    /// from the history with the engine's constructor, dropping every cache. The rare
    /// slow path behind out-of-order events and interner id shifts.
    fn full_rebuild(&mut self) {
        self.stats.full_rebuilds += 1;
        self.max_time = self.history.max_time().0;
        self.mirror = Mirror::new(self.history.operations(), &self.init);
        let mut old_scratch: Vec<SearchScratch> = self.regs.drain(..).map(|s| s.scratch).collect();
        self.regs = self
            .mirror
            .registers
            .iter()
            .map(|_| {
                let scratch = old_scratch.pop().unwrap_or_else(|| self.pool.acquire());
                RegisterSession::with_scratch(scratch)
            })
            .collect();
        for k in 0..self.regs.len() {
            self.rebuild_register(k);
        }
    }

    // -- verdicts ------------------------------------------------------------

    /// Ensures register `k` holds a cached result that equals a from-scratch
    /// private-budget search of its current subproblem, reusing or resuming the
    /// frozen search whenever the invalidation rule allows.
    fn ensure_register(&mut self, k: usize) {
        let limit = self.state_budget;
        let Self { regs, stats, .. } = self;
        let sess = &mut regs[k];
        let n = sess.sub.ops.len();
        if let Some(cache) = &sess.cached {
            if n == sess.freeze_len && sess.sub.completed == sess.freeze_completed {
                stats.registers_reused += 1;
                return;
            }
            if words_for(n) == sess.freeze_words && memo_size_class(n) == sess.freeze_memo_class {
                if cache.order.is_none() || sess.scratch.frozen_completed() == sess.sub.completed {
                    // A completed exhaustive failure never reached an all-completed
                    // configuration, so safely appended ops never unlock: the
                    // from-scratch trajectory — counters included — is unchanged.
                    // Likewise a success whose frozen order already takes every
                    // completed op: only pending writes were appended and/or pending
                    // writes the frozen search had taken completed in place. Neither
                    // changes candidacy or memo keys, so a from-scratch search
                    // replays the frozen trajectory verbatim and its success test
                    // now passes at the very same configuration — order, counters,
                    // and frozen stack are all unchanged.
                    sess.freeze_len = n;
                    sess.freeze_completed = sess.sub.completed;
                    stats.registers_reused += 1;
                    return;
                }
                let cache = sess.cached.take().expect("checked above");
                let frozen_states = cache.stats.states_explored;
                let mut search_stats = cache.stats;
                let mut budget = limit - frozen_states;
                let reused = sess.scratch.memo_entries();
                let order =
                    resume_witness(&sess.sub, &mut budget, &mut search_stats, &mut sess.scratch);
                stats.registers_resumed += 1;
                stats.memo_entries_reused += reused;
                stats.memo_entries_rebuilt += sess.scratch.memo_entries().saturating_sub(reused);
                stats.incremental_states +=
                    search_stats.states_explored.saturating_sub(frozen_states);
                if !search_stats.limit_hit {
                    sess.freeze_len = n;
                    sess.freeze_completed = sess.sub.completed;
                    sess.cached = Some(RegCache {
                        order,
                        stats: search_stats,
                    });
                }
                return;
            }
        }
        let mut search_stats = SearchStats::default();
        let mut budget = limit;
        let order = search_witness(&sess.sub, &mut budget, &mut search_stats, &mut sess.scratch);
        stats.registers_researched += 1;
        stats.incremental_states += search_stats.states_explored;
        stats.memo_entries_rebuilt += sess.scratch.memo_entries();
        if search_stats.limit_hit {
            sess.cached = None;
        } else {
            sess.freeze_len = n;
            sess.freeze_completed = sess.sub.completed;
            sess.freeze_words = words_for(n);
            sess.freeze_memo_class = memo_size_class(n);
            sess.cached = Some(RegCache {
                order,
                stats: search_stats,
            });
        }
    }

    /// Checks the history accumulated so far, reusing every per-register search the
    /// invalidation rule lets survive. The result is bit-identical — decision,
    /// witness, and statistics — to `Checker::check` on the same complete history at
    /// every thread policy.
    ///
    /// Verdicts are cached between events: polling again before the next append or
    /// completion returns the held verdict in O(1) (with the `verdicts` counter
    /// advanced; every other counter only moves on fresh computation). A live
    /// monitor can therefore re-ask after every delivery for free while the
    /// history is quiet.
    pub fn verdict(&mut self) -> IncrementalVerdict<V> {
        self.verdict_ref().clone()
    }

    /// [`verdict`](IncrementalChecker::verdict) by reference: identical semantics
    /// (and the same between-event cache), without cloning the verdict — and with
    /// witness recording on, a witness — on every poll. The borrow ends at the next
    /// append, so hot loops that only inspect the outcome should prefer this.
    pub fn verdict_ref(&mut self) -> &IncrementalVerdict<V> {
        self.stats.verdicts += 1;
        if self.cached_verdict.is_none() {
            let fresh = self.compute_verdict();
            self.cached_verdict = Some(fresh);
        }
        let stats = self.stats;
        let cached = self.cached_verdict.as_mut().expect("just filled");
        cached.incremental = stats;
        cached
    }

    /// HLL sketch of the distinct search configurations the session's cached
    /// per-register searches memoized — the union, by element-wise max merge, of
    /// each register's [`StateSketch`] (see [`Checker::check_sketched`]). Brings
    /// every register's cache up to date first, so the result matches what a
    /// from-scratch batch check of the current prefix would sketch whenever the
    /// shared budget replay would not run dry.
    ///
    /// [`Checker::check_sketched`]: crate::checker::Checker::check_sketched
    pub fn state_sketch(&mut self) -> StateSketch {
        let mut sketch = StateSketch::default();
        for k in 0..self.regs.len() {
            self.ensure_register(k);
        }
        for sess in &self.regs {
            if let Some(cache) = &sess.cached {
                sketch.merge(&cache.stats.sketch);
            }
        }
        sketch
    }

    fn compute_verdict(&mut self) -> IncrementalVerdict<V> {
        for k in 0..self.regs.len() {
            self.ensure_register(k);
        }
        // Replay the batch engine's shared-budget accounting in register order over
        // the cached private-budget searches. The moment it detects the shared
        // budget would have run dry, run one full re-check instead of guessing.
        let mut consumed = 0u64;
        let mut stats = SearchStats::default();
        for sess in &self.regs {
            let Some(cache) = &sess.cached else {
                return self.full_fallback();
            };
            if cache.stats.limit_hit || consumed + cache.stats.states_explored > self.state_budget {
                return self.full_fallback();
            }
            consumed += cache.stats.states_explored;
            stats.absorb(&cache.stats);
            if cache.order.is_none() {
                return self.finish(CheckOutcome::new(None, stats));
            }
        }
        // Decision-only fast path: with at most one register there is nothing to
        // merge (a lone witness order is trivially a global order), and with
        // witness recording off the order itself is never observed — the batch
        // checker would compute it and throw it away. This keeps the per-verdict
        // cost of a single-register monitoring stream free of O(history) work.
        if !self.witness && self.regs.len() <= 1 {
            // Any order stands for "found": with witness recording off it is
            // never materialized.
            return self.finish(CheckOutcome::new(Some(Vec::new()), stats));
        }
        let per_register = self.regs.iter().map(|sess| {
            let cache = sess.cached.as_ref().expect("ensured above");
            (
                &sess.sub,
                cache.order.as_deref().expect("no register failed"),
            )
        });
        // The merge's joint-search fallback, should it ever run, picks up the
        // shared budget exactly where the batch checker's would.
        let mut budget = self.state_budget - consumed;
        let explored = stats.states_explored;
        let order = self.mirror.witness_order(
            self.history.operations(),
            per_register,
            &mut budget,
            &mut stats,
            &mut SearchScratch::default(),
        );
        self.stats.incremental_states += stats.states_explored - explored;
        self.finish(CheckOutcome::new(order, stats))
    }

    /// The session's verdict from a search outcome over the mirror's searched ops.
    fn finish(&self, outcome: CheckOutcome) -> IncrementalVerdict<V> {
        let ops = self.history.operations();
        IncrementalVerdict {
            verdict: Verdict::from_outcome(&outcome, self.witness, |order| {
                order_to_seq(&self.history, order.iter().map(|&g| self.mirror.op(ops, g)))
            }),
            incremental: self.stats,
        }
    }

    /// One full re-check of the accumulated history: the batch engine's sequential
    /// search over the session's own per-register subproblems, with the shared
    /// budget — definitionally bit-identical to `Checker::check`. The escape hatch
    /// for budget-replay misses and limit-hit register searches.
    fn full_fallback(&mut self) -> IncrementalVerdict<V> {
        self.stats.full_fallbacks += 1;
        let outcome = check_registers(
            &self.mirror,
            self.history.operations(),
            self.regs.iter().map(|sess| &sess.sub),
            self.state_budget,
            &self.pool,
        );
        self.stats.incremental_states += outcome.states_explored;
        self.finish(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{Checker, CheckerBuilder};
    use crate::ids::{ProcessId, RegisterId, Time};

    struct Lcg(u64);

    impl Lcg {
        fn new(seed: u64) -> Self {
            Lcg(seed ^ 0x9e37_79b9_7f4a_7c15)
        }

        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.0 >> 33
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Simulated event loop: at every tick either a new op is invoked or a random
    /// in-flight op responds, so the histories are genuinely concurrent. Reads
    /// usually return the last committed write of their register (keeping a good
    /// fraction of histories linearizable) but sometimes a random value, so
    /// non-linearizable prefixes show up too. A final pass erases a few responses
    /// to leave ops pending forever.
    fn random_history(seed: u64, ops: usize, registers: u64, values: u64) -> History<i64> {
        let mut rng = Lcg::new(seed);
        let mut out: Vec<Operation<i64>> = Vec::new();
        let mut inflight: Vec<usize> = Vec::new();
        let mut committed: Vec<i64> = vec![0; registers as usize];
        let mut tick = 0u64;
        let mut invoked = 0usize;
        while invoked < ops || !inflight.is_empty() {
            tick += 1;
            let invoke = invoked < ops && (inflight.is_empty() || rng.below(2) == 0);
            if invoke {
                let register = RegisterId(rng.below(registers) as usize);
                let kind = if rng.below(2) == 0 {
                    OpKind::Write(rng.below(values) as i64)
                } else {
                    OpKind::Read(None)
                };
                out.push(Operation {
                    id: OpId(invoked as u64),
                    process: ProcessId(invoked),
                    register,
                    kind,
                    invoked_at: Time(tick),
                    responded_at: None,
                });
                inflight.push(invoked);
                invoked += 1;
            } else {
                let pick = rng.below(inflight.len() as u64) as usize;
                let idx = inflight.swap_remove(pick);
                let reg = out[idx].register.0;
                match out[idx].kind {
                    OpKind::Write(v) => committed[reg] = v,
                    OpKind::Read(_) => {
                        let v = if rng.below(4) < 3 {
                            committed[reg]
                        } else {
                            rng.below(values) as i64
                        };
                        out[idx].kind = OpKind::Read(Some(v));
                    }
                }
                out[idx].responded_at = Some(Time(tick));
            }
        }
        for op in &mut out {
            if rng.below(8) == 0 {
                op.responded_at = None;
                if let OpKind::Read(_) = op.kind {
                    op.kind = OpKind::Read(None);
                }
            }
        }
        History::from_operations(out)
    }

    /// Grows `history` one event at a time through `sync_with` and asserts the
    /// incremental verdict is bit-identical (decision, witness, and counters) to a
    /// batch `Checker::check` of the same prefix, and the session's mirror equal to
    /// a fresh build.
    fn assert_equiv_at_every_prefix(
        history: &History<i64>,
        config: impl Fn() -> CheckerBuilder<i64>,
    ) {
        let checker = config().build();
        let mut session = config().build_incremental();
        for prefix in history.all_prefixes() {
            session.sync_with(&prefix);
            assert_fresh_mirror(&session);
            let incremental = session.verdict();
            let batch = checker.check(&prefix);
            assert_eq!(
                incremental.as_verdict(),
                &batch,
                "divergence at prefix cut {:?} of history:\n{}",
                prefix.max_time(),
                history
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        #[test]
        fn incremental_matches_batch_at_every_prefix(seed in 0u64..1_000_000) {
            let history = random_history(seed, 12, 2, 3);
            assert_equiv_at_every_prefix(&history, || Checker::builder(0i64));
        }

        #[test]
        fn incremental_matches_batch_single_register_dense(seed in 0u64..1_000_000) {
            // One register and two values: maximal op interleaving per register,
            // exercising resume and mid-list read completions hard.
            let history = random_history(seed, 14, 1, 2);
            assert_equiv_at_every_prefix(&history, || Checker::builder(0i64));
        }

        #[test]
        fn incremental_matches_batch_tiny_budget(seed in 0u64..1_000_000) {
            // A budget this small trips the shared-budget replay and the full
            // sequential fallback; the inconclusive verdicts must still agree.
            let history = random_history(seed, 12, 2, 3);
            assert_equiv_at_every_prefix(&history, || {
                Checker::builder(0i64).state_budget(6)
            });
        }

        #[test]
        fn incremental_matches_batch_no_witness(seed in 0u64..1_000_000) {
            let history = random_history(seed, 12, 2, 3);
            assert_equiv_at_every_prefix(&history, || {
                Checker::builder(0i64).witness(false)
            });
        }

        #[test]
        fn incremental_matches_batch_with_many_values(seed in 0u64..1_000_000) {
            // Up to 64 values: sessions cross the interner's 16-value spill while
            // mid-list read completions shift ids and force full rebuilds.
            let history = random_history(seed, 40, 2, 64);
            assert_equiv_at_every_prefix(&history, || Checker::builder(0i64));
        }
    }

    /// A reset session is observably identical to a freshly built one — verdicts
    /// and counters — even on a history unlike the one it saw before the reset
    /// (different register count, so the parked arenas land in new registers).
    #[test]
    fn reset_session_matches_fresh() {
        for seed in [3u64, 17, 91] {
            let first = random_history(seed, 12, 2, 3);
            let second = random_history(seed.wrapping_add(1000), 14, 1, 2);
            let mut reused = Checker::builder(0i64).build_incremental();
            for prefix in first.all_prefixes() {
                reused.sync_with(&prefix);
                reused.verdict();
            }
            reused.reset();
            assert!(reused.is_empty(), "reset leaves an empty history");
            let mut fresh = Checker::builder(0i64).build_incremental();
            for prefix in second.all_prefixes() {
                reused.sync_with(&prefix);
                fresh.sync_with(&prefix);
                let r = reused.verdict();
                let f = fresh.verdict();
                assert_eq!(r.as_verdict(), f.as_verdict(), "seed {seed}");
                assert_eq!(r.incremental_stats(), f.incremental_stats(), "seed {seed}");
            }
        }
    }

    /// Fully serial single-register stream: every append lands on the resume fast
    /// path, so the session must report resumed registers and reused memo entries,
    /// and its total search cost must stay far below the batch checker's
    /// sum-over-prefixes cost.
    #[test]
    fn serial_stream_resumes_and_is_sublinear() {
        let n = 40u64;
        let checker = Checker::new(0i64);
        let mut session = checker.incremental();
        let mut batch_states = 0u64;
        let mut ops = Vec::new();
        for i in 0..n {
            let kind = if i % 2 == 0 {
                OpKind::Write(i as i64)
            } else {
                OpKind::Read(Some((i - 1) as i64))
            };
            ops.push(Operation {
                id: OpId(i),
                process: ProcessId(0),
                register: RegisterId(0),
                kind,
                invoked_at: Time(2 * i + 1),
                responded_at: Some(Time(2 * i + 2)),
            });
            session.append(ops.last().cloned().unwrap());
            let incremental = session.verdict();
            let batch = checker.check(&History::from_operations(ops.clone()));
            assert_eq!(incremental.as_verdict(), &batch);
            batch_states += batch.stats().states_explored;
        }
        let stats = session.stats();
        assert_eq!(stats.ops_appended, n);
        assert!(stats.registers_resumed > 0, "{stats:?}");
        assert!(stats.memo_entries_reused > 0, "{stats:?}");
        assert_eq!(stats.full_rebuilds, 0, "{stats:?}");
        assert_eq!(stats.full_fallbacks, 0, "{stats:?}");
        // Amortized cost: the session explores O(1) new states per op, while the
        // batch sum over prefixes is quadratic.
        assert!(
            stats.incremental_states * 4 < batch_states,
            "incremental {} vs batch-sum {batch_states}",
            stats.incremental_states
        );
    }

    /// 70 serial ops cross the 64-op taken-bitset word boundary, forcing the
    /// geometry guard to re-search instead of resuming with a stale layout.
    #[test]
    fn word_boundary_crossing_stays_identical() {
        let checker = Checker::new(0i64);
        let mut session = checker.incremental();
        let mut ops = Vec::new();
        for i in 0..70u64 {
            ops.push(Operation {
                id: OpId(i),
                process: ProcessId(0),
                register: RegisterId(0),
                kind: OpKind::Write(i as i64),
                invoked_at: Time(2 * i + 1),
                responded_at: Some(Time(2 * i + 2)),
            });
            session.append(ops.last().cloned().unwrap());
            let incremental = session.verdict();
            let batch = checker.check(&History::from_operations(ops.clone()));
            assert_eq!(incremental.as_verdict(), &batch, "at op {i}");
        }
        assert!(session.stats().registers_researched > 0);
    }

    /// A completion at `u64::MAX` would leave the witness no tick for the pending
    /// write's response.
    #[test]
    #[should_panic(expected = "after the last event time")]
    fn append_rejects_an_event_after_the_last_time() {
        let mut session = Checker::new(0i64).incremental();
        session.append(Operation {
            id: OpId(0),
            process: ProcessId(0),
            register: RegisterId(0),
            kind: OpKind::Write(1i64),
            invoked_at: Time(1),
            responded_at: None,
        });
        session.append(Operation {
            id: OpId(1),
            process: ProcessId(1),
            register: RegisterId(0),
            kind: OpKind::Read(Some(1i64)),
            invoked_at: Time(2),
            responded_at: Some(Time(u64::MAX)),
        });
    }

    /// A pending read completing after a later write was invoked is the mid-list
    /// insert case: its register is rebuilt, the verdict still matches batch.
    #[test]
    fn mid_list_pending_read_completion() {
        let checker = Checker::new(0i64);
        let mut session = checker.incremental();
        let w0 = Operation {
            id: OpId(0),
            process: ProcessId(0),
            register: RegisterId(0),
            kind: OpKind::Write(1i64),
            invoked_at: Time(1),
            responded_at: Some(Time(2)),
        };
        let r1_pending = Operation {
            id: OpId(1),
            process: ProcessId(1),
            register: RegisterId(0),
            kind: OpKind::Read(None),
            invoked_at: Time(3),
            responded_at: None,
        };
        let w2 = Operation {
            id: OpId(2),
            process: ProcessId(2),
            register: RegisterId(0),
            kind: OpKind::Write(2i64),
            invoked_at: Time(4),
            responded_at: Some(Time(5)),
        };
        session.append_batch([w0.clone(), r1_pending.clone(), w2.clone()]);
        assert!(session.verdict().is_linearizable());
        // The read responds last but was invoked before w2: mid-list insert.
        let r1_done = Operation {
            kind: OpKind::Read(Some(1i64)),
            responded_at: Some(Time(6)),
            ..r1_pending
        };
        session.append(r1_done.clone());
        let incremental = session.verdict();
        let batch = checker.check(&History::from_operations(vec![w0, r1_done, w2]));
        assert_eq!(incremental.as_verdict(), &batch);
        assert!(incremental.is_linearizable());
        assert_eq!(session.stats().completions, 1);
        assert_eq!(session.stats().full_rebuilds, 0);
    }

    /// Appending an op whose invocation is not after every recorded event is
    /// accepted via the full-rebuild slow path and still matches batch.
    #[test]
    fn out_of_order_append_rebuilds_and_matches() {
        let checker = Checker::new(0i64);
        let mut session = checker.incremental();
        let late = Operation {
            id: OpId(0),
            process: ProcessId(0),
            register: RegisterId(0),
            kind: OpKind::Write(5i64),
            invoked_at: Time(10),
            responded_at: Some(Time(11)),
        };
        let early = Operation {
            id: OpId(1),
            process: ProcessId(1),
            register: RegisterId(0),
            kind: OpKind::Read(Some(0i64)),
            invoked_at: Time(1),
            responded_at: Some(Time(2)),
        };
        session.append(late.clone());
        session.append(early.clone());
        assert!(session.stats().full_rebuilds > 0);
        let incremental = session.verdict();
        let batch = checker.check(&History::from_operations(vec![late, early]));
        assert_eq!(incremental.as_verdict(), &batch);
        assert!(incremental.is_linearizable());
    }

    /// Asserts the session's whole mirror equals a fresh build from its history —
    /// the searched ops, each interned id with its first sight, the registers and
    /// their members — and each register's subproblem equals a fresh one: ops,
    /// preds rows, completed count and `monotone` flag. Returns the flags.
    fn assert_fresh_mirror(session: &IncrementalChecker<i64>) -> Vec<bool> {
        let ops = session.history.operations();
        let fresh = Mirror::new(ops, &session.init);
        let (mirror, at) = (&session.mirror, &session.history);
        let n = session.len();
        assert_eq!(mirror.searched, fresh.searched, "after {n} ops:\n{at}");
        assert_eq!(mirror.values, fresh.values, "after {n} ops:\n{at}");
        assert_eq!(mirror.registers, fresh.registers, "after {n} ops:\n{at}");
        assert_eq!(mirror.members, fresh.members, "after {n} ops:\n{at}");
        assert_eq!(session.regs.len(), fresh.registers.len());
        let subs = session.regs.iter().map(|sess| &sess.sub);
        subs.enumerate()
            .map(|(k, sub)| {
                let register = fresh.registers[k];
                let fresh_sub = fresh.subproblem(ops, k);
                assert_eq!(sub, &fresh_sub, "{register:?} after {n} ops:\n{at}");
                sub.monotone
            })
            .collect()
    }

    /// The mirror, and with it the `monotone` flag, stays equal to a fresh build after
    /// every event: fast-path appends, a pending-write flip, a mid-list read
    /// completion (register rebuild) and an out-of-order append (full rebuild), which
    /// makes register 0's rows non-monotone for good.
    #[test]
    fn monotone_flag_matches_a_fresh_subproblem_after_every_event() {
        let op =
            |id: u64, register: usize, kind: OpKind<i64>, inv: u64, resp: Option<u64>| Operation {
                id: OpId(id),
                process: ProcessId(id as usize),
                register: RegisterId(register),
                kind,
                invoked_at: Time(inv),
                responded_at: resp.map(Time),
            };
        let events = [
            op(0, 0, OpKind::Write(1), 10, Some(20)),
            op(1, 0, OpKind::Read(None), 30, None),
            op(2, 0, OpKind::Write(2), 40, None),
            op(3, 1, OpKind::Write(7), 50, Some(60)),
            // Pending-write flip.
            op(2, 0, OpKind::Write(2), 40, Some(70)),
            op(4, 0, OpKind::Write(3), 80, Some(90)),
            // The read was invoked before ops 2 and 4: mid-list insert.
            op(1, 0, OpKind::Read(Some(1)), 30, Some(100)),
            op(5, 0, OpKind::Read(Some(3)), 110, Some(120)),
            // Invoked at t25, listed last: its row lacks op 5's predecessors.
            op(6, 0, OpKind::Write(4), 25, Some(130)),
            op(7, 0, OpKind::Read(Some(4)), 140, Some(150)),
        ];
        let checker = Checker::new(0i64);
        let mut session = checker.incremental();
        let mut flags = Vec::new();
        for event in events {
            session.append(event);
            flags.push(assert_fresh_mirror(&session));
        }
        assert_eq!(session.stats().full_rebuilds, 1);
        assert_eq!(flags[7], [true, true]);
        assert_eq!(flags[8], [false, true]);
        assert_eq!(flags[9], [false, true]);
        assert_eq!(
            session.verdict().as_verdict(),
            &checker.check(session.history())
        );

        for seed in 0..32u64 {
            let history = random_history(seed, 14, 2, 3);
            let mut session = checker.incremental();
            for prefix in history.all_prefixes() {
                session.sync_with(&prefix);
                assert_fresh_mirror(&session);
            }
        }
    }

    /// Coarse sync granularity (jump straight to the final history) must agree
    /// with fine-grained per-event syncs and with batch.
    #[test]
    fn sync_granularity_does_not_change_the_verdict() {
        for seed in 0..16u64 {
            let history = random_history(seed, 12, 2, 3);
            let checker = Checker::new(0i64);
            let mut fine = checker.incremental();
            for prefix in history.all_prefixes() {
                fine.sync_with(&prefix);
            }
            let mut coarse = checker.incremental();
            coarse.sync_with(&history);
            let batch = checker.check(&history);
            assert_eq!(fine.verdict().as_verdict(), &batch, "seed {seed}");
            assert_eq!(coarse.verdict().as_verdict(), &batch, "seed {seed}");
        }
    }

    fn event(
        id: u64,
        process: usize,
        register: usize,
        kind: OpKind<i64>,
        inv: u64,
        resp: Option<u64>,
    ) -> Operation<i64> {
        Operation {
            id: OpId(id),
            process: ProcessId(process),
            register: RegisterId(register),
            kind,
            invoked_at: Time(inv),
            responded_at: resp.map(Time),
        }
    }

    /// The recorded ops of [`seeded_session`]: a completed write `op0`, a pending
    /// write `op1` and a completed read `op2`, at t1..t5.
    fn recorded() -> Vec<Operation<i64>> {
        vec![
            event(0, 0, 0, OpKind::Write(1), 1, Some(2)),
            event(1, 1, 0, OpKind::Write(2), 3, None),
            event(2, 2, 0, OpKind::Read(Some(1)), 4, Some(5)),
        ]
    }

    fn seeded_session() -> IncrementalChecker<i64> {
        let mut session = Checker::new(0i64).incremental();
        session.append_batch(recorded());
        session
    }

    /// Every rejected op names itself, and a rejected batch leaves the session's
    /// verdict and counters exactly as they were.
    #[test]
    fn try_extend_rejects_without_touching_the_session() {
        let cases = [
            (
                "a reused invocation time",
                event(3, 3, 0, OpKind::Write(9), 2, Some(6)),
            ),
            (
                "a reused response time",
                event(1, 1, 0, OpKind::Write(2), 3, Some(5)),
            ),
            (
                "a changed process",
                event(1, 9, 0, OpKind::Write(2), 3, Some(6)),
            ),
            (
                "a changed register",
                event(1, 1, 1, OpKind::Write(2), 3, Some(6)),
            ),
            (
                "a changed invocation",
                event(1, 1, 0, OpKind::Write(2), 0, Some(6)),
            ),
            (
                "a changed written value",
                event(1, 1, 0, OpKind::Write(7), 3, Some(6)),
            ),
            (
                "a pending re-send",
                event(1, 1, 0, OpKind::Write(7), 3, None),
            ),
            (
                "a second completion",
                event(0, 0, 0, OpKind::Write(1), 1, Some(6)),
            ),
        ];
        for (what, bad) in cases {
            let mut session = seeded_session();
            let verdict = session.verdict();
            let stats = session.stats();
            let named = format!("`{}`", bad.id);
            let (applied, result) = session.try_extend(&History::from_operations(vec![bad]));
            let message = result.expect_err(what);
            assert!(message.contains(&named), "{what}: {message}");
            assert_eq!(applied, 0, "{what}");
            assert_eq!(session.stats(), stats, "{what}");
            assert_eq!(session.history().operations(), recorded(), "{what}");
            assert_eq!(
                session.verdict().as_verdict(),
                verdict.as_verdict(),
                "{what}"
            );
        }
    }

    /// An exact repeat of recorded ops applies nothing and keeps the held verdict.
    #[test]
    fn an_exact_repeat_applies_nothing() {
        let mut session = seeded_session();
        let verdict = session.verdict();
        let stats = session.stats();
        let (applied, result) = session.try_extend(&History::from_operations(recorded()));
        assert_eq!((applied, result), (0, Ok(())));
        assert_eq!(session.stats(), stats);
        // The held verdict survives: the poll moves only the `verdicts` counter.
        let mut held = verdict;
        held.incremental.verdicts += 1;
        assert_eq!(session.verdict(), held);
    }

    /// A batch holding exactly a target's diff — completions of pending ops and
    /// new ops — applies as `sync_with` on that target does: same verdict, same
    /// counters.
    #[test]
    fn try_extend_of_a_diff_matches_sync_with() {
        let checker = Checker::new(0i64);
        for seed in 0..16u64 {
            let history = random_history(seed, 12, 2, 3);
            for &cut in history.event_times().iter().step_by(3) {
                let prefix = history.prefix_at(cut);
                let diff: Vec<Operation<i64>> = history
                    .operations()
                    .iter()
                    .enumerate()
                    .filter(|&(i, op)| prefix.operations().get(i) != Some(op))
                    .map(|(_, op)| op.clone())
                    .collect();
                let mut synced = checker.incremental();
                let mut extended = checker.incremental();
                for session in [&mut synced, &mut extended] {
                    session.sync_with(&prefix);
                    session.verdict();
                }
                synced.sync_with(&history);
                let batch = History::from_operations(diff);
                let (applied, result) = extended.try_extend(&batch);
                assert_eq!((applied, result), (batch.len() as u64, Ok(())));
                assert_eq!(
                    extended.verdict(),
                    synced.verdict(),
                    "seed {seed} cut {cut:?}"
                );
                assert_eq!(
                    extended.history(),
                    synced.history(),
                    "seed {seed} cut {cut:?}"
                );
            }
        }
    }

    /// Tiny state budgets force the verdict-time replay into the full sequential
    /// fallback; the session must report it and agree with batch.
    #[test]
    fn budget_fallback_reported_and_identical() {
        let history = random_history(3, 10, 1, 2);
        let config = || Checker::builder(0i64).state_budget(2);
        let checker = config().build();
        let mut session = config().build_incremental();
        session.sync_with(&history);
        let incremental = session.verdict();
        let batch = checker.check(&history);
        assert_eq!(incremental.as_verdict(), &batch);
        assert!(session.stats().full_fallbacks > 0);
    }
}
