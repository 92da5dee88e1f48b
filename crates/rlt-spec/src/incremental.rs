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
//! * the value interner (first-sight dense ids, identical to the engine's),
//! * one persistent subproblem per register — op list, precedence bitsets, and
//!   completed counts extended in O(words) per appended op,
//! * one persistent [`SearchScratch`] per register holding the **frozen DFS** of the
//!   last successful search: stack, taken bitset, partial order, and the arena-backed
//!   memo table, resumed in place by [`resume_witness`](crate::engine) instead of
//!   re-descending from the empty configuration.
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
//!   the history is revalidated and the session mirror fully rebuilt.
//!
//! Per-register searches run with private full budgets; verdict time replays the
//! batch engine's shared-budget accounting in register order and falls back to one
//! full re-check the moment the replay detects the shared budget would have run dry.
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

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use crate::checker::{order_to_seq, CheckStats, Verdict};
use crate::engine::{
    memo_size_class, merge_witness_orders, resume_witness, search_witness, words_for, Engine,
    LocalOp, ScratchPool, SearchScratch, SearchStats, StateSketch, SubProblem, WORD_BITS,
};
use crate::history::History;
use crate::ids::{OpId, RegisterId};
use crate::op::{OpKind, Operation};
use crate::sequential::SeqHistory;
use crate::value::RegisterValue;

/// Multiplicative hasher for [`OpId`]s: the id is a single `u64`, so a Fibonacci
/// multiply mixes it far cheaper than SipHash while keeping high bits well spread
/// for the table's mask. Duplicate-id detection runs once per appended op — on the
/// hot monitoring path — which is why the default DoS-resistant hasher is overkill.
#[derive(Debug, Default)]
struct OpIdHasher(u64);

impl Hasher for OpIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("OpId hashes as a single u64");
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type OpIdSet = HashSet<OpId, BuildHasherDefault<OpIdHasher>>;

/// One diffed event of a [`sync_with_ops`](IncrementalChecker::sync_with_ops) call:
/// an index into the target slice, invoked or completed. The buffer holding these
/// lives on the session so a per-delivery monitor poll allocates nothing.
#[derive(Debug, Clone, Copy)]
enum SyncEvent {
    Invoke(usize),
    Complete(usize),
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

    /// Consumes the wrapper, yielding the batch-identical verdict.
    #[must_use]
    pub fn into_verdict(self) -> Verdict<V> {
        self.verdict
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

/// Owned mirror of the engine's value interner: dense first-sight ids over the
/// filtered op list, the initial value always id 0. Also remembers each id's
/// first-sight filtered position, which decides whether a mid-list read insert
/// preserves the engine's id assignment.
#[derive(Debug)]
struct OwnedInterner<V> {
    values: Vec<V>,
    /// Filtered position of each id's first sight; `usize::MAX` for the initial
    /// value (interned before any op).
    first_pos: Vec<usize>,
}

impl<V: RegisterValue> OwnedInterner<V> {
    fn new(init: &V) -> Self {
        OwnedInterner {
            values: vec![init.clone()],
            first_pos: vec![usize::MAX],
        }
    }

    fn lookup(&self, value: &V) -> Option<u32> {
        self.values
            .iter()
            .position(|v| v == value)
            .map(|i| i as u32)
    }

    fn get(&self, value: &V) -> u32 {
        self.lookup(value).expect("value was interned")
    }

    /// Clears back to only the initial value, keeping both allocations.
    fn reset(&mut self, init: &V) {
        self.values.clear();
        self.first_pos.clear();
        self.values.push(init.clone());
        self.first_pos.push(usize::MAX);
    }

    /// Interns `value`, recording `pos` as its first sight if it is new.
    fn intern_at(&mut self, value: &V, pos: usize) -> u32 {
        if let Some(id) = self.lookup(value) {
            return id;
        }
        self.values.push(value.clone());
        self.first_pos.push(pos);
        (self.values.len() - 1) as u32
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
    /// Global (filtered-list) indices of this register's ops, ascending.
    members: Vec<u32>,
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
    /// Number of completed ops in the frozen order. Maintained across pending-write
    /// completions (a flip of an op the frozen search took increments it) so
    /// [`resume_witness`] re-enters in O(1) instead of recounting the order.
    /// Meaningful only while `cached` holds a successful search.
    frozen_taken_completed: usize,
    /// Local bitset of completed member ops — the preds row of a safely appended op.
    completed_mask: Vec<u64>,
    /// Max invocation tick over members, and max response tick over completed
    /// members (0 when none; real events are never at tick 0).
    max_inv: u64,
    max_resp: u64,
}

impl RegisterSession {
    fn empty() -> Self {
        RegisterSession {
            members: Vec::new(),
            sub: SubProblem {
                ops: Vec::new(),
                preds: Vec::new(),
                words: 1,
                slots: 1,
                completed: 0,
                init_id: 0,
            },
            scratch: SearchScratch::default(),
            cached: None,
            freeze_words: 0,
            freeze_memo_class: 0,
            freeze_len: 0,
            freeze_completed: 0,
            frozen_taken_completed: 0,
            completed_mask: vec![0],
            max_inv: 0,
            max_resp: 0,
        }
    }

    /// An empty session wrapping an existing arena (possibly warm from the pool);
    /// with nothing cached, the arena's frozen state is ignored until the first fresh
    /// search reinitializes it.
    fn with_scratch(scratch: SearchScratch) -> Self {
        let mut sess = Self::empty();
        sess.scratch = scratch;
        sess
    }

    /// Whether `scratch` holds the live frozen stack of a cached successful search.
    fn resumable(&self) -> bool {
        self.cached.as_ref().is_some_and(|c| c.order.is_some())
    }

    /// Recomputes the derived fields (`completed_mask`, `max_inv`, `max_resp`) from
    /// the current subproblem; used after a full rebuild of `sub`.
    fn rederive<V: RegisterValue>(&mut self, history: &History<V>, filtered: &[usize]) {
        self.completed_mask = vec![0; self.sub.words];
        self.max_inv = 0;
        self.max_resp = 0;
        for (local, lop) in self.sub.ops.iter().enumerate() {
            let op = &history.operations()[filtered[lop.global as usize]];
            self.max_inv = self.max_inv.max(op.invoked_at.0);
            if lop.completed {
                let resp = op.responded_at.expect("completed op has a response");
                self.max_resp = self.max_resp.max(resp.0);
                self.completed_mask[local / WORD_BITS] |= 1u64 << (local % WORD_BITS);
            }
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
    /// History indices of the filtered (complete-or-write) ops, in history order —
    /// the mirror of the engine's global op list.
    filtered: Vec<usize>,
    values: OwnedInterner<V>,
    /// Sorted register ids, parallel to `regs`.
    registers: Vec<RegisterId>,
    regs: Vec<RegisterSession>,
    /// History indices of pending ops, ascending.
    pending: Vec<usize>,
    seen_ids: OpIdSet,
    /// Reused buffer of [`sync_with_ops`] event diffs (empty between calls).
    ///
    /// [`sync_with_ops`]: IncrementalChecker::sync_with_ops
    sync_events: Vec<(u64, SyncEvent)>,
    /// Scratch arenas for the full-fallback engine runs.
    pool: ScratchPool,
    /// The last verdict, held until the next event invalidates it. A live monitor
    /// polls after every delivery but the history only changes on invocations and
    /// responses, so most polls are O(1) cache hits.
    cached_verdict: Option<IncrementalVerdict<V>>,
    stats: IncrementalStats,
}

impl<V: RegisterValue> IncrementalChecker<V> {
    pub(crate) fn from_config(init: V, state_budget: u64, witness: bool) -> Self {
        let values = OwnedInterner::new(&init);
        IncrementalChecker {
            init,
            state_budget,
            witness,
            history: History::new(),
            max_time: 0,
            filtered: Vec::new(),
            values,
            registers: Vec::new(),
            regs: Vec::new(),
            pending: Vec::new(),
            seen_ids: OpIdSet::default(),
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
    /// history/interner/index vectors keep their capacity. A monitor restarting on a
    /// fresh run pays no cold allocations, but the session is observably identical
    /// to a freshly built one — verdicts, counters, everything.
    pub fn reset(&mut self) {
        self.history.clear_ops();
        self.max_time = 0;
        self.filtered.clear();
        self.values.reset(&self.init);
        self.registers.clear();
        for sess in self.regs.drain(..) {
            self.pool.release(sess.scratch);
        }
        self.pending.clear();
        self.seen_ids.clear();
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
    /// the pending one on process, register, invocation, and written value).
    ///
    /// Events arriving in time order (every new invocation and every response after
    /// all events so far) take the incremental fast path. Out-of-order events are
    /// accepted but trigger a full revalidation and mirror rebuild.
    ///
    /// # Panics
    ///
    /// Panics on the same malformed inputs [`History::from_operations`] rejects:
    /// duplicate op ids, duplicate event times, or a response at or before its own
    /// invocation — and on a completion that contradicts its pending op.
    pub fn append(&mut self, op: Operation<V>) {
        self.cached_verdict = None;
        if let Some(pos) = self
            .pending
            .iter()
            .position(|&i| self.history.operations()[i].id == op.id)
        {
            self.apply_completion(pos, op);
        } else {
            self.append_new(op);
        }
    }

    /// Appends a batch of operations/completions in order; equivalent to calling
    /// [`append`](IncrementalChecker::append) on each.
    pub fn append_batch<I: IntoIterator<Item = Operation<V>>>(&mut self, ops: I) {
        for op in ops {
            self.append(op);
        }
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
    /// the per-poll clone-and-revalidate entirely; the session validates the diff
    /// it applies (and falls back to a full revalidation on out-of-order events).
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
        events.clear();
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
        events.sort_unstable_by_key(|&(t, _)| t);
        for &(_, ev) in &events {
            match ev {
                SyncEvent::Invoke(i) => {
                    let mut op = target_ops[i].clone();
                    op.responded_at = None;
                    if matches!(op.kind, OpKind::Read(_)) {
                        op.kind = OpKind::Read(None);
                    }
                    self.append(op);
                }
                SyncEvent::Complete(i) => self.append(target_ops[i].clone()),
            }
        }
        events.clear();
        self.sync_events = events;
    }

    // -- event application ---------------------------------------------------

    fn append_new(&mut self, op: Operation<V>) {
        assert!(
            self.seen_ids.insert(op.id),
            "duplicate operation id {:?}",
            op.id
        );
        if let Some(resp) = op.responded_at {
            assert!(
                resp > op.invoked_at,
                "operation {:?} responds at {:?} before its invocation {:?}",
                op.id,
                resp,
                op.invoked_at
            );
        }
        if !self.history.is_empty() && op.invoked_at.0 <= self.max_time {
            // Out-of-order append: revalidate wholesale and rebuild the mirror.
            let mut ops = self.history.operations().to_vec();
            ops.push(op);
            self.history = History::from_operations(ops);
            self.stats.ops_appended += 1;
            self.full_rebuild();
            return;
        }
        let idx = self.history.len();
        self.max_time = op.responded_at.map_or(op.invoked_at.0, |t| t.0);
        let interned = if op.is_complete() || op.is_write() {
            let g = self.filtered.len() as u32;
            let value = match &op.kind {
                OpKind::Write(v) | OpKind::Read(Some(v)) => v,
                OpKind::Read(None) => unreachable!("pending reads are not filtered"),
            };
            Some((g, self.values.intern_at(value, g as usize)))
        } else {
            None
        };
        if op.is_pending() {
            self.pending.push(idx);
        }
        let register = op.register;
        let is_write = op.is_write();
        let is_complete = op.is_complete();
        let inv = op.invoked_at.0;
        let resp = op.responded_at.map(|t| t.0);
        // Push before extending the register: a rebuild inside `extend_register`
        // re-reads every filtered op, the new one included, from the history.
        self.history.push_unchecked(op);
        self.stats.ops_appended += 1;
        if let Some((g, id)) = interned {
            self.filtered.push(idx);
            self.extend_register(register, g, id, is_write, is_complete, inv, resp);
        }
    }

    fn apply_completion(&mut self, pending_pos: usize, op: Operation<V>) {
        let idx = self.pending[pending_pos];
        let existing = &self.history.operations()[idx];
        assert_eq!(existing.process, op.process, "completion changes process");
        assert_eq!(
            existing.register, op.register,
            "completion changes register"
        );
        assert_eq!(
            existing.invoked_at, op.invoked_at,
            "completion changes invocation time"
        );
        let resp = op
            .responded_at
            .expect("completion event must carry a response time");
        assert!(
            resp > op.invoked_at,
            "operation {:?} responds at {:?} before its invocation {:?}",
            op.id,
            resp,
            op.invoked_at
        );
        let is_write = match (&existing.kind, &op.kind) {
            (OpKind::Write(a), OpKind::Write(b)) => {
                assert!(a == b, "completion changes the written value");
                true
            }
            (OpKind::Read(_), OpKind::Read(Some(_))) => false,
            _ => panic!("completion changes the operation kind"),
        };
        if resp.0 <= self.max_time {
            // A response landing before an already-recorded event: revalidate
            // wholesale and rebuild the mirror.
            let mut ops = self.history.operations().to_vec();
            ops[idx] = op;
            self.history = History::from_operations(ops);
            self.pending.remove(pending_pos);
            self.stats.completions += 1;
            self.full_rebuild();
            return;
        }
        self.pending.remove(pending_pos);
        self.max_time = resp.0;
        let register = op.register;
        if is_write {
            // Flip the pending write in place: its response is the latest event, so
            // no precedence row changes and the frozen search stays resumable.
            *self.history.op_mut(idx) = op;
            let g = self.filtered.partition_point(|&h| h < idx);
            debug_assert_eq!(self.filtered[g], idx);
            let k = self
                .registers
                .binary_search(&register)
                .expect("pending write's register has a session");
            let sess = &mut self.regs[k];
            let local = sess
                .members
                .binary_search(&(g as u32))
                .expect("pending write is a member");
            sess.sub.ops[local].completed = true;
            sess.sub.completed += 1;
            if sess.resumable() && sess.scratch.frozen_taken(local) {
                // The frozen search had taken this write while pending; its flip
                // raises the completed count of the frozen order.
                sess.frozen_taken_completed += 1;
            }
            sess.completed_mask[local / WORD_BITS] |= 1u64 << (local % WORD_BITS);
            sess.max_resp = sess.max_resp.max(resp.0);
            self.stats.completions += 1;
            return;
        }
        // Pending read completing: the one event that joins the filtered list at an
        // *interior* position when any filtered op was invoked after it.
        let read_value = match &op.kind {
            OpKind::Read(Some(v)) => v.clone(),
            _ => unreachable!("checked above"),
        };
        let inv = op.invoked_at.0;
        *self.history.op_mut(idx) = op;
        let p = self.filtered.partition_point(|&h| h < idx);
        if p == self.filtered.len() {
            let id = self.values.intern_at(&read_value, p);
            self.filtered.push(idx);
            self.extend_register(register, p as u32, id, false, true, inv, Some(resp.0));
            self.stats.completions += 1;
            return;
        }
        // Mid-list insert. The engine interns values in filtered order; if this
        // read's value would now be sighted first at position `p`, every later id
        // shifts and the mirror must be rebuilt.
        let id_stable = match self.values.lookup(&read_value) {
            Some(0) => true, // the initial value is always id 0
            Some(id) => self.values.first_pos[id as usize] < p,
            None => false,
        };
        self.stats.completions += 1;
        if !id_stable {
            self.full_rebuild();
            return;
        }
        for fp in &mut self.values.first_pos {
            if *fp != usize::MAX && *fp >= p {
                *fp += 1;
            }
        }
        for sess in &mut self.regs {
            for m in &mut sess.members {
                if *m >= p as u32 {
                    *m += 1;
                }
            }
            for lop in &mut sess.sub.ops {
                if lop.global >= p as u32 {
                    lop.global += 1;
                }
            }
        }
        self.filtered.insert(p, idx);
        let k = match self.registers.binary_search(&register) {
            Ok(k) => k,
            Err(pos) => {
                self.registers.insert(pos, register);
                self.regs
                    .insert(pos, RegisterSession::with_scratch(self.pool.acquire()));
                pos
            }
        };
        let sess = &mut self.regs[k];
        let q = sess.members.partition_point(|&m| m < p as u32);
        sess.members.insert(q, p as u32);
        self.rebuild_register(k);
    }

    /// Appends filtered op `g` to its register's subproblem. Fast path: O(words) —
    /// push the op, copy the completed mask as its precedence row. Rebuild path
    /// (word-count growth, or a completed read whose old invocation predates a
    /// member's response): re-derive the register from scratch, dropping its cache.
    #[allow(clippy::too_many_arguments)]
    fn extend_register(
        &mut self,
        register: RegisterId,
        g: u32,
        value_id: u32,
        is_write: bool,
        completed: bool,
        inv: u64,
        resp: Option<u64>,
    ) {
        let k = match self.registers.binary_search(&register) {
            Ok(k) => k,
            Err(pos) => {
                self.registers.insert(pos, register);
                self.regs
                    .insert(pos, RegisterSession::with_scratch(self.pool.acquire()));
                pos
            }
        };
        let sess = &mut self.regs[k];
        let n = sess.sub.ops.len();
        if words_for(n + 1) > sess.sub.words || (inv <= sess.max_resp && sess.sub.completed > 0) {
            // Either the bitset stride grows (every row restrides) or a completed
            // member responded after this op's invocation (its preds row is not the
            // completed mask — only late-completing reads can get here).
            sess.members.push(g);
            self.rebuild_register(k);
            return;
        }
        sess.members.push(g);
        sess.sub.ops.push(LocalOp {
            global: g,
            slot: 0,
            value: value_id,
            is_write,
            completed,
        });
        sess.sub.preds.extend_from_slice(&sess.completed_mask);
        if completed {
            sess.sub.completed += 1;
            sess.completed_mask[n / WORD_BITS] |= 1u64 << (n % WORD_BITS);
            sess.max_resp = sess
                .max_resp
                .max(resp.expect("completed op has a response"));
        }
        sess.max_inv = sess.max_inv.max(inv);
    }

    /// Rebuilds one register's subproblem from the canonical constructor (rows
    /// included) and drops its cache. The scratch is kept for its warm buffers.
    fn rebuild_register(&mut self, k: usize) {
        let Self {
            history,
            filtered,
            values,
            regs,
            ..
        } = self;
        let sess = &mut regs[k];
        let all: Vec<&Operation<V>> = filtered.iter().map(|&i| &history.operations()[i]).collect();
        sess.sub = SubProblem::new(&all, &sess.members, |_| 0, |v| values.get(v), 0, 1);
        sess.rederive(history, filtered);
        sess.cached = None;
    }

    /// Rebuilds the whole mirror — filtered list, interner, registers, subproblems —
    /// from the history, dropping every cache. The rare slow path behind
    /// out-of-order events and interner id shifts.
    fn full_rebuild(&mut self) {
        self.stats.full_rebuilds += 1;
        self.max_time = self.history.max_time().0;
        self.filtered.clear();
        self.pending.clear();
        self.seen_ids.clear();
        self.values = OwnedInterner::new(&self.init);
        let ops = self.history.operations();
        for (idx, op) in ops.iter().enumerate() {
            self.seen_ids.insert(op.id);
            if op.is_complete() || op.is_write() {
                let g = self.filtered.len();
                let value = match &op.kind {
                    OpKind::Write(v) | OpKind::Read(Some(v)) => v,
                    OpKind::Read(None) => unreachable!("pending reads are not filtered"),
                };
                self.values.intern_at(value, g);
                self.filtered.push(idx);
            }
            if op.is_pending() {
                self.pending.push(idx);
            }
        }
        let mut registers: Vec<RegisterId> =
            self.filtered.iter().map(|&i| ops[i].register).collect();
        registers.sort_unstable();
        registers.dedup();
        let mut old_scratch: Vec<SearchScratch> = self.regs.drain(..).map(|s| s.scratch).collect();
        self.registers = registers;
        self.regs = self
            .registers
            .iter()
            .map(|_| {
                let scratch = old_scratch.pop().unwrap_or_else(|| self.pool.acquire());
                RegisterSession::with_scratch(scratch)
            })
            .collect();
        for (g, &idx) in self.filtered.iter().enumerate() {
            let k = self
                .registers
                .binary_search(&ops[idx].register)
                .expect("register collected above");
            self.regs[k].members.push(g as u32);
        }
        for k in 0..self.regs.len() {
            self.rebuild_register(k);
        }
        // rebuild_register bumps nothing else: caches are already clear.
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
                if cache.order.is_none() || sess.frozen_taken_completed == sess.sub.completed {
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
                let order = resume_witness(
                    &sess.sub,
                    sess.frozen_taken_completed,
                    &mut budget,
                    &mut search_stats,
                    &mut sess.scratch,
                );
                stats.registers_resumed += 1;
                stats.memo_entries_reused += reused;
                stats.memo_entries_rebuilt += sess.scratch.memo_entries().saturating_sub(reused);
                stats.incremental_states +=
                    search_stats.states_explored.saturating_sub(frozen_states);
                if !search_stats.limit_hit {
                    sess.freeze_len = n;
                    sess.freeze_completed = sess.sub.completed;
                    // A successful search freezes at an all-completed-taken
                    // configuration, so the frozen order's completed count is
                    // exactly the subproblem's.
                    sess.frozen_taken_completed = sess.sub.completed;
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
            sess.frozen_taken_completed = sess.sub.completed;
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
        let mut failed = false;
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
                failed = true;
                break;
            }
        }
        if failed {
            return self.finish(Some(false), None, stats);
        }
        // Decision-only fast path: with at most one register there is nothing to
        // merge (a lone witness order is trivially a global order), and with
        // witness recording off the order itself is never observed — the batch
        // checker would compute it and throw it away. This keeps the per-verdict
        // cost of a single-register monitoring stream free of O(history) work.
        if !self.witness && self.regs.len() <= 1 {
            return self.finish(Some(true), None, stats);
        }
        let per_register_orders: Vec<Vec<usize>> = self
            .regs
            .iter()
            .map(|sess| {
                let cache = sess.cached.as_ref().expect("ensured above");
                cache
                    .order
                    .as_ref()
                    .expect("no register failed")
                    .iter()
                    .map(|&i| sess.sub.ops[i as usize].global as usize)
                    .collect()
            })
            .collect();
        let merged = match per_register_orders.len() {
            0 => Some(Vec::new()),
            1 => Some(per_register_orders.into_iter().next().unwrap()),
            _ => {
                let ops = self.filtered_ops();
                merge_witness_orders(&per_register_orders, |g| {
                    let op = ops[g];
                    (op.invoked_at, op.responded_at.map_or(u64::MAX, |t| t.0))
                })
            }
        };
        let Some(order) = merged else {
            // Compositionality guarantees the merge succeeds; if it ever fails the
            // batch checker would fall back to the joint search — which the full
            // re-check below reproduces exactly (its per-register searches re-derive
            // the cached results, the merge fails again, and the joint search runs
            // on the same remaining budget).
            return self.full_fallback();
        };
        let witness = if self.witness {
            Some(order_to_seq(&self.history, &self.filtered_ops(), &order))
        } else {
            None
        };
        self.finish(Some(true), witness, stats)
    }

    fn filtered_ops(&self) -> Vec<&Operation<V>> {
        self.filtered
            .iter()
            .map(|&i| &self.history.operations()[i])
            .collect()
    }

    fn finish(
        &self,
        decision: Option<bool>,
        witness: Option<SeqHistory<V>>,
        stats: SearchStats,
    ) -> IncrementalVerdict<V> {
        IncrementalVerdict {
            verdict: Verdict::new(
                decision,
                witness,
                CheckStats {
                    states_explored: stats.states_explored,
                    states_memoized: stats.states_memoized,
                    enumeration_nodes: 0,
                    memo: stats.memo,
                },
            ),
            incremental: self.stats,
        }
    }

    /// One full re-check of the accumulated history through the batch engine —
    /// definitionally bit-identical to `Checker::check`. The escape hatch for
    /// budget-replay misses and limit-hit register searches.
    fn full_fallback(&mut self) -> IncrementalVerdict<V> {
        self.stats.full_fallbacks += 1;
        let engine = Engine::new(&self.history, &self.init);
        let outcome = engine.check_with(self.state_budget, &self.pool);
        self.stats.incremental_states += outcome.states_explored;
        let decision = if outcome.order.is_some() {
            Some(true)
        } else if outcome.limit_hit {
            None
        } else {
            Some(false)
        };
        let witness = if self.witness {
            outcome
                .order
                .as_ref()
                .map(|order| order_to_seq(&self.history, engine.ops(), order))
        } else {
            None
        };
        IncrementalVerdict {
            verdict: Verdict::new(
                decision,
                witness,
                CheckStats {
                    states_explored: outcome.states_explored,
                    states_memoized: outcome.states_memoized,
                    enumeration_nodes: 0,
                    memo: outcome.memo,
                },
            ),
            incremental: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{Checker, CheckerBuilder};
    use crate::ids::{ProcessId, Time};

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
    /// batch `Checker::check` of the same prefix.
    fn assert_equiv_at_every_prefix(
        history: &History<i64>,
        config: impl Fn() -> CheckerBuilder<i64>,
    ) {
        let checker = config().build();
        let mut session = config().build_incremental();
        for prefix in history.all_prefixes() {
            session.sync_with(&prefix);
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
