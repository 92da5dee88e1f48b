//! High-throughput linearizability engine.
//!
//! This module is the shared search core behind [`crate::linearizability`] and the
//! extension-family checks of [`crate::strong`]. It replaces the original recursive
//! checker (which cloned a `(Vec<bool>, Vec<(RegisterId, V)>)` memo key and rescanned
//! real-time precedence in `O(n²)` at every node) with five cooperating optimizations:
//!
//! 1. **Value interning** — every distinct register value in the history (plus the
//!    initial value) is mapped once to a dense `u32` id, so simulated register state is
//!    a small integer and memo keys never clone `V`. The interner, the searched op list
//!    and the register partition form one search mirror of the history, built by the
//!    same constructor for [`Engine::new`] and for an
//!    [`IncrementalChecker`](crate::IncrementalChecker)'s full rebuild, which keeps
//!    its mirror in step with its history event by event.
//! 2. **Precedence bitsets** — the real-time relation is precomputed into per-op
//!    predecessor bitsets (`u64` blocks). An op is a Wing–Gong candidate iff its
//!    predecessor bits are covered by the taken set: one mask-and-compare per op
//!    instead of an `O(n)` rescan of `Operation::precedes`.
//! 3. **Iterative DFS over packed keys** — the search runs on an explicit frame stack
//!    (no recursion), and each visited configuration is memoized as a run of `u64`
//!    words in the memo table's bump arena (see "The memo arena" below) that packs the
//!    taken bitset and the interned register state, hashed with a fast multiply-rotate
//!    hasher.
//! 4. **Per-register composition** — registers are independent objects, so a
//!    multi-register history is linearizable iff each per-register subhistory is
//!    (P-compositionality, Herlihy & Wing). [`Engine::check`] therefore partitions the
//!    history by [`RegisterId`], searches each subhistory separately, and merges the
//!    per-register witnesses into one global linearization with a k-way merge that
//!    emits, among the register heads no unemitted op precedes, the one invoked
//!    earliest. This turns one exponential joint search into several much smaller ones.
//!    An incremental session merges its cached per-register witnesses with the same
//!    function.
//! 5. **One walk, one candidate window** — the witness search, its incremental
//!    resume and the enumeration walk are visit rules on one DFS, `Walk`, which owns
//!    the taken bitset, the register state, the partial order and the frame stack,
//!    and asks its rule on entering each configuration whether to descend, prune or
//!    stop. It finds a frame's next candidate with `next_candidate`, which visits
//!    only untaken ops, a `taken` word at a time, so the linearized prefix is never
//!    rescanned. When the subproblem lists its ops in invocation order its preds
//!    rows are nested (`row(i) ⊆ row(i+1)`), and the scan stops at the first untaken
//!    op with an untaken predecessor: every later op has that predecessor too. Both
//!    cuts skip only non-candidates, so the search visits the same nodes in the same
//!    order as a full scan; rows that are not nested keep the full untaken scan.
//!
//! A check is one sequential search on the calling thread: the registers are searched
//! in ascending order under one shared state budget, reusing one scratch arena. The
//! only parallelism sits a level up: [`crate::Checker::check_many`] spreads whole
//! histories over scoped threads. One lazy layer sits on top:
//!
//! 6. **Per-register enumeration with a lazy interleaving product** —
//!    [`Linearizations`] on a multi-register history first enumerates each
//!    register's linearizations separately, folds them into per-register prefix
//!    tries, and then walks the *product* of the tries lazily, interleaving under the
//!    global real-time relation. The product DFS visits only prefixes of valid
//!    per-register linearizations (the joint search also wades through
//!    state-inconsistent dead ends), emits orders in **exactly** the joint search's
//!    order, and stops as soon as the consumer stops pulling. Enumeration stays
//!    bounded by an explicit work cap — per-register search nodes plus product nodes —
//!    so adversarial inputs fail loudly instead of hanging. One register whose *own*
//!    linearization space blows the budget makes the product's discovery stage
//!    impossible, so that case falls back to the joint DFS (lazy too, like the
//!    pre-product enumerator); total work stays within 2x the cap.
//!
//! # The memo arena
//!
//! Visited configurations are memoized in a single open-addressed table
//! (`MemoTable` inside [`SearchScratch`]) whose variable-length keys live in a bump
//! arena of `u64` words — no `Box<[u64]>` allocation per insert, no hashbrown control
//! machinery, and scratch reuse keeps both the arena and the slot array warm across
//! searches (cleared by truncation / generation bump, not by freeing).
//!
//! **Key layout.** A configuration is `(taken, vals)`: the taken bitset (one `u64`
//! word per 64 ops) and the interned register state (two `u32` slot values packed per
//! word). Subproblems whose bitset fits one word pack as `[taken₀, vals…]`; wider
//! bitsets pack as `[skip, taken[skip..], vals…]`, where `skip` counts the leading
//! all-ones taken words dropped by **prefix compaction**: once a maximal prefix of
//! the sub-history is fully linearized, those words carry no information beyond their
//! count, so deep search states — the bulk of a long history's memo traffic — hash
//! and compare strictly fewer words. The skip word keeps packing injective (distinct
//! configurations never collide as key word sequences; the round-trip property test
//! pins this), so compaction changes key bytes, never memo semantics.
//!
//! **Table mechanics.** Slots are one `u64` each: an 8-bit generation tag (a cleared
//! table just bumps the generation instead of zeroing), a 16-bit hash fingerprint,
//! and a 40-bit arena offset. Probing is linear over a power-of-two slot array,
//! growth doubles at 7/8 load and rehashes from the arena, and the per-search initial
//! size is a deterministic function of the subproblem (never of warm capacity), so
//! the reported [`MemoStats`] — slot probes, hits, arena high-water — are
//! bit-identical whether the scratch is cold or reused.

use crate::checker::order_to_seq;
use crate::history::History;
use crate::ids::{OpId, RegisterId, Time};
use crate::mirror::{Mirror, SearchedOp};
use crate::op::Operation;
use crate::sequential::SeqHistory;
use crate::value::RegisterValue;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Fast hashing
// ---------------------------------------------------------------------------

/// A multiply-rotate hasher in the style of `rustc-hash`'s `FxHasher`: not
/// collision-resistant against adversaries, but its keys are search-internal, so the
/// only requirement is speed and decent dispersion. Its round, `fx_mix`, is the memo
/// table's; it also keys the value interner's spill index and an incremental
/// session's operation-id index.
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    hash: u64,
}

const FAST_SEED: u64 = 0x517c_c1b7_2722_0a95;

/// One round of [`FastHasher`]. The memo table calls it directly: its register-only
/// fast path must hash exactly like [`hash_words`] so growth rehashes agree.
#[inline]
fn fx_mix(h: u64, word: u64) -> u64 {
    (h ^ word).rotate_left(5).wrapping_mul(FAST_SEED)
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.write_u64(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.hash = fx_mix(self.hash, v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `BuildHasher` for [`FastHasher`].
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

// ---------------------------------------------------------------------------
// Prepared subproblems
// ---------------------------------------------------------------------------

pub(crate) const WORD_BITS: usize = 64;

#[inline]
pub(crate) fn words_for(n: usize) -> usize {
    n.div_ceil(WORD_BITS)
}

/// One operation of a prepared subproblem, fully interned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LocalOp {
    /// Position in the history's searched op list.
    pub(crate) global: u32,
    /// Register slot within the subproblem (always 0 for per-register searches).
    pub(crate) slot: u32,
    /// Interned payload: the written value for writes, the returned value for
    /// completed reads.
    pub(crate) value: u32,
    pub(crate) is_write: bool,
    pub(crate) completed: bool,
}

/// Interned id of the initial value, every slot's value before any write: the
/// interner sights it before any op.
const INIT_ID: u32 = 0;

/// A self-contained search instance over a subset of the history's operations.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct SubProblem {
    pub(crate) ops: Vec<LocalOp>,
    /// Flat predecessor matrix with `words` u64s per row: row `i` holds one bit per
    /// local op `j` with `op_j.precedes(op_i)`.
    pub(crate) preds: Vec<u64>,
    /// Row stride of `preds` in words.
    pub(crate) words: usize,
    /// Number of register slots (1 for per-register subproblems).
    pub(crate) slots: usize,
    /// Number of completed ops that a successful linearization must contain.
    pub(crate) completed: usize,
    /// `true` when every preds row contains the one before it (`row(i) ⊆ row(i+1)`),
    /// which holds whenever the ops are listed in invocation order. It lets
    /// [`next_candidate`] stop at the first untaken op with an untaken predecessor.
    pub(crate) monotone: bool,
}

impl SubProblem {
    /// The subproblem over `members`, positions in `searched` (the searched ops of
    /// the history `ops`), with each op in slot `slot_of_register(register)`.
    pub(crate) fn new<V>(
        ops: &[Operation<V>],
        searched: &[SearchedOp],
        members: &[u32],
        slot_of_register: impl Fn(RegisterId) -> u32,
        slots: usize,
    ) -> Self {
        let n = members.len();
        let mut local_ops = Vec::with_capacity(n);
        let mut by_inv: Vec<(Time, u32)> = Vec::with_capacity(n);
        let mut by_resp: Vec<(Time, u32)> = Vec::with_capacity(n);
        for (j, &g) in members.iter().enumerate() {
            let SearchedOp { index, value } = searched[g as usize];
            let op = &ops[index as usize];
            local_ops.push(LocalOp {
                global: g,
                slot: slot_of_register(op.register),
                value,
                is_write: op.is_write(),
                completed: op.is_complete(),
            });
            by_inv.push((op.invoked_at, j as u32));
            if let Some(t) = op.responded_at {
                by_resp.push((t, j as u32));
            }
        }
        let words = words_for(n).max(1);
        let mut preds = vec![0u64; n * words];
        // Sweep in invocation order, accumulating a running bitset of the ops that
        // have already responded: row(i) = { j : resp(j) < inv(i) }, i.e. "j precedes
        // i". One sorted pass plus a bitset copy per row replaces an all-pairs rescan.
        by_inv.sort_unstable();
        by_resp.sort_unstable();
        let mut running = vec![0u64; words];
        let mut responded = 0usize;
        for &(inv, i) in &by_inv {
            while responded < by_resp.len() && by_resp[responded].0 < inv {
                let j = by_resp[responded].1 as usize;
                running[j / WORD_BITS] |= 1u64 << (j % WORD_BITS);
                responded += 1;
            }
            preds[i as usize * words..(i as usize + 1) * words].copy_from_slice(&running);
        }
        let completed = by_resp.len();
        let monotone = (1..n).all(|i| row_contains(&preds, words, i, i - 1));
        SubProblem {
            ops: local_ops,
            preds,
            words,
            slots,
            completed,
            monotone,
        }
    }

    /// Returns `true` if every real-time predecessor of local op `i` is in `taken`.
    #[inline]
    fn preds_satisfied(&self, i: usize, taken: &[u64]) -> bool {
        let row = &self.preds[i * self.words..(i + 1) * self.words];
        row.iter().zip(taken.iter()).all(|(p, t)| p & !t == 0)
    }
}

/// `true` if row `outer` of the flat `words`-stride matrix `preds` contains row
/// `inner`.
pub(crate) fn row_contains(preds: &[u64], words: usize, outer: usize, inner: usize) -> bool {
    let outer = &preds[outer * words..(outer + 1) * words];
    let inner = &preds[inner * words..(inner + 1) * words];
    inner.iter().zip(outer).all(|(i, o)| i & !o == 0)
}

/// The lowest Wing–Gong candidate of `sub` at index `from` or above: an untaken op
/// whose real-time predecessors are all taken and that is consistent with the register
/// state (writes always are; a completed read must return its slot's current value).
///
/// Only untaken indices are visited, a word of `taken` at a time, so the linearized
/// prefix costs nothing. When `sub.monotone` holds, the first untaken op with an untaken
/// predecessor ends the scan: every later row contains that predecessor too. Both cuts
/// skip only ops that cannot be candidates, so the result equals a full scan's.
#[inline]
fn next_candidate(sub: &SubProblem, taken: &[u64], vals: &[u32], from: usize) -> Option<usize> {
    let n = sub.ops.len();
    if from >= n {
        return None;
    }
    let mut w = from / WORD_BITS;
    let mut free = !taken[w] & (u64::MAX << (from % WORD_BITS));
    loop {
        while free != 0 {
            let i = w * WORD_BITS + free.trailing_zeros() as usize;
            if i >= n {
                return None;
            }
            if sub.preds_satisfied(i, taken) {
                let op = &sub.ops[i];
                if op.is_write || vals[op.slot as usize] == op.value {
                    return Some(i);
                }
            } else if sub.monotone {
                return None;
            }
            free &= free - 1;
        }
        w += 1;
        if w * WORD_BITS >= n {
            return None;
        }
        free = !taken[w];
    }
}

// ---------------------------------------------------------------------------
// The arena-backed memo table
// ---------------------------------------------------------------------------

/// Counters of the arena-backed memo table, reported per check on
/// [`CheckOutcome`] (and surfaced as `CheckStats::memo` by the session API).
///
/// Like every other statistic, these are deterministic: bit-identical across thread
/// policies, pool widths, and scratch reuse (the table's logical geometry is a
/// function of the subproblem alone — see the module docs).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Open-addressing slot inspections across all memo lookups of the check.
    pub probes: u64,
    /// Lookups that found the configuration already memoized (each one prunes a
    /// search subtree; equals `states_memoized` for plain witness checks).
    pub hits: u64,
    /// High-water mark of memo-key words resident in any single sub-search's arena.
    pub arena_high_water: u64,
}

impl MemoStats {
    #[inline]
    fn absorb(&mut self, other: &MemoStats) {
        self.probes += other.probes;
        self.hits += other.hits;
        self.arena_high_water = self.arena_high_water.max(other.arena_high_water);
    }
}

/// A HyperLogLog sketch of distinct memoized search configurations.
///
/// The memo table hashes every configuration it stores (the same 64-bit hash that
/// feeds the slot index and the 16-bit slot fingerprint); the sketch folds each
/// fresh insert's hash into 64 one-byte HLL registers, so a long-lived owner — a
/// checking service aggregating across requests — can estimate how many *distinct*
/// search states it has memoized without keeping any of them. Merging is
/// element-wise max: commutative, associative, and idempotent, so re-observing a
/// request or merging per-register sketches in any order gives the same sketch.
///
/// Like every other search statistic, the per-check sketch is deterministic —
/// bit-identical across thread policies, pool widths, and scratch reuse.
/// With 64 registers the estimate's standard error is ~13%: a metrics sketch, not
/// an exact count. Configurations are hashed per register subproblem, so two
/// structurally identical registers contribute the same fingerprints — the sketch
/// measures distinct search *shapes*, which is exactly what a cross-request cache
/// observability metric wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateSketch {
    regs: [u8; HLL_REGISTERS],
}

/// Number of HLL registers in a [`StateSketch`]; the top `HLL_INDEX_BITS` bits of a
/// fingerprint pick the register, the rest feed the rank.
const HLL_REGISTERS: usize = 64;
const HLL_INDEX_BITS: u32 = 6;

impl Default for StateSketch {
    fn default() -> Self {
        StateSketch {
            regs: [0; HLL_REGISTERS],
        }
    }
}

impl StateSketch {
    /// Folds one 64-bit fingerprint into the sketch.
    #[inline]
    pub fn observe(&mut self, hash: u64) {
        let idx = (hash >> (64 - HLL_INDEX_BITS)) as usize;
        // Rank of the remaining 58 bits: leading-zero count + 1, saturating when
        // they are all zero. `u8::max` keeps the per-register maximum.
        let rank = ((hash << HLL_INDEX_BITS) | 1 << (HLL_INDEX_BITS - 1)).leading_zeros() + 1;
        let slot = &mut self.regs[idx];
        *slot = (*slot).max(rank as u8);
    }

    /// Element-wise max merge of another sketch.
    pub fn merge(&mut self, other: &StateSketch) {
        for (a, &b) in self.regs.iter_mut().zip(other.regs.iter()) {
            *a = (*a).max(b);
        }
    }

    /// Read-only view of the raw HLL registers.
    ///
    /// This is the stable coverage-fingerprint hook: consumers that treat the
    /// sketch as an AFL-style coverage map (the schedule fuzzer in `rlt-mp`)
    /// compare registers directly instead of going through the cardinality
    /// estimate, so "novel coverage" stays exact, deterministic, and
    /// independent of the estimator constants.
    #[must_use]
    pub fn registers(&self) -> &[u8; HLL_REGISTERS] {
        &self.regs
    }

    /// `true` when every register of `other` is already dominated by this
    /// sketch — merging `other` in would change nothing.
    #[must_use]
    pub fn covers(&self, other: &StateSketch) -> bool {
        self.regs.iter().zip(other.regs.iter()).all(|(a, b)| a >= b)
    }

    /// Merges `other` and reports whether the merge raised any register.
    ///
    /// This is the coverage-guided fuzzing primitive: a replay whose sketch
    /// raises a register has visited a memoized search configuration whose
    /// fingerprint class no earlier corpus entry produced. Because merge is an
    /// element-wise max, the result is independent of merge order, so
    /// per-worker shards folded at a generation barrier report the same set of
    /// novel entries as a sequential pass.
    pub fn merge_novel(&mut self, other: &StateSketch) -> bool {
        let novel = !self.covers(other);
        self.merge(other);
        novel
    }

    /// `true` when nothing has been observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.regs.iter().all(|&r| r == 0)
    }

    /// Estimated number of distinct fingerprints observed (standard HLL estimator
    /// with the linear-counting small-range correction).
    #[must_use]
    pub fn estimate(&self) -> f64 {
        let m = HLL_REGISTERS as f64;
        let zeros = self.regs.iter().filter(|&&r| r == 0).count();
        let sum: f64 = self.regs.iter().map(|&r| 0.5f64.powi(i32::from(r))).sum();
        // alpha_64 = 0.7213 / (1 + 1.079 / 64).
        let raw = 0.709_213 * m * m / sum;
        if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }

    /// [`StateSketch::estimate`] rounded to the nearest integer, for display and
    /// deterministic diffing.
    #[must_use]
    pub fn estimate_rounded(&self) -> u64 {
        self.estimate().round() as u64
    }
}

/// Slot layout: `generation (8) | fingerprint (16) | arena offset + 1 (40)`.
const SLOT_GEN_SHIFT: u32 = 56;
const SLOT_FP_SHIFT: u32 = 40;
const SLOT_FP_MASK: u64 = 0xFFFF;
const SLOT_OFF_MASK: u64 = (1 << SLOT_FP_SHIFT) - 1;

/// Packs a `(taken, vals)` configuration into `out` in the arena key format (see the
/// module docs): multi-word taken sets get a leading skip word counting the all-ones
/// prefix words dropped by compaction (`compact = false` forces skip 0 and keeps
/// every word — used to prove compaction is semantics-free), single-word sets are
/// stored bare; slot values follow, packed two per word.
fn write_key(out: &mut Vec<u64>, taken: &[u64], vals: &[u32], compact: bool) {
    debug_assert!(!taken.is_empty() && !vals.is_empty());
    if taken.len() > 1 {
        let skip = if compact {
            taken.iter().take_while(|&&w| w == u64::MAX).count()
        } else {
            0
        };
        out.push(skip as u64);
        out.extend_from_slice(&taken[skip..]);
    } else {
        out.push(taken[0]);
    }
    let mut pairs = vals.chunks_exact(2);
    for p in pairs.by_ref() {
        out.push(u64::from(p[0]) | (u64::from(p[1]) << 32));
    }
    if let [last] = pairs.remainder() {
        out.push(u64::from(*last));
    }
}

/// Mixes a key's words with the [`FastHasher`] rounds and spreads the result so both
/// the low bits (slot index) and the high bits (fingerprint) carry entropy.
#[inline]
fn hash_words(words: &[u64]) -> u64 {
    let hash = words.iter().fold(0u64, |h, &w| fx_mix(h, w));
    hash ^ (hash >> 32)
}

/// The open-addressed memo table: variable-length keys in a `u64` bump arena,
/// one-word slots, linear probing over a power-of-two slot array. Cleared per search
/// by truncating the arena and bumping the slot generation — no per-insert
/// allocation, and a warm table's buffers are reused byte-for-byte.
#[derive(Debug)]
struct MemoTable {
    /// Bump arena of key words; cleared by truncation on `begin`.
    arena: Vec<u64>,
    /// Physical slot array; the logical table is `slots[..mask + 1]`.
    slots: Vec<u64>,
    /// Scratch copy of the logical slots during growth rehashes.
    spare: Vec<u64>,
    mask: usize,
    len: usize,
    grow_at: usize,
    /// Rolling 1..=255 tag marking live slots; a full zero-fill happens only on wrap.
    generation: u64,
    taken_words: usize,
    vals_words: usize,
    compact: bool,
    /// Test hook proving compaction never changes verdicts or state counts.
    compaction_enabled: bool,
    probes: u64,
    /// Physical buffer growths since construction — the scratch-reuse suite asserts
    /// this stays flat across a warm batch.
    reallocations: u64,
    /// HLL sketch of the fresh-insert hashes of the current search (cleared on
    /// [`MemoTable::begin`]; a resumed search keeps accumulating, which is exactly
    /// the set a from-scratch search of the grown subproblem would have inserted).
    hll: StateSketch,
}

impl Default for MemoTable {
    fn default() -> Self {
        MemoTable {
            arena: Vec::new(),
            slots: Vec::new(),
            spare: Vec::new(),
            mask: 0,
            len: 0,
            grow_at: 0,
            generation: 0,
            taken_words: 1,
            vals_words: 1,
            compact: false,
            compaction_enabled: true,
            probes: 0,
            reallocations: 0,
            hll: StateSketch::default(),
        }
    }
}

impl MemoTable {
    /// Resets the table for one sub-search over keys of `taken_words` bitset words
    /// and `slot_count` register slots, with `size` logical slots (a power of two,
    /// [`memo_size_class`]). The logical size is deterministic so probe counts never
    /// depend on how warm the buffers are; physical buffers only ever grow by the
    /// shortfall.
    fn begin(&mut self, taken_words: usize, slot_count: usize, size: usize) {
        self.taken_words = taken_words.max(1);
        self.vals_words = slot_count.div_ceil(2).max(1);
        self.compact = self.compaction_enabled && taken_words > 1;
        if self.slots.len() < size {
            if self.slots.capacity() < size {
                self.reallocations += 1;
            }
            self.slots.resize(size, 0);
        }
        self.generation += 1;
        if self.generation == 256 {
            self.slots.fill(0);
            self.generation = 1;
        }
        self.mask = size - 1;
        self.grow_at = size - size / 8;
        self.len = 0;
        self.arena.clear();
        self.probes = 0;
        self.hll = StateSketch::default();
    }

    /// Memoizes the configuration, returning `true` if it was not seen before in
    /// this search. Keys are only appended to the arena on fresh inserts.
    #[inline]
    fn insert(&mut self, taken: &[u64], vals: &[u32]) -> bool {
        if self.taken_words == 1 && self.vals_words == 1 {
            // The dominant shape (every per-register search of a <= 64-op register):
            // a two-word key handled entirely in registers, no tentative arena write.
            let packed_vals = if vals.len() == 1 {
                u64::from(vals[0])
            } else {
                u64::from(vals[0]) | (u64::from(vals[1]) << 32)
            };
            self.insert_small(taken[0], packed_vals)
        } else {
            self.insert_general(taken, vals)
        }
    }

    /// Two-word-key fast path; bit-compatible with [`MemoTable::insert_general`]
    /// (same hash sequence as [`hash_words`] over `[w0, w1]`, so [`MemoTable::grow`]
    /// rehashes both kinds of entry identically).
    #[inline]
    fn insert_small(&mut self, w0: u64, w1: u64) -> bool {
        let h = fx_mix(fx_mix(0, w0), w1);
        let hash = h ^ (h >> 32);
        let fp = (hash >> 48) & SLOT_FP_MASK;
        let gen = self.generation;
        // Deriving the mask from the logical slice's own length lets the bounds
        // checks in the probe loop be elided (`idx & mask` is provably in range).
        let slots = &mut self.slots[..self.mask + 1];
        let mask = slots.len() - 1;
        let mut idx = hash as usize & mask;
        let mut probes = 1u64;
        let fresh = loop {
            let slot = slots[idx];
            if slot >> SLOT_GEN_SHIFT != gen {
                let off = self.arena.len();
                if self.arena.capacity() - off < 2 {
                    self.reallocations += 1;
                    self.arena.reserve(self.arena.capacity().max(64));
                }
                debug_assert!(
                    (off as u64) < SLOT_OFF_MASK,
                    "memo arena exceeds 2^40 words"
                );
                self.arena.push(w0);
                self.arena.push(w1);
                slots[idx] = (gen << SLOT_GEN_SHIFT) | (fp << SLOT_FP_SHIFT) | (off as u64 + 1);
                break true;
            }
            if (slot >> SLOT_FP_SHIFT) & SLOT_FP_MASK == fp {
                let o = (slot & SLOT_OFF_MASK) as usize - 1;
                if self.arena[o] == w0 && self.arena[o + 1] == w1 {
                    break false;
                }
            }
            idx = (idx + 1) & mask;
            probes += 1;
        };
        self.probes += probes;
        if fresh {
            self.hll.observe(hash);
            self.len += 1;
            if self.len >= self.grow_at {
                self.grow();
            }
        }
        fresh
    }

    /// General variable-length-key path (multi-word taken bitsets and the joint
    /// multi-slot subproblem): the key is written at the arena tip, hashed from
    /// there, and truncated away again on a hit.
    fn insert_general(&mut self, taken: &[u64], vals: &[u32]) -> bool {
        let off = self.arena.len();
        let max_len = 1 + self.taken_words + self.vals_words;
        if self.arena.capacity() - off < max_len {
            self.reallocations += 1;
            self.arena.reserve(self.arena.capacity().max(64));
        }
        debug_assert!(
            (off as u64) < SLOT_OFF_MASK,
            "memo arena exceeds 2^40 words"
        );
        write_key(&mut self.arena, taken, vals, self.compact);
        let len = self.arena.len() - off;
        let hash = hash_words(&self.arena[off..off + len]);
        let fp = (hash >> 48) & SLOT_FP_MASK;
        let gen = self.generation;
        let slots = &mut self.slots[..self.mask + 1];
        let mask = slots.len() - 1;
        let mut idx = hash as usize & mask;
        let mut probes = 1u64;
        let fresh = loop {
            let slot = slots[idx];
            if slot >> SLOT_GEN_SHIFT != gen {
                slots[idx] = (gen << SLOT_GEN_SHIFT) | (fp << SLOT_FP_SHIFT) | (off as u64 + 1);
                break true;
            }
            if (slot >> SLOT_FP_SHIFT) & SLOT_FP_MASK == fp {
                let o = (slot & SLOT_OFF_MASK) as usize - 1;
                // `get` bounds the stored key: a shorter stored key differs in its
                // first word (the skip count), so the failed compare is correct even
                // when the slice would run past the arena tip.
                if self
                    .arena
                    .get(o..o + len)
                    .is_some_and(|k| k == &self.arena[off..off + len])
                {
                    self.arena.truncate(off);
                    break false;
                }
            }
            idx = (idx + 1) & mask;
            probes += 1;
        };
        self.probes += probes;
        if fresh {
            self.hll.observe(hash);
            self.len += 1;
            if self.len >= self.grow_at {
                self.grow();
            }
        }
        fresh
    }

    /// Doubles the logical slot array and rehashes every live entry from the arena.
    fn grow(&mut self) {
        let old_size = self.mask + 1;
        let new_size = old_size * 2;
        let mut spare = std::mem::take(&mut self.spare);
        if spare.capacity() < old_size {
            self.reallocations += 1;
        }
        spare.clear();
        spare.extend_from_slice(&self.slots[..old_size]);
        if self.slots.len() < new_size {
            if self.slots.capacity() < new_size {
                self.reallocations += 1;
            }
            self.slots.resize(new_size, 0);
        }
        self.slots[..new_size].fill(0);
        self.mask = new_size - 1;
        self.grow_at = new_size - new_size / 8;
        for &slot in &spare {
            if slot >> SLOT_GEN_SHIFT != self.generation {
                continue;
            }
            let off = (slot & SLOT_OFF_MASK) as usize - 1;
            let len = self.key_len_at(off);
            let hash = hash_words(&self.arena[off..off + len]);
            let mut idx = hash as usize & self.mask;
            while self.slots[idx] >> SLOT_GEN_SHIFT == self.generation {
                idx = (idx + 1) & self.mask;
            }
            self.slots[idx] = slot;
        }
        self.spare = spare;
    }

    /// Length in words of the key stored at `off`, recovered from the skip word (the
    /// per-search key geometry is fixed otherwise).
    fn key_len_at(&self, off: usize) -> usize {
        if self.taken_words > 1 {
            let skip = self.arena[off] as usize;
            1 + (self.taken_words - skip) + self.vals_words
        } else {
            1 + self.vals_words
        }
    }

    /// Drains the per-search counters into `stats`. The arena high-water mark is
    /// simply the arena length at drain time: kept keys only ever accumulate within
    /// one search (hit lookups append nothing and tentative keys are truncated), so
    /// the final length *is* the search's maximum.
    fn drain_into(&self, stats: &mut SearchStats) {
        stats.memo.probes += self.probes;
        stats.memo.arena_high_water = stats.memo.arena_high_water.max(self.arena.len() as u64);
        stats.sketch.merge(&self.hll);
    }
}

// ---------------------------------------------------------------------------
// Reusable search scratch
// ---------------------------------------------------------------------------

/// Reusable buffers of one witness search: the DFS walk (taken bitset, simulated
/// register state, partial linearization order, explicit DFS frame stack) and the
/// arena-backed memo table (open addressing over packed keys in a `u64` bump arena —
/// zero allocations per node; see the module docs for the layout).
///
/// A fresh `SearchScratch` is just empty buffers; reusing one across searches keeps
/// the allocations (arena, slot array, stack) warm. Scratch contents never influence
/// results — every buffer is reset on entry and the memo table's logical geometry is
/// deterministic — so reuse is invisible to verdicts, witnesses, and statistics,
/// memo probe counts included. Between searches the walk stays frozen where the last
/// search stopped, which is what an incremental session resumes.
#[derive(Debug, Default)]
pub struct SearchScratch {
    walk: Walk,
    memo: MemoTable,
}

impl SearchScratch {
    /// Number of configurations currently memoized in the scratch's table — the
    /// incremental session's measure of how much frozen state a resume reuses.
    pub(crate) fn memo_entries(&self) -> u64 {
        self.memo.len as u64
    }

    /// Number of completed ops in the frozen walk's order.
    pub(crate) fn frozen_completed(&self) -> usize {
        self.walk.taken_completed
    }

    /// Records that op `i` of the walked subproblem completed in place (a pending
    /// write's response): if the frozen walk has it taken, the walk's
    /// completed-taken count rises with it.
    pub(crate) fn complete_in_place(&mut self, i: usize) {
        let walk = &mut self.walk;
        if walk
            .taken
            .get(i / WORD_BITS)
            .is_some_and(|w| w & (1u64 << (i % WORD_BITS)) != 0)
        {
            walk.taken_completed += 1;
        }
    }
}

/// A shared pool of [`SearchScratch`] arenas.
///
/// [`Engine::check_with`] pops one arena per check (each worker of a
/// [`crate::Checker::check_many`] batch takes its own) and parks it back afterwards,
/// so a long-lived owner — a [`crate::Checker`] — amortizes search allocations across
/// calls and across the histories of a batch. Any arena fits any search; the pool is
/// just a free list.
#[derive(Debug, Default)]
pub struct ScratchPool {
    arenas: std::sync::Mutex<Vec<SearchScratch>>,
}

impl ScratchPool {
    /// Creates an empty pool; arenas are created on demand and kept warm thereafter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of idle arenas currently parked in the pool.
    #[must_use]
    pub fn idle_arenas(&self) -> usize {
        self.lock().len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<SearchScratch>> {
        // A poisoned pool only means a search panicked mid-check; the buffers are
        // reset on every acquire, so the arenas themselves are still fine.
        self.arenas.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn acquire(&self) -> SearchScratch {
        self.lock().pop().unwrap_or_default()
    }

    pub(crate) fn release(&self, scratch: SearchScratch) {
        self.lock().push(scratch);
    }
}

/// The process-wide fallback pool behind [`Engine::check`]. Callers that don't hold a
/// [`crate::Checker`] (one-off checks, doctests) used to pay a cold arena per call;
/// parking the arenas in one shared static keeps them warm instead. Scratch reuse is
/// invisible to results, so this is purely a perf fix.
pub(crate) fn default_scratch_pool() -> &'static ScratchPool {
    static POOL: OnceLock<ScratchPool> = OnceLock::new();
    POOL.get_or_init(ScratchPool::new)
}

// ---------------------------------------------------------------------------
// The walk
// ---------------------------------------------------------------------------

/// A frame of the explicit DFS stack. The frame owns the op that was applied to enter
/// it (`creator`, `NO_OP` for the root) and lazily scans candidates from `scan` up to
/// the subproblem's *current* op count. Frames carry no bound of their own, so a
/// frozen stack stays valid when the incremental session grows the subproblem under
/// it: [`resume_witness`] re-enters it without rewriting any frame.
#[derive(Debug, Clone, Copy)]
struct Frame {
    creator: u32,
    /// Value of the creator's slot before the creator was applied (writes only).
    restore: u32,
    scan: u32,
}

const NO_OP: u32 = u32::MAX;

/// What a visit rule tells the [`Walk`] on entering a configuration.
enum Visit<T> {
    /// Scan this configuration's candidates.
    Descend,
    /// Skip this configuration's subtree.
    Prune,
    /// Stop the walk here with `T`; the next [`Walk::run`] resumes with this
    /// configuration's candidate scan.
    Stop(T),
}

/// The one Wing–Gong depth-first search over a subproblem: the taken bitset, the
/// simulated register state, the partial order, the frame stack, the number of
/// completed ops taken, and whether the top frame still owes its entry visit. Every
/// search drives it through [`Walk::run`] with its own visit rule: the witness
/// search (budget, success test, memo insert), its incremental resume (the same
/// rule, re-entered at a frozen success), and [`OrderWalk`] (node cap, emit).
/// Candidates come from [`next_candidate`].
#[derive(Debug, Default)]
struct Walk {
    taken: Vec<u64>,
    vals: Vec<u32>,
    order: Vec<u32>,
    stack: Vec<Frame>,
    /// Completed ops in `order`.
    taken_completed: usize,
    /// Whether the top frame still owes its entry visit.
    entering: bool,
}

impl Walk {
    /// Resets the walk to the empty configuration of `sub`, its entry visit owed.
    fn reset(&mut self, sub: &SubProblem) {
        self.taken.clear();
        self.taken.resize(words_for(sub.ops.len()), 0);
        self.vals.clear();
        self.vals.resize(sub.slots, INIT_ID);
        self.order.clear();
        self.stack.clear();
        self.stack.push(Frame {
            creator: NO_OP,
            restore: 0,
            scan: 0,
        });
        self.taken_completed = 0;
        self.entering = true;
    }

    /// Runs the DFS from the current configuration, calling `visit` on entering each
    /// configuration, until a visit stops it (its value is returned) or every
    /// configuration has been walked (`None`).
    #[inline]
    fn run<T>(&mut self, sub: &SubProblem, mut visit: impl FnMut(&Walk) -> Visit<T>) -> Option<T> {
        while let Some(top) = self.stack.len().checked_sub(1) {
            let mut scan = self.stack[top].scan as usize;
            if std::mem::take(&mut self.entering) {
                match visit(self) {
                    Visit::Descend => {}
                    Visit::Prune => scan = sub.ops.len(),
                    Visit::Stop(out) => return Some(out),
                }
            }
            if let Some(i) = next_candidate(sub, &self.taken, &self.vals, scan) {
                self.stack[top].scan = (i + 1) as u32;
                let op = sub.ops[i];
                let restore = self.vals[op.slot as usize];
                self.taken[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
                self.taken_completed += usize::from(op.completed);
                if op.is_write {
                    self.vals[op.slot as usize] = op.value;
                }
                self.order.push(i as u32);
                self.stack.push(Frame {
                    creator: i as u32,
                    restore,
                    scan: 0,
                });
                self.entering = true;
            } else {
                let done = self.stack.pop().expect("non-empty stack");
                if done.creator != NO_OP {
                    let c = done.creator as usize;
                    let op = sub.ops[c];
                    self.taken[c / WORD_BITS] &= !(1u64 << (c % WORD_BITS));
                    self.taken_completed -= usize::from(op.completed);
                    if op.is_write {
                        self.vals[op.slot as usize] = done.restore;
                    }
                    self.order.pop();
                }
            }
        }
        None
    }
}

/// Statistics of one sub-search.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SearchStats {
    pub(crate) states_explored: u64,
    pub(crate) states_memoized: u64,
    pub(crate) limit_hit: bool,
    pub(crate) memo: MemoStats,
    pub(crate) sketch: StateSketch,
}

impl SearchStats {
    /// Folds another sub-search's statistics in (the shared-budget accounting the
    /// incremental session replays); `limit_hit` is handled by the callers.
    pub(crate) fn absorb(&mut self, other: &SearchStats) {
        self.states_explored += other.states_explored;
        self.states_memoized += other.states_memoized;
        self.memo.absorb(&other.memo);
        self.sketch.merge(&other.sketch);
    }
}

/// Depth-first search for a single witness over `sub`, memoized on arena-packed
/// `(taken, state)` keys. `budget` is shared across sub-searches so the global
/// state-limit semantics match the original joint checker. All working buffers live
/// in `scratch`, reset on entry — reuse across searches is invisible to results.
pub(crate) fn search_witness(
    sub: &SubProblem,
    budget: &mut u64,
    stats: &mut SearchStats,
    scratch: &mut SearchScratch,
) -> Option<Vec<u32>> {
    let n = sub.ops.len();
    scratch.walk.reset(sub);
    // The logical table size is deterministic — the incremental session compares
    // [`memo_size_class`] across appends for its invalidation rule — and a warm
    // arena only skips the *physical* allocation.
    scratch
        .memo
        .begin(words_for(n), sub.slots, memo_size_class(n));
    let witness = witness_walk(sub, budget, stats, scratch);
    scratch.memo.drain_into(stats);
    witness
}

/// The memo slot-array size of a witness search over an `n`-op subproblem: room for a
/// burst of nodes (sequential-ish histories then never rehash), a power of two. The
/// incremental session compares this class across appends: a search resumed on a
/// grown subproblem keeps the frozen table, which is only bit-compatible with a
/// from-scratch search while the class is unchanged.
pub(crate) fn memo_size_class(n: usize) -> usize {
    ((n * 4).clamp(16, 1024) * 2).next_power_of_two()
}

/// The witness search's visit rule, run on the scratch's walk from wherever it
/// stands: count the state, charge the budget, stop at the first configuration with
/// every completed op taken, and prune a configuration the memo table has seen.
/// Memo counters stay in the table; the caller drains or assigns them.
fn witness_walk(
    sub: &SubProblem,
    budget: &mut u64,
    stats: &mut SearchStats,
    scratch: &mut SearchScratch,
) -> Option<Vec<u32>> {
    let SearchScratch { walk, memo } = scratch;
    walk.run(sub, |walk| {
        stats.states_explored += 1;
        if *budget == 0 {
            stats.limit_hit = true;
            return Visit::Stop(None);
        }
        *budget -= 1;
        if walk.taken_completed == sub.completed {
            // Clone rather than take: the scratch keeps its warm buffer for the
            // next search, and one witness allocation per sub-search is noise.
            return Visit::Stop(Some(walk.order.clone()));
        }
        if memo.insert(&walk.taken, &walk.vals) {
            Visit::Descend
        } else {
            stats.states_memoized += 1;
            stats.memo.hits += 1;
            Visit::Prune
        }
    })
    .flatten()
}

/// Re-enters the witness search at the success configuration a previous witness
/// search over a prefix of `sub` left frozen in `scratch`, instead of re-deriving the
/// whole DFS trajectory from the empty configuration.
///
/// Correctness (the incremental session's invalidation rule — see
/// [`crate::incremental`]): when every op added since the freeze sits at the end of
/// the register's invocation-ordered op list with an invocation strictly after every
/// frozen completed op's response, no added op is a Wing–Gong candidate at any
/// configuration the frozen search visited *before* its success — the op's
/// predecessor set contains every frozen completed op, so viability implies the
/// all-completed-taken configuration where that search stopped. A from-scratch
/// search of the grown subproblem therefore replays the frozen trajectory verbatim
/// and first diverges at the frozen success configuration; re-entering there with
/// its entry visit owed again reproduces the remainder bit-exactly, counters
/// included. (The frozen success configuration was never memo-inserted — success
/// stops before the insert, and no earlier configuration shares its taken set — so
/// re-running its entry visit, memo insert included, is exactly what the
/// from-scratch search does on arrival.) The caller must additionally ensure the
/// grown subproblem keeps the frozen taken-word count and [`memo_size_class`],
/// otherwise the frozen table's geometry no longer matches a from-scratch run, and
/// must report pending writes that completed in place through
/// [`SearchScratch::complete_in_place`].
///
/// On entry `stats` must hold the frozen search's final statistics and `budget` its
/// remaining private budget; both are rewound by one state here so the re-entered
/// configuration's entry visit counts once, not twice. Memo counters are *assigned*
/// (not drained) at the end: the live table's probe count and arena already include
/// the frozen prefix.
pub(crate) fn resume_witness(
    sub: &SubProblem,
    budget: &mut u64,
    stats: &mut SearchStats,
    scratch: &mut SearchScratch,
) -> Option<Vec<u32>> {
    debug_assert_eq!(scratch.walk.taken.len(), words_for(sub.ops.len()));
    debug_assert!(!scratch.walk.stack.is_empty(), "no frozen search to resume");
    stats.states_explored -= 1;
    *budget += 1;
    scratch.walk.entering = true;
    let witness = witness_walk(sub, budget, stats, scratch);
    stats.memo.probes = scratch.memo.probes;
    stats.memo.arena_high_water = stats
        .memo
        .arena_high_water
        .max(scratch.memo.arena.len() as u64);
    // Assign, not merge: the live table's sketch spans the frozen prefix *and* the
    // continuation — exactly the fresh-insert set of a from-scratch search.
    stats.sketch = scratch.memo.hll;
    witness
}

/// One step outcome of a resumable enumeration walk.
#[derive(Debug)]
enum WalkStep {
    /// The next linearization order, as indices local to the walked subproblem
    /// ([`OrderWalk`]) or global op indices ([`ProductWalk`]).
    Order(Vec<u32>),
    /// The walk's node count exceeded the cap it was given; the walk is poisoned.
    CapExceeded,
    /// Every order has been emitted.
    Done,
}

/// Resumable depth-first enumeration of **every** linearization order of one
/// subproblem, recording an order at each node where all completed ops are linearized
/// — the same node set (and the same pre-order emission sequence) as the original
/// recursive enumerator. Each [`OrderWalk::next_order`] call runs the [`Walk`] exactly
/// until the next order is found, so a caller that stops early pays only for the
/// prefix of the walk it consumed — this is the engine of the lazy
/// [`Linearizations`] iterator. Its visit rule counts nodes against the cap and emits
/// without memoizing.
#[derive(Debug)]
struct OrderWalk {
    walk: Walk,
    /// Nodes visited so far (monotone across `next_order` calls).
    nodes: u64,
}

impl OrderWalk {
    fn new(sub: &SubProblem) -> Self {
        let mut walk = Walk::default();
        walk.reset(sub);
        OrderWalk { walk, nodes: 0 }
    }

    /// Resumes the DFS until the next linearization order is recorded. Visiting more
    /// than `node_cap` nodes in total aborts with [`WalkStep::CapExceeded`].
    fn next_order(&mut self, sub: &SubProblem, node_cap: u64) -> WalkStep {
        let nodes = &mut self.nodes;
        self.walk
            .run(sub, |walk| {
                *nodes += 1;
                if *nodes > node_cap {
                    Visit::Stop(WalkStep::CapExceeded)
                } else if walk.taken_completed == sub.completed {
                    // Emit; the next call resumes with this configuration's candidate
                    // scan: enumeration keeps exploring past a recorded order (orders
                    // that additionally linearize pending writes are distinct and
                    // also valid).
                    Visit::Stop(WalkStep::Order(walk.order.clone()))
                } else {
                    Visit::Descend
                }
            })
            .unwrap_or(WalkStep::Done)
    }
}

/// Eagerly drains an [`OrderWalk`]: every linearization order of `sub`, plus the
/// number of nodes visited, or `Err(nodes)` if `work_limit` nodes are exceeded. This
/// is the per-register discovery stage of multi-register enumeration (which needs the
/// complete per-register order sets to build tries).
fn enumerate_all_orders(sub: &SubProblem, work_limit: u64) -> Result<(Vec<Vec<u32>>, u64), u64> {
    let mut walk = OrderWalk::new(sub);
    let mut results = Vec::new();
    loop {
        match walk.next_order(sub, work_limit) {
            WalkStep::Order(order) => results.push(order),
            WalkStep::CapExceeded => return Err(walk.nodes),
            WalkStep::Done => return Ok((results, walk.nodes)),
        }
    }
}

// ---------------------------------------------------------------------------
// Lazy interleaving product (multi-register enumeration)
// ---------------------------------------------------------------------------

/// Prefix trie over one register's linearization orders, keyed by **global** op
/// indices. `children[node]` lists `(global op, child node)` in ascending op order —
/// guaranteed by inserting the orders in the DFS pre-order [`enumerate_all_orders`]
/// emits them in — and `accepting[node]` marks paths that are themselves complete
/// linearizations of the register (all its completed ops taken).
#[derive(Debug)]
struct OrderTrie {
    children: Vec<Vec<(u32, u32)>>,
    accepting: Vec<bool>,
}

impl OrderTrie {
    fn build(sub: &SubProblem, orders: &[Vec<u32>]) -> OrderTrie {
        let mut trie = OrderTrie {
            children: vec![Vec::new()],
            accepting: vec![false],
        };
        for order in orders {
            let mut node = 0usize;
            for &local in order {
                let global = sub.ops[local as usize].global;
                // Pre-order emission means the edge being extended, if present, is the
                // most recently added child; scan from the back.
                let found = trie.children[node]
                    .iter()
                    .rev()
                    .find(|&&(op, _)| op == global)
                    .map(|&(_, child)| child as usize);
                node = match found {
                    Some(child) => child,
                    None => {
                        let child = trie.children.len();
                        trie.children[node].push((global, child as u32));
                        trie.children.push(Vec::new());
                        trie.accepting.push(false);
                        child
                    }
                };
            }
            trie.accepting[node] = true;
        }
        trie
    }
}

/// A frame of the product DFS: the register that advanced to enter this frame, the
/// trie node it came from, the op applied, and the resume point of the candidate scan.
#[derive(Debug, Clone, Copy)]
struct ProductFrame {
    reg: u32,
    prev_node: u32,
    op: u32,
    scan: u32,
}

/// Resumable DFS over the product of the per-register tries: every interleaving of
/// the per-register linearizations that respects the global real-time relation of the
/// joint subproblem — which is exactly the set of joint linearization orders — in
/// exactly the order the joint DFS emits them (candidates scanned in ascending global
/// op index, results recorded pre-order).
///
/// "Lazy" in the sense that the product is never materialized: each
/// [`ProductWalk::next_order`] call runs exactly until the next order, and the walk
/// only ever visits prefixes of **valid** per-register linearizations, skipping the
/// state-inconsistent dead ends the joint search would wade through.
#[derive(Debug)]
struct ProductWalk {
    taken: Vec<u64>,
    node_at: Vec<u32>,
    accepting: usize,
    order: Vec<u32>,
    stack: Vec<ProductFrame>,
    entering: bool,
    /// Nodes visited so far (monotone across `next_order` calls).
    nodes: u64,
}

impl ProductWalk {
    fn new(joint: &SubProblem, tries: &[OrderTrie]) -> Self {
        ProductWalk {
            taken: vec![0u64; joint.words],
            node_at: vec![0; tries.len()],
            accepting: tries.iter().filter(|t| t.accepting[0]).count(),
            order: Vec::new(),
            stack: vec![ProductFrame {
                reg: u32::MAX,
                prev_node: 0,
                op: NO_OP,
                scan: 0,
            }],
            entering: true,
            nodes: 0,
        }
    }

    /// Resumes the product DFS until the next interleaving is recorded (returned as
    /// global op indices). Visiting more than `node_cap` product nodes in total
    /// aborts with [`WalkStep::CapExceeded`].
    fn next_order(&mut self, joint: &SubProblem, tries: &[OrderTrie], node_cap: u64) -> WalkStep {
        let registers = tries.len();
        while let Some(frame) = self.stack.last_mut() {
            if self.entering {
                self.entering = false;
                self.nodes += 1;
                if self.nodes > node_cap {
                    return WalkStep::CapExceeded;
                }
                if self.accepting == registers {
                    // Emit; the next call resumes from this frame's candidate scan.
                    return WalkStep::Order(self.order.clone());
                }
            }
            // The next op is the minimal global index >= frame.scan over every
            // register's currently reachable trie children whose real-time
            // predecessors are all taken — the same candidate the joint DFS scan
            // would find next.
            let mut best: Option<(u32, u32, u32)> = None;
            for (r, trie) in tries.iter().enumerate() {
                for &(global, child) in &trie.children[self.node_at[r] as usize] {
                    if global < frame.scan {
                        continue;
                    }
                    if best.is_some_and(|(bg, _, _)| global >= bg) {
                        break; // children ascend; nothing better in this register
                    }
                    if joint.preds_satisfied(global as usize, &self.taken) {
                        best = Some((global, r as u32, child));
                        break; // this register's minimal candidate
                    }
                }
            }
            match best {
                Some((global, reg, child)) => {
                    frame.scan = global + 1;
                    let g = global as usize;
                    self.taken[g / WORD_BITS] |= 1u64 << (g % WORD_BITS);
                    let prev_node = self.node_at[reg as usize];
                    self.node_at[reg as usize] = child;
                    let trie = &tries[reg as usize];
                    match (
                        trie.accepting[prev_node as usize],
                        trie.accepting[child as usize],
                    ) {
                        (false, true) => self.accepting += 1,
                        (true, false) => self.accepting -= 1,
                        _ => {}
                    }
                    self.order.push(global);
                    self.stack.push(ProductFrame {
                        reg,
                        prev_node,
                        op: global,
                        scan: 0,
                    });
                    self.entering = true;
                }
                None => {
                    let done = self.stack.pop().expect("non-empty stack");
                    if done.op != NO_OP {
                        let g = done.op as usize;
                        self.taken[g / WORD_BITS] &= !(1u64 << (g % WORD_BITS));
                        let reg = done.reg as usize;
                        let cur = self.node_at[reg];
                        self.node_at[reg] = done.prev_node;
                        let trie = &tries[reg];
                        match (
                            trie.accepting[cur as usize],
                            trie.accepting[done.prev_node as usize],
                        ) {
                            (true, false) => self.accepting -= 1,
                            (false, true) => self.accepting += 1,
                            _ => {}
                        }
                        self.order.pop();
                    }
                }
            }
        }
        WalkStep::Done
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// The engine's one sequential search over a history's per-register subproblems
/// (`mirror`'s registers, in order): one arena, one shared budget of `state_limit`
/// states, then [`Mirror::witness_order`]. [`Engine::check_with`] runs it over the
/// engine's subproblems, and an incremental session's full fallback over its own.
pub(crate) fn check_registers<'s, V: RegisterValue>(
    mirror: &Mirror<V>,
    ops: &[Operation<V>],
    per_register: impl IntoIterator<Item = &'s SubProblem>,
    state_limit: u64,
    scratch: &ScratchPool,
) -> CheckOutcome {
    let mut budget = state_limit;
    let mut stats = SearchStats::default();
    let mut arena = scratch.acquire();
    let mut found = Vec::new();
    for sub in per_register {
        match search_witness(sub, &mut budget, &mut stats, &mut arena) {
            Some(order) => found.push((sub, order)),
            None => {
                scratch.release(arena);
                return CheckOutcome::new(None, stats);
            }
        }
    }
    let per_register = found.iter().map(|(sub, order)| (*sub, order.as_slice()));
    let order = mirror.witness_order(ops, per_register, &mut budget, &mut stats, &mut arena);
    scratch.release(arena);
    CheckOutcome::new(order, stats)
}

/// Outcome of [`Engine::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOutcome {
    /// A witness linearization as searched-op indices (see [`Engine::op`]), if one
    /// exists.
    pub order: Option<Vec<usize>>,
    /// Search nodes visited across all per-register sub-searches.
    pub states_explored: u64,
    /// Nodes pruned by memoization.
    pub states_memoized: u64,
    /// Memo-table counters of the check (probes, hits, arena high-water).
    pub memo: MemoStats,
    /// HLL sketch of the distinct configurations this check memoized (see
    /// [`StateSketch`]); deterministic like every other statistic, and mergeable
    /// across checks by a long-lived aggregator.
    pub sketch: StateSketch,
    /// `true` if the state budget ran out before the search finished; a missing
    /// witness is then inconclusive.
    pub limit_hit: bool,
}

impl CheckOutcome {
    /// The outcome of a search that found `order` (or none) with `stats`.
    pub(crate) fn new(order: Option<Vec<usize>>, stats: SearchStats) -> Self {
        CheckOutcome {
            order,
            states_explored: stats.states_explored,
            states_memoized: stats.states_memoized,
            memo: stats.memo,
            sketch: stats.sketch,
            limit_hit: stats.limit_hit,
        }
    }
}

/// Error returned when enumeration exceeds its work cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumerationLimitExceeded {
    /// Nodes visited before giving up.
    pub nodes_visited: u64,
}

impl std::fmt::Display for EnumerationLimitExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "linearization enumeration exceeded its work cap after {} search nodes",
            self.nodes_visited
        )
    }
}

impl std::error::Error for EnumerationLimitExceeded {}

/// The root-frontier size at which the engine used to split one register's search
/// into shards. Nothing reads it any more; kept only because the frozen benchmark
/// under `perfbench/` passes it to [`Engine::with_split_threshold`], and it goes with
/// the next change to that benchmark.
pub const DEFAULT_SPLIT_THRESHOLD: u32 = 24;

/// A prepared linearizability search over one history: values interned, precedence
/// precomputed, operations partitioned per register.
///
/// Build it once per history with [`Engine::new`], then run [`Engine::check`] (witness
/// search with per-register composition) any number of times. A [`Linearizations`]
/// iterator enumerates over an engine of its own.
#[derive(Debug)]
pub struct Engine<'a, V> {
    history: &'a History<V>,
    /// The searched ops, the value interner and the register partition.
    mirror: Mirror<V>,
    /// One subproblem per register of `mirror`, in register order.
    per_register: Vec<SubProblem>,
    /// Joint subproblem of a history with several registers (or none), built on the
    /// first enumeration pull (`OnceLock` rather than `OnceCell` so a prepared engine
    /// can be shared across pool threads).
    joint: OnceLock<SubProblem>,
}

impl<'a, V: RegisterValue> Engine<'a, V> {
    /// Prepares the engine for `history` with initial register value `init`.
    ///
    /// Pending reads are dropped here: a pending operation never precedes another
    /// operation, and an unreturned read constrains nothing.
    #[must_use]
    pub fn new(history: &'a History<V>, init: &'a V) -> Self {
        let ops = history.operations();
        let mirror = Mirror::new(ops, init);
        let per_register = (0..mirror.registers.len())
            .map(|k| mirror.subproblem(ops, k))
            .collect();
        Engine {
            history,
            mirror,
            per_register,
            joint: OnceLock::new(),
        }
    }

    /// Returns the engine unchanged: a check is one sequential search, so there is no
    /// root-frontier split left to configure. Kept only because the frozen benchmark
    /// under `perfbench/` names it; it goes with the next change to that benchmark.
    #[must_use]
    pub fn with_split_threshold(self, _threshold: u32) -> Self {
        self
    }

    /// The searched operation at witness index `index`. The engine searches the
    /// completed ops and the pending writes, indexed in history order; witness orders
    /// list these indices.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below the number of searched operations.
    #[must_use]
    pub fn op(&self, index: usize) -> &'a Operation<V> {
        self.mirror.op(self.history.operations(), index)
    }

    /// Number of distinct values interned (including the initial value).
    #[must_use]
    pub fn interned_values(&self) -> usize {
        self.mirror.values.len()
    }

    /// The joint subproblem over every register (enumeration). A single register's
    /// is its own subproblem (same members, same slot); otherwise it is built on first
    /// use and reused across calls.
    fn joint_subproblem(&self) -> &SubProblem {
        match &self.per_register[..] {
            [only] => only,
            _ => self
                .joint
                .get_or_init(|| self.mirror.joint_subproblem(self.history.operations())),
        }
    }

    /// Decides linearizability by checking each register's subhistory independently and
    /// merging the per-register witnesses into one global linearization order.
    ///
    /// `state_limit` bounds the total number of search nodes across all sub-searches
    /// (the same budget the original joint search applied to its single search tree).
    /// The search runs on the calling thread: registers in ascending order, one after
    /// another, sharing the budget and one scratch arena.
    #[must_use]
    pub fn check(&self, state_limit: u64) -> CheckOutcome {
        self.check_with(state_limit, default_scratch_pool())
    }

    /// [`Engine::check`] with caller-provided scratch arenas: the check pops one arena
    /// from `scratch`, reuses it across the history's per-register sub-searches, and
    /// parks it back, so a long-lived pool amortizes search allocations across checks.
    /// Results are bit-identical to [`Engine::check`] — scratch is reset on every use.
    #[must_use]
    pub fn check_with(&self, state_limit: u64, scratch: &ScratchPool) -> CheckOutcome {
        check_registers(
            &self.mirror,
            self.history.operations(),
            &self.per_register,
            state_limit,
            scratch,
        )
    }
}

// ---------------------------------------------------------------------------
// Streaming enumeration
// ---------------------------------------------------------------------------

/// Which stage a streaming enumeration is in, plus its resumable DFS state.
#[derive(Debug)]
enum EnumStage {
    /// Nothing pulled yet; the first pull picks the stage (and, for multi-register
    /// histories, runs per-register discovery).
    Unstarted,
    /// The joint DFS: single-register histories, and the fallback when per-register
    /// discovery blows the work cap. `node_cap` bounds the walk's own nodes;
    /// `prior_nodes` counts discovery nodes already spent before the fallback, so a
    /// work-cap error reports the true total.
    Joint {
        walk: OrderWalk,
        node_cap: u64,
        prior_nodes: u64,
    },
    /// The lazy interleaving product over per-register tries (multi-register).
    Product {
        tries: Vec<OrderTrie>,
        walk: ProductWalk,
        node_cap: u64,
        prior_nodes: u64,
    },
    /// Exhausted, or poisoned by a work-cap error; carries the final node count.
    Finished { nodes: u64 },
}

/// A lazy, work-capped iterator over **every** linearization of one history, in
/// exactly the emission order of the original recursive joint DFS: create it with
/// [`crate::Checker::linearizations`].
///
/// Each [`Iterator::next`] call resumes the underlying search exactly until the next
/// order is found, so `take(1)` (or dropping the iterator mid-way) pays only for the
/// prefix of the search it consumed — this is what lets existential checks like
/// [`crate::ExtensionFamily`] short-circuit instead of materializing a bounded batch
/// of orders per history. Items are `Ok(order)` (operation ids, in linearization
/// order) until either the space is exhausted (`None`) or the cumulative enumeration
/// work exceeds the iterator's cap, which yields one
/// `Err(`[`EnumerationLimitExceeded`]`)` and then fuses.
#[derive(Debug)]
pub struct Linearizations<'a, V> {
    engine: Engine<'a, V>,
    work_limit: u64,
    stage: EnumStage,
}

impl<'a, V: RegisterValue> Linearizations<'a, V> {
    /// Prepares a streaming enumeration of `history` (initial value `init`, at most
    /// `work_limit` search nodes). No search work happens until the first pull.
    pub(crate) fn new(history: &'a History<V>, init: &'a V, work_limit: u64) -> Self {
        Linearizations {
            engine: Engine::new(history, init),
            work_limit,
            stage: EnumStage::Unstarted,
        }
    }

    /// Enumeration nodes visited so far — per-register discovery plus the product (or
    /// joint) walk. This is the work counter the laziness tests pin: a consumer that
    /// stops early must observe strictly fewer nodes than a full drain. A finished or
    /// poisoned enumeration keeps reporting its final count.
    #[must_use]
    pub fn nodes_visited(&self) -> u64 {
        match &self.stage {
            EnumStage::Unstarted => 0,
            EnumStage::Finished { nodes } => *nodes,
            EnumStage::Joint {
                walk, prior_nodes, ..
            } => prior_nodes + walk.nodes,
            EnumStage::Product {
                walk, prior_nodes, ..
            } => prior_nodes + walk.nodes,
        }
    }

    /// Materializes an order previously yielded by this iterator as a well-formed
    /// sequential history: operations appear in linearization order, with linearized
    /// pending operations given a synthetic response just past the history's horizon.
    ///
    /// # Panics
    ///
    /// Panics if `order` contains an id that does not occur in the history.
    #[must_use]
    pub fn materialize(&self, order: &[OpId]) -> SeqHistory<V> {
        let history = self.engine.history;
        order_to_seq(
            history,
            order
                .iter()
                .map(|&id| history.get(id).expect("order ids come from this history")),
        )
    }

    /// Picks the stage on first pull. Multi-register histories run per-register
    /// discovery here: each register's full set of linearizations, folded into a
    /// prefix trie, with the shared work budget draining as we go. Discovery cannot
    /// stop early (the product needs every per-register order to know which
    /// interleavings exist), so a register whose own linearization space exceeds the
    /// budget falls back to the joint DFS — which *is* lazy and therefore still
    /// succeeds when the consumer wants only a few orders, exactly as the pre-product
    /// enumerator did. Total work stays within 2x the cap.
    fn start(&mut self) {
        let engine = &self.engine;
        if engine.mirror.registers.len() <= 1 {
            self.stage = EnumStage::Joint {
                walk: OrderWalk::new(engine.joint_subproblem()),
                node_cap: self.work_limit,
                prior_nodes: 0,
            };
            return;
        }
        let mut nodes_total = 0u64;
        let mut tries = Vec::with_capacity(engine.per_register.len());
        for sub in &engine.per_register {
            match enumerate_all_orders(sub, self.work_limit.saturating_sub(nodes_total)) {
                Ok((orders, nodes)) => {
                    nodes_total += nodes;
                    tries.push(OrderTrie::build(sub, &orders));
                }
                Err(nodes) => {
                    self.stage = EnumStage::Joint {
                        walk: OrderWalk::new(engine.joint_subproblem()),
                        node_cap: self.work_limit,
                        prior_nodes: nodes_total + nodes,
                    };
                    return;
                }
            }
        }
        self.stage = EnumStage::Product {
            walk: ProductWalk::new(engine.joint_subproblem(), &tries),
            tries,
            node_cap: self.work_limit.saturating_sub(nodes_total),
            prior_nodes: nodes_total,
        };
    }
}

impl<V: RegisterValue> Iterator for Linearizations<'_, V> {
    type Item = Result<Vec<OpId>, EnumerationLimitExceeded>;

    /// Pulls the next linearization order, running the underlying DFS exactly until
    /// it is found.
    fn next(&mut self) -> Option<Self::Item> {
        if matches!(self.stage, EnumStage::Unstarted) {
            self.start();
        }
        let joint = self.engine.joint_subproblem();
        let step = match &mut self.stage {
            EnumStage::Unstarted => unreachable!("started above"),
            EnumStage::Finished { .. } => return None,
            EnumStage::Joint { walk, node_cap, .. } => match walk.next_order(joint, *node_cap) {
                WalkStep::Order(order) => WalkStep::Order(
                    order
                        .iter()
                        .map(|&i| joint.ops[i as usize].global)
                        .collect(),
                ),
                other => other,
            },
            EnumStage::Product {
                tries,
                walk,
                node_cap,
                ..
            } => walk.next_order(joint, tries, *node_cap),
        };
        match step {
            WalkStep::Order(order) => Some(Ok(order
                .iter()
                .map(|&g| self.engine.op(g as usize).id)
                .collect())),
            WalkStep::CapExceeded => {
                let nodes_visited = self.nodes_visited();
                self.stage = EnumStage::Finished {
                    nodes: nodes_visited,
                };
                Some(Err(EnumerationLimitExceeded { nodes_visited }))
            }
            WalkStep::Done => {
                self.stage = EnumStage::Finished {
                    nodes: self.nodes_visited(),
                };
                None
            }
        }
    }
}

impl<V: RegisterValue> std::iter::FusedIterator for Linearizations<'_, V> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;
    use crate::ids::ProcessId;

    const R0: RegisterId = RegisterId(0);
    const R1: RegisterId = RegisterId(1);

    #[test]
    fn sketch_registers_covers_and_merge_novel_agree() {
        let mut a = StateSketch::default();
        let mut b = StateSketch::default();
        for h in 0..64u64 {
            a.observe(h.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        b.observe(0xDEAD_BEEF_CAFE_F00D);
        // A fresh sketch never covers a non-empty one.
        assert!(!StateSketch::default().covers(&b));
        // covers is reflexive, and merge_novel reports exactly !covers.
        assert!(a.covers(&a));
        let covered = a.covers(&b);
        let mut merged = a;
        assert_eq!(merged.merge_novel(&b), !covered);
        // After merging, b is covered and a second merge is never novel.
        assert!(merged.covers(&b));
        assert!(!merged.merge_novel(&b));
        // registers() exposes exactly the merge state: element-wise max.
        for ((m, x), y) in merged
            .registers()
            .iter()
            .zip(a.registers())
            .zip(b.registers())
        {
            assert_eq!(*m, (*x).max(*y));
        }
    }

    #[test]
    fn interning_assigns_dense_ids() {
        let mut b = HistoryBuilder::new();
        b.write(ProcessId(0), R0, 5i64);
        b.write(ProcessId(0), R0, 5i64);
        b.write(ProcessId(0), R0, 9i64);
        b.read(ProcessId(1), R0, 9i64);
        let h = b.build();
        let engine = Engine::new(&h, &0);
        // init (0), 5, 9 — the duplicate write and the read share existing ids.
        assert_eq!(engine.interned_values(), 3);
    }

    #[test]
    fn per_register_partitioning() {
        let mut b = HistoryBuilder::new();
        b.write(ProcessId(0), R0, 1i64);
        b.write(ProcessId(0), R1, 2i64);
        b.read(ProcessId(1), R0, 1i64);
        let h = b.build();
        let engine = Engine::new(&h, &0);
        let per_register = &engine.per_register;
        assert_eq!(per_register.len(), 2);
        assert_eq!(per_register[0].ops.len(), 2);
        assert_eq!(per_register[1].ops.len(), 1);
    }

    #[test]
    fn check_finds_witness_and_merge_respects_real_time() {
        let mut b = HistoryBuilder::new();
        b.write(ProcessId(0), R0, 1i64);
        b.write(ProcessId(0), R1, 2i64);
        b.read(ProcessId(1), R0, 1i64);
        b.read(ProcessId(1), R1, 2i64);
        let h = b.build();
        let engine = Engine::new(&h, &0);
        let outcome = engine.check(1_000_000);
        let order = outcome.order.expect("linearizable");
        assert_eq!(order.len(), 4);
        // Real-time: every op here is sequential, so the merge must reproduce history
        // order exactly.
        let invs: Vec<_> = order.iter().map(|&i| engine.op(i).invoked_at).collect();
        let mut sorted = invs.clone();
        sorted.sort();
        assert_eq!(invs, sorted);
    }

    #[test]
    fn check_rejects_stale_read() {
        let mut b = HistoryBuilder::new();
        b.write(ProcessId(0), R0, 1i64);
        b.read(ProcessId(1), R0, 0i64);
        let h = b.build();
        let engine = Engine::new(&h, &0);
        assert!(engine.check(1_000_000).order.is_none());
    }

    #[test]
    fn state_budget_is_shared_and_reported() {
        let mut b = HistoryBuilder::new();
        for i in 0..6 {
            let w = b.invoke_write(ProcessId(i), R0, i as i64 + 1);
            let _ = w; // all writes left pending: maximal concurrency
        }
        b.read(ProcessId(7), R0, 3i64);
        let h = b.build();
        let engine = Engine::new(&h, &0);
        let strict = engine.check(2);
        assert!(strict.limit_hit);
        assert!(strict.order.is_none());
        let relaxed = engine.check(1_000_000);
        assert!(!relaxed.limit_hit);
        assert!(relaxed.order.is_some());
    }

    /// Pulls up to `max` linearizations of `h` under a `work_limit`-node cap.
    fn orders(
        h: &History<i64>,
        max: usize,
        work_limit: u64,
    ) -> Result<Vec<Vec<OpId>>, EnumerationLimitExceeded> {
        Linearizations::new(h, &0, work_limit).take(max).collect()
    }

    #[test]
    fn enumerate_work_cap_fails_loudly() {
        let mut b = HistoryBuilder::new();
        let ids: Vec<_> = (0..8)
            .map(|i| b.invoke_write(ProcessId(i), R0, i as i64 + 1))
            .collect();
        for id in ids {
            b.respond_write(id);
        }
        let h = b.build();
        let err = orders(&h, usize::MAX, 50).unwrap_err();
        assert!(err.nodes_visited > 50);
        assert!(err.to_string().contains("work cap"));
    }

    #[test]
    fn multi_register_enumeration_interleaves_lazily() {
        // Two registers, each with two concurrent completed writes: 2 orders per
        // register, interleaved 4-over-2 ways each => 2 * 2 * C(4,2) = 24 orders.
        let mut b = HistoryBuilder::new();
        let mut ids = Vec::new();
        for i in 0..2 {
            ids.push(b.invoke_write(ProcessId(i), R0, i as i64 + 1));
        }
        for i in 0..2 {
            ids.push(b.invoke_write(ProcessId(2 + i), R1, i as i64 + 10));
        }
        for id in ids {
            b.respond_write(id);
        }
        let h = b.build();
        let all = orders(&h, usize::MAX, 1_000_000).unwrap();
        assert_eq!(all.len(), 24);
        // take(3) cuts the product off early — lazily, without generating all 24.
        let three = orders(&h, 3, 1_000_000).unwrap();
        assert_eq!(three, all[..3].to_vec());
    }

    #[test]
    fn multi_register_enumeration_work_cap_fails_loudly() {
        let mut b = HistoryBuilder::new();
        let mut ids = Vec::new();
        for i in 0..4 {
            ids.push(b.invoke_write(ProcessId(i), R0, i as i64 + 1));
        }
        for i in 0..4 {
            ids.push(b.invoke_write(ProcessId(4 + i), R1, i as i64 + 10));
        }
        for id in ids {
            b.respond_write(id);
        }
        let h = b.build();
        let err = orders(&h, usize::MAX, 40).unwrap_err();
        assert!(err.nodes_visited > 40);
        assert!(orders(&h, usize::MAX, 10_000_000).is_ok());
    }

    #[test]
    fn small_max_results_on_a_huge_register_falls_back_to_the_joint_search() {
        // Two registers, eight mutually concurrent completed writes each: each
        // register alone has 8! = 40,320 linearizations, far past a 10,000-node
        // budget, so the product's per-register discovery stage cannot finish.
        // Pulling one order, the joint DFS finds it in a handful
        // of nodes — the fallback must preserve that (this was an Ok -> Err
        // regression caught in review).
        let mut b = HistoryBuilder::new();
        let mut ids = Vec::new();
        for i in 0..8 {
            ids.push(b.invoke_write(ProcessId(i), R0, i as i64 + 1));
        }
        for i in 0..8 {
            ids.push(b.invoke_write(ProcessId(8 + i), R1, i as i64 + 10));
        }
        for id in ids {
            b.respond_write(id);
        }
        let h = b.build();
        let first = orders(&h, 1, 10_000).expect("joint fallback succeeds");
        assert_eq!(first.len(), 1);
        // The fallback emits the definitional (joint DFS) first order: ops in
        // ascending id, since all sixteen writes are mutually concurrent.
        assert_eq!(first[0], (0..16).map(OpId).collect::<Vec<_>>());
        // A full drain still fails loudly, counting both the discovery attempt and
        // the joint rerun.
        let err = orders(&h, usize::MAX, 10_000).unwrap_err();
        assert!(err.nodes_visited > 10_000);
    }

    /// A linearizable single-register history of `chunks * 4` operations: each chunk
    /// is three mutually concurrent writes of distinct values plus a read that pins
    /// the chunk's *first* write last — so the search backtracks through the chunk's
    /// permutations (revisiting configurations: real memo hits) before finding the
    /// witness, while the overall history stays linearizable. With enough chunks the
    /// taken bitset spans several words, exercising the skip-compacted large-key
    /// path.
    fn chunked_write_history(chunks: usize) -> History<i64> {
        let mut b = HistoryBuilder::new();
        for k in 0..chunks as i64 {
            let ids: Vec<_> = (0..3)
                .map(|j| b.invoke_write(ProcessId(j), R0, 3 * k + j as i64))
                .collect();
            for id in ids {
                b.respond_write(id);
            }
            b.read(ProcessId(3), R0, 3 * k);
        }
        b.build()
    }

    /// Reconstructs `(taken, vals)` from an arena key written by `write_key` — the
    /// inverse the compaction round-trip test pins.
    fn decode_key(key: &[u64], taken_words: usize, slots: usize) -> (Vec<u64>, Vec<u32>) {
        let (taken, rest) = if taken_words > 1 {
            let skip = key[0] as usize;
            let mut t = vec![u64::MAX; skip];
            t.extend_from_slice(&key[1..1 + taken_words - skip]);
            (t, &key[1 + taken_words - skip..])
        } else {
            (vec![key[0]], &key[1..])
        };
        let mut vals = Vec::new();
        for &w in rest {
            vals.push(w as u32);
            vals.push((w >> 32) as u32);
        }
        vals.truncate(slots);
        (taken, vals)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn packed_keys_round_trip_and_never_collide(
            taken_words in 1usize..5,
            slots in 1usize..5,
            a_raw in proptest::collection::vec(
                proptest::prop_oneof![2 => proptest::prelude::Just(u64::MAX),
                                      1 => proptest::prelude::Just(0u64),
                                      2 => 0u64..1024],
                4,
            ),
            b_raw in proptest::collection::vec(
                proptest::prop_oneof![2 => proptest::prelude::Just(u64::MAX),
                                      1 => proptest::prelude::Just(0u64),
                                      2 => 0u64..1024],
                4,
            ),
            a_vals in proptest::collection::vec(0u32..6, 4),
            b_vals in proptest::collection::vec(0u32..6, 4),
        ) {
            let a = (&a_raw[..taken_words], &a_vals[..slots]);
            let b = (&b_raw[..taken_words], &b_vals[..slots]);
            let mut key_a = Vec::new();
            let mut key_b = Vec::new();
            write_key(&mut key_a, a.0, a.1, true);
            write_key(&mut key_b, b.0, b.1, true);
            // Round trip: the compacted key decodes back to the exact configuration.
            let (taken_back, vals_back) = decode_key(&key_a, taken_words, slots);
            proptest::prop_assert_eq!(&taken_back[..], a.0);
            proptest::prop_assert_eq!(&vals_back[..], a.1);
            // Injectivity: distinct configurations never collide as arena keys.
            proptest::prop_assert_eq!(a == b, key_a == key_b);
        }
    }

    #[test]
    fn compaction_never_changes_search_results() {
        // 120 ops => a two-word taken bitset, so compaction actually drops words on
        // the deep states. The compacted and uncompacted searches must agree on the
        // witness and on every state counter (only probe counts may differ — the key
        // bytes, and so the hash sequence, change).
        let h = chunked_write_history(30);
        let engine = Engine::new(&h, &0);
        let sub = &engine.per_register[0];
        let mut outcomes = Vec::new();
        for compaction in [true, false] {
            let mut scratch = SearchScratch::default();
            scratch.memo.compaction_enabled = compaction;
            let mut budget = u64::MAX;
            let mut stats = SearchStats::default();
            let witness = search_witness(sub, &mut budget, &mut stats, &mut scratch);
            assert!(
                stats.memo.hits > 0,
                "the chunk reads must force memo traffic"
            );
            outcomes.push((witness, stats.states_explored, stats.states_memoized));
        }
        assert_eq!(outcomes[0], outcomes[1]);
    }

    #[test]
    fn warm_memo_arena_never_reallocates_across_a_batch() {
        // After one warm-up pass over the batch the arena and slot buffers have seen
        // their high-water sizes; a second pass through the same scratch must not
        // grow any physical buffer again.
        let histories: Vec<History<i64>> = (2..12).map(chunked_write_history).collect();
        let mut scratch = SearchScratch::default();
        let pass = |scratch: &mut SearchScratch| {
            for h in &histories {
                let engine = Engine::new(h, &0);
                for sub in &engine.per_register {
                    let mut budget = u64::MAX;
                    let mut stats = SearchStats::default();
                    let _ = search_witness(sub, &mut budget, &mut stats, scratch);
                }
            }
        };
        pass(&mut scratch);
        let warm = scratch.memo.reallocations;
        assert!(warm > 0, "the cold pass must have allocated");
        pass(&mut scratch);
        assert_eq!(
            scratch.memo.reallocations, warm,
            "a warm arena re-allocated during the second pass"
        );
    }

    #[test]
    fn fast_hasher_disperses_small_keys() {
        use std::hash::BuildHasher;
        let build = FastBuildHasher::default();
        let mut seen = std::collections::HashSet::new();
        for a in 0u64..64 {
            for b in 0u64..16 {
                let key: Box<[u64]> = vec![a, b].into_boxed_slice();
                seen.insert(build.hash_one(&key));
            }
        }
        assert_eq!(seen.len(), 64 * 16);
    }
}
