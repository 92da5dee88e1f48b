//! The search mirror of a history: what the batch engine and an incremental session
//! derive from a history before they search it.
//!
//! A [`Mirror`] holds four things:
//!
//! * the searched ops — completed ops and pending writes — as history indices, each
//!   with its value's interned id;
//! * the value interner: dense first-sight ids, the initial value always id 0, and
//!   each id's first-sight position;
//! * the registers, ascending, each with its member list of searched positions;
//! * [`Mirror::witness_order`], which maps per-register witness orders to one global
//!   order.
//!
//! [`Engine::new`](crate::Engine::new) builds one with [`Mirror::new`]; an
//! [`IncrementalChecker`](crate::IncrementalChecker) builds its own with the same
//! constructor on a full rebuild and keeps it in step with its history event by event
//! through [`Mirror::insert`].

use std::collections::HashMap;

use crate::engine::{search_witness, FastBuildHasher, SearchScratch, SearchStats, SubProblem};
use crate::ids::{RegisterId, Time};
use crate::op::{OpKind, Operation};
use crate::value::RegisterValue;

/// Distinct values below which the interner stays a linear-scanned dense list.
const INTERN_LINEAR_MAX: usize = 16;

/// Dense first-sight value interner over the searched ops. Ids follow first sight in
/// searched order, the initial value always id 0. Small value sets — the
/// overwhelmingly common case: a differential corpus history touches a handful of
/// values — are interned by linear scan, with no table and no hashing; past
/// [`INTERN_LINEAR_MAX`] distinct values the interner spills into a hash index with
/// identical ids. Each distinct value is cloned once, and once more into the index.
#[derive(Debug)]
pub(crate) struct ValueInterner<V> {
    /// The value of each id.
    values: Vec<V>,
    /// For each id, one past the searched position of the value's first sight: 0 for
    /// the initial value, which is sighted before any op.
    first_sight: Vec<usize>,
    spill: Option<HashMap<V, u32, FastBuildHasher>>,
}

impl<V: RegisterValue> ValueInterner<V> {
    fn new(init: &V) -> Self {
        // Pre-sized to the linear-scan limit, so a history's few values never
        // reallocate the lists while an engine is built.
        let mut values = Vec::with_capacity(INTERN_LINEAR_MAX);
        values.push(init.clone());
        let mut first_sight = Vec::with_capacity(INTERN_LINEAR_MAX);
        first_sight.push(0);
        ValueInterner {
            values,
            first_sight,
            spill: None,
        }
    }

    fn lookup(&self, v: &V) -> Option<u32> {
        match &self.spill {
            Some(map) => map.get(v).copied(),
            None => self
                .values
                .iter()
                .position(|seen| seen == v)
                .map(|i| i as u32),
        }
    }

    /// Interns `v`, recording searched position `pos` as its first sight if it is new.
    fn intern(&mut self, v: &V, pos: usize) -> u32 {
        if let Some(id) = self.lookup(v) {
            return id;
        }
        let id = self.values.len() as u32;
        self.values.push(v.clone());
        self.first_sight.push(pos + 1);
        match &mut self.spill {
            Some(map) => {
                map.insert(v.clone(), id);
            }
            None if self.values.len() > INTERN_LINEAR_MAX => {
                let mut map = HashMap::with_capacity_and_hasher(
                    2 * INTERN_LINEAR_MAX,
                    FastBuildHasher::default(),
                );
                map.extend(self.values.iter().cloned().zip(0..));
                self.spill = Some(map);
            }
            None => {}
        }
        id
    }

    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }
}

/// One searched operation: its index in the history and its value's interned id —
/// the written value, or the value a completed read returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SearchedOp {
    pub(crate) index: u32,
    pub(crate) value: u32,
}

/// The search mirror of one history; see the [module docs](self).
#[derive(Debug)]
pub(crate) struct Mirror<V> {
    /// The searched ops, in history order. A witness order lists positions here.
    pub(crate) searched: Vec<SearchedOp>,
    pub(crate) values: ValueInterner<V>,
    /// The registers of the searched ops, ascending.
    pub(crate) registers: Vec<RegisterId>,
    /// Per-register member lists (positions in `searched`, ascending), parallel to
    /// `registers`.
    pub(crate) members: Vec<Vec<u32>>,
}

/// The value a searched op carries.
fn searched_value<V>(op: &Operation<V>) -> &V {
    match &op.kind {
        OpKind::Write(v) | OpKind::Read(Some(v)) => v,
        OpKind::Read(None) => unreachable!("pending reads are not searched"),
    }
}

impl<V: RegisterValue> Mirror<V> {
    /// The mirror of the history `ops` with initial register value `init`: every
    /// searched op recorded in history order through [`Mirror::insert`], the path an
    /// incremental session appends by.
    ///
    /// Pending reads are dropped here: a pending operation never precedes another
    /// operation, and an unreturned read constrains nothing.
    pub(crate) fn new(ops: &[Operation<V>], init: &V) -> Self {
        let mut mirror = Mirror {
            searched: Vec::with_capacity(ops.len()),
            values: ValueInterner::new(init),
            registers: Vec::new(),
            members: Vec::new(),
        };
        for (index, op) in ops.iter().enumerate() {
            if op.is_complete() || op.is_write() {
                mirror.insert(ops, mirror.searched.len(), index);
            }
        }
        mirror
    }

    /// The searched op at position `g`.
    pub(crate) fn op<'o>(&self, ops: &'o [Operation<V>], g: usize) -> &'o Operation<V> {
        &ops[self.searched[g].index as usize]
    }

    /// Records history op `index` as searched op `p`, shifting later positions: interns
    /// its value at `p` and adds `p` to its register's members, registering the
    /// register in order if it is new. Returns the register's slot and whether it is
    /// new.
    ///
    /// Ids follow first sight, so a mid-list insert keeps every id only if its value
    /// was already sighted before `p`. Otherwise this returns `None` and changes
    /// nothing, and the caller rebuilds the mirror.
    pub(crate) fn insert(
        &mut self,
        ops: &[Operation<V>],
        p: usize,
        index: usize,
    ) -> Option<(usize, bool)> {
        let op = &ops[index];
        let value = if p == self.searched.len() {
            self.values.intern(searched_value(op), p)
        } else {
            let values = &mut self.values;
            let id = values
                .lookup(searched_value(op))
                .filter(|&id| values.first_sight[id as usize] <= p)?;
            for sight in &mut values.first_sight {
                if *sight > p {
                    *sight += 1;
                }
            }
            for m in self.members.iter_mut().flatten() {
                if *m >= p as u32 {
                    *m += 1;
                }
            }
            id
        };
        let index = index as u32;
        self.searched.insert(p, SearchedOp { index, value });
        let (k, fresh) = match self.registers.binary_search(&op.register) {
            Ok(k) => (k, false),
            Err(k) => {
                self.registers.insert(k, op.register);
                self.members.insert(k, Vec::new());
                (k, true)
            }
        };
        let members = &mut self.members[k];
        // An append lands last, as every op of a history-order build does.
        let at = match members.last() {
            Some(&last) if last >= p as u32 => members.partition_point(|&m| m < p as u32),
            _ => members.len(),
        };
        members.insert(at, p as u32);
        Some((k, fresh))
    }

    /// The subproblem of register slot `k`.
    pub(crate) fn subproblem(&self, ops: &[Operation<V>], k: usize) -> SubProblem {
        SubProblem::new(ops, &self.searched, &self.members[k], |_| 0, 1)
    }

    /// The joint subproblem over every register, one slot per register.
    pub(crate) fn joint_subproblem(&self, ops: &[Operation<V>]) -> SubProblem {
        let all: Vec<u32> = (0..self.searched.len() as u32).collect();
        SubProblem::new(
            ops,
            &self.searched,
            &all,
            |r| {
                let k = self.registers.binary_search(&r);
                k.expect("every searched op's register is registered") as u32
            },
            self.registers.len().max(1),
        )
    }

    /// Maps per-register witness orders — local indices into each register's
    /// subproblem, in register order — to one global order of searched positions that
    /// respects every witness order and the global real-time relation.
    ///
    /// A single register needs no merge. Several are merged k-way: a register's head
    /// op is *ready* when no unemitted op responded before it was invoked (checked in
    /// O(k) via suffix minima of response times), and among ready heads the earliest
    /// invocation wins, ties to the lowest register. The head with the minimal
    /// unemitted response is always ready, so the merge always progresses on
    /// well-formed witness orders (P-compositionality, Herlihy & Wing). Should it ever
    /// fail anyway — a regression in `precedes` or the partitioning — this falls back
    /// to the joint search on the remaining budget rather than return a wrong verdict.
    /// No debug_assert guards that branch: the safety net must work in debug builds.
    pub(crate) fn witness_order<'s>(
        &self,
        ops: &[Operation<V>],
        per_register: impl IntoIterator<Item = (&'s SubProblem, &'s [u32])>,
        budget: &mut u64,
        stats: &mut SearchStats,
        scratch: &mut SearchScratch,
    ) -> Option<Vec<usize>> {
        let orders: Vec<Vec<usize>> = per_register
            .into_iter()
            .map(|(sub, order)| {
                order
                    .iter()
                    .map(|&i| sub.ops[i as usize].global as usize)
                    .collect()
            })
            .collect();
        if orders.len() <= 1 {
            return Some(orders.into_iter().next().unwrap_or_default());
        }
        let times = |g: usize| {
            let op = self.op(ops, g);
            (op.invoked_at, op.responded_at.map_or(u64::MAX, |t| t.0))
        };
        // suffix_min_resp[r][p] = earliest response among orders[r][p..], pending ops
        // counting as never-responding.
        let suffix_min_resp: Vec<Vec<u64>> = orders
            .iter()
            .map(|order| {
                let mut mins = vec![u64::MAX; order.len() + 1];
                for p in (0..order.len()).rev() {
                    mins[p] = mins[p + 1].min(times(order[p]).1);
                }
                mins
            })
            .collect();
        let total: usize = orders.iter().map(Vec::len).sum();
        let mut pos = vec![0usize; orders.len()];
        let mut merged = Vec::with_capacity(total);
        while merged.len() < total {
            let mut best: Option<(Time, usize)> = None;
            'regs: for (r, order) in orders.iter().enumerate() {
                let Some(&head) = order.get(pos[r]) else {
                    continue;
                };
                let inv = times(head).0;
                for (r2, mins) in suffix_min_resp.iter().enumerate() {
                    // Skip the head itself when scanning its own register's suffix.
                    if mins[pos[r2] + usize::from(r2 == r)] < inv.0 {
                        continue 'regs;
                    }
                }
                if best.is_none_or(|(b, _)| inv < b) {
                    best = Some((inv, r));
                }
            }
            let Some((_, r)) = best else {
                let joint = self.joint_subproblem(ops);
                return search_witness(&joint, budget, stats, scratch)
                    .map(|order| order.into_iter().map(|i| i as usize).collect());
            };
            merged.push(orders[r][pos[r]]);
            pos[r] += 1;
        }
        Some(merged)
    }
}

/// Two interners are equal when they assign the same ids at the same first sights.
#[cfg(test)]
impl<V: RegisterValue> PartialEq for ValueInterner<V> {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
            && self.first_sight == other.first_sight
            && self.spill == other.spill
    }
}
