//! Existential prefix-property checks over explicit history families.
//!
//! Proving that an implementation is *not* write strongly-linearizable (Theorem 13) or
//! not strongly linearizable (Corollary 11) requires showing that **no** linearization
//! function can satisfy the prefix property on some family of histories: a base history
//! `G` together with two (or more) extensions of `G` that the implementation can
//! produce. This module enumerates every linearization of `G` and asks, for each one,
//! whether it can be extended consistently to every extension; if no choice works, the
//! family witnesses the impossibility.

use crate::checker::{CheckStats, Checker};
use crate::engine::{EnumerationLimitExceeded, Linearizations};
use crate::history::History;
use crate::ids::OpId;
use crate::linearizability::DEFAULT_ENUMERATION_WORK_LIMIT;
use crate::sequential::SeqHistory;
use crate::value::RegisterValue;
use std::fmt;

/// A base history together with extensions of it, all produced by one implementation.
#[derive(Debug, Clone)]
pub struct ExtensionFamily<V> {
    /// The common prefix `G`.
    pub base: History<V>,
    /// Extensions `H` with `G ⊑ H`.
    pub extensions: Vec<History<V>>,
    /// The register's initial value.
    pub init: V,
}

/// Outcome of an existential prefix-property check on an [`ExtensionFamily`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyReport<V> {
    /// Whether some linearization of the base can be consistently extended to every
    /// extension.
    pub admits: bool,
    /// For each linearization of the base (in enumeration order), the index of the
    /// first extension it cannot be extended to, or `None` if it extends to all.
    pub per_base_linearization: Vec<Option<usize>>,
    /// The base linearizations that were examined.
    pub base_linearizations: Vec<SeqHistory<V>>,
    /// Search statistics: `enumeration_nodes` counts every node the base and
    /// extension enumerations visited. Because the extensions are pulled *lazily*
    /// from streaming [`Linearizations`] iterators, this is at most — and on families
    /// with extensions the check never has to exhaust, strictly less than — what the
    /// pre-streaming implementation spent materializing `max_linearizations` orders
    /// per member.
    pub stats: CheckStats,
}

impl<V> fmt::Display for FamilyReport<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "family {} a prefix-preserving linearization ({} base linearizations examined)",
            if self.admits {
                "admits"
            } else {
                "does not admit"
            },
            self.base_linearizations.len()
        )?;
        for (i, blocked) in self.per_base_linearization.iter().enumerate() {
            match blocked {
                Some(ext) => writeln!(f, "  f(G) #{i}: contradicted by extension #{ext}")?,
                None => writeln!(f, "  f(G) #{i}: extends to every extension")?,
            }
        }
        Ok(())
    }
}

impl<V: RegisterValue> ExtensionFamily<V> {
    /// Creates a family after validating that every extension indeed has `base` as a
    /// prefix.
    ///
    /// # Panics
    ///
    /// Panics if some extension does not extend `base`.
    #[must_use]
    pub fn new(base: History<V>, extensions: Vec<History<V>>, init: V) -> Self {
        for (i, ext) in extensions.iter().enumerate() {
            assert!(
                base.is_prefix_of(ext),
                "extension #{i} does not have the base history as a prefix"
            );
        }
        ExtensionFamily {
            base,
            extensions,
            init,
        }
    }

    /// Checks whether the family admits a **write strong-linearization**: is there a
    /// linearization of the base whose *write sequence* is a prefix of the write
    /// sequence of some linearization of every extension?
    ///
    /// Returning `false` proves that no write strong-linearization function exists for
    /// any history set containing the base and all the extensions — the shape of the
    /// Theorem 13 argument.
    ///
    /// # Panics
    ///
    /// Panics if enumerating the linearizations of some member history exceeds the
    /// default work cap; use [`ExtensionFamily::try_check_write_strong`] to handle
    /// adversarial families as a value.
    #[must_use]
    pub fn check_write_strong(&self, max_linearizations: usize) -> FamilyReport<V> {
        self.try_check_write_strong(max_linearizations, DEFAULT_ENUMERATION_WORK_LIMIT)
            .unwrap_or_else(|e| panic!("{e} while enumerating the family's linearizations"))
    }

    /// Checks whether the family admits a **strong linearization** (prefix property over
    /// the full operation sequence, Definition 3) — the Corollary 11 setting.
    ///
    /// # Panics
    ///
    /// Panics if enumeration exceeds the default work cap; see
    /// [`ExtensionFamily::try_check_strong`].
    #[must_use]
    pub fn check_strong(&self, max_linearizations: usize) -> FamilyReport<V> {
        self.try_check_strong(max_linearizations, DEFAULT_ENUMERATION_WORK_LIMIT)
            .unwrap_or_else(|e| panic!("{e} while enumerating the family's linearizations"))
    }

    /// Like [`ExtensionFamily::check_write_strong`] but bounded: enumeration of each
    /// member history visits at most `work_limit` search nodes before failing with
    /// [`EnumerationLimitExceeded`] instead of hanging.
    pub fn try_check_write_strong(
        &self,
        max_linearizations: usize,
        work_limit: u64,
    ) -> Result<FamilyReport<V>, EnumerationLimitExceeded> {
        self.check(max_linearizations, work_limit, Mode::WritesOnly)
    }

    /// Like [`ExtensionFamily::check_strong`] but bounded by `work_limit`.
    pub fn try_check_strong(
        &self,
        max_linearizations: usize,
        work_limit: u64,
    ) -> Result<FamilyReport<V>, EnumerationLimitExceeded> {
        self.check(max_linearizations, work_limit, Mode::AllOperations)
    }

    fn check(
        &self,
        max_linearizations: usize,
        work_limit: u64,
        mode: Mode,
    ) -> Result<FamilyReport<V>, EnumerationLimitExceeded> {
        // The base gates everything (and is the usual work-cap offender), so it is
        // enumerated first, alone — a family whose base blows the cap fails after one
        // budget's worth of work, as before, and the report needs every base
        // linearization anyway. The extensions, in contrast, are *streamed*: each one
        // is a lazy [`Linearizations`] iterator pulled only as far as the check
        // needs — pulls stop at the first order that extends the base linearization
        // under test, already-pulled orders are cached for later base linearizations,
        // and an extension that never has to prove a negative is never exhausted (an
        // extension past the first blocking one may not be pulled at all). The
        // verdict and the per-base blocking indices are exactly those of the eager
        // implementation; only the work (tracked in `stats.enumeration_nodes`)
        // shrinks.
        let checker = Checker::builder(self.init.clone())
            .enumeration_work_cap(work_limit)
            .build();
        let mut base_iter = checker.linearizations(&self.base);
        let mut base_lins: Vec<SeqHistory<V>> = Vec::new();
        let mut base_projs: Vec<Vec<OpId>> = Vec::new();
        while base_lins.len() < max_linearizations {
            match base_iter.next() {
                Some(Ok(order)) => {
                    base_projs.push(mode.project_order(&self.base, &order));
                    base_lins.push(base_iter.materialize(&order));
                }
                Some(Err(err)) => return Err(err),
                None => break,
            }
        }
        let mut exts: Vec<ExtStream<'_, V>> = self
            .extensions
            .iter()
            .map(|history| ExtStream {
                iter: checker.linearizations(history),
                history,
                projections: Vec::new(),
                exhausted: false,
            })
            .collect();
        let mut per_base = Vec::new();
        let mut admits = false;
        for base_proj in &base_projs {
            let mut blocked = None;
            for (ei, ext) in exts.iter_mut().enumerate() {
                if !ext.extendable(base_proj, max_linearizations, mode)? {
                    blocked = Some(ei);
                    break;
                }
            }
            if blocked.is_none() {
                admits = true;
            }
            per_base.push(blocked);
        }
        let enumeration_nodes =
            base_iter.nodes_visited() + exts.iter().map(|e| e.iter.nodes_visited()).sum::<u64>();
        Ok(FamilyReport {
            admits,
            per_base_linearization: per_base,
            base_linearizations: base_lins,
            stats: CheckStats {
                enumeration_nodes,
                ..CheckStats::default()
            },
        })
    }
}

/// One extension's lazily pulled linearization stream: projections of the orders
/// pulled so far (write ids or all ids, per [`Mode`]) plus the live iterator.
struct ExtStream<'a, V> {
    iter: Linearizations<'a, V>,
    history: &'a History<V>,
    projections: Vec<Vec<OpId>>,
    exhausted: bool,
}

impl<V: RegisterValue> ExtStream<'_, V> {
    /// Does some linearization of this extension have `base_proj` as a (projected)
    /// prefix? Scans the cached projections first, then pulls fresh orders — stopping
    /// at the first hit — until the space is exhausted or `max_linearizations` orders
    /// have been examined (the same per-member bound the eager path applied).
    fn extendable(
        &mut self,
        base_proj: &[OpId],
        max_linearizations: usize,
        mode: Mode,
    ) -> Result<bool, EnumerationLimitExceeded> {
        let extends = |ext_proj: &[OpId]| {
            base_proj.len() <= ext_proj.len() && *base_proj == ext_proj[..base_proj.len()]
        };
        if self.projections.iter().any(|p| extends(p)) {
            return Ok(true);
        }
        while !self.exhausted && self.projections.len() < max_linearizations {
            match self.iter.next() {
                Some(Ok(order)) => {
                    let proj = mode.project_order(self.history, &order);
                    let hit = extends(&proj);
                    self.projections.push(proj);
                    if hit {
                        return Ok(true);
                    }
                }
                Some(Err(err)) => return Err(err),
                None => self.exhausted = true,
            }
        }
        Ok(false)
    }
}

#[derive(Debug, Clone, Copy)]
enum Mode {
    WritesOnly,
    AllOperations,
}

impl Mode {
    /// Projects a linearization order onto the subsequence the prefix property
    /// quantifies over: write operations (Definition 4) or everything (Definition 3).
    fn project_order<V: RegisterValue>(self, history: &History<V>, order: &[OpId]) -> Vec<OpId> {
        match self {
            Mode::WritesOnly => order
                .iter()
                .copied()
                .filter(|id| {
                    history
                        .get(*id)
                        .expect("order ids come from this history")
                        .is_write()
                })
                .collect(),
            Mode::AllOperations => order.to_vec(),
        }
    }
}

/// Convenience wrapper around [`ExtensionFamily::check_write_strong`]: returns `true`
/// iff the family admits a write strong-linearization.
#[must_use]
pub fn admits_write_strong_linearization<V: RegisterValue>(
    base: History<V>,
    extensions: Vec<History<V>>,
    init: V,
    max_linearizations: usize,
) -> bool {
    ExtensionFamily::new(base, extensions, init)
        .check_write_strong(max_linearizations)
        .admits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;
    use crate::ids::{ProcessId, RegisterId};

    const R: RegisterId = RegisterId(0);

    /// Family with a single extension that simply continues the base: always admits.
    #[test]
    fn trivially_extendable_family_admits() {
        let mut b = HistoryBuilder::new();
        b.write(ProcessId(0), R, 1i64);
        let base = b.snapshot();
        b.write(ProcessId(1), R, 2i64);
        let ext = b.build();
        let report = ExtensionFamily::new(base, vec![ext], 0i64).check_write_strong(1_000);
        assert!(report.admits);
        assert!(report.per_base_linearization.iter().any(|b| b.is_none()));
    }

    /// A miniature version of the Theorem 13 structure: in the base history two writes
    /// are concurrent (w1 by p1 still pending, w2 by p2 completed), and the two
    /// extensions each contain a read that *forces* the two writes into opposite
    /// orders. No linearization of the base survives both extensions.
    #[test]
    fn conflicting_extensions_defeat_write_strong_linearization() {
        // Base G: w1 = write(1) by p1 pending; w2 = write(2) by p2 completed.
        let mut b = HistoryBuilder::new();
        let w1 = b.invoke_write(ProcessId(1), R, 1i64);
        let w2 = b.invoke_write(ProcessId(2), R, 2i64);
        b.respond_write(w2);
        let base = b.snapshot();

        // Extension H_a: w1 completes, then p3 reads 2 — so w1 must be *before* w2.
        let mut ba = b.clone();
        ba.respond_write(w1);
        ba.read(ProcessId(3), R, 2i64);
        let ext_a = ba.build();

        // Extension H_b: w1 completes, then p3 reads 1 — so w2 must be *before* w1.
        let mut bb = b.clone();
        bb.respond_write(w1);
        bb.read(ProcessId(3), R, 1i64);
        let ext_b = bb.build();

        // Each extension alone is fine.
        assert!(admits_write_strong_linearization(
            base.clone(),
            vec![ext_a.clone()],
            0i64,
            1_000
        ));
        assert!(admits_write_strong_linearization(
            base.clone(),
            vec![ext_b.clone()],
            0i64,
            1_000
        ));
        // Together they are not: w2 is completed in G so it appears in f(G) (property 1
        // of Definition 2), and whichever side of w2 the pending w1 is placed on (or
        // omitted), one of the extensions contradicts the choice.
        let family = ExtensionFamily::new(base, vec![ext_a, ext_b], 0i64);
        let report = family.check_write_strong(1_000);
        assert!(!report.admits, "{report}");
        assert!(report
            .per_base_linearization
            .iter()
            .all(|blocked| blocked.is_some()));
    }

    #[test]
    fn strong_check_is_at_least_as_demanding_as_write_strong() {
        // Base: one completed write and one concurrent pending read; extensions place
        // the read's return value differently relative to a later write. Build a family
        // that admits a write strong-linearization but not a strong one.
        let mut b = HistoryBuilder::new();
        let w1 = b.invoke_write(ProcessId(1), R, 1i64);
        b.respond_write(w1);
        let r = b.invoke_read(ProcessId(2), R);
        let base = b.snapshot();

        // Extension A: read returns 1 (placed after w1), then w2 completes.
        let mut ba = b.clone();
        ba.respond_read(r, 1i64);
        ba.write(ProcessId(1), R, 2i64);
        let ext_a = ba.build();

        // Extension B: w2 completes first, then the read returns 2 (read after w2).
        let mut bb = b.clone();
        bb.write(ProcessId(1), R, 2i64);
        bb.respond_read(r, 2i64);
        let ext_b = bb.build();

        let family = ExtensionFamily::new(base, vec![ext_a, ext_b], 0i64);
        let ws = family.check_write_strong(1_000);
        let strong = family.check_strong(1_000);
        assert!(ws.admits);
        // In the base the pending read is not linearized (the enumerator drops pending
        // reads), so the strong check also passes here; the point of this test is the
        // implication "strong admits ⇒ write-strong admits".
        assert!(!strong.admits || ws.admits);
    }

    #[test]
    #[should_panic(expected = "does not have the base history as a prefix")]
    fn family_rejects_non_extensions() {
        let mut b1 = HistoryBuilder::new();
        b1.write(ProcessId(0), R, 1i64);
        let base = b1.build();
        let mut b2 = HistoryBuilder::new();
        b2.write(ProcessId(1), R, 9i64);
        let other = b2.build();
        let _ = ExtensionFamily::new(base, vec![other], 0i64);
    }

    #[test]
    fn report_display_lists_outcomes() {
        let mut b = HistoryBuilder::new();
        b.write(ProcessId(0), R, 1i64);
        let base = b.snapshot();
        let ext = b.build();
        let report = ExtensionFamily::new(base, vec![ext], 0i64).check_write_strong(10);
        let text = report.to_string();
        assert!(text.contains("admits"));
    }
}
