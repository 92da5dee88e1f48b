//! Interval registers: shared memory whose operations span explicit invoke/response
//! steps, with pluggable consistency semantics and full history recording.

use rlt_spec::{History, HistoryBuilder, OpId, ProcessId, RegisterId};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Consistency semantics of a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegisterMode {
    /// Operations take effect at a single internal point (here: the `finish_*` step).
    /// This models the *atomic* registers of Section 2.1.
    Atomic,
    /// The register is only guaranteed to be linearizable; the adversary (via the
    /// [`ReadResolver`]) may choose the return value of each finishing read among every
    /// value written so far plus the initial value. This models the "off-line"
    /// linearization power used by the Theorem 6 adversary. The recorded history should
    /// be validated with [`rlt_spec::Checker`] after the run — the register
    /// itself does not restrict the adversary.
    Linearizable,
    /// Write strongly-linearizable semantics (Definition 4): the linearization order of
    /// writes is an **append-only committed sequence**, and every write is committed no
    /// later than the moment it completes. Reads may still be resolved flexibly by the
    /// adversary, but only to values consistent with the committed write order and the
    /// real-time constraints accumulated so far.
    WriteStrongLinearizable,
}

/// Handle to an operation that has been invoked but not yet completed.
///
/// The handle is consumed by `finish_write` / `finish_read`, which prevents completing
/// the same operation twice.
#[derive(Debug, PartialEq, Eq)]
pub struct PendingOp {
    id: OpId,
}

impl PendingOp {
    /// The operation id assigned to this pending operation in the recorded history.
    #[must_use]
    pub fn id(&self) -> OpId {
        self.id
    }
}

/// One admissible return value for a finishing read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadChoice<V> {
    /// The value the read would return.
    pub value: V,
    /// The write operation that produced the value, or `None` for the initial value.
    pub write: Option<OpId>,
    /// Whether that write is already committed in the register's linearization order.
    pub committed: bool,
    /// The committed position of the write, if committed.
    pub position: Option<usize>,
}

/// The adversary's hook for choosing which admissible value a finishing read returns.
pub trait ReadResolver<V>: fmt::Debug {
    /// Returns the index (into `admissible`) of the chosen value.
    ///
    /// `admissible` is never empty; implementations must return a valid index.
    fn resolve_read(
        &mut self,
        register: RegisterId,
        reader: ProcessId,
        admissible: &[ReadChoice<V>],
    ) -> usize;
}

/// Default resolver: behaves like a well-behaved register by returning the most recently
/// committed write (or the initial value when nothing is committed).
#[derive(Debug, Clone, Copy, Default)]
pub struct LastCommittedResolver;

impl<V> ReadResolver<V> for LastCommittedResolver {
    fn resolve_read(
        &mut self,
        _register: RegisterId,
        _reader: ProcessId,
        admissible: &[ReadChoice<V>],
    ) -> usize {
        admissible
            .iter()
            .enumerate()
            .filter(|(_, c)| c.committed)
            .max_by_key(|(_, c)| c.position)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// A resolver that follows a script of values: each finishing read returns the next
/// scripted value, which must be admissible.
///
/// This is how the Theorem 6 adversary dictates what the players observe.
#[derive(Debug, Clone)]
pub struct ScriptedResolver<V> {
    script: VecDeque<V>,
    /// What to do when the script is exhausted or the scripted value is inadmissible.
    fallback: LastCommittedResolver,
    strict: bool,
}

impl<V: Clone + Eq + fmt::Debug> ScriptedResolver<V> {
    /// Creates a strict scripted resolver: it panics if a scripted value is not
    /// admissible or the script runs out.
    #[must_use]
    pub fn strict<I: IntoIterator<Item = V>>(script: I) -> Self {
        ScriptedResolver {
            script: script.into_iter().collect(),
            fallback: LastCommittedResolver,
            strict: true,
        }
    }

    /// Creates a lenient scripted resolver: when the script is exhausted or the value is
    /// inadmissible it falls back to [`LastCommittedResolver`] behaviour.
    #[must_use]
    pub fn lenient<I: IntoIterator<Item = V>>(script: I) -> Self {
        ScriptedResolver {
            script: script.into_iter().collect(),
            fallback: LastCommittedResolver,
            strict: false,
        }
    }

    /// Appends a value to the end of the script.
    pub fn push(&mut self, value: V) {
        self.script.push_back(value);
    }
}

impl<V: Clone + Eq + fmt::Debug> ReadResolver<V> for ScriptedResolver<V> {
    fn resolve_read(
        &mut self,
        register: RegisterId,
        reader: ProcessId,
        admissible: &[ReadChoice<V>],
    ) -> usize {
        if let Some(next) = self.script.pop_front() {
            if let Some(idx) = admissible.iter().position(|c| c.value == next) {
                return idx;
            }
            if self.strict {
                panic!(
                    "scripted value {next:?} for {reader} reading {register} is not admissible; \
                     admissible choices: {admissible:?}"
                );
            }
        } else if self.strict {
            panic!("scripted resolver exhausted for {reader} reading {register}");
        }
        self.fallback.resolve_read(register, reader, admissible)
    }
}

#[derive(Debug, Clone)]
struct WriteRec<V> {
    op: OpId,
    value: V,
    completed: bool,
}

#[derive(Debug, Clone, Default)]
struct RegState {
    /// Indices (into `writes`) in committed linearization order.
    order: Vec<usize>,
    /// Lower bound (position in `order`) that reads invoked from now on must respect.
    running_floor: Option<usize>,
}

#[derive(Debug, Clone)]
struct RegWrites<V> {
    writes: Vec<WriteRec<V>>,
    by_op: BTreeMap<OpId, usize>,
    state: RegState,
}

impl<V> Default for RegWrites<V> {
    fn default() -> Self {
        RegWrites {
            writes: Vec::new(),
            by_op: BTreeMap::new(),
            state: RegState::default(),
        }
    }
}

#[derive(Debug, Clone)]
enum PendingKind {
    Write,
    Read { floor_snapshot: Option<usize> },
}

#[derive(Debug, Clone)]
struct PendingRec {
    register: RegisterId,
    process: ProcessId,
    kind: PendingKind,
}

/// A collection of interval registers with history recording.
///
/// Every operation is split into a `begin_*` step (the invocation event) and a
/// `finish_*` step (the response event); arbitrarily many steps of other processes can
/// be scheduled in between, so operations overlap exactly as the scheduler dictates.
#[derive(Debug)]
pub struct SharedMem<V> {
    init: V,
    default_mode: RegisterMode,
    modes: BTreeMap<RegisterId, RegisterMode>,
    builder: HistoryBuilder<V>,
    regs: BTreeMap<RegisterId, RegWrites<V>>,
    pending: BTreeMap<OpId, PendingRec>,
    resolver: Box<dyn ReadResolver<V>>,
}

impl<V: Clone + Eq + fmt::Debug + Ord + std::hash::Hash> SharedMem<V> {
    /// Creates a memory in which every register has the given mode and initial value,
    /// with the default [`LastCommittedResolver`].
    #[must_use]
    pub fn new(mode: RegisterMode, init: V) -> Self {
        Self::with_resolver(mode, init, Box::new(LastCommittedResolver))
    }

    /// Creates a memory with a custom read resolver (the adversary's value choices).
    #[must_use]
    pub fn with_resolver(mode: RegisterMode, init: V, resolver: Box<dyn ReadResolver<V>>) -> Self {
        SharedMem {
            init,
            default_mode: mode,
            modes: BTreeMap::new(),
            builder: HistoryBuilder::new(),
            regs: BTreeMap::new(),
            pending: BTreeMap::new(),
            resolver,
        }
    }

    /// Overrides the mode of a single register.
    pub fn set_mode(&mut self, register: RegisterId, mode: RegisterMode) {
        self.modes.insert(register, mode);
    }

    /// The mode of a register.
    #[must_use]
    pub fn mode_of(&self, register: RegisterId) -> RegisterMode {
        *self.modes.get(&register).unwrap_or(&self.default_mode)
    }

    /// Starts a write operation; the write takes effect only when finished.
    pub fn begin_write(&mut self, process: ProcessId, register: RegisterId, value: V) -> PendingOp {
        let id = self.builder.invoke_write(process, register, value.clone());
        let reg = self.regs.entry(register).or_default();
        let idx = reg.writes.len();
        reg.writes.push(WriteRec {
            op: id,
            value,
            completed: false,
        });
        reg.by_op.insert(id, idx);
        self.pending.insert(
            id,
            PendingRec {
                register,
                process,
                kind: PendingKind::Write,
            },
        );
        PendingOp { id }
    }

    /// Completes a previously started write.
    ///
    /// In `Atomic` and `WriteStrongLinearizable` modes the write is committed to the
    /// register's linearization order (if it was not already committed because a read
    /// returned its value first).
    ///
    /// # Panics
    ///
    /// Panics if the handle does not refer to a pending write of this memory.
    pub fn finish_write(&mut self, op: PendingOp) {
        let rec = self
            .pending
            .remove(&op.id)
            .expect("finish_write: unknown pending operation");
        assert!(
            matches!(rec.kind, PendingKind::Write),
            "finish_write called on a read handle"
        );
        let mode = self.mode_of(rec.register);
        let reg = self.regs.get_mut(&rec.register).expect("register exists");
        let idx = *reg.by_op.get(&op.id).expect("write record exists");
        reg.writes[idx].completed = true;
        match mode {
            RegisterMode::Atomic | RegisterMode::WriteStrongLinearizable => {
                let pos = if let Some(pos) = reg.state.order.iter().position(|&i| i == idx) {
                    pos
                } else {
                    reg.state.order.push(idx);
                    reg.state.order.len() - 1
                };
                // Reads invoked after this completion must observe this write or a later
                // one.
                reg.state.running_floor = Some(reg.state.running_floor.map_or(pos, |f| f.max(pos)));
            }
            RegisterMode::Linearizable => {
                // No commitment: the adversary linearizes off-line.
            }
        }
        self.builder.respond_write(op.id);
    }

    /// Starts a read operation.
    pub fn begin_read(&mut self, process: ProcessId, register: RegisterId) -> PendingOp {
        let id = self.builder.invoke_read(process, register);
        let floor_snapshot = self.regs.get(&register).and_then(|r| r.state.running_floor);
        self.pending.insert(
            id,
            PendingRec {
                register,
                process,
                kind: PendingKind::Read { floor_snapshot },
            },
        );
        PendingOp { id }
    }

    /// Completes a previously started read and returns the value it observes, chosen by
    /// the register mode and the read resolver.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not refer to a pending read of this memory.
    pub fn finish_read(&mut self, op: PendingOp) -> V {
        let rec = self
            .pending
            .remove(&op.id)
            .expect("finish_read: unknown pending operation");
        let PendingKind::Read { floor_snapshot } = rec.kind else {
            panic!("finish_read called on a write handle");
        };
        let mode = self.mode_of(rec.register);
        let admissible = self.admissible_choices(rec.register, mode, floor_snapshot);
        debug_assert!(
            !admissible.is_empty(),
            "a read always has at least one choice"
        );
        let chosen_idx = self
            .resolver
            .resolve_read(rec.register, rec.process, &admissible);
        let choice = admissible
            .get(chosen_idx)
            .unwrap_or_else(|| panic!("resolver returned invalid index {chosen_idx}"))
            .clone();

        // Commit / floor bookkeeping for the chosen write.
        if let Some(write_op) = choice.write {
            let reg = self.regs.get_mut(&rec.register).expect("register exists");
            let idx = *reg.by_op.get(&write_op).expect("write record exists");
            match mode {
                RegisterMode::Atomic | RegisterMode::WriteStrongLinearizable => {
                    let pos = if let Some(pos) = reg.state.order.iter().position(|&i| i == idx) {
                        pos
                    } else {
                        // An uncommitted pending write observed by a read is committed
                        // now, at the end of the order (append-only).
                        reg.state.order.push(idx);
                        reg.state.order.len() - 1
                    };
                    // Reads invoked after this response must not observe an earlier
                    // write.
                    reg.state.running_floor =
                        Some(reg.state.running_floor.map_or(pos, |f| f.max(pos)));
                }
                RegisterMode::Linearizable => {}
            }
        }
        self.builder.respond_read(op.id, choice.value.clone());
        choice.value
    }

    /// Completes a read, choosing the given value among the admissible choices.
    ///
    /// This is the entry point for *scripted strong adversaries* (e.g. the Theorem 6
    /// schedule): the caller dictates what the read observes, and the register mode
    /// determines whether that observation is allowed.
    ///
    /// # Panics
    ///
    /// Panics if `desired` is not among the admissible choices of the register mode.
    pub fn finish_read_as(&mut self, op: PendingOp, desired: &V) -> V {
        let choice = self.finish_read_with(op, |admissible| {
            admissible
                .iter()
                .position(|c| c.value == *desired)
                .unwrap_or_else(|| {
                    panic!("desired value {desired:?} is not admissible; choices: {admissible:?}")
                })
        });
        choice
    }

    /// Completes a read, choosing the given value if it is admissible and falling back
    /// to the most recently committed value otherwise (the best a strong adversary can
    /// do against a write strongly-linearizable register).
    pub fn finish_read_preferring(&mut self, op: PendingOp, desired: &V) -> V {
        self.finish_read_with(op, |admissible| {
            admissible
                .iter()
                .position(|c| c.value == *desired)
                .unwrap_or_else(|| {
                    LastCommittedResolver.resolve_read(
                        RegisterId(usize::MAX),
                        ProcessId(usize::MAX),
                        admissible,
                    )
                })
        })
    }

    /// Completes a read with a caller-supplied choice function over the admissible
    /// choices (index into the slice).
    ///
    /// # Panics
    ///
    /// Panics if the handle does not refer to a pending read, or the chooser returns an
    /// out-of-range index.
    pub fn finish_read_with(
        &mut self,
        op: PendingOp,
        choose: impl FnOnce(&[ReadChoice<V>]) -> usize,
    ) -> V {
        let rec = self
            .pending
            .get(&op.id)
            .cloned()
            .expect("finish_read_with: unknown pending operation");
        let PendingKind::Read { floor_snapshot } = rec.kind else {
            panic!("finish_read_with called on a write handle");
        };
        let mode = self.mode_of(rec.register);
        let admissible = self.admissible_choices(rec.register, mode, floor_snapshot);
        let idx = choose(&admissible);
        assert!(idx < admissible.len(), "chooser returned invalid index");
        // Temporarily install a one-shot resolver that picks the chosen index, then
        // delegate to the normal completion path so all bookkeeping stays in one place.
        #[derive(Debug)]
        struct FixedIndex(usize);
        impl<V2> ReadResolver<V2> for FixedIndex {
            fn resolve_read(
                &mut self,
                _register: RegisterId,
                _reader: ProcessId,
                _admissible: &[ReadChoice<V2>],
            ) -> usize {
                self.0
            }
        }
        let previous = std::mem::replace(&mut self.resolver, Box::new(FixedIndex(idx)));
        let value = self.finish_read(op);
        self.resolver = previous;
        value
    }

    /// A complete write: `begin_write` immediately followed by `finish_write`.
    pub fn write(&mut self, process: ProcessId, register: RegisterId, value: V) {
        let op = self.begin_write(process, register, value);
        self.finish_write(op);
    }

    /// A complete read: `begin_read` immediately followed by `finish_read`.
    pub fn read(&mut self, process: ProcessId, register: RegisterId) -> V {
        let op = self.begin_read(process, register);
        self.finish_read(op)
    }

    fn admissible_choices(
        &self,
        register: RegisterId,
        mode: RegisterMode,
        floor_snapshot: Option<usize>,
    ) -> Vec<ReadChoice<V>> {
        let Some(reg) = self.regs.get(&register) else {
            return vec![ReadChoice {
                value: self.init.clone(),
                write: None,
                committed: false,
                position: None,
            }];
        };
        let mut choices = Vec::new();
        match mode {
            RegisterMode::Atomic => {
                // Exactly one choice: the last committed write, or the initial value.
                match reg.state.order.last() {
                    Some(&idx) => choices.push(ReadChoice {
                        value: reg.writes[idx].value.clone(),
                        write: Some(reg.writes[idx].op),
                        committed: true,
                        position: Some(reg.state.order.len() - 1),
                    }),
                    None => choices.push(ReadChoice {
                        value: self.init.clone(),
                        write: None,
                        committed: false,
                        position: None,
                    }),
                }
            }
            RegisterMode::WriteStrongLinearizable => {
                let floor = floor_snapshot;
                if floor.is_none() {
                    choices.push(ReadChoice {
                        value: self.init.clone(),
                        write: None,
                        committed: false,
                        position: None,
                    });
                }
                for (pos, &idx) in reg.state.order.iter().enumerate() {
                    if floor.is_none_or(|f| pos >= f) {
                        choices.push(ReadChoice {
                            value: reg.writes[idx].value.clone(),
                            write: Some(reg.writes[idx].op),
                            committed: true,
                            position: Some(pos),
                        });
                    }
                }
                // Uncommitted pending writes may be observed; doing so commits them at
                // the end of the order, which is always at or above the floor.
                for (idx, w) in reg.writes.iter().enumerate() {
                    if !w.completed && !reg.state.order.contains(&idx) {
                        choices.push(ReadChoice {
                            value: w.value.clone(),
                            write: Some(w.op),
                            committed: false,
                            position: None,
                        });
                    }
                }
            }
            RegisterMode::Linearizable => {
                choices.push(ReadChoice {
                    value: self.init.clone(),
                    write: None,
                    committed: false,
                    position: None,
                });
                for w in &reg.writes {
                    choices.push(ReadChoice {
                        value: w.value.clone(),
                        write: Some(w.op),
                        committed: false,
                        position: None,
                    });
                }
            }
        }
        choices
    }

    /// The committed linearization order of writes of a register (operation ids).
    ///
    /// Meaningful for `Atomic` and `WriteStrongLinearizable` registers; empty for
    /// `Linearizable` registers (their order is decided off-line).
    #[must_use]
    pub fn committed_write_order(&self, register: RegisterId) -> Vec<OpId> {
        self.regs
            .get(&register)
            .map(|r| r.state.order.iter().map(|&i| r.writes[i].op).collect())
            .unwrap_or_default()
    }

    /// Snapshot of the recorded invocation/response history so far.
    #[must_use]
    pub fn history(&self) -> History<V> {
        self.builder.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlt_spec::prelude::*;
    use rlt_spec::strong::ExtensionFamily;

    /// One checking session shared by every assertion in this module.
    fn is_linearizable(h: &History<i64>) -> bool {
        static CHECKER: std::sync::OnceLock<Checker<i64>> = std::sync::OnceLock::new();
        CHECKER
            .get_or_init(|| Checker::new(0i64))
            .check(h)
            .is_linearizable()
    }

    const R: RegisterId = RegisterId(0);
    const P0: ProcessId = ProcessId(0);
    const P1: ProcessId = ProcessId(1);
    const P2: ProcessId = ProcessId(2);

    #[test]
    fn atomic_read_sees_last_completed_write() {
        let mut mem: SharedMem<i64> = SharedMem::new(RegisterMode::Atomic, 0);
        assert_eq!(mem.read(P1, R), 0);
        mem.write(P0, R, 5);
        assert_eq!(mem.read(P1, R), 5);
        mem.write(P0, R, 6);
        assert_eq!(mem.read(P1, R), 6);
        assert!(is_linearizable(&mem.history()));
    }

    #[test]
    fn atomic_overlapping_write_not_visible_until_finished() {
        let mut mem: SharedMem<i64> = SharedMem::new(RegisterMode::Atomic, 0);
        let w = mem.begin_write(P0, R, 9);
        assert_eq!(mem.read(P1, R), 0);
        mem.finish_write(w);
        assert_eq!(mem.read(P1, R), 9);
        assert!(is_linearizable(&mem.history()));
    }

    #[test]
    fn linearizable_mode_lets_adversary_pick_any_written_value() {
        let mut mem: SharedMem<i64> = SharedMem::with_resolver(
            RegisterMode::Linearizable,
            0,
            Box::new(ScriptedResolver::strict(vec![1i64, 2i64])),
        );
        // Two concurrent writes; adversary shows reader 1 first, then 2.
        let w1 = mem.begin_write(P0, R, 1);
        let w2 = mem.begin_write(P1, R, 2);
        let r1 = mem.begin_read(P2, R);
        assert_eq!(mem.finish_read(r1), 1);
        let r2 = mem.begin_read(P2, R);
        assert_eq!(mem.finish_read(r2), 2);
        mem.finish_write(w1);
        mem.finish_write(w2);
        // This particular choice *is* linearizable (w1 before w2).
        assert!(is_linearizable(&mem.history()));
    }

    #[test]
    fn linearizable_mode_can_produce_non_linearizable_histories_which_checker_rejects() {
        // The adversary is unconstrained at runtime; if it flips values in a way no
        // linearization explains, the post-hoc checker catches it. (Used to document the
        // division of labour between the mode and the checker.)
        let mut mem: SharedMem<i64> = SharedMem::with_resolver(
            RegisterMode::Linearizable,
            0,
            Box::new(ScriptedResolver::strict(vec![1i64, 0i64])),
        );
        mem.write(P0, R, 1);
        assert_eq!(mem.read(P2, R), 1);
        assert_eq!(mem.read(P2, R), 0); // stale: not linearizable
        assert!(!is_linearizable(&mem.history()));
    }

    #[test]
    fn wsl_mode_floor_prevents_stale_reads() {
        let mut mem: SharedMem<i64> = SharedMem::with_resolver(
            RegisterMode::WriteStrongLinearizable,
            0,
            Box::new(ScriptedResolver::lenient(vec![0i64])),
        );
        mem.write(P0, R, 1);
        // The script asks for 0 (the initial value) but the write of 1 completed before
        // the read was invoked, so 0 is not admissible; the lenient resolver falls back
        // to the committed value.
        assert_eq!(mem.read(P2, R), 1);
        assert!(is_linearizable(&mem.history()));
    }

    #[test]
    fn wsl_mode_commits_write_order_at_completion() {
        let mut mem: SharedMem<i64> = SharedMem::new(RegisterMode::WriteStrongLinearizable, 0);
        let w1 = mem.begin_write(P0, R, 1);
        let w2 = mem.begin_write(P1, R, 2);
        let id1 = w1.id();
        let id2 = w2.id();
        mem.finish_write(w2);
        mem.finish_write(w1);
        assert_eq!(mem.committed_write_order(R), vec![id2, id1]);
        // A read invoked now must return the write at or above the floor (w1, which
        // completed last and sits at position 1).
        assert_eq!(mem.read(P2, R), 1);
        assert!(is_linearizable(&mem.history()));
    }

    #[test]
    fn wsl_mode_read_of_pending_write_commits_it() {
        let mut mem: SharedMem<i64> = SharedMem::with_resolver(
            RegisterMode::WriteStrongLinearizable,
            0,
            Box::new(ScriptedResolver::strict(vec![7i64])),
        );
        let w = mem.begin_write(P0, R, 7);
        let id = w.id();
        assert_eq!(mem.read(P2, R), 7);
        assert_eq!(mem.committed_write_order(R), vec![id]);
        mem.finish_write(w);
        // Completing the write later must not move it in the committed order.
        assert_eq!(mem.committed_write_order(R), vec![id]);
        assert!(is_linearizable(&mem.history()));
    }

    #[test]
    fn wsl_mode_reads_are_monotone_across_processes() {
        let mut mem: SharedMem<i64> = SharedMem::with_resolver(
            RegisterMode::WriteStrongLinearizable,
            0,
            // Adversary tries to show the second reader the older value.
            Box::new(ScriptedResolver::lenient(vec![2i64, 1i64])),
        );
        mem.write(P0, R, 1);
        mem.write(P0, R, 2);
        assert_eq!(mem.read(P1, R), 2);
        // The next read is invoked after the first responded, so it may not go back.
        let v = mem.read(P2, R);
        assert_eq!(v, 2);
        assert!(is_linearizable(&mem.history()));
    }

    #[test]
    fn wsl_overlapping_reads_may_straddle_a_concurrent_write() {
        // A reader that started before a write completed may still see the old value
        // even if another overlapping read saw the new one — allowed by linearizability
        // when the reads overlap. Here both reads are invoked before the write
        // completes, so the floor does not force either of them.
        let mut mem: SharedMem<i64> = SharedMem::with_resolver(
            RegisterMode::WriteStrongLinearizable,
            0,
            Box::new(ScriptedResolver::strict(vec![5i64, 0i64])),
        );
        let w = mem.begin_write(P0, R, 5);
        let ra = mem.begin_read(P1, R);
        let rb = mem.begin_read(P2, R);
        assert_eq!(mem.finish_read(ra), 5);
        mem.finish_write(w);
        // rb was invoked before ra responded and before w completed, so 0 is still
        // admissible for it...
        let v = mem.finish_read(rb);
        // ...but that combination (ra sees 5 then rb, overlapping ra, sees 0) is
        // fine for linearizability only if rb is linearized before w and ra after; the
        // checker confirms.
        assert_eq!(v, 0);
        assert!(is_linearizable(&mem.history()));
    }

    #[test]
    fn finish_read_as_and_preferring() {
        // Linearizable mode: any written value may be dictated.
        let mut mem: SharedMem<i64> = SharedMem::new(RegisterMode::Linearizable, 0);
        let w1 = mem.begin_write(P0, R, 1);
        let w2 = mem.begin_write(P1, R, 2);
        let r1 = mem.begin_read(P2, R);
        assert_eq!(mem.finish_read_as(r1, &2), 2);
        mem.finish_write(w1);
        mem.finish_write(w2);

        // WSL mode: dictation is limited by the committed order; preferring falls back.
        let mut mem: SharedMem<i64> = SharedMem::new(RegisterMode::WriteStrongLinearizable, 0);
        mem.write(P0, R, 5);
        let r = mem.begin_read(P2, R);
        assert_eq!(mem.finish_read_preferring(r, &0), 5);
    }

    #[test]
    #[should_panic(expected = "not admissible")]
    fn finish_read_as_rejects_inadmissible_values() {
        let mut mem: SharedMem<i64> = SharedMem::new(RegisterMode::WriteStrongLinearizable, 0);
        mem.write(P0, R, 5);
        let r = mem.begin_read(P2, R);
        let _ = mem.finish_read_as(r, &0);
    }

    #[test]
    fn per_register_mode_overrides() {
        let r2 = RegisterId(1);
        let mut mem: SharedMem<i64> = SharedMem::new(RegisterMode::Atomic, 0);
        mem.set_mode(r2, RegisterMode::Linearizable);
        assert_eq!(mem.mode_of(R), RegisterMode::Atomic);
        assert_eq!(mem.mode_of(r2), RegisterMode::Linearizable);
    }

    #[test]
    fn history_records_pending_operations() {
        let mut mem: SharedMem<i64> = SharedMem::new(RegisterMode::Atomic, 0);
        let _w = mem.begin_write(P0, R, 1);
        let h = mem.history();
        assert_eq!(h.len(), 1);
        assert_eq!(h.pending().count(), 1);
    }

    #[test]
    fn wsl_committed_order_is_append_only_across_a_run() {
        // Random-ish interleaving of writes and reads; verify the committed order only
        // ever grows by appending.
        let mut mem: SharedMem<i64> = SharedMem::new(RegisterMode::WriteStrongLinearizable, 0);
        let mut last_order: Vec<OpId> = Vec::new();
        let mut handles = Vec::new();
        for i in 0..10i64 {
            handles.push(mem.begin_write(ProcessId((i % 3) as usize), R, i));
            if i % 2 == 0 {
                let h = handles.remove(0);
                mem.finish_write(h);
            }
            let _ = mem.read(ProcessId(3), R);
            let order = mem.committed_write_order(R);
            assert!(order.len() >= last_order.len());
            assert_eq!(&order[..last_order.len()], &last_order[..]);
            last_order = order;
        }
        for h in handles {
            mem.finish_write(h);
        }
        assert!(is_linearizable(&mem.history()));
    }

    #[test]
    fn theorem6_core_step_requires_linearizable_mode() {
        // After p0's write of [0,j] completes (p1's write of [1,j] still pending), in
        // WSL mode the adversary cannot make one reader see [0,j]→[1,j] *and* keep the
        // option of the opposite order for a different continuation: the order is
        // committed. We verify the weaker, directly observable fact: once a reader has
        // seen [1,j] (committing the pending write after [0,j]), no later-invoked read
        // can see only [0,j].
        use rlt_spec::Value;
        let mut mem: SharedMem<Value> = SharedMem::with_resolver(
            RegisterMode::WriteStrongLinearizable,
            Value::Init,
            Box::new(ScriptedResolver::lenient(vec![
                Value::Pair(0, 1),
                Value::Pair(1, 1),
                Value::Pair(0, 1), // inadmissible by then; falls back
            ])),
        );
        let w0 = mem.begin_write(P0, R, Value::Pair(0, 1));
        let w1 = mem.begin_write(P1, R, Value::Pair(1, 1));
        mem.finish_write(w0);
        assert_eq!(mem.read(P2, R), Value::Pair(0, 1));
        assert_eq!(mem.read(P2, R), Value::Pair(1, 1));
        // The pending w1 is now committed after w0; a fresh read cannot go back to w0.
        assert_eq!(mem.read(ProcessId(3), R), Value::Pair(1, 1));
        mem.finish_write(w1);
        assert!(Checker::new(Value::Init)
            .check(&mem.history())
            .is_linearizable());
    }

    #[test]
    fn linearizable_mode_supports_the_conflicting_extension_family() {
        // Build, with the interval registers, the base history used by the Theorem 13
        // style argument: a completed write concurrent with a pending one — and verify
        // the two conflicting continuations are both realizable in Linearizable mode.
        let build = |first_read: i64| -> History<i64> {
            let mut mem: SharedMem<i64> = SharedMem::with_resolver(
                RegisterMode::Linearizable,
                0,
                Box::new(ScriptedResolver::strict(vec![first_read])),
            );
            let w1 = mem.begin_write(P1, R, 1);
            let w2 = mem.begin_write(P2, R, 2);
            mem.finish_write(w2);
            // --- base history ends here; continuation: w1 completes, p3 reads.
            mem.finish_write(w1);
            let r = mem.begin_read(ProcessId(3), R);
            mem.finish_read(r);
            mem.history()
        };
        let ext_a = build(2);
        let ext_b = build(1);
        assert!(is_linearizable(&ext_a));
        assert!(is_linearizable(&ext_b));
        // The two continuations share the same base prefix (same op ids and times by
        // construction) yet force opposite write orders — the family admits no write
        // strong-linearization.
        let base = ext_a.prefix_at(ext_a.get(OpId(1)).unwrap().responded_at.unwrap());
        let family = ExtensionFamily::new(base, vec![ext_a, ext_b], 0i64);
        assert!(!family.check_write_strong(1_000).admits);
    }
}
