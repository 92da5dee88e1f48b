//! Static schedule analysis: a pre-replay verifier/lint layer for schedule
//! programs.
//!
//! [`analyze`] walks a [`Schedule`] *without constructing a cluster or replaying
//! a single step*, tracking a causal dataflow view over [`EnvelopeKey`]s,
//! process incarnations (crash/recover state), and fault state (installed
//! partitions), and emits line-numbered [`Diagnostic`]s:
//!
//! * **Dead steps** ([`Severity::Dead`]) — steps that provably fire as no-ops
//!   at replay time: deliveries of keys that can never be in flight (wrong role
//!   ordering, a response whose request was never delivered, traffic on a
//!   crashed endpoint or a severed link), `recover` of a live process, `heal`
//!   of a never-installed partition, duplicate `partition` ids, client events
//!   for already-crashed or provably-busy incarnations or for processes outside
//!   the cluster, `advance` with nothing to advance to.
//! * **Warnings** ([`Severity::Warn`]) — steps that fire but look like
//!   recording bugs: partitions that are never healed, crashes of
//!   already-crashed processes.
//!
//! Soundness is the contract, pinned by proptests against
//! [`Schedule::replay_trace_on`]: every step the analyzer calls dead is in fact
//! skipped by replay, and schedules the analyzer calls clean replay without
//! triggering any of the flagged conditions. The analyzer is conservative in
//! the other direction — a step it does *not* flag may still be skipped at
//! replay time (e.g. a delivery raced out by an earlier drop of the same key).
//!
//! On top of the verdicts sit two rewrites used by the fuzz/minimize loops:
//!
//! * [`scrub`] removes the dead steps (sound because a skipped step has zero
//!   side effects on replay).
//! * [`canonicalize`] sorts runs of provably-commuting request deliveries into
//!   a canonical order, giving a conservative "cannot change coverage" verdict
//!   for mutants that are step-permutations within a single commutative class:
//!   two schedules with the same canonical form replay to bit-identical
//!   histories, coverage sketches, and fault logs.
//!
//! The model of the cluster under analysis is a [`ClusterModel`]; with
//! [`ClusterModel::permissive`] every verdict is valid for *any*
//! [`crate::AbdCluster`] flavour and size, while the shaped models
//! ([`ClusterModel::single_writer`], [`ClusterModel::multi_writer`]) unlock the
//! protocol-role diagnostics (`unsent-key`, `not-writer`, `no-write-back`,
//! `out-of-range`).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use rlt_spec::ProcessId;

use crate::abd::PID_BITS;
use crate::delivery::{
    ClientEvent, EnvelopeKey, MessageKind, Schedule, ScheduleParseError, ScheduleStep,
};

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The step provably has no effect at replay time (it is skipped).
    Dead,
    /// The step fires, but looks like a recording or hand-editing bug.
    Warn,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Dead => write!(f, "dead"),
            Severity::Warn => write!(f, "warn"),
        }
    }
}

/// One analyzer finding, anchored to a schedule step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// 0-based index of the offending step in [`Schedule::steps`].
    pub step: usize,
    /// 1-based line number (for [`analyze`] this is `step + 1`; for
    /// [`analyze_text`] it is the real line number in the source text, with
    /// blank and comment lines counted).
    pub line: usize,
    /// Severity of the finding.
    pub severity: Severity,
    /// Stable machine-readable code (e.g. `dead-recover`, `unsent-key`).
    pub code: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}: {} [{}] {}",
            self.line, self.severity, self.code, self.message
        )
    }
}

/// What the analyzer may assume about the cluster a schedule will replay on.
///
/// Every field is optional knowledge: `None`/`false` disables the diagnostics
/// that depend on it, keeping the verdicts sound for clusters the analyzer
/// knows nothing about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterModel {
    /// Number of processes, if known. Unlocks `out-of-range` and the majority
    /// threshold used by the role-ordering checks.
    pub processes: Option<usize>,
    /// The designated single writer, if known.
    pub writer: Option<ProcessId>,
    /// `Some(true)` for the multi-writer protocol, `Some(false)` for
    /// single-writer, `None` if unknown (both verbs tolerated).
    pub multi_writer: Option<bool>,
    /// `Some(false)` if the cluster provably never emits write-back traffic
    /// (the faulty flavors), unlocking the `no-write-back` verdict.
    pub write_backs: Option<bool>,
    /// Whether client retry timers may be armed. When `false` *and* no `delay`
    /// step parked a message, an `advance` step is dead.
    pub retries: bool,
}

impl ClusterModel {
    /// Assumes nothing: sound for any [`crate::AbdCluster`] flavour and size.
    #[must_use]
    pub fn permissive() -> Self {
        ClusterModel {
            processes: None,
            writer: None,
            multi_writer: None,
            write_backs: None,
            retries: true,
        }
    }

    /// The single-writer ABD shape: `n` processes, designated `writer`,
    /// write-backs present, no retry timers.
    #[must_use]
    pub fn single_writer(n: usize, writer: ProcessId) -> Self {
        ClusterModel {
            processes: Some(n),
            writer: Some(writer),
            multi_writer: Some(false),
            write_backs: Some(true),
            retries: false,
        }
    }

    /// The multi-writer ABD shape: `n` processes, any process may write,
    /// write-backs present, no retry timers.
    #[must_use]
    pub fn multi_writer(n: usize) -> Self {
        ClusterModel {
            processes: Some(n),
            writer: Some(ProcessId(0)),
            multi_writer: Some(true),
            write_backs: Some(true),
            retries: false,
        }
    }

    /// Marks the cluster as never emitting write-back traffic (the faulty,
    /// negative-control flavors).
    #[must_use]
    pub fn without_write_backs(mut self) -> Self {
        self.write_backs = Some(false);
        self
    }

    /// Marks the cluster as possibly arming retry timers, so `advance` is
    /// never judged dead.
    #[must_use]
    pub fn with_retries(mut self) -> Self {
        self.retries = true;
        self
    }

    /// Majority threshold: how many distinct replica responses complete a
    /// phase. Conservative lower bound 2 when `processes` is unknown.
    fn under_majority(&self) -> usize {
        self.processes.map_or(2, |n| n / 2 + 1)
    }

    /// The process a bare `write` verb acts as, if determinable.
    fn plain_write_actor(&self) -> Option<usize> {
        match self.multi_writer {
            Some(false) => self.writer.map(|w| w.0),
            // `start_write` on the MW cluster writes as process 0.
            Some(true) => Some(0),
            None => match self.writer {
                Some(ProcessId(0)) => Some(0),
                _ => None,
            },
        }
    }
}

/// The result of [`analyze`]: diagnostics plus a per-step dead mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    /// All findings, sorted by `(step, code)`.
    pub diagnostics: Vec<Diagnostic>,
    dead: Vec<bool>,
}

impl Analysis {
    /// `true` if the analyzer found nothing at all (no dead steps, no warnings).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` if step `idx` was judged dead (provably skipped at replay time).
    #[must_use]
    pub fn is_dead(&self, idx: usize) -> bool {
        self.dead.get(idx).copied().unwrap_or(false)
    }

    /// Number of steps judged dead.
    #[must_use]
    pub fn dead_steps(&self) -> usize {
        self.dead.iter().filter(|d| **d).count()
    }
}

/// [`analyze_text`]'s result: the parsed schedule, the real 1-based source line
/// of each step, and the [`Analysis`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextAnalysis {
    /// The parsed schedule (blank/comment lines dropped).
    pub schedule: Schedule,
    /// `lines[i]` is the 1-based source line of `schedule.steps[i]`.
    pub lines: Vec<usize>,
    /// The analysis, with each diagnostic's `line` being the real source line.
    pub analysis: Analysis,
}

/// Three-valued client-slot knowledge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientState {
    /// Provably idle (initial state, or just recovered).
    Free,
    /// Provably mid-operation: a client event certainly fired and no majority
    /// of responses has reached it since.
    Busy,
    /// Could be either.
    Unknown,
}

/// The forward-pass state. Fields marked *exact* mirror replay bit-for-bit;
/// the rest are conservative over-approximations (sets of *possible* values).
struct Pass<'m> {
    model: &'m ClusterModel,
    /// Exact: the set of currently-crashed processes.
    crashed: BTreeSet<usize>,
    /// Exact: installed partitions, id → side mask.
    partitions: BTreeMap<u32, u64>,
    /// Per-process client-slot knowledge (default `Free`).
    busy: BTreeMap<usize, ClientState>,
    /// Distinct `(from, kind-class, id)` responses delivered to a process since
    /// it was last known `Busy`; at `under_majority` distinct senders the slot
    /// may have completed, so it degrades to `Unknown`.
    busy_responses: BTreeMap<usize, BTreeSet<(usize, u8, u64)>>,
    /// Upper bound on the single-writer read-id counter.
    poss_rid: u64,
    /// Upper bound on the multi-writer shared rid counter (reads *and* writes).
    poss_rid_mw: u64,
    /// Upper bound on the single-writer write sequence counter.
    poss_writes_sw: u64,
    /// Processes that may have started an MW write (own a packed seq).
    mw_write_started: BTreeSet<usize>,
    /// A bare `write` may have started an MW write by an unknown process.
    wildcard_write_started: bool,
    /// `(from, to, kind-class, id)` of requests that were (non-dead) delivered:
    /// the only sources of the matching response.
    delivered_requests: BTreeSet<(usize, usize, u8, u64)>,
    /// `(rid, reader, replica)` of possibly-live `read-reply` deliveries: a
    /// write-back of `rid` needs `under_majority` distinct replicas here.
    reply_senders: BTreeSet<(u64, usize, usize)>,
    /// A (non-dead) `delay` parked a message, so `advance` has a deadline.
    has_delay: bool,
    /// Install step index of each still-open partition (for the post-pass
    /// `unhealed-partition` warning).
    open_partitions: BTreeMap<u32, usize>,
    diagnostics: Vec<Diagnostic>,
    dead: Vec<bool>,
}

/// `kind` → class index; `(class, id)` pairs key the request/response matching.
fn kind_class(kind: MessageKind) -> (u8, u64) {
    match kind {
        MessageKind::WriteReq(s) => (0, s),
        MessageKind::WriteAck(s) => (1, s),
        MessageKind::ReadReq(r) => (2, r),
        MessageKind::ReadReply(r) => (3, r),
        MessageKind::WriteBackReq(r) => (4, r),
        MessageKind::WriteBackAck(r) => (5, r),
    }
}

fn is_request_class(class: u8) -> bool {
    matches!(class, 0 | 2 | 4)
}

impl Pass<'_> {
    fn new(model: &ClusterModel) -> Pass<'_> {
        Pass {
            model,
            crashed: BTreeSet::new(),
            partitions: BTreeMap::new(),
            busy: BTreeMap::new(),
            busy_responses: BTreeMap::new(),
            poss_rid: 0,
            poss_rid_mw: 0,
            poss_writes_sw: 0,
            mw_write_started: BTreeSet::new(),
            wildcard_write_started: false,
            delivered_requests: BTreeSet::new(),
            reply_senders: BTreeSet::new(),
            has_delay: false,
            open_partitions: BTreeMap::new(),
            diagnostics: Vec::new(),
            dead: Vec::new(),
        }
    }

    fn flag(&mut self, step: usize, severity: Severity, code: &'static str, message: String) {
        self.diagnostics.push(Diagnostic {
            step,
            line: step + 1,
            severity,
            code,
            message,
        });
    }

    fn busy_state(&self, p: usize) -> ClientState {
        self.busy.get(&p).copied().unwrap_or(ClientState::Free)
    }

    /// Is the link `from → to` currently severed by an installed partition?
    fn severed(&self, from: usize, to: usize) -> bool {
        if from >= 64 || to >= 64 {
            return false;
        }
        self.partitions
            .values()
            .any(|side| (side >> from) & 1 != (side >> to) & 1)
    }

    /// Why a step naming `key` can provably not match any in-flight message, or
    /// `None` if it might. Checks are ordered most-specific-first so the
    /// diagnostic names the root cause.
    fn key_dead_reason(&self, key: EnvelopeKey) -> Option<(&'static str, String)> {
        let (f, t) = (key.from.0, key.to.0);
        if let Some(n) = self.model.processes {
            if f >= n || t >= n {
                return Some((
                    "out-of-range",
                    format!("key endpoints must be below the cluster size {n}"),
                ));
            }
        }
        // Invariant A of `SimNet`: the queue (and the parked set) never holds a
        // message with a currently-crashed endpoint.
        if self.crashed.contains(&f) {
            return Some((
                "crashed-endpoint",
                format!("source process {f} is crashed, so no such message is in flight"),
            ));
        }
        if self.crashed.contains(&t) {
            return Some((
                "crashed-endpoint",
                format!("destination process {t} is crashed, so no such message is in flight"),
            ));
        }
        // Invariant B: the queue never holds a message on a severed link — such
        // a message sits in partition limbo until a heal, so the step is parked
        // forever from this step's point of view.
        if self.severed(f, t) {
            return Some((
                "partition-limbo",
                format!("link {f}->{t} is severed by an installed partition"),
            ));
        }
        let (class, _) = kind_class(key.kind);
        if self.model.write_backs == Some(false) && matches!(class, 4 | 5) {
            return Some((
                "no-write-back",
                "this cluster never emits write-back traffic".to_string(),
            ));
        }
        let maj = self.model.under_majority();
        match key.kind {
            MessageKind::WriteReq(s) => {
                let sw_ok = self.model.multi_writer != Some(true)
                    && s >= 1
                    && s <= self.poss_writes_sw
                    && self.model.writer.is_none_or(|w| f == w.0);
                // Multi-writer sequence numbers pack `(counter >= 1, writer)`.
                let mw_ok = self.model.multi_writer != Some(false)
                    && s >> PID_BITS >= 1
                    && s & ((1 << PID_BITS) - 1) == f as u64
                    && (self.mw_write_started.contains(&f) || self.wildcard_write_started)
                    && self
                        .reply_senders
                        .iter()
                        .filter(|(_, to, _)| *to == f)
                        .map(|(_, _, from)| from)
                        .collect::<BTreeSet<_>>()
                        .len()
                        >= maj;
                if !sw_ok && !mw_ok {
                    return Some((
                        "unsent-key",
                        format!(
                            "no write could have produced `write-req#{s}` from process {f} yet"
                        ),
                    ));
                }
            }
            MessageKind::ReadReq(r) => {
                let limit = match self.model.multi_writer {
                    Some(false) => self.poss_rid,
                    Some(true) => self.poss_rid_mw,
                    None => self.poss_rid.max(self.poss_rid_mw),
                };
                if !(1..=limit).contains(&r) {
                    return Some((
                        "unsent-key",
                        format!("no operation could have produced `read-req#{r}` yet"),
                    ));
                }
            }
            MessageKind::WriteAck(s) => {
                if !self.delivered_requests.contains(&(t, f, 0, s)) {
                    return Some((
                        "unsent-key",
                        format!("`write-ack#{s}` needs `{t}->{f} write-req#{s}` delivered first"),
                    ));
                }
            }
            MessageKind::ReadReply(r) => {
                if !self.delivered_requests.contains(&(t, f, 2, r)) {
                    return Some((
                        "unsent-key",
                        format!("`read-reply#{r}` needs `{t}->{f} read-req#{r}` delivered first"),
                    ));
                }
            }
            MessageKind::WriteBackReq(r) => {
                let limit = match self.model.multi_writer {
                    Some(false) => self.poss_rid,
                    Some(true) => self.poss_rid_mw,
                    None => self.poss_rid.max(self.poss_rid_mw),
                };
                if !(1..=limit).contains(&r) {
                    return Some((
                        "unsent-key",
                        format!("no read could have produced `wb-req#{r}` yet"),
                    ));
                }
                let senders = self
                    .reply_senders
                    .iter()
                    .filter(|(rid, to, _)| *rid == r && *to == f)
                    .map(|(_, _, from)| from)
                    .collect::<BTreeSet<_>>()
                    .len();
                if senders < maj {
                    return Some((
                        "unsent-key",
                        format!(
                            "`wb-req#{r}` needs a majority of `read-reply#{r}` deliveries to \
                             process {f} first ({senders} of {maj} seen)"
                        ),
                    ));
                }
            }
            MessageKind::WriteBackAck(r) => {
                if !self.delivered_requests.contains(&(t, f, 4, r)) {
                    return Some((
                        "unsent-key",
                        format!("`wb-ack#{r}` needs `{t}->{f} wb-req#{r}` delivered first"),
                    ));
                }
            }
        }
        None
    }

    /// A non-dead delivery of `key` happened: fold it into the dataflow state.
    fn note_delivery(&mut self, key: EnvelopeKey) {
        let (f, t) = (key.from.0, key.to.0);
        let (class, id) = kind_class(key.kind);
        if is_request_class(class) {
            self.delivered_requests.insert((f, t, class, id));
        }
        if let MessageKind::ReadReply(r) = key.kind {
            self.reply_senders.insert((r, t, f));
        }
        if !is_request_class(class) && self.busy_state(t) == ClientState::Busy {
            let set = self.busy_responses.entry(t).or_default();
            set.insert((f, class, id));
            if set.len() >= self.model.under_majority() {
                self.busy.insert(t, ClientState::Unknown);
            }
        }
    }

    /// A client slot certainly became busy.
    fn mark_busy(&mut self, p: usize) {
        self.busy.insert(p, ClientState::Busy);
        self.busy_responses.remove(&p);
    }

    fn step(&mut self, idx: usize, step: &ScheduleStep) {
        let mut dead: Option<(&'static str, String)> = None;
        match step {
            ScheduleStep::Deliver(key)
            | ScheduleStep::Drop(key)
            | ScheduleStep::Duplicate(key)
            | ScheduleStep::Delay(key, _) => {
                dead = self.key_dead_reason(*key);
                if dead.is_none() {
                    match step {
                        ScheduleStep::Deliver(key) => self.note_delivery(*key),
                        ScheduleStep::Delay(..) => self.has_delay = true,
                        _ => {}
                    }
                }
            }
            ScheduleStep::Event(event) => dead = self.event(*event),
            ScheduleStep::Partition { id, side } => {
                if self.partitions.contains_key(id) {
                    dead = Some((
                        "shadowed-partition",
                        format!("partition id {id} is already installed"),
                    ));
                } else {
                    self.partitions.insert(*id, *side);
                    self.open_partitions.insert(*id, idx);
                }
            }
            ScheduleStep::Heal(id) => {
                if self.partitions.remove(id).is_none() {
                    dead = Some((
                        "dead-heal",
                        format!("no partition with id {id} is installed"),
                    ));
                } else {
                    self.open_partitions.remove(id);
                }
            }
            ScheduleStep::Advance => {
                if !self.model.retries && !self.has_delay {
                    dead = Some((
                        "dead-advance",
                        "no delayed message and no retry timer: nothing to advance to".to_string(),
                    ));
                }
            }
        }
        let is_dead = dead.is_some();
        if let Some((code, message)) = dead {
            self.flag(idx, Severity::Dead, code, message);
        }
        self.dead.push(is_dead);
    }

    /// Analyzes a client event; returns the dead reason, if any, and otherwise
    /// folds the event into the state.
    fn event(&mut self, event: ClientEvent) -> Option<(&'static str, String)> {
        match event {
            ClientEvent::StartWrite(_) => {
                let actor = self.model.plain_write_actor();
                if let Some(a) = actor {
                    if let Some(n) = self.model.processes {
                        if a >= n {
                            return Some((
                                "out-of-range",
                                format!("writer {a} is outside the cluster of size {n}"),
                            ));
                        }
                    }
                    if self.crashed.contains(&a) {
                        return Some((
                            "client-crashed",
                            format!("writer {a} is crashed with no intervening recover"),
                        ));
                    }
                    if self.busy_state(a) == ClientState::Busy {
                        return Some((
                            "client-busy",
                            format!("writer {a} provably has an operation in flight"),
                        ));
                    }
                }
                // Possible-fire bookkeeping (conservative: the event *may* fire).
                if self.model.multi_writer != Some(true) {
                    self.poss_writes_sw += 1;
                }
                if self.model.multi_writer != Some(false) {
                    self.poss_rid_mw += 1;
                    match actor {
                        Some(a) => {
                            self.mw_write_started.insert(a);
                        }
                        None => self.wildcard_write_started = true,
                    }
                }
                // Certain-fire: actor known, alive, and provably idle.
                if let Some(a) = actor {
                    if !self.crashed.contains(&a) && self.busy_state(a) == ClientState::Free {
                        self.mark_busy(a);
                    }
                }
                None
            }
            ClientEvent::StartWriteBy(p, _) => {
                let p = p.0;
                if self.model.multi_writer == Some(false) {
                    if let Some(w) = self.model.writer {
                        if p != w.0 {
                            return Some((
                                "not-writer",
                                format!(
                                    "single-writer cluster: only process {} may write, not {p}",
                                    w.0
                                ),
                            ));
                        }
                    }
                }
                if let Some(n) = self.model.processes {
                    if p >= n {
                        return Some((
                            "out-of-range",
                            format!("process {p} is outside the cluster of size {n}"),
                        ));
                    }
                }
                if self.crashed.contains(&p) {
                    return Some((
                        "client-crashed",
                        format!("process {p} is crashed with no intervening recover"),
                    ));
                }
                if self.busy_state(p) == ClientState::Busy {
                    return Some((
                        "client-busy",
                        format!("process {p} provably has an operation in flight"),
                    ));
                }
                if self.model.multi_writer != Some(true)
                    && self.model.writer.is_none_or(|w| p == w.0)
                {
                    self.poss_writes_sw += 1;
                }
                if self.model.multi_writer != Some(false) {
                    self.poss_rid_mw += 1;
                    self.mw_write_started.insert(p);
                }
                let in_range = self.model.processes.is_some_and(|n| p < n);
                let role_ok = self.model.multi_writer == Some(true)
                    || self.model.writer == Some(ProcessId(p));
                if in_range && role_ok && self.busy_state(p) == ClientState::Free {
                    self.mark_busy(p);
                }
                None
            }
            ClientEvent::StartRead(p) => {
                let p = p.0;
                if let Some(n) = self.model.processes {
                    if p >= n {
                        return Some((
                            "out-of-range",
                            format!("process {p} is outside the cluster of size {n}"),
                        ));
                    }
                }
                if self.crashed.contains(&p) {
                    return Some((
                        "client-crashed",
                        format!("process {p} is crashed with no intervening recover"),
                    ));
                }
                if self.busy_state(p) == ClientState::Busy {
                    return Some((
                        "client-busy",
                        format!("process {p} provably has an operation in flight"),
                    ));
                }
                self.poss_rid += 1;
                self.poss_rid_mw += 1;
                if self.model.processes.is_some_and(|n| p < n)
                    && self.busy_state(p) == ClientState::Free
                {
                    self.mark_busy(p);
                }
                None
            }
            ClientEvent::Crash(p) => {
                // An in-range `crash` always fires at replay time; the
                // redundant-crash *warning* is issued by `analyze` before this
                // state update.
                if let Some(n) = self.model.processes {
                    if p.0 >= n {
                        return Some((
                            "out-of-range",
                            format!("process {} is outside the cluster of size {n}", p.0),
                        ));
                    }
                }
                self.crashed.insert(p.0);
                None
            }
            ClientEvent::Recover(p) => {
                let p = p.0;
                if !self.crashed.contains(&p) {
                    return Some(("dead-recover", format!("process {p} is not crashed here")));
                }
                self.crashed.remove(&p);
                // A recovered process rejoins with an idle client slot.
                self.busy.insert(p, ClientState::Free);
                self.busy_responses.remove(&p);
                None
            }
        }
    }
}

/// Statically analyzes `schedule` against `model`. Pure: no cluster is
/// constructed and nothing is replayed. Diagnostics come back sorted by
/// `(step, code)` so the output is deterministic.
#[must_use]
pub fn analyze(schedule: &Schedule, model: &ClusterModel) -> Analysis {
    let mut pass = Pass::new(model);
    for (idx, step) in schedule.steps.iter().enumerate() {
        // Warnings that accompany (rather than replace) the step's effect.
        if let ScheduleStep::Event(ClientEvent::Crash(p)) = step {
            if pass.crashed.contains(&p.0) {
                pass.flag(
                    idx,
                    Severity::Warn,
                    "redundant-crash",
                    format!("process {} is already crashed", p.0),
                );
            }
        }
        pass.step(idx, step);
    }
    for (&id, &install_step) in &pass.open_partitions.clone() {
        pass.flag(
            install_step,
            Severity::Warn,
            "unhealed-partition",
            format!("partition {id} is never healed"),
        );
    }
    let mut diagnostics = pass.diagnostics;
    diagnostics.sort_by(|a, b| (a.step, a.code).cmp(&(b.step, b.code)));
    Analysis {
        diagnostics,
        dead: pass.dead,
    }
}

/// Parses schedule text line-by-line (blank lines and `#` comments skipped)
/// and analyzes it, reporting diagnostics at *real* source line numbers.
///
/// Unlike `Schedule::from_str`, a `heal` of a never-declared partition id is
/// *not* a parse error here — it becomes a `dead-heal` diagnostic, which is the
/// lint-friendly behavior. As a consequence `TextAnalysis::schedule` may not
/// round-trip through `Schedule::from_str`; [`scrub`]bing it always does.
pub fn analyze_text(text: &str, model: &ClusterModel) -> Result<TextAnalysis, ScheduleParseError> {
    let mut steps = Vec::new();
    let mut lines = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let step: ScheduleStep = line.parse().map_err(|message| ScheduleParseError {
            line: idx + 1,
            snippet: line.to_string(),
            message,
        })?;
        steps.push(step);
        lines.push(idx + 1);
    }
    let schedule = Schedule { steps };
    let mut analysis = analyze(&schedule, model);
    for diag in &mut analysis.diagnostics {
        diag.line = lines[diag.step];
    }
    Ok(TextAnalysis {
        schedule,
        lines,
        analysis,
    })
}

/// Returns `schedule` with the steps `analysis` judged dead removed.
///
/// Sound because a skipped step has zero side effects at replay time: the
/// scrubbed schedule replays to a bit-identical history, fault log, and
/// delivery count. The output always parses via `Schedule::from_str` (a dead
/// `heal` is removed; a live `heal`'s id was declared by an earlier live
/// `partition`).
#[must_use]
pub fn scrub(schedule: &Schedule, analysis: &Analysis) -> Schedule {
    Schedule {
        steps: schedule
            .steps
            .iter()
            .enumerate()
            .filter(|(i, _)| !analysis.is_dead(*i))
            .map(|(_, s)| *s)
            .collect(),
    }
}

/// May `a` and `b` be swapped without changing any replay outcome?
///
/// True only for adjacent `Deliver` steps of *request*-class messages
/// (`write-req`, `read-req`, `wb-req`) whose endpoint sets are disjoint. Firing
/// request deliveries take one envelope and push exactly one response on a
/// distinct key; with disjoint endpoints neither the queue slots outside the
/// pair, per-key envelope order, client state, nor replica state observed by
/// either delivery depends on their relative order — and if either is skipped
/// the swap is trivially neutral (a skipped step has no effects, and the other
/// step's applicability cannot depend on it: the keys involved are distinct).
fn commutes(a: &ScheduleStep, b: &ScheduleStep) -> bool {
    let (ka, kb) = match (a, b) {
        (ScheduleStep::Deliver(ka), ScheduleStep::Deliver(kb)) => (ka, kb),
        _ => return false,
    };
    let (ca, _) = kind_class(ka.kind);
    let (cb, _) = kind_class(kb.kind);
    if !is_request_class(ca) || !is_request_class(cb) {
        return false;
    }
    let ends_a = [ka.from.0, ka.to.0];
    let ends_b = [kb.from.0, kb.to.0];
    ends_a.iter().all(|e| !ends_b.contains(e))
}

/// Canonicalizes `schedule` by sorting runs of provably-commuting request
/// deliveries (`commutes`) into display-text order.
///
/// Two schedules with the same canonical form replay to bit-identical
/// histories, coverage sketches, and fault logs — the conservative
/// "cannot change coverage" verdict for step-permutation mutants within a
/// commutative class. The fuzzer uses this as its triage key so permuted twins
/// of an already-replayed mutant are rejected before costing a replay.
#[must_use]
pub fn canonicalize(schedule: &Schedule) -> Schedule {
    let mut steps = schedule.steps.clone();
    let n = steps.len();
    // Bounded bubble sort: only adjacent provably-commuting pairs may swap, so
    // the result is reachable from the input purely by neutral transpositions.
    for _ in 0..n {
        let mut swapped = false;
        for i in 0..n.saturating_sub(1) {
            if commutes(&steps[i], &steps[i + 1]) && steps[i].to_string() > steps[i + 1].to_string()
            {
                steps.swap(i, i + 1);
                swapped = true;
            }
        }
        if !swapped {
            break;
        }
    }
    Schedule { steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AbdCluster, FaultyAbdCluster};

    fn sched(text: &str) -> Schedule {
        text.parse().expect("schedule parses")
    }

    fn sw_model() -> ClusterModel {
        ClusterModel::single_writer(5, ProcessId(0))
    }

    #[test]
    fn clean_recorded_schedules_are_clean() {
        for schedule in
            crate::fuzz::record_clean_corpus(|| AbdCluster::new(5, ProcessId(0)), 3, 60, 7, false)
        {
            let analysis = analyze(&schedule, &sw_model());
            assert!(
                analysis.is_clean(),
                "recorded clean schedule flagged: {:?}",
                analysis.diagnostics
            );
        }
        for schedule in
            crate::fuzz::record_clean_corpus(|| AbdCluster::multi_writer(5), 3, 60, 7, true)
        {
            let analysis = analyze(&schedule, &ClusterModel::multi_writer(5));
            assert!(
                analysis.is_clean(),
                "recorded clean MW schedule flagged: {:?}",
                analysis.diagnostics
            );
        }
    }

    #[test]
    fn dead_recover_and_dead_heal_are_flagged() {
        let schedule = sched("recover 1\npartition 1 2\nheal 1\nwrite 7");
        let analysis = analyze(&schedule, &ClusterModel::permissive());
        assert!(analysis.is_dead(0));
        assert!(!analysis.is_dead(1));
        assert!(!analysis.is_dead(2));
        assert_eq!(analysis.diagnostics.len(), 1);
        assert_eq!(analysis.diagnostics[0].code, "dead-recover");

        let mut healless = schedule.clone();
        healless.steps.remove(2);
        let analysis = analyze(&healless, &ClusterModel::permissive());
        assert!(analysis
            .diagnostics
            .iter()
            .any(|d| d.code == "unhealed-partition" && d.step == 1));
    }

    #[test]
    fn crashed_endpoint_and_partition_limbo_kill_deliveries() {
        let model = sw_model();
        // Crash kills traffic touching the crashed endpoint.
        let schedule = sched("write 7\ncrash 1\ndeliver 0->1 write-req#1");
        let analysis = analyze(&schedule, &model);
        assert!(analysis.is_dead(2));
        assert_eq!(analysis.diagnostics[0].code, "crashed-endpoint");
        // Recover resurrects it.
        let schedule = sched("write 7\ncrash 1\nrecover 1\ndeliver 0->1 write-req#1");
        let analysis = analyze(&schedule, &model);
        assert!(!analysis.is_dead(3));
        // Partition parks it in limbo until healed.
        let schedule = sched("write 7\npartition 1 2\ndeliver 0->1 write-req#1\nheal 1");
        let analysis = analyze(&schedule, &model);
        assert!(analysis.is_dead(2));
        assert!(analysis
            .diagnostics
            .iter()
            .any(|d| d.code == "partition-limbo"));
    }

    #[test]
    fn role_ordering_diagnostics() {
        let model = sw_model();
        // An ack before its request is dead; after, alive.
        let a = analyze(&sched("write 7\ndeliver 1->0 write-ack#1"), &model);
        assert!(a.is_dead(1));
        let a = analyze(
            &sched("write 7\ndeliver 0->1 write-req#1\ndeliver 1->0 write-ack#1"),
            &model,
        );
        assert!(a.is_clean(), "{:?}", a.diagnostics);
        // A write-req nobody started is dead; process 3 can never send one.
        let a = analyze(&sched("deliver 0->1 write-req#1"), &model);
        assert!(a.is_dead(0));
        let a = analyze(&sched("write 7\ndeliver 3->1 write-req#1"), &model);
        assert!(a.is_dead(1));
        // wb-req needs a majority of read replies first.
        let a = analyze(&sched("read 2\ndeliver 2->1 wb-req#1"), &model);
        assert!(a.is_dead(1));
        let mut text = String::from("read 2\n");
        for p in [0usize, 1, 3] {
            text.push_str(&format!("deliver 2->{p} read-req#1\n"));
            text.push_str(&format!("deliver {p}->2 read-reply#1\n"));
        }
        text.push_str("deliver 2->1 wb-req#1\n");
        let a = analyze(&sched(&text), &model);
        assert!(a.is_clean(), "{:?}", a.diagnostics);
    }

    #[test]
    fn no_write_back_model_kills_wb_traffic() {
        let model = sw_model().without_write_backs();
        let a = analyze(&sched("read 2\ndeliver 2->1 wb-req#1"), &model);
        assert!(a.is_dead(1));
        assert_eq!(a.diagnostics[0].code, "no-write-back");
    }

    #[test]
    fn client_event_diagnostics() {
        let model = sw_model();
        let a = analyze(&sched("crash 0\nwrite 7"), &model);
        assert!(a.is_dead(1));
        assert!(a.diagnostics.iter().any(|d| d.code == "client-crashed"));
        // Back-to-back writes: the second is provably busy.
        let a = analyze(&sched("write 1\nwrite 2"), &model);
        assert!(a.is_dead(1));
        assert!(a.diagnostics.iter().any(|d| d.code == "client-busy"));
        // After a majority of acks the slot may be free again: not flagged.
        let a = analyze(
            &sched(
                "write 1\n\
                 deliver 0->1 write-req#1\ndeliver 1->0 write-ack#1\n\
                 deliver 0->2 write-req#1\ndeliver 2->0 write-ack#1\n\
                 deliver 0->3 write-req#1\ndeliver 3->0 write-ack#1\n\
                 write 2",
            ),
            &model,
        );
        assert!(!a.is_dead(7), "{:?}", a.diagnostics);
        // write-by someone other than the writer on a SW cluster.
        let a = analyze(&sched("write-by 2 9"), &model);
        assert!(a.is_dead(0));
        assert!(a.diagnostics.iter().any(|d| d.code == "not-writer"));
        // Out-of-range read.
        let a = analyze(&sched("read 9"), &model);
        assert!(a.is_dead(0));
        assert!(a.diagnostics.iter().any(|d| d.code == "out-of-range"));
        // A redundant crash still fires (a warning); an out-of-range one is dead.
        let a = analyze(&sched("crash 1\ncrash 1"), &model);
        assert!(!a.is_dead(1), "an in-range crash always fires");
        assert!(a.diagnostics.iter().any(|d| d.code == "redundant-crash"));
        let a = analyze(&sched("crash 9"), &model);
        assert!(a.is_dead(0));
        assert!(a.diagnostics.iter().any(|d| d.code == "out-of-range"));
    }

    #[test]
    fn dead_advance_requires_no_timers() {
        let model = sw_model();
        let a = analyze(&sched("advance"), &model);
        assert!(a.is_dead(0));
        assert_eq!(a.diagnostics[0].code, "dead-advance");
        let a = analyze(
            &sched("write 7\ndelay 0->1 write-req#1 +3\nadvance"),
            &model,
        );
        assert!(!a.is_dead(2), "{:?}", a.diagnostics);
        let a = analyze(&sched("advance"), &ClusterModel::permissive());
        assert!(!a.is_dead(0), "permissive model assumes retries");
    }

    #[test]
    fn scrub_preserves_replay_and_parses() {
        let text = "recover 3\nwrite 7\ndeliver 0->1 write-req#1\nheal 5\nadvance\n\
                    deliver 1->0 write-ack#1\ndeliver 9->9 read-req#4";
        let mut schedule = Schedule::new();
        for line in text.lines() {
            schedule.steps.push(line.parse().expect("step parses"));
        }
        let model = sw_model();
        let analysis = analyze(&schedule, &model);
        assert!(analysis.dead_steps() > 0);
        let scrubbed = scrub(&schedule, &analysis);
        assert!(scrubbed.to_string().parse::<Schedule>().is_ok());

        let mut a = AbdCluster::new(5, ProcessId(0));
        let mut b = AbdCluster::new(5, ProcessId(0));
        schedule.replay_on(&mut a);
        scrubbed.replay_on(&mut b);
        assert_eq!(a.history(), b.history());
        assert_eq!(a.fault_log(), b.fault_log());
    }

    #[test]
    fn canonicalize_is_replay_equivalent_and_idempotent() {
        // A recorded MW run interleaves requests with disjoint endpoints; the
        // commuting request deliveries get sorted into text order.
        let schedule =
            crate::fuzz::record_clean_corpus(|| AbdCluster::multi_writer(5), 1, 80, 11, true)
                .pop()
                .expect("one recording");

        let canon = canonicalize(&schedule);
        assert_eq!(canon, canonicalize(&canon), "idempotent");
        assert_eq!(canon.len(), schedule.len());

        let mut a = AbdCluster::multi_writer(5);
        let mut b = AbdCluster::multi_writer(5);
        let da = schedule.replay_on(&mut a);
        let db = canon.replay_on(&mut b);
        assert_eq!(da, db);
        assert_eq!(a.history(), b.history());
        assert_eq!(a.fault_log(), b.fault_log());
    }

    #[test]
    fn canonicalize_identifies_permuted_twins() {
        let base = sched(
            "write-by 0 1\nwrite-by 3 2\n\
             deliver 0->1 read-req#1\ndeliver 3->4 read-req#2",
        );
        let mut permuted = base.clone();
        permuted.steps.swap(2, 3);
        assert_ne!(base.to_string(), permuted.to_string());
        assert_eq!(
            canonicalize(&base).to_string(),
            canonicalize(&permuted).to_string()
        );
    }

    #[test]
    fn analyze_text_reports_real_line_numbers() {
        let text = "# header comment\n\nwrite 7\n\nrecover 2\nheal 4\n";
        let out = analyze_text(text, &ClusterModel::permissive()).expect("parses");
        assert_eq!(out.lines, vec![3, 5, 6]);
        let codes: Vec<_> = out
            .analysis
            .diagnostics
            .iter()
            .map(|d| (d.line, d.code))
            .collect();
        assert_eq!(codes, vec![(5, "dead-recover"), (6, "dead-heal")]);
        let err = analyze_text("write 1\nbogus 2", &ClusterModel::permissive()).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown step verb"));
    }

    #[test]
    fn faulty_cluster_dead_steps_are_skipped_by_replay() {
        let schedule = sched(
            "write 7\nrecover 2\ndeliver 0->9 write-req#1\ncrash 1\n\
             deliver 0->1 write-req#1\ndeliver 2->0 read-reply#5\nadvance",
        );
        let model = sw_model().without_write_backs();
        let analysis = analyze(&schedule, &model);
        let mut cluster = FaultyAbdCluster::new(5, ProcessId(0));
        let trace = schedule.replay_trace_on(&mut cluster);
        for (i, fired) in trace.fired.iter().enumerate() {
            if analysis.is_dead(i) {
                assert!(!fired, "step {i} judged dead but fired");
            }
        }
        assert!(analysis.dead_steps() >= 4);
    }
}
