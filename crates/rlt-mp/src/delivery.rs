//! The shared delivery core of the message-passing simulations.
//!
//! Every [`crate::AbdCluster`] flavour moves protocol messages through the machinery
//! defined here:
//!
//! * [`Envelope`] / [`AbdMessage`] — the wire types (the write-back-free flavours
//!   simply never send the write-back messages).
//! * [`InflightQueue`] — an **index-stable slot queue** of in-flight messages. Unlike a
//!   compacting `Vec`, delivering one message never moves the others, so adversaries
//!   can hold slot indices across deliveries without silent reindexing, and a delivery
//!   is `O(1)` instead of `O(n)`.
//! * [`Schedule`] / [`ScheduleRun`] — a replayable recording of one run: the client
//!   events (operation starts, crashes, recoveries) interleaved with the delivered
//!   message keys **and the injected faults** (drops, duplications, delays, partition
//!   installs/heals, virtual-time advances) as first-class, payload-independent steps.
//!   Replay and recording both fire each step through [`AbdCluster::apply`], the one
//!   rule for whether a step fires or is skipped, so the two cannot disagree.
//!   Replaying a schedule on a fresh cluster is deterministic — the fault dice are
//!   rolled only while recording — so a failing schedule is a *portable, shrinkable
//!   counterexample* rather than a lucky seed. Schedules also have a stable textual
//!   form ([`Schedule`]'s `Display`/`FromStr` round-trip) for storing and diffing.

use crate::adversary::{DeliveryAdversary, DeliveryView};
use crate::faults::{FaultDecision, FaultInjector};
use crate::AbdCluster;
use rlt_spec::{History, ProcessId};
use std::fmt;
use std::str::FromStr;

/// A protocol message.
///
/// Shared by every cluster flavour; the write-back-free flavours never send
/// `WriteBackReq`/`WriteBackAck` (dropping the write-back phase is their fault).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbdMessage {
    /// Writer → replica: store `(seq, value)` if newer.
    WriteReq {
        /// Sequence number chosen by the writer.
        seq: u64,
        /// Value being written.
        value: i64,
    },
    /// Replica → writer: acknowledgment of a `WriteReq`.
    WriteAck {
        /// Sequence number being acknowledged.
        seq: u64,
    },
    /// Reader → replica: request the replica's current `(seq, value)`.
    ReadReq {
        /// Read-request identifier (unique per read operation).
        rid: u64,
    },
    /// Replica → reader: the replica's current `(seq, value)`.
    ReadReply {
        /// Read-request identifier this reply answers.
        rid: u64,
        /// The replica's stored sequence number.
        seq: u64,
        /// The replica's stored value.
        value: i64,
    },
    /// Reader → replica: write-back of the chosen `(seq, value)`.
    WriteBackReq {
        /// Read-request identifier.
        rid: u64,
        /// Sequence number being written back.
        seq: u64,
        /// Value being written back.
        value: i64,
    },
    /// Replica → reader: acknowledgment of a write-back.
    WriteBackAck {
        /// Read-request identifier.
        rid: u64,
    },
}

/// A message in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sending process.
    pub from: ProcessId,
    /// Destination process.
    pub to: ProcessId,
    /// Payload.
    pub message: AbdMessage,
}

/// The payload-independent shape of a message, used by [`EnvelopeKey`] so recorded
/// schedules replay by *protocol role* (which request/ack of which operation) rather
/// than by exact payload: a shrunk schedule that drops an earlier delivery may change a
/// reply's `(seq, value)` without invalidating the later steps that deliver it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageKind {
    /// A `WriteReq` carrying the given sequence number.
    WriteReq(u64),
    /// A `WriteAck` for the given sequence number.
    WriteAck(u64),
    /// A `ReadReq` of the given read id.
    ReadReq(u64),
    /// A `ReadReply` answering the given read id.
    ReadReply(u64),
    /// A `WriteBackReq` of the given read id.
    WriteBackReq(u64),
    /// A `WriteBackAck` for the given read id.
    WriteBackAck(u64),
}

/// Identifies one protocol message of a run: endpoints plus [`MessageKind`]. In ABD
/// every `(from, to, kind)` triple is sent at most once per operation, so a key names
/// at most one in-flight envelope of the original run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvelopeKey {
    /// Sending process.
    pub from: ProcessId,
    /// Destination process.
    pub to: ProcessId,
    /// Payload shape (operation identifier, no payload values).
    pub kind: MessageKind,
}

impl Envelope {
    /// The replay key of this envelope (see [`EnvelopeKey`]).
    #[must_use]
    pub fn key(&self) -> EnvelopeKey {
        let kind = match self.message {
            AbdMessage::WriteReq { seq, .. } => MessageKind::WriteReq(seq),
            AbdMessage::WriteAck { seq } => MessageKind::WriteAck(seq),
            AbdMessage::ReadReq { rid } => MessageKind::ReadReq(rid),
            AbdMessage::ReadReply { rid, .. } => MessageKind::ReadReply(rid),
            AbdMessage::WriteBackReq { rid, .. } => MessageKind::WriteBackReq(rid),
            AbdMessage::WriteBackAck { rid } => MessageKind::WriteBackAck(rid),
        };
        EnvelopeKey {
            from: self.from,
            to: self.to,
            kind,
        }
    }
}

/// An index-stable queue of in-flight messages.
///
/// # Index-stability contract
///
/// Every pushed envelope occupies a *slot*; the slot index identifies that envelope
/// until the envelope is removed — by delivery ([`InflightQueue::take`]) or by a
/// crash purge ([`InflightQueue::purge_process`]) — no matter how many other messages
/// are delivered or sent in between: there is no compaction and no reindexing. After
/// an envelope is removed its slot may be **reused by a later send**, so indices must
/// not be held across the delivery of the message they name *or across a crash*
/// (crashing a process drops its traffic and frees those slots). Each envelope also
/// carries a monotone *stamp* (its send order), which is what the deterministic
/// adversaries use for oldest/newest tie-breaking.
///
/// All operations are deterministic: the same sequence of pushes and takes yields the
/// same slot assignment, stamps, and iteration order.
#[derive(Debug, Clone, Default)]
pub struct InflightQueue {
    slots: Vec<Option<Envelope>>,
    stamps: Vec<u64>,
    /// Dense list of occupied slot indices (arbitrary but deterministic order).
    occupied: Vec<usize>,
    /// `pos[slot]` = index of `slot` in `occupied` (meaningless while the slot is free).
    pos: Vec<usize>,
    free: Vec<usize>,
    next_stamp: u64,
}

impl InflightQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of messages currently in flight.
    #[must_use]
    pub fn len(&self) -> usize {
        self.occupied.len()
    }

    /// `true` if nothing is in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.occupied.is_empty()
    }

    /// Total number of slots ever allocated (occupied or free). Slot indices are always
    /// `< slot_count()`.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Enqueues an envelope, returning the slot it occupies.
    pub fn push(&mut self, env: Envelope) -> usize {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(env);
                self.stamps[slot] = stamp;
                slot
            }
            None => {
                self.slots.push(Some(env));
                self.stamps.push(stamp);
                self.pos.push(0);
                self.slots.len() - 1
            }
        };
        self.pos[slot] = self.occupied.len();
        self.occupied.push(slot);
        slot
    }

    /// The envelope at `slot`, or `None` if the slot is free or out of range.
    #[must_use]
    pub fn get(&self, slot: usize) -> Option<&Envelope> {
        self.slots.get(slot).and_then(Option::as_ref)
    }

    /// The send stamp of the envelope at `slot` (monotone over pushes), or `None` if
    /// the slot is free.
    #[must_use]
    pub fn stamp(&self, slot: usize) -> Option<u64> {
        self.get(slot).map(|_| self.stamps[slot])
    }

    /// Removes and returns the envelope at `slot` in `O(1)`. No other slot moves.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free or out of range.
    pub fn take(&mut self, slot: usize) -> Envelope {
        let env = self.slots[slot]
            .take()
            .expect("InflightQueue::take on an empty slot");
        let dense = self.pos[slot];
        self.occupied.swap_remove(dense);
        if let Some(&moved) = self.occupied.get(dense) {
            self.pos[moved] = dense;
        }
        self.free.push(slot);
        env
    }

    /// Drops every in-flight envelope for which `keep` returns `false`. Scans slots in
    /// index order, so the result is deterministic. The freed slots may be reused by
    /// later sends (see the index-stability contract above).
    pub fn retain(&mut self, mut keep: impl FnMut(&Envelope) -> bool) {
        for slot in 0..self.slots.len() {
            if self.slots[slot].as_ref().is_some_and(|env| !keep(env)) {
                let _ = self.take(slot);
            }
        }
    }

    /// Drops every in-flight envelope sent by or addressed to `p` — the fail-stop
    /// crash purge, shared by both clusters so their crash semantics cannot diverge.
    pub fn purge_process(&mut self, p: ProcessId) {
        self.retain(|env| env.from != p && env.to != p);
    }

    /// Iterates over `(slot, envelope)` pairs of the in-flight messages, in an
    /// arbitrary (but deterministic) order. Use [`InflightQueue::oldest_matching`] /
    /// [`InflightQueue::newest_matching`] for send-order scans.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Envelope)> {
        self.occupied.iter().map(move |&slot| {
            (
                slot,
                self.slots[slot].as_ref().expect("occupied slot is full"),
            )
        })
    }

    /// Slot index of the `dense_index`-th in-flight message (same arbitrary order as
    /// [`InflightQueue::iter`]), in `O(1)` — this is what uniform-random delivery uses.
    ///
    /// # Panics
    ///
    /// Panics if `dense_index >= len()`.
    #[must_use]
    pub fn slot_at(&self, dense_index: usize) -> usize {
        self.occupied[dense_index]
    }

    /// The slot of the *oldest* (smallest stamp) in-flight envelope matching `pred`.
    #[must_use]
    pub fn oldest_matching(&self, mut pred: impl FnMut(&Envelope) -> bool) -> Option<usize> {
        self.iter()
            .filter(|(_, env)| pred(env))
            .min_by_key(|&(slot, _)| self.stamps[slot])
            .map(|(slot, _)| slot)
    }

    /// The slot of the *newest* (largest stamp) in-flight envelope matching `pred`.
    #[must_use]
    pub fn newest_matching(&self, mut pred: impl FnMut(&Envelope) -> bool) -> Option<usize> {
        self.iter()
            .filter(|(_, env)| pred(env))
            .max_by_key(|&(slot, _)| self.stamps[slot])
            .map(|(slot, _)| slot)
    }

    /// The slot of the oldest in-flight envelope whose [`Envelope::key`] equals `key`.
    #[must_use]
    pub fn find_key(&self, key: EnvelopeKey) -> Option<usize> {
        self.oldest_matching(|env| env.key() == key)
    }
}

/// A client-side event of a run: something the environment (not the network) does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientEvent {
    /// The designated writer invokes `write(value)`.
    StartWrite(i64),
    /// Process `p` invokes `write(value)` — only meaningful on multi-writer
    /// clusters; on single-writer clusters it is skipped unless `p` is the
    /// designated writer (see [`AbdCluster::apply`]).
    StartWriteBy(ProcessId, i64),
    /// Process `p` invokes a read.
    StartRead(ProcessId),
    /// Process `p` fail-stops.
    Crash(ProcessId),
    /// Process `p` recovers from a crash, rejoining with its persisted replica state.
    Recover(ProcessId),
}

/// One step of a recorded [`Schedule`].
///
/// Fault steps are payload-independent (keys, ids, and tick counts only), so any
/// sub-sequence of a schedule is itself replayable — which is what lets the
/// [`crate::minimize`] shrinker treat fault events exactly like deliveries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleStep {
    /// A client event fired at this point of the run.
    Event(ClientEvent),
    /// The message named by the key was delivered.
    Deliver(EnvelopeKey),
    /// The message named by the key was dropped by the fault layer.
    Drop(EnvelopeKey),
    /// An extra copy of the message named by the key was put in flight.
    Duplicate(EnvelopeKey),
    /// The message named by the key was parked for the given number of virtual ticks.
    Delay(EnvelopeKey, u64),
    /// The partition `(id, side)` was installed.
    Partition {
        /// Partition identifier, referenced by the matching `Heal` step.
        id: u32,
        /// Side bitmask: bit `i` set ⇔ process `i` is on the cut-off side.
        side: u64,
    },
    /// The partition with the given id was healed.
    Heal(u32),
    /// Virtual time fast-forwarded to the next deadline, releasing due delayed
    /// messages and firing due retry timers.
    Advance,
}

impl fmt::Display for MessageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MessageKind::WriteReq(seq) => write!(f, "write-req#{seq}"),
            MessageKind::WriteAck(seq) => write!(f, "write-ack#{seq}"),
            MessageKind::ReadReq(rid) => write!(f, "read-req#{rid}"),
            MessageKind::ReadReply(rid) => write!(f, "read-reply#{rid}"),
            MessageKind::WriteBackReq(rid) => write!(f, "wb-req#{rid}"),
            MessageKind::WriteBackAck(rid) => write!(f, "wb-ack#{rid}"),
        }
    }
}

impl FromStr for MessageKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (name, id) = s
            .split_once('#')
            .ok_or_else(|| format!("message kind `{s}` is missing `#<id>`"))?;
        let id: u64 = id.parse().map_err(|_| format!("bad message id in `{s}`"))?;
        match name {
            "write-req" => Ok(MessageKind::WriteReq(id)),
            "write-ack" => Ok(MessageKind::WriteAck(id)),
            "read-req" => Ok(MessageKind::ReadReq(id)),
            "read-reply" => Ok(MessageKind::ReadReply(id)),
            "wb-req" => Ok(MessageKind::WriteBackReq(id)),
            "wb-ack" => Ok(MessageKind::WriteBackAck(id)),
            other => Err(format!("unknown message kind `{other}`")),
        }
    }
}

impl fmt::Display for EnvelopeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{} {}", self.from.0, self.to.0, self.kind)
    }
}

impl FromStr for EnvelopeKey {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // Tolerate duplicate/trailing whitespace: mutated schedule text is not
        // always as tidy as recorded text.
        let s = s.split_whitespace().collect::<Vec<_>>().join(" ");
        let s = s.as_str();
        let (endpoints, kind) = s
            .split_once(' ')
            .ok_or_else(|| format!("envelope key `{s}` is missing its message kind"))?;
        let (from, to) = endpoints
            .split_once("->")
            .ok_or_else(|| format!("endpoints `{endpoints}` are missing `->`"))?;
        let from: usize = from
            .parse()
            .map_err(|_| format!("bad sender in `{endpoints}`"))?;
        let to: usize = to
            .parse()
            .map_err(|_| format!("bad destination in `{endpoints}`"))?;
        Ok(EnvelopeKey {
            from: ProcessId(from),
            to: ProcessId(to),
            kind: kind.parse()?,
        })
    }
}

impl fmt::Display for ScheduleStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleStep::Event(ClientEvent::StartWrite(v)) => write!(f, "write {v}"),
            ScheduleStep::Event(ClientEvent::StartWriteBy(p, v)) => {
                write!(f, "write-by {} {v}", p.0)
            }
            ScheduleStep::Event(ClientEvent::StartRead(p)) => write!(f, "read {}", p.0),
            ScheduleStep::Event(ClientEvent::Crash(p)) => write!(f, "crash {}", p.0),
            ScheduleStep::Event(ClientEvent::Recover(p)) => write!(f, "recover {}", p.0),
            ScheduleStep::Deliver(key) => write!(f, "deliver {key}"),
            ScheduleStep::Drop(key) => write!(f, "drop {key}"),
            ScheduleStep::Duplicate(key) => write!(f, "dup {key}"),
            ScheduleStep::Delay(key, ticks) => write!(f, "delay {key} +{ticks}"),
            ScheduleStep::Partition { id, side } => write!(f, "partition {id} {side}"),
            ScheduleStep::Heal(id) => write!(f, "heal {id}"),
            ScheduleStep::Advance => write!(f, "advance"),
        }
    }
}

impl FromStr for ScheduleStep {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        fn num<T: FromStr>(s: &str, what: &str) -> Result<T, String> {
            s.parse().map_err(|_| format!("bad {what} `{s}`"))
        }
        // Normalize to single spaces first so duplicate and trailing whitespace
        // (common in hand-edited or mutated schedule text) parse like the
        // canonical `Display` form.
        let s = s.split_whitespace().collect::<Vec<_>>().join(" ");
        let s = s.as_str();
        let (verb, rest) = s.split_once(' ').unwrap_or((s, ""));
        match verb {
            "write" => Ok(ScheduleStep::Event(ClientEvent::StartWrite(num(
                rest, "value",
            )?))),
            "write-by" => {
                let (p, v) = rest
                    .split_once(' ')
                    .ok_or_else(|| format!("write-by step `{s}` needs `<process> <value>`"))?;
                Ok(ScheduleStep::Event(ClientEvent::StartWriteBy(
                    ProcessId(num(p, "process")?),
                    num(v, "value")?,
                )))
            }
            "read" => Ok(ScheduleStep::Event(ClientEvent::StartRead(ProcessId(num(
                rest, "process",
            )?)))),
            "crash" => Ok(ScheduleStep::Event(ClientEvent::Crash(ProcessId(num(
                rest, "process",
            )?)))),
            "recover" => Ok(ScheduleStep::Event(ClientEvent::Recover(ProcessId(num(
                rest, "process",
            )?)))),
            "deliver" => Ok(ScheduleStep::Deliver(rest.parse()?)),
            "drop" => Ok(ScheduleStep::Drop(rest.parse()?)),
            "dup" => Ok(ScheduleStep::Duplicate(rest.parse()?)),
            "delay" => {
                let (key, ticks) = rest
                    .rsplit_once(" +")
                    .ok_or_else(|| format!("delay step `{s}` is missing ` +<ticks>`"))?;
                Ok(ScheduleStep::Delay(key.parse()?, num(ticks, "tick count")?))
            }
            "partition" => {
                let (id, side) = rest
                    .split_once(' ')
                    .ok_or_else(|| format!("partition step `{s}` needs `<id> <side>`"))?;
                Ok(ScheduleStep::Partition {
                    id: num(id, "partition id")?,
                    side: num(side, "side mask")?,
                })
            }
            "heal" => Ok(ScheduleStep::Heal(num(rest, "partition id")?)),
            "advance" => {
                if rest.is_empty() {
                    Ok(ScheduleStep::Advance)
                } else {
                    Err(format!("advance takes no arguments, got `{rest}`"))
                }
            }
            other => Err(format!("unknown step verb `{other}`")),
        }
    }
}

/// A parse failure of the textual [`Schedule`] form: the offending (1-based) line,
/// its text, and what was wrong with it. Every step-parse failure carries all
/// three — not just the unknown-`heal` check — so a bad line in a long mutated
/// schedule is locatable without counting lines by hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// The offending line's text (trimmed).
    pub snippet: String,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for ScheduleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule line {}: {} (in `{}`)",
            self.line, self.message, self.snippet
        )
    }
}

impl std::error::Error for ScheduleParseError {}

/// A replayable recording of a run: client events interleaved with delivered message
/// keys, in execution order.
///
/// Replay ([`Schedule::replay_on`]) is deterministic and *total*: events that can no
/// longer fire (the process is busy or crashed) are skipped, and `Deliver` steps whose
/// key names no in-flight message are skipped ([`AbdCluster::apply`] holds the whole
/// rule). Totality is what makes delta-debugging possible — any sub-sequence of a
/// schedule is itself a valid schedule — while determinism makes every shrunk
/// counterexample replay bit-identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    /// The recorded steps, in execution order.
    pub steps: Vec<ScheduleStep>,
}

impl Schedule {
    /// An empty schedule.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of steps (events + deliveries).
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` if the schedule has no steps.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of `Deliver` steps.
    #[must_use]
    pub fn delivery_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, ScheduleStep::Deliver(_)))
            .count()
    }

    /// Replays the schedule on a fresh cluster, returning the number of deliveries
    /// actually performed (skipped steps are not counted).
    ///
    /// Fault steps replay without any randomness: the recorded outcome *is* the step.
    /// Like deliveries, they are skipped when inapplicable (key not in flight,
    /// partition id unknown, no deadline to advance to), keeping replay total.
    pub fn replay_on(&self, cluster: &mut AbdCluster) -> u64 {
        self.replay_trace_on(cluster).delivered
    }

    /// Like [`Schedule::replay_on`], but also records *per step* whether it fired
    /// or was skipped — the ground truth the static analyzer
    /// ([`crate::analyze`](mod@crate::analyze)) is pinned against: a step the analyzer calls dead
    /// must come back `fired[i] == false` here.
    ///
    /// A skipped step has no effect on the cluster whatsoever, so replaying a
    /// schedule with its skipped steps removed is bit-identical to replaying the
    /// original.
    pub fn replay_trace_on(&self, cluster: &mut AbdCluster) -> ReplayTrace {
        let mut delivered = 0;
        let fired = self
            .steps
            .iter()
            .map(|step| {
                let fired = cluster.apply(step);
                delivered += u64::from(fired && matches!(step, ScheduleStep::Deliver(_)));
                fired
            })
            .collect();
        ReplayTrace { fired, delivered }
    }
}

/// What [`Schedule::replay_trace_on`] saw: which steps fired, and the delivery count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayTrace {
    /// `fired[i]` ⇔ step `i` took effect (was not skipped).
    pub fired: Vec<bool>,
    /// Number of `Deliver` steps that fired — what [`Schedule::replay_on`] returns.
    pub delivered: u64,
}

impl fmt::Display for Schedule {
    /// The stable textual form: one step per line (see [`ScheduleStep`]'s `Display`).
    /// Round-trips through [`Schedule::from_str`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for step in &self.steps {
            writeln!(f, "{step}")?;
        }
        Ok(())
    }
}

impl FromStr for Schedule {
    type Err = ScheduleParseError;

    /// Parses the textual form produced by `Display`. Blank lines and `#` comment
    /// lines are ignored, and duplicate/trailing whitespace inside a step is
    /// tolerated. A `heal` step that references a partition id no earlier
    /// `partition` step declared is rejected with the offending line number:
    /// such a step could never do anything at replay time, so it is a recording
    /// or hand-editing bug, not a schedule.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut steps = Vec::new();
        let mut declared: Vec<u32> = Vec::new();
        for (idx, line) in s.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let step: ScheduleStep = line.parse().map_err(|message| ScheduleParseError {
                line: idx + 1,
                snippet: line.to_string(),
                message,
            })?;
            match step {
                ScheduleStep::Partition { id, .. } if !declared.contains(&id) => {
                    declared.push(id);
                }
                ScheduleStep::Heal(id) if !declared.contains(&id) => {
                    return Err(ScheduleParseError {
                        line: idx + 1,
                        snippet: line.to_string(),
                        message: format!("heal references unknown partition id {id}"),
                    });
                }
                _ => {}
            }
            steps.push(step);
        }
        Ok(Schedule { steps })
    }
}

/// Wraps a cluster and records everything done to it as a replayable [`Schedule`]:
/// client events, partitions, heals and clock advances via [`ScheduleRun::apply`],
/// deliveries via [`ScheduleRun::deliver_next`] (which asks a [`DeliveryAdversary`]
/// to choose) and [`ScheduleRun::deliver_next_faulty`].
#[derive(Debug)]
pub struct ScheduleRun {
    cluster: AbdCluster,
    schedule: Schedule,
    deliveries: u64,
}

impl ScheduleRun {
    /// Starts recording on (typically fresh) `cluster`.
    pub fn new(cluster: AbdCluster) -> Self {
        ScheduleRun {
            cluster,
            schedule: Schedule::new(),
            deliveries: 0,
        }
    }

    /// The wrapped cluster.
    pub fn cluster(&self) -> &AbdCluster {
        &self.cluster
    }

    /// Fires `step` through [`AbdCluster::apply`] and records it if it fired.
    /// Returns whether it fired.
    pub fn apply(&mut self, step: ScheduleStep) -> bool {
        let fired = self.cluster.apply(&step);
        if fired {
            self.deliveries += u64::from(matches!(step, ScheduleStep::Deliver(_)));
            self.schedule.steps.push(step);
        }
        fired
    }

    /// Like [`ScheduleRun::deliver_next`], but the chosen message first passes through
    /// the fault `injector`: it may be delivered, dropped, duplicated (delivered with
    /// an extra copy left in flight), or delayed. The *outcome* — not the dice — is
    /// recorded, so the schedule replays bit-identically without the injector.
    /// Returns `false` if nothing is in flight or the adversary declines.
    pub fn deliver_next_faulty(
        &mut self,
        adversary: &mut dyn DeliveryAdversary,
        injector: &mut FaultInjector,
    ) -> bool {
        if self.cluster.inflight().is_empty() {
            return false;
        }
        let view = DeliveryView {
            queue: self.cluster.inflight(),
            deliveries: self.deliveries,
        };
        let Some(slot) = adversary.next_delivery(&view) else {
            return false;
        };
        let (key, decision) = {
            let env = self
                .cluster
                .inflight()
                .get(slot)
                .expect("adversary must choose an occupied slot");
            (env.key(), injector.decide(env))
        };
        match decision {
            FaultDecision::Deliver => {
                self.cluster.deliver(slot);
                self.schedule.steps.push(ScheduleStep::Deliver(key));
                self.deliveries += 1;
            }
            FaultDecision::Drop => {
                self.cluster.net.drop_slot(slot);
                self.schedule.steps.push(ScheduleStep::Drop(key));
            }
            FaultDecision::Delay(ticks) => {
                self.cluster.net.delay_slot(slot, ticks);
                self.schedule.steps.push(ScheduleStep::Delay(key, ticks));
            }
            FaultDecision::Duplicate => {
                // Record the duplication before the delivery: on replay, the dup is
                // cloned first and then `Deliver` takes the oldest matching copy.
                self.cluster.net.duplicate_slot(slot);
                self.schedule.steps.push(ScheduleStep::Duplicate(key));
                self.cluster.deliver(slot);
                self.schedule.steps.push(ScheduleStep::Deliver(key));
                self.deliveries += 1;
            }
        }
        true
    }

    /// Asks `adversary` to choose the next delivery and performs it: the faulty
    /// delivery under a clean injector, which always delivers. Returns `false` if
    /// nothing is in flight or the adversary declines (`None`).
    pub fn deliver_next(&mut self, adversary: &mut dyn DeliveryAdversary) -> bool {
        self.deliver_next_faulty(adversary, &mut FaultInjector::clean())
    }

    /// Total deliveries recorded so far.
    #[must_use]
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// The recorded register-level history so far.
    #[must_use]
    pub fn history(&self) -> History<i64> {
        self.cluster.history()
    }

    /// The schedule recorded so far.
    #[must_use]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Consumes the recorder, returning the schedule.
    #[must_use]
    pub fn into_schedule(self) -> Schedule {
        self.schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(from: usize, to: usize, seq: u64) -> Envelope {
        Envelope {
            from: ProcessId(from),
            to: ProcessId(to),
            message: AbdMessage::WriteReq { seq, value: 0 },
        }
    }

    #[test]
    fn slots_are_stable_across_deliveries() {
        let mut q = InflightQueue::new();
        let a = q.push(env(0, 1, 1));
        let b = q.push(env(0, 2, 2));
        let c = q.push(env(0, 3, 3));
        assert_eq!(q.len(), 3);
        let taken = q.take(b);
        assert_eq!(taken.to, ProcessId(2));
        // The other slots still name the same envelopes.
        assert_eq!(q.get(a).unwrap().to, ProcessId(1));
        assert_eq!(q.get(c).unwrap().to, ProcessId(3));
        assert!(q.get(b).is_none());
        // A freed slot may be reused by a later push.
        let d = q.push(env(1, 4, 4));
        assert_eq!(d, b);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn stamps_order_oldest_and_newest() {
        let mut q = InflightQueue::new();
        let a = q.push(env(0, 1, 1));
        let b = q.push(env(0, 1, 2));
        let c = q.push(env(0, 2, 3));
        assert_eq!(q.oldest_matching(|_| true), Some(a));
        assert_eq!(q.newest_matching(|_| true), Some(c));
        assert_eq!(q.oldest_matching(|e| e.to == ProcessId(1)), Some(a));
        q.take(a);
        assert_eq!(q.oldest_matching(|e| e.to == ProcessId(1)), Some(b));
        // Reused slots get fresh stamps: the reused slot is now the newest.
        let d = q.push(env(0, 9, 9));
        assert_eq!(d, a);
        assert_eq!(q.newest_matching(|_| true), Some(d));
    }

    #[test]
    fn retain_drops_matching_envelopes() {
        let mut q = InflightQueue::new();
        for i in 0..6 {
            q.push(env(i % 2, i, i as u64));
        }
        q.retain(|e| e.from != ProcessId(1));
        assert_eq!(q.len(), 3);
        assert!(q.iter().all(|(_, e)| e.from == ProcessId(0)));
    }

    #[test]
    fn parse_errors_carry_line_numbers_and_snippets() {
        // One row per failure shape of the grammar: (input, offending line,
        // message fragment). Every error must name the 1-based line and carry
        // the offending line's text.
        let cases: &[(&str, usize, &str)] = &[
            ("write", 1, "bad value ``"),
            ("frobnicate 3", 1, "unknown step verb `frobnicate`"),
            ("write 1\nread x", 2, "bad process `x`"),
            ("crash q", 1, "bad process `q`"),
            ("recover -2", 1, "bad process `-2`"),
            ("deliver 0->1", 1, "missing its message kind"),
            ("deliver 0-1 write-req#1", 1, "missing `->`"),
            ("deliver x->1 write-req#1", 1, "bad sender in `x->1`"),
            ("deliver 0->y write-req#1", 1, "bad destination in `0->y`"),
            ("deliver 0->1 write-req", 1, "missing `#<id>`"),
            (
                "deliver 0->1 write-req#z",
                1,
                "bad message id in `write-req#z`",
            ),
            ("deliver 0->1 frob#1", 1, "unknown message kind `frob`"),
            ("write-by 3", 1, "needs `<process> <value>`"),
            ("write-by x 3", 1, "bad process `x`"),
            ("delay 0->1 write-req#1", 1, "missing ` +<ticks>`"),
            ("delay 0->1 write-req#1 +x", 1, "bad tick count `x`"),
            ("partition 7", 1, "needs `<id> <side>`"),
            ("partition x 3", 1, "bad partition id `x`"),
            ("partition 7 q", 1, "bad side mask `q`"),
            ("heal x", 1, "bad partition id `x`"),
            (
                "# comment\n\nheal 9",
                3,
                "heal references unknown partition id 9",
            ),
            ("advance now", 1, "advance takes no arguments, got `now`"),
            (
                "write 1\nwrite 2\ndup 0->1 nope#4",
                3,
                "unknown message kind `nope`",
            ),
        ];
        for (text, line, fragment) in cases {
            let err = text.parse::<Schedule>().unwrap_err();
            assert_eq!(err.line, *line, "line number for {text:?}");
            assert!(
                err.message.contains(fragment),
                "message {:?} for {text:?} should contain {fragment:?}",
                err.message
            );
            // The snippet is the offending (trimmed) line, and Display carries
            // line number, message, and snippet together.
            assert_eq!(err.snippet, text.lines().nth(line - 1).unwrap().trim());
            let shown = err.to_string();
            assert!(
                shown.contains(&format!("schedule line {line}: ")),
                "{shown}"
            );
            assert!(shown.contains(&err.snippet), "{shown}");
        }
    }

    #[test]
    fn out_of_range_client_events_are_skipped_steps() {
        // Replay is total: a step that cannot fire is skipped with no effect and
        // recorded by nobody — one row per kind of step, on a cluster whose writer
        // is busy, with process 4 crashed and partition 1 cutting process 1 off.
        let fresh = || {
            let mut cluster = AbdCluster::new(5, ProcessId(0));
            cluster.start_write(1);
            cluster.crash(ProcessId(4));
            assert!(cluster.apply(&ScheduleStep::Partition { id: 1, side: 0b10 }));
            cluster
        };
        let mut rows: Vec<ScheduleStep> = [
            "write 8",
            "write-by 2 5",
            "read 4",
            "read 99",
            "crash 99",
            "recover 1",
            "deliver 0->1 write-req#1", // parked by the partition
            "drop 0->4 write-req#1",    // purged by the crash
            "dup 1->0 write-ack#1",     // not sent yet
            "delay 0->2 read-req#1 +3", // never sent
            "partition 1 4",
            "advance",
        ]
        .iter()
        .map(|text| text.parse().expect("a step"))
        .collect();
        // The text parser rejects a heal of an undeclared partition.
        rows.push(ScheduleStep::Heal(7));
        for step in rows {
            let mut cluster = fresh();
            let history = cluster.history();
            let (inflight, log) = (cluster.inflight_count(), cluster.fault_log());
            assert!(!cluster.apply(&step), "`{step}` fired");
            assert_eq!(cluster.history(), history, "`{step}` changed the history");
            assert_eq!(
                cluster.inflight_count(),
                inflight,
                "`{step}` moved a message"
            );
            assert_eq!(cluster.fault_log(), log, "`{step}` logged a fault");
            let mut run = ScheduleRun::new(fresh());
            assert!(!run.apply(step), "`{step}` fired while recording");
            assert!(run.schedule().is_empty(), "`{step}` was recorded");
        }
    }

    #[test]
    fn find_key_matches_protocol_role_not_payload() {
        let mut q = InflightQueue::new();
        let slot = q.push(Envelope {
            from: ProcessId(2),
            to: ProcessId(0),
            message: AbdMessage::ReadReply {
                rid: 5,
                seq: 3,
                value: 42,
            },
        });
        let key = q.get(slot).unwrap().key();
        // A reply with a different payload but the same role still matches.
        let mut q2 = InflightQueue::new();
        let slot2 = q2.push(Envelope {
            from: ProcessId(2),
            to: ProcessId(0),
            message: AbdMessage::ReadReply {
                rid: 5,
                seq: 0,
                value: 0,
            },
        });
        assert_eq!(q2.find_key(key), Some(slot2));
        // Different endpoints or rid do not match.
        assert!(q2
            .find_key(EnvelopeKey {
                from: ProcessId(1),
                ..key
            })
            .is_none());
    }
}
