//! The virtual-time fault-injection core shared by both ABD clusters.
//!
//! This module is the message-passing half of the discrete-event simulation core
//! (desim-style: deterministic, virtual time, no wall-clock waits):
//!
//! * [`SimNet`] — the network/failure substrate each cluster embeds: the in-flight
//!   [`InflightQueue`], a [`rlt_sim::VirtualClock`] driving retry timers, the crash
//!   set, installed [`Partition`]s, a *parked* set of messages held back by a delay
//!   fault or an open partition, and the per-run [`FaultLog`].
//! * [`Partition`] — a named two-sided cut of the process set. While installed,
//!   messages crossing the cut are parked instead of delivered; healing re-injects
//!   them in deterministic order.
//! * [`RetryPolicy`] — timeout-driven client retry with bounded exponential backoff:
//!   a client re-broadcasts its current phase's requests when its retry timer fires,
//!   so operations survive lossy links instead of wedging.
//! * [`FaultPlan`] / [`FaultInjector`] — seeded per-link drop/duplicate/delay
//!   distributions rolled at delivery time. The dice are rolled **only while
//!   recording**; the outcomes become ordinary [`crate::ScheduleStep`]s, so replay
//!   never consults an rng and is bit-identical by construction.
//! * [`FaultScenario`] / [`hunt_with`] — the one hunt loop: a scripted failure
//!   scenario (partition window, crashes, recoveries, loss plan) driven against a
//!   cluster under any [`DeliveryAdversary`], recording everything as a replayable
//!   [`crate::Schedule`], rechecking after every step and halting at the first
//!   non-linearizable prefix. [`hunt_with_faults`] rechecks with one incremental
//!   session; [`crate::adversary::hunt_new_old_inversion`] is it under the clean
//!   scenario.

use crate::adversary::DeliveryAdversary;
use crate::delivery::{ClientEvent, Envelope, InflightQueue, ScheduleRun, ScheduleStep};
use crate::AbdCluster;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlt_sim::{TimerId, VirtualClock};
use rlt_spec::{Checker, ProcessId, Time};
use std::collections::BTreeSet;

/// Per-run counters of every injected fault and loss-like event, exposed on
/// [`AbdCluster::fault_log`] so hunts and tests can assert on them.
///
/// Before this log existed, sends to a crashed process were silently dropped with no
/// trace; now every lossy event leaves a count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Messages dropped by the fault layer (injected loss or replayed `Drop` steps).
    pub drops: u64,
    /// Extra copies created by duplication faults.
    pub duplicates: u64,
    /// Messages parked by a delay fault.
    pub delays: u64,
    /// Messages parked because their link crossed an installed partition.
    pub partition_holds: u64,
    /// In-flight (or parked) messages purged by a crash.
    pub purges: u64,
    /// Sends addressed to an already-crashed process (dropped at the send boundary).
    pub dead_sends: u64,
    /// Retry timers fired.
    pub timer_fires: u64,
    /// Messages re-broadcast by timeout-driven client retry.
    pub retransmissions: u64,
}

impl FaultLog {
    /// Total number of events that removed or withheld a message.
    #[must_use]
    pub fn lossy_events(&self) -> u64 {
        self.drops + self.delays + self.partition_holds + self.purges + self.dead_sends
    }

    /// Field-wise sum of another log into this one.
    ///
    /// Addition is commutative and associative, so per-worker shards (one log
    /// per fuzz replay, say) aggregate to the same totals no matter how the
    /// work was split across the pool or in which order the shards fold in —
    /// the property the merge-order independence test pins.
    pub fn merge(&mut self, other: &FaultLog) {
        self.drops += other.drops;
        self.duplicates += other.duplicates;
        self.delays += other.delays;
        self.partition_holds += other.partition_holds;
        self.purges += other.purges;
        self.dead_sends += other.dead_sends;
        self.timer_fires += other.timer_fires;
        self.retransmissions += other.retransmissions;
    }
}

/// A named, installable network partition: a cut of the process set into the `side`
/// bitmask and its complement. Messages crossing the cut are withheld while the
/// partition is installed and released (in original send order) when it is healed.
///
/// The name is for humans; recorded schedules store only `(id, side)` so partition
/// steps stay payload-independent and `Copy`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    id: u32,
    name: String,
    side: u64,
}

impl Partition {
    /// Creates a partition cutting `side` off from the rest of the cluster.
    ///
    /// # Panics
    ///
    /// Panics if a process id is `>= 64` (the side is stored as a bitmask).
    #[must_use]
    pub fn new(
        id: u32,
        name: impl Into<String>,
        side: impl IntoIterator<Item = ProcessId>,
    ) -> Self {
        let mut mask = 0u64;
        for p in side {
            assert!(p.0 < 64, "partition sides are limited to process ids < 64");
            mask |= 1 << p.0;
        }
        Partition {
            id,
            name: name.into(),
            side: mask,
        }
    }

    /// Reconstructs a partition from the payload-independent `(id, side)` pair stored
    /// in a schedule step.
    #[must_use]
    pub fn from_parts(id: u32, side: u64) -> Self {
        Partition {
            id,
            name: format!("partition-{id}"),
            side,
        }
    }

    /// The partition identifier (used by heal steps).
    #[must_use]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The human-readable name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The side bitmask (bit `i` set ⇔ process `i` is on the cut-off side).
    #[must_use]
    pub fn side_mask(&self) -> u64 {
        self.side
    }

    /// `true` if the cut separates `a` from `b`.
    #[must_use]
    pub fn severs(&self, a: ProcessId, b: ProcessId) -> bool {
        let bit = |p: ProcessId| (self.side >> (p.0 as u64 & 63)) & 1;
        a.0 < 64 && b.0 < 64 && bit(a) != bit(b)
    }
}

/// Timeout-driven client retry with bounded exponential backoff.
///
/// When armed, a client (re-)broadcasts its current phase's request messages every
/// time its retry timer fires: after `base` virtual ticks, then `2·base`, `4·base`, …
/// capped at `cap`, for at most `max_attempts` retransmissions per phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Initial timeout in virtual ticks.
    pub base: u64,
    /// Upper bound on the backed-off timeout.
    pub cap: u64,
    /// Maximum retransmissions per protocol phase.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // A write or read phase round-trip costs ~2·n ticks of virtual time at n = 5;
        // base 32 fires only when a phase is genuinely stuck.
        RetryPolicy {
            base: 32,
            cap: 256,
            max_attempts: 12,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct RetrySlot {
    attempt: u32,
    timer: Option<TimerId>,
}

/// Why a parked message is being withheld.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ParkedUntil {
    /// Release when virtual time reaches the deadline.
    Time(u64),
    /// Release when no installed partition severs the link any more.
    Heal,
}

#[derive(Debug, Clone)]
struct Parked {
    seq: u64,
    env: Envelope,
    until: ParkedUntil,
}

/// The shared network/failure substrate both clusters embed: in-flight queue, virtual
/// clock, crash set, partitions, parked messages, retry timers, and the fault log.
///
/// All state transitions are deterministic; the only randomness in the whole fault
/// system lives in [`FaultInjector`], which is consulted exclusively while recording.
#[derive(Debug)]
pub struct SimNet {
    inflight: InflightQueue,
    clock: VirtualClock<ProcessId>,
    crashed: BTreeSet<usize>,
    partitions: Vec<Partition>,
    parked: Vec<Parked>,
    next_park_seq: u64,
    retry: Option<RetryPolicy>,
    retry_slots: Vec<RetrySlot>,
    log: FaultLog,
}

impl SimNet {
    /// Creates a fault-free network for `n` processes (no retries armed).
    #[must_use]
    pub fn new(n: usize) -> Self {
        SimNet {
            inflight: InflightQueue::new(),
            clock: VirtualClock::new(),
            crashed: BTreeSet::new(),
            partitions: Vec::new(),
            parked: Vec::new(),
            next_park_seq: 0,
            retry: None,
            retry_slots: vec![RetrySlot::default(); n],
            log: FaultLog::default(),
        }
    }

    /// Enables timeout-driven client retry under `policy`.
    pub fn set_retry(&mut self, policy: RetryPolicy) {
        self.retry = Some(policy);
    }

    /// The active retry policy, if any.
    #[must_use]
    pub fn retry_policy(&self) -> Option<RetryPolicy> {
        self.retry
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Advances virtual time by one tick and returns it as a history timestamp.
    pub fn tick(&mut self) -> Time {
        Time(self.clock.advance_by(1))
    }

    /// The in-flight (deliverable) messages. Parked messages are *not* in this queue;
    /// they reappear when their delay elapses or their partition heals.
    #[must_use]
    pub fn queue(&self) -> &InflightQueue {
        &self.inflight
    }

    /// The per-run fault log.
    #[must_use]
    pub fn fault_log(&self) -> &FaultLog {
        &self.log
    }

    /// Messages currently parked (delayed or partition-held).
    #[must_use]
    pub fn parked_count(&self) -> usize {
        self.parked.len()
    }

    /// `true` if `p` has crashed (and not recovered).
    #[must_use]
    pub fn is_crashed(&self, p: ProcessId) -> bool {
        self.crashed.contains(&p.0)
    }

    /// `true` if some installed partition severs the `a`–`b` link.
    #[must_use]
    pub fn link_severed(&self, a: ProcessId, b: ProcessId) -> bool {
        self.partitions.iter().any(|cut| cut.severs(a, b))
    }

    fn park(&mut self, env: Envelope, until: ParkedUntil) {
        let seq = self.next_park_seq;
        self.next_park_seq += 1;
        self.parked.push(Parked { seq, env, until });
    }

    /// Removes the in-flight message at `slot` for delivery. Not a fault: nothing is
    /// logged. This is the only way messages leave the queue besides faults/purges,
    /// so clusters cannot bypass the fault layer.
    pub fn take_slot(&mut self, slot: usize) -> Envelope {
        self.inflight.take(slot)
    }

    /// Routes one send: dropped at the boundary if the destination has crashed,
    /// parked if an installed partition severs the link, enqueued otherwise.
    pub fn send(&mut self, env: Envelope) {
        if self.crashed.contains(&env.to.0) {
            self.log.dead_sends += 1;
        } else if self.link_severed(env.from, env.to) {
            self.log.partition_holds += 1;
            self.park(env, ParkedUntil::Heal);
        } else {
            self.inflight.push(env);
        }
    }

    /// Fail-stops `p`: purges its traffic from both the in-flight queue and the
    /// parked set, and cancels its retry timer. The purge count lands in the log.
    pub fn crash(&mut self, p: ProcessId) {
        self.crashed.insert(p.0);
        let before = self.inflight.len() + self.parked.len();
        self.inflight.retain(|env| env.from != p && env.to != p);
        self.parked
            .retain(|parked| parked.env.from != p && parked.env.to != p);
        self.log.purges += (before - (self.inflight.len() + self.parked.len())) as u64;
        self.cancel_retry(p);
    }

    /// Recovers a crashed process. Returns `false` (a no-op) if `p` is not crashed.
    /// In-flight traffic from the crashed incarnation stays purged; only state the
    /// caller explicitly persisted (the replica's `(timestamp, value)`) survives.
    pub fn recover(&mut self, p: ProcessId) -> bool {
        self.crashed.remove(&p.0)
    }

    /// Installs a partition, parking every in-flight message crossing the cut (in
    /// slot order, deterministically). Returns `false` (a no-op) if a partition with
    /// the same id is already installed.
    pub fn install_partition(&mut self, partition: Partition) -> bool {
        if self.partitions.iter().any(|c| c.id == partition.id) {
            return false;
        }
        let crossing: Vec<usize> = self
            .inflight
            .iter()
            .filter(|(_, env)| partition.severs(env.from, env.to))
            .map(|(slot, _)| slot)
            .collect();
        // Sorted slot order keeps the park sequence independent of the queue's dense
        // iteration order.
        let mut crossing = crossing;
        crossing.sort_unstable();
        for slot in crossing {
            let env = self.inflight.take(slot);
            self.log.partition_holds += 1;
            self.park(env, ParkedUntil::Heal);
        }
        self.partitions.push(partition);
        true
    }

    /// Heals the partition with the given id, re-injecting parked messages whose
    /// links are no longer severed (in park order). Returns `false` if no such
    /// partition is installed.
    pub fn heal_partition(&mut self, id: u32) -> bool {
        let Some(pos) = self.partitions.iter().position(|c| c.id == id) else {
            return false;
        };
        self.partitions.remove(pos);
        self.release_parked();
        true
    }

    /// Re-injects every parked message whose hold condition has cleared, in park
    /// order (deterministic).
    fn release_parked(&mut self) {
        let now = self.clock.now();
        let mut due: Vec<Parked> = Vec::new();
        let mut kept: Vec<Parked> = Vec::new();
        for parked in self.parked.drain(..) {
            let released = match parked.until {
                ParkedUntil::Time(t) => t <= now,
                ParkedUntil::Heal => !self
                    .partitions
                    .iter()
                    .any(|cut| cut.severs(parked.env.from, parked.env.to)),
            };
            if released {
                due.push(parked);
            } else {
                kept.push(parked);
            }
        }
        self.parked = kept;
        due.sort_unstable_by_key(|parked| parked.seq);
        for parked in due {
            // Route through `send` so a release into a *different* still-installed
            // partition re-parks instead of leaking across it.
            self.send(parked.env);
        }
    }

    /// Drops the in-flight message at `slot` (fault-layer loss, logged).
    pub fn drop_slot(&mut self, slot: usize) -> Envelope {
        let env = self.inflight.take(slot);
        self.log.drops += 1;
        env
    }

    /// Pushes an extra copy of the in-flight message at `slot` (duplication fault).
    pub fn duplicate_slot(&mut self, slot: usize) {
        let env = self
            .inflight
            .get(slot)
            .expect("duplicate_slot on an empty slot")
            .clone();
        self.log.duplicates += 1;
        self.inflight.push(env);
    }

    /// Parks the in-flight message at `slot` until `now + ticks` (delay fault).
    pub fn delay_slot(&mut self, slot: usize, ticks: u64) {
        let env = self.inflight.take(slot);
        self.log.delays += 1;
        let deadline = self.clock.now().saturating_add(ticks);
        self.park(env, ParkedUntil::Time(deadline));
    }

    /// The earliest pending deadline (parked release or retry timer), if any.
    #[must_use]
    pub fn next_deadline(&mut self) -> Option<u64> {
        let parked = self
            .parked
            .iter()
            .filter_map(|parked| match parked.until {
                ParkedUntil::Time(t) => Some(t),
                ParkedUntil::Heal => None,
            })
            .min();
        match (parked, self.clock.next_deadline()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Fast-forwards virtual time to the next pending deadline, releasing every
    /// delayed message due by then and popping every retry timer due at that instant.
    /// Returns the processes whose timers fired (possibly empty if only parked
    /// messages were released), or `None` if there was no deadline to advance to.
    pub fn advance(&mut self) -> Option<Vec<ProcessId>> {
        let deadline = self.next_deadline()?;
        self.clock.advance_to(deadline.max(self.clock.now()));
        self.release_parked();
        let mut fired = Vec::new();
        while let Some((_, p)) = self.clock.pop_due() {
            if self.retry_slots[p.0].timer.is_some() {
                self.retry_slots[p.0].timer = None;
                self.log.timer_fires += 1;
                fired.push(p);
            }
        }
        Some(fired)
    }

    /// Arms (or re-arms from attempt zero) the retry timer for `p`'s current protocol
    /// phase. A no-op unless a [`RetryPolicy`] is set.
    pub fn arm_retry(&mut self, p: ProcessId) {
        let Some(policy) = self.retry else {
            return;
        };
        self.cancel_retry(p);
        self.retry_slots[p.0].attempt = 0;
        self.retry_slots[p.0].timer = Some(self.clock.schedule_in(policy.base, p));
    }

    /// Schedules the next backed-off retry for `p` after a fire. Returns `false` when
    /// the attempt budget is exhausted (the phase stops retransmitting).
    pub fn rearm_retry(&mut self, p: ProcessId) -> bool {
        let Some(policy) = self.retry else {
            return false;
        };
        let slot = &mut self.retry_slots[p.0];
        slot.attempt += 1;
        if slot.attempt >= policy.max_attempts {
            return false;
        }
        let backoff = policy
            .base
            .saturating_mul(1u64 << slot.attempt.min(32))
            .min(policy.cap);
        slot.timer = Some(self.clock.schedule_in(backoff, p));
        true
    }

    /// Cancels `p`'s pending retry timer (operation completed or process crashed).
    pub fn cancel_retry(&mut self, p: ProcessId) {
        if let Some(timer) = self.retry_slots[p.0].timer.take() {
            self.clock.cancel(timer);
        }
    }

    /// Counts `n` retransmitted messages in the log (called by the cluster's
    /// timer hook after it re-broadcasts a phase).
    pub fn count_retransmissions(&mut self, n: u64) {
        self.log.retransmissions += n;
    }
}

/// What the fault layer decided to do with the message an adversary chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver normally.
    Deliver,
    /// Lose the message.
    Drop,
    /// Deliver it, leaving an extra copy in flight.
    Duplicate,
    /// Park it for the given number of virtual ticks.
    Delay(u64),
}

/// Drop/duplicate/delay probabilities for one link class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability a chosen message is dropped.
    pub drop: f64,
    /// Probability a delivered message leaves a duplicate in flight.
    pub duplicate: f64,
    /// Probability a chosen message is delayed instead of delivered.
    pub delay: f64,
    /// Half-open range of delay durations in virtual ticks.
    pub delay_ticks: (u64, u64),
}

impl LinkFaults {
    /// A lossless link.
    #[must_use]
    pub fn clean() -> Self {
        LinkFaults {
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            delay_ticks: (16, 64),
        }
    }

    /// A link dropping each chosen message with probability `p`.
    #[must_use]
    pub fn lossy(p: f64) -> Self {
        LinkFaults {
            drop: p,
            ..Self::clean()
        }
    }
}

/// One per-link override of a [`FaultPlan`]: `None` endpoints are wildcards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkOverride {
    /// Matches the sender (`None` = any).
    pub from: Option<ProcessId>,
    /// Matches the destination (`None` = any).
    pub to: Option<ProcessId>,
    /// The distribution used for matching links.
    pub faults: LinkFaults,
}

/// The seeded fault distributions of one scenario: a default link class plus ordered
/// per-link overrides (first match wins).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The distribution applied when no override matches.
    pub default: LinkFaults,
    /// Per-link overrides, checked in order.
    pub overrides: Vec<LinkOverride>,
}

impl FaultPlan {
    /// A plan that never injects anything.
    #[must_use]
    pub fn clean() -> Self {
        FaultPlan {
            default: LinkFaults::clean(),
            overrides: Vec::new(),
        }
    }

    /// A plan dropping every chosen message with probability `p` on every link.
    #[must_use]
    pub fn lossy(p: f64) -> Self {
        FaultPlan {
            default: LinkFaults::lossy(p),
            overrides: Vec::new(),
        }
    }

    /// Adds a per-link override (checked before the default; first match wins).
    #[must_use]
    pub fn with_link(
        mut self,
        from: Option<ProcessId>,
        to: Option<ProcessId>,
        faults: LinkFaults,
    ) -> Self {
        self.overrides.push(LinkOverride { from, to, faults });
        self
    }

    fn faults_for(&self, env: &Envelope) -> LinkFaults {
        self.overrides
            .iter()
            .find(|o| o.from.is_none_or(|p| p == env.from) && o.to.is_none_or(|p| p == env.to))
            .map_or(self.default, |o| o.faults)
    }
}

/// Rolls the [`FaultPlan`] dice at delivery time, from the seeded vendored rng.
///
/// Consulted only while *recording* a run: the outcomes are written into the schedule
/// as first-class steps, so replay is deterministic without the injector.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
}

impl FaultInjector {
    /// Creates an injector for `plan`, seeded.
    #[must_use]
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        FaultInjector {
            plan,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// An injector that never injects (useful as a baseline scenario).
    #[must_use]
    pub fn clean() -> Self {
        Self::new(FaultPlan::clean(), 0)
    }

    /// Decides the fate of the message the adversary chose to deliver next.
    pub fn decide(&mut self, env: &Envelope) -> FaultDecision {
        let faults = self.plan.faults_for(env);
        if faults.drop > 0.0 && self.rng.gen_bool(faults.drop) {
            return FaultDecision::Drop;
        }
        if faults.delay > 0.0 && self.rng.gen_bool(faults.delay) {
            let (lo, hi) = faults.delay_ticks;
            let ticks = if hi > lo {
                self.rng.gen_range(lo..hi)
            } else {
                lo
            };
            return FaultDecision::Delay(ticks);
        }
        if faults.duplicate > 0.0 && self.rng.gen_bool(faults.duplicate) {
            return FaultDecision::Duplicate;
        }
        FaultDecision::Deliver
    }
}

/// A scripted failure scenario for [`hunt_with`]: the loss plan plus
/// partition/crash/recovery events keyed on the delivery count.
#[derive(Debug, Clone)]
pub struct FaultScenario {
    /// Per-link fault distributions.
    pub plan: FaultPlan,
    /// Seed of the [`FaultInjector`] (combined with the scenario seed).
    pub fault_seed: u64,
    /// Install this partition once the delivery count reaches `.0`.
    pub partition_at: Option<(u64, Partition)>,
    /// Heal partition `.1` once the delivery count reaches `.0`.
    pub heal_at: Option<(u64, u32)>,
    /// Crash each process once the delivery count reaches its threshold.
    pub crashes: Vec<(u64, ProcessId)>,
    /// Recover each process once the delivery count reaches its threshold.
    pub recoveries: Vec<(u64, ProcessId)>,
}

impl FaultScenario {
    /// A scenario with the given loss plan and no scripted partition/crash events.
    #[must_use]
    pub fn new(plan: FaultPlan, fault_seed: u64) -> Self {
        FaultScenario {
            plan,
            fault_seed,
            partition_at: None,
            heal_at: None,
            crashes: Vec::new(),
            recoveries: Vec::new(),
        }
    }

    /// Adds a partition window: install `partition` at delivery `at`, heal it at
    /// delivery `heal`.
    #[must_use]
    pub fn with_partition_window(mut self, at: u64, heal: u64, partition: Partition) -> Self {
        let id = partition.id();
        self.partition_at = Some((at, partition));
        self.heal_at = Some((heal, id));
        self
    }

    /// Crashes `p` at delivery `at`.
    #[must_use]
    pub fn with_crash(mut self, at: u64, p: ProcessId) -> Self {
        self.crashes.push((at, p));
        self
    }

    /// Recovers `p` at delivery `at`.
    #[must_use]
    pub fn with_recovery(mut self, at: u64, p: ProcessId) -> Self {
        self.recoveries.push((at, p));
        self
    }
}

/// Result of a hunt ([`hunt_with`] and its wrappers).
#[derive(Debug)]
pub struct HuntReport {
    /// Delivery count at which the hunt's `reject` first fired (`None` if the budget
    /// ran out first).
    pub violation_at: Option<u64>,
    /// Total deliveries made.
    pub deliveries: u64,
    /// The recorded run, replayable with [`crate::Schedule::replay_on`].
    pub schedule: crate::Schedule,
    /// The cluster's fault counters at the end of the run (all zero for fault-free
    /// hunts; see [`FaultLog`]).
    pub fault_log: FaultLog,
}

/// [`hunt_with`] with one incremental checking session per hunt: the interner,
/// precedence bitsets and per-register frozen searches persist across the run's
/// rechecks instead of being re-derived from scratch after every step.
pub fn hunt_with_faults(
    cluster: AbdCluster,
    adversary: &mut dyn DeliveryAdversary,
    scenario: &FaultScenario,
    scenario_seed: u64,
    max_deliveries: u64,
    checker: &Checker<i64>,
) -> HuntReport {
    let mut monitor = checker.incremental();
    hunt_with(
        cluster,
        adversary,
        scenario,
        scenario_seed,
        max_deliveries,
        &mut |cluster: &AbdCluster| {
            monitor.sync_with_ops(cluster.operations());
            matches!(monitor.verdict_ref().outcome(), Ok(false))
        },
    )
}

/// The hunt: drives `cluster` through a seeded open workload under `adversary`
/// **and** the failure scenario, halting at the first non-linearizable prefix.
///
/// The workload: the designated writer writes continuously (a fresh value whenever
/// it is idle and alive), and one reader at a time, picked uniformly among the
/// other processes by the `scenario_seed` rng, runs a read. Every chosen delivery
/// rolls the scenario's [`FaultInjector`], partitions are installed and healed at
/// the scripted delivery counts, processes crash and recover, and when nothing is
/// deliverable the virtual clock fast-forwards to the next retry timer or delayed
/// release. Everything, every fault included, is recorded in the returned
/// [`crate::Schedule`], so the run replays bit-identically and ddmin-minimizes.
///
/// `reject` is called after every step (delivery, fault decision or clock
/// advance); the hunt stops at the first `true`, or once `max_deliveries`
/// deliveries were made. The rng picks only reader identities, so one
/// `scenario_seed` pits every adversary against the same workload, and with a
/// deterministic adversary the whole hunt is a pure function of its arguments.
/// Under a clean scenario (`FaultScenario::new(FaultPlan::clean(), 0)`) the
/// injector never rolls, and a cluster without retries has no deadline to advance
/// to, so the run is the plain message schedule of
/// [`crate::adversary::hunt_new_old_inversion`].
pub fn hunt_with(
    cluster: AbdCluster,
    adversary: &mut dyn DeliveryAdversary,
    scenario: &FaultScenario,
    scenario_seed: u64,
    max_deliveries: u64,
    reject: &mut dyn FnMut(&AbdCluster) -> bool,
) -> HuntReport {
    let mut run = ScheduleRun::new(cluster);
    let mut injector = FaultInjector::new(
        scenario.plan.clone(),
        scenario.fault_seed ^ scenario_seed.rotate_left(17),
    );
    let mut rng = StdRng::seed_from_u64(scenario_seed);
    let n = run.cluster().process_count();
    let writer = run.cluster().writer();
    let mut next_value = 7i64;
    let mut active_reader: Option<ProcessId> = None;
    let mut partition_pending = scenario.partition_at.clone();
    let mut heal_pending = scenario.heal_at;
    let mut crashes = scenario.crashes.clone();
    let mut recoveries = scenario.recoveries.clone();
    let mut violation_at = None;
    // Fault decisions and timer fires add steps without adding deliveries; bound the
    // total step count too so a 100%-drop plan cannot loop forever.
    let step_cap = max_deliveries.saturating_mul(8).max(64);
    while run.deliveries() < max_deliveries && (run.schedule().len() as u64) < step_cap {
        let delivered = run.deliveries();
        if let Some((at, partition)) = partition_pending.take() {
            if delivered >= at {
                run.apply(ScheduleStep::Partition {
                    id: partition.id(),
                    side: partition.side_mask(),
                });
            } else {
                partition_pending = Some((at, partition));
            }
        }
        if let Some((at, id)) = heal_pending {
            // Heal only once its partition is actually installed.
            if delivered >= at && partition_pending.is_none() && run.apply(ScheduleStep::Heal(id)) {
                heal_pending = None;
            }
        }
        crashes.retain(|&(at, p)| {
            if delivered >= at && !run.cluster().is_crashed(p) {
                run.apply(ScheduleStep::Event(ClientEvent::Crash(p)));
                false
            } else {
                delivered < at
            }
        });
        recoveries.retain(|&(at, p)| {
            if delivered >= at {
                if run.cluster().is_crashed(p) {
                    run.apply(ScheduleStep::Event(ClientEvent::Recover(p)));
                }
                false
            } else {
                true
            }
        });
        if let Some(p) = active_reader {
            // A crashed reader's operation can never complete; move on.
            if run.cluster().is_crashed(p) {
                active_reader = None;
            }
        }
        if run.cluster().is_idle(writer)
            && !run.cluster().is_crashed(writer)
            && run.apply(ScheduleStep::Event(ClientEvent::StartWrite(next_value)))
        {
            next_value += 1;
        }
        if active_reader.is_none() {
            // A uniform pick among the n - 1 non-writer processes.
            let r = rng.gen_range(0..n - 1);
            let p = ProcessId(if r >= writer.0 { r + 1 } else { r });
            if run.apply(ScheduleStep::Event(ClientEvent::StartRead(p))) {
                active_reader = Some(p);
            }
        }
        // Deliver under the fault layer; when nothing is deliverable, fast-forward
        // virtual time (releasing delayed messages, firing retry timers).
        if !run.deliver_next_faulty(adversary, &mut injector) && !run.apply(ScheduleStep::Advance) {
            break;
        }
        if reject(run.cluster()) {
            violation_at = Some(run.deliveries());
            break;
        }
        if let Some(p) = active_reader {
            if !run.cluster().is_crashed(p) && run.cluster().is_idle(p) {
                active_reader = None;
            }
        }
    }
    HuntReport {
        violation_at,
        deliveries: run.deliveries(),
        fault_log: run.cluster().fault_log(),
        schedule: run.into_schedule(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delivery::AbdMessage;

    fn env(from: usize, to: usize, seq: u64) -> Envelope {
        Envelope {
            from: ProcessId(from),
            to: ProcessId(to),
            message: AbdMessage::WriteReq { seq, value: 0 },
        }
    }

    #[test]
    fn fault_log_merge_is_order_independent() {
        // Three distinct shards with every counter populated differently.
        let shards: Vec<FaultLog> = (1..=3u64)
            .map(|k| FaultLog {
                drops: k,
                duplicates: 10 * k,
                delays: 100 * k,
                partition_holds: k * k,
                purges: 7 * k,
                dead_sends: k + 1,
                timer_fires: 3 * k,
                retransmissions: 13 * k,
            })
            .collect();
        let orders: [[usize; 3]; 3] = [[0, 1, 2], [2, 0, 1], [1, 2, 0]];
        let merged: Vec<FaultLog> = orders
            .iter()
            .map(|order| {
                let mut total = FaultLog::default();
                for &i in order {
                    total.merge(&shards[i]);
                }
                total
            })
            .collect();
        assert_eq!(merged[0], merged[1]);
        assert_eq!(merged[0], merged[2]);
        assert_eq!(merged[0].drops, 6);
        assert_eq!(merged[0].lossy_events(), 6 + 600 + 14 + 42 + 9);
    }

    #[test]
    fn dead_sends_are_counted_not_silent() {
        let mut net = SimNet::new(3);
        net.crash(ProcessId(2));
        net.send(env(0, 2, 1));
        assert_eq!(net.queue().len(), 0);
        assert_eq!(net.fault_log().dead_sends, 1);
    }

    #[test]
    fn partition_parks_crossing_traffic_and_heal_releases_in_order() {
        let mut net = SimNet::new(4);
        net.send(env(0, 2, 1));
        net.send(env(0, 1, 2));
        net.send(env(3, 0, 3));
        let cut = Partition::new(1, "wan-split", [ProcessId(0), ProcessId(1)]);
        assert!(net.install_partition(cut.clone()));
        assert!(!net.install_partition(cut), "double install is a no-op");
        // 0->2 and 3->0 cross the cut; 0->1 does not.
        assert_eq!(net.queue().len(), 1);
        assert_eq!(net.parked_count(), 2);
        assert_eq!(net.fault_log().partition_holds, 2);
        // Sends across the cut while installed are parked too.
        net.send(env(1, 3, 4));
        assert_eq!(net.parked_count(), 3);
        assert!(net.link_severed(ProcessId(0), ProcessId(2)));
        assert!(net.heal_partition(1));
        assert!(!net.heal_partition(1), "double heal is a no-op");
        assert_eq!(net.parked_count(), 0);
        assert_eq!(net.queue().len(), 4);
        // Re-injected in park order (by send stamp), after the surviving 0->1 message.
        let mut by_stamp: Vec<(u64, (usize, usize))> = net
            .queue()
            .iter()
            .map(|(slot, env)| {
                (
                    net.queue().stamp(slot).expect("occupied slot"),
                    (env.from.0, env.to.0),
                )
            })
            .collect();
        by_stamp.sort_unstable_by_key(|&(stamp, _)| stamp);
        let order: Vec<(usize, usize)> = by_stamp.into_iter().map(|(_, link)| link).collect();
        assert_eq!(order, vec![(0, 1), (0, 2), (3, 0), (1, 3)]);
    }

    #[test]
    fn delayed_messages_return_after_advancing_the_clock() {
        let mut net = SimNet::new(3);
        net.send(env(0, 1, 1));
        net.delay_slot(0, 10);
        assert_eq!(net.queue().len(), 0);
        assert_eq!(net.fault_log().delays, 1);
        assert_eq!(net.next_deadline(), Some(10));
        let fired = net.advance().expect("a deadline exists");
        assert!(fired.is_empty(), "no retry timers were armed");
        assert_eq!(net.now(), 10);
        assert_eq!(net.queue().len(), 1);
        assert!(net.advance().is_none(), "nothing left to advance to");
    }

    #[test]
    fn crash_purges_parked_messages_too() {
        let mut net = SimNet::new(3);
        net.send(env(0, 1, 1));
        net.delay_slot(0, 50);
        net.send(env(0, 2, 2));
        net.crash(ProcessId(1));
        assert_eq!(
            net.parked_count(),
            0,
            "parked traffic to the crashed process is purged"
        );
        assert_eq!(net.queue().len(), 1);
        assert_eq!(net.fault_log().purges, 1);
        assert!(net.recover(ProcessId(1)));
        assert!(
            !net.recover(ProcessId(1)),
            "recovering a live process is a no-op"
        );
    }

    #[test]
    fn retry_backoff_is_bounded_and_exponential() {
        let mut net = SimNet::new(2);
        net.set_retry(RetryPolicy {
            base: 4,
            cap: 16,
            max_attempts: 4,
        });
        net.arm_retry(ProcessId(0));
        assert_eq!(net.next_deadline(), Some(4));
        let fired = net.advance().unwrap();
        assert_eq!(fired, vec![ProcessId(0)]);
        assert!(net.rearm_retry(ProcessId(0)));
        assert_eq!(net.next_deadline(), Some(4 + 8)); // base << 1
        net.advance();
        assert!(net.rearm_retry(ProcessId(0)));
        assert_eq!(net.next_deadline(), Some(12 + 16)); // capped
        net.advance();
        assert!(net.rearm_retry(ProcessId(0)));
        net.advance();
        assert!(!net.rearm_retry(ProcessId(0)), "attempt budget exhausted");
        assert_eq!(net.fault_log().timer_fires, 4);
    }

    #[test]
    fn injector_is_deterministic_per_seed() {
        let roll = |seed| {
            let mut injector = FaultInjector::new(
                FaultPlan {
                    default: LinkFaults {
                        drop: 0.3,
                        duplicate: 0.2,
                        delay: 0.2,
                        delay_ticks: (5, 20),
                    },
                    overrides: Vec::new(),
                },
                seed,
            );
            (0..64)
                .map(|i| injector.decide(&env(0, 1, i)))
                .collect::<Vec<_>>()
        };
        assert_eq!(roll(9), roll(9));
        assert_ne!(roll(9), roll(10), "different seeds give different streams");
        let decisions = roll(9);
        assert!(decisions.contains(&FaultDecision::Drop));
        assert!(decisions.contains(&FaultDecision::Deliver));
    }

    #[test]
    fn per_link_overrides_take_precedence() {
        let plan = FaultPlan::clean().with_link(None, Some(ProcessId(1)), LinkFaults::lossy(1.0));
        let mut injector = FaultInjector::new(plan, 3);
        assert_eq!(injector.decide(&env(0, 1, 1)), FaultDecision::Drop);
        assert_eq!(injector.decide(&env(0, 2, 1)), FaultDecision::Deliver);
    }
}
