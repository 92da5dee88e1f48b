//! Message-schedule adversaries for the ABD simulations.
//!
//! Mirrors `rlt-sim`'s step-scheduling `Adversary` one layer down: instead
//! of choosing which *process* moves, a [`DeliveryAdversary`] chooses which in-flight
//! *message* is delivered next, with a [`DeliveryView`] over the whole
//! [`InflightQueue`]. That is exactly the power of the asynchronous network in the
//! paper's message-passing model — and the difference between "non-linearizable
//! histories eventually show up across seeds" and "this adversary forces one in
//! seventeen deliveries".
//!
//! Provided implementations:
//!
//! * [`UniformAdversary`] — the seeded uniform-random baseline (what
//!   [`crate::AbdCluster::deliver_random`] does, as an adversary value).
//! * [`OldestFirstAdversary`] / [`NewestFirstAdversary`] — FIFO / LIFO networks.
//! * [`StarveDestinationAdversary`] — delays every message addressed to one victim
//!   process for as long as anything else is deliverable.
//! * [`ReplyWithholdingAdversary`] — the targeted one: withholds the write-propagation
//!   traffic of ABD's write and read write-back phases from all but one replica and
//!   steers stale read replies toward later reads, which drives the faulty
//!   (write-back-free) cluster straight into a new/old inversion.
//! * [`ScriptedAdversary`] — replays a recorded sequence of [`EnvelopeKey`]s.
//!
//! [`hunt_new_old_inversion`] is the fault-free entry to the one hunt loop,
//! [`crate::hunt_with`]: a seeded open workload (continuous writes, one read at a
//! time) under a chosen adversary, rechecked after every step and halted at the first
//! non-linearizable prefix, recording the whole run as a [`Schedule`] for replay and
//! [`crate::minimize`] shrinking.

use crate::delivery::{AbdMessage, Envelope, EnvelopeKey, InflightQueue, Schedule};
use crate::faults::{hunt_with_faults, FaultPlan, FaultScenario, HuntReport};
use crate::AbdCluster;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlt_spec::{Checker, ProcessId};
use std::collections::VecDeque;
use std::fmt;

/// The information available to a delivery adversary when it chooses the next message.
#[derive(Debug)]
pub struct DeliveryView<'a> {
    /// The in-flight messages (index-stable; see [`InflightQueue`]).
    pub queue: &'a InflightQueue,
    /// Number of deliveries made so far in this run.
    pub deliveries: u64,
}

/// A message-delivery adversary: chooses which in-flight message is delivered next.
///
/// Mirrors `rlt_sim::sched::Adversary`. The returned slot index must name an
/// occupied slot of `view.queue`; returning `None` means the adversary declines to
/// deliver anything (used by scripted replay when its script is exhausted), which ends
/// the run.
pub trait DeliveryAdversary: fmt::Debug {
    /// Chooses the slot of the next message to deliver (the queue is never empty when
    /// this is called), or `None` to stop.
    fn next_delivery(&mut self, view: &DeliveryView<'_>) -> Option<usize>;
}

/// Uniformly random (but seeded, hence reproducible) delivery — the baseline every
/// targeted adversary is measured against.
#[derive(Debug)]
pub struct UniformAdversary {
    rng: StdRng,
}

impl UniformAdversary {
    /// Creates a uniform adversary from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        UniformAdversary {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl DeliveryAdversary for UniformAdversary {
    fn next_delivery(&mut self, view: &DeliveryView<'_>) -> Option<usize> {
        Some(view.queue.slot_at(self.rng.gen_range(0..view.queue.len())))
    }
}

/// FIFO delivery: always the oldest in-flight message. Approximates a synchronous
/// network — useful as the benign end of the schedule spectrum.
#[derive(Debug, Default)]
pub struct OldestFirstAdversary;

impl OldestFirstAdversary {
    /// Creates the FIFO adversary.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl DeliveryAdversary for OldestFirstAdversary {
    fn next_delivery(&mut self, view: &DeliveryView<'_>) -> Option<usize> {
        view.queue.oldest_matching(|_| true)
    }
}

/// LIFO delivery: always the newest in-flight message — maximally unfair to old
/// traffic without ever dropping it.
#[derive(Debug, Default)]
pub struct NewestFirstAdversary;

impl NewestFirstAdversary {
    /// Creates the LIFO adversary.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl DeliveryAdversary for NewestFirstAdversary {
    fn next_delivery(&mut self, view: &DeliveryView<'_>) -> Option<usize> {
        view.queue.newest_matching(|_| true)
    }
}

/// Starves one destination: messages addressed to `victim` are delivered only when
/// nothing else is in flight (oldest-first within each class). The victim's replica
/// state goes maximally stale without it ever being declared crashed.
#[derive(Debug)]
pub struct StarveDestinationAdversary {
    victim: ProcessId,
}

impl StarveDestinationAdversary {
    /// Creates an adversary starving messages addressed to `victim`.
    #[must_use]
    pub fn new(victim: ProcessId) -> Self {
        StarveDestinationAdversary { victim }
    }
}

impl DeliveryAdversary for StarveDestinationAdversary {
    fn next_delivery(&mut self, view: &DeliveryView<'_>) -> Option<usize> {
        view.queue
            .oldest_matching(|env| env.to != self.victim)
            .or_else(|| view.queue.oldest_matching(|_| true))
    }
}

/// The targeted adversary: withholds ABD's write-propagation traffic (the write phase
/// and the read *write-back* phase) from all but one "infected" replica, and steers
/// stale read replies toward every read after the first.
///
/// Concretely, messages are ranked in classes (lower delivered first, oldest-first
/// within a class):
///
/// 1. `WriteReq`/`WriteBackReq` addressed to the infected replica (the destination of
///    the first write request it observes),
/// 2. `ReadReq` (queries always go through),
/// 3. replies that *help the skew*: the infected replica's reply to the **first** read,
///    and stale (non-infected) replies to every later read,
/// 4. the remaining replies to the first read,
/// 5. acknowledgments (`WriteAck`/`WriteBackAck`),
/// 6. withheld: write propagation to non-infected replicas, and the infected replica's
///    fresh replies to later reads.
///
/// On [`crate::FaultyAbdCluster`] this forces the classic new/old inversion in a
/// couple dozen deliveries: the first read observes the new value from the single
/// infected replica and, lacking a write-back, repairs nothing; every later read is
/// fed a stale majority. On the correct [`crate::AbdCluster`] the same schedule is
/// harmless — the first read's write-back (eventually forced out of class 6) repairs
/// the gap before any later read completes, which is precisely Theorem 14's point.
#[derive(Debug, Default)]
pub struct ReplyWithholdingAdversary {
    infected: Option<ProcessId>,
    fresh_rid: Option<u64>,
}

impl ReplyWithholdingAdversary {
    /// Creates the write-back-withholding adversary.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn class_of(&self, env: &Envelope) -> u8 {
        match env.message {
            AbdMessage::WriteReq { .. } | AbdMessage::WriteBackReq { .. } => {
                if Some(env.to) == self.infected {
                    0
                } else {
                    5
                }
            }
            AbdMessage::ReadReq { .. } => 1,
            AbdMessage::ReadReply { rid, .. } => {
                let fresh_read = Some(rid) == self.fresh_rid;
                let from_infected = Some(env.from) == self.infected;
                match (fresh_read, from_infected) {
                    (true, true) | (false, false) => 2,
                    (true, false) => 3,
                    (false, true) => 5,
                }
            }
            AbdMessage::WriteAck { .. } | AbdMessage::WriteBackAck { .. } => 4,
        }
    }
}

impl DeliveryAdversary for ReplyWithholdingAdversary {
    fn next_delivery(&mut self, view: &DeliveryView<'_>) -> Option<usize> {
        let queue = view.queue;
        if self.infected.is_none() {
            self.infected = queue
                .oldest_matching(|env| matches!(env.message, AbdMessage::WriteReq { .. }))
                .and_then(|slot| queue.get(slot))
                .map(|env| env.to);
        }
        if self.fresh_rid.is_none() {
            self.fresh_rid = queue
                .oldest_matching(|env| matches!(env.message, AbdMessage::ReadReq { .. }))
                .and_then(|slot| queue.get(slot))
                .map(|env| match env.message {
                    AbdMessage::ReadReq { rid } => rid,
                    _ => unreachable!("matched ReadReq"),
                });
        }
        queue
            .iter()
            .min_by_key(|&(slot, env)| (self.class_of(env), queue.stamp(slot)))
            .map(|(slot, _)| slot)
    }
}

/// Replays a recorded sequence of [`EnvelopeKey`]s: each call delivers the next key
/// that names an in-flight message. Keys that name nothing (their causal predecessor
/// was dropped from the script) are skipped; an exhausted script returns `None`.
///
/// For faithful replay of a full run — client events included — use
/// [`Schedule::replay_on`] instead; this adversary is the delivery-only half, useful
/// for driving a hand-built cluster through a recorded message order.
#[derive(Debug)]
pub struct ScriptedAdversary {
    keys: VecDeque<EnvelopeKey>,
}

impl ScriptedAdversary {
    /// Creates a scripted adversary from a key sequence.
    #[must_use]
    pub fn new(keys: impl IntoIterator<Item = EnvelopeKey>) -> Self {
        ScriptedAdversary {
            keys: keys.into_iter().collect(),
        }
    }

    /// Extracts the delivery steps of a recorded schedule.
    #[must_use]
    pub fn from_schedule(schedule: &Schedule) -> Self {
        Self::new(schedule.steps.iter().filter_map(|step| match step {
            crate::delivery::ScheduleStep::Deliver(key) => Some(*key),
            _ => None,
        }))
    }

    /// Keys not yet replayed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.keys.len()
    }
}

impl DeliveryAdversary for ScriptedAdversary {
    fn next_delivery(&mut self, view: &DeliveryView<'_>) -> Option<usize> {
        while let Some(key) = self.keys.pop_front() {
            if let Some(slot) = view.queue.find_key(key) {
                return Some(slot);
            }
        }
        None
    }
}

/// The fault-free hunt: [`hunt_with_faults`] under the clean scenario
/// `FaultScenario::new(FaultPlan::clean(), 0)`, so only `adversary` shapes the
/// message schedule. Continuous writes, one reader at a time, the history
/// rechecked by one incremental session after every delivery; stops at the first
/// non-linearizable prefix or after `max_deliveries`. See [`crate::hunt_with`].
pub fn hunt_new_old_inversion(
    cluster: AbdCluster,
    adversary: &mut dyn DeliveryAdversary,
    scenario_seed: u64,
    max_deliveries: u64,
    checker: &Checker<i64>,
) -> HuntReport {
    hunt_with_faults(
        cluster,
        adversary,
        &FaultScenario::new(FaultPlan::clean(), 0),
        scenario_seed,
        max_deliveries,
        checker,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        hunt_with, ClientEvent, FaultyAbdCluster, Partition, RetryPolicy, ScheduleRun, ScheduleStep,
    };

    fn checker() -> Checker<i64> {
        Checker::new(0i64)
    }

    #[test]
    fn reply_withholding_forces_a_violation_in_few_deliveries() {
        let checker = checker();
        for seed in 0..5u64 {
            let mut adv = ReplyWithholdingAdversary::new();
            let report = hunt_new_old_inversion(
                FaultyAbdCluster::new(5, ProcessId(0)).into(),
                &mut adv,
                seed,
                500,
                &checker,
            );
            let at = report
                .violation_at
                .unwrap_or_else(|| panic!("no violation on seed {seed}"));
            assert!(at <= 40, "seed {seed}: took {at} deliveries");
        }
    }

    #[test]
    fn incremental_hunt_matches_the_from_scratch_baseline() {
        // One incremental session per hunt must not change the hunt's outcome: the
        // same violation delivery, delivery count, recorded schedule and fault log
        // as a from-scratch check after every step. Fault-free, then under loss with
        // retries, a partition window, and a crash with recovery.
        let checker = checker();
        let cut = Partition::new(1, "writer-side-cut", [ProcessId(0), ProcessId(1)]);
        let scenarios = [
            (FaultScenario::new(FaultPlan::clean(), 0), None),
            (
                FaultScenario::new(FaultPlan::lossy(0.1), 0xe14),
                Some(RetryPolicy::default()),
            ),
            (
                FaultScenario::new(FaultPlan::clean(), 0xbeef).with_partition_window(6, 12, cut),
                Some(RetryPolicy::default()),
            ),
            (
                FaultScenario::new(FaultPlan::clean(), 0xdead)
                    .with_crash(10, ProcessId(4))
                    .with_recovery(30, ProcessId(4)),
                Some(RetryPolicy::default()),
            ),
        ];
        let mut found = 0;
        for (scenario, retries) in &scenarios {
            for seed in 0..5u64 {
                let hunt = |reject: &mut dyn FnMut(&AbdCluster) -> bool| {
                    let mut cluster = FaultyAbdCluster::new(5, ProcessId(0));
                    if let Some(policy) = retries {
                        cluster = cluster.with_retries(*policy);
                    }
                    let mut adversary = ReplyWithholdingAdversary::new();
                    hunt_with(cluster.into(), &mut adversary, scenario, seed, 300, reject)
                };
                let mut monitor = checker.incremental();
                let incremental = hunt(&mut |cluster| {
                    monitor.sync_with_ops(cluster.operations());
                    matches!(monitor.verdict_ref().outcome(), Ok(false))
                });
                let scratch = hunt(&mut |cluster| {
                    matches!(checker.check(&cluster.history()).outcome(), Ok(false))
                });
                let at = format!("{scenario:?}, seed {seed}");
                assert_eq!(incremental.violation_at, scratch.violation_at, "{at}");
                assert_eq!(incremental.deliveries, scratch.deliveries, "{at}");
                assert_eq!(incremental.schedule, scratch.schedule, "{at}");
                assert_eq!(incremental.fault_log, scratch.fault_log, "{at}");
                found += u64::from(incremental.violation_at.is_some());
            }
        }
        assert!(
            found > 0 && found < 20,
            "{found} of 20 hunts found a violation"
        );
    }

    #[test]
    fn hunts_are_deterministic_and_schedules_replay_bit_identically() {
        let checker = checker();
        let run = |seed| {
            let mut adv = ReplyWithholdingAdversary::new();
            hunt_new_old_inversion(
                FaultyAbdCluster::new(5, ProcessId(0)).into(),
                &mut adv,
                seed,
                500,
                &checker,
            )
        };
        let a = run(3);
        let b = run(3);
        assert_eq!(
            a.schedule, b.schedule,
            "hunt must be deterministic per seed"
        );
        let mut c1 = FaultyAbdCluster::new(5, ProcessId(0));
        let mut c2 = FaultyAbdCluster::new(5, ProcessId(0));
        a.schedule.replay_on(&mut c1);
        a.schedule.replay_on(&mut c2);
        assert_eq!(c1.history(), c2.history(), "replay must be bit-identical");
        assert!(!checker.check(&c1.history()).is_linearizable());
    }

    #[test]
    fn reply_withholding_is_harmless_on_the_correct_cluster() {
        // Theorem 14 in action: the same targeted schedule pressure cannot break real
        // ABD — the forced-out write-back repairs the gap.
        let checker = checker();
        for seed in 0..3u64 {
            let mut adv = ReplyWithholdingAdversary::new();
            let report = hunt_new_old_inversion(
                AbdCluster::new(5, ProcessId(0)),
                &mut adv,
                seed,
                400,
                &checker,
            );
            assert_eq!(report.violation_at, None, "seed {seed}");
        }
    }

    #[test]
    fn baseline_adversaries_drive_runs_without_violations_on_real_abd() {
        let checker = checker();
        let advs: Vec<Box<dyn DeliveryAdversary>> = vec![
            Box::new(UniformAdversary::new(9)),
            Box::new(OldestFirstAdversary::new()),
            Box::new(NewestFirstAdversary::new()),
            Box::new(StarveDestinationAdversary::new(ProcessId(2))),
        ];
        for mut adv in advs {
            let report = hunt_new_old_inversion(
                AbdCluster::new(5, ProcessId(0)),
                &mut *adv,
                1,
                300,
                &checker,
            );
            assert_eq!(report.violation_at, None, "adversary {adv:?}");
            assert!(report.deliveries > 0);
        }
    }

    #[test]
    fn scripted_adversary_replays_recorded_deliveries() {
        // Record a run whose client events all happen up front (one write, one
        // overlapping read), driven by a deterministic adversary...
        let record = {
            let mut run = ScheduleRun::new(AbdCluster::new(5, ProcessId(0)));
            run.apply(ScheduleStep::Event(ClientEvent::StartWrite(7)));
            run.apply(ScheduleStep::Event(ClientEvent::StartRead(ProcessId(3))));
            let mut adv = NewestFirstAdversary::new();
            while run.deliver_next(&mut adv) {}
            run
        };
        let recorded_history = record.history();
        let schedule = record.into_schedule();
        // ...then replay only its *deliveries* through a ScriptedAdversary on a fresh
        // cluster after issuing the same operations by hand.
        let mut scripted = ScriptedAdversary::from_schedule(&schedule);
        let mut run = ScheduleRun::new(AbdCluster::new(5, ProcessId(0)));
        run.apply(ScheduleStep::Event(ClientEvent::StartWrite(7)));
        run.apply(ScheduleStep::Event(ClientEvent::StartRead(ProcessId(3))));
        while run.deliver_next(&mut scripted) {}
        assert_eq!(scripted.remaining(), 0);
        assert_eq!(run.history(), recorded_history);
    }
}
