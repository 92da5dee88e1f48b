//! A cooperative step scheduler over process state machines.
//!
//! Processes implement [`StepProcess`]: each call to `step` performs one bounded action
//! (typically beginning or finishing one shared-memory operation). The [`Scheduler`]
//! repeatedly asks an [`Adversary`] which runnable process moves next, which is exactly
//! the scheduling power of the asynchronous model — a seeded [`RandomAdversary`]
//! explores interleavings reproducibly, while scripted adversaries replay the paper's
//! hand-crafted executions.

use crate::clock::VirtualClock;
use crate::coin::CoinSource;
use crate::mem::SharedMem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlt_spec::{History, ProcessId};
use std::fmt;

/// Result of a single process step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The process has more steps to take.
    Running,
    /// The process has terminated (returned from its algorithm).
    Done,
}

/// A process expressed as a step-wise state machine.
pub trait StepProcess<V>: fmt::Debug {
    /// Performs one step on behalf of process `pid`, possibly interacting with the
    /// shared memory or flipping a coin.
    fn step(
        &mut self,
        pid: ProcessId,
        mem: &mut SharedMem<V>,
        coin: &mut CoinSource,
    ) -> StepOutcome;
}

/// A scheduling adversary: chooses which runnable process takes the next step.
///
/// The adversary is *strong*: at the time of each decision the full coin-flip log and
/// the recorded history are observable (the scheduler passes them in the view).
pub trait Adversary: fmt::Debug {
    /// Chooses the next process among `runnable` (never empty).
    fn next_process(&mut self, view: &AdversaryView<'_>) -> ProcessId;
}

/// The information available to a strong adversary when it makes a scheduling decision.
#[derive(Debug)]
pub struct AdversaryView<'a> {
    /// Processes that have not yet terminated.
    pub runnable: &'a [ProcessId],
    /// Number of steps taken so far.
    pub steps: u64,
    /// Current virtual time (each step advances it by one tick; see
    /// [`crate::clock::VirtualClock`]).
    pub now: u64,
    /// Outcomes of every coin flip so far.
    pub coin_log: &'a [crate::coin::FlipRecord],
}

/// Uniformly random (but seeded, hence reproducible) scheduling.
#[derive(Debug)]
pub struct RandomAdversary {
    rng: StdRng,
}

impl RandomAdversary {
    /// Creates a random adversary from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        RandomAdversary {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Adversary for RandomAdversary {
    fn next_process(&mut self, view: &AdversaryView<'_>) -> ProcessId {
        let idx = self.rng.gen_range(0..view.runnable.len());
        view.runnable[idx]
    }
}

/// Round-robin scheduling (fair, deterministic).
///
/// The rotation is tracked by [`ProcessId`], not by position in the runnable list: a
/// positional cursor (`cursor % runnable.len()`) stops being round-robin as soon as
/// any process terminates, because the survivors shift underneath it — the process
/// that was due next can be skipped and an already-served one scheduled twice in a
/// row. Tracking the last-served id keeps the successor order exact no matter how the
/// runnable set shrinks.
#[derive(Debug, Default)]
pub struct RoundRobinAdversary {
    last: Option<ProcessId>,
}

impl RoundRobinAdversary {
    /// Creates a round-robin adversary starting from the lowest-id process.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Adversary for RoundRobinAdversary {
    fn next_process(&mut self, view: &AdversaryView<'_>) -> ProcessId {
        // Smallest runnable id strictly after the last-served one, wrapping to the
        // smallest runnable id overall.
        let successor = |last: ProcessId| view.runnable.iter().copied().filter(|p| *p > last).min();
        let first = || {
            view.runnable
                .iter()
                .copied()
                .min()
                .expect("runnable is never empty")
        };
        let pid = match self.last {
            Some(last) => successor(last).unwrap_or_else(first),
            None => first(),
        };
        self.last = Some(pid);
        pid
    }
}

/// A process registered with the scheduler.
#[derive(Debug)]
pub struct ProcessSlot<V> {
    /// The process identifier used for memory operations and coin flips.
    pub id: ProcessId,
    /// The process state machine.
    pub process: Box<dyn StepProcess<V>>,
    done: bool,
}

/// Outcome of running a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerOutcome {
    /// `true` if every process terminated before the step budget ran out.
    pub all_done: bool,
    /// Number of steps executed.
    pub steps: u64,
    /// `true` if the run stopped because the `halt` closure of
    /// [`Scheduler::run_until`] returned `true` after step `steps`.
    pub halted: bool,
}

/// Drives a set of [`StepProcess`]es over a [`SharedMem`] under an [`Adversary`].
#[derive(Debug)]
pub struct Scheduler<V> {
    mem: SharedMem<V>,
    coin: CoinSource,
    slots: Vec<ProcessSlot<V>>,
    adversary: Box<dyn Adversary>,
    steps: u64,
    /// Virtual time of the run: one tick per executed step. The same discrete-event
    /// clock type drives the message-passing fault layer's timers, so shared-memory
    /// and message-passing simulations measure schedules in the same unit.
    clock: VirtualClock<ProcessId>,
}

impl<V: Clone + Eq + fmt::Debug + Ord + std::hash::Hash> Scheduler<V> {
    /// Creates a scheduler over the given memory, coin source, and adversary.
    #[must_use]
    pub fn new(mem: SharedMem<V>, coin: CoinSource, adversary: Box<dyn Adversary>) -> Self {
        Scheduler {
            mem,
            coin,
            slots: Vec::new(),
            adversary,
            steps: 0,
            clock: VirtualClock::new(),
        }
    }

    /// Current virtual time (ticks once per executed step).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Registers a process.
    pub fn add_process(&mut self, id: ProcessId, process: Box<dyn StepProcess<V>>) {
        self.slots.push(ProcessSlot {
            id,
            process,
            done: false,
        });
    }

    /// Number of registered processes.
    #[must_use]
    pub fn process_count(&self) -> usize {
        self.slots.len()
    }

    /// Executes one step of one (adversary-chosen) runnable process. Returns `false` if
    /// no process is runnable.
    pub fn step_once(&mut self) -> bool {
        let runnable: Vec<ProcessId> = self
            .slots
            .iter()
            .filter(|s| !s.done)
            .map(|s| s.id)
            .collect();
        if runnable.is_empty() {
            return false;
        }
        let view = AdversaryView {
            runnable: &runnable,
            steps: self.steps,
            now: self.clock.now(),
            coin_log: self.coin.log(),
        };
        let chosen = self.adversary.next_process(&view);
        let slot = self
            .slots
            .iter_mut()
            .find(|s| s.id == chosen && !s.done)
            .expect("adversary must pick a runnable process");
        let outcome = slot.process.step(slot.id, &mut self.mem, &mut self.coin);
        if outcome == StepOutcome::Done {
            slot.done = true;
        }
        self.steps += 1;
        self.clock.advance_by(1);
        true
    }

    /// Runs until every process terminates or `max_steps` steps have executed.
    pub fn run(&mut self, max_steps: u64) -> SchedulerOutcome {
        self.run_until(max_steps, |_| false)
    }

    /// The one run loop: runs like [`Scheduler::run`], but consults `halt` on the
    /// memory after every step and stops at the first `true`.
    ///
    /// A live linearizability monitor is a `halt` closure that feeds the borrowed
    /// [`SharedMem::operations`] to an [`IncrementalChecker`] session through
    /// [`IncrementalChecker::sync_with_ops`], so the per-register searches resume
    /// instead of restarting, and answers whether the verdict is non-linearizable
    /// (`verdict_ref().outcome() == Ok(false)`): the run then halts at the first
    /// step whose history prefix is non-linearizable.
    ///
    /// [`IncrementalChecker`]: rlt_spec::IncrementalChecker
    /// [`IncrementalChecker::sync_with_ops`]: rlt_spec::IncrementalChecker::sync_with_ops
    pub fn run_until(
        &mut self,
        max_steps: u64,
        mut halt: impl FnMut(&SharedMem<V>) -> bool,
    ) -> SchedulerOutcome {
        let mut halted = false;
        while !halted && self.steps < max_steps && self.step_once() {
            halted = halt(&self.mem);
        }
        SchedulerOutcome {
            all_done: self.slots.iter().all(|s| s.done),
            steps: self.steps,
            halted,
        }
    }

    /// The recorded history so far.
    #[must_use]
    pub fn history(&self) -> History<V> {
        self.mem.history()
    }

    /// Shared memory accessor (for inspection between runs).
    #[must_use]
    pub fn mem(&self) -> &SharedMem<V> {
        &self.mem
    }

    /// Coin-flip log accessor.
    #[must_use]
    pub fn coin(&self) -> &CoinSource {
        &self.coin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{PendingOp, RegisterMode};
    use rlt_spec::prelude::*;

    const R: RegisterId = RegisterId(0);

    /// A toy process: writes its id+1 to R, then reads R, then terminates.
    #[derive(Debug)]
    struct WriteThenRead {
        state: u8,
        pending: Option<PendingOp>,
        observed: Option<i64>,
    }

    impl WriteThenRead {
        fn new() -> Self {
            WriteThenRead {
                state: 0,
                pending: None,
                observed: None,
            }
        }
    }

    impl StepProcess<i64> for WriteThenRead {
        fn step(
            &mut self,
            pid: ProcessId,
            mem: &mut SharedMem<i64>,
            _coin: &mut CoinSource,
        ) -> StepOutcome {
            match self.state {
                0 => {
                    self.pending = Some(mem.begin_write(pid, R, pid.0 as i64 + 1));
                    self.state = 1;
                    StepOutcome::Running
                }
                1 => {
                    mem.finish_write(self.pending.take().unwrap());
                    self.state = 2;
                    StepOutcome::Running
                }
                2 => {
                    self.pending = Some(mem.begin_read(pid, R));
                    self.state = 3;
                    StepOutcome::Running
                }
                3 => {
                    self.observed = Some(mem.finish_read(self.pending.take().unwrap()));
                    self.state = 4;
                    StepOutcome::Done
                }
                _ => StepOutcome::Done,
            }
        }
    }

    fn build_scheduler(adversary: Box<dyn Adversary>, n: usize) -> Scheduler<i64> {
        let mem = SharedMem::new(RegisterMode::Atomic, 0i64);
        let coin = CoinSource::new(7);
        let mut sched = Scheduler::new(mem, coin, adversary);
        for i in 0..n {
            sched.add_process(ProcessId(i), Box::new(WriteThenRead::new()));
        }
        sched
    }

    #[test]
    fn round_robin_completes_and_history_is_linearizable() {
        let mut sched = build_scheduler(Box::new(RoundRobinAdversary::new()), 4);
        let outcome = sched.run(10_000);
        assert!(outcome.all_done);
        assert_eq!(outcome.steps, 16); // 4 processes x 4 steps
        let h = sched.history();
        assert_eq!(h.len(), 8); // 4 writes + 4 reads
        assert!(Checker::new(0i64).check(&h).is_linearizable());
    }

    /// One process: writes 1, then reads three times in sequence, dictating 1, then
    /// a stale 0, then 0 again. The live monitor must catch the second read the
    /// moment its response lands.
    #[derive(Debug)]
    struct StaleReader {
        state: u8,
        pending: Option<PendingOp>,
    }

    impl StepProcess<i64> for StaleReader {
        fn step(
            &mut self,
            pid: ProcessId,
            mem: &mut SharedMem<i64>,
            _coin: &mut CoinSource,
        ) -> StepOutcome {
            self.state += 1;
            match self.state {
                1 => self.pending = Some(mem.begin_write(pid, R, 1)),
                2 => mem.finish_write(self.pending.take().unwrap()),
                3 | 5 | 7 => self.pending = Some(mem.begin_read(pid, R)),
                4 => {
                    mem.finish_read_as(self.pending.take().unwrap(), &1);
                }
                6 => {
                    mem.finish_read_as(self.pending.take().unwrap(), &0);
                }
                _ => {
                    mem.finish_read_as(self.pending.take().unwrap(), &0);
                    return StepOutcome::Done;
                }
            }
            StepOutcome::Running
        }
    }

    /// A live monitor as a `halt` closure: it syncs the session with the memory's
    /// operations and halts at the first non-linearizable prefix.
    fn monitor(monitor: &mut IncrementalChecker<i64>) -> impl FnMut(&SharedMem<i64>) -> bool + '_ {
        |mem| {
            monitor.sync_with_ops(mem.operations());
            monitor.verdict_ref().outcome() == Ok(false)
        }
    }

    #[test]
    fn run_until_halts_at_the_first_non_linearizable_prefix() {
        // The first read gets the fresh value and the second a stale one; a third
        // read is dictated but must never run.
        let mem: SharedMem<i64> = SharedMem::new(RegisterMode::Linearizable, 0);
        let mut sched = Scheduler::new(
            mem,
            CoinSource::new(7),
            Box::new(RoundRobinAdversary::new()),
        );
        sched.add_process(
            ProcessId(0),
            Box::new(StaleReader {
                state: 0,
                pending: None,
            }),
        );
        let checker = Checker::new(0i64);
        let mut session = checker.incremental();
        let out = sched.run_until(10_000, monitor(&mut session));
        // Halted at the stale read's response (step 6), before the third read ran.
        assert!(out.halted);
        assert_eq!(out.steps, 6);
        assert!(!out.all_done);
        // The monitor saw exactly the halted history, and batch agrees with it.
        let halted = sched.history();
        assert_eq!(session.history(), &halted);
        assert!(!checker.check(&halted).is_linearizable());
    }

    #[test]
    fn run_until_with_a_clean_monitor_matches_plain_run() {
        let mut plain = build_scheduler(Box::new(RoundRobinAdversary::new()), 3);
        let expected = plain.run(10_000);
        assert!(!expected.halted);
        let mut sched = build_scheduler(Box::new(RoundRobinAdversary::new()), 3);
        let checker = Checker::new(0i64);
        let mut session = checker.incremental();
        let out = sched.run_until(10_000, monitor(&mut session));
        assert_eq!(out, expected);
        assert_eq!(sched.history(), plain.history());
        assert!(session.verdict().is_linearizable());
        // The monitor resumed per-register searches instead of restarting them.
        assert!(session.stats().verdicts > 0);
    }

    #[test]
    fn random_adversary_is_reproducible() {
        let run = |seed| {
            let mut sched = build_scheduler(Box::new(RandomAdversary::new(seed)), 3);
            sched.run(10_000);
            sched.history()
        };
        assert_eq!(run(5), run(5));
        // Different seeds usually give different interleavings; at minimum they must
        // both be linearizable.
        assert!(Checker::new(0i64).check(&run(6)).is_linearizable());
    }

    #[test]
    fn random_interleavings_stay_linearizable_under_atomic_mode() {
        for seed in 0..50 {
            let mut sched = build_scheduler(Box::new(RandomAdversary::new(seed)), 5);
            let outcome = sched.run(10_000);
            assert!(outcome.all_done);
            assert!(
                Checker::new(0i64).check(&sched.history()).is_linearizable(),
                "seed {seed} produced a non-linearizable atomic history"
            );
        }
    }

    #[test]
    fn round_robin_stays_fair_when_a_process_terminates_early() {
        // Regression test for the positional-cursor skew: with `cursor % len` over a
        // shrinking runnable list, p1 terminating after its turn made the adversary
        // jump back to p0 (serving it twice per cycle) while p2 waited. Tracking by
        // ProcessId must continue the rotation at the terminated process's successor.
        let mut adv = RoundRobinAdversary::new();
        let pick = |adv: &mut RoundRobinAdversary, runnable: &[ProcessId]| {
            adv.next_process(&AdversaryView {
                runnable,
                steps: 0,
                now: 0,
                coin_log: &[],
            })
        };
        let all = [ProcessId(0), ProcessId(1), ProcessId(2)];
        assert_eq!(pick(&mut adv, &all), ProcessId(0));
        assert_eq!(pick(&mut adv, &all), ProcessId(1));
        // p1 terminates right after its step. The rotation must continue with p2 —
        // the old cursor implementation picked p0 here and starved p2's turn.
        let survivors = [ProcessId(0), ProcessId(2)];
        assert_eq!(pick(&mut adv, &survivors), ProcessId(2));
        assert_eq!(pick(&mut adv, &survivors), ProcessId(0));
        assert_eq!(pick(&mut adv, &survivors), ProcessId(2));
        assert_eq!(pick(&mut adv, &survivors), ProcessId(0));
    }

    #[test]
    fn round_robin_with_early_finisher_completes_all_processes() {
        /// Terminates after `budget` steps without touching memory.
        #[derive(Debug)]
        struct Spinner {
            budget: u32,
        }
        impl StepProcess<i64> for Spinner {
            fn step(
                &mut self,
                _pid: ProcessId,
                _mem: &mut SharedMem<i64>,
                _coin: &mut CoinSource,
            ) -> StepOutcome {
                self.budget -= 1;
                if self.budget == 0 {
                    StepOutcome::Done
                } else {
                    StepOutcome::Running
                }
            }
        }
        let mem = SharedMem::new(RegisterMode::Atomic, 0i64);
        let coin = CoinSource::new(1);
        let mut sched = Scheduler::new(mem, coin, Box::new(RoundRobinAdversary::new()));
        // p1 finishes after one step; p0 and p2 each need four.
        sched.add_process(ProcessId(0), Box::new(Spinner { budget: 4 }));
        sched.add_process(ProcessId(1), Box::new(Spinner { budget: 1 }));
        sched.add_process(ProcessId(2), Box::new(Spinner { budget: 4 }));
        let outcome = sched.run(100);
        assert!(outcome.all_done);
        // True round-robin: 0,1,2 then 0,2 repeated — exactly 1 + 4 + 4 steps.
        assert_eq!(outcome.steps, 9);
    }

    #[test]
    fn step_budget_is_respected() {
        let mut sched = build_scheduler(Box::new(RoundRobinAdversary::new()), 4);
        let outcome = sched.run(5);
        assert!(!outcome.all_done);
        assert_eq!(outcome.steps, 5);
    }

    #[test]
    fn scheduler_with_no_processes_halts_immediately() {
        let mem = SharedMem::new(RegisterMode::Atomic, 0i64);
        let coin = CoinSource::new(0);
        let mut sched: Scheduler<i64> =
            Scheduler::new(mem, coin, Box::new(RoundRobinAdversary::new()));
        let outcome = sched.run(100);
        assert!(outcome.all_done);
        assert_eq!(outcome.steps, 0);
    }

    #[test]
    fn adversary_view_exposes_coin_log() {
        #[derive(Debug)]
        struct CoinWatcher {
            saw_flip: bool,
        }
        impl Adversary for CoinWatcher {
            fn next_process(&mut self, view: &AdversaryView<'_>) -> ProcessId {
                if !view.coin_log.is_empty() {
                    self.saw_flip = true;
                }
                view.runnable[0]
            }
        }
        #[derive(Debug)]
        struct Flipper {
            flipped: bool,
        }
        impl StepProcess<i64> for Flipper {
            fn step(
                &mut self,
                pid: ProcessId,
                _mem: &mut SharedMem<i64>,
                coin: &mut CoinSource,
            ) -> StepOutcome {
                if !self.flipped {
                    coin.flip(pid);
                    self.flipped = true;
                    StepOutcome::Running
                } else {
                    StepOutcome::Done
                }
            }
        }
        let mem = SharedMem::new(RegisterMode::Atomic, 0i64);
        let coin = CoinSource::new(0);
        let mut sched = Scheduler::new(mem, coin, Box::new(CoinWatcher { saw_flip: false }));
        sched.add_process(ProcessId(0), Box::new(Flipper { flipped: false }));
        sched.run(10);
        assert_eq!(sched.coin().count(), 1);
    }
}
