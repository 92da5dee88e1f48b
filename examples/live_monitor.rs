//! Experiment E15: live monitoring with an incremental checker session.
//!
//! A batch `Checker::check` re-derives the whole pipeline — interning, precedence
//! bitsets, per-register searches — on every call; an `IncrementalChecker` session
//! keeps all of it alive across a growing history, so the verdict after event N+1
//! resumes the frontier left by event N. This example attaches such a session to two
//! live runs and halts each at the **first non-linearizable prefix**:
//!
//! 1. the faulty (write-back-free) ABD cluster under the reply-withholding delivery
//!    adversary, re-checked after every single delivery — the monitor catches the
//!    new/old inversion the moment the stale read responds;
//! 2. a shared-memory scheduler run in which a reader is handed a stale value,
//!    through `Scheduler::run_until` with the session as its `halt` closure.
//!
//! Every printed number is deterministic (seeded workload, virtual time, counters),
//! so CI diffs the output across `RLT_THREADS` settings.
//!
//! Run with: `cargo run --release --example live_monitor`

use rlt_core::mp::{
    hunt_with, AbdCluster, FaultPlan, FaultScenario, FaultyAbdCluster, ReplyWithholdingAdversary,
};
use rlt_core::sim::{
    CoinSource, PendingOp, RegisterMode, RoundRobinAdversary, Scheduler, SharedMem, StepOutcome,
    StepProcess,
};
use rlt_core::spec::{Checker, ProcessId, RegisterId};

/// The E13 hunt workload (continuous writes, one uniformly chosen reader at a time)
/// through the one hunt loop, `hunt_with`, with the session as its `reject`
/// closure: the loop consults it after every delivery, the finest granularity the
/// message layer has.
fn monitored_abd_run() {
    let checker = Checker::new(0i64);
    let mut monitor = checker.incremental();
    let report = hunt_with(
        FaultyAbdCluster::new(5, ProcessId(0)).into(),
        &mut ReplyWithholdingAdversary::new(),
        &FaultScenario::new(FaultPlan::clean(), 0),
        0,
        3_000,
        &mut |cluster: &AbdCluster| {
            monitor.sync_with_ops(cluster.operations());
            monitor.verdict_ref().outcome() == Ok(false)
        },
    );
    let at = report
        .violation_at
        .expect("the reply-withholding adversary forces an inversion");
    let history = monitor.history().clone();
    let stats = monitor.stats();
    println!("faulty ABD cluster under reply-withholding delivery (n = 5, seed 0):");
    println!("  halted at the first non-linearizable prefix: delivery {at}");
    println!(
        "  history at the halt: {} operations, verdicts served: {}",
        history.len(),
        stats.verdicts
    );
    println!(
        "  session counters: {} events appended, {} completions, \
         {} registers resumed, {} reused verbatim, {} re-searched",
        stats.ops_appended,
        stats.completions,
        stats.registers_resumed,
        stats.registers_reused,
        stats.registers_researched
    );
    println!(
        "  incremental search states: {} ({:.2} per event) vs {} for one batch check",
        stats.incremental_states,
        stats.amortized_states_per_op(),
        checker.check(&history).stats().states_explored
    );
    // The session's final verdict is bit-identical to a batch check — counters too.
    let incremental = monitor.verdict();
    let batch = checker.check(&history);
    assert_eq!(incremental.as_verdict(), &batch);
    assert!(!batch.is_linearizable());
    println!("  bit-identical to the batch verdict: true");
}

/// One process: write 1, then read three times, dictating what each read returns:
/// the fresh 1, then a stale 0, which the attached monitor catches at that very
/// step, then 0 again.
#[derive(Debug, Default)]
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
            1 => self.pending = Some(mem.begin_write(pid, RegisterId(0), 1)),
            2 => mem.finish_write(self.pending.take().expect("write pending")),
            3 | 5 | 7 => self.pending = Some(mem.begin_read(pid, RegisterId(0))),
            4 => {
                mem.finish_read_as(self.pending.take().expect("read pending"), &1);
            }
            6 => {
                mem.finish_read_as(self.pending.take().expect("read pending"), &0);
            }
            _ => {
                mem.finish_read_as(self.pending.take().expect("read pending"), &0);
                return StepOutcome::Done;
            }
        }
        StepOutcome::Running
    }
}

fn monitored_scheduler_run() {
    let mem: SharedMem<i64> = SharedMem::new(RegisterMode::Linearizable, 0);
    let mut sched = Scheduler::new(
        mem,
        CoinSource::new(7),
        Box::new(RoundRobinAdversary::new()),
    );
    sched.add_process(ProcessId(0), Box::<StaleReader>::default());
    let checker = Checker::new(0i64);
    let mut monitor = checker.incremental();
    let out = sched.run_until(10_000, |mem| {
        monitor.sync_with_ops(mem.operations());
        monitor.verdict_ref().outcome() == Ok(false)
    });
    assert!(out.halted, "the scripted stale read must be caught");
    println!();
    println!("shared-memory scheduler with a scripted stale read:");
    println!(
        "  halted at step {steps} ({steps} of a possible 8 steps run), history: {} operations",
        sched.mem().operations().len(),
        steps = out.steps
    );
    assert!(!out.all_done, "the third read must never run");
    assert_eq!(monitor.history(), &sched.history());
    assert!(!checker.check(&sched.history()).is_linearizable());
    println!("  monitor and batch checker agree the prefix is non-linearizable: true");
}

fn main() {
    monitored_abd_run();
    monitored_scheduler_run();
}
