//! Deterministic concurrency substrate for the register-linearizability experiments.
//!
//! The paper's results are statements about what a *strong adversary* can force in an
//! asynchronous shared-memory system whose registers are atomic, merely linearizable, or
//! write strongly-linearizable. This crate provides the testbed in which those
//! executions are constructed and replayed:
//!
//! * [`SharedMem`] — a collection of *interval registers*: every operation is split into
//!   an explicit `begin_*` and `finish_*` step, so operations genuinely overlap and the
//!   invocation/response history of every run is recorded for later checking with
//!   [`rlt_spec`].
//! * [`RegisterMode`] — the consistency semantics of each register:
//!   [`RegisterMode::Atomic`] (operations take effect at a single internal point),
//!   [`RegisterMode::WriteStrongLinearizable`] (the linearization order of writes is
//!   committed, append-only, no later than each write's completion), and
//!   [`RegisterMode::Linearizable`] (the adversary may pick any written value for a
//!   finishing read; the recorded history is checked for linearizability after the fact,
//!   which is exactly the "off-line" power the paper's Theorem 6 adversary exploits).
//! * [`SharedMem::finish_read_with`] — the one way a read completes: the register mode
//!   builds the admissible [`ReadChoice`]s, the caller's chooser (the adversary) picks
//!   one, and the chosen write is committed. `finish_read` (the last committed write),
//!   `finish_read_as` (a dictated value, which must be admissible) and
//!   `finish_read_preferring` (a dictated value if admissible) are choosers over it.
//! * [`Scheduler`] / [`StepProcess`] / [`Adversary`] — a cooperative step scheduler for
//!   running process state machines under seeded-random or scripted schedules, with one
//!   run loop, [`Scheduler::run_until`], that consults a halting closure (e.g. a live
//!   linearizability monitor) after every step.
//! * [`CoinSource`] — seeded, logged coin flips visible to strong adversaries.
//! * [`Budget`] — a deterministic cost budget (deliveries, clock steps, …) so bounded
//!   exploration loops censor cleanly instead of hanging or depending on wall time.
//! * [`VirtualClock`] — the deterministic discrete-event clock (timer heap with
//!   `(deadline, seq)` tie-breaking and constant-time fast-forward across idle
//!   intervals) that both this scheduler and `rlt-mp`'s fault-injection layer run on.
//!
//! # Example
//!
//! ```
//! use rlt_sim::{RegisterMode, SharedMem};
//! use rlt_spec::prelude::*;
//!
//! let mut mem: SharedMem<Value> = SharedMem::new(RegisterMode::Atomic, Value::Init);
//! let r1 = RegisterId(0);
//! let p0 = ProcessId(0);
//! let w = mem.begin_write(p0, r1, Value::Int(7));
//! mem.finish_write(w);
//! let rd = mem.begin_read(ProcessId(1), r1);
//! assert_eq!(mem.finish_read(rd), Value::Int(7));
//! assert!(Checker::new(Value::Init).check(&mem.history()).is_linearizable());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod budget;
pub mod clock;
pub mod coin;
pub mod mem;
pub mod sched;

pub use budget::Budget;
pub use clock::{TimerId, VirtualClock};
pub use coin::{CoinSource, FlipRecord};
pub use mem::{PendingOp, ReadChoice, RegisterMode, SharedMem};
pub use sched::{
    Adversary, ProcessSlot, RandomAdversary, RoundRobinAdversary, Scheduler, SchedulerOutcome,
    StepOutcome, StepProcess,
};
