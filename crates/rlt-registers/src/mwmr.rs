//! The MWMR register of Algorithms 2 and 4, built from SWMR registers `Val[1..n]`,
//! as one fine-grained step simulator generic over its [`Construction`].
//!
//! Both algorithms run the same protocol. Writer `k` reads every `Val[i]`, folding
//! each timestamp it reads into the one it is forming, writes `(v, ts)` into its
//! own `Val[k]`, and returns; a reader reads every `Val[i]` and returns the value
//! with the lexicographically greatest timestamp. They differ only in how the
//! writer forms `ts` — a vector timestamp filled in one component per read
//! ([`Vector`](crate::algorithm2::Vector), Algorithm 2) or the Lamport clock
//! `⟨max sq + 1, k⟩` ([`Lamport`](crate::algorithm4::Lamport), Algorithm 4) — and
//! that difference is all a [`Construction`] holds.
//!
//! Every access to `Val[-]` is a separate, atomic, timestamped step, and the caller
//! decides which process moves next, so high-level operations genuinely overlap, as
//! in the paper's model. [`MwmrSim`] records the MWMR-level history, the timestamp
//! each completed read returned, and for every write the progress of its timestamp
//! and the time it wrote `Val[k]`: the [`Trace`] Algorithm 3
//! ([`crate::algorithm3`]) and the Theorem 13 replay ([`crate::counterexample`])
//! consume.

use rlt_spec::{History, OpId, OpKind, Operation, ProcessId, RegisterId, Time};
use std::collections::BTreeMap;
use std::fmt;

/// How a writer forms the timestamp it writes — the one thing that differs
/// between Algorithm 2 and Algorithm 4.
pub trait Construction {
    /// The timestamp paired with every value in `Val[-]`, compared
    /// lexicographically by readers.
    type Ts: Clone + Ord + fmt::Debug + fmt::Display;
    /// The writer's local state while it reads `Val[-]`.
    type Acc: Clone + fmt::Debug;
    /// The register id of the implemented register in simulated histories.
    const REGISTER: RegisterId;

    /// The timestamp `Val[i]` holds, beside the value `0`, before any write.
    fn initial(n: usize, i: usize) -> Self::Ts;
    /// The state of a writer that has read nothing yet.
    fn start(n: usize) -> Self::Acc;
    /// Folds `ts`, read from `Val[i]` by writer `k`, into `acc`. Returns the
    /// component the writer fixed, for constructions that record the progress of
    /// their timestamp ([`WriteTrace::ts_progress`]).
    fn observe(acc: &mut Self::Acc, k: usize, i: usize, ts: &Self::Ts) -> Option<u64>;
    /// The timestamp writer `k` writes into `Val[k]` once it has read every `Val[i]`.
    fn stamp(acc: &Self::Acc, k: usize) -> Self::Ts;
}

/// The reader's choice (line 14 of Algorithm 2, line 11 of Algorithm 4), one
/// `Val[i]` at a time: keeps the greatest timestamp read so far, and of two equal
/// ones the later.
pub(crate) fn keep_newest<Ts: Ord>(best: &mut Option<(i64, Ts)>, read: (i64, Ts)) {
    if best.as_ref().is_none_or(|(_, ts)| read.1 >= *ts) {
        *best = Some(read);
    }
}

/// Per-write trace: how the timestamp was formed and when `Val[k]` was written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteTrace<Ts> {
    /// The MWMR-level operation id of the write.
    pub op: OpId,
    /// The writing process.
    pub process: ProcessId,
    /// The value written to the implemented register.
    pub value: i64,
    /// `(component, value, time)` entries: `new_ts[component] := value` at `time`.
    /// Algorithm 4 forms no vector, so its writes record none.
    pub ts_progress: Vec<(usize, u64, Time)>,
    /// The time of the write to `Val[k]`, if it happened.
    pub val_write_time: Option<Time>,
    /// The timestamp written to `Val[k]`, if that write happened.
    pub final_ts: Option<Ts>,
}

/// The complete trace of a run.
#[derive(Debug, Clone)]
pub struct Trace<Ts> {
    /// Number of processes (and of SWMR registers `Val[-]`).
    pub n: usize,
    /// The MWMR-level concurrent history of the run.
    pub history: History<i64>,
    /// The timestamp attached to each completed read's return value.
    pub read_ts: BTreeMap<OpId, Ts>,
    /// The per-write traces, in operation-id order.
    pub writes: Vec<WriteTrace<Ts>>,
}

impl<Ts: Clone> Trace<Ts> {
    /// Restricts the trace to the events at times `<= t` (the prefix `G` of the run).
    #[must_use]
    pub fn prefix_at(&self, t: Time) -> Trace<Ts> {
        let history = self.history.prefix_at(t);
        let read_ts = self
            .read_ts
            .iter()
            .filter(|(op, _)| history.get(**op).is_some_and(Operation::is_complete))
            .map(|(op, ts)| (*op, ts.clone()))
            .collect();
        let writes = self
            .writes
            .iter()
            .filter(|w| history.get(w.op).is_some())
            .map(|w| {
                let val_write_time = w.val_write_time.filter(|&when| when <= t);
                WriteTrace {
                    ts_progress: w
                        .ts_progress
                        .iter()
                        .copied()
                        .filter(|&(_, _, when)| when <= t)
                        .collect(),
                    val_write_time,
                    final_ts: val_write_time.and(w.final_ts.clone()),
                    ..*w
                }
            })
            .collect();
        Trace {
            n: self.n,
            history,
            read_ts,
            writes,
        }
    }

    /// Looks up the trace of a specific write operation.
    #[must_use]
    pub fn write_trace(&self, op: OpId) -> Option<&WriteTrace<Ts>> {
        self.writes.iter().find(|w| w.op == op)
    }
}

/// What a single step of the simulator accomplished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepResult<Ts> {
    /// The process had no operation in progress.
    Idle,
    /// The process read one `Val[i]`.
    Progressed,
    /// The process wrote `Val[k]`.
    WroteVal,
    /// The process completed its MWMR write.
    CompletedWrite,
    /// The process completed its MWMR read, returning `(value, timestamp)`.
    CompletedRead(i64, Ts),
}

#[derive(Debug, Clone)]
enum ProcState<Acc, Ts> {
    Idle,
    Writing {
        op: OpId,
        value: i64,
        acc: Acc,
        next: usize,
        wrote_val: bool,
    },
    Reading {
        op: OpId,
        next: usize,
        best: Option<(i64, Ts)>,
    },
}

/// Step simulator of the MWMR register over `n` processes.
#[derive(Debug, Clone)]
pub struct MwmrSim<C: Construction> {
    n: usize,
    vals: Vec<(i64, C::Ts)>,
    now: u64,
    ops: Vec<Operation<i64>>,
    read_ts: BTreeMap<OpId, C::Ts>,
    write_traces: BTreeMap<OpId, WriteTrace<C::Ts>>,
    procs: Vec<ProcState<C::Acc, C::Ts>>,
}

impl<C: Construction> MwmrSim<C> {
    /// Creates a simulator for `n >= 2` processes; the implemented register holds `0`
    /// initially, and so does every `Val[i]`, with timestamp [`Construction::initial`].
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "an MWMR register needs at least two processes");
        MwmrSim {
            n,
            vals: (0..n).map(|i| (0, C::initial(n, i))).collect(),
            now: 0,
            ops: Vec::new(),
            read_ts: BTreeMap::new(),
            write_traces: BTreeMap::new(),
            procs: vec![ProcState::Idle; n],
        }
    }

    /// Number of processes.
    #[must_use]
    pub fn process_count(&self) -> usize {
        self.n
    }

    /// Returns `true` if the process has no operation in progress.
    #[must_use]
    pub fn is_idle(&self, p: ProcessId) -> bool {
        matches!(self.procs[p.0], ProcState::Idle)
    }

    /// Returns `true` if every process is idle.
    #[must_use]
    pub fn all_idle(&self) -> bool {
        self.procs.iter().all(|s| matches!(s, ProcState::Idle))
    }

    fn tick(&mut self) -> Time {
        self.now += 1;
        Time(self.now)
    }

    /// Records the invocation of `kind` by `p`; op ids count up from 0, so an op's
    /// id is its index in `ops`.
    fn invoke(&mut self, p: ProcessId, kind: OpKind<i64>) -> OpId {
        assert!(p.0 < self.n, "process {p} out of range");
        assert!(
            self.is_idle(p),
            "process {p} already has an operation in progress"
        );
        let op = OpId(self.ops.len() as u64);
        let invoked_at = self.tick();
        self.ops.push(Operation {
            id: op,
            process: p,
            register: C::REGISTER,
            kind,
            invoked_at,
            responded_at: None,
        });
        op
    }

    /// Invokes a write of `value` by process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` already has an operation in progress or is out of range.
    pub fn start_write(&mut self, p: ProcessId, value: i64) -> OpId {
        let op = self.invoke(p, OpKind::Write(value));
        self.write_traces.insert(
            op,
            WriteTrace {
                op,
                process: p,
                value,
                ts_progress: Vec::new(),
                val_write_time: None,
                final_ts: None,
            },
        );
        self.procs[p.0] = ProcState::Writing {
            op,
            value,
            acc: C::start(self.n),
            next: 0,
            wrote_val: false,
        };
        op
    }

    /// Invokes a read by process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` already has an operation in progress or is out of range.
    pub fn start_read(&mut self, p: ProcessId) -> OpId {
        let op = self.invoke(p, OpKind::Read(None));
        self.procs[p.0] = ProcState::Reading {
            op,
            next: 0,
            best: None,
        };
        op
    }

    /// Executes one atomic step of process `p`: one access to `Val[-]`, or the
    /// return of its operation. Every step but an idle one takes one tick.
    pub fn step(&mut self, p: ProcessId) -> StepResult<C::Ts> {
        if self.is_idle(p) {
            return StepResult::Idle;
        }
        let t = self.tick();
        let n = self.n;
        let (op, result) = match &mut self.procs[p.0] {
            ProcState::Idle => unreachable!("checked above"),
            ProcState::Writing { op, acc, next, .. } if *next < n => {
                // Read Val[i] and fold its timestamp in (Algorithm 2 lines 1–7,
                // Algorithm 4 lines 1–3).
                let i = *next;
                *next += 1;
                if let Some(assigned) = C::observe(acc, p.0, i, &self.vals[i].1) {
                    let trace = self.write_traces.get_mut(op).expect("trace exists");
                    trace.ts_progress.push((i, assigned, t));
                }
                return StepResult::Progressed;
            }
            ProcState::Writing {
                op,
                value,
                acc,
                wrote_val,
                ..
            } if !*wrote_val => {
                // Write (v, ts) into Val[k] (Algorithm 2 line 8, Algorithm 4 lines 4–6).
                *wrote_val = true;
                let ts = C::stamp(acc, p.0);
                self.vals[p.0] = (*value, ts.clone());
                let trace = self.write_traces.get_mut(op).expect("trace exists");
                trace.val_write_time = Some(t);
                trace.final_ts = Some(ts);
                return StepResult::WroteVal;
            }
            // Return (Algorithm 2 lines 9–10, Algorithm 4 line 7); the next write
            // starts from a fresh `Construction::start`.
            ProcState::Writing { op, .. } => (*op, StepResult::CompletedWrite),
            ProcState::Reading { next, best, .. } if *next < n => {
                // Read Val[i] (Algorithm 2 lines 11–13, Algorithm 4 lines 8–10).
                keep_newest(best, self.vals[*next].clone());
                *next += 1;
                return StepResult::Progressed;
            }
            ProcState::Reading { op, best, .. } => {
                // Return the value with the greatest timestamp (Algorithm 2 lines
                // 14–15, Algorithm 4 lines 11–12).
                let (value, ts) = best.take().expect("read n >= 2 values");
                self.ops[op.0 as usize].kind = OpKind::Read(Some(value));
                self.read_ts.insert(*op, ts.clone());
                (*op, StepResult::CompletedRead(value, ts))
            }
        };
        self.ops[op.0 as usize].responded_at = Some(t);
        self.procs[p.0] = ProcState::Idle;
        result
    }

    /// Steps every non-idle process in round-robin order until all are idle or the step
    /// budget runs out. Returns the number of steps taken.
    pub fn run_round_robin(&mut self, max_steps: u64) -> u64 {
        let mut steps = 0;
        while steps < max_steps && !self.all_idle() {
            for i in 0..self.n {
                if !self.is_idle(ProcessId(i)) {
                    self.step(ProcessId(i));
                    steps += 1;
                    if steps >= max_steps {
                        break;
                    }
                }
            }
        }
        steps
    }

    /// Steps process `p` until its current operation (if any) completes.
    pub fn run_to_completion(&mut self, p: ProcessId) -> StepResult<C::Ts> {
        let mut last = StepResult::Idle;
        while !self.is_idle(p) {
            last = self.step(p);
        }
        last
    }

    /// The current logical time.
    #[must_use]
    pub fn now(&self) -> Time {
        Time(self.now)
    }

    /// The MWMR-level history recorded so far.
    #[must_use]
    pub fn history(&self) -> History<i64> {
        History::from_operations(self.ops.clone())
    }

    /// The full trace (history + timestamp progress) recorded so far.
    #[must_use]
    pub fn trace(&self) -> Trace<C::Ts> {
        Trace {
            n: self.n,
            history: self.history(),
            read_ts: self.read_ts.clone(),
            writes: self.write_traces.values().cloned().collect(),
        }
    }

    /// Direct view of the current contents of `Val[i]` (for tests and diagnostics).
    #[must_use]
    pub fn val(&self, i: usize) -> (i64, C::Ts) {
        self.vals[i].clone()
    }
}
