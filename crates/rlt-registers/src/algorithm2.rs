//! Algorithm 2: a write strongly-linearizable MWMR register built from SWMR registers.
//!
//! A writer forms a *vector* timestamp `new_ts`: it starts at `[∞,…,∞]`, and reading
//! `Val[i]` fixes component `i` to `(Val[i].ts)[i]` — plus one for the writer's own
//! component. [`Vector`] is that [`Construction`]; it runs on the shared step
//! simulator [`crate::mwmr::MwmrSim`], which records for every write the progress of
//! its vector timestamp (which component was set to what value at what time) and the
//! time of its write to `Val[k]` (line 8), and for every read the timestamp of the
//! value it returned.
//!
//! This trace is exactly the information Algorithm 3 (the on-line write
//! strong-linearization function, [`crate::algorithm3`]) consumes.

use crate::mwmr::{self, Construction, MwmrSim, Trace};
use crate::timestamp::{TsEntry, VectorTs};
use rlt_spec::{RegisterId, Time};

/// The register id used for the implemented MWMR register `R` in recorded histories.
pub const MWMR_REGISTER: RegisterId = RegisterId(100);

/// Algorithm 2's timestamps: vector timestamps, filled in one component per read
/// (lines 1–7) and written whole into `Val[k]` (line 8).
#[derive(Debug, Clone)]
pub struct Vector;

impl Construction for Vector {
    type Ts = VectorTs;
    type Acc = VectorTs;
    const REGISTER: RegisterId = MWMR_REGISTER;

    /// Every `Val[i]` starts as `(0, [0,…,0])`.
    fn initial(n: usize, _i: usize) -> VectorTs {
        VectorTs::zero(n)
    }

    /// `new_ts` starts as `[∞,…,∞]` (line 9 resets it there after every write).
    fn start(n: usize) -> VectorTs {
        VectorTs::infinity(n)
    }

    /// Lines 2–6: `new_ts[i] := (Val[i].ts)[i]`, plus one when `i = k`.
    fn observe(new_ts: &mut VectorTs, k: usize, i: usize, ts: &VectorTs) -> Option<u64> {
        let observed = ts
            .get(i)
            .finite()
            .expect("Val[-] always holds complete timestamps");
        let assigned = if i == k { observed + 1 } else { observed };
        new_ts.set(i, TsEntry::Finite(assigned));
        Some(assigned)
    }

    fn stamp(new_ts: &VectorTs, _k: usize) -> VectorTs {
        new_ts.clone()
    }
}

/// Step simulator for Algorithm 2.
pub type VectorSim = MwmrSim<Vector>;
/// The complete trace of a run of Algorithm 2.
pub type VectorTrace = Trace<VectorTs>;
/// Per-write trace of Algorithm 2.
pub type WriteTrace = mwmr::WriteTrace<VectorTs>;
/// What a single step of [`VectorSim`] accomplished.
pub type StepResult = mwmr::StepResult<VectorTs>;

impl WriteTrace {
    /// The value of the writer's `new_ts` variable at time `t` (Definition of `ts^i_w`
    /// in Algorithm 3, line 8): start from `[∞,…,∞]` and apply every component
    /// assignment that happened at or before `t`.
    #[must_use]
    pub fn partial_ts_at(&self, n: usize, t: Time) -> VectorTs {
        let mut ts = VectorTs::infinity(n);
        for &(component, value, when) in &self.ts_progress {
            if when <= t {
                ts.set(component, TsEntry::Finite(value));
            }
        }
        ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlt_spec::{Checker, ProcessId};

    /// One checking session shared by every assertion in this module.
    fn is_linearizable(h: &rlt_spec::History<i64>) -> bool {
        static CHECKER: std::sync::OnceLock<Checker<i64>> = std::sync::OnceLock::new();
        CHECKER
            .get_or_init(|| Checker::new(0i64))
            .check(h)
            .is_linearizable()
    }

    #[test]
    fn sequential_writes_and_reads_behave_like_a_register() {
        let mut sim = VectorSim::new(3);
        sim.start_write(ProcessId(0), 5);
        sim.run_to_completion(ProcessId(0));
        sim.start_read(ProcessId(2));
        let result = sim.run_to_completion(ProcessId(2));
        match result {
            StepResult::CompletedRead(v, ts) => {
                assert_eq!(v, 5);
                assert!(ts.is_complete());
            }
            other => panic!("unexpected result {other:?}"),
        }
        sim.start_write(ProcessId(1), 6);
        sim.run_to_completion(ProcessId(1));
        sim.start_read(ProcessId(2));
        match sim.run_to_completion(ProcessId(2)) {
            StepResult::CompletedRead(v, _) => assert_eq!(v, 6),
            other => panic!("unexpected result {other:?}"),
        }
        assert!(is_linearizable(&sim.history()));
    }

    #[test]
    fn writer_timestamps_respect_causality() {
        // A write that starts after another write completed must get a strictly larger
        // timestamp.
        let mut sim = VectorSim::new(3);
        sim.start_write(ProcessId(0), 1);
        sim.run_to_completion(ProcessId(0));
        let ts1 = sim.val(0).1.clone();
        sim.start_write(ProcessId(1), 2);
        sim.run_to_completion(ProcessId(1));
        let ts2 = sim.val(1).1.clone();
        assert!(ts2 > ts1, "{ts2} should exceed {ts1}");
    }

    #[test]
    fn overlapping_writes_get_distinct_timestamps() {
        let mut sim = VectorSim::new(4);
        sim.start_write(ProcessId(0), 10);
        sim.start_write(ProcessId(1), 20);
        sim.start_write(ProcessId(2), 30);
        sim.run_round_robin(10_000);
        let mut stamps = vec![
            sim.val(0).1.clone(),
            sim.val(1).1.clone(),
            sim.val(2).1.clone(),
        ];
        stamps.sort();
        stamps.dedup();
        assert_eq!(stamps.len(), 3, "timestamps must be pairwise distinct");
    }

    #[test]
    fn reader_returns_maximum_timestamp_value() {
        let mut sim = VectorSim::new(3);
        sim.start_write(ProcessId(0), 7);
        sim.run_to_completion(ProcessId(0));
        sim.start_write(ProcessId(1), 8);
        sim.run_to_completion(ProcessId(1));
        sim.start_read(ProcessId(2));
        match sim.run_to_completion(ProcessId(2)) {
            StepResult::CompletedRead(v, _) => assert_eq!(v, 8),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn interleaved_run_history_is_linearizable() {
        let mut sim = VectorSim::new(4);
        sim.start_write(ProcessId(0), 100);
        sim.start_write(ProcessId(1), 200);
        sim.start_read(ProcessId(2));
        sim.start_read(ProcessId(3));
        // Interleave manually: a couple of steps each, then finish everyone.
        for _ in 0..3 {
            for p in 0..4 {
                sim.step(ProcessId(p));
            }
        }
        sim.run_round_robin(10_000);
        assert!(sim.all_idle());
        let h = sim.history();
        assert_eq!(h.completed().count(), 4);
        assert!(is_linearizable(&h));
    }

    #[test]
    fn trace_records_timestamp_progress() {
        let mut sim = VectorSim::new(3);
        let w = sim.start_write(ProcessId(0), 9);
        sim.step(ProcessId(0)); // sets component 0
        let trace = sim.trace();
        let wt = trace.write_trace(w).unwrap();
        assert_eq!(wt.ts_progress.len(), 1);
        let partial = wt.partial_ts_at(3, sim.now());
        assert_eq!(partial.get(0), TsEntry::Finite(1)); // own component incremented
        assert!(partial.get(1).is_infinity());
        // Finish the write: the trace now has a Val write time and a complete ts.
        sim.run_to_completion(ProcessId(0));
        let trace = sim.trace();
        let wt = trace.write_trace(w).unwrap();
        assert!(wt.val_write_time.is_some());
        assert!(wt.final_ts.as_ref().unwrap().is_complete());
    }

    #[test]
    fn prefix_truncates_traces_consistently() {
        let mut sim = VectorSim::new(3);
        let w = sim.start_write(ProcessId(0), 9);
        sim.step(ProcessId(0));
        let midpoint = sim.now();
        sim.run_to_completion(ProcessId(0));
        let full = sim.trace();
        let prefix = full.prefix_at(midpoint);
        let wt_full = full.write_trace(w).unwrap();
        let wt_prefix = prefix.write_trace(w).unwrap();
        assert!(wt_full.val_write_time.is_some());
        assert!(wt_prefix.val_write_time.is_none());
        assert!(wt_prefix.ts_progress.len() < wt_full.ts_progress.len() + 1);
        assert!(prefix.history.get(w).unwrap().is_pending());
    }

    #[test]
    fn read_of_initial_value_has_zero_timestamp() {
        let mut sim = VectorSim::new(2);
        let r = sim.start_read(ProcessId(1));
        match sim.run_to_completion(ProcessId(1)) {
            StepResult::CompletedRead(v, ts) => {
                assert_eq!(v, 0);
                assert!(ts.is_zero());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(sim.trace().read_ts.contains_key(&r));
    }

    #[test]
    #[should_panic(expected = "already has an operation in progress")]
    fn cannot_start_two_operations_at_once() {
        let mut sim = VectorSim::new(2);
        sim.start_write(ProcessId(0), 1);
        sim.start_read(ProcessId(0));
    }

    #[test]
    fn stepping_an_idle_process_is_a_noop() {
        let mut sim = VectorSim::new(2);
        assert_eq!(sim.step(ProcessId(0)), StepResult::Idle);
    }
}
