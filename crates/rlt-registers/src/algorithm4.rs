//! Algorithm 4: the Lamport-clock MWMR register built from SWMR registers.
//!
//! Each value is timestamped with `⟨sq, pid⟩`: a writer reads every `Val[i]`, takes the
//! maximum sequence number it saw plus one, and writes `(v, ⟨new_sq, k⟩)` into its own
//! `Val[k]`; readers return the value with the lexicographically largest timestamp.
//! [`Lamport`] is that [`Construction`], run on the shared step simulator
//! [`crate::mwmr::MwmrSim`].
//!
//! The implementation is linearizable (Theorem 12) but **not** write
//! strongly-linearizable (Theorem 13): the Lamport clocks do not carry enough
//! information to fix the order of concurrent writes at the moment one of them
//! completes. The simulator records full traces so that [`crate::counterexample`] can
//! replay the exact executions of Figure 4.

use crate::mwmr::{self, Construction, MwmrSim, Trace};
use crate::timestamp::LamportTs;
use rlt_spec::RegisterId;

/// The register id used for the implemented MWMR register `R` in recorded histories.
pub const MWMR_REGISTER: RegisterId = RegisterId(200);

/// Algorithm 4's timestamps: Lamport clocks `⟨max sq + 1, k⟩` (lines 1–6).
#[derive(Debug, Clone)]
pub struct Lamport;

impl Construction for Lamport {
    type Ts = LamportTs;
    /// The largest sequence number read so far.
    type Acc = u64;
    const REGISTER: RegisterId = MWMR_REGISTER;

    /// `Val[i]` starts as `(0, ⟨0, i⟩)`.
    fn initial(_n: usize, i: usize) -> LamportTs {
        LamportTs::new(0, i)
    }

    fn start(_n: usize) -> u64 {
        0
    }

    /// Lines 1–3: keep the largest `Val[i].ts.sq` read.
    fn observe(max_sq: &mut u64, _k: usize, _i: usize, ts: &LamportTs) -> Option<u64> {
        *max_sq = (*max_sq).max(ts.sq);
        None
    }

    /// Lines 4–5: `new_sq = max + 1`, stamped with the writer's id.
    fn stamp(max_sq: &u64, k: usize) -> LamportTs {
        LamportTs::new(max_sq + 1, k)
    }
}

/// Step simulator for Algorithm 4.
pub type LamportSim = MwmrSim<Lamport>;
/// The complete trace of a run of Algorithm 4.
pub type LamportTrace = Trace<LamportTs>;
/// What a single step of [`LamportSim`] accomplished.
pub type StepResult = mwmr::StepResult<LamportTs>;

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
    fn sequential_behaviour_matches_a_register() {
        let mut sim = LamportSim::new(3);
        sim.start_write(ProcessId(0), 5);
        sim.run_to_completion(ProcessId(0));
        sim.start_read(ProcessId(2));
        match sim.run_to_completion(ProcessId(2)) {
            StepResult::CompletedRead(v, ts) => {
                assert_eq!(v, 5);
                assert_eq!(ts, LamportTs::new(1, 0));
            }
            other => panic!("unexpected {other:?}"),
        }
        sim.start_write(ProcessId(1), 7);
        sim.run_to_completion(ProcessId(1));
        sim.start_read(ProcessId(2));
        match sim.run_to_completion(ProcessId(2)) {
            StepResult::CompletedRead(v, ts) => {
                assert_eq!(v, 7);
                assert_eq!(ts, LamportTs::new(2, 1));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(is_linearizable(&sim.history()));
    }

    #[test]
    fn lamport_clocks_respect_causal_order_of_writes() {
        // Lemma 50: a write that starts after another writes Val[-] gets a strictly
        // larger timestamp.
        let mut sim = LamportSim::new(3);
        sim.start_write(ProcessId(0), 1);
        sim.run_to_completion(ProcessId(0));
        let ts1 = sim.val(0).1;
        sim.start_write(ProcessId(2), 2);
        sim.run_to_completion(ProcessId(2));
        let ts2 = sim.val(2).1;
        assert!(ts2 > ts1);
    }

    #[test]
    fn concurrent_writes_may_share_sequence_numbers_but_not_timestamps() {
        let mut sim = LamportSim::new(3);
        sim.start_write(ProcessId(0), 1);
        sim.start_write(ProcessId(1), 2);
        sim.run_round_robin(10_000);
        let ts0 = sim.val(0).1;
        let ts1 = sim.val(1).1;
        assert_eq!(ts0.sq, 1);
        assert_eq!(ts1.sq, 1);
        assert_ne!(ts0, ts1); // pid breaks the tie (Observation 51)
    }

    #[test]
    fn random_interleavings_are_linearizable() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..15u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..5);
            let mut sim = LamportSim::new(n);
            let mut next_value = 1i64;
            for _ in 0..40 {
                let p = ProcessId(rng.gen_range(0..n));
                if sim.is_idle(p) {
                    if rng.gen_bool(0.5) {
                        sim.start_write(p, next_value);
                        next_value += 1;
                    } else {
                        sim.start_read(p);
                    }
                } else {
                    sim.step(p);
                }
            }
            sim.run_round_robin(100_000);
            assert!(
                is_linearizable(&sim.history()),
                "Theorem 12 violated on seed {seed}"
            );
        }
    }

    #[test]
    fn trace_prefix_truncates_val_write_times() {
        let mut sim = LamportSim::new(2);
        let w = sim.start_write(ProcessId(0), 3);
        sim.step(ProcessId(0)); // read Val[0]
        let midpoint = sim.now();
        sim.run_to_completion(ProcessId(0));
        let full = sim.trace();
        let prefix = full.prefix_at(midpoint);
        assert!(full
            .writes
            .iter()
            .find(|x| x.op == w)
            .unwrap()
            .val_write_time
            .is_some());
        assert!(prefix
            .writes
            .iter()
            .find(|x| x.op == w)
            .unwrap()
            .val_write_time
            .is_none());
    }

    #[test]
    fn reader_prefers_higher_pid_on_equal_sequence_numbers() {
        let mut sim = LamportSim::new(3);
        sim.start_write(ProcessId(0), 1);
        sim.start_write(ProcessId(1), 2);
        sim.run_round_robin(10_000);
        sim.start_read(ProcessId(2));
        match sim.run_to_completion(ProcessId(2)) {
            StepResult::CompletedRead(v, ts) => {
                // Both writes carry sq = 1; the lexicographic max has pid 1.
                assert_eq!(ts, LamportTs::new(1, 1));
                assert_eq!(v, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "already has an operation in progress")]
    fn one_operation_at_a_time_per_process() {
        let mut sim = LamportSim::new(2);
        sim.start_read(ProcessId(0));
        sim.start_write(ProcessId(0), 1);
    }
}
