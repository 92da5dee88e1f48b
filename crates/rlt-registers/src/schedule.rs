//! Random schedule generation for the step simulator.
//!
//! [`random_run`] pushes either construction ([`VectorSim`](crate::VectorSim) or
//! [`LamportSim`](crate::LamportSim)) through the same seeded randomized workload,
//! for the experiment harnesses and property tests.

use crate::mwmr::{Construction, MwmrSim};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlt_spec::ProcessId;

/// Parameters of a random workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadParams {
    /// Number of scheduling decisions to make before draining.
    pub decisions: usize,
    /// Probability that a newly started operation is a write (vs a read).
    pub write_fraction: f64,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            decisions: 60,
            write_fraction: 0.5,
        }
    }
}

/// Drives `sim` through a seeded random workload: at each decision a random process
/// either starts a new operation (if idle) or advances its current one by one step; at
/// the end every pending operation is run to completion.
///
/// Written values are the distinct integers `1, 2, 3, …` so recorded histories can be
/// checked for linearizability without ambiguity.
pub fn random_run<C: Construction>(sim: &mut MwmrSim<C>, seed: u64, params: WorkloadParams) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = sim.process_count();
    let mut next_value = 1i64;
    for _ in 0..params.decisions {
        let p = ProcessId(rng.gen_range(0..n));
        if sim.is_idle(p) {
            if rng.gen_bool(params.write_fraction) {
                sim.start_write(p, next_value);
                next_value += 1;
            } else {
                sim.start_read(p);
            }
        } else {
            sim.step(p);
        }
    }
    sim.run_round_robin(u64::MAX);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LamportSim, VectorSim};
    use rlt_spec::Checker;

    /// One checking session shared by every assertion in this module.
    fn is_linearizable(h: &rlt_spec::History<i64>) -> bool {
        static CHECKER: std::sync::OnceLock<Checker<i64>> = std::sync::OnceLock::new();
        CHECKER
            .get_or_init(|| Checker::new(0i64))
            .check(h)
            .is_linearizable()
    }

    #[test]
    fn random_runs_complete_and_are_linearizable_for_both_sims() {
        for seed in 0..6u64 {
            let mut v = VectorSim::new(3);
            random_run(&mut v, seed, WorkloadParams::default());
            assert!(v.all_idle());
            assert!(is_linearizable(&v.history()));

            let mut l = LamportSim::new(3);
            random_run(&mut l, seed, WorkloadParams::default());
            assert!(l.all_idle());
            assert!(is_linearizable(&l.history()));
        }
    }

    #[test]
    fn workload_parameters_control_mix() {
        let mut sim = VectorSim::new(3);
        random_run(
            &mut sim,
            9,
            WorkloadParams {
                decisions: 40,
                write_fraction: 1.0,
            },
        );
        let h = sim.history();
        assert!(h.reads().count() == 0);
        assert!(h.writes().count() > 0);
    }

    #[test]
    fn same_seed_reproduces_the_same_history() {
        let run = |seed| {
            let mut sim = LamportSim::new(4);
            random_run(&mut sim, seed, WorkloadParams::default());
            sim.history()
        };
        assert_eq!(run(3), run(3));
    }
}
