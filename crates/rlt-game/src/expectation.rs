//! Expected-value experiments (the Golab-Higham-Woelfel motivation, Section 1).
//!
//! Golab et al. showed that replacing atomic registers with merely linearizable ones
//! can change the *expected value* of quantities a randomized algorithm computes; this
//! paper strengthens that to losing termination outright. This module measures both
//! effects on Algorithm 1 itself:
//!
//! * the indicator random variable "the game ends in round 1" has expectation ≈ 1/2
//!   under atomic or write strongly-linearizable registers, and expectation 0 under
//!   merely linearizable registers (the adversary drives it to the worst case);
//! * the expected number of rounds played is ≈ 2 in the former case and unbounded
//!   (budget-capped) in the latter.

use crate::algorithm1::{run_trials, GameConfig};
use crate::termination::{mode_label, MODES};
use rlt_sim::RegisterMode;
use std::fmt;

/// Empirical expectations measured over many seeded trials of Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectationReport {
    /// Human-readable register mode.
    pub mode_label: String,
    /// Number of trials.
    pub trials: u64,
    /// Empirical expectation of the indicator "the game ended in round 1".
    pub expected_end_in_round_one: f64,
    /// Empirical expectation of the number of rounds executed (budget-capped for
    /// non-terminating runs).
    pub expected_rounds_executed: f64,
    /// The round budget used for the trials.
    pub round_budget: u64,
}

impl fmt::Display for ExpectationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<28} E[end in round 1] = {:.3}   E[rounds executed] = {:.2} (budget {})",
            self.mode_label,
            self.expected_end_in_round_one,
            self.expected_rounds_executed,
            self.round_budget
        )
    }
}

/// Measures the two expectations for the given register mode.
#[must_use]
pub fn expectation_experiment(
    mode: RegisterMode,
    config: &GameConfig,
    trials: u64,
    seed: u64,
) -> ExpectationReport {
    let outcomes = run_trials(mode, config, trials, seed);
    let ended_round_one = outcomes
        .iter()
        .filter(|o| o.termination_round() == Some(1))
        .count() as f64;
    let rounds: f64 = outcomes.iter().map(|o| o.rounds_executed as f64).sum();
    ExpectationReport {
        mode_label: mode_label(mode).to_string(),
        trials,
        expected_end_in_round_one: ended_round_one / trials.max(1) as f64,
        expected_rounds_executed: rounds / trials.max(1) as f64,
        round_budget: config.max_rounds,
    }
}

/// Runs the expectation experiment for all three modes.
#[must_use]
pub fn expectation_comparison(
    config: &GameConfig,
    trials: u64,
    seed: u64,
) -> Vec<ExpectationReport> {
    MODES
        .into_iter()
        .map(|mode| expectation_experiment(mode, config, trials, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_and_wsl_expectations_are_near_half_and_two() {
        let config = GameConfig::new(4).with_max_rounds(200);
        for mode in [RegisterMode::Atomic, RegisterMode::WriteStrongLinearizable] {
            let report = expectation_experiment(mode, &config, 400, 13);
            assert!(
                (0.4..=0.6).contains(&report.expected_end_in_round_one),
                "{report}"
            );
            assert!(
                (1.4..=2.8).contains(&report.expected_rounds_executed),
                "{report}"
            );
        }
    }

    #[test]
    fn linearizable_expectations_collapse_to_the_adversarys_choice() {
        let config = GameConfig::new(4).with_max_rounds(25);
        let report = expectation_experiment(RegisterMode::Linearizable, &config, 50, 13);
        assert_eq!(report.expected_end_in_round_one, 0.0);
        assert!((report.expected_rounds_executed - 25.0).abs() < 1e-9);
    }

    #[test]
    fn comparison_reports_all_three_modes() {
        let config = GameConfig::new(4).with_max_rounds(30);
        let reports = expectation_comparison(&config, 40, 5);
        assert_eq!(reports.len(), 3);
        let lin = reports
            .iter()
            .find(|r| r.mode_label == "linearizable")
            .unwrap();
        let wsl = reports
            .iter()
            .find(|r| r.mode_label == "write strongly-linearizable")
            .unwrap();
        assert!(lin.expected_rounds_executed > wsl.expected_rounds_executed);
        assert!(lin.expected_end_in_round_one < wsl.expected_end_in_round_one);
        assert!(wsl.to_string().contains("E[end in round 1]"));
    }
}
