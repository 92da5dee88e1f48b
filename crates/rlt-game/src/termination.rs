//! Termination statistics: the quantitative content of Theorems 6 and 7.
//!
//! * [`theorem6_demo`] runs the Figure 1/2 adversary against merely linearizable
//!   registers and reports the (non-)termination outcome — the game survives every
//!   round regardless of the coin flips.
//! * [`termination_experiment`] runs many seeded trials against a chosen register mode
//!   and aggregates the termination-round distribution. Under write
//!   strongly-linearizable (or atomic) registers the survival probability halves every
//!   round (Lemma 19), so the mean termination round is ≈ 2 and the survival curve is
//!   geometric; under linearizable registers the survival probability stays at 1.
//! * [`compare_modes`] runs the same experiment for all three modes side by side — the
//!   data behind Corollary 8.

use crate::algorithm1::{run_game, run_trials, GameConfig, GameOutcome};
use rlt_sim::RegisterMode;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Aggregated termination statistics over many trials of the game.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurvivalStats {
    /// The register mode the trials were run against.
    pub mode_label: String,
    /// Number of trials.
    pub trials: u64,
    /// Fraction of trials in which every process returned within the round budget.
    pub terminated_fraction: f64,
    /// Mean termination round among terminating trials (`None` if none terminated).
    pub mean_termination_round: Option<f64>,
    /// Largest observed termination round among terminating trials.
    pub max_termination_round: Option<u64>,
    /// `survival[j]` = fraction of trials still running after round `j + 1`.
    pub survival_by_round: Vec<f64>,
}

impl SurvivalStats {
    /// The empirical probability that the game survives round 1 — the quantity bounded
    /// by 1/2 in Lemma 19 for write strongly-linearizable registers.
    #[must_use]
    pub fn survival_after_first_round(&self) -> f64 {
        self.survival_by_round.first().copied().unwrap_or(0.0)
    }
}

impl fmt::Display for SurvivalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<28} trials={} terminated={:.1}% mean_round={} max_round={}",
            self.mode_label,
            self.trials,
            self.terminated_fraction * 100.0,
            self.mean_termination_round
                .map(|m| format!("{m:.2}"))
                .unwrap_or_else(|| "-".to_string()),
            self.max_termination_round
                .map(|m| m.to_string())
                .unwrap_or_else(|| "-".to_string()),
        )?;
        write!(f, "  survival by round:")?;
        for (j, s) in self.survival_by_round.iter().take(8).enumerate() {
            write!(f, " r{}={:.2}", j + 1, s)?;
        }
        Ok(())
    }
}

/// The three register modes, in the order every comparison table lists them.
pub(crate) const MODES: [RegisterMode; 3] = [
    RegisterMode::Atomic,
    RegisterMode::Linearizable,
    RegisterMode::WriteStrongLinearizable,
];

/// The label a report prints for a register mode.
pub(crate) fn mode_label(mode: RegisterMode) -> &'static str {
    match mode {
        RegisterMode::Atomic => "atomic",
        RegisterMode::Linearizable => "linearizable",
        RegisterMode::WriteStrongLinearizable => "write strongly-linearizable",
    }
}

/// Aggregates the outcomes of many game trials into survival statistics.
#[must_use]
pub fn aggregate(mode: RegisterMode, outcomes: &[GameOutcome], max_rounds: u64) -> SurvivalStats {
    let trials = outcomes.len() as u64;
    let terminated: Vec<u64> = outcomes
        .iter()
        .filter_map(GameOutcome::termination_round)
        .collect();
    let terminated_fraction = terminated.len() as f64 / trials.max(1) as f64;
    let mean_termination_round = if terminated.is_empty() {
        None
    } else {
        Some(terminated.iter().sum::<u64>() as f64 / terminated.len() as f64)
    };
    let max_termination_round = terminated.iter().max().copied();
    let horizon = max_rounds.min(32) as usize;
    let survival_by_round = (1..=horizon)
        .map(|j| {
            outcomes
                .iter()
                .filter(|o| match o.termination_round() {
                    Some(r) => r > j as u64,
                    None => true,
                })
                .count() as f64
                / trials.max(1) as f64
        })
        .collect();
    SurvivalStats {
        mode_label: mode_label(mode).to_string(),
        trials,
        terminated_fraction,
        mean_termination_round,
        max_termination_round,
        survival_by_round,
    }
}

/// Runs `trials` seeded games against the given register mode and aggregates the
/// termination statistics.
#[must_use]
pub fn termination_experiment(
    mode: RegisterMode,
    config: &GameConfig,
    trials: u64,
    seed: u64,
) -> SurvivalStats {
    let outcomes = run_trials(mode, config, trials, seed);
    aggregate(mode, &outcomes, config.max_rounds)
}

/// Runs the Theorem 6 demonstration: the Figure 1/2 adversary against merely
/// linearizable registers for `rounds` rounds. The returned outcome shows every process
/// still in the game.
#[must_use]
pub fn theorem6_demo(n: usize, rounds: u64, seed: u64) -> GameOutcome {
    let config = GameConfig::new(n).with_max_rounds(rounds);
    run_game(RegisterMode::Linearizable, &config, seed)
}

/// Runs the same experiment for all three register modes (the Corollary 8 comparison).
#[must_use]
pub fn compare_modes(
    config: &GameConfig,
    trials: u64,
    seed: u64,
) -> Vec<(RegisterMode, SurvivalStats)> {
    MODES
        .into_iter()
        .map(|mode| (mode, termination_experiment(mode, config, trials, seed)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linearizable_mode_never_terminates() {
        let config = GameConfig::new(4).with_max_rounds(30);
        let stats = termination_experiment(RegisterMode::Linearizable, &config, 20, 1);
        assert_eq!(stats.terminated_fraction, 0.0);
        assert!(stats.mean_termination_round.is_none());
        assert!(stats
            .survival_by_round
            .iter()
            .all(|s| (*s - 1.0).abs() < 1e-9));
    }

    #[test]
    fn wsl_mode_terminates_with_geometric_survival() {
        let config = GameConfig::new(4).with_max_rounds(400);
        let stats = termination_experiment(RegisterMode::WriteStrongLinearizable, &config, 400, 2);
        assert!((stats.terminated_fraction - 1.0).abs() < 1e-9);
        let mean = stats.mean_termination_round.unwrap();
        assert!((1.4..=2.8).contains(&mean), "mean = {mean}");
        // Survival after round 1 should be near 1/2; after round 3 near 1/8.
        assert!(
            (0.35..=0.65).contains(&stats.survival_after_first_round()),
            "survival after round 1 = {}",
            stats.survival_after_first_round()
        );
        assert!(stats.survival_by_round[2] < 0.30);
    }

    #[test]
    fn atomic_mode_matches_wsl_shape() {
        let config = GameConfig::new(4).with_max_rounds(400);
        let stats = termination_experiment(RegisterMode::Atomic, &config, 200, 3);
        assert!((stats.terminated_fraction - 1.0).abs() < 1e-9);
        assert!(stats.mean_termination_round.unwrap() < 3.0);
    }

    #[test]
    fn theorem6_demo_runs_the_requested_rounds() {
        let outcome = theorem6_demo(5, 25, 9);
        assert!(!outcome.all_returned);
        assert_eq!(outcome.rounds_executed, 25);
    }

    #[test]
    fn compare_modes_reports_all_three() {
        let config = GameConfig::new(4).with_max_rounds(50);
        let table = compare_modes(&config, 30, 4);
        assert_eq!(table.len(), 3);
        let lin = table
            .iter()
            .find(|(m, _)| *m == RegisterMode::Linearizable)
            .unwrap();
        let wsl = table
            .iter()
            .find(|(m, _)| *m == RegisterMode::WriteStrongLinearizable)
            .unwrap();
        assert_eq!(lin.1.terminated_fraction, 0.0);
        assert!(wsl.1.terminated_fraction > 0.95);
    }

    #[test]
    fn stats_display_is_informative() {
        let config = GameConfig::new(3).with_max_rounds(60);
        let stats = termination_experiment(RegisterMode::WriteStrongLinearizable, &config, 20, 5);
        let text = stats.to_string();
        assert!(text.contains("write strongly-linearizable"));
        assert!(text.contains("survival by round"));
    }

    #[test]
    fn aggregate_handles_empty_input() {
        let stats = aggregate(RegisterMode::Atomic, &[], 10);
        assert_eq!(stats.trials, 0);
        assert_eq!(stats.terminated_fraction, 0.0);
    }
}
