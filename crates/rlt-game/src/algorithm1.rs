//! Algorithm 1 under the Figure 1 / Figure 2 strong-adversary schedule.
//!
//! The driver below plays both roles at once, exactly as in the paper's Theorem 6
//! construction: it is the *scheduler* (it decides when each process's next step runs)
//! and, for registers that are not atomic, it is the *linearization adversary* (it
//! dictates, within the bounds allowed by the register mode, which value each read
//! observes). The processes' *code* is Algorithm 1 verbatim: the driver only evaluates
//! the guards of lines 12, 24, and 27 on the values the registers actually returned,
//! so whether anyone exits the game is decided by the registers, not by the driver.
//!
//! The same schedule is used for every [`RegisterMode`]; the paper's dichotomy shows up
//! as the *outcome*: with `Linearizable` registers every dictated read is admissible
//! and the game runs forever, while with `WriteStrongLinearizable` (or `Atomic`)
//! registers the write order is already committed when the coin is revealed, the
//! dictation fails whenever the coin disagrees with it, and the players exit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlt_sim::{CoinSource, RegisterMode, SharedMem};
use rlt_spec::{Checker, ProcessId, RegisterId, Value};

/// The MWMR register `R1` of Algorithm 1.
pub const R1: RegisterId = RegisterId(0);
/// The MWMR register `R2` of Algorithm 1.
pub const R2: RegisterId = RegisterId(1);
/// The MWMR register `C` of Algorithm 1.
pub const C: RegisterId = RegisterId(2);

/// Configuration of a game run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GameConfig {
    /// Number of processes (`n ≥ 3`): hosts `p0`, `p1` and players `p2 … p_{n-1}`.
    pub n: usize,
    /// Maximum number of rounds to simulate before declaring non-termination.
    pub max_rounds: u64,
    /// Use the bounded-register variant of Appendix B (hosts write `i` instead of
    /// `[i, j]` into `R1`).
    pub bounded: bool,
    /// Check the recorded history for linearizability at the end (exponential-time
    /// check: keep runs small when enabling this).
    pub check_linearizability: bool,
}

impl GameConfig {
    /// Creates a configuration with `max_rounds = 64` and checking disabled.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 3, "Algorithm 1 needs at least three processes");
        GameConfig {
            n,
            max_rounds: 64,
            bounded: false,
            check_linearizability: false,
        }
    }

    /// Sets the round budget.
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Switches to the bounded-register variant of Appendix B.
    #[must_use]
    pub fn with_bounded_registers(mut self) -> Self {
        self.bounded = true;
        self
    }

    /// Enables the post-run linearizability check of the recorded history.
    #[must_use]
    pub fn with_linearizability_check(mut self) -> Self {
        self.check_linearizability = true;
        self
    }
}

/// What happened in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundReport {
    /// The round number (1-based).
    pub round: u64,
    /// The coin value `p0` wrote into `C` this round, if the hosts were still playing.
    pub coin: Option<bool>,
    /// Whether every player that entered the round stayed in the game.
    pub players_survived: bool,
    /// Whether the hosts stayed in the game.
    pub hosts_survived: bool,
}

/// Outcome of a game run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GameOutcome {
    /// `true` if every process returned (reached line 16 or 36) within the round budget.
    pub all_returned: bool,
    /// Number of rounds that were actually executed.
    pub rounds_executed: u64,
    /// For each process, the round in which it returned (`None` if it never did).
    pub returned_at: Vec<Option<u64>>,
    /// Per-round reports.
    pub rounds: Vec<RoundReport>,
    /// Result of the optional linearizability check of the recorded history.
    pub history_linearizable: Option<bool>,
    /// Number of operations in the recorded history.
    pub operations_recorded: usize,
}

impl GameOutcome {
    /// The number of rounds after which every process had returned, if the game
    /// terminated.
    #[must_use]
    pub fn termination_round(&self) -> Option<u64> {
        if self.all_returned {
            self.returned_at.iter().flatten().max().copied()
        } else {
            None
        }
    }
}

fn r1_value(bounded: bool, host: i64, round: u64) -> Value {
    if bounded {
        Value::Int(host)
    } else {
        Value::Pair(host, round as i64)
    }
}

/// Runs Algorithm 1 for all `n` processes under the Figure 1/2 schedule with registers
/// of the given mode, using `seed` for `p0`'s coin flips.
///
/// See the module documentation for how the schedule interacts with each register mode.
#[must_use]
pub fn run_game(mode: RegisterMode, config: &GameConfig, seed: u64) -> GameOutcome {
    let n = config.n;
    let mut mem: SharedMem<Value> = SharedMem::new(mode, Value::Init);
    let mut coin = CoinSource::new(seed);

    let p0 = ProcessId(0);
    let p1 = ProcessId(1);
    let players: Vec<ProcessId> = (2..n).map(ProcessId).collect();

    let mut hosts_active = true;
    let mut player_active = vec![true; n];
    let mut returned_at: Vec<Option<u64>> = vec![None; n];
    let mut rounds = Vec::new();
    let mut rounds_executed = 0;

    for round in 1..=config.max_rounds {
        let anyone_active = hosts_active || players.iter().any(|p| player_active[p.0]);
        if !anyone_active {
            break;
        }
        rounds_executed = round;
        let active_players: Vec<ProcessId> = players
            .iter()
            .copied()
            .filter(|p| player_active[p.0])
            .collect();

        // ---------------- Phase 1 ----------------
        // Players reset R1 and C to ⊥ (lines 19–20).
        for &p in &active_players {
            mem.write(p, R1, Value::Bot);
            mem.write(p, C, Value::Bot);
        }

        let mut coin_value: Option<bool> = None;
        let mut survivors: Vec<ProcessId> = Vec::new();

        if hosts_active {
            // Hosts start their writes of [i, j] into R1 (line 3); players start their
            // first read of R1 (line 21). All of these overlap, as in Figure 1.
            let w0 = mem.begin_write(p0, R1, r1_value(config.bounded, 0, round));
            let w1 = mem.begin_write(p1, R1, r1_value(config.bounded, 1, round));
            let mut u1_handles: Vec<(ProcessId, rlt_sim::PendingOp)> = active_players
                .iter()
                .map(|&p| (p, mem.begin_read(p, R1)))
                .collect();

            // p0 completes its write, flips the coin, and publishes it into C
            // (lines 3–7). The coin is only now visible to the adversary.
            mem.finish_write(w0);
            let c = coin.flip(p0);
            coin_value = Some(c);
            mem.write(p0, C, Value::Int(i64::from(c)));

            // The adversary now dictates what the players observe, to the extent the
            // register mode allows: first [c, j] (line 21), then — after p1's write
            // completes — [1-c, j] (line 22).
            let want_first = r1_value(config.bounded, i64::from(c), round);
            let want_second = r1_value(config.bounded, 1 - i64::from(c), round);
            let mut u1: Vec<(ProcessId, Value)> = Vec::new();
            for (p, handle) in u1_handles.drain(..) {
                let v = mem.finish_read_preferring(handle, &want_first);
                u1.push((p, v));
            }
            mem.finish_write(w1);
            let mut u2: Vec<(ProcessId, Value)> = Vec::new();
            for &p in &active_players {
                let handle = mem.begin_read(p, R1);
                let v = mem.finish_read_preferring(handle, &want_second);
                u2.push((p, v));
            }
            // Players read C (line 23).
            let mut c_read: Vec<(ProcessId, Value)> = Vec::new();
            for &p in &active_players {
                let handle = mem.begin_read(p, C);
                let v = mem.finish_read_preferring(handle, &Value::Int(i64::from(c)));
                c_read.push((p, v));
            }

            // Players evaluate the guards of lines 24 and 27 on the values the
            // registers actually returned.
            for (idx, &p) in active_players.iter().enumerate() {
                let u1v = &u1[idx].1;
                let u2v = &u2[idx].1;
                let cv = &c_read[idx].1;
                let exit_line_24 = u1v.is_bot() || u2v.is_bot() || cv.is_bot();
                let exit_line_27 = match cv {
                    Value::Int(ci) => {
                        let expect_first = r1_value(config.bounded, *ci, round);
                        let expect_second = r1_value(config.bounded, 1 - *ci, round);
                        *u1v != expect_first || *u2v != expect_second
                    }
                    _ => true,
                };
                if exit_line_24 || exit_line_27 {
                    player_active[p.0] = false;
                    returned_at[p.0] = Some(round);
                } else {
                    survivors.push(p);
                }
            }
        } else {
            // The hosts have already returned: the players wrote ⊥ into R1 and C, read
            // them back (lines 21–23), find ⊥, and exit in line 25.
            for &p in &active_players {
                let h1 = mem.begin_read(p, R1);
                let _ = mem.finish_read_preferring(h1, &Value::Bot);
                let h2 = mem.begin_read(p, R1);
                let _ = mem.finish_read_preferring(h2, &Value::Bot);
                let hc = mem.begin_read(p, C);
                let _ = mem.finish_read_preferring(hc, &Value::Bot);
                player_active[p.0] = false;
                returned_at[p.0] = Some(round);
            }
        }

        // ---------------- Phase 2 ----------------
        let mut hosts_survived = hosts_active;
        if hosts_active {
            // Hosts reset R2 (line 10).
            mem.write(p0, R2, Value::Int(0));
            mem.write(p1, R2, Value::Int(0));
        }
        // Surviving players reset R2 (line 31) and then read-increment-write it one
        // after the other (lines 32–34), as in Figure 2.
        for &p in &survivors {
            mem.write(p, R2, Value::Int(0));
        }
        let mut count = 0i64;
        for &p in &survivors {
            let handle = mem.begin_read(p, R2);
            let v = mem.finish_read_preferring(handle, &Value::Int(count));
            let observed = v.as_int().unwrap_or(0);
            let next = observed + 1;
            mem.write(p, R2, Value::Int(next));
            count = next;
        }
        if hosts_active {
            // Hosts read R2 into v (line 11) and evaluate the guard of line 12.
            for &host in &[p0, p1] {
                let handle = mem.begin_read(host, R2);
                let v = mem.finish_read_preferring(handle, &Value::Int(count));
                let observed = v.as_int().unwrap_or(0);
                if observed < (n as i64) - 2 {
                    hosts_survived = false;
                }
            }
            if !hosts_survived {
                hosts_active = false;
                returned_at[0] = Some(round);
                returned_at[1] = Some(round);
            }
        }

        rounds.push(RoundReport {
            round,
            coin: coin_value,
            players_survived: survivors.len() == active_players.len() && !active_players.is_empty(),
            hosts_survived,
        });
    }

    let history_linearizable = config.check_linearizability.then(|| {
        Checker::new(Value::Init)
            .check(&mem.history())
            .is_linearizable()
    });

    GameOutcome {
        all_returned: returned_at.iter().all(|r| r.is_some()),
        rounds_executed,
        returned_at,
        rounds,
        history_linearizable,
        operations_recorded: mem.operations().len(),
    }
}

/// Runs the game with a freshly seeded RNG-derived coin per trial and returns each
/// trial's outcome (convenience for the statistics in [`crate::termination`]).
#[must_use]
pub fn run_trials(
    mode: RegisterMode,
    config: &GameConfig,
    trials: u64,
    seed: u64,
) -> Vec<GameOutcome> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..trials)
        .map(|_| run_game(mode, config, rng.gen()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem6_linearizable_registers_never_terminate() {
        for seed in 0..5u64 {
            let cfg = GameConfig::new(5).with_max_rounds(40);
            let outcome = run_game(RegisterMode::Linearizable, &cfg, seed);
            assert!(!outcome.all_returned, "seed {seed}");
            assert_eq!(outcome.rounds_executed, 40);
            assert!(outcome
                .rounds
                .iter()
                .all(|r| r.players_survived && r.hosts_survived));
            assert!(outcome.returned_at.iter().all(|r| r.is_none()));
        }
    }

    #[test]
    fn theorem6_history_is_actually_linearizable() {
        // The adversary is only allowed the power that linearizability grants; verify
        // the recorded history of a short run with the general-purpose checker.
        let cfg = GameConfig::new(4)
            .with_max_rounds(2)
            .with_linearizability_check();
        let outcome = run_game(RegisterMode::Linearizable, &cfg, 3);
        assert_eq!(outcome.history_linearizable, Some(true));
        assert!(!outcome.all_returned);
    }

    #[test]
    fn theorem7_wsl_registers_terminate() {
        for seed in 0..10u64 {
            let cfg = GameConfig::new(5).with_max_rounds(200);
            let outcome = run_game(RegisterMode::WriteStrongLinearizable, &cfg, seed);
            assert!(outcome.all_returned, "seed {seed}: {outcome:?}");
            assert!(outcome.termination_round().is_some());
        }
    }

    #[test]
    fn atomic_registers_terminate_too() {
        for seed in 0..10u64 {
            let cfg = GameConfig::new(4).with_max_rounds(200);
            let outcome = run_game(RegisterMode::Atomic, &cfg, seed);
            assert!(outcome.all_returned, "seed {seed}");
        }
    }

    #[test]
    fn wsl_history_is_linearizable() {
        let cfg = GameConfig::new(4)
            .with_max_rounds(8)
            .with_linearizability_check();
        let outcome = run_game(RegisterMode::WriteStrongLinearizable, &cfg, 7);
        assert_eq!(outcome.history_linearizable, Some(true));
    }

    #[test]
    fn wsl_game_survives_a_round_only_when_the_coin_matches_the_committed_order() {
        // The committed order always puts p0's write first (the schedule completes it
        // first), so the players survive a round exactly when the coin is 0.
        let cfg = GameConfig::new(5).with_max_rounds(300);
        for seed in 0..20u64 {
            let outcome = run_game(RegisterMode::WriteStrongLinearizable, &cfg, seed);
            for report in &outcome.rounds {
                if let Some(c) = report.coin {
                    if report.players_survived {
                        assert!(!c, "players survived a round with coin = 1 (seed {seed})");
                    }
                }
            }
        }
    }

    #[test]
    fn termination_round_distribution_is_roughly_geometric() {
        // Theorem 7's quantitative content: each round ends the game with probability
        // at least 1/2, so the mean termination round over many trials is ≈ 2 and long
        // games are exponentially rare.
        let cfg = GameConfig::new(4).with_max_rounds(500);
        let outcomes = run_trials(RegisterMode::WriteStrongLinearizable, &cfg, 300, 99);
        assert!(outcomes.iter().all(|o| o.all_returned));
        let mean: f64 = outcomes
            .iter()
            .map(|o| o.termination_round().unwrap() as f64)
            .sum::<f64>()
            / outcomes.len() as f64;
        assert!(
            (1.2..=3.0).contains(&mean),
            "mean termination round {mean} outside the expected range"
        );
    }

    #[test]
    fn bounded_variant_behaves_identically() {
        // Appendix B: the bounded-register version has exactly the same behaviour.
        let cfg_unbounded = GameConfig::new(4).with_max_rounds(30);
        let cfg_bounded = GameConfig::new(4)
            .with_max_rounds(30)
            .with_bounded_registers();
        for seed in 0..5u64 {
            let a = run_game(RegisterMode::Linearizable, &cfg_unbounded, seed);
            let b = run_game(RegisterMode::Linearizable, &cfg_bounded, seed);
            assert_eq!(a.all_returned, b.all_returned, "seed {seed}");
            let c = run_game(RegisterMode::WriteStrongLinearizable, &cfg_unbounded, seed);
            let d = run_game(RegisterMode::WriteStrongLinearizable, &cfg_bounded, seed);
            assert_eq!(c.termination_round(), d.termination_round(), "seed {seed}");
        }
    }

    #[test]
    fn players_that_exit_first_drag_the_hosts_out_in_the_same_round() {
        let cfg = GameConfig::new(6).with_max_rounds(100);
        for seed in 0..10u64 {
            let outcome = run_game(RegisterMode::WriteStrongLinearizable, &cfg, seed);
            assert!(outcome.all_returned, "seed {seed}");
            // Hosts return in the round the players first failed; the remaining players
            // (if any survived that round — they all fail together under this schedule)
            // return no later than one round after the hosts.
            let host_round = outcome.returned_at[0].unwrap();
            assert_eq!(outcome.returned_at[1], Some(host_round));
            for p in 2..6 {
                let pr = outcome.returned_at[p].unwrap();
                assert!(
                    pr <= host_round + 1,
                    "seed {seed}: player {p} at {pr}, hosts at {host_round}"
                );
            }
        }
    }

    #[test]
    fn outcome_bookkeeping_is_consistent() {
        let cfg = GameConfig::new(4).with_max_rounds(50);
        let outcome = run_game(RegisterMode::Atomic, &cfg, 5);
        assert_eq!(outcome.returned_at.len(), 4);
        assert!(outcome.operations_recorded > 0);
        assert_eq!(outcome.rounds.len() as u64, outcome.rounds_executed);
        if outcome.all_returned {
            assert!(outcome.termination_round().unwrap() <= outcome.rounds_executed + 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least three processes")]
    fn config_rejects_tiny_games() {
        let _ = GameConfig::new(2);
    }
}
