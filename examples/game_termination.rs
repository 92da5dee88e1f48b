//! Experiments E1 / E2 / E9: Algorithm 1 under the three register semantics.
//!
//! * Theorem 6: with registers that are only linearizable, the Figure 1/2 strong
//!   adversary keeps every process in the game forever.
//! * Theorem 7 / Corollary 8: with write strongly-linearizable (or atomic) registers the
//!   game ends with probability at least 1/2 per round, so it terminates with
//!   probability 1 and the survival curve is geometric.
//!
//! The example asserts its headline: after 50 rounds every process is still in the
//! game, the linearizable row terminates in no trial while the write-strong and atomic
//! rows terminate in every trial, and the linearizable E[end in round 1] is 0. Every
//! printed number is seeded, so the output is the same on every run.
//!
//! Run with: `cargo run --release --example game_termination`

use rlt_core::game::{compare_modes, expectation_comparison, theorem6_demo, GameConfig};
use rlt_core::sim::RegisterMode;

fn main() {
    let n = 5;

    println!("== Theorem 6: non-termination under merely linearizable registers ==");
    let demo = theorem6_demo(n, 50, 2024);
    let still_in = demo.returned_at.iter().filter(|r| r.is_none()).count();
    let all_survived = demo
        .rounds
        .iter()
        .all(|r| r.players_survived && r.hosts_survived);
    println!(
        "after {} rounds, processes still in the game: {still_in} of {n}",
        demo.rounds_executed
    );
    println!("every round survived regardless of the coin: {all_survived}");
    assert_eq!((demo.rounds_executed, still_in), (50, n));
    assert!(all_survived);

    println!();
    println!("== Corollary 8: the same game under all three register modes ==");
    let config = GameConfig::new(n).with_max_rounds(256);
    let trials = 2_000;
    for (mode, stats) in compare_modes(&config, trials, 7) {
        println!("{stats}");
        let expected = if mode == RegisterMode::Linearizable {
            0.0
        } else {
            1.0
        };
        assert_eq!(stats.terminated_fraction, expected, "{stats}");
    }
    println!();
    println!("== Expected values (Golab et al. motivation, experiment E9) ==");
    let expectation_cfg = GameConfig::new(n).with_max_rounds(64);
    for report in expectation_comparison(&expectation_cfg, 1_000, 11) {
        println!("{report}");
        if report.mode_label == "linearizable" {
            assert_eq!(report.expected_end_in_round_one, 0.0, "{report}");
        }
    }

    println!();
    println!(
        "Shape to compare with the paper: linearizable never terminates; write\n\
         strongly-linearizable and atomic terminate with mean round ≈ 2 and the survival\n\
         probability roughly halving every round (Lemma 19)."
    );
}
