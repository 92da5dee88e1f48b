//! Experiment E8: ABD in an asynchronous message-passing system (Theorem 14).
//!
//! The ABD implementation of a SWMR register is linearizable and — by Theorem 14, like
//! every linearizable SWMR implementation — write strongly-linearizable. This example
//! drives an ABD cluster through adversarial message schedules and crash failures, then
//! verifies both properties on the recorded histories.
//!
//! Run with: `cargo run --example abd_messaging`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlt_core::mp::AbdCluster;
use rlt_core::spec::strategy::check_write_strong_prefix_property;
use rlt_core::spec::swmr::canonical_swmr_strategy;
use rlt_core::spec::{Checker, ProcessId};

fn main() {
    let n = 5;
    let writer = ProcessId(0);
    let schedules = 25u64;
    let mut linearizable = 0;
    let mut write_strong = 0;

    // One checking session for the whole sweep (reuses search scratch across seeds).
    let checker = Checker::new(0i64);
    for seed in 0..schedules {
        let mut cluster = AbdCluster::new(n, writer);
        let mut rng = StdRng::seed_from_u64(seed);

        // Crash one (minority) process in half the schedules.
        if seed % 2 == 0 {
            cluster.crash(ProcessId(4));
        }

        let mut next_value = 1i64;
        for phase in 0..5 {
            if cluster.is_idle(writer) && phase % 2 == 0 {
                cluster.start_write(next_value);
                next_value += 1;
            }
            for reader in [1usize, 2, 3] {
                if cluster.is_idle(ProcessId(reader)) && rng.gen_bool(0.6) {
                    cluster.start_read(ProcessId(reader));
                }
            }
            // Adversarial partial delivery: only a few messages land before the next
            // operations start.
            for _ in 0..rng.gen_range(4..15) {
                cluster.deliver_random(&mut rng);
            }
        }
        cluster.run_to_quiescence(&mut rng, 100_000);

        let history = cluster.history();
        if checker.check(&history).is_linearizable() {
            linearizable += 1;
        }
        let strategy = canonical_swmr_strategy(0i64);
        if check_write_strong_prefix_property(&strategy, &history, &0).is_ok() {
            write_strong += 1;
        }
    }

    println!("ABD over {n} processes, {schedules} adversarial schedules (half with a crash):");
    println!("  histories linearizable:              {linearizable}/{schedules}");
    println!("  write strong-prefix property holds:  {write_strong}/{schedules}");
    println!();
    println!(
        "Theorem 14: every linearizable SWMR register implementation is write\n\
         strongly-linearizable — both counters above must equal the number of schedules."
    );
    assert_eq!(linearizable, schedules);
    assert_eq!(write_strong, schedules);
}
