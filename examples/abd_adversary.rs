//! Experiment E13: adversarial message schedules with seeded minimization.
//!
//! Uniform random delivery has to get lucky to catch the faulty (write-back-free) ABD
//! cluster misbehaving; a targeted delivery adversary *forces* the new/old inversion
//! in a couple dozen deliveries. This example:
//!
//! 1. hunts for a checker-rejected history under uniform delivery and under the
//!    reply-withholding adversary, comparing deliveries-to-counterexample,
//! 2. shrinks the recorded failing schedule with the seeded delta-debugging
//!    minimizer,
//! 3. replays the shrunk schedule — twice on the faulty cluster (bit-identical, still
//!    rejected) and once on the *correct* cluster (harmless, Theorem 14's point).
//!
//! Run with: `cargo run --example abd_adversary`

use rlt_core::mp::adversary::hunt_new_old_inversion;
use rlt_core::mp::minimize::minimize_schedule;
use rlt_core::mp::{AbdCluster, FaultyAbdCluster, ReplyWithholdingAdversary, UniformAdversary};
use rlt_core::spec::{Checker, ProcessId};

fn main() {
    let checker = Checker::new(0i64);
    let fresh = || -> AbdCluster { FaultyAbdCluster::new(5, ProcessId(0)).into() };
    let cap = 3_000u64;
    let seeds = 10u64;

    // 1. Deliveries until the checker rejects a history, per adversary.
    let mut uniform_outcomes = Vec::new();
    for seed in 0..seeds {
        let mut adversary = UniformAdversary::new(seed ^ 0x5eed);
        let report = hunt_new_old_inversion(fresh(), &mut adversary, seed, cap, &checker);
        uniform_outcomes.push(report.violation_at);
    }
    let mut adversary = ReplyWithholdingAdversary::new();
    let targeted = hunt_new_old_inversion(fresh(), &mut adversary, 0, cap, &checker);
    let targeted_at = targeted
        .violation_at
        .expect("the targeted adversary always finds the inversion");

    let found = uniform_outcomes.iter().filter(|o| o.is_some()).count();
    println!("deliveries to a checker-rejected history (faulty ABD, n = 5):");
    println!(
        "  uniform random:    found {found}/{seeds} within {cap} deliveries: {:?}",
        uniform_outcomes
            .iter()
            .map(|o| o.map_or("cap".to_string(), |d| d.to_string()))
            .collect::<Vec<_>>()
    );
    println!("  reply withholding: found every time, {targeted_at} deliveries");
    println!();

    // 2. Shrink the failing schedule while "not linearizable" keeps holding.
    let not_linearizable =
        |h: &rlt_core::spec::History<i64>| matches!(checker.check(h).outcome(), Ok(false));
    let minimized = minimize_schedule(fresh, &targeted.schedule, not_linearizable, 0);
    println!(
        "minimized: {} steps / {} deliveries  ->  {} steps / {} deliveries ({} replays)",
        targeted.schedule.len(),
        targeted.schedule.delivery_count(),
        minimized.schedule.len(),
        minimized.schedule.delivery_count(),
        minimized.replays_tried,
    );
    // The stable textual form (Display) round-trips through parse.
    for step in &minimized.schedule.steps {
        println!("    {step}");
    }
    let round_tripped: rlt_core::mp::Schedule = minimized
        .schedule
        .to_string()
        .parse()
        .expect("schedule text round-trips");
    assert_eq!(round_tripped, minimized.schedule);
    println!();

    // 3. Replay: deterministic on the faulty cluster, harmless on the correct one.
    let (mut a, mut b) = (fresh(), fresh());
    minimized.schedule.replay_on(&mut a);
    minimized.schedule.replay_on(&mut b);
    assert_eq!(a.history(), b.history(), "replay must be bit-identical");
    assert!(not_linearizable(&a.history()), "still a counterexample");
    println!("replayed twice on the faulty cluster: bit-identical, still rejected");

    let mut correct = AbdCluster::new(5, ProcessId(0));
    minimized.schedule.replay_on(&mut correct);
    assert!(checker.check(&correct.history()).is_linearizable());
    println!("replayed on the correct cluster:      linearizable (the write-back saves it)");
    assert!(
        targeted_at * 10 <= cap,
        "sanity: the targeted hunt is cheap"
    );
}
