//! Cross-crate integration tests for ABD in message passing and Theorem 14.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlt_core::mp::AbdCluster;
use rlt_core::spec::strategy::check_write_strong_prefix_property;
use rlt_core::spec::swmr::{
    canonical_swmr_strategy, effective_swmr_writes, is_swmr_history, swmr_star,
};
use rlt_core::spec::{Checker, ProcessId};

fn adversarial_run(n: usize, writer: ProcessId, seed: u64, crash: Option<ProcessId>) -> AbdCluster {
    let mut cluster = AbdCluster::new(n, writer);
    let mut rng = StdRng::seed_from_u64(seed);
    if let Some(p) = crash {
        cluster.crash(p);
    }
    let mut next_value = 1i64;
    for phase in 0..6 {
        if cluster.is_idle(writer) && phase % 2 == 0 {
            cluster.start_write(next_value);
            next_value += 1;
        }
        for reader in 0..n {
            let reader = ProcessId(reader);
            if reader != writer
                && !cluster.is_crashed(reader)
                && cluster.is_idle(reader)
                && rng.gen_bool(0.4)
            {
                cluster.start_read(reader);
            }
        }
        for _ in 0..rng.gen_range(3..18) {
            cluster.deliver_random(&mut rng);
        }
    }
    cluster.run_to_quiescence(&mut rng, 200_000);
    cluster
}

#[test]
fn abd_histories_are_swmr_and_linearizable() {
    for seed in 0..10u64 {
        let cluster = adversarial_run(5, ProcessId(0), seed, None);
        let h = cluster.history();
        assert!(is_swmr_history(&h), "seed {seed}");
        assert!(
            Checker::new(0i64).check(&h).is_linearizable(),
            "seed {seed}"
        );
    }
}

#[test]
fn theorem14_abd_is_write_strongly_linearizable() {
    for seed in 0..10u64 {
        let cluster = adversarial_run(5, ProcessId(2), seed, None);
        let h = cluster.history();
        let strategy = canonical_swmr_strategy(0i64);
        check_write_strong_prefix_property(&strategy, &h, &0)
            .unwrap_or_else(|v| panic!("Theorem 14 violated on seed {seed}: {v}"));
    }
}

#[test]
fn theorem14_holds_under_minority_crashes() {
    for seed in 0..6u64 {
        let cluster = adversarial_run(5, ProcessId(0), seed, Some(ProcessId(4)));
        let h = cluster.history();
        assert!(
            Checker::new(0i64).check(&h).is_linearizable(),
            "seed {seed}"
        );
        let strategy = canonical_swmr_strategy(0i64);
        assert!(
            check_write_strong_prefix_property(&strategy, &h, &0).is_ok(),
            "seed {seed}"
        );
    }
}

#[test]
fn f_star_write_sequence_matches_effective_writes() {
    // Appendix E, Claims 67.1/67.2: the writes of f*(H) are exactly the writes that are
    // complete or read by some read, in start-time order.
    for seed in 0..6u64 {
        let cluster = adversarial_run(5, ProcessId(0), seed, None);
        let h = cluster.history();
        let f_output = Checker::new(0i64)
            .check(&h)
            .into_witness()
            .expect("linearizable");
        let starred = swmr_star(f_output, &h);
        let expected = effective_swmr_writes(&h);
        let mut got = starred.write_ids();
        // f* may omit pending writes that were never read; the effective-writes list is
        // exactly the set that must appear. Sort-insensitive comparison of sets first:
        got.sort();
        let mut exp_sorted = expected.clone();
        exp_sorted.sort();
        assert_eq!(got, exp_sorted, "seed {seed}");
        // And the order (by invocation) must agree as well.
        assert_eq!(starred.write_ids(), expected, "seed {seed}");
    }
}

#[test]
fn larger_abd_clusters_stay_linearizable_under_batch_checking() {
    // Bigger clusters (n = 9, up to two crashed replicas) over many more adversarial
    // schedules than the original n = 5 suite, with all the histories checked in one
    // batch call — the workload shape the batch API exists for.
    let mut histories = Vec::new();
    for &(n, crash) in &[(7usize, None), (9, None), (9, Some(ProcessId(8)))] {
        for seed in 0..12u64 {
            let cluster = adversarial_run(n, ProcessId(0), seed * 31 + n as u64, crash);
            let h = cluster.history();
            assert!(is_swmr_history(&h), "n={n} seed={seed}");
            histories.push(h);
        }
    }
    let reports = Checker::builder(0i64)
        .state_budget(u64::MAX)
        .build()
        .check_many(&histories);
    assert_eq!(reports.len(), histories.len());
    for (i, report) in reports.iter().enumerate() {
        assert!(report.is_conclusive(), "history {i}");
        let witness = report
            .witness()
            .unwrap_or_else(|| panic!("ABD produced a non-linearizable history at index {i}"));
        assert!(
            witness.is_linearization_of(&histories[i], &0),
            "witness fails Definition 2 on history {i}"
        );
    }
}

#[test]
fn theorem14_scales_to_nine_replica_clusters() {
    for seed in 0..6u64 {
        let cluster = adversarial_run(9, ProcessId(4), seed, None);
        let h = cluster.history();
        let strategy = canonical_swmr_strategy(0i64);
        check_write_strong_prefix_property(&strategy, &h, &0)
            .unwrap_or_else(|v| panic!("Theorem 14 violated on 9-replica seed {seed}: {v}"));
    }
}

#[test]
fn crashed_majority_leaves_pending_operations_without_breaking_safety() {
    let mut cluster = AbdCluster::new(5, ProcessId(0));
    let mut rng = StdRng::seed_from_u64(9);
    cluster.start_write(1);
    cluster.run_to_quiescence(&mut rng, 10_000);
    cluster.crash(ProcessId(2));
    cluster.crash(ProcessId(3));
    cluster.crash(ProcessId(4));
    cluster.start_read(ProcessId(1));
    cluster.run_to_quiescence(&mut rng, 10_000);
    let h = cluster.history();
    assert_eq!(h.pending().count(), 1); // the read can never finish
    assert!(Checker::new(0i64).check(&h).is_linearizable());
}

// ---------------------------------------------------------------------------
// Adversarial message schedules (experiment E13)
// ---------------------------------------------------------------------------

use rlt_core::mp::adversary::hunt_new_old_inversion;
use rlt_core::mp::minimize::minimize_schedule;
use rlt_core::mp::{
    DeliveryAdversary, FaultyAbdCluster, NewestFirstAdversary, OldestFirstAdversary,
    ReplyWithholdingAdversary, StarveDestinationAdversary, UniformAdversary,
};

#[test]
fn targeted_adversary_beats_uniform_delivery_by_an_order_of_magnitude() {
    // The quantitative claim behind the E13 rows of BENCH_abd.json, on a smaller
    // seed set: on the faulty cluster the reply-withholding adversary reaches a
    // checker-rejected history in >= 10x fewer deliveries (median) than uniform
    // random delivery. Everything here is deterministic per seed.
    let checker = Checker::new(0i64);
    let cap = 1_200u64;
    let seeds = 12u64;
    let median_deliveries = |mk: &dyn Fn(u64) -> Box<dyn DeliveryAdversary>| {
        let mut outcomes: Vec<u64> = (0..seeds)
            .map(|seed| {
                let mut adversary = mk(seed);
                hunt_new_old_inversion(
                    FaultyAbdCluster::new(5, ProcessId(0)).into(),
                    &mut *adversary,
                    seed,
                    cap,
                    &checker,
                )
                .violation_at
                .unwrap_or(cap)
            })
            .collect();
        outcomes.sort_unstable();
        outcomes[outcomes.len() / 2]
    };
    let uniform = median_deliveries(&|seed| Box::new(UniformAdversary::new(seed ^ 0xabcd)));
    let targeted = median_deliveries(&|_| Box::new(ReplyWithholdingAdversary::new()));
    assert!(
        targeted * 10 <= uniform,
        "targeted median {targeted} must be >= 10x under uniform median {uniform}"
    );
    assert!(targeted > 0, "the hunt must actually deliver messages");
}

#[test]
fn minimizer_shrinks_a_failing_schedule_below_25_deliveries() {
    let checker = Checker::new(0i64);
    let fresh = || -> AbdCluster { FaultyAbdCluster::new(5, ProcessId(0)).into() };
    let mut adversary = ReplyWithholdingAdversary::new();
    let report = hunt_new_old_inversion(fresh(), &mut adversary, 0, 1_000, &checker);
    assert!(report.violation_at.is_some(), "hunt must find a violation");
    let not_linearizable =
        |h: &rlt_core::spec::History<i64>| matches!(checker.check(h).outcome(), Ok(false));
    let minimal = minimize_schedule(fresh, &report.schedule, not_linearizable, 0).schedule;
    assert!(
        minimal.delivery_count() <= 25,
        "shrunk schedule still has {} deliveries",
        minimal.delivery_count()
    );
    // The shrunk schedule replays bit-identically to the same rejected verdict.
    let (mut a, mut b) = (fresh(), fresh());
    minimal.replay_on(&mut a);
    minimal.replay_on(&mut b);
    assert_eq!(a.history(), b.history());
    assert!(not_linearizable(&a.history()));
}

#[test]
fn every_adversary_schedule_keeps_real_abd_linearizable() {
    // Theorem 14's flip side on concrete executions: no delivery adversary — not even
    // the one that breaks the faulty cluster in seventeen deliveries — can force a
    // non-linearizable history out of real ABD.
    let checker = Checker::new(0i64);
    let adversaries: Vec<Box<dyn DeliveryAdversary>> = vec![
        Box::new(UniformAdversary::new(5)),
        Box::new(OldestFirstAdversary::new()),
        Box::new(NewestFirstAdversary::new()),
        Box::new(StarveDestinationAdversary::new(ProcessId(3))),
        Box::new(ReplyWithholdingAdversary::new()),
    ];
    for mut adversary in adversaries {
        let report = hunt_new_old_inversion(
            AbdCluster::new(5, ProcessId(0)),
            &mut *adversary,
            2,
            400,
            &checker,
        );
        assert_eq!(report.violation_at, None, "adversary {adversary:?}");
        // And the full recorded run re-checks as linearizable on replay.
        let mut replay = AbdCluster::new(5, ProcessId(0));
        report.schedule.replay_on(&mut replay);
        assert!(checker.check(&replay.history()).is_linearizable());
    }
}

#[test]
fn a_faulty_counterexample_schedule_is_harmless_on_the_correct_cluster() {
    // Replay the exact message schedule that breaks the faulty cluster on real ABD:
    // the first read blocks in its write-back phase (those messages are not in the
    // recorded schedule), so the stale second read can never complete an inversion.
    let checker = Checker::new(0i64);
    let mut adversary = ReplyWithholdingAdversary::new();
    let report = hunt_new_old_inversion(
        FaultyAbdCluster::new(5, ProcessId(0)).into(),
        &mut adversary,
        1,
        1_000,
        &checker,
    );
    assert!(report.violation_at.is_some());
    let mut faulty = FaultyAbdCluster::new(5, ProcessId(0));
    report.schedule.replay_on(&mut faulty);
    assert!(!checker.check(&faulty.history()).is_linearizable());
    let mut correct = AbdCluster::new(5, ProcessId(0));
    report.schedule.replay_on(&mut correct);
    assert!(checker.check(&correct.history()).is_linearizable());
}

#[test]
fn crashing_clients_mid_operation_never_completes_their_ops() {
    // Crash during each phase of a read and during a write, then drive the cluster to
    // quiescence under every deterministic adversary: the crashed op must stay
    // pending and the history linearizable.
    let checker = Checker::new(0i64);
    let mut cluster = AbdCluster::new(5, ProcessId(0));
    let mut rng = StdRng::seed_from_u64(3);
    cluster.start_write(1);
    cluster.run_to_quiescence(&mut rng, 10_000);
    cluster.start_read(ProcessId(1));
    cluster.run_to_quiescence(&mut rng, 3); // partway through the query phase
    cluster.crash(ProcessId(1));
    cluster.start_write(2);
    cluster.run_to_quiescence(&mut rng, 10_000);
    let h = cluster.history();
    assert_eq!(h.pending().count(), 1, "the crashed read stays pending");
    assert!(checker.check(&h).is_linearizable());
    assert_eq!(cluster.inflight_count(), 0, "no stale traffic circulates");
}
