//! Integration tests for the virtual-time fault-injection core (experiment E14):
//! partitions, loss, duplication, delays, crash-recovery, and timeout-driven retry,
//! all recorded as first-class schedule steps that replay bit-identically.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rlt_core::mp::adversary::ReplyWithholdingAdversary;
use rlt_core::mp::minimize::minimize_schedule;
use rlt_core::mp::{
    hunt_with_faults, AbdCluster, FaultPlan, FaultScenario, FaultyAbdCluster, LinkFaults,
    Partition, RetryPolicy, Schedule, ScheduleStep, UniformAdversary,
};
use rlt_core::spec::{Checker, ProcessId};

const N: usize = 5;
const WRITER: ProcessId = ProcessId(0);

fn checker() -> Checker<i64> {
    Checker::new(0i64)
}

/// The canonical E14 failure scenario: 20% loss everywhere, a partition window
/// cutting `{0, 1}` (the writer's side) off from the majority `{2, 3, 4}`, healed a
/// few deliveries later.
fn lossy_partition_scenario() -> FaultScenario {
    FaultScenario::new(FaultPlan::lossy(0.2), 0xfa01).with_partition_window(
        6,
        12,
        Partition::new(1, "writer-side-cut", [ProcessId(0), ProcessId(1)]),
    )
}

fn has_step(schedule: &Schedule, pred: impl Fn(&ScheduleStep) -> bool) -> bool {
    schedule.steps.iter().any(pred)
}

/// The headline acceptance run: a seeded lossy-partition hunt on the faulty cluster
/// (retries enabled) that ends in a checker-rejected history and whose schedule
/// contains drop, partition, and timer (advance) steps. Returns `(seed, schedule)`.
fn acceptance_hunt() -> (u64, Schedule) {
    let checker = checker();
    let scenario = lossy_partition_scenario();
    for seed in 0..64u64 {
        let mut adversary = ReplyWithholdingAdversary::new();
        let report = hunt_with_faults(
            FaultyAbdCluster::new(N, WRITER)
                .with_retries(RetryPolicy::default())
                .into(),
            &mut adversary,
            &scenario,
            seed,
            600,
            &checker,
        );
        if report.violation_at.is_none() {
            continue;
        }
        let s = &report.schedule;
        if has_step(s, |x| matches!(x, ScheduleStep::Drop(_)))
            && has_step(s, |x| matches!(x, ScheduleStep::Partition { .. }))
            && has_step(s, |x| matches!(x, ScheduleStep::Heal(_)))
            && has_step(s, |x| matches!(x, ScheduleStep::Advance))
        {
            return (seed, report.schedule);
        }
    }
    panic!("no seed in 0..64 produced a violation with drop+partition+heal+advance steps");
}

#[test]
fn lossy_partition_hunt_finds_replayable_minimizable_inversion() {
    let checker = checker();
    let (_seed, schedule) = acceptance_hunt();

    // The recorded schedule replays bit-identically: same history, twice.
    let mut a = FaultyAbdCluster::new(N, WRITER).with_retries(RetryPolicy::default());
    let mut b = FaultyAbdCluster::new(N, WRITER).with_retries(RetryPolicy::default());
    schedule.replay_on(&mut a);
    schedule.replay_on(&mut b);
    assert_eq!(
        a.history(),
        b.history(),
        "fault replay must be deterministic"
    );
    assert!(
        matches!(checker.check(&a.history()).outcome(), Ok(false)),
        "the replayed history is still rejected"
    );

    // ddmin shrinks it — fault steps are first-class, so the minimizer needs no
    // special cases — and the shrunk schedule still replays to a rejected history
    // exhibiting the new/old inversion (a read of the new value before a read of an
    // older one).
    let minimized = minimize_schedule(
        || {
            FaultyAbdCluster::new(N, WRITER)
                .with_retries(RetryPolicy::default())
                .into()
        },
        &schedule,
        |h| matches!(checker.check(h).outcome(), Ok(false)),
        0,
    );
    assert!(minimized.schedule.len() <= schedule.len());
    let mut shrunk = FaultyAbdCluster::new(N, WRITER).with_retries(RetryPolicy::default());
    minimized.schedule.replay_on(&mut shrunk);
    let h = shrunk.history();
    assert!(matches!(checker.check(&h).outcome(), Ok(false)));
    let reads: Vec<i64> = h.reads().filter_map(|r| r.read_value().copied()).collect();
    let inverted = reads
        .iter()
        .zip(reads.iter().skip(1))
        .any(|(first, later)| first > later);
    assert!(
        inverted,
        "minimized counterexample must be a new/old inversion, got reads {reads:?}"
    );
}

#[test]
fn acceptance_schedule_is_harmless_on_correct_abd_with_retries() {
    let checker = checker();
    let (_seed, schedule) = acceptance_hunt();

    // The very same fault schedule, replayed on the *correct* cluster with retries:
    // after the replayed prefix, driving deliveries and virtual time to quiescence
    // completes every operation of a non-crashed client, and the history checks
    // linearizable — Theorem 14 under faults.
    let mut correct = AbdCluster::new(N, WRITER).with_retries(RetryPolicy::default());
    schedule.replay_on(&mut correct);
    let mut rng = StdRng::seed_from_u64(7);
    correct.run_to_quiescence_with_time(&mut rng, 200_000);
    let h = correct.history();
    for pending in h.pending() {
        assert!(
            correct.is_crashed(pending.process),
            "operation {:?} by non-crashed {} left pending",
            pending.id,
            pending.process
        );
    }
    assert!(checker.check(&h).is_linearizable());
}

#[test]
fn abd_with_retries_stays_linearizable_under_drop_partition_heal() {
    // Theorem 14 under faults, pinned: 5 replicas, p = 0.2 loss on every link, a
    // partition installed and healed mid-run — the correct cluster never produces a
    // rejected history, across seeds and with deliveries driven to quiescence.
    let checker = checker();
    let scenario = lossy_partition_scenario();
    for seed in 0..12u64 {
        let mut adversary = UniformAdversary::new(seed ^ 0xabd);
        let report = hunt_with_faults(
            AbdCluster::new(N, WRITER).with_retries(RetryPolicy::default()),
            &mut adversary,
            &scenario,
            seed,
            400,
            &checker,
        );
        assert!(
            report.violation_at.is_none(),
            "correct ABD rejected under faults at seed {seed}"
        );
        // And the recorded run replays to a linearizable history on a fresh cluster.
        let mut replay = AbdCluster::new(N, WRITER).with_retries(RetryPolicy::default());
        report.schedule.replay_on(&mut replay);
        assert!(checker.check(&replay.history()).is_linearizable());
    }
}

#[test]
fn fault_schedules_replay_bit_identically_across_both_clusters() {
    // Mixed drop/duplicate/delay plan plus a crash and a recovery: whatever the hunt
    // recorded, two fresh replays of the same cluster type agree exactly.
    let plan = FaultPlan {
        default: LinkFaults {
            drop: 0.15,
            duplicate: 0.1,
            delay: 0.1,
            delay_ticks: (8, 40),
        },
        overrides: Vec::new(),
    };
    let scenario = FaultScenario::new(plan, 0xd1ce)
        .with_partition_window(8, 14, Partition::new(2, "minority-cut", [ProcessId(4)]))
        .with_crash(20, ProcessId(3))
        .with_recovery(40, ProcessId(3));
    let checker = checker();
    for seed in 0..6u64 {
        let mut adversary = UniformAdversary::new(seed);
        let report = hunt_with_faults(
            AbdCluster::new(N, WRITER).with_retries(RetryPolicy::default()),
            &mut adversary,
            &scenario,
            seed,
            300,
            &checker,
        );
        let mut a = AbdCluster::new(N, WRITER).with_retries(RetryPolicy::default());
        let mut b = AbdCluster::new(N, WRITER).with_retries(RetryPolicy::default());
        let da = report.schedule.replay_on(&mut a);
        let db = report.schedule.replay_on(&mut b);
        assert_eq!(da, db, "seed {seed}: delivery counts diverged");
        assert_eq!(a.history(), b.history(), "seed {seed}: histories diverged");
        assert_eq!(
            a.fault_log(),
            b.fault_log(),
            "seed {seed}: fault logs diverged"
        );
    }
}

#[test]
fn recovered_replica_rejoins_with_persisted_state() {
    let mut c = AbdCluster::new(N, WRITER);
    let mut rng = StdRng::seed_from_u64(3);
    c.start_write(7);
    c.run_to_quiescence(&mut rng, 10_000);
    let persisted = c.replica_state(ProcessId(4));
    assert_eq!(persisted, (1, 7));

    c.crash(ProcessId(4));
    c.start_write(8);
    c.run_to_quiescence(&mut rng, 10_000);
    assert!(
        c.is_idle(WRITER),
        "write completes on the surviving majority"
    );

    assert!(c.recover(ProcessId(4)));
    assert!(!c.recover(ProcessId(4)), "double recovery is a no-op");
    assert_eq!(
        c.replica_state(ProcessId(4)),
        persisted,
        "the replica's (timestamp, value) survives the crash"
    );
    // The recovered process is a full participant again: it can read, and its stale
    // state is repaired by the read's query+write-back.
    c.start_read(ProcessId(4));
    c.run_to_quiescence(&mut rng, 10_000);
    let h = c.history();
    assert_eq!(h.pending().count(), 0);
    assert_eq!(h.reads().next().unwrap().read_value(), Some(&8));
    assert!(checker().check(&h).is_linearizable());
}

#[test]
fn crashed_incarnation_traffic_stays_purged_after_recovery() {
    let mut c = AbdCluster::new(N, WRITER);
    let mut rng = StdRng::seed_from_u64(4);
    c.start_read(ProcessId(2));
    // The read's queries are in flight when the reader crashes: everything it sent
    // (and everything addressed to it) is purged, and recovery must not resurrect it.
    c.crash(ProcessId(2));
    assert!(c
        .inflight()
        .iter()
        .all(|(_, e)| e.from != ProcessId(2) && e.to != ProcessId(2)));
    assert!(c.recover(ProcessId(2)));
    assert!(c.is_idle(ProcessId(2)), "the recovered client starts idle");
    c.run_to_quiescence(&mut rng, 10_000);
    let h = c.history();
    assert_eq!(
        h.pending().count(),
        1,
        "the crashed incarnation's read stays pending forever"
    );
    // A fresh incarnation read works.
    c.start_read(ProcessId(2));
    c.run_to_quiescence(&mut rng, 10_000);
    assert_eq!(c.history().pending().count(), 1);
    assert!(checker().check(&c.history()).is_linearizable());
}

#[test]
fn fault_log_counts_sends_to_crashed_processes() {
    let mut c = AbdCluster::new(N, WRITER);
    let mut rng = StdRng::seed_from_u64(5);
    c.crash(ProcessId(4));
    assert_eq!(c.fault_log().dead_sends, 0);
    c.start_write(1);
    // The write broadcast includes the crashed process: one dead send, counted.
    assert_eq!(c.fault_log().dead_sends, 1);
    c.run_to_quiescence(&mut rng, 10_000);
    c.start_read(ProcessId(1));
    c.run_to_quiescence(&mut rng, 10_000);
    // The read's query broadcast and its write-back broadcast add one each.
    assert_eq!(c.fault_log().dead_sends, 3);
    assert_eq!(c.fault_log().drops, 0);
    assert_eq!(c.fault_log().duplicates, 0);
}

#[test]
fn fault_log_counts_crash_purges() {
    let mut c = AbdCluster::new(N, WRITER);
    c.start_write(1);
    assert_eq!(c.inflight_count(), N);
    c.crash(WRITER);
    let log = c.fault_log();
    assert_eq!(log.purges, N as u64, "all five write requests purged");
    assert_eq!(c.inflight_count(), 0);
}

#[test]
fn retries_complete_operations_across_a_partition_heal() {
    // Without retries, a write wedged by a partition stays wedged after the heal only
    // if its traffic was lost; with the partition parking (not dropping) messages the
    // heal releases them. Retries additionally survive genuine loss: drop every
    // message of the first broadcast, then let the timeout re-send.
    let mut c = AbdCluster::new(N, WRITER).with_retries(RetryPolicy {
        base: 8,
        cap: 64,
        max_attempts: 8,
    });
    let mut rng = StdRng::seed_from_u64(6);
    c.start_write(5);
    // Lose the writer's entire first broadcast.
    while let Some(slot) = c.inflight().oldest_matching(|_| true) {
        let key = c.inflight().get(slot).expect("an occupied slot").key();
        assert!(c.apply(&ScheduleStep::Drop(key)));
    }
    assert_eq!(c.inflight_count(), 0);
    assert!(!c.is_idle(WRITER), "the write is wedged");
    // Virtual time advances to the retry timer; the retransmission completes it.
    let delivered = c.run_to_quiescence_with_time(&mut rng, 10_000);
    assert!(delivered > 0);
    assert!(c.is_idle(WRITER), "the retransmitted write completed");
    let log = c.fault_log();
    assert_eq!(log.drops, N as u64);
    assert!(log.timer_fires >= 1);
    assert!(log.retransmissions >= N as u64);
    assert!(checker().check(&c.history()).is_linearizable());
}

#[test]
fn schedule_text_round_trips_for_fault_heavy_runs() {
    // Display -> parse round-trip on a real recorded fault schedule (the proptest in
    // property_tests.rs covers synthetic step soups; this pins a genuine run).
    let (_seed, schedule) = acceptance_hunt();
    let text = schedule.to_string();
    let parsed: Schedule = text.parse().expect("recorded schedule parses");
    assert_eq!(parsed, schedule);
    // And the textual form actually mentions the fault vocabulary.
    assert!(text.contains("drop "));
    assert!(text.contains("partition "));
    assert!(text.contains("advance"));
}
