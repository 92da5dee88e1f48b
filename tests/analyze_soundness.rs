//! Soundness proptests for the static schedule analyzer (`rlt_mp::analyze`)
//! against actual replay, over mutated schedule soups on all three cluster
//! flavors:
//!
//! * **Dead means dead** — every step the analyzer marks dead is skipped by
//!   [`Schedule::replay_trace_on`] (zero side effects). This is the contract
//!   the fuzz triage and the ddmin replay cache lean on.
//! * **Exact fault machinery is complete** — crash/recover/heal state is
//!   tracked exactly (not conservatively), so for `recover` and `heal` steps
//!   the analyzer verdict is an *iff*: dead ⇔ replay skips.
//! * **Scrub/canonicalize are replay-equivalent** — dropping dead steps and
//!   sorting commuting request deliveries reproduces the identical history,
//!   fault log, and delivery count, and leaves nothing dead behind.
//! * **Clean recordings are fully live** — on an analyzer-clean recorded
//!   schedule every step fires.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rlt_core::mp::analyze::{analyze, canonicalize, scrub, ClusterModel};
use rlt_core::mp::fuzz::{mutate_schedule, record_clean_corpus};
use rlt_core::mp::{AbdCluster, ClientEvent, FaultyAbdCluster, Schedule, ScheduleStep};
use rlt_core::spec::ProcessId;

/// Records two clean schedules and stacks `rounds` crossover mutations on top:
/// the exact population the fuzzer's static triage sees.
fn soup(make: &impl Fn() -> AbdCluster, multi_writer: bool, seed: u64, rounds: usize) -> Schedule {
    let seeds = record_clean_corpus(make, 2, 50, seed, multi_writer);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA11CE);
    let mut schedule = seeds[0].clone();
    for _ in 0..rounds {
        schedule = mutate_schedule(&schedule, &seeds[1], 300, &mut rng);
    }
    schedule
}

fn assert_sound(
    make: impl Fn() -> AbdCluster,
    model: &ClusterModel,
    multi_writer: bool,
    seed: u64,
    rounds: usize,
) {
    let schedule = soup(&make, multi_writer, seed, rounds);
    let analysis = analyze(&schedule, model);
    let trace = schedule.replay_trace_on(&mut make());
    for (i, step) in schedule.steps.iter().enumerate() {
        if analysis.is_dead(i) {
            assert!(
                !trace.fired[i],
                "analyzer-dead step {i} `{step}` fired in replay of\n{schedule}"
            );
        }
        // Crash/partition state is exact, so these verdicts are an iff.
        if matches!(
            step,
            ScheduleStep::Event(ClientEvent::Recover(_)) | ScheduleStep::Heal(_)
        ) {
            assert_eq!(
                trace.fired[i],
                !analysis.is_dead(i),
                "step {i} `{step}`: exact-tracked verdict diverged in\n{schedule}"
            );
        }
    }
    // Scrubbing dead steps and canonicalizing commuting deliveries must not
    // change what the replay computes.
    let cleaned = canonicalize(&scrub(&schedule, &analysis));
    let mut a = make();
    let mut b = make();
    let da = schedule.replay_on(&mut a);
    let db = cleaned.replay_on(&mut b);
    assert_eq!(da, db, "delivery count changed by scrub+canonicalize");
    assert_eq!(a.history(), b.history(), "history changed");
    assert_eq!(a.fault_log(), b.fault_log(), "fault log changed");
    // Scrubbing is a fixpoint: nothing dead remains in its own output.
    assert_eq!(
        analyze(&scrub(&schedule, &analysis), model).dead_steps(),
        0,
        "scrub left dead steps behind"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn dead_steps_never_fire_on_the_correct_sw_cluster(seed in 0u64..1 << 32, rounds in 1usize..6) {
        assert_sound(
            || AbdCluster::new(5, ProcessId(0)),
            &ClusterModel::single_writer(5, ProcessId(0)),
            false,
            seed,
            rounds,
        );
    }

    #[test]
    fn dead_steps_never_fire_on_the_faulty_sw_cluster(seed in 0u64..1 << 32, rounds in 1usize..6) {
        assert_sound(
            || FaultyAbdCluster::new(5, ProcessId(0)).into(),
            &ClusterModel::single_writer(5, ProcessId(0)).without_write_backs(),
            false,
            seed,
            rounds,
        );
    }

    #[test]
    fn dead_steps_never_fire_on_the_mw_cluster(seed in 0u64..1 << 32, rounds in 1usize..6) {
        assert_sound(
            || AbdCluster::multi_writer(5),
            &ClusterModel::multi_writer(5),
            true,
            seed,
            rounds,
        );
    }

    #[test]
    fn permissive_model_is_sound_for_every_flavor(seed in 0u64..1 << 32, rounds in 1usize..6) {
        // The model-free analyzer must stay sound even with no protocol
        // knowledge at all (it just proves less dead).
        assert_sound(
            || AbdCluster::multi_writer(5).without_write_back(),
            &ClusterModel::permissive(),
            true,
            seed,
            rounds,
        );
    }
}

#[test]
fn clean_recordings_fire_every_step() {
    let sw = record_clean_corpus(|| AbdCluster::new(5, ProcessId(0)), 4, 60, 31, false);
    let mw = record_clean_corpus(|| AbdCluster::multi_writer(5), 4, 60, 32, true);
    let sw_model = ClusterModel::single_writer(5, ProcessId(0));
    let mw_model = ClusterModel::multi_writer(5);
    for (schedule, model, make_trace) in sw
        .iter()
        .map(|s| {
            (
                s,
                &sw_model,
                s.replay_trace_on(&mut AbdCluster::new(5, ProcessId(0))),
            )
        })
        .chain(mw.iter().map(|s| {
            (
                s,
                &mw_model,
                s.replay_trace_on(&mut AbdCluster::multi_writer(5)),
            )
        }))
    {
        let analysis = analyze(schedule, model);
        assert!(analysis.is_clean(), "{:?}", analysis.diagnostics);
        assert!(
            make_trace.fired.iter().all(|&f| f),
            "a recorded step failed to fire"
        );
    }
}
