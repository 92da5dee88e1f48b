//! Seeded delta-debugging minimization of failing message schedules.
//!
//! A hunt (see [`crate::adversary::hunt_new_old_inversion`]) produces a recorded
//! [`Schedule`] whose replay exhibits some property — typically "the history is not
//! linearizable" via a [`rlt_spec::Checker`] session. [`minimize_schedule`] shrinks
//! that schedule while the property keeps holding: classic ddmin chunk removal
//! (halving granularity down to single steps), with the order in which chunks are
//! tried shuffled by a seed so different seeds can reach different local minima.
//!
//! Removal is sound because schedule replay is *total*: dropping a delivery simply
//! leaves that message undelivered forever (asynchrony allows it), and dropping a
//! client event skips the operation. Determinism of replay means the returned minimum
//! re-fails identically on every future replay — a portable regression input.

use crate::analyze::{analyze, canonicalize, scrub, ClusterModel};
use crate::delivery::{Schedule, ScheduleStep};
use crate::AbdCluster;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlt_spec::History;
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Result of [`minimize_schedule`].
#[derive(Debug)]
pub struct MinimizeReport {
    /// The 1-minimal schedule: removing any single remaining step breaks the
    /// predicate.
    pub schedule: Schedule,
    /// Number of candidate replays tried.
    pub replays_tried: u64,
    /// ddmin trials answered from the static-analysis cache instead of a
    /// replay (always 0 outside [`minimize_schedule_with_model`]).
    pub replays_skipped: u64,
}

/// Shrinks `schedule` to a 1-minimal sub-sequence whose replay (on a fresh cluster
/// from `make_cluster`) still satisfies `predicate` on the resulting history.
///
/// `seed` shuffles the order in which chunks are tried at each granularity; the result
/// is a pure function of `(make_cluster, schedule, predicate, seed)`.
///
/// # Panics
///
/// Panics if the full schedule does not itself satisfy the predicate — minimizing a
/// non-failing input is always a caller bug.
pub fn minimize_schedule<F, P>(
    make_cluster: F,
    schedule: &Schedule,
    predicate: P,
    seed: u64,
) -> MinimizeReport
where
    F: Fn() -> AbdCluster,
    P: Fn(&History<i64>) -> bool,
{
    minimize_schedule_by(
        schedule,
        |candidate| {
            let mut cluster = make_cluster();
            candidate.replay_on(&mut cluster);
            predicate(&cluster.history())
        },
        seed,
    )
}

/// Like [`minimize_schedule`], but consults the static analyzer
/// ([`crate::analyze`](mod@crate::analyze)) before each ddmin trial: the candidate's scrubbed +
/// canonicalized form ([`scrub`], [`canonicalize`]) keys a verdict cache, so a
/// trial that is a statically-invalid permutation of — or dead-step decoration
/// on — an already-judged candidate is answered without a replay.
///
/// The ddmin trajectory (and therefore the returned 1-minimum) is *identical*
/// to [`minimize_schedule`]'s for the same arguments: canonical-form equality
/// guarantees a bit-identical replayed history, so every cached answer equals
/// the answer a replay would have produced. Only
/// [`MinimizeReport::replays_tried`] shrinks, with the hits counted in
/// [`MinimizeReport::replays_skipped`].
///
/// # Panics
///
/// Panics if the full schedule does not itself satisfy the predicate.
pub fn minimize_schedule_with_model<F, P>(
    make_cluster: F,
    schedule: &Schedule,
    predicate: P,
    seed: u64,
    model: &ClusterModel,
) -> MinimizeReport
where
    F: Fn() -> AbdCluster,
    P: Fn(&History<i64>) -> bool,
{
    let cache: RefCell<BTreeMap<String, bool>> = RefCell::new(BTreeMap::new());
    let skipped = RefCell::new(0u64);
    let mut report = minimize_schedule_by(
        schedule,
        |candidate| {
            let key = canonicalize(&scrub(candidate, &analyze(candidate, model))).to_string();
            if let Some(&verdict) = cache.borrow().get(&key) {
                *skipped.borrow_mut() += 1;
                return verdict;
            }
            let mut cluster = make_cluster();
            candidate.replay_on(&mut cluster);
            let verdict = predicate(&cluster.history());
            cache.borrow_mut().insert(key, verdict);
            verdict
        },
        seed,
    );
    report.replays_skipped = *skipped.borrow();
    report.replays_tried -= report.replays_skipped;
    report
}

/// The general form of [`minimize_schedule`]: the predicate judges the candidate
/// *schedule* itself (typically by replaying it however it likes), so properties
/// that are not functions of a single final history — the extension-family checks
/// of [`rlt_spec::strong`], say, which replay several prefixes per candidate —
/// minimize through the same seeded ddmin loop.
///
/// # Panics
///
/// Panics if the full schedule does not itself satisfy the predicate.
pub fn minimize_schedule_by<P>(schedule: &Schedule, predicate: P, seed: u64) -> MinimizeReport
where
    P: Fn(&Schedule) -> bool,
{
    let mut replays_tried = 0u64;
    let mut holds = |steps: &[ScheduleStep]| {
        replays_tried += 1;
        predicate(&Schedule {
            steps: steps.to_vec(),
        })
    };
    assert!(
        holds(&schedule.steps),
        "minimize_schedule: the full schedule must satisfy the predicate"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut steps = schedule.steps.clone();
    let mut chunk = (steps.len() / 2).max(1);
    loop {
        let mut progress = true;
        while progress {
            progress = false;
            let chunks = steps.len().div_ceil(chunk);
            // Seeded Fisher–Yates over the chunk order: different seeds explore
            // different removal orders and may land in different 1-minima.
            let mut order: Vec<usize> = (0..chunks).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for ci in order {
                let lo = ci * chunk;
                if lo >= steps.len() {
                    continue;
                }
                let hi = (lo + chunk).min(steps.len());
                let mut candidate = steps.clone();
                candidate.drain(lo..hi);
                if holds(&candidate) {
                    steps = candidate;
                    progress = true;
                    break; // chunk boundaries moved; recompute the scan
                }
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    MinimizeReport {
        schedule: Schedule { steps },
        replays_tried,
        replays_skipped: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{hunt_new_old_inversion, ReplyWithholdingAdversary};
    use crate::FaultyAbdCluster;
    use rlt_spec::{Checker, ProcessId};

    fn fresh() -> AbdCluster {
        FaultyAbdCluster::new(5, ProcessId(0)).into()
    }

    fn failing_schedule(scenario_seed: u64) -> Schedule {
        let checker = Checker::new(0i64);
        let mut adv = ReplyWithholdingAdversary::new();
        let report = hunt_new_old_inversion(fresh(), &mut adv, scenario_seed, 500, &checker);
        assert!(report.violation_at.is_some(), "hunt must find a violation");
        report.schedule
    }

    #[test]
    fn minimized_schedule_still_fails_and_replays_bit_identically() {
        let checker = Checker::new(0i64);
        let schedule = failing_schedule(1);
        let not_linearizable =
            |h: &rlt_spec::History<i64>| matches!(checker.check(h).outcome(), Ok(false));
        let report = minimize_schedule(fresh, &schedule, not_linearizable, 7);
        let minimal = &report.schedule;
        assert!(minimal.len() <= schedule.len());
        assert!(
            minimal.delivery_count() <= 25,
            "shrunk to {} deliveries",
            minimal.delivery_count()
        );
        // Still failing, and deterministically so: two replays agree exactly.
        let (mut a, mut b) = (fresh(), fresh());
        minimal.replay_on(&mut a);
        minimal.replay_on(&mut b);
        assert_eq!(a.history(), b.history());
        assert!(not_linearizable(&a.history()));
    }

    #[test]
    fn minimization_is_one_minimal() {
        let checker = Checker::new(0i64);
        let schedule = failing_schedule(2);
        let not_linearizable =
            |h: &rlt_spec::History<i64>| matches!(checker.check(h).outcome(), Ok(false));
        let minimal = minimize_schedule(fresh, &schedule, not_linearizable, 3).schedule;
        // Removing any single remaining step breaks the predicate.
        for i in 0..minimal.len() {
            let mut steps = minimal.steps.clone();
            steps.remove(i);
            let mut cluster = fresh();
            Schedule { steps }.replay_on(&mut cluster);
            assert!(
                !not_linearizable(&cluster.history()),
                "step {i} of the minimum is removable"
            );
        }
    }

    #[test]
    fn seeds_are_deterministic_and_may_differ() {
        let checker = Checker::new(0i64);
        let schedule = failing_schedule(1);
        let not_linearizable =
            |h: &rlt_spec::History<i64>| matches!(checker.check(h).outcome(), Ok(false));
        let a = minimize_schedule(fresh, &schedule, not_linearizable, 11).schedule;
        let b = minimize_schedule(fresh, &schedule, not_linearizable, 11).schedule;
        assert_eq!(a, b, "same seed, same minimum");
    }

    #[test]
    fn model_cache_preserves_the_minimum_and_skips_replays() {
        let checker = Checker::new(0i64);
        let schedule = failing_schedule(1);
        let not_linearizable =
            |h: &rlt_spec::History<i64>| matches!(checker.check(h).outcome(), Ok(false));
        let plain = minimize_schedule(fresh, &schedule, not_linearizable, 7);
        let model = fresh().model();
        let cached = minimize_schedule_with_model(fresh, &schedule, not_linearizable, 7, &model);
        assert_eq!(
            plain.schedule, cached.schedule,
            "the cache must not change the ddmin trajectory"
        );
        assert_eq!(
            plain.replays_tried,
            cached.replays_tried + cached.replays_skipped,
            "every trial is either replayed or answered from the cache"
        );
        assert!(cached.replays_skipped > 0, "ddmin retries duplicate forms");
        assert_eq!(plain.replays_skipped, 0);
    }

    #[test]
    #[should_panic(expected = "must satisfy the predicate")]
    fn minimizing_a_passing_schedule_panics() {
        let schedule = Schedule::new();
        let _ = minimize_schedule(fresh, &schedule, |_| false, 0);
    }
}
