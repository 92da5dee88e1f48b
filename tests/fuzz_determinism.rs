//! Determinism pins for the coverage-guided schedule fuzzer: the mutant stream,
//! the final corpus, and the trophy set are pure functions of the fuzzer seed,
//! regardless of the width of the pool the fuzzer runs under.
//!
//! The fuzzer runs each generation's phases (breed, gate, replay, merge) on the
//! calling thread in task order and never forks, so no pool width may reach a
//! report. These tests hold that contract down: a run inside a 1-thread pool and
//! the same run inside a 4-thread pool must produce equal [`FuzzReport`]s, field
//! for field — the `RLT_THREADS=1` vs `=4` guarantee.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rlt_core::mp::fuzz::{
    fuzz_faulty_rediscovery, mutate_schedule, record_clean_corpus, FuzzConfig,
};
use rlt_core::mp::FaultyAbdCluster;
use rlt_core::spec::ProcessId;

fn in_pool<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(op)
}

#[test]
fn mutant_stream_is_byte_identical_across_pool_widths() {
    // Mutation is a pure function of (parent, donor, task seed); no pool is
    // even consulted. Pin that by diffing the rendered mutant text.
    let seeds = record_clean_corpus(|| FaultyAbdCluster::new(5, ProcessId(0)), 2, 50, 23, false);
    let stream = |threads: usize| {
        in_pool(threads, || {
            (0..32u64)
                .map(|task| {
                    let mut rng = StdRng::seed_from_u64(task);
                    mutate_schedule(&seeds[0], &seeds[1], 300, &mut rng).to_string()
                })
                .collect::<Vec<String>>()
        })
    };
    assert_eq!(stream(1), stream(4));
}

#[test]
fn fuzz_reports_are_bit_identical_at_one_and_four_threads() {
    // The full pipeline: seed replay, breeding, coverage merge, trophy ddmin
    // and re-verification. Any scheduling leak shows up as a corpus or counter
    // diff; FuzzReport's PartialEq covers every field including the schedules.
    let config = FuzzConfig {
        generations: 6,
        stop_at_first_trophy: false,
        delivery_budget: 30_000,
        ..FuzzConfig::default()
    };
    let narrow = in_pool(1, || fuzz_faulty_rediscovery(7, &config));
    let wide = in_pool(4, || fuzz_faulty_rediscovery(7, &config));
    assert_eq!(narrow, wide);
    // And the run is self-deterministic: repeating it changes nothing.
    let again = in_pool(4, || fuzz_faulty_rediscovery(7, &config));
    assert_eq!(wide, again);
}

#[test]
fn static_triage_counters_are_identical_across_pool_widths() {
    // Triage keys are computed and consumed strictly in task order, so the
    // rejected/canonicalized tallies — and everything downstream of the
    // mutants they filter — are pool-width invariant.
    let config = FuzzConfig {
        generations: 6,
        stop_at_first_trophy: false,
        delivery_budget: 30_000,
        ..FuzzConfig::default()
    };
    let narrow = in_pool(1, || fuzz_faulty_rediscovery(11, &config));
    let wide = in_pool(4, || fuzz_faulty_rediscovery(11, &config));
    assert_eq!(narrow.statically_rejected, wide.statically_rejected);
    assert_eq!(
        narrow.statically_canonicalized,
        wide.statically_canonicalized
    );
    assert!(
        narrow.statically_rejected > 0,
        "triage must actually reject some mutants in a 6-generation run"
    );
    assert_eq!(narrow, wide);
}

#[test]
fn trophy_sets_agree_across_pool_widths_when_hunting() {
    // Rediscovery mode (stop at first trophy): the trophy itself — raw and
    // minimized schedule text — must not depend on the pool width.
    let config = FuzzConfig::default();
    let narrow = in_pool(1, || fuzz_faulty_rediscovery(3, &config));
    let wide = in_pool(4, || fuzz_faulty_rediscovery(3, &config));
    assert_eq!(narrow.trophies.len(), wide.trophies.len());
    assert!(!narrow.trophies.is_empty(), "seed 3 must rediscover");
    for (a, b) in narrow.trophies.iter().zip(wide.trophies.iter()) {
        assert_eq!(a.schedule.to_string(), b.schedule.to_string());
        assert_eq!(a.minimized.to_string(), b.minimized.to_string());
        assert!(a.verified && b.verified);
    }
}
