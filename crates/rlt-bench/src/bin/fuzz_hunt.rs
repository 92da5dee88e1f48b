//! Experiment E17: the coverage-guided schedule fuzzer's CI smoke run.
//!
//! Runs the faulty-cluster rediscovery hunt on a fixed block of scenario seeds plus
//! one strong-linearizability hunt on the correct cluster, printing one
//! deterministic line per run: every number is a pure function of the seeds, so CI
//! diffs this stdout across pool widths (`RLT_THREADS=1` vs the default) exactly
//! like `server_load`. Asserts that the inversion is rediscovered from clean
//! recorded schedules alone, that every ddmin'd trophy is ≤ 25 deliveries and
//! replays bit-identically, and that the correct cluster raises zero write-strong
//! refutations (the Section 6 theorem). The E17/E18 rows of `BENCH_abd.json` are
//! written by `checkers_summary`.
//!
//! Usage: `cargo run --release -p rlt-bench --bin fuzz_hunt -- --smoke`

use rlt_mp::fuzz::{fuzz_faulty_rediscovery, fuzz_strong_distinctions, FuzzConfig};
use rlt_mp::FaultyAbdCluster;
use rlt_spec::ProcessId;

/// Scenario seeds of the smoke block (kept small: CI runs this twice).
const SMOKE_SEEDS: u64 = 8;

fn smoke() {
    let config = FuzzConfig::default();
    let mut found = 0u64;
    println!(
        "fuzz_hunt smoke: faulty_abd n=5, {} scenario seeds, generation cap {}, budget {}",
        SMOKE_SEEDS, config.generations, config.delivery_budget
    );
    for seed in 0..SMOKE_SEEDS {
        let report = fuzz_faulty_rediscovery(seed, &config);
        assert_eq!(
            report.write_strong_refutations, 0,
            "write-strong alarm on seed {seed}"
        );
        match report.trophies.first() {
            Some(trophy) => {
                found += 1;
                assert!(
                    trophy.verified,
                    "seed {seed}: minimized trophy failed bit-identical re-verification"
                );
                assert!(
                    trophy.min_deliveries <= 25,
                    "seed {seed}: ddmin left {} deliveries",
                    trophy.min_deliveries
                );
                // Re-verify the bit-identical replay in the bin itself, not just
                // through the report flag: two fresh replays, equal histories.
                let fresh = || FaultyAbdCluster::new(5, ProcessId(0));
                let (mut a, mut b) = (fresh(), fresh());
                let da = trophy.minimized.replay_on(&mut a);
                let db = trophy.minimized.replay_on(&mut b);
                assert!(
                    da == db && a.history() == b.history(),
                    "seed {seed}: minimized schedule replay diverged"
                );
                println!(
                    "seed {seed}: trophy at generation {} after {} budget units, \
                     ddmin {} -> {} deliveries in {} replays, coverage {}",
                    trophy.generation,
                    report.first_trophy_budget.expect("trophy implies mark"),
                    trophy.schedule.delivery_count(),
                    trophy.min_deliveries,
                    trophy.ddmin_replays,
                    report.coverage_units
                );
            }
            None => println!(
                "seed {seed}: no trophy ({} mutants, coverage {}, censored {})",
                report.mutants_executed, report.coverage_units, report.censored
            ),
        }
    }
    assert!(
        found >= SMOKE_SEEDS - 1,
        "rediscovered on only {found}/{SMOKE_SEEDS} smoke seeds"
    );
    // The correct cluster under the extension-family hunt: whatever it finds or
    // doesn't, the write-strong check must never refuse (every linearizable SWMR
    // implementation is write strongly-linearizable), and the run must stay
    // deterministic — all printed numbers are seed-pure.
    let strong_config = FuzzConfig {
        generations: 3,
        parents_per_generation: 2,
        mutants_per_parent: 4,
        delivery_budget: 20_000,
        stop_at_first_trophy: false,
        ..FuzzConfig::default()
    };
    let strong = fuzz_strong_distinctions(1, &strong_config);
    assert_eq!(
        strong.write_strong_refutations, 0,
        "write-strong refusal on the correct cluster contradicts Section 6"
    );
    println!(
        "strong hunt seed 1: {} mutants, coverage {}, strong trophies {}, \
         write-strong refutations {} (must be 0), censored checks {}",
        strong.mutants_executed,
        strong.coverage_units,
        strong.trophies.len(),
        strong.write_strong_refutations,
        strong.censored_checks
    );
    println!("fuzz_hunt smoke: ok ({found}/{SMOKE_SEEDS} rediscovered)");
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        None | Some("--smoke") => smoke(),
        Some(other) => {
            eprintln!("usage: fuzz_hunt [--smoke] (got {other:?}); checkers_summary writes BENCH_abd.json");
            std::process::exit(2);
        }
    }
}
