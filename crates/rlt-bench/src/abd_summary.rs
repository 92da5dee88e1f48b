//! The `BENCH_abd.json` writer behind the `checkers_summary` bin, the file's only
//! writer. Each row is rendered once, as the JSON object the file holds, and
//! echoed to stderr as it is written.
//!
//! The experiment families in the file:
//!
//! * **E3 — ABD cost** (`rows`): write+read round-trip wall time as the cluster grows
//!   and under minority crashes.
//! * **E13 — adversarial message schedules** (`adversary_rows` + `minimize`): on the
//!   faulty (write-back-free) cluster, the number of deliveries until the hunt
//!   ([`rlt_mp::hunt_with`], rechecking after every step) first reaches a
//!   non-linearizable prefix, per [`rlt_mp::DeliveryAdversary`], median over
//!   [`HUNT_SEEDS`] scenario seeds — plus one recorded failing schedule shrunk by
//!   [`rlt_mp::minimize::minimize_schedule`] and replayed. Unlike the E3 wall-clock
//!   rows, every E13 number is a *deterministic* function of the seeds (the vendored
//!   rng is a fixed stream), so these rows are comparable across machines.
//! * **E14 — fault injection** (`fault_rows`): the reply-withholding hunt under 10%
//!   link loss with retries, through the same hunt loop and row builder.
//! * **E15 — incremental hunt loop** (`hunt_loop`): wall time of the E13
//!   reply-withholding hunt rechecked by one [`rlt_spec::IncrementalChecker`]
//!   session per hunt vs a from-scratch check after every step, at (asserted)
//!   identical deliveries-to-counterexample.
//! * **E17/E18 — schedule fuzzing and static triage** (`fuzz_rows`).

use crate::{host_cpus, mean_time};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rlt_mp::adversary::hunt_new_old_inversion;
use rlt_mp::minimize::minimize_schedule;
use rlt_mp::{
    hunt_with, hunt_with_faults, AbdCluster, DeliveryAdversary, FaultPlan, FaultScenario,
    FaultyAbdCluster, HuntReport, NewestFirstAdversary, OldestFirstAdversary,
    ReplyWithholdingAdversary, RetryPolicy, StarveDestinationAdversary, UniformAdversary,
};
use rlt_spec::{Checker, ProcessId};

/// Scenario seeds per adversary in the E13 hunt rows.
pub const HUNT_SEEDS: u64 = 50;

/// Delivery budget per hunt; hunts that never trip the checker report this value
/// (the medians are censored at the cap).
pub const HUNT_CAP: u64 = 3_000;

/// Cluster size of the E13 hunts.
pub const HUNT_PROCESSES: usize = 5;

/// The adversaries tracked by the E13 rows, by row name. The seed only matters for
/// the uniform baseline; the targeted adversaries are deterministic.
#[must_use]
pub fn tracked_adversary(name: &str, seed: u64) -> Box<dyn DeliveryAdversary> {
    match name {
        "uniform" => Box::new(UniformAdversary::new(seed ^ 0x5eed_cafe)),
        "oldest_first" => Box::new(OldestFirstAdversary::new()),
        "newest_first" => Box::new(NewestFirstAdversary::new()),
        "starve_replica_1" => Box::new(StarveDestinationAdversary::new(ProcessId(1))),
        "reply_withholding" => Box::new(ReplyWithholdingAdversary::new()),
        other => panic!("unknown tracked adversary {other:?}"),
    }
}

/// Row names of [`tracked_adversary`], baseline first.
pub const TRACKED_ADVERSARIES: &[&str] = &[
    "uniform",
    "oldest_first",
    "newest_first",
    "starve_replica_1",
    "reply_withholding",
];

fn faulty_cluster() -> AbdCluster {
    FaultyAbdCluster::new(HUNT_PROCESSES, ProcessId(0)).into()
}

/// One E13 hunt: the tracked scenario (continuous writes, one reader at a time) on
/// the faulty cluster under the named adversary.
#[must_use]
pub fn run_hunt(adversary_name: &str, scenario_seed: u64, checker: &Checker<i64>) -> HuntReport {
    let mut adversary = tracked_adversary(adversary_name, scenario_seed);
    hunt_new_old_inversion(
        faulty_cluster(),
        &mut *adversary,
        scenario_seed,
        HUNT_CAP,
        checker,
    )
}

/// One deliveries-to-counterexample row: `hunt` run on every seed in
/// `0..HUNT_SEEDS`, a seed that finds nothing counting as [`HUNT_CAP`].
fn hunt_row(row: &str, hunt: &dyn Fn(u64) -> HuntReport) -> String {
    let mut deliveries: Vec<u64> = Vec::with_capacity(HUNT_SEEDS as usize);
    let mut found = 0u64;
    for seed in 0..HUNT_SEEDS {
        let report = hunt(seed);
        found += u64::from(report.violation_at.is_some());
        deliveries.push(report.violation_at.unwrap_or(HUNT_CAP));
    }
    deliveries.sort_unstable();
    format!(
        "{{\"adversary\": \"{row}\", \"found\": {found}, \"median_deliveries\": {}, \
         \"min_deliveries\": {}, \"max_deliveries\": {}}}",
        deliveries[deliveries.len() / 2],
        deliveries[0],
        deliveries[deliveries.len() - 1]
    )
}

/// Loss probability of the E14 `faulty_lossy` row.
pub const LOSSY_DROP_P: f64 = 0.1;

/// Seeds of the hunt-loop speedup measurement (a wall-clock row, so fewer seeds
/// than the deterministic medians need).
pub const HUNT_LOOP_SEEDS: u64 = 5;

/// The E15 hunt-loop row: the E13 reply-withholding hunt timed with its own
/// recheck — one incremental session per hunt (synced zero-copy from the
/// cluster's operation record, most polls answered by the between-event verdict
/// cache) — vs a from-scratch `Checker::check` of a freshly materialized history
/// after every step. Both halt at the same delivery (asserted per seed);
/// `mean_wall_nanos` are per hunt, averaged over [`HUNT_LOOP_SEEDS`] seeds.
fn hunt_loop_row(checker: &Checker<i64>) -> String {
    let incremental = |seed: u64| run_hunt("reply_withholding", seed, checker).violation_at;
    let scratch = |seed: u64| {
        let mut adversary = ReplyWithholdingAdversary::new();
        hunt_with(
            faulty_cluster(),
            &mut adversary,
            &FaultScenario::new(FaultPlan::clean(), 0),
            seed,
            HUNT_CAP,
            &mut |cluster| matches!(checker.check(&cluster.history()).outcome(), Ok(false)),
        )
        .violation_at
    };
    let mut deliveries: Vec<u64> = Vec::new();
    for seed in 0..HUNT_LOOP_SEEDS {
        let at = incremental(seed);
        assert_eq!(
            at,
            scratch(seed),
            "incremental and from-scratch rechecks must be verdict-identical (seed {seed})"
        );
        deliveries.push(at.unwrap_or(HUNT_CAP));
    }
    deliveries.sort_unstable();
    let (incremental_sweep_nanos, _, _) =
        mean_time(|| (0..HUNT_LOOP_SEEDS).all(|seed| incremental(seed).is_some()));
    let (scratch_sweep_nanos, _, _) =
        mean_time(|| (0..HUNT_LOOP_SEEDS).all(|seed| scratch(seed).is_some()));
    format!(
        "{{\"adversary\": \"reply_withholding\", \"seeds\": {HUNT_LOOP_SEEDS}, \
         \"incremental_mean_wall_nanos\": {}, \"scratch_mean_wall_nanos\": {}, \
         \"median_deliveries\": {}, \"medians_match\": true}}",
        incremental_sweep_nanos / u128::from(HUNT_LOOP_SEEDS),
        scratch_sweep_nanos / u128::from(HUNT_LOOP_SEEDS),
        deliveries[deliveries.len() / 2]
    )
}

/// The E13 `minimize` row: the reply-withholding counterexample on seed 0, shrunk
/// by ddmin and replayed twice (asserted bit-identical and still rejected).
fn minimize_row(checker: &Checker<i64>) -> String {
    let scenario_seed = 0u64;
    let report = run_hunt("reply_withholding", scenario_seed, checker);
    assert!(
        report.violation_at.is_some(),
        "the targeted adversary must find a counterexample on the tracked seed"
    );
    let not_linearizable =
        |h: &rlt_spec::History<i64>| matches!(checker.check(h).outcome(), Ok(false));
    let minimized = minimize_schedule(
        faulty_cluster,
        &report.schedule,
        not_linearizable,
        scenario_seed,
    );
    let (mut a, mut b) = (faulty_cluster(), faulty_cluster());
    minimized.schedule.replay_on(&mut a);
    minimized.schedule.replay_on(&mut b);
    assert!(
        a.history() == b.history() && not_linearizable(&a.history()),
        "the minimized schedule must replay bit-identically to the same rejected verdict"
    );
    format!(
        "{{\"adversary\": \"reply_withholding\", \"scenario_seed\": {scenario_seed}, \
         \"raw_deliveries\": {}, \"min_deliveries\": {}, \"min_steps\": {}, \
         \"replays_tried\": {}, \"replay_deterministic\": true}}",
        report.schedule.delivery_count(),
        minimized.schedule.delivery_count(),
        minimized.schedule.len(),
        minimized.replays_tried
    )
}

/// Scenario seeds of the E17 fuzzer rediscovery row.
pub const FUZZ_SEEDS: u64 = 50;

/// Scenario seeds the rediscovery row must succeed on (of [`FUZZ_SEEDS`]).
pub const FUZZ_FOUND_FLOOR: u64 = 45;

/// The E17 rediscovery median (budget units to first trophy over
/// [`FUZZ_SEEDS`] seeds), recorded before static triage existed. The E18 row
/// asserts the triaged median never regresses past this.
pub const E17_MEDIAN_BUDGET: u64 = 5073;

/// The E17/E18 rows: coverage-guided rediscovery of the faulty cluster's
/// new/old inversion from clean recorded schedules only (no targeted
/// adversary), the coverage yield of a fixed no-early-stop run, and the static
/// triage tallies (E18: mutants rejected or canonicalized before replay, and
/// the budget saved against the pre-triage [`E17_MEDIAN_BUDGET`]). All numbers
/// are deterministic per seed, so these double as CI regression gates.
fn fuzz_rows() -> Vec<String> {
    use rlt_mp::fuzz::{fuzz_faulty_rediscovery, FuzzConfig};
    let config = FuzzConfig::default();
    let mut budgets: Vec<u64> = Vec::new();
    let mut found = 0u64;
    let mut max_min_deliveries = 0usize;
    let mut all_verified = true;
    let mut statically_rejected = 0u64;
    let mut statically_canonicalized = 0u64;
    let mut mutants_executed = 0u64;
    for seed in 0..FUZZ_SEEDS {
        let report = fuzz_faulty_rediscovery(seed, &config);
        statically_rejected += report.statically_rejected;
        statically_canonicalized += report.statically_canonicalized;
        mutants_executed += report.mutants_executed;
        if let Some(trophy) = report.trophies.first() {
            found += 1;
            budgets.push(
                report
                    .first_trophy_budget
                    .expect("trophy implies budget mark"),
            );
            max_min_deliveries = max_min_deliveries.max(trophy.min_deliveries);
            all_verified &= trophy.verified;
        } else {
            budgets.push(config.delivery_budget);
        }
        assert_eq!(
            report.write_strong_refutations, 0,
            "write-strong refutation alarm on seed {seed}"
        );
    }
    assert!(
        found >= FUZZ_FOUND_FLOOR,
        "fuzzer rediscovered the inversion on only {found}/{FUZZ_SEEDS} seeds"
    );
    assert!(all_verified, "every trophy must replay bit-identically");
    assert!(
        max_min_deliveries <= 25,
        "a ddmin'd trophy kept {max_min_deliveries} deliveries"
    );
    budgets.sort_unstable();
    let median_budget = budgets[budgets.len() / 2];
    // E18: static triage must pay for itself — the triaged rediscovery median
    // can only be at or below the pre-triage E17 median, and the triage must
    // actually fire (otherwise the counters are dead weight).
    assert!(
        median_budget <= E17_MEDIAN_BUDGET,
        "triaged rediscovery median {median_budget} regressed past the E17 baseline \
         {E17_MEDIAN_BUDGET}"
    );
    assert!(
        statically_rejected > 0,
        "static triage rejected nothing across {FUZZ_SEEDS} seeds"
    );
    // Coverage yield: one fixed-seed run with early stopping off, so the corpus
    // keeps breeding for the whole budget.
    let coverage_config = FuzzConfig {
        stop_at_first_trophy: false,
        max_trophies: usize::MAX,
        generations: 12,
        delivery_budget: 60_000,
        ..FuzzConfig::default()
    };
    let coverage = fuzz_faulty_rediscovery(0, &coverage_config);
    let triaged_total = mutants_executed + statically_rejected;
    vec![
        format!(
            "{{\"row\": \"rediscovery_median\", \"found\": {found}, \
             \"median_budget\": {median_budget}, \"min_budget\": {}, \"max_budget\": {}, \
             \"max_min_deliveries\": {max_min_deliveries}, \"all_verified\": {all_verified}}}",
            budgets[0],
            budgets[budgets.len() - 1]
        ),
        format!(
            "{{\"row\": \"coverage_per_1000_deliveries\", \"coverage_units\": {}, \
             \"budget_used\": {}, \"value\": {}}}",
            coverage.coverage_units,
            coverage.budget_used,
            coverage.coverage_units * 1_000 / coverage.budget_used.max(1)
        ),
        format!(
            "{{\"row\": \"static_triage\", \"statically_rejected\": {statically_rejected}, \
             \"statically_canonicalized\": {statically_canonicalized}, \
             \"mutants_executed\": {mutants_executed}, \"rejected_per_1000\": {}, \
             \"median_budget\": {median_budget}, \"e17_median_budget\": {E17_MEDIAN_BUDGET}, \
             \"budget_saved_percent\": {}}}",
            statically_rejected * 1_000 / triaged_total.max(1),
            E17_MEDIAN_BUDGET.saturating_sub(median_budget) * 100 / E17_MEDIAN_BUDGET
        ),
    ]
}

/// Echoes each row to stderr and renders the rows as a JSON array, one object
/// per line.
fn array(rows: &[String]) -> String {
    for row in rows {
        eprintln!("{row}");
    }
    format!("[\n    {}\n  ]", rows.join(",\n    "))
}

/// Echoes a single-object row to stderr and returns it.
fn echoed(row: String) -> String {
    eprintln!("{row}");
    row
}

/// One E3 cost row: mean wall time of `run` (which returns the history length).
fn cost_row(
    bench: &str,
    processes: usize,
    crashes: usize,
    mut run: impl FnMut() -> usize,
) -> String {
    let mut history_ops = 0usize;
    let (mean_wall_nanos, iterations, _) = mean_time(|| {
        history_ops = run();
        history_ops > 0
    });
    format!(
        "{{\"bench\": \"{bench}\", \"processes\": {processes}, \"crashes\": {crashes}, \
         \"mean_wall_nanos\": {mean_wall_nanos}, \"iterations\": {iterations}, \
         \"history_ops\": {history_ops}}}"
    )
}

/// Measures everything and writes the `BENCH_abd.json` artifact to `out_path`.
pub fn write_abd_json(out_path: &str) {
    // E3: write+read round-trip cost vs cluster size, and under minority crashes.
    let write_then_read = |mut cluster: AbdCluster, seed: u64, value: i64| {
        let mut rng = StdRng::seed_from_u64(seed);
        cluster.start_write(value);
        cluster.run_to_quiescence(&mut rng, 1_000_000);
        cluster.start_read(ProcessId(1));
        cluster.run_to_quiescence(&mut rng, 1_000_000);
        cluster.history().len()
    };
    let mut cost: Vec<String> = [3usize, 5, 9, 15]
        .iter()
        .map(|&n| {
            cost_row("abd_write_then_read", n, 0, || {
                write_then_read(AbdCluster::new(n, ProcessId(0)), 1, 7)
            })
        })
        .collect();
    for crashes in [1usize, 2] {
        cost.push(cost_row("abd_minority_crashes", 5, crashes, || {
            let mut cluster = AbdCluster::new(5, ProcessId(0));
            for i in 0..crashes {
                cluster.crash(ProcessId(4 - i));
            }
            write_then_read(cluster, 2, 1)
        }));
    }

    // E13: deliveries-to-counterexample per adversary.
    // E14: the reply-withholding hunt under 10% link loss with retries.
    let checker = Checker::new(0i64);
    let hunts: Vec<String> = TRACKED_ADVERSARIES
        .iter()
        .map(|&name| hunt_row(name, &|seed| run_hunt(name, seed, &checker)))
        .collect();
    let lossy = FaultScenario::new(FaultPlan::lossy(LOSSY_DROP_P), 0xe14);
    let faults = hunt_row("faulty_lossy", &|seed| {
        hunt_with_faults(
            faulty_cluster().with_retries(RetryPolicy::default()),
            &mut ReplyWithholdingAdversary::new(),
            &lossy,
            seed,
            HUNT_CAP,
            &checker,
        )
    });
    let fields = [
        ("experiment", "\"E3-abd-cost\"".to_string()),
        ("host_cpus", host_cpus().to_string()),
        ("rows", array(&cost)),
        (
            "adversary_experiment",
            "\"E13-abd-adversary-schedules\"".to_string(),
        ),
        (
            "adversary_workload",
            format!(
                "{{\"cluster\": \"faulty_abd\", \"processes\": {HUNT_PROCESSES}, \
                 \"seeds\": {HUNT_SEEDS}, \"delivery_cap\": {HUNT_CAP}}}"
            ),
        ),
        ("adversary_rows", array(&hunts)),
        (
            "fault_experiment",
            "\"E14-abd-fault-injection\"".to_string(),
        ),
        (
            "fault_workload",
            format!(
                "{{\"cluster\": \"faulty_abd\", \"processes\": {HUNT_PROCESSES}, \
                 \"drop_p\": {LOSSY_DROP_P}, \"retries\": true, \"seeds\": {HUNT_SEEDS}, \
                 \"delivery_cap\": {HUNT_CAP}}}"
            ),
        ),
        ("fault_rows", array(&[faults])),
        ("hunt_loop", echoed(hunt_loop_row(&checker))),
        ("minimize", echoed(minimize_row(&checker))),
        (
            "fuzz_experiment",
            "\"E17-coverage-guided-schedule-fuzzing+E18-static-triage\"".to_string(),
        ),
        (
            "fuzz_workload",
            format!(
                "{{\"cluster\": \"faulty_abd\", \"processes\": {HUNT_PROCESSES}, \
                 \"seeds\": {FUZZ_SEEDS}, \"corpus\": \"clean recorded schedules only\"}}"
            ),
        ),
        ("fuzz_rows", array(&fuzz_rows())),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("  \"{key}\": {value}"))
        .collect();
    std::fs::write(out_path, format!("{{\n{}\n}}\n", body.join(",\n")))
        .expect("write ABD summary JSON");
    eprintln!("wrote {out_path}");
}
