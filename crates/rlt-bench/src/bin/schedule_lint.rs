//! CLI front-end of the static schedule analyzer (`rlt_mp::analyze`).
//!
//! Two modes:
//!
//! * `--smoke` — the CI gate. Analyzes the recorded clean corpus of all three
//!   cluster flavors under their matching [`ClusterModel`]s (every recording
//!   must come back clean), then fuzzes the faulty cluster for one trophy and
//!   analyzes its ddmin-minimized schedule: a 1-minimal schedule can contain no
//!   replay-skipped step, so the analyzer must find zero dead steps in it —
//!   a soundness cross-check running on real counterexamples, not synthetic
//!   soups. Everything printed is a pure function of fixed seeds, so CI diffs
//!   this stdout across pool widths exactly like `fuzz_hunt --smoke`.
//! * `[--model NAME] FILE...` — lints schedule files, printing the
//!   line-numbered diagnostics. `NAME` is one of `permissive` (default),
//!   `abd`, `faulty-abd`, `mw-abd`, `faulty-mw-abd`. Exits nonzero if any
//!   file has diagnostics (or fails to parse).
//!
//! Usage: `cargo run --release -p rlt-bench --bin schedule_lint -- --smoke`

use rlt_mp::analyze::{analyze, analyze_text, ClusterModel};
use rlt_mp::fuzz::{fuzz_faulty_rediscovery, fuzz_mw_rediscovery, record_clean_corpus, FuzzConfig};
use rlt_mp::AbdCluster;

fn named_model(name: &str) -> Option<ClusterModel> {
    match name {
        "permissive" => Some(ClusterModel::permissive()),
        _ => AbdCluster::named(name).map(|cluster| cluster.model()),
    }
}

/// Records a clean corpus on the named flavour and analyzes it under that
/// cluster's own model, asserting every schedule is clean.
fn lint_corpus(name: &str, deliveries_per_run: u64, seed: u64, multi_writer: bool) {
    let fresh = || AbdCluster::named(name).expect("a named flavour");
    let model = fresh().model();
    let schedules = record_clean_corpus(fresh, 3, deliveries_per_run, seed, multi_writer);
    let mut steps = 0usize;
    for (i, schedule) in schedules.iter().enumerate() {
        let analysis = analyze(schedule, &model);
        assert!(
            analysis.is_clean(),
            "{name} recording {i} flagged: {:?}",
            analysis.diagnostics
        );
        steps += schedule.len();
    }
    println!(
        "{name}: {} clean recordings, {steps} steps, 0 diagnostics",
        schedules.len()
    );
}

fn smoke() {
    println!("schedule_lint smoke: clean corpus + minimized trophies");
    lint_corpus("abd", 60, 21, false);
    lint_corpus("faulty-abd", 60, 22, false);
    lint_corpus("faulty-mw-abd", 160, 23, true);
    // Minimized trophies: 1-minimal ⇒ no removable step ⇒ no skipped step ⇒
    // the analyzer (sound for skipped-ness) must report zero dead steps.
    for (name, report) in [
        (
            "faulty-abd",
            fuzz_faulty_rediscovery(1, &FuzzConfig::default()),
        ),
        (
            "faulty-mw-abd",
            fuzz_mw_rediscovery(
                3,
                &FuzzConfig {
                    delivery_budget: 400_000,
                    ..FuzzConfig::default()
                },
            ),
        ),
    ] {
        let model = named_model(name).unwrap();
        for trophy in &report.trophies {
            let analysis = analyze(&trophy.minimized, &model);
            assert_eq!(
                analysis.dead_steps(),
                0,
                "{name}: dead step survived ddmin in\n{}",
                trophy.minimized
            );
            let warns = analysis.diagnostics.len();
            println!(
                "{name} trophy: {} steps, {} deliveries, 0 dead, {warns} warnings \
                 (triage rejected {}, canonicalized {})",
                trophy.minimized.len(),
                trophy.min_deliveries,
                report.statically_rejected,
                report.statically_canonicalized,
            );
        }
        assert!(
            !report.trophies.is_empty(),
            "{name}: smoke fuzz found no trophy"
        );
    }
    println!("schedule_lint smoke: ok");
}

fn lint_files(model: &ClusterModel, paths: &[String]) -> i32 {
    let mut failures = 0;
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                println!("{path}: unreadable: {e}");
                failures += 1;
                continue;
            }
        };
        match analyze_text(&text, model) {
            Ok(out) => {
                if out.analysis.is_clean() {
                    println!("{path}: clean ({} steps)", out.schedule.len());
                } else {
                    for diag in &out.analysis.diagnostics {
                        println!("{path}:{diag}");
                    }
                    failures += 1;
                }
            }
            Err(e) => {
                println!("{path}: {e}");
                failures += 1;
            }
        }
    }
    i32::from(failures > 0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((first, _)) if first == "--smoke" => smoke(),
        Some((first, rest)) if first == "--model" => match rest.split_first() {
            Some((name, files)) if !files.is_empty() => match named_model(name) {
                Some(model) => std::process::exit(lint_files(&model, files)),
                None => {
                    eprintln!("unknown model `{name}`");
                    std::process::exit(2);
                }
            },
            _ => {
                eprintln!("usage: schedule_lint [--smoke | [--model NAME] FILE...]");
                std::process::exit(2);
            }
        },
        Some(_) => std::process::exit(lint_files(&ClusterModel::permissive(), &args)),
        None => {
            eprintln!("usage: schedule_lint [--smoke | [--model NAME] FILE...]");
            std::process::exit(2);
        }
    }
}
