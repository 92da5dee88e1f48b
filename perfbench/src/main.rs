//! The repository benchmark: four workloads driven through public entry
//! points, every verdict checked against the library, end-to-end metrics
//! from untraced runs and a per-layer breakdown from a traced run.
//!
//! ```text
//! perfbench --workload <serve_check|serve_monitor|fuzz_campaign|check_heavy>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Stdout carries four JSON lines: the run fingerprint, the deterministic
//! counter block, the full detail (every metric with its unit and sample
//! counts), and last the result object. See `README.md` beside this crate.

mod fuzz;
mod heavy;
mod inputs;
mod serve;
mod stats;
mod trace;

use stats::{median, num, object, quote};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// The workloads `--workload` accepts. `BENCHMARK.json` gates all but
/// `fuzz_campaign` (see the README); a traced run drives all four.
const WORKLOADS: [&str; 4] = [
    "serve_check",
    "serve_monitor",
    "fuzz_campaign",
    "check_heavy",
];

/// End-to-end metrics every untraced run reports (`BENCHMARK.json`
/// `end_to_end`). The rest — `latency_p99_us`, whose run-to-run spread on a
/// shared host exceeds any bound the benchmark may set, and the
/// workload-specific ones — go to the detail line only.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run reports (`BENCHMARK.json` `per_layer`).
const PER_LAYER: [&str; 43] = [
    "httpd.self_us",
    "httpd.bytes_per_req",
    "handlers.self_us",
    "service.check_self_us",
    "service.session_self_us",
    "service.cache_hit_ratio",
    "service.refused",
    "wire.parse_us",
    "wire.render_us",
    "wire.bytes_parsed",
    "engine.build_us",
    "engine.search_us",
    "engine.states_explored",
    "engine.memo_hit_ratio",
    "checker.self_us",
    "checker.witness_us",
    "checker.parallel_speedup.multi_register_3x_160",
    "checker.parallel_speedup.lamport_320",
    "checker.parallel_speedup.distinct_value_112",
    "checker.parallel_speedup.check_many",
    "incremental.sync_us",
    "incremental.verdict_us",
    "incremental.reuse_ratio",
    "incremental.states",
    "fuzz.mutate_us",
    "fuzz.inspect_us",
    "fuzz.merge_us",
    "fuzz.mutants_executed",
    "fuzz.coverage_units",
    "analyze.triage_us",
    "analyze.rejected_ratio",
    "delivery.replay_us",
    "delivery.deliveries_per_replay",
    "minimize.ddmin_us",
    "minimize.replays",
    "trace.unaccounted_share.serve_check",
    "trace.unaccounted_share.serve_monitor",
    "trace.unaccounted_share.fuzz_campaign",
    "trace.unaccounted_share.check_heavy",
    "trace.overhead_share.serve_check",
    "trace.overhead_share.serve_monitor",
    "trace.overhead_share.fuzz_campaign",
    "trace.overhead_share.check_heavy",
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Failed operations of a run, with the first few reasons kept for stderr.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub notes: Vec<String>,
}

impl Failures {
    pub fn fail(&mut self, note: String) {
        self.count += 1;
        if self.notes.len() < 5 {
            self.notes.push(note);
        }
    }

    pub fn merge(&mut self, other: Failures) {
        self.count += other.count;
        for note in other.notes {
            if self.notes.len() < 5 {
                self.notes.push(note);
            }
        }
    }
}

/// What one workload run measured.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub fails: Failures,
    pub clients: usize,
    /// Sample count behind each percentile family.
    pub samples: Vec<(&'static str, usize)>,
    /// The deterministic counter block (JSON object).
    pub counters: String,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Results of one traced workload: per-layer metrics, ops attempted/failed.
pub struct Traced {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub fails: Failures,
}

/// A workload's traced driver: `(seed, seconds, span store)`.
type TracedDriver = fn(u64, f64, &Arc<trace::Trace>) -> Traced;

/// Runs `setup` [`SETUPS`] times, hands all but the last result to
/// `teardown`, and returns the last with the median set-up time in seconds.
pub fn repeat_setup<S>(mut setup: impl FnMut() -> S, mut teardown: impl FnMut(S)) -> (S, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let t = Instant::now();
        kept = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("SETUPS > 0"), median(&mut times))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run_untraced(args: &Args) -> Report {
    let mut report = match args.workload.as_str() {
        "serve_check" => serve::serve_check(args.seed, args.seconds),
        "serve_monitor" => serve::serve_monitor(args.seed, args.seconds),
        "fuzz_campaign" => fuzz::fuzz_campaign(args.seed, args.seconds),
        _ => heavy::check_heavy(args.seed, args.seconds),
    };
    let error_share = report.fails.count as f64 / report.attempted.max(1) as f64;
    report
        .metrics
        .push(("peak_rss_mb", stats::peak_rss_mib(), "MiB"));
    report.metrics.push(("error_share", error_share, "ratio"));
    report
}

/// The traced run: every workload re-driven for a quarter of the window with
/// spans around the calls into each layer, so every per-layer metric is
/// measured in every traced run whatever `--workload` names.
fn run_traced(args: &Args) -> Report {
    let quarter = args.seconds / 4.0;
    let drivers: [(&str, TracedDriver); 4] = [
        ("serve_check", serve::traced_check),
        ("serve_monitor", serve::traced_monitor),
        ("fuzz_campaign", fuzz::traced),
        ("check_heavy", heavy::traced),
    ];
    let target_dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let mut report = Report {
        attempted: 0,
        fails: Failures::default(),
        clients: 1,
        samples: Vec::new(),
        counters: "{}".to_string(),
        metrics: Vec::new(),
    };
    for (name, driver) in drivers {
        let trace = Arc::new(trace::Trace::new());
        let traced = driver(args.seed, quarter, &trace);
        let path = std::path::Path::new(&target_dir)
            .join("perfbench-traces")
            .join(format!("{name}-seed{}.jsonl", args.seed));
        if let Err(e) = trace.write_jsonl(&path) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        report.attempted += traced.attempted;
        report.samples.push((name, traced.attempted as usize));
        report.fails.merge(traced.fails);
        report.metrics.extend(traced.metrics);
    }
    report
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    let fingerprint = object(&[
        ("workload", quote(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", num(args.seconds)),
        ("trace", u8::from(args.trace).to_string()),
        (
            "host_cpus",
            std::thread::available_parallelism()
                .map_or(0, std::num::NonZeroUsize::get)
                .to_string(),
        ),
        ("pool_width", rayon::current_num_threads().to_string()),
        (
            "commit",
            quote(&std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
        ),
        // Every workload is a closed loop: a client sends its next op only
        // after the previous one completed.
        ("loop", quote("closed")),
        ("clients", report.clients.to_string()),
    ]);
    println!("{}", object(&[("fingerprint", fingerprint)]));
    println!(
        "{}",
        object(&[(
            "counters",
            object(&[
                ("workload", quote(&args.workload)),
                ("seed", args.seed.to_string()),
                ("block", report.counters.clone()),
            ])
        )])
    );
    let with_unit = |v: f64, unit: &str| object(&[("value", num(v)), ("unit", quote(unit))]);
    let all: Vec<(&str, String)> = report
        .metrics
        .iter()
        .map(|&(n, v, u)| (n, with_unit(v, u)))
        .collect();
    let samples: Vec<(&str, String)> = report
        .samples
        .iter()
        .map(|&(n, c)| (n, c.to_string()))
        .collect();
    println!(
        "{}",
        object(&[(
            "detail",
            object(&[
                ("workload", quote(&args.workload)),
                ("seed", args.seed.to_string()),
                ("trace", u8::from(args.trace).to_string()),
                ("metrics", object(&all)),
                ("samples", object(&samples)),
            ])
        )])
    );

    let wanted: Vec<&str> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    let picked: Vec<(&str, String)> = wanted
        .iter()
        .map(|name| {
            let &(_, v, u) = report
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .unwrap_or_else(|| panic!("workload did not report {name}"));
            (*name, with_unit(v, u))
        })
        .collect();
    for note in &report.fails.notes {
        eprintln!("perfbench: FAILED: {note}");
    }
    let correct = report.fails.count == 0 && report.attempted > 0;
    println!(
        "{}",
        object(&[
            ("correct", correct.to_string()),
            ("attempted", report.attempted.max(1).to_string()),
            ("failed", report.fails.count.to_string()),
            ("metrics", object(&picked)),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists above and `BENCHMARK.json` must name the same
    /// metrics, and every workload it gates must be one this binary runs.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let names: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        let metrics: Vec<&str> = END_TO_END
            .iter()
            .map(|(n, _)| *n)
            .chain(PER_LAYER)
            .collect();
        let (workloads, listed) = names.split_at(names.len() - metrics.len());
        assert_eq!(listed, metrics);
        assert!(workloads.iter().all(|w| WORKLOADS.contains(w)));
        for (name, unit) in END_TO_END {
            assert!(json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")));
        }
    }
}
