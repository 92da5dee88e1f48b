//! `check_heavy`: library `Checker` calls with the default builder on heavy
//! seeded histories — solo `check`s and `check_many` batches. No transport.

use crate::inputs::{self, HEAVY_SHAPES};
use crate::stats::{mean, median, object, StealMonitor, Windowed};
use crate::trace::Trace;
use crate::{repeat_setup, Failures, Report, Traced};
use rlt_spec::{
    CheckStats, Checker, Engine, History, ScratchPool, ThreadPolicy, Verdict,
    DEFAULT_SPLIT_THRESHOLD, DEFAULT_STATE_LIMIT,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The sequential verdicts every parallel verdict must equal.
fn sequential_oracle(pool: &[(usize, History<i64>)]) -> Vec<Verdict<i64>> {
    let seq = Checker::builder(0i64)
        .threads(ThreadPolicy::Sequential)
        .build();
    pool.iter().map(|(_, h)| seq.check(h)).collect()
}

pub fn check_heavy(seed: u64, seconds: f64) -> Report {
    let mut fails = Failures::default();
    let ((checker, pool), setup_s) = repeat_setup(
        || {
            let checker = Checker::new(0i64);
            let pool = inputs::heavy_pool(seed);
            for (_, h) in &pool {
                black_box(checker.check(h));
            }
            (checker, pool)
        },
        drop,
    );
    let oracle = sequential_oracle(&pool);
    let histories: Vec<History<i64>> = pool.iter().map(|(_, h)| h.clone()).collect();

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let monitor = StealMonitor::start(start);
    // Solo checks carry the latency; batches add completions, credited across
    // the time each batch ran, and their own latency.
    let (mut lat, mut batches) = (Windowed::new(start), Windowed::new(start));
    let mut decided = 0u64;
    while Instant::now() < deadline {
        for (k, (_, h)) in pool.iter().enumerate() {
            let t = Instant::now();
            let verdict = checker.check(h);
            lat.record(t.elapsed());
            if verdict != oracle[k] {
                fails.fail(format!(
                    "history {k}: parallel verdict differs from sequential"
                ));
            }
        }
        let t = Instant::now();
        let verdicts = checker.check_many(&histories);
        batches.record(t.elapsed());
        lat.complete_over(histories.len() as u64, t);
        if verdicts != oracle {
            fails.fail("check_many verdicts differ from sequential".to_string());
        }
        decided += 2 * pool.len() as u64;
    }

    let mut fields: Vec<(String, String)> = vec![("histories".into(), pool.len().to_string())];
    for (shape, name) in HEAVY_SHAPES.iter().enumerate() {
        let stats: Vec<CheckStats> = pool
            .iter()
            .zip(&oracle)
            .filter(|((s, _), _)| *s == shape)
            .map(|(_, v)| v.stats())
            .collect();
        let sum = |f: &dyn Fn(&CheckStats) -> u64| stats.iter().map(f).sum::<u64>().to_string();
        fields.push((
            (*name).to_string(),
            object(&[
                ("states_explored", sum(&|s| s.states_explored)),
                ("states_memoized", sum(&|s| s.states_memoized)),
                ("memo_probes", sum(&|s| s.memo.probes)),
                ("memo_hits", sum(&|s| s.memo.hits)),
            ]),
        ));
    }

    let steal = monitor.finish();
    let (w, batch) = (
        lat.summary(seconds, &steal),
        batches.summary(seconds, &steal),
    );
    Report {
        attempted: decided,
        fails,
        clients: 1,
        samples: vec![
            ("windows", w.windows),
            ("latency", w.samples),
            ("check_many", batch.samples),
        ],
        counters: object(&fields),
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("throughput_per_s", w.throughput, "1/s"),
            ("latency_p50_us", w.p50, "us"),
            ("latency_p99_us", w.p99, "us"),
            ("check_many_p50_us", batch.p50, "us"),
            ("steal_share", mean(&steal), "ratio"),
        ],
    }
}

/// Wall time of `f` in microseconds.
fn time_us(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e6
}

pub fn traced(seed: u64, seconds: f64, trace: &Arc<Trace>) -> Traced {
    let mut fails = Failures::default();
    let pool = inputs::heavy_pool(seed);
    let oracle = sequential_oracle(&pool);
    let histories: Vec<History<i64>> = pool.iter().map(|(_, h)| h.clone()).collect();
    let (checker, plain) = (Checker::new(0i64), Checker::new(0i64));
    let no_witness = Checker::builder(0i64).witness(false).build();
    let seq = Checker::builder(0i64)
        .threads(ThreadPolicy::Sequential)
        .build();
    let scratch = ScratchPool::new();
    let (mut plain_us, mut traced_us) = (0.0, 0.0);
    let (mut states, mut memo_hits, mut memo_probes) = (Vec::new(), 0u64, 0u64);
    let mut witness = Vec::new();
    // Per shape, then `check_many`: (default-policy times, sequential times).
    let mut auto_vs_seq: Vec<(Vec<f64>, Vec<f64>)> =
        vec![Default::default(); HEAVY_SHAPES.len() + 1];
    let mut op = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        for (k, (shape, h)) in pool.iter().enumerate() {
            op += 1;
            // Untraced reference for the overhead share, alternating sides.
            // The traced side is the check plus the recording of its span.
            let untraced = || {
                time_us(|| {
                    black_box(plain.check(h));
                })
            };
            let early = op.is_multiple_of(2).then(untraced);
            let outer = Instant::now();
            let start = Instant::now();
            let verdict = checker.check(h);
            let end = Instant::now();
            trace.record(op, "checker.check", None, (start, end), false);
            traced_us += outer.elapsed().as_secs_f64() * 1e6;
            plain_us += early.unwrap_or_else(untraced);
            let auto_us = (end - start).as_secs_f64() * 1e6;
            if verdict != oracle[k] {
                fails.fail(format!("traced history {k}: parallel verdict differs"));
            }
            let init = 0i64;
            let engine = trace.time(op, "engine.build", Some("checker.check"), true, || {
                Engine::new(h, &init).with_split_threshold(DEFAULT_SPLIT_THRESHOLD)
            });
            let outcome = trace.time(op, "engine.search", Some("checker.check"), true, || {
                engine.check_with(DEFAULT_STATE_LIMIT, &scratch)
            });
            states.push(outcome.states_explored as f64);
            memo_hits += outcome.memo.hits;
            memo_probes += outcome.memo.probes;
            witness.push(
                auto_us
                    - time_us(|| {
                        black_box(no_witness.check(h));
                    }),
            );
            auto_vs_seq[*shape].0.push(auto_us);
            auto_vs_seq[*shape].1.push(time_us(|| {
                black_box(seq.check(h));
            }));
        }
        let batch = &mut auto_vs_seq[HEAVY_SHAPES.len()];
        batch.0.push(time_us(|| {
            black_box(checker.check_many(&histories));
        }));
        batch.1.push(time_us(|| {
            black_box(seq.check_many(&histories));
        }));
    }
    let speedup: Vec<f64> = auto_vs_seq
        .iter_mut()
        .map(|(auto, seq)| median(seq) / median(auto))
        .collect();
    let layers = ["checker.check", "engine.build", "engine.search"];
    Traced {
        metrics: vec![
            ("engine.build_us", trace.median_us("engine.build"), "us"),
            ("engine.search_us", trace.median_us("engine.search"), "us"),
            ("engine.states_explored", median(&mut states), "count"),
            (
                "engine.memo_hit_ratio",
                memo_hits as f64 / memo_probes.max(1) as f64,
                "ratio",
            ),
            (
                "checker.self_us",
                trace.median_self_us("checker.check"),
                "us",
            ),
            ("checker.witness_us", median(&mut witness), "us"),
            (
                "checker.parallel_speedup.multi_register_3x_160",
                speedup[0],
                "ratio",
            ),
            ("checker.parallel_speedup.lamport_320", speedup[1], "ratio"),
            (
                "checker.parallel_speedup.distinct_value_112",
                speedup[2],
                "ratio",
            ),
            ("checker.parallel_speedup.check_many", speedup[3], "ratio"),
            (
                "trace.unaccounted_share.check_heavy",
                trace.unaccounted_share("checker.check", &layers, 1.0, 0.0),
                "ratio",
            ),
            (
                "trace.overhead_share.check_heavy",
                traced_us / plain_us - 1.0,
                "ratio",
            ),
        ],
        attempted: op,
        fails,
    }
}
