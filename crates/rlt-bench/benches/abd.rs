//! Experiment E8 (cost side): ABD operation cost as the cluster grows and as message
//! schedules degrade.
//!
//! Shape to reproduce: both writes and reads are two message round trips to a majority
//! (reads pay an extra write-back), so cost grows linearly in `n` under random delivery.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rlt_mp::AbdCluster;
use rlt_spec::ProcessId;
use std::hint::black_box;

fn abd_write_then_read(c: &mut Criterion) {
    let mut group = c.benchmark_group("abd_write_then_read");
    group.sample_size(30);
    for &n in &[3usize, 5, 9, 15] {
        group.bench_with_input(BenchmarkId::new("processes", n), &n, |b, &n| {
            b.iter(|| {
                let mut cluster = AbdCluster::new(n, ProcessId(0));
                let mut rng = StdRng::seed_from_u64(1);
                cluster.start_write(7);
                cluster.run_to_quiescence(&mut rng, 1_000_000);
                cluster.start_read(ProcessId(1));
                cluster.run_to_quiescence(&mut rng, 1_000_000);
                black_box(cluster.history().len())
            });
        });
    }
    group.finish();
}

fn abd_with_minority_crashes(c: &mut Criterion) {
    let mut group = c.benchmark_group("abd_minority_crashes");
    group.sample_size(30);
    for &crashes in &[0usize, 1, 2] {
        group.bench_with_input(
            BenchmarkId::new("crashes_of_5", crashes),
            &crashes,
            |b, &k| {
                b.iter(|| {
                    let mut cluster = AbdCluster::new(5, ProcessId(0));
                    let mut rng = StdRng::seed_from_u64(2);
                    for i in 0..k {
                        cluster.crash(ProcessId(4 - i));
                    }
                    cluster.start_write(1);
                    cluster.run_to_quiescence(&mut rng, 1_000_000);
                    cluster.start_read(ProcessId(1));
                    cluster.run_to_quiescence(&mut rng, 1_000_000);
                    black_box(cluster.history().completed().count())
                });
            },
        );
    }
    group.finish();
}

fn abd_adversary_hunt(c: &mut Criterion) {
    // E13 wall-cost side: what one full deliveries-to-counterexample hunt costs under
    // the targeted adversary (checker included) vs one capped uniform hunt. The
    // delivery *counts* are tracked in BENCH_abd.json; this group tracks the price of
    // producing them.
    let mut group = c.benchmark_group("abd_adversary_hunt");
    group.sample_size(20);
    let checker = rlt_spec::Checker::new(0i64);
    group.bench_function("reply_withholding_to_counterexample", |b| {
        b.iter(|| {
            let report = rlt_bench::abd_summary::run_hunt("reply_withholding", 0, &checker);
            black_box(report.violation_at.expect("must find the inversion"))
        });
    });
    group.bench_function("uniform_capped_hunt", |b| {
        b.iter(|| {
            let report = rlt_bench::abd_summary::run_hunt("uniform", 0, &checker);
            black_box(report.deliveries)
        });
    });
    group.finish();
}

fn abd_pipelined_workload(c: &mut Criterion) {
    let mut group = c.benchmark_group("abd_pipelined_workload");
    group.sample_size(20);
    group.bench_function("5_procs_10_ops", |b| {
        b.iter(|| {
            let mut cluster = AbdCluster::new(5, ProcessId(0));
            let mut rng = StdRng::seed_from_u64(3);
            for i in 0..5 {
                cluster.start_write(i + 1);
                cluster.start_read(ProcessId(2));
                cluster.run_to_quiescence(&mut rng, 1_000_000);
            }
            black_box(cluster.history().len())
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = abd_write_then_read, abd_with_minority_crashes, abd_adversary_hunt,
        abd_pipelined_workload
}
criterion_main!(benches);
