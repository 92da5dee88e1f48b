//! Experiment E14: the fault matrix — scenario × cluster × verdict.
//!
//! Runs both ABD clusters (the correct one with its read write-back, the faulty one
//! without) through the same deterministic fault scenarios: clean network, 20% loss,
//! a partition window over the writer's side, a crash-with-recovery, and the full
//! lossy-partition gauntlet. Every cell reports the checker's verdict plus the fault
//! log of the run — drops, duplicates, delays, partition holds, purges, dead sends,
//! timer fires, and retransmissions are all counted, never silent.
//!
//! The correct cluster (with timeout-driven retries) stays linearizable in every row;
//! the faulty cluster survives only until a scenario lets the missing write-back
//! matter. All runs are seeded: the table is bit-identical across invocations.
//!
//! Run with: `cargo run --example fault_matrix`

use rlt_core::mp::adversary::ReplyWithholdingAdversary;
use rlt_core::mp::{
    hunt_with_faults, AbdCluster, FaultPlan, FaultScenario, FaultyAbdCluster, Partition,
    RetryPolicy, UniformAdversary,
};
use rlt_core::spec::{Checker, ProcessId};

const N: usize = 5;
const WRITER: ProcessId = ProcessId(0);
const SEEDS: u64 = 8;
const MAX_DELIVERIES: u64 = 400;

fn scenarios() -> Vec<(&'static str, FaultScenario)> {
    let writer_cut = || Partition::new(1, "writer-side-cut", [ProcessId(0), ProcessId(1)]);
    vec![
        ("clean", FaultScenario::new(FaultPlan::clean(), 0xc1ea)),
        (
            "lossy p=0.2",
            FaultScenario::new(FaultPlan::lossy(0.2), 0x105e),
        ),
        (
            "partition+heal",
            FaultScenario::new(FaultPlan::clean(), 0xbeef).with_partition_window(
                6,
                12,
                writer_cut(),
            ),
        ),
        (
            "crash+recover",
            FaultScenario::new(FaultPlan::clean(), 0xdead)
                .with_crash(10, ProcessId(4))
                .with_recovery(30, ProcessId(4)),
        ),
        (
            "lossy+partition",
            FaultScenario::new(FaultPlan::lossy(0.2), 0xfa01).with_partition_window(
                6,
                12,
                writer_cut(),
            ),
        ),
    ]
}

struct Cell {
    rejected: u64,
    first_violation: Option<u64>,
    drops: u64,
    dups: u64,
    delays: u64,
    holds: u64,
    retransmissions: u64,
}

fn run_cell(fresh: impl Fn() -> AbdCluster, scenario: &FaultScenario, targeted: bool) -> Cell {
    let checker = Checker::new(0i64);
    let mut cell = Cell {
        rejected: 0,
        first_violation: None,
        drops: 0,
        dups: 0,
        delays: 0,
        holds: 0,
        retransmissions: 0,
    };
    for seed in 0..SEEDS {
        let report = if targeted {
            let mut adversary = ReplyWithholdingAdversary::new();
            hunt_with_faults(
                fresh(),
                &mut adversary,
                scenario,
                seed,
                MAX_DELIVERIES,
                &checker,
            )
        } else {
            let mut adversary = UniformAdversary::new(seed ^ 0xabd);
            hunt_with_faults(
                fresh(),
                &mut adversary,
                scenario,
                seed,
                MAX_DELIVERIES,
                &checker,
            )
        };
        if let Some(at) = report.violation_at {
            cell.rejected += 1;
            let best = cell.first_violation.map_or(at, |b| b.min(at));
            cell.first_violation = Some(best);
        }
        let log = report.fault_log;
        cell.drops += log.drops;
        cell.dups += log.duplicates;
        cell.delays += log.delays;
        cell.holds += log.partition_holds;
        cell.retransmissions += log.retransmissions;
    }
    cell
}

fn verdict(cell: &Cell) -> String {
    match cell.first_violation {
        None => format!("linearizable ({SEEDS}/{SEEDS} seeds)"),
        Some(at) => format!(
            "REJECTED {}/{} seeds (first at {at} deliveries)",
            cell.rejected, SEEDS
        ),
    }
}

fn main() {
    let retry = RetryPolicy::default();
    println!("E14 fault matrix: n = {N}, {SEEDS} seeds/cell, cap {MAX_DELIVERIES} deliveries");
    println!("cluster rows: correct = ABD with write-back, faulty = write-back elided");
    println!(
        "both clusters retry with backoff base {} cap {}",
        retry.base, retry.cap
    );
    println!();
    println!(
        "{:<16} {:<8} {:<44} {:>6} {:>5} {:>6} {:>6} {:>7}",
        "scenario", "cluster", "verdict", "drops", "dups", "delays", "holds", "retrans"
    );
    for (name, scenario) in scenarios() {
        let correct = run_cell(
            || AbdCluster::new(N, WRITER).with_retries(retry),
            &scenario,
            false,
        );
        let faulty = run_cell(
            || FaultyAbdCluster::new(N, WRITER).with_retries(retry).into(),
            &scenario,
            true,
        );
        for (cluster, cell) in [("correct", &correct), ("faulty", &faulty)] {
            println!(
                "{:<16} {:<8} {:<44} {:>6} {:>5} {:>6} {:>6} {:>7}",
                name,
                cluster,
                verdict(cell),
                cell.drops,
                cell.dups,
                cell.delays,
                cell.holds,
                cell.retransmissions
            );
        }
        assert!(
            correct.first_violation.is_none(),
            "the correct cluster must survive scenario {name}"
        );
    }
    println!();
    println!("every correct-cluster row is linearizable: Theorem 14 survives the fault layer.");
}
