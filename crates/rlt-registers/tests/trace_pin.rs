//! Pins the exact step timing of both register simulators.
//!
//! Every benchmark history comes out of the Algorithm 4 simulator, and
//! Algorithm 3 reads the Algorithm 2 simulator's timestamp progress, so a
//! refactor of either simulator must reproduce every tick, op id, timestamp and
//! read result. This test renders whole traces — the history through its
//! `Display` form, each read's timestamp, and each write's progress, `Val[k]`
//! write time and final timestamp, all timestamps in `Display` form — over a grid
//! of seeded random runs plus the Theorem 13 executions, and compares an FNV-1a
//! digest of each grid cell against the recorded value.

use rlt_registers::algorithm2::VectorSim;
use rlt_registers::algorithm4::LamportSim;
use rlt_registers::counterexample::{build_base, continue_case1, continue_case2};
use rlt_registers::schedule::{random_run, WorkloadParams};
use rlt_registers::{LamportTrace, VectorTrace};
use std::fmt::{Display, Write};

const SEEDS: std::ops::Range<u64> = 0..8;

/// `(construction, processes, decisions, digest over SEEDS)`.
const GRID: [(&str, usize, usize, u64); 12] = [
    ("vector", 2, 20, 0xb773_055c_744c_7c99),
    ("vector", 2, 160, 0x6973_1b7c_f3cb_8d66),
    ("vector", 3, 20, 0x5d78_ea58_be24_6890),
    ("vector", 3, 160, 0x3f16_cee0_2a4b_6a2a),
    ("vector", 5, 20, 0xce46_35c2_78be_6ae6),
    ("vector", 5, 160, 0x0a59_2e02_3183_2836),
    ("lamport", 2, 20, 0xc9d1_da38_ebdb_a6ea),
    ("lamport", 2, 160, 0x91e8_413d_5401_2be4),
    ("lamport", 3, 20, 0xe6d5_324f_a4bc_825c),
    ("lamport", 3, 160, 0x9fcd_e9c1_d9d3_a4c0),
    ("lamport", 5, 20, 0xd207_faf8_2ee6_0786),
    ("lamport", 5, 160, 0x8705_2ded_cee3_47fb),
];

/// Digest of the base `G` and both continuations of Figure 4.
const THEOREM13: u64 = 0x46f2_8163_6c40_f4b2;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn opt<T: Display>(x: Option<T>) -> String {
    x.map_or_else(|| "-".to_string(), |x| x.to_string())
}

fn render_vector(trace: &VectorTrace) -> String {
    let mut out = format!("n={}\n{}", trace.n, trace.history);
    for (op, ts) in &trace.read_ts {
        writeln!(out, "read {op} ts {ts}").unwrap();
    }
    for w in &trace.writes {
        write!(out, "write {} {} {}", w.op, w.process, w.value).unwrap();
        for (component, value, at) in &w.ts_progress {
            write!(out, " [{component}]={value}@{at}").unwrap();
        }
        let final_ts = w.final_ts.as_ref();
        writeln!(
            out,
            " val@{} final {}",
            opt(w.val_write_time),
            opt(final_ts)
        )
        .unwrap();
    }
    out
}

fn render_lamport(trace: &LamportTrace) -> String {
    let mut out = format!("n={}\n{}", trace.n, trace.history);
    for (op, ts) in &trace.read_ts {
        writeln!(out, "read {op} ts {ts}").unwrap();
    }
    for w in &trace.writes {
        writeln!(
            out,
            "write {} {} {} val@{} final {}",
            w.op,
            w.process,
            w.value,
            opt(w.val_write_time),
            opt(w.final_ts)
        )
        .unwrap();
    }
    out
}

fn render_cell(construction: &str, n: usize, decisions: usize) -> String {
    let params = WorkloadParams {
        decisions,
        write_fraction: 0.5,
    };
    let mut out = String::new();
    for seed in SEEDS {
        out += &if construction == "vector" {
            let mut sim = VectorSim::new(n);
            random_run(&mut sim, seed, params);
            render_vector(&sim.trace())
        } else {
            let mut sim = LamportSim::new(n);
            random_run(&mut sim, seed, params);
            render_lamport(&sim.trace())
        };
    }
    out
}

#[test]
fn random_run_traces_match_the_recorded_digests() {
    let mut mismatches = Vec::new();
    for (construction, n, decisions, expected) in GRID {
        let rendered = render_cell(construction, n, decisions);
        let got = fnv1a(&rendered);
        if got != expected {
            mismatches.push(format!(
                "({construction:?}, {n}, {decisions}, {got:#018x}) expected {expected:#018x}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn theorem13_traces_match_the_recorded_digest() {
    let base = build_base();
    let (case1, _) = continue_case1(base.clone());
    let (case2, _) = continue_case2(base.clone());
    let rendered: String = [base, case1, case2]
        .iter()
        .map(|sim| render_lamport(&sim.trace()))
        .collect();
    assert_eq!(
        fnv1a(&rendered),
        THEOREM13,
        "{:#018x}\n{rendered}",
        fnv1a(&rendered)
    );
}
