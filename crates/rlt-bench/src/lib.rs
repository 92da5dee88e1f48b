//! Seeded workloads and timing helpers shared by the summary bins.
//!
//! The bins (in `src/bin/`) regenerate the quantitative side of `EXPERIMENTS.md`:
//!
//! * `checkers_summary` — `BENCH_checkers.json` (the checker, batch, memo-arena,
//!   incremental, enumeration and Algorithm 3 rows), `BENCH_game.json` (the cost of
//!   the Figure 1/2 game) and `BENCH_abd.json` (ABD cost, hunts, faults and fuzzing).
//! * `server_load` — `BENCH_server.json` (the checking service under load).
//! * `fuzz_hunt` and `schedule_lint` — the fuzzer and schedule-analyzer smoke runs.
//! * `det_lint` — the determinism lint over first-party sources.

#![warn(missing_docs)]

pub mod abd_summary;

/// Wall-time budget per summary-bin measured point; iterations repeat until it is
/// spent. Shared by `checkers_summary` and `abd_summary` so their wall-clock rows
/// stay comparable.
pub const MEASURE_BUDGET_NANOS: u128 = 200_000_000;

/// The host's CPU count as the standard library reports it (1 when it cannot
/// tell). Every `BENCH_*.json` header records it as `"host_cpus"`, so that
/// nobody compares the files' wall-clock fields across hosts without knowing it.
#[must_use]
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Times `f` repeatedly until [`MEASURE_BUDGET_NANOS`] is spent; returns the mean
/// nanoseconds per iteration, the iteration count, and `f`'s last return value.
pub fn mean_time<F: FnMut() -> bool>(mut f: F) -> (u128, u64, bool) {
    let start = std::time::Instant::now();
    let mut iterations = 0u64;
    let last = loop {
        let outcome = f();
        iterations += 1;
        if start.elapsed().as_nanos() >= MEASURE_BUDGET_NANOS {
            break outcome;
        }
    };
    (
        start.elapsed().as_nanos() / u128::from(iterations),
        iterations,
        last,
    )
}

/// [`mean_time`] over three measurement windows, keeping the fastest one — the
/// best *sustained* rate. Single windows on a shared 1-CPU host occasionally eat a
/// scheduler interference spike that inflates one side of a tracked ratio by
/// 10–20%; the minimum over three windows is stable run to run. Used by the E15
/// stream rows, symmetrically on both sides of the incremental-vs-scratch ratio.
pub fn best_mean_time<F: FnMut() -> bool>(mut f: F) -> (u128, u64, bool) {
    let mut best = mean_time(&mut f);
    for _ in 0..2 {
        let next = mean_time(&mut f);
        if next.0 < best.0 {
            best = next;
        }
    }
    best
}

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlt_registers::algorithm2::VectorSim;
use rlt_registers::algorithm4::LamportSim;
use rlt_registers::schedule::{random_run, WorkloadParams};
use rlt_spec::{History, HistoryBuilder, OpId, Operation, ProcessId, RegisterId};

/// Parameters of the tracked `BENCH_checkers.json` workloads, which
/// `checkers_summary` measures. CI diffs
/// every deterministic field of the regenerated file against the tracked one, so
/// changing any of these redefines what the tracked rows mean — regenerate the
/// JSON in the same commit.
pub mod tracked {
    /// Seed of the single-history workloads (`lamport_history`,
    /// `multi_register_3x`, `distinct_value_register`).
    pub const WORKLOAD_SEED: u64 = 7;
    /// Simulated processes in the Lamport workloads.
    pub const WORKLOAD_PROCESSES: usize = 3;
    /// Registers in the multi-register series.
    pub const MULTI_REGISTERS: usize = 3;
    /// Histories per `engine_batch` row (seeds `WORKLOAD_SEED..+BATCH_SIZE`).
    pub const BATCH_SIZE: u64 = 16;
    /// Histories in the `checker_reused` / `checker_fresh` corpus.
    pub const REUSE_CORPUS: usize = 256;
    /// Max operations per history in the scratch-reuse corpus: small enough that
    /// allocation is a visible fraction of check time, concurrent enough that the
    /// memo table sees real traffic (reuse keeps its grown capacity warm).
    pub const REUSE_MAX_OPS: usize = 14;
    /// Registers in the scratch-reuse corpus.
    pub const REUSE_REGISTERS: usize = 2;
    /// Seed of the scratch-reuse corpus.
    pub const REUSE_SEED: u64 = 42;
    /// Operations in the `memo_arena` large-key workload: past 64 ops the taken
    /// bitset spans two words, so every memo key takes the skip-compacted
    /// multi-word path.
    pub const DISTINCT_VALUE_OPS: usize = 112;
    /// Concurrent writes per burst of the `memo_arena` workload — also its root DFS
    /// frontier.
    pub const DISTINCT_VALUE_BURST: usize = 8;
    /// Decisions per register of the E15 `multi_register_3x_stream` incremental
    /// rows (the single-register stream sizes ride in the row's workload name).
    pub const INCREMENTAL_MULTI_DECISIONS: usize = 40;
}

/// Reorders a history's operation records into invocation order — the order a live
/// monitor receives them. [`rlt_spec::IncrementalChecker::sync_with`] requires the
/// target to grow in place, which [`multi_register_workload`]'s register-major
/// record layout violates once prefixes interleave registers; re-sorting changes
/// nothing about the history's semantics (precedence is carried by the timestamps).
#[must_use]
pub fn invocation_ordered(history: &History<i64>) -> History<i64> {
    let mut ops = history.operations().to_vec();
    ops.sort_by_key(|o| o.invoked_at);
    History::from_operations(ops)
}

/// The checker configuration every E15 stream measurement shares: witness recording
/// off, because a live monitor consumes only the boolean verdict — materializing a
/// witness linearization is O(history) per verdict on *both* sides of the
/// comparison, and monitors re-check the full history once at the halt when they
/// want the witness. Counters are unaffected (the flag only gates the final
/// operation cloning).
#[must_use]
pub fn stream_checker() -> rlt_spec::Checker<i64> {
    rlt_spec::Checker::builder(0i64).witness(false).build()
}

/// One pass of the E15 incremental-stream workload: feeds the growing prefixes to a
/// single [`rlt_spec::IncrementalChecker`] session (in the [`stream_checker`]
/// configuration), taking a verdict after every event — exactly what a live monitor
/// or a hunt loop's recheck does. Returns the session (its
/// [`rlt_spec::IncrementalStats`] carry the tracked deterministic counters) and
/// whether every prefix was linearizable. Callers pre-build the prefixes with
/// [`History::all_prefixes`] so generation stays outside timing.
#[must_use]
pub fn incremental_sweep(prefixes: &[History<i64>]) -> (rlt_spec::IncrementalChecker<i64>, bool) {
    let mut session = stream_checker().incremental();
    let all_linearizable = incremental_resweep(&mut session, prefixes);
    (session, all_linearizable)
}

/// [`incremental_sweep`] over a caller-held session: resets it and re-grows it over
/// `prefixes`, returning whether every prefix verdict was linearizable. The measured
/// E15 sweeps reuse one session this way — [`rlt_spec::IncrementalChecker::reset`]
/// keeps the arenas warm across iterations, as a long-lived monitor does across
/// runs, so the row times the checking work rather than per-iteration allocator
/// traffic. Counters are unaffected (a reset session is observably fresh).
pub fn incremental_resweep(
    session: &mut rlt_spec::IncrementalChecker<i64>,
    prefixes: &[History<i64>],
) -> bool {
    session.reset();
    let mut all_linearizable = true;
    for prefix in prefixes {
        session.sync_with(prefix);
        all_linearizable &= session.verdict_ref().is_linearizable();
    }
    all_linearizable
}

/// Builds an Algorithm 2 trace from a seeded random workload (used by the
/// Algorithm 3 rows so the workload generation is not measured).
#[must_use]
pub fn vector_workload(n: usize, decisions: usize, seed: u64) -> VectorSim {
    let mut sim = VectorSim::new(n);
    random_run(
        &mut sim,
        seed,
        WorkloadParams {
            decisions,
            write_fraction: 0.5,
        },
    );
    sim
}

/// Builds an Algorithm 4 history from a seeded random workload.
#[must_use]
pub fn lamport_workload(n: usize, decisions: usize, seed: u64) -> History<i64> {
    let mut sim = LamportSim::new(n);
    random_run(
        &mut sim,
        seed,
        WorkloadParams {
            decisions,
            write_fraction: 0.5,
        },
    );
    sim.history()
}

/// Interleaves `k` independent single-register histories into one multi-register
/// history: ids, times, and registers are remapped so the per-register subhistories
/// keep their internal structure while sharing one global timeline. Used by the
/// checker benchmarks and by `checkers_summary` (experiments E10/E11).
#[must_use]
pub fn multi_register_workload(k: usize, decisions: usize, seed: u64) -> History<i64> {
    let mut ops: Vec<Operation<i64>> = Vec::new();
    let mut next_id = 0u64;
    for r in 0..k {
        let h = lamport_workload(3, decisions, seed + r as u64);
        for op in h.operations() {
            let mut op = op.clone();
            op.id = rlt_spec::OpId(next_id);
            next_id += 1;
            op.register = RegisterId(r);
            // Spread each register's events over disjoint residues mod k so times stay
            // globally unique while preserving within-register order.
            op.invoked_at = rlt_spec::Time(op.invoked_at.0 * k as u64 + r as u64);
            if let Some(t) = op.responded_at {
                op.responded_at = Some(rlt_spec::Time(t.0 * k as u64 + r as u64));
            }
            ops.push(op);
        }
    }
    History::from_operations(ops)
}

/// A linearizable single-register history that actually exercises the engine's
/// *large-key* memo path: `ops` completed
/// operations (well past the 64 that fit a one-word taken bitset) in bursts of
/// `burst` mutually concurrent writes — every write carrying a globally **distinct**
/// value — each burst followed by a read that pins a seeded-random burst member as
/// the last write.
///
/// The read makes the witness search genuinely permute each burst (backtracking and
/// memo hits over multi-word keys), the distinct values keep the interning table at
/// one id per write, and the first burst *is* the root DFS frontier. Linearizable
/// by construction: order each burst with the read's value last. Used by the
/// `memo_arena` row of `BENCH_checkers.json`.
#[must_use]
pub fn distinct_value_workload(ops: usize, burst: usize, seed: u64) -> History<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b: HistoryBuilder<i64> = HistoryBuilder::new();
    let mut value = 0i64;
    let mut emitted = 0usize;
    while emitted < ops {
        let size = burst.max(1).min(ops - emitted);
        // One process per burst member: a sequential process cannot have two
        // operations pending at once, so the mutually concurrent writes must all
        // come from distinct processes (the reader gets an id above any writer's —
        // it never overlaps them anyway, responding before the next burst starts).
        let ids: Vec<(OpId, i64)> = (0..size)
            .map(|j| {
                value += 1;
                (b.invoke_write(ProcessId(j), RegisterId(0), value), value)
            })
            .collect();
        for (id, _) in &ids {
            b.respond_write(*id);
        }
        emitted += size;
        if emitted < ops {
            let (_, pinned) = ids[rng.gen_range(0..ids.len())];
            b.read(ProcessId(ops), RegisterId(0), pinned);
            emitted += 1;
        }
    }
    b.build()
}

/// A corpus of small seeded well-formed histories (the differential-suite shape:
/// mixed pending/completed operations, small value domain). At ~10 operations a
/// history, allocation is a visible fraction of per-check time — exactly the workload
/// where a reused [`rlt_spec::Checker`]'s warm scratch arenas pay off; the
/// `BENCH_checkers.json` `checker_reused` / `checker_fresh` rows run over this
/// corpus.
#[must_use]
pub fn small_history_corpus(
    count: usize,
    max_ops: usize,
    registers: usize,
    seed: u64,
) -> Vec<History<i64>> {
    (0..count as u64)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i.wrapping_mul(0x9e37)));
            let mut b: HistoryBuilder<i64> = HistoryBuilder::new();
            let mut open: Vec<(OpId, bool)> = Vec::new();
            let n_ops = rng.gen_range(1..=max_ops);
            for _ in 0..n_ops {
                let p = ProcessId(rng.gen_range(0..4));
                let r = RegisterId(rng.gen_range(0..registers));
                if rng.gen_bool(0.5) {
                    let v = rng.gen_range(0..4) as i64;
                    open.push((b.invoke_write(p, r, v), false));
                } else {
                    open.push((b.invoke_read(p, r), true));
                }
                while !open.is_empty() && rng.gen_bool(0.4) {
                    let idx = rng.gen_range(0..open.len());
                    let (id, is_read) = open.swap_remove(idx);
                    if is_read {
                        b.respond_read(id, rng.gen_range(0..4) as i64);
                    } else {
                        b.respond_write(id);
                    }
                }
            }
            for (id, is_read) in std::mem::take(&mut open) {
                if rng.gen_bool(0.5) {
                    if is_read {
                        b.respond_read(id, rng.gen_range(0..4) as i64);
                    } else {
                        b.respond_write(id);
                    }
                }
            }
            b.build()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_helpers_produce_nonempty_histories() {
        let sim = vector_workload(3, 30, 1);
        assert!(!sim.history().is_empty());
        let h = lamport_workload(3, 30, 1);
        assert!(!h.is_empty());
    }

    #[test]
    fn distinct_value_workload_is_linearizable_with_large_keys() {
        let h = distinct_value_workload(112, 12, 7);
        assert_eq!(h.len(), 112, "keys must span more than one taken word");
        let verdict = rlt_spec::Checker::new(0i64).check(&h);
        assert!(verdict.is_linearizable());
        assert!(
            verdict.stats().memo.arena_high_water > 0,
            "the large-key arena must see traffic"
        );
    }

    #[test]
    fn multi_register_workload_spans_k_registers() {
        let h = multi_register_workload(3, 20, 7);
        let mut regs: Vec<_> = h.operations().iter().map(|o| o.register).collect();
        regs.sort_unstable();
        regs.dedup();
        assert_eq!(regs.len(), 3);
    }
}
