//! Seeded, deterministic, coverage-guided fuzzing of recorded message schedules.
//!
//! PR 5/6 probe the paper's boundary — ABD is linearizable, the write-back-free
//! variant is not — with *hand-targeted* adversaries and fault scenarios. This
//! module is the general weapon: start from a corpus of clean recorded
//! [`Schedule`]s, mutate delivery and fault steps at scale, and keep a mutant iff
//! replaying it discovers **novel coverage**. Coverage is the union of two
//! signals, so both "new protocol state" and "new network weather" count as
//! progress:
//!
//! * the checker's memo-state fingerprints, folded into a [`StateSketch`] whose 64
//!   HLL registers act as an AFL-style coverage map (a mutant is novel when it
//!   raises any register — [`StateSketch::merge_novel`]), and
//! * a schedule-shape signature: one digest per network link over its delivered
//!   message-kind mix (power-of-two bucketed), plus a digest of the fault-step
//!   counts ([`shape_digests`]).
//!
//! Everything is deterministic per seed. Each mutant is a pure function of
//! `(fuzzer seed, generation, parent, mutant index)`, and the whole loop runs on
//! the calling thread: a generation breeds its mutants, gates them on their triage
//! keys, replays the survivors, and merges the outcomes, each phase in task order,
//! so the corpus, coverage, and trophy set are bit-identical at any `RLT_THREADS`.
//! (Spreading a generation's phases over two threads was measured no faster than
//! one thread on a 2-CPU host, so the fuzzer never forks.) Budgets degrade
//! gracefully: the delivery budget is an [`rlt_sim::Budget`] charged in merge
//! order, and a dry budget yields a censored [`FuzzReport`] — never a hang.
//!
//! Every non-linearizable trophy is ddmin-minimized through [`crate::minimize`]
//! and re-verified by two bit-identical replays before it is reported.
//!
//! Three targets ship with the module: the faulty single-writer cluster (the
//! rediscovery benchmark: find the new/old inversion *without* the
//! [`crate::ReplyWithholdingAdversary`]), the correct cluster hunted for
//! strong-linearizability distinctions through [`ExtensionFamily`], and the
//! write-back-free multi-writer stretch target ([`AbdCluster::multi_writer`]).

use crate::adversary::UniformAdversary;
use crate::analyze::{analyze, canonicalize, scrub, ClusterModel};
use crate::delivery::{
    ClientEvent, EnvelopeKey, MessageCluster, MessageKind, Schedule, ScheduleRun, ScheduleStep,
};
use crate::faults::FaultLog;
use crate::minimize::{minimize_schedule, minimize_schedule_by, MinimizeReport};
use crate::{AbdCluster, FaultyAbdCluster};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlt_sim::Budget;
use rlt_spec::{Checker, ExtensionFamily, ProcessId, StateSketch};
use std::collections::BTreeSet;

/// SplitMix64 finalizer: the module's one-stop deterministic hash/seed mixer.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Budgets and knobs of one fuzzing run. Everything is deterministic per
/// [`FuzzConfig::seed`]; the other fields only bound the exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Master seed: mutation streams, energy tie-breaks, and ddmin orders all
    /// derive from it.
    pub seed: u64,
    /// Generation cap.
    pub generations: u32,
    /// Corpus entries mutated per generation (top-energy first).
    pub parents_per_generation: usize,
    /// Mutants bred per parent per generation.
    pub mutants_per_parent: u32,
    /// Hard cap on a mutant's step count (longer mutants are truncated).
    pub max_steps: usize,
    /// Global delivery budget (the [`Budget`] unit is one replayed delivery;
    /// every replay also charges one unit of overhead). A dry budget censors
    /// the report.
    pub delivery_budget: u64,
    /// Stop as soon as the first trophy is confirmed (rediscovery-time mode).
    pub stop_at_first_trophy: bool,
    /// Corpus size cap; once full, novel mutants stop being added (their
    /// coverage still counts).
    pub max_corpus: usize,
    /// ddmin-minimize every trophy (disable only for throughput experiments).
    pub minimize_trophies: bool,
    /// Trophy cap; the run stops once this many distinct trophies exist.
    pub max_trophies: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            generations: 40,
            parents_per_generation: 4,
            mutants_per_parent: 16,
            max_steps: 320,
            delivery_budget: 120_000,
            stop_at_first_trophy: true,
            max_corpus: 192,
            minimize_trophies: true,
            max_trophies: 4,
        }
    }
}

/// What one replay told the fuzzer about a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inspection {
    /// The target's property is violated (a trophy).
    pub violation: bool,
    /// Coverage sketch of the replay (checker memo-state fingerprints).
    pub sketch: StateSketch,
    /// The write-strong extension-family check refused to admit — on a
    /// linearizable SWMR implementation this must never happen (Section 6), so
    /// any count is a soundness alarm, not a trophy.
    pub write_strong_refuted: bool,
    /// A check inside this inspection hit its work cap (result censored).
    pub censored_check: bool,
}

/// How the fuzzer statically triages mutants before spending replays on them
/// (see [`crate::analyze`](mod@crate::analyze)).
///
/// Triage computes a *key* per mutant; a mutant whose key was already seen is
/// rejected without a replay, because an earlier schedule with the same key is
/// guaranteed to replay identically *and* carry identical shape digests — so
/// the duplicate could never contribute novel coverage or a new first trophy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TriagePolicy {
    /// No triage: every mutant replays.
    Off,
    /// Reject only byte-identical resends of already-triaged schedule text.
    /// Sound for *any* target, including ones whose verdict depends on the
    /// schedule's step structure (e.g. [`StrongFamilyTarget`]'s cut point).
    RawIdentity,
    /// Scrub dead steps and canonicalize commuting request deliveries against
    /// a [`ClusterModel`] before comparing, so statically-doomed steps and
    /// step-permutations within a commutative class collapse onto one key.
    /// Only valid when the target's verdict is a function of the replayed
    /// *history* alone (true of [`LinearizabilityTarget`]).
    Analyze(ClusterModel),
}

/// A fuzzing target: how to build a fresh cluster, judge a replay, and shrink a
/// trophy. [`fuzz`] calls it only from the thread that runs the fuzzer.
pub trait FuzzTarget {
    /// Cluster type the schedules replay on.
    type Cluster: MessageCluster;
    /// Display name (report and bench rows).
    fn name(&self) -> &str;
    /// A fresh cluster for one replay.
    fn fresh(&self) -> Self::Cluster;
    /// Judges a replayed schedule: violation, coverage sketch, alarms.
    fn inspect(&self, schedule: &Schedule, replayed: &Self::Cluster) -> Inspection;
    /// ddmin-minimizes a violating schedule (the predicate is the target's own
    /// violation property).
    fn minimize(&self, schedule: &Schedule, seed: u64) -> MinimizeReport;
    /// Static triage policy. The default, [`TriagePolicy::RawIdentity`], is
    /// sound for any target.
    fn triage(&self) -> TriagePolicy {
        TriagePolicy::RawIdentity
    }
}

/// A per-task checker without witnesses: per-task construction keeps the fuzzer
/// free of shared mutable state.
fn seq_checker() -> Checker<i64> {
    Checker::builder(0i64).witness(false).build()
}

/// The plain-linearizability target: a trophy is a replay whose final history
/// the checker rejects. One end-of-replay check suffices — non-linearizability
/// is monotone under extension, so a violating prefix keeps violating.
#[derive(Debug)]
pub struct LinearizabilityTarget<F> {
    name: String,
    make: F,
    model: Option<ClusterModel>,
}

impl<F> LinearizabilityTarget<F> {
    /// A target named `name` over clusters built by `make`.
    pub fn new(name: impl Into<String>, make: F) -> Self {
        LinearizabilityTarget {
            name: name.into(),
            make,
            model: None,
        }
    }

    /// Enables [`TriagePolicy::Analyze`] triage against `model`. Valid because
    /// this target's verdict ([`FuzzTarget::inspect`]) is a function of the
    /// replayed history alone, never of the schedule's step structure.
    #[must_use]
    pub fn with_model(mut self, model: ClusterModel) -> Self {
        self.model = Some(model);
        self
    }
}

impl<C, F> FuzzTarget for LinearizabilityTarget<F>
where
    C: MessageCluster,
    F: Fn() -> C,
{
    type Cluster = C;

    fn name(&self) -> &str {
        &self.name
    }

    fn fresh(&self) -> C {
        (self.make)()
    }

    fn inspect(&self, _schedule: &Schedule, replayed: &C) -> Inspection {
        let checker = seq_checker();
        let (verdict, sketch) = checker.check_sketched(&replayed.history());
        Inspection {
            violation: matches!(verdict.outcome(), Ok(false)),
            sketch,
            write_strong_refuted: false,
            censored_check: !verdict.is_conclusive(),
        }
    }

    fn minimize(&self, schedule: &Schedule, seed: u64) -> MinimizeReport {
        let checker = seq_checker();
        match &self.model {
            Some(model) => crate::minimize::minimize_schedule_with_model(
                || (self.make)(),
                schedule,
                |h| matches!(checker.check(h).outcome(), Ok(false)),
                seed,
                model,
            ),
            None => minimize_schedule(
                || (self.make)(),
                schedule,
                |h| matches!(checker.check(h).outcome(), Ok(false)),
                seed,
            ),
        }
    }

    fn triage(&self) -> TriagePolicy {
        match &self.model {
            Some(model) => TriagePolicy::Analyze(model.clone()),
            None => TriagePolicy::RawIdentity,
        }
    }
}

/// The strong-linearizability distinction target for *correct* clusters.
///
/// A mutant schedule is turned into an [`ExtensionFamily`]: its base is the
/// replay of the schedule with the last `tail` deliveries cut off, and its
/// extensions are (a) the full replay and (b) the cut replay drained
/// oldest-first — all three genuine executions of the implementation, with the
/// base a prefix of both extensions by determinism of replay. A trophy is a
/// family that admits **no** prefix-preserving linearization (the Corollary 11
/// shape): evidence distinguishing the linearizable implementation from a
/// strongly linearizable one. The write-strong variant of the same check must
/// always admit on a linearizable SWMR implementation (Section 6 / Theorem 14),
/// so refusals there are reported as soundness alarms, never trophies.
#[derive(Debug)]
pub struct StrongFamilyTarget<F> {
    name: String,
    make: F,
    /// Deliveries cut off the end to form the family's base.
    tail: usize,
    /// Base-linearization cap per family check.
    max_linearizations: usize,
    /// Enumeration work cap per family check.
    work_limit: u64,
}

impl<F> StrongFamilyTarget<F> {
    /// A target named `name` over clusters built by `make`, with default caps.
    pub fn new(name: impl Into<String>, make: F) -> Self {
        StrongFamilyTarget {
            name: name.into(),
            make,
            tail: 3,
            max_linearizations: 24,
            work_limit: 50_000,
        }
    }
}

impl<C, F> StrongFamilyTarget<F>
where
    C: MessageCluster,
    F: Fn() -> C,
{
    /// Step index cutting off the last `tail` deliveries, if the schedule has
    /// enough of them to form a non-degenerate family.
    fn cut_point(&self, schedule: &Schedule) -> Option<usize> {
        let delivers: Vec<usize> = schedule
            .steps
            .iter()
            .enumerate()
            .filter_map(|(i, s)| matches!(s, ScheduleStep::Deliver(_)).then_some(i))
            .collect();
        (delivers.len() >= self.tail + 2).then(|| delivers[delivers.len() - self.tail])
    }

    /// Builds the family of `schedule` and reports `(strong refused, write-strong
    /// refused, censored)`. `full` is the already-replayed full cluster when the
    /// caller has one (saves a replay).
    fn family_verdicts(&self, schedule: &Schedule, full: Option<&C>) -> (bool, bool, bool) {
        let Some(cut) = self.cut_point(schedule) else {
            return (false, false, false);
        };
        let prefix = Schedule {
            steps: schedule.steps[..cut].to_vec(),
        };
        let mut base_cluster = (self.make)();
        prefix.replay_on(&mut base_cluster);
        let base = base_cluster.history();
        let ext_full = match full {
            Some(c) => c.history(),
            None => {
                let mut c = (self.make)();
                schedule.replay_on(&mut c);
                c.history()
            }
        };
        // Second extension: drain the cut cluster oldest-first for a while — a
        // different but equally real continuation of the same base execution.
        let mut drained = 0;
        while drained < 4 * self.tail as u64 {
            let Some(slot) = base_cluster.queue().oldest_matching(|_| true) else {
                break;
            };
            base_cluster.deliver_slot(slot);
            drained += 1;
        }
        let ext_drain = base_cluster.history();
        if !base.is_prefix_of(&ext_full) || !base.is_prefix_of(&ext_drain) {
            return (false, false, false);
        }
        let family = ExtensionFamily::new(base, vec![ext_full, ext_drain], 0i64);
        let mut censored = false;
        let strong_refused = match family.try_check_strong(self.max_linearizations, self.work_limit)
        {
            Ok(report) => !report.admits,
            Err(_) => {
                censored = true;
                false
            }
        };
        let write_strong_refused =
            match family.try_check_write_strong(self.max_linearizations, self.work_limit) {
                Ok(report) => !report.admits,
                Err(_) => {
                    censored = true;
                    false
                }
            };
        (strong_refused, write_strong_refused, censored)
    }
}

impl<C, F> FuzzTarget for StrongFamilyTarget<F>
where
    C: MessageCluster,
    F: Fn() -> C,
{
    type Cluster = C;

    fn name(&self) -> &str {
        &self.name
    }

    fn fresh(&self) -> C {
        (self.make)()
    }

    fn inspect(&self, schedule: &Schedule, replayed: &C) -> Inspection {
        // Coverage still comes from the plain linearizability check: it feeds
        // the same sketch and doubles as a soundness net (a correct cluster
        // must never produce a non-linearizable history).
        let checker = seq_checker();
        let (verdict, sketch) = checker.check_sketched(&replayed.history());
        let lin_violation = matches!(verdict.outcome(), Ok(false));
        let (strong_refused, write_strong_refused, censored) =
            self.family_verdicts(schedule, Some(replayed));
        Inspection {
            violation: lin_violation || strong_refused,
            sketch,
            write_strong_refuted: write_strong_refused,
            censored_check: censored || !verdict.is_conclusive(),
        }
    }

    fn minimize(&self, schedule: &Schedule, seed: u64) -> MinimizeReport {
        let checker = seq_checker();
        minimize_schedule_by(
            schedule,
            |candidate| {
                let mut cluster = (self.make)();
                candidate.replay_on(&mut cluster);
                if matches!(checker.check(&cluster.history()).outcome(), Ok(false)) {
                    return true;
                }
                self.family_verdicts(candidate, Some(&cluster)).0
            },
            seed,
        )
    }
}

/// Power-of-two bucketing: collapses nearby counts so shape novelty means a
/// qualitatively different mix, not one more message.
fn bucket(count: u64) -> u64 {
    count.next_power_of_two() * u64::from(count != 0)
}

fn kind_class(kind: MessageKind) -> usize {
    match kind {
        MessageKind::WriteReq(_) => 0,
        MessageKind::WriteAck(_) => 1,
        MessageKind::ReadReq(_) => 2,
        MessageKind::ReadReply(_) => 3,
        MessageKind::WriteBackReq(_) => 4,
        MessageKind::WriteBackAck(_) => 5,
    }
}

/// The schedule-shape signature: one digest per link over its per-kind delivery
/// counts (bucketed), plus one digest of the fault- and event-step counts.
/// Deterministic, order-insensitive to merging, and deliberately coarse — the
/// "network weather" half of the coverage signal.
#[must_use]
pub fn shape_digests(schedule: &Schedule) -> Vec<u64> {
    use std::collections::BTreeMap;
    let mut links: BTreeMap<(usize, usize), [u64; 7]> = BTreeMap::new();
    let mut counts = [0u64; 12];
    for step in &schedule.steps {
        match step {
            ScheduleStep::Deliver(key) => {
                let entry = links.entry((key.from.0, key.to.0)).or_default();
                entry[kind_class(key.kind)] += 1;
                entry[6] += 1;
            }
            ScheduleStep::Drop(_) => counts[0] += 1,
            ScheduleStep::Duplicate(_) => counts[1] += 1,
            ScheduleStep::Delay(..) => counts[2] += 1,
            ScheduleStep::Partition { .. } => counts[3] += 1,
            ScheduleStep::Heal(_) => counts[4] += 1,
            ScheduleStep::Advance => counts[5] += 1,
            ScheduleStep::Event(ClientEvent::StartWrite(_)) => counts[6] += 1,
            ScheduleStep::Event(ClientEvent::StartWriteBy(..)) => counts[7] += 1,
            ScheduleStep::Event(ClientEvent::StartRead(_)) => counts[8] += 1,
            ScheduleStep::Event(ClientEvent::Crash(_)) => counts[9] += 1,
            ScheduleStep::Event(ClientEvent::Recover(_)) => counts[10] += 1,
        }
    }
    counts[11] = bucket(schedule.delivery_count() as u64);
    let mut out = BTreeSet::new();
    for ((from, to), kinds) in links {
        let mut h = mix64(0x11_4B ^ ((from as u64) << 32) ^ to as u64);
        for c in kinds {
            h = mix64(h ^ bucket(c));
        }
        out.insert(h);
    }
    let mut h = mix64(0xFA_0575);
    for c in counts {
        h = mix64(h ^ bucket(c));
    }
    out.insert(h);
    out.into_iter().collect()
}

/// Largest process id referenced by the schedule, plus one (floor 3) — the
/// mutator's guess at the cluster size when it fabricates events and masks.
fn inferred_processes(steps: &[ScheduleStep]) -> usize {
    let mut max_p = 0usize;
    for step in steps {
        match step {
            ScheduleStep::Deliver(k)
            | ScheduleStep::Drop(k)
            | ScheduleStep::Duplicate(k)
            | ScheduleStep::Delay(k, _) => max_p = max_p.max(k.from.0).max(k.to.0),
            ScheduleStep::Event(
                ClientEvent::StartRead(p)
                | ClientEvent::Crash(p)
                | ClientEvent::Recover(p)
                | ClientEvent::StartWriteBy(p, _),
            ) => max_p = max_p.max(p.0),
            _ => {}
        }
    }
    (max_p + 1).max(3)
}

/// Drops every `Heal` whose partition id has no earlier `Partition` declaration —
/// the invariant [`Schedule`]'s text grammar enforces at parse time, restored
/// after structural mutation so every mutant round-trips through text.
fn repair_heals(steps: &mut Vec<ScheduleStep>) {
    let mut declared: Vec<u32> = Vec::new();
    steps.retain(|step| match step {
        ScheduleStep::Partition { id, .. } => {
            declared.push(*id);
            true
        }
        ScheduleStep::Heal(id) => declared.contains(id),
        _ => true,
    });
}

/// Keys of the schedule's `Deliver` steps together with their step positions.
fn deliver_positions(steps: &[ScheduleStep]) -> Vec<(usize, EnvelopeKey)> {
    steps
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match s {
            ScheduleStep::Deliver(k) => Some((i, *k)),
            _ => None,
        })
        .collect()
}

/// Stalls one write's propagation: picks a `WriteReq` sequence number seen in the
/// `Deliver` steps and removes every delivery of it except `keep` (chosen among its
/// destinations). The surviving replicas stay stale — the precondition of every
/// new/old inversion, and a conjunction of non-contiguous deletions the generic
/// chunk-delete operator essentially never produces in one mutant.
fn stall_write_propagation(steps: &mut Vec<ScheduleStep>, rng: &mut StdRng) {
    let seqs: BTreeSet<u64> = steps
        .iter()
        .filter_map(|s| match s {
            ScheduleStep::Deliver(EnvelopeKey {
                kind: MessageKind::WriteReq(seq),
                ..
            }) => Some(*seq),
            _ => None,
        })
        .collect();
    if seqs.is_empty() {
        return;
    }
    let &victim = seqs.iter().nth(rng.gen_range(0..seqs.len())).unwrap();
    let fanout = steps
        .iter()
        .filter(|s| {
            matches!(s, ScheduleStep::Deliver(EnvelopeKey { kind: MessageKind::WriteReq(seq), .. }) if *seq == victim)
        })
        .count();
    let keep = rng.gen_range(0..fanout);
    let mut seen = 0usize;
    steps.retain(|s| {
        if matches!(s, ScheduleStep::Deliver(EnvelopeKey { kind: MessageKind::WriteReq(seq), .. }) if *seq == victim)
        {
            seen += 1;
            seen - 1 == keep
        } else {
            true
        }
    });
}

/// Applies one mutation operator to `steps`, drawing all randomness from `rng`.
/// The stall operator gets extra weight (indices 12–15): partially propagated
/// writes are the gateway state to everything this fuzzer hunts.
fn apply_one_mutation(steps: &mut Vec<ScheduleStep>, donor: &Schedule, rng: &mut StdRng) {
    let op = rng.gen_range(0u32..16).min(12);
    let len = steps.len();
    match op {
        // Delete a small chunk, biased away from client events so the recorded
        // op numbering (and with it the tail's envelope keys) tends to survive.
        0 if len > 0 => {
            let mut start = rng.gen_range(0..len);
            if matches!(steps[start], ScheduleStep::Event(_)) && rng.gen_bool(0.7) {
                start = rng.gen_range(0..len);
            }
            let span = 1 + rng.gen_range(0..4usize);
            steps.drain(start..(start + span).min(len));
        }
        // Swap two steps.
        1 if len > 1 => {
            let a = rng.gen_range(0..len);
            let b = rng.gen_range(0..len);
            steps.swap(a, b);
        }
        // Duplicate one step elsewhere.
        2 if len > 0 => {
            let src = rng.gen_range(0..len);
            let dst = rng.gen_range(0..=len);
            let step = steps[src];
            steps.insert(dst, step);
        }
        // Splice a segment of the donor in.
        3 if !donor.steps.is_empty() => {
            let dlen = donor.steps.len();
            let start = rng.gen_range(0..dlen);
            let span = 1 + rng.gen_range(0..6usize);
            let seg: Vec<ScheduleStep> = donor.steps[start..(start + span).min(dlen)].to_vec();
            let at = rng.gen_range(0..=len);
            steps.splice(at..at, seg);
        }
        // Withhold-and-reorder per destination: within a window, every delivery
        // to the victim destination moves (stably) behind everything else.
        4 if len > 1 => {
            let dests: BTreeSet<usize> = deliver_positions(steps)
                .iter()
                .map(|(_, k)| k.to.0)
                .collect();
            if let Some(&victim) = dests.iter().nth(rng.gen_range(0..dests.len().max(1))) {
                let a = rng.gen_range(0..len);
                let b = rng.gen_range(0..len);
                let (lo, hi) = (a.min(b), a.max(b) + 1);
                let window: Vec<ScheduleStep> = steps[lo..hi].to_vec();
                let (mut kept, mut withheld): (Vec<_>, Vec<_>) = (Vec::new(), Vec::new());
                for s in window {
                    match s {
                        ScheduleStep::Deliver(k) if k.to.0 == victim => withheld.push(s),
                        _ => kept.push(s),
                    }
                }
                kept.extend(withheld);
                steps.splice(lo..hi, kept);
            }
        }
        // Inject a drop or duplicate of an in-flight message, right before the
        // step that would have delivered it.
        5 => {
            let delivers = deliver_positions(steps);
            if let Some(&(at, key)) = delivers.get(rng.gen_range(0..delivers.len().max(1))) {
                let fault = if rng.gen_bool(0.5) {
                    ScheduleStep::Drop(key)
                } else {
                    ScheduleStep::Duplicate(key)
                };
                steps.insert(at, fault);
            }
        }
        // Inject a delay, or perturb an existing one.
        6 => {
            let delays: Vec<usize> = steps
                .iter()
                .enumerate()
                .filter_map(|(i, s)| matches!(s, ScheduleStep::Delay(..)).then_some(i))
                .collect();
            if !delays.is_empty() && rng.gen_bool(0.5) {
                let at = delays[rng.gen_range(0..delays.len())];
                if let ScheduleStep::Delay(_, ticks) = &mut steps[at] {
                    *ticks = if rng.gen_bool(0.5) {
                        (*ticks * 2).min(1 << 12)
                    } else {
                        (*ticks / 2).max(1)
                    };
                }
            } else {
                let delivers = deliver_positions(steps);
                if let Some(&(at, key)) = delivers.get(rng.gen_range(0..delivers.len().max(1))) {
                    let ticks = 1u64 << rng.gen_range(0..7u32);
                    steps.insert(at, ScheduleStep::Delay(key, ticks));
                }
            }
        }
        // Install a partition over a random cut for a random window, then heal.
        7 => {
            let procs = inferred_processes(steps);
            let full: u64 = (1 << procs) - 1;
            let side = rng.gen_range(1..full.max(2));
            let id = 64 + rng.gen_range(0..32u32);
            let at = rng.gen_range(0..=len);
            steps.insert(at, ScheduleStep::Partition { id, side });
            let heal_at = rng.gen_range(at + 1..=steps.len());
            steps.insert(heal_at, ScheduleStep::Heal(id));
        }
        // Remove one fault step (repair_heals cleans up any orphaned heal).
        8 => {
            let faults: Vec<usize> = steps
                .iter()
                .enumerate()
                .filter_map(|(i, s)| {
                    (!matches!(s, ScheduleStep::Event(_) | ScheduleStep::Deliver(_))).then_some(i)
                })
                .collect();
            if !faults.is_empty() {
                steps.remove(faults[rng.gen_range(0..faults.len())]);
            }
        }
        // Move one step — this is how crash/recover (and any other event)
        // timing gets perturbed.
        9 if len > 1 => {
            let from = rng.gen_range(0..len);
            let step = steps.remove(from);
            let to = rng.gen_range(0..=steps.len());
            steps.insert(to, step);
        }
        // Insert a client event: a read, a write, a multi-writer write, or a
        // crash/recover pair.
        10 => {
            let procs = inferred_processes(steps);
            let p = ProcessId(rng.gen_range(0..procs));
            let at = rng.gen_range(0..=len);
            match rng.gen_range(0u32..4) {
                0 => steps.insert(at, ScheduleStep::Event(ClientEvent::StartRead(p))),
                1 => {
                    let v = rng.gen_range(1_000i64..10_000);
                    steps.insert(at, ScheduleStep::Event(ClientEvent::StartWrite(v)));
                }
                2 => {
                    let v = rng.gen_range(1_000i64..10_000);
                    steps.insert(at, ScheduleStep::Event(ClientEvent::StartWriteBy(p, v)));
                }
                _ => {
                    steps.insert(at, ScheduleStep::Event(ClientEvent::Crash(p)));
                    let rec_at = rng.gen_range(at + 1..=steps.len());
                    steps.insert(rec_at, ScheduleStep::Event(ClientEvent::Recover(p)));
                }
            }
        }
        // Fast-forward virtual time somewhere (releases delays, fires retries).
        11 => {
            let at = rng.gen_range(0..=len);
            steps.insert(at, ScheduleStep::Advance);
        }
        // Stall one write at a single replica.
        12 => stall_write_propagation(steps, rng),
        _ => {}
    }
}

/// Breeds one mutant: 1–3 stacked operators applied to `parent` (with `donor`
/// supplying splice material), then heal-repair and truncation to `max_steps`.
/// A pure function of its arguments — the determinism pins rely on that.
#[must_use]
pub fn mutate_schedule(
    parent: &Schedule,
    donor: &Schedule,
    max_steps: usize,
    rng: &mut StdRng,
) -> Schedule {
    let mut steps = parent.steps.clone();
    let rounds = rng.gen_range(1u32..=3);
    for _ in 0..rounds {
        apply_one_mutation(&mut steps, donor, rng);
    }
    steps.truncate(max_steps);
    repair_heals(&mut steps);
    Schedule { steps }
}

/// A confirmed, minimized counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trophy {
    /// Generation the raw mutant was bred in (0 = seed corpus).
    pub generation: u32,
    /// The raw violating mutant.
    pub schedule: Schedule,
    /// Its ddmin-minimized form (equal to `schedule` when minimization is off).
    pub minimized: Schedule,
    /// Deliveries in the minimized schedule.
    pub min_deliveries: usize,
    /// Replays the minimizer spent.
    pub ddmin_replays: u64,
    /// Two fresh replays of the minimized schedule produced bit-identical
    /// histories *and* the violation held on them.
    pub verified: bool,
}

/// The outcome of one fuzzing run. Bit-identical per seed at any pool width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzReport {
    /// Target name.
    pub target: String,
    /// Generations actually run (may stop early on budget or trophies).
    pub generations_run: u32,
    /// Mutants replayed and accounted (seed replays included).
    pub mutants_executed: u64,
    /// Budget units spent (deliveries + per-replay overhead).
    pub budget_used: u64,
    /// Final corpus, in insertion order (seed schedules first).
    pub corpus: Vec<Schedule>,
    /// Distinct schedule-shape digests discovered.
    pub shape_units: u64,
    /// HLL estimate of distinct checker memo states covered.
    pub sketch_estimate: u64,
    /// `shape_units + sketch_estimate` — the row the benchmarks normalize per
    /// 1000 deliveries.
    pub coverage_units: u64,
    /// Generation of the first confirmed trophy.
    pub first_trophy_generation: Option<u32>,
    /// Budget units spent when the first trophy was confirmed.
    pub first_trophy_budget: Option<u64>,
    /// Confirmed trophies, deduplicated by minimized text.
    pub trophies: Vec<Trophy>,
    /// Mutants (and seed duplicates) rejected by static triage before costing
    /// a replay: their [`TriagePolicy`] key matched an earlier schedule, so
    /// they could not have contributed novel coverage or a new first trophy.
    pub statically_rejected: u64,
    /// Triaged schedules whose scrubbed + canonicalized form differs from
    /// their raw text (counted when the key is computed, rejected ones
    /// included) — the analyzer's hit-rate numerator.
    pub statically_canonicalized: u64,
    /// Count of write-strong family refusals (soundness alarms; must stay 0).
    pub write_strong_refutations: u64,
    /// Count of censored checks (work caps hit inside inspections).
    pub censored_checks: u64,
    /// The budget ran dry: the report covers a prefix of the planned work.
    pub censored: bool,
    /// Fault counters aggregated over every replay ([`FaultLog::merge`]).
    pub fault_log: FaultLog,
}

struct CorpusEntry {
    schedule: Schedule,
    added_gen: u32,
    yields: u32,
}

/// Energy: coverage yield dominates, recency breaks the rest; id order breaks
/// exact ties, so selection is deterministic.
fn select_parents(corpus: &[CorpusEntry], gen: u32, k: usize) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..corpus.len()).collect();
    let score =
        |e: &CorpusEntry| e.yields * 4 + 8u32.saturating_sub(gen.saturating_sub(e.added_gen));
    ids.sort_by_key(|&i| (std::cmp::Reverse(score(&corpus[i])), i));
    ids.truncate(k.max(1));
    ids
}

struct ReplayOutcome {
    schedule: Schedule,
    delivered: u64,
    inspection: Inspection,
    fault_log: FaultLog,
}

/// Computes a mutant's triage key (and whether canonicalization changed its
/// text). `None` means the policy is [`TriagePolicy::Off`]: never reject.
///
/// For [`TriagePolicy::Analyze`] the key is the scrubbed + canonicalized
/// schedule text joined with the *raw* schedule's [`shape_digests`]: equal keys
/// guarantee both a bit-identical replay (so sketch, violation, and fault log
/// match an earlier run) *and* identical shape digests (dead steps still count
/// toward the shape signal), which together are exactly what `absorb` consumes.
fn triage_key(schedule: &Schedule, policy: &TriagePolicy) -> Option<(String, bool)> {
    match policy {
        TriagePolicy::Off => None,
        TriagePolicy::RawIdentity => Some((schedule.to_string(), false)),
        TriagePolicy::Analyze(model) => {
            let analysis = analyze(schedule, model);
            let canonical = canonicalize(&scrub(schedule, &analysis));
            let changed = canonical != *schedule;
            let mut key = canonical.to_string();
            key.push('\u{1}');
            for digest in shape_digests(schedule) {
                key.push_str(&format!("{digest:x},"));
            }
            Some((key, changed))
        }
    }
}

fn run_schedule<T: FuzzTarget>(target: &T, schedule: Schedule) -> ReplayOutcome {
    let mut cluster = target.fresh();
    let delivered = schedule.replay_on(&mut cluster);
    let inspection = target.inspect(&schedule, &cluster);
    let fault_log = cluster.fault_log();
    ReplayOutcome {
        schedule,
        delivered,
        inspection,
        fault_log,
    }
}

/// Runs the coverage-guided fuzzer: `seeds` is the initial corpus (clean
/// recorded schedules — see [`record_clean_corpus`]), `target` judges replays,
/// `config` bounds the run. Deterministic per `config.seed`: the trophy set,
/// corpus, and every counter are bit-identical at any `RLT_THREADS`.
pub fn fuzz<T: FuzzTarget>(target: &T, seeds: &[Schedule], config: &FuzzConfig) -> FuzzReport {
    let mut budget = Budget::new(config.delivery_budget);
    let mut report = FuzzReport {
        target: target.name().to_string(),
        generations_run: 0,
        mutants_executed: 0,
        budget_used: 0,
        corpus: Vec::new(),
        shape_units: 0,
        sketch_estimate: 0,
        coverage_units: 0,
        first_trophy_generation: None,
        first_trophy_budget: None,
        trophies: Vec::new(),
        statically_rejected: 0,
        statically_canonicalized: 0,
        write_strong_refutations: 0,
        censored_checks: 0,
        censored: false,
        fault_log: FaultLog::default(),
    };
    let mut corpus: Vec<CorpusEntry> = Vec::new();
    let mut shapes: BTreeSet<u64> = BTreeSet::new();
    let mut sketch = StateSketch::default();
    let mut trophy_keys: BTreeSet<String> = BTreeSet::new();
    let policy = target.triage();
    // Triage keys of every schedule accepted for replay so far. Updated
    // sequentially in task order (seeds first), so rejection decisions — and
    // with them every counter — are bit-identical at any pool width.
    let mut seen_keys: BTreeSet<String> = BTreeSet::new();
    // Sequential triage gate: `Some(schedule)` survives to replay, `None` was
    // rejected (its key matched an earlier schedule) and is never charged.
    let gate = |schedule: Schedule,
                key: Option<(String, bool)>,
                report: &mut FuzzReport,
                seen_keys: &mut BTreeSet<String>|
     -> Option<Schedule> {
        let Some((key, changed)) = key else {
            return Some(schedule);
        };
        if changed {
            report.statically_canonicalized += 1;
        }
        if seen_keys.insert(key) {
            Some(schedule)
        } else {
            report.statically_rejected += 1;
            None
        }
    };

    // One merge point for both the seed pass (generation 0) and every breeding
    // generation: charge the budget, fold coverage, confirm trophies — strictly
    // in task order, so the merge is independent of how the pool ran the tasks.
    let mut absorb = |outcome: ReplayOutcome,
                      parent: Option<usize>,
                      gen: u32,
                      budget: &mut Budget,
                      corpus: &mut Vec<CorpusEntry>,
                      report: &mut FuzzReport,
                      shapes: &mut BTreeSet<u64>,
                      sketch: &mut StateSketch|
     -> bool {
        if !budget.take(outcome.delivered + 1) {
            report.censored = true;
            return false;
        }
        report.mutants_executed += 1;
        report.fault_log.merge(&outcome.fault_log);
        if outcome.inspection.write_strong_refuted {
            report.write_strong_refutations += 1;
        }
        if outcome.inspection.censored_check {
            report.censored_checks += 1;
        }
        let mut novel = sketch.merge_novel(&outcome.inspection.sketch);
        for digest in shape_digests(&outcome.schedule) {
            novel |= shapes.insert(digest);
        }
        let violation = outcome.inspection.violation;
        if violation && report.trophies.len() < config.max_trophies {
            let trophy_seed = mix64(config.seed ^ 0xDD17 ^ report.trophies.len() as u64);
            let (minimized, ddmin_replays) = if config.minimize_trophies {
                let min_report = target.minimize(&outcome.schedule, trophy_seed);
                // ddmin replays are real work: charge roughly one schedule's
                // deliveries per replay (refusal just censors later work).
                let _ = budget.take(
                    min_report.replays_tried * (outcome.schedule.delivery_count() as u64 / 2 + 1),
                );
                (min_report.schedule, min_report.replays_tried)
            } else {
                (outcome.schedule.clone(), 0)
            };
            if trophy_keys.insert(minimized.to_string()) {
                let mut a = target.fresh();
                let da = minimized.replay_on(&mut a);
                let mut b = target.fresh();
                let db = minimized.replay_on(&mut b);
                let _ = budget.take(da + db);
                let verified = da == db
                    && a.history() == b.history()
                    && target.inspect(&minimized, &a).violation;
                if report.first_trophy_generation.is_none() {
                    report.first_trophy_generation = Some(gen);
                    report.first_trophy_budget = Some(budget.used());
                }
                report.trophies.push(Trophy {
                    generation: gen,
                    schedule: outcome.schedule.clone(),
                    minimized,
                    min_deliveries: 0,
                    ddmin_replays,
                    verified,
                });
                let last = report.trophies.last_mut().unwrap();
                last.min_deliveries = last.minimized.delivery_count();
            }
        }
        if (novel || violation) && corpus.len() < config.max_corpus {
            corpus.push(CorpusEntry {
                schedule: outcome.schedule,
                added_gen: gen,
                yields: 1,
            });
            if let Some(p) = parent {
                corpus[p].yields += 1;
            }
        }
        true
    };

    // Generation 0: replay the seed corpus itself (triaged like any mutant, so
    // duplicate seed recordings are rejected up front).
    let seed_keys: Vec<_> = seeds.iter().map(|s| triage_key(s, &policy)).collect();
    let survivors: Vec<Schedule> = seeds
        .iter()
        .zip(seed_keys)
        .filter_map(|(s, key)| gate(s.clone(), key, &mut report, &mut seen_keys))
        .collect();
    let seed_outcomes: Vec<_> = survivors
        .into_iter()
        .map(|s| run_schedule(target, s))
        .collect();
    for outcome in seed_outcomes {
        if !absorb(
            outcome,
            None,
            0,
            &mut budget,
            &mut corpus,
            &mut report,
            &mut shapes,
            &mut sketch,
        ) {
            break;
        }
    }

    for gen in 1..=config.generations {
        if report.censored
            || corpus.is_empty()
            || report.trophies.len() >= config.max_trophies
            || (config.stop_at_first_trophy && !report.trophies.is_empty())
        {
            break;
        }
        report.generations_run = gen;
        let parents = select_parents(&corpus, gen, config.parents_per_generation);
        let tasks: Vec<(usize, usize, u64)> = parents
            .iter()
            .enumerate()
            .flat_map(|(pi, &pid)| {
                let donor = parents[(pi + 1) % parents.len()];
                (0..config.mutants_per_parent).map(move |mi| {
                    let task_seed = mix64(
                        config.seed
                            ^ mix64(u64::from(gen))
                            ^ mix64(pid as u64).rotate_left(17)
                            ^ mix64(u64::from(mi)).rotate_left(31),
                    );
                    (pid, donor, task_seed)
                })
            })
            .collect();
        // Phase 1 (pure): breed each mutant and compute its triage key. Phase 2:
        // the gate rejects mutants whose key matched an earlier schedule — they
        // are never replayed or charged. Phase 3: replay the survivors. Phase 4:
        // absorb. Each phase runs in task order, and breeding reads the corpus as
        // it stood before the generation's merge.
        let bred: Vec<_> = tasks
            .iter()
            .map(|&(pid, donor, task_seed)| {
                let mut rng = StdRng::seed_from_u64(task_seed);
                let mutant = mutate_schedule(
                    &corpus[pid].schedule,
                    &corpus[donor].schedule,
                    config.max_steps,
                    &mut rng,
                );
                let key = triage_key(&mutant, &policy);
                (mutant, key)
            })
            .collect();
        let survivors: Vec<Option<Schedule>> = bred
            .into_iter()
            .map(|(mutant, key)| gate(mutant, key, &mut report, &mut seen_keys))
            .collect();
        let outcomes: Vec<_> = survivors
            .into_iter()
            .map(|slot| slot.map(|s| run_schedule(target, s)))
            .collect();
        for (ti, outcome) in outcomes.into_iter().enumerate() {
            let Some(outcome) = outcome else { continue };
            let parent = tasks[ti].0;
            if !absorb(
                outcome,
                Some(parent),
                gen,
                &mut budget,
                &mut corpus,
                &mut report,
                &mut shapes,
                &mut sketch,
            ) {
                break;
            }
        }
    }

    report.budget_used = budget.used();
    report.censored |= budget.is_exhausted();
    report.shape_units = shapes.len() as u64;
    report.sketch_estimate = sketch.estimate_rounded();
    report.coverage_units = report.shape_units + report.sketch_estimate;
    report.corpus = corpus.into_iter().map(|e| e.schedule).collect();
    report
}

/// Records `runs` clean schedules under seeded uniform delivery: the open
/// workload of [`crate::adversary::hunt_new_old_inversion`] (continuous writes,
/// one reader at a time), but *recorded only* — no targeted adversary, no
/// checking. `multi_writer` switches the write side to a random idle process
/// per attempt (using `write-by` events).
pub fn record_clean_corpus<C, F>(
    make: F,
    runs: usize,
    deliveries_per_run: u64,
    seed: u64,
    multi_writer: bool,
) -> Vec<Schedule>
where
    C: MessageCluster,
    F: Fn() -> C,
{
    (0..runs)
        .map(|i| {
            let run_seed = mix64(seed ^ mix64(i as u64));
            let mut run = ScheduleRun::new(make());
            let mut adv = UniformAdversary::new(run_seed);
            let mut rng = StdRng::seed_from_u64(mix64(run_seed ^ 0x00C0_FFEE));
            let n = run.cluster().process_count();
            let writer = run.cluster().writer();
            let mut next_value = 7 + 1_000 * i as i64;
            // Up to two concurrent readers: an inversion needs two *completed*
            // reads around a write, so recordings must be read-rich — mutations
            // can only reorder and withhold deliveries whose keys were recorded,
            // never complete an op the recording left message-less.
            let readers = if multi_writer { 2 } else { 1 };
            let mut active_readers: Vec<ProcessId> = Vec::new();
            while run.deliveries() < deliveries_per_run {
                if active_readers.len() < readers {
                    let r = rng.gen_range(0..n.saturating_sub(1).max(1));
                    let p = ProcessId(if r >= writer.0 && !multi_writer {
                        r + 1
                    } else {
                        r
                    });
                    if !active_readers.contains(&p) && run.start_read(p).is_some() {
                        active_readers.push(p);
                    }
                }
                if multi_writer {
                    // Throttled: unthrottled multi-writer load keeps every
                    // process busy writing and starves the reads out entirely.
                    let p = ProcessId(rng.gen_range(0..n));
                    if rng.gen_bool(0.4)
                        && !active_readers.contains(&p)
                        && run.start_write_by(p, next_value).is_some()
                    {
                        next_value += 1;
                    }
                } else if run.cluster().is_idle(writer) && run.start_write(next_value).is_some() {
                    next_value += 1;
                }
                if !run.deliver_next(&mut adv) {
                    break;
                }
                let cluster = run.cluster();
                active_readers.retain(|&p| !cluster.is_idle(p));
            }
            run.into_schedule()
        })
        .collect()
}

fn fresh_faulty() -> FaultyAbdCluster {
    FaultyAbdCluster::new(5, ProcessId(0))
}

fn fresh_correct() -> AbdCluster {
    AbdCluster::new(5, ProcessId(0))
}

fn fresh_mw_faulty() -> AbdCluster {
    AbdCluster::multi_writer(5).without_write_back()
}

/// The rediscovery benchmark: fuzz the 5-process faulty cluster from clean
/// recorded schedules only, hunting the new/old inversion. `scenario_seed`
/// varies both the recorded corpus and the mutation stream.
#[must_use]
pub fn fuzz_faulty_rediscovery(scenario_seed: u64, config: &FuzzConfig) -> FuzzReport {
    let seeds = record_clean_corpus(fresh_faulty, 3, 60, mix64(scenario_seed ^ 0x5EED), false);
    let target = LinearizabilityTarget::new("faulty-abd", fresh_faulty as fn() -> FaultyAbdCluster)
        .with_model(fresh_faulty().model());
    let config = FuzzConfig {
        seed: scenario_seed,
        ..config.clone()
    };
    fuzz(&target, &seeds, &config)
}

/// The strong-linearizability distinction hunt on the *correct* 5-process
/// cluster (see [`StrongFamilyTarget`]). Trophies here are extension families
/// admitting no prefix-preserving linearization; plain linearizability
/// violations and write-strong refusals would be soundness bugs and are
/// surfaced in the report.
#[must_use]
pub fn fuzz_strong_distinctions(scenario_seed: u64, config: &FuzzConfig) -> FuzzReport {
    let seeds = record_clean_corpus(fresh_correct, 3, 60, mix64(scenario_seed ^ 0x57D0), false);
    let target = StrongFamilyTarget::new("abd-strong", fresh_correct as fn() -> AbdCluster);
    let config = FuzzConfig {
        seed: scenario_seed,
        ..config.clone()
    };
    fuzz(&target, &seeds, &config)
}

/// The multi-writer stretch target: fuzz the write-back-free multi-writer
/// [`AbdCluster`] from clean multi-writer recordings, hunting inversions
/// among competing writers.
#[must_use]
pub fn fuzz_mw_rediscovery(scenario_seed: u64, config: &FuzzConfig) -> FuzzReport {
    let seeds = record_clean_corpus(fresh_mw_faulty, 3, 160, mix64(scenario_seed ^ 0x3700), true);
    let target = LinearizabilityTarget::new("faulty-mw-abd", fresh_mw_faulty as fn() -> AbdCluster)
        .with_model(fresh_mw_faulty().model());
    let config = FuzzConfig {
        seed: scenario_seed,
        ..config.clone()
    };
    fuzz(&target, &seeds, &config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutant_stream_is_byte_identical_per_seed() {
        let seeds = record_clean_corpus(fresh_faulty, 2, 50, 11, false);
        let (parent, donor) = (&seeds[0], &seeds[1]);
        for task_seed in 0..40u64 {
            let mut a = StdRng::seed_from_u64(task_seed);
            let mut b = StdRng::seed_from_u64(task_seed);
            let ma = mutate_schedule(parent, donor, 300, &mut a);
            let mb = mutate_schedule(parent, donor, 300, &mut b);
            assert_eq!(
                ma.to_string(),
                mb.to_string(),
                "task seed {task_seed} diverged"
            );
        }
    }

    #[test]
    fn mutants_round_trip_through_text() {
        let seeds = record_clean_corpus(fresh_faulty, 2, 50, 13, false);
        let mut rng = StdRng::seed_from_u64(99);
        let mut schedule = seeds[0].clone();
        for round in 0..60 {
            schedule = mutate_schedule(&schedule, &seeds[1], 300, &mut rng);
            let text = schedule.to_string();
            let parsed: Schedule = text
                .parse()
                .unwrap_or_else(|e| panic!("round {round}: {e}\n{text}"));
            assert_eq!(parsed, schedule, "round {round}");
        }
    }

    #[test]
    fn shape_digests_are_deterministic_and_coarse() {
        let seeds = record_clean_corpus(fresh_faulty, 1, 50, 17, false);
        let a = shape_digests(&seeds[0]);
        let b = shape_digests(&seeds[0]);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // Buckets collapse single-message perturbations: removing one delivery
        // from a large schedule usually leaves the digest set unchanged.
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(3), 4);
        assert_eq!(bucket(4), 4);
    }

    #[test]
    fn fuzzer_rediscovers_the_new_old_inversion_without_targeted_adversary() {
        let report = fuzz_faulty_rediscovery(1, &FuzzConfig::default());
        assert!(
            !report.trophies.is_empty(),
            "no trophy within budget: {report:?}"
        );
        let t = &report.trophies[0];
        assert!(t.verified, "trophy failed bit-identical re-verification");
        assert!(
            t.min_deliveries <= 25,
            "ddmin left {} deliveries",
            t.min_deliveries
        );
        assert_eq!(report.write_strong_refutations, 0);
    }

    #[test]
    fn dry_budget_censors_instead_of_hanging() {
        let config = FuzzConfig {
            delivery_budget: 40,
            ..FuzzConfig::default()
        };
        let report = fuzz_faulty_rediscovery(2, &config);
        assert!(report.censored, "a 40-delivery budget must censor");
        assert!(report.budget_used <= 40 + 1);
    }

    #[test]
    fn seed_phase_alone_yields_coverage_but_no_trophies() {
        let config = FuzzConfig {
            generations: 0,
            ..FuzzConfig::default()
        };
        let report = fuzz_faulty_rediscovery(3, &config);
        assert!(report.trophies.is_empty(), "clean recordings must pass");
        assert!(report.coverage_units > 0);
        assert!(!report.corpus.is_empty());
    }

    #[test]
    fn multi_writer_stretch_target_finds_inversions() {
        // MW schedules are ~3x longer than SW ones (every write pays a query
        // phase), so the stretch target gets a proportionally larger budget and
        // a handful of scenario seeds.
        let config = FuzzConfig {
            delivery_budget: 400_000,
            ..FuzzConfig::default()
        };
        let mut found = false;
        for seed in 3..6u64 {
            let report = fuzz_mw_rediscovery(seed, &config);
            if let Some(t) = report.trophies.first() {
                assert!(t.verified);
                found = true;
                break;
            }
        }
        assert!(found, "no multi-writer inversion in 3 scenario seeds");
    }

    #[test]
    fn strong_target_runs_deterministically_and_raises_no_alarms() {
        let config = FuzzConfig {
            generations: 3,
            parents_per_generation: 2,
            mutants_per_parent: 4,
            delivery_budget: 20_000,
            stop_at_first_trophy: false,
            ..FuzzConfig::default()
        };
        let a = fuzz_strong_distinctions(5, &config);
        let b = fuzz_strong_distinctions(5, &config);
        assert_eq!(a, b, "strong hunt must be deterministic");
        assert_eq!(
            a.write_strong_refutations, 0,
            "write-strong refusal on correct ABD contradicts Section 6"
        );
    }
}
