//! Asynchronous message-passing substrate and the ABD register implementation.
//!
//! The paper's Section 6 (and Appendix E) shows that *every* linearizable
//! implementation of a SWMR register is necessarily write strongly-linearizable —
//! covering in particular the well-known ABD implementation of SWMR registers in
//! message-passing systems, which is known not to be strongly linearizable. To exercise
//! that result on real executions, this crate provides:
//!
//! * [`AbdCluster`] — a discrete-event simulation of the ABD protocol: `n` processes,
//!   each acting as a replica and a client, communicating through messages whose
//!   delivery order is controlled by the caller (the adversary), with crash failures of
//!   a minority of processes. One state machine runs every flavour: single-writer or
//!   multi-writer ([`AbdCluster::multi_writer`], writes tagged with
//!   `(counter, writer-id)` sequence pairs and driven by the `write-by` schedule
//!   verb), each with or without the read write-back
//!   ([`AbdCluster::without_write_back`]). The write-back-free flavours are the
//!   negative controls whose histories the checkers must reject;
//!   [`FaultyAbdCluster`] names the single-writer one by type.
//! * The shared [`delivery`] core: the index-stable [`InflightQueue`], and
//!   replayable recorded [`Schedule`]s with a stable textual form
//!   (`Display`/`FromStr` round-trip), recorded by [`ScheduleRun`] and replayed
//!   through [`AbdCluster::apply`], the one rule for whether a step fires.
//! * The virtual-time [`faults`] layer every cluster embeds ([`SimNet`]): seeded
//!   per-link drop/duplicate/delay injection ([`FaultInjector`]), named installable
//!   [`Partition`]s, crash-*recovery* with persisted replica state, timeout-driven
//!   client retry with bounded exponential backoff ([`RetryPolicy`]), and a per-run
//!   [`FaultLog`]. Every fault is recorded as a first-class, payload-independent
//!   [`ScheduleStep`], so faulty runs replay bit-identically and ddmin-minimize like
//!   any other schedule; the clock itself is [`rlt_sim::VirtualClock`], shared with
//!   the shared-memory scheduler.
//! * First-class message-schedule [`adversary`] implementations — uniform baseline,
//!   FIFO/LIFO, destination starving, and the targeted [`ReplyWithholdingAdversary`]
//!   that forces the faulty cluster's new/old inversion in a handful of deliveries.
//! * One counterexample hunt, [`hunt_with`]: a seeded open workload (continuous
//!   writes, one reader at a time) under any adversary and failure scenario that
//!   calls its `reject` closure after every step and halts at the first
//!   non-linearizable prefix. [`hunt_with_faults`] runs it with one incremental
//!   checking session, and [`adversary::hunt_new_old_inversion`] runs that under
//!   the clean scenario.
//! * A seeded delta-debugging [`minimize`]r that shrinks a failing schedule to a
//!   1-minimal counterexample which replays deterministically.
//! * A coverage-guided schedule [`mod@fuzz`]er that mutates recorded schedules at scale,
//!   keeps mutants discovering novel checker-state or schedule-shape coverage, and
//!   ddmin-minimizes every confirmed trophy — the untargeted counterpart of the
//!   hand-written adversaries (see the quickstart below).
//! * A static schedule [`analyze`](mod@analyze)r — a pre-replay verifier over the schedule
//!   grammar below — whose canonical forms front the fuzzer's triage and the
//!   minimizer's replay cache (see *Schedule grammar and diagnostics*).
//! * Recorded register-level histories ready to be checked with [`rlt_spec`]:
//!   linearizability via a [`rlt_spec::Checker`] session and the Theorem 14 property
//!   via [`rlt_spec::swmr::SwmrCanonical`] and
//!   [`rlt_spec::strategy::check_write_strong_prefix_property`].
//!
//! # Example
//!
//! ```
//! use rlt_mp::AbdCluster;
//! use rlt_spec::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut cluster = AbdCluster::new(5, ProcessId(0));
//! let mut rng = StdRng::seed_from_u64(1);
//! cluster.start_write(7);
//! cluster.run_to_quiescence(&mut rng, 10_000);
//! cluster.start_read(ProcessId(3));
//! cluster.run_to_quiescence(&mut rng, 10_000);
//! let history = cluster.history();
//! assert!(Checker::new(0i64).check(&history).is_linearizable());
//! ```
//!
//! Hunting a counterexample on the faulty cluster with a targeted adversary, then
//! shrinking it:
//!
//! ```
//! use rlt_mp::adversary::{hunt_new_old_inversion, ReplyWithholdingAdversary};
//! use rlt_mp::minimize::minimize_schedule;
//! use rlt_mp::FaultyAbdCluster;
//! use rlt_spec::{Checker, ProcessId};
//!
//! let checker = Checker::new(0i64);
//! let mut adversary = ReplyWithholdingAdversary::new();
//! let report = hunt_new_old_inversion(
//!     FaultyAbdCluster::new(5, ProcessId(0)).into(),
//!     &mut adversary,
//!     1,      // scenario seed
//!     1_000,  // delivery budget
//!     &checker,
//! );
//! assert!(report.violation_at.is_some());
//! let minimal = minimize_schedule(
//!     || FaultyAbdCluster::new(5, ProcessId(0)).into(),
//!     &report.schedule,
//!     |h| matches!(checker.check(h).outcome(), Ok(false)),
//!     1,
//! )
//! .schedule;
//! let mut replay = FaultyAbdCluster::new(5, ProcessId(0));
//! minimal.replay_on(&mut replay);
//! assert!(!checker.check(&replay.history()).is_linearizable());
//! ```
//!
//! # `fuzz_hunt` quickstart
//!
//! The same counterexample falls out of the *untargeted* coverage-guided fuzzer,
//! starting from nothing but clean recorded schedules (no
//! [`ReplyWithholdingAdversary`]):
//!
//! ```no_run
//! use rlt_mp::fuzz::{fuzz_faulty_rediscovery, FuzzConfig};
//!
//! let report = fuzz_faulty_rediscovery(1, &FuzzConfig::default());
//! let trophy = &report.trophies[0];
//! assert!(trophy.verified && trophy.min_deliveries <= 25);
//! println!("{}", trophy.minimized);
//! ```
//!
//! The run is bit-identical per seed at any `RLT_THREADS`; the CLI front-end is
//! `cargo run --release -p rlt-bench --bin fuzz_hunt -- --smoke`.
//!
//! # Schedule grammar and diagnostics
//!
//! A [`Schedule`] round-trips through a line-oriented text form (blank lines
//! and `#` comments are skipped; parse errors carry the 1-based line number):
//!
//! ```text
//! write 7              # designated writer invokes write(7)
//! write-by 3 7         # process 3 invokes write(7)   (multi-writer clusters)
//! read 2               # process 2 invokes a read
//! crash 1              # process 1 fail-stops
//! recover 1            # process 1 rejoins with persisted replica state
//! deliver 0->1 write-req#1   # deliver the message named by this key
//! drop 0->1 write-req#1      # fault layer drops it
//! dup 0->1 write-req#1       # an extra copy enters flight
//! delay 0->1 write-req#1 5   # park it for 5 virtual ticks
//! partition 1 6        # install partition id 1, side bitmask 0b110
//! heal 1               # heal partition id 1
//! advance              # fast-forward virtual time to the next deadline
//! ```
//!
//! Message keys are `{from}->{to} {kind}#{seq}` with kinds `write-req`,
//! `write-ack`, `read-req`, `read-reply`, `wb-req`, `wb-ack`. Replay is
//! *total*: a step that cannot fire (dead or out-of-range endpoint, missing
//! message, stale fault id) is skipped with zero side effects, which is what
//! makes every sub-sequence of a schedule replayable and ddmin sound.
//!
//! [`analyze`](mod@analyze) decides much of that skipping **statically**. Given a
//! [`ClusterModel`] (process count, designated writer, multi-writer?,
//! write-backs?, retries?; [`AbdCluster::model`] derives it from a cluster's
//! configuration) it walks the schedule once and emits line-numbered
//! [`Diagnostic`]s: `dead`-severity codes mark steps *guaranteed* to be
//! skipped by replay (`dead-recover`, `dead-heal`, `dead-advance`,
//! `crashed-endpoint`, `partition-limbo`, `unsent-key`, `no-write-back`,
//! `client-crashed`, `client-busy`, `not-writer`, `out-of-range`), while
//! `warn`-severity codes flag suspicious-but-live structure
//! (`redundant-crash`, `shadowed-partition`, `unhealed-partition`). [`scrub`]
//! drops the dead steps and [`canonicalize`] sorts adjacent commuting request
//! deliveries, both replay-equivalent — the canonical text keys the fuzzer's
//! static triage ([`fuzz::TriagePolicy::Analyze`]) and the minimizer's replay cache
//! ([`minimize_schedule_with_model`]). `tests/analyze_soundness.rs` proptests
//! the dead-means-dead contract against real replays; the CLI front-end is
//! `cargo run --release -p rlt-bench --bin schedule_lint`, and `rlt-server`
//! exposes the same analysis as `POST /analyze[/{model}]`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod abd;
pub mod adversary;
pub mod analyze;
pub mod delivery;
pub mod faults;
pub mod fuzz;
pub mod minimize;

pub use abd::{AbdCluster, FaultyAbdCluster, ABD_REGISTER, FAULTY_REGISTER, MW_REGISTER};
pub use adversary::{
    DeliveryAdversary, DeliveryView, NewestFirstAdversary, OldestFirstAdversary,
    ReplyWithholdingAdversary, ScriptedAdversary, StarveDestinationAdversary, UniformAdversary,
};
pub use analyze::{
    analyze, analyze_text, canonicalize, scrub, Analysis, ClusterModel, Diagnostic, Severity,
    TextAnalysis,
};
pub use delivery::{
    AbdMessage, ClientEvent, Envelope, EnvelopeKey, InflightQueue, MessageKind, ReplayTrace,
    Schedule, ScheduleParseError, ScheduleRun, ScheduleStep,
};
pub use faults::{
    hunt_with, hunt_with_faults, FaultDecision, FaultInjector, FaultLog, FaultPlan, FaultScenario,
    HuntReport, LinkFaults, LinkOverride, Partition, RetryPolicy, SimNet,
};
pub use fuzz::{
    fuzz, fuzz_faulty_rediscovery, fuzz_mw_rediscovery, fuzz_strong_distinctions,
    record_clean_corpus, FuzzConfig, FuzzReport, FuzzTarget, LinearizabilityTarget,
    StrongFamilyTarget, TriagePolicy, Trophy,
};
pub use minimize::{
    minimize_schedule, minimize_schedule_by, minimize_schedule_with_model, MinimizeReport,
};
