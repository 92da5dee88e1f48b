//! Register constructions from the paper: MWMR registers built from SWMR registers.
//!
//! This crate contains executable versions of the register algorithms of
//! *"On Register Linearizability and Termination"* (Hadzilacos, Hu, Toueg; PODC 2021):
//!
//! * [`mwmr`] — the one MWMR register both constructions share, as a fine-grained
//!   step simulator ([`MwmrSim`]) so that every low-level access to `Val[-]` is an
//!   explicit, timestamped event. It is generic over a [`Construction`]: how a writer
//!   forms the timestamp it writes, the only thing Algorithms 2 and 4 differ in.
//! * [`algorithm2`] — the **vector-timestamp** construction
//!   ([`Vector`](algorithm2::Vector), the paper's Algorithm 2) and its simulator
//!   [`VectorSim`].
//! * [`algorithm3`] — the **on-line write strong-linearization function** `f` for
//!   Algorithm 2's histories (the paper's Algorithm 3), which is what makes Algorithm 2
//!   write strongly-linearizable (Theorem 10).
//! * [`algorithm4`] — the simpler **Lamport-clock** construction
//!   ([`Lamport`](algorithm4::Lamport), the paper's Algorithm 4) and its simulator
//!   [`LamportSim`]; it is linearizable (Theorem 12) but *not* write
//!   strongly-linearizable (Theorem 13).
//! * [`counterexample`] — the exact histories `G`, `H` (cases 1 and 2) of Theorem 13 /
//!   Figure 4, produced by running Algorithm 4 under the paper's schedules, together
//!   with the existential check that no write strong-linearization function exists.
//! * [`threaded`] — the same protocol for either construction over lock-based SWMR
//!   cells under real multi-threading ([`ThreadedRegister`]), with history recording,
//!   for stress tests and benchmarks.
//! * [`timestamp`] — vector timestamps (with the `∞` initialization Algorithm 2 relies
//!   on) and Lamport `⟨sq, pid⟩` timestamps, both ordered lexicographically.
//! * [`schedule`] — seeded random workloads that drive the step simulator through
//!   many interleavings.
//!
//! # Quick start
//!
//! ```
//! use rlt_registers::algorithm2::VectorSim;
//! use rlt_registers::algorithm3::vector_linearization;
//! use rlt_spec::prelude::*;
//!
//! // Three processes; p0 and p1 write concurrently, p2 reads.
//! let mut sim = VectorSim::new(3);
//! sim.start_write(ProcessId(0), 10);
//! sim.start_write(ProcessId(1), 20);
//! sim.run_round_robin(1_000);
//! sim.start_read(ProcessId(2));
//! sim.run_round_robin(1_000);
//!
//! let trace = sim.trace();
//! let lin = vector_linearization(&trace, None).expect("Algorithm 3 linearizes the run");
//! assert!(lin.is_linearization_of(&trace.history, &0));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algorithm2;
pub mod algorithm3;
pub mod algorithm4;
pub mod counterexample;
pub mod mwmr;
pub mod recording;
pub mod schedule;
pub mod swmr_cell;
pub mod threaded;
pub mod timestamp;

pub use algorithm2::{VectorSim, VectorTrace, WriteTrace};
pub use algorithm3::{vector_linearization, VectorStrategy};
pub use algorithm4::{LamportSim, LamportTrace};
pub use counterexample::{theorem13_family, Theorem13Outcome};
pub use mwmr::{Construction, MwmrSim};
pub use threaded::{LamportRegister, ThreadedRegister, VectorRegister};
pub use timestamp::{LamportTs, TsEntry, VectorTs};
