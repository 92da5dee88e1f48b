//! Real multi-threaded implementations of both MWMR constructions.
//!
//! The step simulator ([`crate::mwmr::MwmrSim`]) gives full control over
//! interleavings; [`ThreadedRegister`] runs the very same protocol, for any
//! [`Construction`], over lock-based SWMR cells under genuine OS-thread concurrency,
//! recording every MWMR-level operation through a [`SharedRecorder`]. It is used for
//! stress tests (the recorded histories are checked for linearizability) and for the
//! Criterion benchmarks comparing the cost of the vector-timestamp construction
//! ([`VectorRegister`], Algorithm 2) against the Lamport-clock construction
//! ([`LamportRegister`], Algorithm 4).

use crate::algorithm2::Vector;
use crate::algorithm4::Lamport;
use crate::mwmr::{keep_newest, Construction};
use crate::recording::SharedRecorder;
use crate::swmr_cell::SwmrCell;
use rlt_spec::{History, ProcessId, RegisterId};

/// Register id used for the implemented register in recorded histories.
pub const THREADED_REGISTER: RegisterId = RegisterId(300);

/// An MWMR register from SWMR cells, shared by `n` threads.
#[derive(Debug, Clone)]
pub struct ThreadedRegister<C: Construction> {
    n: usize,
    vals: Vec<SwmrCell<(i64, C::Ts)>>,
    recorder: SharedRecorder<i64>,
}

/// Threaded Algorithm 2: a write strongly-linearizable MWMR register.
pub type VectorRegister = ThreadedRegister<Vector>;
/// Threaded Algorithm 4: a linearizable (but not write strongly-linearizable) MWMR
/// register using Lamport clocks.
pub type LamportRegister = ThreadedRegister<Lamport>;

impl<C: Construction> ThreadedRegister<C> {
    /// Creates a register shared by `n >= 2` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "need at least two processes");
        ThreadedRegister {
            n,
            vals: (0..n)
                .map(|i| SwmrCell::new(ProcessId(i), (0, C::initial(n, i))))
                .collect(),
            recorder: SharedRecorder::new(),
        }
    }

    /// Number of processes sharing the register.
    #[must_use]
    pub fn process_count(&self) -> usize {
        self.n
    }

    /// Writes `value` on behalf of process `k`: reads every `Val[i]`, then writes
    /// `(value, ts)` into `Val[k]`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn write(&self, k: ProcessId, value: i64) {
        assert!(k.0 < self.n, "process {k} out of range");
        let op = self.recorder.invoke_write(k, THREADED_REGISTER, value);
        let mut acc = C::start(self.n);
        for (i, cell) in self.vals.iter().enumerate() {
            C::observe(&mut acc, k.0, i, &cell.read().1);
        }
        self.vals[k.0].write(k, (value, C::stamp(&acc, k.0)));
        self.recorder.respond_write(op);
    }

    /// Reads the register on behalf of process `p`: the value with the greatest
    /// timestamp in `Val[-]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn read(&self, p: ProcessId) -> i64 {
        assert!(p.0 < self.n, "process {p} out of range");
        let op = self.recorder.invoke_read(p, THREADED_REGISTER);
        let mut best = None;
        for cell in &self.vals {
            keep_newest(&mut best, cell.read());
        }
        let (value, _) = best.expect("n >= 2 cells");
        self.recorder.respond_read(op, value);
        value
    }

    /// The recorded MWMR-level history.
    #[must_use]
    pub fn history(&self) -> History<i64> {
        self.recorder.history()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlt_spec::Checker;

    /// One checking session shared by every assertion in this module.
    fn is_linearizable(h: &rlt_spec::History<i64>) -> bool {
        static CHECKER: std::sync::OnceLock<Checker<i64>> = std::sync::OnceLock::new();
        CHECKER
            .get_or_init(|| Checker::new(0i64))
            .check(h)
            .is_linearizable()
    }

    use std::thread;

    #[test]
    fn vector_register_sequential_semantics() {
        let reg = VectorRegister::new(3);
        assert_eq!(reg.read(ProcessId(2)), 0);
        reg.write(ProcessId(0), 5);
        assert_eq!(reg.read(ProcessId(2)), 5);
        reg.write(ProcessId(1), 6);
        assert_eq!(reg.read(ProcessId(2)), 6);
        assert!(is_linearizable(&reg.history()));
    }

    #[test]
    fn lamport_register_sequential_semantics() {
        let reg = LamportRegister::new(3);
        assert_eq!(reg.read(ProcessId(2)), 0);
        reg.write(ProcessId(0), 5);
        assert_eq!(reg.read(ProcessId(2)), 5);
        reg.write(ProcessId(1), 6);
        assert_eq!(reg.read(ProcessId(2)), 6);
        assert!(is_linearizable(&reg.history()));
    }

    #[test]
    fn vector_register_concurrent_history_is_linearizable() {
        let reg = VectorRegister::new(4);
        let mut handles = Vec::new();
        for t in 0..4usize {
            let r = reg.clone();
            handles.push(thread::spawn(move || {
                for i in 0..3 {
                    if t % 2 == 0 {
                        r.write(ProcessId(t), (t * 10 + i) as i64 + 1);
                    } else {
                        let _ = r.read(ProcessId(t));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let history = reg.history();
        assert_eq!(history.len(), 12);
        assert!(
            is_linearizable(&history),
            "threaded Algorithm 2 produced a non-linearizable history:\n{history}"
        );
    }

    #[test]
    fn lamport_register_concurrent_history_is_linearizable() {
        let reg = LamportRegister::new(4);
        let mut handles = Vec::new();
        for t in 0..4usize {
            let r = reg.clone();
            handles.push(thread::spawn(move || {
                for i in 0..3 {
                    if t % 2 == 0 {
                        r.write(ProcessId(t), (t * 10 + i) as i64 + 1);
                    } else {
                        let _ = r.read(ProcessId(t));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let history = reg.history();
        assert_eq!(history.len(), 12);
        assert!(
            is_linearizable(&history),
            "threaded Algorithm 4 produced a non-linearizable history:\n{history}"
        );
    }

    #[test]
    fn writes_by_all_processes_are_visible() {
        let reg = VectorRegister::new(3);
        reg.write(ProcessId(0), 1);
        reg.write(ProcessId(1), 2);
        reg.write(ProcessId(2), 3);
        // The last write (causally after the others) must win.
        assert_eq!(reg.read(ProcessId(0)), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_process_is_rejected() {
        let reg = LamportRegister::new(2);
        reg.write(ProcessId(5), 1);
    }
}
