//! Thread-safe history recording for the multi-threaded register implementations.
//!
//! The step simulators ([`crate::algorithm2`], [`crate::algorithm4`]) assign their own
//! logical times. The threaded implementations ([`crate::threaded`]) instead record
//! events through a [`SharedRecorder`], which serializes invocation/response events
//! behind a mutex so every event gets a unique global timestamp in real-time order.

use parking_lot::Mutex;
use rlt_spec::{History, HistoryBuilder, OpId, ProcessId, RegisterId};
use std::fmt;
use std::sync::Arc;

/// A cloneable, thread-safe recorder of register operation histories.
pub struct SharedRecorder<V> {
    inner: Arc<Mutex<HistoryBuilder<V>>>,
}

impl<V> Clone for SharedRecorder<V> {
    fn clone(&self) -> Self {
        SharedRecorder {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<V> fmt::Debug for SharedRecorder<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedRecorder").finish_non_exhaustive()
    }
}

impl<V: Clone> Default for SharedRecorder<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone> SharedRecorder<V> {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        SharedRecorder {
            inner: Arc::new(Mutex::new(HistoryBuilder::new())),
        }
    }

    /// Records a write invocation and returns its operation id.
    pub fn invoke_write(&self, process: ProcessId, register: RegisterId, value: V) -> OpId {
        self.inner.lock().invoke_write(process, register, value)
    }

    /// Records a write response.
    pub fn respond_write(&self, id: OpId) {
        self.inner.lock().respond_write(id);
    }

    /// Records a read invocation and returns its operation id.
    pub fn invoke_read(&self, process: ProcessId, register: RegisterId) -> OpId {
        self.inner.lock().invoke_read(process, register)
    }

    /// Records a read response with the returned value.
    pub fn respond_read(&self, id: OpId, value: V) {
        self.inner.lock().respond_read(id, value);
    }

    /// Snapshot of the history recorded so far.
    #[must_use]
    pub fn history(&self) -> History<V> {
        self.inner.lock().snapshot()
    }

    /// Number of operations recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().operations().len()
    }

    /// Returns `true` if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn records_from_multiple_threads() {
        let recorder: SharedRecorder<i64> = SharedRecorder::new();
        let mut handles = Vec::new();
        for t in 0..4 {
            let rec = recorder.clone();
            handles.push(thread::spawn(move || {
                for i in 0..25 {
                    let id = rec.invoke_write(ProcessId(t), RegisterId(0), (t * 100 + i) as i64);
                    rec.respond_write(id);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let history = recorder.history();
        assert_eq!(history.len(), 100);
        assert_eq!(history.completed().count(), 100);
        // Event times are unique and increasing by construction of HistoryBuilder.
        let times = history.event_times();
        let mut sorted = times.clone();
        sorted.dedup();
        assert_eq!(times.len(), sorted.len());
    }

    #[test]
    fn read_round_trip() {
        let recorder: SharedRecorder<i64> = SharedRecorder::new();
        let id = recorder.invoke_read(ProcessId(0), RegisterId(1));
        recorder.respond_read(id, 9);
        let history = recorder.history();
        assert_eq!(history.get(id).unwrap().read_value(), Some(&9));
        assert!(!recorder.is_empty());
        assert_eq!(recorder.len(), 1);
    }
}
