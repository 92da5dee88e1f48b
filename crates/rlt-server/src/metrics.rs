//! Service metrics: deterministic counters, the cross-request HLL state sketch,
//! and wall-clock gauges — rendered as stable JSON for `GET /metrics`.
//!
//! The split matters for CI: the counters and the sketch estimate are functions
//! of the request stream alone (every per-check statistic is bit-identical
//! across thread policies, and the HLL merge is an element-wise max —
//! commutative, associative, idempotent — so concurrent merge order cannot
//! change it). The gauges (throughput, uptime, warm arenas, live sessions) are
//! not, so [`Metrics::deterministic_json`] renders only the reproducible subset
//! and the CI smoke run diffs exactly that across `RLT_THREADS` settings.

use parking_lot::Mutex;
use rlt_spec::StateSketch;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counters and sketches for one service instance.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// `POST /check` requests accepted for checking.
    pub check_requests: AtomicU64,
    /// `POST /check_many` requests accepted.
    pub check_many_requests: AtomicU64,
    /// Histories checked inside `check_many` batches.
    pub check_many_histories: AtomicU64,
    /// `POST /linearizations` requests accepted.
    pub linearization_requests: AtomicU64,
    /// Monitoring sessions created.
    pub sessions_created: AtomicU64,
    /// Events (operations/completions) applied to sessions.
    pub session_events: AtomicU64,
    /// Session verdict polls served.
    pub session_verdicts: AtomicU64,
    /// Verdicts proving linearizability.
    pub verdicts_linearizable: AtomicU64,
    /// Verdicts proving non-linearizability.
    pub verdicts_not_linearizable: AtomicU64,
    /// Verdicts where the state budget ran out.
    pub verdicts_inconclusive: AtomicU64,
    /// Interned-verdict cache hits.
    pub cache_hits: AtomicU64,
    /// Interned-verdict cache misses (checks actually run for `/check`).
    pub cache_misses: AtomicU64,
    /// Requests rejected with `400` (wire parse or validation errors).
    pub parse_errors: AtomicU64,
    /// Requests rejected with `404`.
    pub not_found: AtomicU64,
    /// Requests rejected with `429` because the aggregate state budget was
    /// exhausted.
    pub rejected_backpressure: AtomicU64,
    /// Requests rejected with `429` because the history exceeded `max_ops`.
    pub rejected_oversize: AtomicU64,
    /// HLL sketch of distinct memo-state fingerprints across every check this
    /// instance ran.
    pub sketch: Mutex<StateSketch>,
}

impl Metrics {
    /// Fresh metrics with all counters at zero.
    #[must_use]
    pub fn new() -> Self {
        Metrics {
            started: Instant::now(),
            check_requests: AtomicU64::new(0),
            check_many_requests: AtomicU64::new(0),
            check_many_histories: AtomicU64::new(0),
            linearization_requests: AtomicU64::new(0),
            sessions_created: AtomicU64::new(0),
            session_events: AtomicU64::new(0),
            session_verdicts: AtomicU64::new(0),
            verdicts_linearizable: AtomicU64::new(0),
            verdicts_not_linearizable: AtomicU64::new(0),
            verdicts_inconclusive: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            parse_errors: AtomicU64::new(0),
            not_found: AtomicU64::new(0),
            rejected_backpressure: AtomicU64::new(0),
            rejected_oversize: AtomicU64::new(0),
            sketch: Mutex::new(StateSketch::default()),
        }
    }

    /// Classifies a decision into the three verdict counters.
    pub fn count_decision(&self, decision: Option<bool>) {
        match decision {
            Some(true) => &self.verdicts_linearizable,
            Some(false) => &self.verdicts_not_linearizable,
            None => &self.verdicts_inconclusive,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one check's sketch into the instance-wide sketch.
    pub fn observe_sketch(&self, sketch: &StateSketch) {
        self.sketch.lock().merge(sketch);
    }

    /// The deterministic counter subset as stable JSON (fixed key order, no
    /// whitespace): everything that must be bit-identical across thread
    /// policies for the same request stream.
    #[must_use]
    pub fn deterministic_json(&self) -> String {
        let c = |a: &AtomicU64| a.load(Ordering::SeqCst);
        format!(
            "{{\"check_requests\":{},\"check_many_requests\":{},\"check_many_histories\":{},\
             \"linearization_requests\":{},\"sessions_created\":{},\"session_events\":{},\
             \"session_verdicts\":{},\"verdicts_linearizable\":{},\"verdicts_not_linearizable\":{},\
             \"verdicts_inconclusive\":{},\"cache_hits\":{},\"cache_misses\":{},\
             \"parse_errors\":{},\"not_found\":{},\"rejected_backpressure\":{},\
             \"rejected_oversize\":{},\"distinct_states_estimate\":{}}}",
            c(&self.check_requests),
            c(&self.check_many_requests),
            c(&self.check_many_histories),
            c(&self.linearization_requests),
            c(&self.sessions_created),
            c(&self.session_events),
            c(&self.session_verdicts),
            c(&self.verdicts_linearizable),
            c(&self.verdicts_not_linearizable),
            c(&self.verdicts_inconclusive),
            c(&self.cache_hits),
            c(&self.cache_misses),
            c(&self.parse_errors),
            c(&self.not_found),
            c(&self.rejected_backpressure),
            c(&self.rejected_oversize),
            self.sketch.lock().estimate_rounded(),
        )
    }

    /// Full metrics JSON: the deterministic counters plus wall-clock gauges
    /// (`checks_per_sec`, uptime) and the caller's occupancy gauges: idle warm
    /// scratch arenas of the shared checker, live sessions, reserved state budget.
    #[must_use]
    pub fn full_json(
        &self,
        arenas_warm: usize,
        sessions_live: usize,
        in_flight_cost: u64,
    ) -> String {
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let checks = self.check_requests.load(Ordering::SeqCst)
            + self.check_many_histories.load(Ordering::SeqCst)
            + self.session_verdicts.load(Ordering::SeqCst);
        format!(
            "{{\"counters\":{},\"gauges\":{{\"uptime_secs\":{:.3},\"checks_per_sec\":{:.1},\
             \"arenas_warm\":{arenas_warm},\"sessions_live\":{sessions_live},\
             \"in_flight_cost\":{in_flight_cost}}}}}",
            self.deterministic_json(),
            elapsed,
            checks as f64 / elapsed,
        )
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}
