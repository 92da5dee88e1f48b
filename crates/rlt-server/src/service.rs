//! The service layer: everything the HTTP handlers delegate to.
//!
//! [`CheckService`] owns the warm state a long-lived checking process
//! accumulates — a pool of configured [`Checker`] sessions (scratch arenas stay
//! allocated across requests), the live [`IncrementalChecker`] monitoring
//! sessions, an interned-verdict cache keyed on request bodies, the aggregate
//! state-budget guard that sheds load, and the instance [`Metrics`]. Handlers
//! translate HTTP to calls on this type; nothing here knows about HTTP.
//!
//! `/check` is cache-first: [`CheckService::check_text`] looks the body up
//! before parsing it, so a repeated body costs one hash and one compare of its
//! bytes. Skipping the parse cannot change a response or a counter: only bodies
//! that parsed and passed `max_ops` are ever cached, and the [`AppConfig`] those
//! rules read never changes after start-up, so a cached body would parse to the
//! same history and the same verdict again. A malformed or oversized body is
//! never cached, so every repeat of it is parsed, rejected and counted.
//!
//! Every verdict leaving this layer is produced by the same library calls a
//! direct consumer would make ([`Checker::check`] / [`IncrementalChecker`]
//! verdicts under the [`AppConfig`] knobs), so server responses are
//! bit-identical to library results — the differential pin in
//! `tests/server_http.rs` holds this.

use crate::config::AppConfig;
use crate::metrics::Metrics;
use parking_lot::Mutex;
use rlt_spec::wire::{format_history, json_escape, parse_history, verdict_to_json, WireError};
use rlt_spec::{Checker, History, IncrementalChecker, OpKind, Operation, StateSketch, Value};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// A service-layer failure, carrying the HTTP status the handlers map it to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Malformed body (wire parse or event validation) → `400`.
    Parse(String),
    /// Unknown session id → `404`.
    NotFound(String),
    /// History larger than `max_ops` → `429` (load shed before any search).
    Oversize(String),
    /// Aggregate state budget exhausted → `429`.
    Backpressure(String),
}

impl ServiceError {
    /// The HTTP status this error maps to.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            ServiceError::Parse(_) => 400,
            ServiceError::NotFound(_) => 404,
            ServiceError::Oversize(_) | ServiceError::Backpressure(_) => 429,
        }
    }

    /// The human-readable message.
    #[must_use]
    pub fn message(&self) -> &str {
        match self {
            ServiceError::Parse(m)
            | ServiceError::NotFound(m)
            | ServiceError::Oversize(m)
            | ServiceError::Backpressure(m) => m,
        }
    }
}

/// One interned verdict: the response it produced and the check's sketch
/// (re-merged into the instance sketch on every hit, which the idempotent HLL
/// merge makes free of double-count risk). The cache keys it by the body.
#[derive(Debug, Clone)]
struct CacheEntry {
    json: String,
    decision: Option<bool>,
    sketch: StateSketch,
}

/// One live monitoring session: the cumulative target operation list (the
/// grown-in-place history [`IncrementalChecker::sync_with_ops`] expects), the
/// validation indexes that keep malformed events from panicking the engine, and
/// the incremental session itself.
#[derive(Debug)]
struct SessionEntry {
    target: Vec<Operation<Value>>,
    /// Event times already used (invocations and responses).
    times: BTreeSet<u64>,
    /// Op id → index in `target`.
    ids: HashMap<u64, usize>,
    inc: IncrementalChecker<Value>,
}

/// RAII reservation against the aggregate state budget.
struct BudgetGuard<'s> {
    service: &'s CheckService,
    cost: u64,
}

impl Drop for BudgetGuard<'_> {
    fn drop(&mut self) {
        self.service
            .in_flight_cost
            .fetch_sub(self.cost, Ordering::SeqCst);
    }
}

/// The long-lived checking service. See the module docs.
#[derive(Debug)]
pub struct CheckService {
    config: AppConfig,
    /// Instance metrics; public so the load generator and tests can read
    /// counters without an HTTP round trip.
    pub metrics: Metrics,
    checkers: Mutex<Vec<Checker<Value>>>,
    sessions: Mutex<HashMap<u64, SessionEntry>>,
    next_session: AtomicU64,
    /// Interned verdicts keyed by the exact request body. The std hasher is
    /// seeded per process, so clients cannot craft bodies that collide.
    cache: Mutex<HashMap<Box<str>, CacheEntry>>,
    in_flight_cost: AtomicU64,
}

impl CheckService {
    /// Creates a service with no warm state yet.
    #[must_use]
    pub fn new(config: AppConfig) -> Self {
        CheckService {
            config,
            metrics: Metrics::new(),
            checkers: Mutex::new(Vec::new()),
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            cache: Mutex::new(HashMap::new()),
            in_flight_cost: AtomicU64::new(0),
        }
    }

    /// The configuration this service runs under.
    #[must_use]
    pub fn config(&self) -> &AppConfig {
        &self.config
    }

    /// Builds a checker with this service's knobs — exactly what a direct
    /// library consumer would configure, which is what makes the differential
    /// pin possible.
    #[must_use]
    pub fn build_checker(&self) -> Checker<Value> {
        Checker::builder(Value::Init)
            .state_budget(self.config.state_budget)
            .enumeration_work_cap(self.config.enumeration_work_cap)
            .witness(self.config.witness)
            .build()
    }

    fn acquire_checker(&self) -> Checker<Value> {
        self.checkers
            .lock()
            .pop()
            .unwrap_or_else(|| self.build_checker())
    }

    fn release_checker(&self, checker: Checker<Value>) {
        let mut pool = self.checkers.lock();
        if pool.len() < self.config.workers.max(1) * 2 {
            pool.push(checker);
        }
    }

    /// Free (warm, idle) checkers currently pooled.
    #[must_use]
    pub fn checkers_warm(&self) -> usize {
        self.checkers.lock().len()
    }

    /// Live monitoring sessions.
    #[must_use]
    pub fn sessions_live(&self) -> usize {
        self.sessions.lock().len()
    }

    /// Currently reserved aggregate state-budget cost.
    #[must_use]
    pub fn in_flight_cost(&self) -> u64 {
        self.in_flight_cost.load(Ordering::SeqCst)
    }

    /// Reserves `cost` against the aggregate budget or sheds the request.
    fn reserve(&self, cost: u64) -> Result<BudgetGuard<'_>, ServiceError> {
        let mut current = self.in_flight_cost.load(Ordering::SeqCst);
        loop {
            if current + cost > self.config.aggregate_state_budget {
                self.metrics
                    .rejected_backpressure
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::Backpressure(format!(
                    "aggregate state budget exhausted: {current} in flight + {cost} requested > {}",
                    self.config.aggregate_state_budget
                )));
            }
            match self.in_flight_cost.compare_exchange(
                current,
                current + cost,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    return Ok(BudgetGuard {
                        service: self,
                        cost,
                    })
                }
                Err(seen) => current = seen,
            }
        }
    }

    fn parse_body(&self, body: &str) -> Result<History<Value>, ServiceError> {
        let history = parse_history(body).map_err(|e: WireError| {
            self.metrics.parse_errors.fetch_add(1, Ordering::Relaxed);
            ServiceError::Parse(e.to_string())
        })?;
        if history.operations().len() > self.config.max_ops {
            self.metrics
                .rejected_oversize
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::Oversize(format!(
                "history has {} operations, limit is {}",
                history.operations().len(),
                self.config.max_ops
            )));
        }
        Ok(history)
    }

    /// `POST /check`: wire-text history in, verdict JSON out.
    ///
    /// Cache first (see the module docs): an interned body is answered before
    /// it is parsed and counted exactly like a parsed hit; any other body is
    /// parsed, admitted, counted as a miss, checked, rendered and interned.
    pub fn check_text(&self, body: &str) -> Result<String, ServiceError> {
        if self.config.cache_capacity > 0 {
            let cache = self.cache.lock();
            if let Some(entry) = cache.get(body) {
                let (json, decision, sketch) = (entry.json.clone(), entry.decision, entry.sketch);
                drop(cache);
                self.metrics.check_requests.fetch_add(1, Ordering::Relaxed);
                self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                self.metrics.count_decision(decision);
                self.metrics.observe_sketch(&sketch);
                return Ok(json);
            }
        }
        let history = self.parse_body(body)?;
        self.metrics.check_requests.fetch_add(1, Ordering::Relaxed);
        self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
        let _budget = self.reserve(self.config.state_budget)?;
        let checker = self.acquire_checker();
        let (verdict, sketch) = checker.check_sketched(&history);
        self.release_checker(checker);
        let decision = verdict.outcome().ok();
        self.metrics.count_decision(decision);
        self.metrics.observe_sketch(&sketch);
        let json = verdict_to_json(&verdict);
        if self.config.cache_capacity > 0 {
            let mut cache = self.cache.lock();
            if cache.len() >= self.config.cache_capacity {
                cache.clear();
            }
            cache.insert(
                body.into(),
                CacheEntry {
                    json: json.clone(),
                    decision,
                    sketch,
                },
            );
        }
        Ok(json)
    }

    /// `POST /check_many`: histories separated by `---` lines, JSON array of
    /// verdicts out (input order). Parse errors carry body-global line numbers.
    pub fn check_many_text(&self, body: &str) -> Result<String, ServiceError> {
        let mut chunks: Vec<(usize, String)> = Vec::new();
        let mut current = String::new();
        let mut start_line = 0usize;
        for (idx, line) in body.lines().enumerate() {
            if line.trim() == "---" {
                chunks.push((start_line, std::mem::take(&mut current)));
                start_line = idx + 1;
            } else {
                current.push_str(line);
                current.push('\n');
            }
        }
        chunks.push((start_line, current));
        let mut histories = Vec::with_capacity(chunks.len());
        for (offset, chunk) in &chunks {
            let history = parse_history(chunk).map_err(|e| {
                self.metrics.parse_errors.fetch_add(1, Ordering::Relaxed);
                ServiceError::Parse(
                    WireError {
                        line: e.line + offset,
                        message: e.message,
                    }
                    .to_string(),
                )
            })?;
            if history.operations().len() > self.config.max_ops {
                self.metrics
                    .rejected_oversize
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::Oversize(format!(
                    "history starting at line {} has {} operations, limit is {}",
                    offset + 1,
                    history.operations().len(),
                    self.config.max_ops
                )));
            }
            histories.push(history);
        }
        self.metrics
            .check_many_requests
            .fetch_add(1, Ordering::Relaxed);
        self.metrics
            .check_many_histories
            .fetch_add(histories.len() as u64, Ordering::Relaxed);
        let _budget = self.reserve(self.config.state_budget * histories.len() as u64)?;
        let checker = self.acquire_checker();
        // One pooled checker across the whole batch keeps scratch warm between
        // histories; each solo check is bit-identical to `Checker::check_many`'s
        // per-entry results (that equality is pinned by the library's own tests).
        let mut out = String::from("[");
        for (i, history) in histories.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (verdict, sketch) = checker.check_sketched(history);
            self.metrics.count_decision(verdict.outcome().ok());
            self.metrics.observe_sketch(&sketch);
            out.push_str(&verdict_to_json(&verdict));
        }
        out.push(']');
        self.release_checker(checker);
        Ok(out)
    }

    /// `POST /linearizations`: streams up to `max` linearization orders of the
    /// body history, bounded by the service's enumeration work cap.
    pub fn linearizations_text(
        &self,
        body: &str,
        max: Option<usize>,
    ) -> Result<String, ServiceError> {
        let history = self.parse_body(body)?;
        self.metrics
            .linearization_requests
            .fetch_add(1, Ordering::Relaxed);
        let _budget = self.reserve(self.config.state_budget)?;
        let cap = max
            .unwrap_or(self.config.max_linearizations)
            .min(self.config.max_linearizations);
        let checker = self.acquire_checker();
        let mut orders: Vec<Vec<u64>> = Vec::new();
        let mut work_capped = false;
        let mut truncated = false;
        for item in checker.linearizations(&history) {
            match item {
                Ok(order) => {
                    if orders.len() == cap {
                        truncated = true;
                        break;
                    }
                    orders.push(order.iter().map(|id| id.0).collect());
                }
                Err(_) => {
                    work_capped = true;
                    break;
                }
            }
        }
        self.release_checker(checker);
        let mut out = String::from("{\"linearizations\":[");
        for (i, order) in orders.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, id) in order.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&id.to_string());
            }
            out.push(']');
        }
        out.push_str(&format!(
            "],\"count\":{},\"truncated\":{truncated},\"work_capped\":{work_capped}}}",
            orders.len()
        ));
        Ok(out)
    }

    /// `POST /analyze[/{model}]`: statically analyzes a schedule program
    /// ([`rlt_mp::analyze::analyze_text`]) without replaying it, returning the
    /// line-numbered diagnostics as byte-stable JSON. `model` selects the
    /// cluster shape the analyzer may assume; `None` assumes nothing
    /// ([`rlt_mp::ClusterModel::permissive`]).
    pub fn analyze_text(&self, model: Option<&str>, body: &str) -> Result<String, ServiceError> {
        let model = match model {
            None => rlt_mp::ClusterModel::permissive(),
            Some(name) => match rlt_mp::AbdCluster::named(name) {
                Some(cluster) => cluster.model(),
                None => {
                    return Err(ServiceError::NotFound(format!(
                        "no such cluster model `{name}`"
                    )))
                }
            },
        };
        let out =
            rlt_mp::analyze_text(body, &model).map_err(|e| ServiceError::Parse(e.to_string()))?;
        let mut json = format!(
            "{{\"clean\":{},\"steps\":{},\"dead_steps\":{},\"diagnostics\":[",
            out.analysis.is_clean(),
            out.schedule.len(),
            out.analysis.dead_steps()
        );
        for (i, diag) in out.analysis.diagnostics.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!(
                "{{\"step\":{},\"line\":{},\"severity\":\"{}\",\"code\":\"{}\",\"message\":\"{}\"}}",
                diag.step,
                diag.line,
                diag.severity,
                diag.code,
                json_escape(&diag.message)
            ));
        }
        json.push_str("]}");
        Ok(json)
    }

    /// `POST /sessions`: creates a monitoring session, optionally seeded with an
    /// initial wire-text history. Returns `(session id, ops applied)`. The seed's
    /// events count towards `session_events` only once the session exists.
    pub fn create_session(&self, initial: &str) -> Result<(u64, usize), ServiceError> {
        let mut entry = SessionEntry {
            target: Vec::new(),
            times: BTreeSet::new(),
            ids: HashMap::new(),
            inc: self.build_checker().incremental(),
        };
        let applied = if initial.trim().is_empty() {
            0
        } else {
            let (applied, seeded) = self.apply_events(&mut entry, initial);
            seeded?;
            applied
        };
        let ops = entry.target.len();
        // The limit is checked under the lock that inserts, so concurrent creates
        // can never both pass it.
        let mut sessions = self.sessions.lock();
        if sessions.len() >= self.config.max_sessions {
            self.metrics
                .rejected_backpressure
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::Backpressure(format!(
                "session limit reached ({})",
                self.config.max_sessions
            )));
        }
        let id = self.next_session.fetch_add(1, Ordering::SeqCst);
        sessions.insert(id, entry);
        drop(sessions);
        self.metrics
            .sessions_created
            .fetch_add(1, Ordering::Relaxed);
        self.metrics
            .session_events
            .fetch_add(applied, Ordering::Relaxed);
        Ok((id, ops))
    }

    /// `POST /sessions/{id}/events`: applies wire-text events (new operations
    /// and completions of pending ones) to a session. Returns the session's
    /// total operation count. On error the events before the offending one stay
    /// applied, synced and counted.
    pub fn session_events(&self, id: u64, body: &str) -> Result<usize, ServiceError> {
        let mut sessions = self.sessions.lock();
        let entry = sessions.get_mut(&id).ok_or_else(|| {
            self.metrics.not_found.fetch_add(1, Ordering::Relaxed);
            ServiceError::NotFound(format!("no session {id}"))
        })?;
        let (applied, result) = self.apply_events(entry, body);
        self.metrics
            .session_events
            .fetch_add(applied, Ordering::Relaxed);
        result.map(|()| entry.target.len())
    }

    /// Parses one events body and merges it into the session's target list,
    /// validating everything that would otherwise panic the engine (duplicate
    /// ids, reused event times, contradictory completions), then syncs the
    /// incremental session. Events apply in order; on error the already-applied
    /// prefix stays (the error names the offending op) and is synced too.
    /// Returns the number of events applied, for the caller to count, beside
    /// the outcome.
    fn apply_events(
        &self,
        entry: &mut SessionEntry,
        body: &str,
    ) -> (u64, Result<(), ServiceError>) {
        let parsed = match parse_history(body) {
            Ok(parsed) => parsed,
            Err(e) => {
                self.metrics.parse_errors.fetch_add(1, Ordering::Relaxed);
                return (0, Err(ServiceError::Parse(e.to_string())));
            }
        };
        let ops = parsed.operations();
        if entry.target.len() + ops.len() > self.config.max_ops {
            self.metrics
                .rejected_oversize
                .fetch_add(1, Ordering::Relaxed);
            return (
                0,
                Err(ServiceError::Oversize(format!(
                    "session would grow to {} operations, limit is {}",
                    entry.target.len() + ops.len(),
                    self.config.max_ops
                ))),
            );
        }
        let mut applied = 0u64;
        let result = ops.iter().try_for_each(|op| {
            applied += u64::from(self.merge_event(entry, op)?);
            Ok(())
        });
        entry.inc.sync_with_ops(&entry.target);
        (applied, result)
    }

    /// Merges one event into the session's target list. `Ok(false)` is an
    /// idempotent repeat of an event already recorded.
    fn merge_event(
        &self,
        entry: &mut SessionEntry,
        op: &Operation<Value>,
    ) -> Result<bool, ServiceError> {
        let parse_err = |m: String| {
            self.metrics.parse_errors.fetch_add(1, Ordering::Relaxed);
            ServiceError::Parse(m)
        };
        if let Some(&i) = entry.ids.get(&op.id.0) {
            let existing = &entry.target[i];
            if existing == op {
                return Ok(false);
            }
            let Some(resp) = op.responded_at else {
                return Err(parse_err(format!(
                    "op{} disagrees with its already-recorded invocation",
                    op.id.0
                )));
            };
            if existing.responded_at.is_some() {
                return Err(parse_err(format!("op{} is already completed", op.id.0)));
            }
            let agrees = existing.process == op.process
                && existing.register == op.register
                && existing.invoked_at == op.invoked_at
                && match (&existing.kind, &op.kind) {
                    (OpKind::Write(a), OpKind::Write(b)) => a == b,
                    (OpKind::Read(_), OpKind::Read(_)) => true,
                    _ => false,
                };
            if !agrees {
                return Err(parse_err(format!(
                    "completion of op{} contradicts its pending invocation",
                    op.id.0
                )));
            }
            if !entry.times.insert(resp.0) {
                return Err(parse_err(format!(
                    "response time t{} of op{} is already used",
                    resp.0, op.id.0
                )));
            }
            entry.target[i] = op.clone();
        } else {
            if !entry.times.insert(op.invoked_at.0) {
                return Err(parse_err(format!(
                    "invocation time t{} of op{} is already used",
                    op.invoked_at.0, op.id.0
                )));
            }
            if let Some(resp) = op.responded_at {
                if !entry.times.insert(resp.0) {
                    entry.times.remove(&op.invoked_at.0);
                    return Err(parse_err(format!(
                        "response time t{} of op{} is already used",
                        resp.0, op.id.0
                    )));
                }
            }
            entry.ids.insert(op.id.0, entry.target.len());
            entry.target.push(op.clone());
        }
        Ok(true)
    }

    /// `GET /sessions/{id}/verdict`: the session's incremental verdict as JSON —
    /// `{"verdict":<batch-identical verdict>,"incremental":{...counters...}}`.
    pub fn session_verdict(&self, id: u64) -> Result<String, ServiceError> {
        let mut sessions = self.sessions.lock();
        let entry = sessions.get_mut(&id).ok_or_else(|| {
            self.metrics.not_found.fetch_add(1, Ordering::Relaxed);
            ServiceError::NotFound(format!("no session {id}"))
        })?;
        let _budget = self.reserve(self.config.state_budget)?;
        let verdict = entry.inc.verdict();
        let sketch = entry.inc.state_sketch();
        self.metrics
            .session_verdicts
            .fetch_add(1, Ordering::Relaxed);
        self.metrics
            .count_decision(verdict.as_verdict().outcome().ok());
        self.metrics.observe_sketch(&sketch);
        let inc = verdict.incremental_stats();
        Ok(format!(
            "{{\"verdict\":{},\"incremental\":{{\"ops_appended\":{},\"completions\":{},\
             \"verdicts\":{},\"registers_reused\":{},\"registers_resumed\":{},\
             \"registers_researched\":{},\"incremental_states\":{},\"full_rebuilds\":{},\
             \"full_fallbacks\":{}}}}}",
            verdict_to_json(verdict.as_verdict()),
            inc.ops_appended,
            inc.completions,
            inc.verdicts,
            inc.registers_reused,
            inc.registers_resumed,
            inc.registers_researched,
            inc.incremental_states,
            inc.full_rebuilds,
            inc.full_fallbacks,
        ))
    }

    /// `GET /sessions/{id}/history`: the session's accumulated history in wire
    /// text — what a differential client replays through the library directly.
    pub fn session_history(&self, id: u64) -> Result<String, ServiceError> {
        let sessions = self.sessions.lock();
        let entry = sessions.get(&id).ok_or_else(|| {
            self.metrics.not_found.fetch_add(1, Ordering::Relaxed);
            ServiceError::NotFound(format!("no session {id}"))
        })?;
        Ok(format_history(entry.inc.history()))
    }

    /// `DELETE /sessions/{id}`.
    pub fn delete_session(&self, id: u64) -> Result<(), ServiceError> {
        if self.sessions.lock().remove(&id).is_none() {
            self.metrics.not_found.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::NotFound(format!("no session {id}")));
        }
        Ok(())
    }

    /// `GET /metrics`; `deterministic` selects the reproducible counter subset.
    #[must_use]
    pub fn metrics_json(&self, deterministic: bool) -> String {
        if deterministic {
            self.metrics.deterministic_json()
        } else {
            self.metrics.full_json(
                self.checkers_warm(),
                self.sessions_live(),
                self.in_flight_cost(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// A serial 200-op history: parsing and syncing it keeps `create_session` busy
    /// long enough for a concurrent create to interleave with it.
    fn seed_history() -> String {
        (0..200u64)
            .map(|i| format!("op{i} p0 R0 write {i} @ t{}..t{}\n", 2 * i + 1, 2 * i + 2))
            .collect()
    }

    #[test]
    fn concurrent_creates_never_exceed_max_sessions() {
        let seed = seed_history();
        for trial in 0..20 {
            let service = CheckService::new(AppConfig {
                max_sessions: 1,
                ..AppConfig::default()
            });
            let barrier = Barrier::new(2);
            let created = std::thread::scope(|s| {
                let creators: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            service.create_session(&seed).is_ok()
                        })
                    })
                    .collect();
                creators
                    .into_iter()
                    .map(|c| c.join().expect("creator thread"))
                    .filter(|&ok| ok)
                    .count()
            });
            assert!(created <= 1, "trial {trial}: {created} creates succeeded");
            assert!(
                service.sessions_live() <= 1,
                "trial {trial}: {} live sessions",
                service.sessions_live()
            );
        }
    }

    fn counted_events(service: &CheckService) -> u64 {
        service.metrics.session_events.load(Ordering::Relaxed)
    }

    #[test]
    fn a_rejected_event_leaves_the_applied_prefix_synced_and_counted() {
        let service = CheckService::new(AppConfig::default());
        let (id, _) = service
            .create_session("op0 p0 R0 write 1 @ t1..t2\n")
            .expect("seeded session");
        let rejected = service
            .session_events(
                id,
                "op1 p0 R0 write 2 @ t3..t4\nop2 p1 R0 read 2 @ t1..t5\n",
            )
            .expect_err("op2 reuses t1");
        assert_eq!(
            rejected.message(),
            "invocation time t1 of op2 is already used"
        );
        // op1 is applied, visible and counted as soon as the call returns.
        assert_eq!(counted_events(&service), 2);
        let history = service.session_history(id).expect("live session");
        assert!(history.contains("op1 p0 R0 write 2 @ t3..t4"), "{history}");
        assert_eq!(service.session_events(id, "").expect("empty body"), 2);
        assert_eq!(counted_events(&service), 2);
    }

    #[test]
    fn a_shed_create_counts_none_of_its_seed_events() {
        let service = CheckService::new(AppConfig {
            max_sessions: 1,
            ..AppConfig::default()
        });
        service.create_session("").expect("first session");
        let shed = service
            .create_session("op0 p0 R0 write 1 @ t1..t2\nop1 p1 R0 read 1 @ t3..t4\n")
            .expect_err("session limit reached");
        assert!(matches!(shed, ServiceError::Backpressure(_)), "{shed:?}");
        assert_eq!(counted_events(&service), 0);
        assert_eq!(service.sessions_live(), 1);
    }
}
