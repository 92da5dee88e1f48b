//! The service layer: everything the HTTP handlers delegate to.
//!
//! [`CheckService`] owns the warm state a long-lived checking process
//! accumulates — one shared configured [`Checker`] (its scratch pool hands each
//! concurrent check a warm arena), the live monitoring sessions, each a bare
//! [`IncrementalChecker`], an interned-verdict cache keyed on request bodies, the
//! aggregate state-budget guard that sheds load, and the instance [`Metrics`].
//! Handlers translate HTTP to calls on this type; nothing here knows about HTTP.
//! The service keeps no copy of what the library holds: a session's events go
//! straight from [`parse_history`] into [`IncrementalChecker::try_extend`], whose
//! admission check rejects what would otherwise panic the engine.
//!
//! One mutex, `sessions`, guards the session map and each session's state.
//! [`CheckService::session_events`] parses its body before it takes the mutex,
//! so events calls parse in parallel; under it, the answers keep the order they
//! would have if the parse ran there: an unknown id is a `404` that counts no
//! parse error, then comes a parse error, then the `max_ops` check, then
//! `try_extend`. A verdict poll still computes the verdict and renders its JSON
//! under the mutex.
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
use rlt_spec::{Checker, History, IncrementalChecker, StateSketch, Value};
use std::collections::HashMap;
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
    checker: Checker<Value>,
    /// The session map and every session's state (see the module docs).
    sessions: Mutex<HashMap<u64, IncrementalChecker<Value>>>,
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
        let checker = build_checker(&config);
        CheckService {
            config,
            metrics: Metrics::new(),
            checker,
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
        build_checker(&self.config)
    }

    /// Warm scratch arenas idle in the shared checker's pool.
    #[must_use]
    pub fn arenas_warm(&self) -> usize {
        self.checker.idle_scratch_arenas()
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

    /// Reserves the state budget of `checks` checks against the aggregate
    /// budget or sheds the request. A reservation whose cost or new total does
    /// not fit in a `u64` exceeds any budget, so it is shed too.
    fn reserve(&self, checks: u64) -> Result<BudgetGuard<'_>, ServiceError> {
        let per_check = self.config.state_budget;
        let cost = per_check.checked_mul(checks);
        let mut current = self.in_flight_cost.load(Ordering::SeqCst);
        loop {
            let total = cost
                .and_then(|cost| current.checked_add(cost))
                .filter(|&total| total <= self.config.aggregate_state_budget);
            let (Some(cost), Some(total)) = (cost, total) else {
                self.metrics
                    .rejected_backpressure
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::Backpressure(format!(
                    "aggregate state budget exhausted: {current} in flight + \
                     {checks} × {per_check} requested > {}",
                    self.config.aggregate_state_budget
                )));
            };
            match self.in_flight_cost.compare_exchange(
                current,
                total,
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
        let _budget = self.reserve(1)?;
        let (verdict, sketch) = self.checker.check_sketched(&history);
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
        let _budget = self.reserve(histories.len() as u64)?;
        // Each solo check is bit-identical to `Checker::check_many`'s per-entry
        // results (that equality is pinned by the library's own tests).
        let mut out = String::from("[");
        for (i, history) in histories.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (verdict, sketch) = self.checker.check_sketched(history);
            self.metrics.count_decision(verdict.outcome().ok());
            self.metrics.observe_sketch(&sketch);
            out.push_str(&verdict_to_json(&verdict));
        }
        out.push(']');
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
        let _budget = self.reserve(1)?;
        let cap = max
            .unwrap_or(self.config.max_linearizations)
            .min(self.config.max_linearizations);
        let mut orders: Vec<Vec<u64>> = Vec::new();
        let mut work_capped = false;
        let mut truncated = false;
        for item in self.checker.linearizations(&history) {
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
        let mut session = self.checker.incremental();
        let applied = if initial.trim().is_empty() {
            0
        } else {
            let (applied, seeded) = self.apply_events(&mut session, &parse_history(initial));
            seeded?;
            applied
        };
        let ops = session.len();
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
        sessions.insert(id, session);
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
    /// applied and counted. The body is parsed before the sessions mutex is
    /// taken; an unknown id still answers `404` ahead of a parse error.
    pub fn session_events(&self, id: u64, body: &str) -> Result<usize, ServiceError> {
        let parsed = parse_history(body);
        let mut sessions = self.sessions.lock();
        let session = sessions.get_mut(&id).ok_or_else(|| {
            self.metrics.not_found.fetch_add(1, Ordering::Relaxed);
            ServiceError::NotFound(format!("no session {id}"))
        })?;
        let (applied, result) = self.apply_events(session, &parsed);
        self.metrics
            .session_events
            .fetch_add(applied, Ordering::Relaxed);
        result.map(|()| session.len())
    }

    /// Counts a parse error, checks `max_ops`, and extends the session with
    /// [`IncrementalChecker::try_extend`], whose rejection names the offending
    /// op. `parsed` is an events body already through [`parse_history`].
    /// Returns the number of events applied, for the caller to count.
    fn apply_events(
        &self,
        session: &mut IncrementalChecker<Value>,
        parsed: &Result<History<Value>, WireError>,
    ) -> (u64, Result<(), ServiceError>) {
        let parse_err = |message: String| {
            self.metrics.parse_errors.fetch_add(1, Ordering::Relaxed);
            ServiceError::Parse(message)
        };
        let parsed = match parsed {
            Ok(parsed) => parsed,
            Err(e) => return (0, Err(parse_err(e.to_string()))),
        };
        let grown = session.len() + parsed.len();
        if grown > self.config.max_ops {
            self.metrics
                .rejected_oversize
                .fetch_add(1, Ordering::Relaxed);
            return (
                0,
                Err(ServiceError::Oversize(format!(
                    "session would grow to {grown} operations, limit is {}",
                    self.config.max_ops
                ))),
            );
        }
        let (applied, result) = session.try_extend(parsed);
        (applied, result.map_err(parse_err))
    }

    /// `GET /sessions/{id}/verdict`: the session's incremental verdict as JSON —
    /// `{"verdict":<batch-identical verdict>,"incremental":{...counters...}}`.
    pub fn session_verdict(&self, id: u64) -> Result<String, ServiceError> {
        let mut sessions = self.sessions.lock();
        let session = sessions.get_mut(&id).ok_or_else(|| {
            self.metrics.not_found.fetch_add(1, Ordering::Relaxed);
            ServiceError::NotFound(format!("no session {id}"))
        })?;
        let _budget = self.reserve(1)?;
        let verdict = session.verdict();
        let sketch = session.state_sketch();
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
        let session = sessions.get(&id).ok_or_else(|| {
            self.metrics.not_found.fetch_add(1, Ordering::Relaxed);
            ServiceError::NotFound(format!("no session {id}"))
        })?;
        Ok(format_history(session.history()))
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
                self.arenas_warm(),
                self.sessions_live(),
                self.in_flight_cost(),
            )
        }
    }
}

/// A checker with `config`'s knobs; see [`CheckService::build_checker`].
fn build_checker(config: &AppConfig) -> Checker<Value> {
    Checker::builder(Value::Init)
        .state_budget(config.state_budget)
        .enumeration_work_cap(config.enumeration_work_cap)
        .witness(config.witness)
        .build()
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
            "duplicate event time `t1` of operation `op2`"
        );
        // op1 is applied, visible and counted as soon as the call returns.
        assert_eq!(counted_events(&service), 2);
        let history = service.session_history(id).expect("live session");
        assert!(history.contains("op1 p0 R0 write 2 @ t3..t4"), "{history}");
        assert_eq!(service.session_events(id, "").expect("empty body"), 2);
        assert_eq!(counted_events(&service), 2);
    }

    /// A body may list pending ops out of invocation order; the session applies
    /// them in event order, and a later body must still extend it.
    #[test]
    fn pending_ops_listed_out_of_invocation_order_survive_a_later_body() {
        let service = CheckService::new(AppConfig::default());
        let (id, _) = service.create_session("").expect("empty session");
        service
            .session_events(id, "op1 p1 R0 write 2 @ t5..\nop0 p0 R0 write 1 @ t3..\n")
            .expect("two pending writes");
        let ops = service
            .session_events(id, "op2 p2 R0 read 2 @ t7..t8\n")
            .expect("a later read");
        assert_eq!(ops, 3);
        let history = parse_history(&service.session_history(id).expect("live session"))
            .expect("the session's history parses");
        let expected = verdict_to_json(&service.build_checker().check(&history));
        let served = service.session_verdict(id).expect("live session");
        assert!(
            served.starts_with(&format!("{{\"verdict\":{expected},")),
            "{served}"
        );
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

    /// Both state limits disabled: every reservation is `u64::MAX` per check.
    fn unlimited() -> CheckService {
        CheckService::new(AppConfig {
            state_budget: u64::MAX,
            aggregate_state_budget: u64::MAX,
            ..AppConfig::default()
        })
    }

    fn shed_count(service: &CheckService) -> u64 {
        service
            .metrics
            .rejected_backpressure
            .load(Ordering::Relaxed)
    }

    #[test]
    fn a_batch_cost_past_u64_is_shed_not_wrapped() {
        let service = unlimited();
        let shed = service
            .check_many_text("op0 p0 R0 write 1 @ t1..t2\n---\nop0 p0 R0 write 2 @ t1..t2\n")
            .expect_err("two unlimited checks overflow a u64");
        assert!(matches!(shed, ServiceError::Backpressure(_)), "{shed:?}");
        assert_eq!(shed.status(), 429);
        assert_eq!(shed_count(&service), 1);
        assert_eq!(service.in_flight_cost(), 0);
    }

    #[test]
    fn a_total_past_u64_is_shed_and_the_held_cost_released() {
        let service = unlimited();
        let held = service.reserve(1).expect("the first reservation fits");
        assert_eq!(service.in_flight_cost(), u64::MAX);
        let refused = service.reserve(1).err().expect("the total overflows");
        assert!(
            matches!(refused, ServiceError::Backpressure(_)),
            "{refused:?}"
        );
        assert_eq!(shed_count(&service), 1);
        assert_eq!(service.in_flight_cost(), u64::MAX);
        drop(held);
        assert_eq!(service.in_flight_cost(), 0);
    }

    #[test]
    fn a_checked_completed_read_without_a_value_is_a_parse_error() {
        let service = CheckService::new(AppConfig::default());
        let checked = service
            .check_text("op0 p0 R0 read ? @ t1..t2\n")
            .expect_err("no read value");
        assert!(matches!(checked, ServiceError::Parse(_)), "{checked:?}");
        assert_eq!(service.metrics.parse_errors.load(Ordering::Relaxed), 1);
    }

    /// A witness of this body would complete the pending `op0` one tick after
    /// `u64::MAX`.
    const LAST_TICK_BODY: &str =
        "op0 p0 R0 write 1 @ t1..\nop1 p1 R0 read 1 @ t2..t18446744073709551615\n";

    #[test]
    fn a_checked_event_at_the_last_tick_is_a_line_numbered_parse_error() {
        let service = CheckService::new(AppConfig::default());
        let checked = service
            .check_text(LAST_TICK_BODY)
            .expect_err("no tick is left for the witness");
        assert!(matches!(checked, ServiceError::Parse(_)), "{checked:?}");
        assert_eq!(checked.status(), 400);
        assert!(
            checked.message().starts_with("history line 2:"),
            "{checked:?}"
        );
        assert_eq!(service.metrics.parse_errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_session_event_at_the_last_tick_is_a_line_numbered_parse_error() {
        let service = CheckService::new(AppConfig::default());
        let (id, _) = service
            .create_session("op0 p0 R0 write 1 @ t1..\n")
            .expect("seeded session");
        let rejected = service
            .session_events(id, "op1 p1 R0 read 1 @ t2..t18446744073709551615\n")
            .expect_err("no tick is left for the witness");
        assert!(matches!(rejected, ServiceError::Parse(_)), "{rejected:?}");
        assert_eq!(rejected.status(), 400);
        assert!(
            rejected.message().starts_with("history line 1:"),
            "{rejected:?}"
        );
        // The session survives: its verdict still answers over the seeded prefix.
        assert!(service.session_verdict(id).is_ok());
    }

    #[test]
    fn a_session_completion_without_a_read_value_is_a_parse_error() {
        let service = CheckService::new(AppConfig::default());
        let (id, _) = service
            .create_session("op0 p0 R0 write 1 @ t1..t2\nop1 p1 R0 read ? @ t3..\n")
            .expect("seeded session");
        let completed = service
            .session_events(id, "op1 p1 R0 read ? @ t3..t4\n")
            .expect_err("completion without a read value");
        assert!(matches!(completed, ServiceError::Parse(_)), "{completed:?}");
        assert_eq!(service.metrics.parse_errors.load(Ordering::Relaxed), 1);
        // The session survives and still takes a well-formed completion.
        assert_eq!(
            service
                .session_events(id, "op1 p1 R0 read 1 @ t3..t4\n")
                .expect("well-formed completion"),
            2
        );
    }
}
