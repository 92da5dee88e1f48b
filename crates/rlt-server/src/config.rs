//! Application configuration: every knob the service layer and the HTTP front
//! end read, in one place.

use rlt_spec::{DEFAULT_ENUMERATION_WORK_LIMIT, DEFAULT_STATE_LIMIT};

/// Configuration for a checking service instance.
///
/// The checking knobs (`state_budget`, `enumeration_work_cap`, `witness`)
/// configure the service's shared [`Checker`] and its [`IncrementalChecker`]
/// sessions, so every verdict the service produces is bit-identical to a
/// direct library call under the same knobs. The service knobs (`max_ops`,
/// `aggregate_state_budget`, ...) bound what the front end accepts.
///
/// [`Checker`]: rlt_spec::Checker
/// [`IncrementalChecker`]: rlt_spec::IncrementalChecker
#[derive(Debug, Clone)]
pub struct AppConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// HTTP worker threads (each owns an accept loop).
    pub workers: usize,
    /// Per-check state budget (see [`CheckerBuilder::state_budget`]).
    ///
    /// [`CheckerBuilder::state_budget`]: rlt_spec::CheckerBuilder::state_budget
    pub state_budget: u64,
    /// Enumeration work cap for `/linearizations`.
    pub enumeration_work_cap: u64,
    /// Record witness linearizations in verdicts.
    pub witness: bool,
    /// Histories with more operations than this are shed with `429` before any
    /// search runs.
    pub max_ops: usize,
    /// Maximum request body size in bytes (larger gets `413` from the HTTP layer).
    pub max_body: usize,
    /// Aggregate state budget across concurrently running checks: each running
    /// check reserves `state_budget` from this pool, and requests that cannot
    /// reserve are shed with `429`.
    pub aggregate_state_budget: u64,
    /// Maximum live monitoring sessions; creation beyond this is shed with `429`.
    pub max_sessions: usize,
    /// Interned-verdict cache capacity (entries); `0` disables the cache.
    pub cache_capacity: usize,
    /// Maximum linearizations returned per `/linearizations` request (the `max`
    /// query parameter can lower, never raise, this).
    pub max_linearizations: usize,
}

impl Default for AppConfig {
    fn default() -> Self {
        AppConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            state_budget: DEFAULT_STATE_LIMIT,
            enumeration_work_cap: DEFAULT_ENUMERATION_WORK_LIMIT,
            witness: true,
            max_ops: 4096,
            max_body: 1 << 20,
            aggregate_state_budget: 16 * DEFAULT_STATE_LIMIT,
            max_sessions: 256,
            cache_capacity: 1024,
            max_linearizations: 64,
        }
    }
}
