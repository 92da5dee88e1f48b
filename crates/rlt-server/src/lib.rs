//! `rlt-server`: linearizability checking as a long-lived high-throughput
//! service.
//!
//! The ROADMAP's north star is a production-scale system serving heavy traffic;
//! this crate is the service front end over the checking core: a minimal
//! HTTP/1.1 server (the offline [`httpd`] vendor shim over
//! `std::net::TcpListener`) exposing the full checking surface —
//! one-shot checks, batches, work-capped enumeration, and long-lived
//! [`IncrementalChecker`] monitoring sessions (the PR 7 composition) — plus a
//! `/metrics` endpoint whose HLL sketch estimates the distinct memo-state
//! fingerprints seen across every request.
//!
//! The crate follows a handler/service/config split:
//!
//! * [`config::AppConfig`] — every knob in one struct;
//! * [`handlers`] — per-resource HTTP handlers, no logic beyond routing;
//! * [`service::CheckService`] — the warm state and the real work: one shared
//!   configured [`Checker`] (no checker pool: its scratch pool gives each
//!   concurrent check a warm arena), live monitoring sessions, each a bare
//!   [`IncrementalChecker`], an interned-verdict cache,
//!   aggregate-state-budget backpressure, metrics.
//!
//! # Guarantees
//!
//! * **Differential fidelity** — every verdict served is produced by the same
//!   library calls a direct consumer would make, so responses are bit-identical
//!   (decision, witness, counters) to [`Checker::check`] /
//!   [`IncrementalChecker`] verdicts under the configured knobs, at every
//!   thread policy.
//! * **Deterministic counters** — `GET /metrics?deterministic=1` is a function
//!   of the request stream alone: per-check statistics are thread-policy
//!   invariant and the HLL merge is order-independent.
//! * **Load shedding** — oversized histories and checks that cannot reserve
//!   aggregate state budget are shed with `429` before any search runs;
//!   malformed bodies get `400` with the wire grammar's line number; graceful
//!   shutdown drains in-flight checks.
//!
//! # Example
//!
//! ```
//! use rlt_server::{serve, AppConfig};
//!
//! let handle = serve(AppConfig::default()).expect("bind");
//! let mut client = httpd::Client::connect(handle.addr()).expect("connect");
//! let resp = client
//!     .post("/check", "op0 p0 R0 write 1 @ t1..t2\nop1 p1 R0 read 1 @ t3..t4\n")
//!     .expect("round trip");
//! assert!(resp.body.starts_with("{\"decision\":true"));
//! handle.shutdown();
//! ```
//!
//! [`Checker`]: rlt_spec::Checker
//! [`Checker::check`]: rlt_spec::Checker::check
//! [`IncrementalChecker`]: rlt_spec::IncrementalChecker

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod handlers;
pub mod metrics;
pub mod service;

pub use config::AppConfig;
pub use metrics::Metrics;
pub use service::{CheckService, ServiceError};

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;

/// A running checking service: the HTTP server plus a handle on its service
/// layer (for in-process metric reads by the load generator and tests).
#[derive(Debug)]
pub struct ServerHandle {
    server: httpd::Server,
    service: Arc<CheckService>,
}

impl ServerHandle {
    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The service layer behind the HTTP front end.
    #[must_use]
    pub fn service(&self) -> &Arc<CheckService> {
        &self.service
    }

    /// Graceful shutdown: drains in-flight requests, then joins the workers.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Binds and starts a checking service on `config.addr`.
pub fn serve(config: AppConfig) -> io::Result<ServerHandle> {
    let http = httpd::ServerConfig {
        addr: config.addr.clone(),
        workers: config.workers,
        max_body: config.max_body,
    };
    let service = Arc::new(CheckService::new(config));
    let routed = Arc::clone(&service);
    let server = httpd::Server::bind(
        &http,
        Arc::new(move |req: &httpd::Request| handlers::route(&routed, req)),
    )?;
    Ok(ServerHandle { server, service })
}
