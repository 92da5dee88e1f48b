//! Per-resource HTTP handlers: the routing table mapping requests onto
//! [`CheckService`] calls and [`ServiceError`]s onto status codes.
//!
//! Routes:
//!
//! | Method | Path                      | Body            | Response                |
//! |--------|---------------------------|-----------------|-------------------------|
//! | POST   | `/check`                  | wire history    | verdict JSON            |
//! | POST   | `/check_many`             | `---`-separated | JSON array of verdicts  |
//! | POST   | `/linearizations[?max=N]` | wire history    | orders JSON             |
//! | POST   | `/analyze[/{model}]`      | schedule text   | diagnostics JSON        |
//! | POST   | `/sessions`               | optional seed   | `{"session":id,...}`    |
//! | POST   | `/sessions/{id}/events`   | wire events     | `{"ops":total}`         |
//! | GET    | `/sessions/{id}/verdict`  | —               | verdict + inc counters  |
//! | GET    | `/sessions/{id}/history`  | —               | wire history text       |
//! | DELETE | `/sessions/{id}`          | —               | `204`                   |
//! | GET    | `/metrics[?deterministic=1]` | —            | counters (+ gauges)     |
//! | GET    | `/health`                 | —               | `{"status":"ok"}`       |
//!
//! The full `/metrics` gauges are `uptime_secs`, `checks_per_sec`,
//! `arenas_warm` (idle scratch arenas of the service's shared checker),
//! `sessions_live` and `in_flight_cost`.
//!
//! Errors: `400` (malformed body, with the wire grammar's line number in the
//! message, or for session events the op the session rejects), `404` (unknown
//! session or path), `405` (known path, wrong method), `429` (oversized history
//! or aggregate state budget exhausted).

use crate::service::{CheckService, ServiceError};
use httpd::{Request, Response};
use rlt_spec::wire::json_escape;
use std::sync::atomic::Ordering;

fn error_response(err: &ServiceError) -> Response {
    Response::json(
        err.status(),
        format!("{{\"error\":\"{}\"}}", json_escape(err.message())),
    )
}

fn from_result(result: Result<String, ServiceError>) -> Response {
    match result {
        Ok(json) => Response::json(200, json),
        Err(e) => error_response(&e),
    }
}

/// Extracts a query parameter value from `k1=v1&k2=v2`.
fn query_param<'q>(query: Option<&'q str>, name: &str) -> Option<&'q str> {
    query?
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == name)
        .map(|(_, v)| v)
}

/// Routes one request. This is the whole HTTP surface; everything of substance
/// happens in the service layer.
#[must_use]
pub fn route(service: &CheckService, req: &Request) -> Response {
    let Some(body) = req.body_str() else {
        service.metrics.parse_errors.fetch_add(1, Ordering::Relaxed);
        return error_response(&ServiceError::Parse(
            "request body is not valid UTF-8".to_string(),
        ));
    };
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["check"]) => from_result(service.check_text(body)),
        ("POST", ["check_many"]) => from_result(service.check_many_text(body)),
        ("POST", ["linearizations"]) => {
            let max = query_param(req.query.as_deref(), "max").and_then(|v| v.parse().ok());
            from_result(service.linearizations_text(body, max))
        }
        ("POST", ["analyze"]) => from_result(service.analyze_text(None, body)),
        ("POST", ["analyze", model]) => from_result(service.analyze_text(Some(model), body)),
        ("POST", ["sessions"]) => match service.create_session(body) {
            Ok((id, ops)) => Response::json(201, format!("{{\"session\":{id},\"ops\":{ops}}}")),
            Err(e) => error_response(&e),
        },
        ("POST", ["sessions", id, "events"]) => match parse_id(id) {
            Some(id) => match service.session_events(id, body) {
                Ok(total) => Response::json(200, format!("{{\"ops\":{total}}}")),
                Err(e) => error_response(&e),
            },
            None => bad_session_id(service, id),
        },
        ("GET", ["sessions", id, "verdict"]) => match parse_id(id) {
            Some(id) => from_result(service.session_verdict(id)),
            None => bad_session_id(service, id),
        },
        ("GET", ["sessions", id, "history"]) => match parse_id(id) {
            Some(id) => match service.session_history(id) {
                Ok(text) => Response::text(200, text),
                Err(e) => error_response(&e),
            },
            None => bad_session_id(service, id),
        },
        ("DELETE", ["sessions", id]) => match parse_id(id) {
            Some(id) => match service.delete_session(id) {
                Ok(()) => Response::json(204, ""),
                Err(e) => error_response(&e),
            },
            None => bad_session_id(service, id),
        },
        ("GET", ["metrics"]) => {
            let det = query_param(req.query.as_deref(), "deterministic") == Some("1");
            Response::json(200, service.metrics_json(det))
        }
        ("GET", ["health"]) => Response::json(200, "{\"status\":\"ok\"}"),
        // Known resources with the wrong method get 405; everything else 404.
        (
            _,
            ["check" | "check_many" | "linearizations" | "analyze" | "sessions" | "metrics"
            | "health"],
        )
        | (_, ["analyze", ..] | ["sessions", ..]) => {
            Response::json(405, "{\"error\":\"method not allowed\"}")
        }
        _ => {
            service.metrics.not_found.fetch_add(1, Ordering::Relaxed);
            error_response(&ServiceError::NotFound(format!(
                "no such resource `{}`",
                req.path
            )))
        }
    }
}

fn parse_id(raw: &str) -> Option<u64> {
    raw.parse().ok()
}

fn bad_session_id(service: &CheckService, raw: &str) -> Response {
    service.metrics.not_found.fetch_add(1, Ordering::Relaxed);
    error_response(&ServiceError::NotFound(format!("bad session id `{raw}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AppConfig;

    #[test]
    fn non_utf8_body_is_a_counted_400() {
        let service = CheckService::new(AppConfig::default());
        let req = Request {
            method: "POST".to_string(),
            path: "/check".to_string(),
            query: None,
            headers: Vec::new(),
            body: b"\xff".to_vec(),
        };
        let resp = route(&service, &req);
        assert_eq!(resp.status, 400);
        assert_eq!(service.metrics.parse_errors.load(Ordering::SeqCst), 1);
    }
}
