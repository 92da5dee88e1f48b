//! The traced mode's span recorder.
//!
//! Spans are kept in memory and written out when the run ends. Each span has a
//! name (the layer call it times), a start and an end, the op it belongs to
//! (the spans of one request, campaign or check share that id) and the layer
//! that caused it. A parent is named, not numbered: within one op, each parent
//! layer occurs once, so the name resolves it. A layer's self time is its
//! span's duration minus its children's.
//!
//! Layers inside the service are timed on a *twin*: the same public call on an
//! identically configured instance that has seen the same request order, made
//! right after the real request. Such spans carry `twin: true`; they attribute
//! the real request's time without sitting inside its interval.

use crate::stats::median;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub twin: bool,
}

impl Span {
    fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span measured by the caller.
    pub fn record(
        &self,
        op: u64,
        name: &'static str,
        parent: Option<&'static str>,
        (start, end): (Instant, Instant),
        twin: bool,
    ) {
        let span = Span {
            op,
            name,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            twin,
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &self,
        op: u64,
        name: &'static str,
        parent: Option<&'static str>,
        twin: bool,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(op, name, parent, (start, Instant::now()), twin);
        out
    }

    /// Self time (µs) of every span named `name`, keyed by op and summed
    /// within an op.
    pub fn self_per_op(&self, name: &str) -> BTreeMap<u64, f64> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut children: BTreeMap<(u64, &str), f64> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                *children.entry((s.op, p)).or_default() += s.dur_us();
            }
        }
        let mut out: BTreeMap<u64, f64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.name == name) {
            let own = s.dur_us() - children.get(&(s.op, s.name)).copied().unwrap_or(0.0);
            *out.entry(s.op).or_default() += own;
        }
        out
    }

    /// Self time (µs) of each span named `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut children: BTreeMap<u64, f64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent == Some(name)) {
            *children.entry(s.op).or_default() += s.dur_us();
        }
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us() - children.get(&s.op).copied().unwrap_or(0.0))
            .collect()
    }

    /// Median self time (µs) per span named `name`.
    pub fn median_self_us(&self, name: &str) -> f64 {
        median(&mut self.self_times(name))
    }

    /// Median duration (µs) of the spans named `name`.
    pub fn median_us(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect();
        median(&mut d)
    }

    /// `1 − Σ_layers median(per-op self time) / (median(op time) × busy)`:
    /// the share of the median op that the published layer medians do not
    /// explain. `root` names the op spans; an op without a layer counts 0
    /// for it. `extra_us` adds time attributed without spans.
    pub fn unaccounted_share(&self, root: &str, layers: &[&str], busy: f64, extra_us: f64) -> f64 {
        let ops = self.self_per_op(root);
        let mut sum = extra_us;
        for layer in layers {
            let per_op = self.self_per_op(layer);
            let mut v: Vec<f64> = ops
                .keys()
                .map(|op| per_op.get(op).copied().unwrap_or(0.0))
                .collect();
            sum += median(&mut v);
        }
        1.0 - sum / (self.median_us(root) * busy)
    }

    /// Writes every span as one JSON line; parents become line ids.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut ids: BTreeMap<(u64, &str), usize> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            ids.entry((s.op, s.name)).or_insert(i);
        }
        let mut out = String::new();
        for (i, s) in spans.iter().enumerate() {
            let parent = s
                .parent
                .and_then(|p| ids.get(&(s.op, p)))
                .map_or("null".to_string(), usize::to_string);
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"twin\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns, s.twin
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_of_the_same_op() {
        let trace = Trace::new();
        let t0 = trace.epoch;
        let at = |us: u64| t0 + Duration::from_micros(us);
        trace.record(1, "root", None, (at(0), at(100)), false);
        trace.record(1, "child", Some("root"), (at(10), at(40)), false);
        trace.record(2, "root", None, (at(200), at(250)), false);
        let per_op = trace.self_per_op("root");
        assert_eq!(per_op[&1], 70.0);
        assert_eq!(per_op[&2], 50.0);
        assert_eq!(trace.median_self_us("child"), 30.0);
        // Nearest-rank medians over two ops take the upper value: 70 (root
        // self) plus 30 (child) against a median op of 100.
        let share = trace.unaccounted_share("root", &["root", "child"], 1.0, 0.0);
        assert!((share - 0.0).abs() < 1e-9, "{share}");
    }
}
