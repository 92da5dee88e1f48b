//! Sample statistics, process memory, and the few JSON helpers the benchmark
//! needs (the repository has no JSON library, and every number printed here is
//! hand-formatted on purpose: values keep all their digits).

use std::fmt::Write as _;

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Sorts in place and returns the median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// Sub-window length of the windowed statistics, in seconds.
pub const WINDOW_S: f64 = 0.5;

/// Latencies and completions, bucketed by the sub-window of the run in
/// which each op completed; statistics come out in microseconds.
///
/// On a virtual machine the hypervisor gives CPU time to other guests
/// (*steal*) in bursts of seconds, slowing every op while they last, and a
/// run-wide percentile absorbs them. Each metric is therefore computed per
/// window; the run reports the median over the half of its windows with the
/// least steal, ties included (all windows when steal is not reported).
#[derive(Debug, Clone)]
pub struct Windowed {
    start: std::time::Instant,
    /// Per window: completions, and latencies in whole nanoseconds.
    windows: Vec<(u64, Vec<u32>)>,
}

/// The median-window statistics of a run.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub throughput: f64,
    pub p50: f64,
    pub p99: f64,
    /// Full windows the medians are taken over.
    pub windows: usize,
    /// Latency samples in those windows.
    pub samples: usize,
}

impl Windowed {
    pub fn new(start: std::time::Instant) -> Self {
        Windowed {
            start,
            windows: Vec::new(),
        }
    }

    fn slot(&mut self, done: std::time::Instant) -> &mut (u64, Vec<u32>) {
        let idx = (done.duration_since(self.start).as_secs_f64() / WINDOW_S) as usize;
        if self.windows.len() <= idx {
            self.windows.resize_with(idx + 1, Default::default);
        }
        &mut self.windows[idx]
    }

    /// One op that completed now after `latency`.
    pub fn record(&mut self, latency: std::time::Duration) {
        let slot = self.slot(std::time::Instant::now());
        slot.0 += 1;
        slot.1
            .push(u32::try_from(latency.as_nanos()).unwrap_or(u32::MAX));
    }

    /// `n` ops without latency samples of their own that completed together
    /// now after running since `since` (a batch). They are credited evenly
    /// across `since..now`, so a window holds the share of the batch that ran
    /// in it, not all or none of it.
    pub fn complete_over(&mut self, n: u64, since: std::time::Instant) {
        let ran = since.elapsed();
        for i in 0..n {
            let at = since + ran.mul_f64((i as f64 + 0.5) / n as f64);
            self.slot(at).0 += 1;
        }
    }

    pub fn merge(&mut self, other: Windowed) {
        for (i, (n, lat)) in other.windows.into_iter().enumerate() {
            let slot =
                self.slot(self.start + std::time::Duration::from_secs_f64(i as f64 * WINDOW_S));
            slot.0 += n;
            slot.1.extend(lat);
        }
    }

    /// Statistics over the windows that lie wholly inside `seconds`, keeping
    /// the least-stolen half by the per-window steal shares in `steal`. The
    /// shares come in whole `/proc/stat` ticks, so many windows tie; every
    /// window tied with the last one kept is kept too, rather than tie-broken
    /// by position, so a run with little steal is summarised over most of
    /// its windows.
    pub fn summary(&self, seconds: f64, steal: &[f64]) -> Summary {
        let full = ((seconds / WINDOW_S) as usize).clamp(1, self.windows.len().max(1));
        let mut order: Vec<usize> = (0..full.min(self.windows.len())).collect();
        if steal.len() >= order.len() && !order.is_empty() {
            let mut shares: Vec<f64> = order.iter().map(|&i| steal[i]).collect();
            shares.sort_by(f64::total_cmp);
            let cutoff = shares[shares.len().div_ceil(2) - 1];
            order.retain(|&i| steal[i] <= cutoff);
        }
        let windows: Vec<&(u64, Vec<u32>)> = order.iter().map(|&i| &self.windows[i]).collect();
        let (mut tput, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
        for (n, lat) in windows.iter().copied() {
            tput.push(*n as f64 / WINDOW_S);
            if !lat.is_empty() {
                let mut lat: Vec<f64> = lat.iter().map(|&ns| f64::from(ns) / 1e3).collect();
                lat.sort_by(f64::total_cmp);
                p50.push(percentile(&lat, 0.5));
                p99.push(percentile(&lat, 0.99));
            }
        }
        Summary {
            throughput: median(&mut tput),
            p50: median(&mut p50),
            p99: median(&mut p99),
            windows: windows.len(),
            samples: windows.iter().map(|w| w.1.len()).sum(),
        }
    }
}

/// Steal and total CPU ticks of the host so far, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Samples the host's steal share once per window on a background thread.
#[derive(Debug)]
pub struct StealMonitor {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<Vec<f64>>,
}

impl StealMonitor {
    /// Starts sampling at window boundaries counted from `start`.
    pub fn start(start: std::time::Instant) -> Self {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut shares = Vec::new();
            let mut last = cpu_ticks();
            while !flag.load(Ordering::SeqCst) {
                let next = start
                    + std::time::Duration::from_secs_f64((shares.len() + 1) as f64 * WINDOW_S);
                std::thread::sleep(next.saturating_duration_since(std::time::Instant::now()));
                let now = cpu_ticks();
                let share = match (last, now) {
                    (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                        (s1 - s0) as f64 / (t1 - t0) as f64
                    }
                    _ => 0.0,
                };
                shares.push(share);
                last = now;
            }
            shares
        });
        StealMonitor { stop, handle }
    }

    /// Stops sampling; returns the steal share of each window so far.
    pub fn finish(self) -> Vec<f64> {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        self.handle.join().expect("steal monitor thread")
    }
}

/// Mean of `values`, or 0 for none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set of this process (`VmHWM`) in MiB, or NaN off Linux.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Reads the unsigned integer value of `"key":` from flat JSON text.
pub fn json_u64(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let digits: String = json[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// A JSON number: finite values in shortest round-trip form, others `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal (benchmark-generated text only: no control bytes).
pub fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Renders `(key, raw JSON value)` pairs as one object, in order.
pub fn object<K: AsRef<str>, V: AsRef<str>>(fields: &[(K, V)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", quote(k.as_ref()), v.as_ref());
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn windows_report_the_median_of_the_least_stolen_half() {
        let start = std::time::Instant::now() - std::time::Duration::from_secs(2);
        let mut w = Windowed::new(start);
        // Four full windows: latencies 10, 20, 30, 40 µs, one op each; the
        // 3 completions of a batch that ran from just after them fall later.
        for (i, us) in [10u64, 20, 30, 40].into_iter().enumerate() {
            let slot =
                w.slot(start + std::time::Duration::from_secs_f64((i as f64 + 0.5) * WINDOW_S));
            slot.0 += 1;
            slot.1.push(us as u32 * 1000);
        }
        w.complete_over(3, start + std::time::Duration::from_secs(2));
        let s = w.summary(2.0, &[]);
        assert_eq!((s.windows, s.samples), (4, 4));
        assert_eq!(s.p50, 30.0);
        assert_eq!(s.throughput, 1.0 / WINDOW_S);
        // With steal shares, only the least-stolen half counts: windows 1, 3.
        let s = w.summary(2.0, &[0.5, 0.0, 0.3, 0.1]);
        assert_eq!((s.windows, s.p50), (2, 40.0));
        // Windows tied with the last one kept are kept: 0, 1 and 2.
        let s = w.summary(2.0, &[0.0, 0.0, 0.0, 0.1]);
        assert_eq!((s.windows, s.p50), (3, 20.0));
    }

    #[test]
    fn a_batch_is_credited_across_the_windows_it_ran_in() {
        // A batch of 40 that ran for the last 2 s: 10 completions a window.
        let start = std::time::Instant::now() - std::time::Duration::from_secs(2);
        let mut w = Windowed::new(start);
        w.complete_over(40, start);
        let counts: Vec<u64> = w.windows.iter().map(|(n, _)| *n).collect();
        assert_eq!(counts.iter().sum::<u64>(), 40);
        assert!(
            counts[..4].iter().all(|&n| (9..=11).contains(&n)),
            "{counts:?}"
        );
    }

    #[test]
    fn json_helpers_round_trip() {
        assert_eq!(json_u64("{\"a\":12,\"b\":3}", "b"), Some(3));
        assert_eq!(json_u64("{\"a\":12}", "c"), None);
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(object(&[("k", "1")]), "{\"k\":1}");
    }
}
