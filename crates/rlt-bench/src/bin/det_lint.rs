//! Workspace determinism lint: scans first-party sources for constructs that
//! historically caused replay divergence, and fails CI on any occurrence not
//! recorded in the explicit allowlist (`det_lint_allow.txt` at the repo root).
//!
//! Hazards flagged:
//!
//! * `HashMap` / `HashSet` — iteration order is randomized per process, so any
//!   iteration feeding output, hashing, or scheduling silently diverges across
//!   runs. First-party code defaults to `BTreeMap`/`BTreeSet`; each hash-map
//!   use must be allowlisted (they are fine for membership-only lookups).
//! * `Instant::now` / `SystemTime::now` — wall-clock reads outside `rlt-bench`
//!   (`rlt-bench` measures; everything else runs on [`rlt_sim`] virtual time).
//! * `available_parallelism` / `thread::current` — thread-count or thread-id
//!   dependent logic outside the vendored pool breaks the RLT_THREADS
//!   bit-identical-output guarantee.
//!
//! Allowlist grammar: one `path:pattern` entry per line (repo-relative path,
//! `#` comments), e.g. `crates/rlt-spec/src/engine.rs:HashMap`. An entry
//! permits every occurrence of that pattern in that file; stale entries
//! (matching nothing) are themselves an error, so the list cannot rot.
//!
//! Usage: `cargo run --release -p rlt-bench --bin det_lint`

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Patterns and the rationale printed with each finding. `bench_exempt`
/// marks wall-clock hazards that are legitimate inside `crates/rlt-bench`.
const PATTERNS: &[(&str, &str, bool)] = &[
    ("HashMap", "unordered iteration", false),
    ("HashSet", "unordered iteration", false),
    ("Instant::now", "wall-clock read", true),
    ("SystemTime::now", "wall-clock read", true),
    ("available_parallelism", "thread-count dependent", false),
    ("thread::current", "thread-id dependent", false),
];

fn workspace_root() -> PathBuf {
    // crates/rlt-bench -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// First-party .rs files: everything under the scan roots except `vendor/`
/// and `target/`.
fn sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack: Vec<PathBuf> = ["crates", "src", "tests", "examples"]
        .iter()
        .map(|d| root.join(d))
        .collect();
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name != "vendor" && name != "target" && name != ".git" {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

fn main() {
    let root = workspace_root();
    let allow_path = root.join("det_lint_allow.txt");
    let allow_text = std::fs::read_to_string(&allow_path).unwrap_or_default();
    let allowed: BTreeSet<&str> = allow_text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let mut used: BTreeSet<&str> = BTreeSet::new();
    let mut findings: Vec<String> = Vec::new();
    let mut scanned = 0usize;

    for path in sources(&root) {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if rel.ends_with("src/bin/det_lint.rs") {
            continue; // the pattern table would flag itself
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        scanned += 1;
        let in_bench = rel.starts_with("crates/rlt-bench/");
        for (lineno, line) in text.lines().enumerate() {
            let code = line.trim_start();
            if code.starts_with("//") {
                continue;
            }
            for (pattern, why, bench_exempt) in PATTERNS {
                if !code.contains(pattern) || (*bench_exempt && in_bench) {
                    continue;
                }
                let key = format!("{rel}:{pattern}");
                if let Some(entry) = allowed.get(key.as_str()) {
                    used.insert(entry);
                } else {
                    findings.push(format!(
                        "{rel}:{}: `{pattern}` ({why}) — not in det_lint_allow.txt",
                        lineno + 1
                    ));
                }
            }
        }
    }

    let stale: Vec<&&str> = allowed.difference(&used).collect();
    findings.sort();
    for finding in &findings {
        println!("{finding}");
    }
    for entry in &stale {
        println!("det_lint_allow.txt: stale entry `{entry}` matches nothing");
    }
    println!(
        "det_lint: {scanned} files scanned, {} findings, {} allowlisted, {} stale",
        findings.len(),
        used.len(),
        stale.len()
    );
    if !findings.is_empty() || !stale.is_empty() {
        std::process::exit(1);
    }
}
