//! Seeded fuzz of malformed wire bodies through the checking service, for the
//! wire contract: no body a client can send panics the service, every rejection
//! is a counted `400` (or a `429` for size), and whatever is accepted is checked
//! exactly as the library checks it.
//!
//! Each case draws a valid history, cuts it at an event time into the ops a
//! session already holds and the events that follow (sent in two bodies), and
//! applies one or two mutations: drop, duplicate or swap lines, copy one line's
//! time into another, set a time past the last event time, erase a completed
//! read's value, change the process, register or value of a completion line, or
//! re-send a line that is already recorded. Then one to four byte edits land on
//! each body sent.
//!
//! A second case mutates recorded clean ABD schedules by line and by byte and
//! sends them to `/analyze` under every cluster model: no panic, and every
//! rejection a parse error that names a line of the body.

mod common;

use common::random_history;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlt_core::mp::fuzz::record_clean_corpus;
use rlt_core::mp::AbdCluster;
use rlt_core::server::{AppConfig, CheckService, ServiceError};
use rlt_core::spec::wire::{format_history, parse_history, verdict_to_json};
use rlt_core::spec::{History, ProcessId, Value};
use std::sync::atomic::Ordering;

fn lines(history: &History<Value>) -> Vec<String> {
    format_history(history)
        .lines()
        .map(str::to_string)
        .collect()
}

fn body(lines: &[String]) -> String {
    lines.iter().map(|l| format!("{l}\n")).collect()
}

/// One wire line's span token, split into its invocation and response times.
fn span(tokens: &[String]) -> (String, String) {
    let (inv, resp) = tokens[6].split_once("..").expect("a span");
    (inv.to_string(), resp.to_string())
}

/// Applies one mutation to `lines`; `recorded` are lines a session already
/// holds, for re-sends. A mutation that finds nothing to act on is a no-op.
fn mutate(lines: &mut Vec<String>, recorded: &[String], rng: &mut StdRng) {
    let n = lines.len();
    let mut tokens: Vec<Vec<String>> = lines
        .iter()
        .map(|l| l.split_whitespace().map(str::to_string).collect())
        .collect();
    let completed: Vec<usize> = (0..n).filter(|&i| !span(&tokens[i]).1.is_empty()).collect();
    match rng.gen_range(0..8) {
        0 if n > 0 => {
            lines.remove(rng.gen_range(0..n));
            return;
        }
        1 if n > 0 => {
            let line = lines[rng.gen_range(0..n)].clone();
            lines.insert(rng.gen_range(0..=n), line);
            return;
        }
        2 if n > 1 => {
            lines.swap(rng.gen_range(0..n), rng.gen_range(0..n));
            return;
        }
        3 if n > 0 => {
            // Copy one line's time token, recorded lines included, into another.
            let from = rng.gen_range(0..n + recorded.len());
            let source: Vec<String> = match from.checked_sub(n) {
                None => tokens[from].clone(),
                Some(r) => recorded[r].split_whitespace().map(str::to_string).collect(),
            };
            let (inv, resp) = span(&source);
            let time = if resp.is_empty() || rng.gen_bool(0.5) {
                inv
            } else {
                resp
            };
            let to = rng.gen_range(0..n);
            let (inv, resp) = span(&tokens[to]);
            tokens[to][6] = if resp.is_empty() || rng.gen_bool(0.5) {
                format!("{time}..{resp}")
            } else {
                format!("{inv}..{time}")
            };
        }
        4 if n > 0 => {
            let at = rng.gen_range(0..n);
            let (inv, resp) = span(&tokens[at]);
            let last = "t18446744073709551615".to_string();
            tokens[at][6] = if rng.gen_bool(0.5) {
                format!("{last}..{resp}")
            } else {
                format!("{inv}..{last}")
            };
        }
        5 => {
            let reads: Vec<usize> = completed
                .iter()
                .copied()
                .filter(|&i| tokens[i][3] == "read")
                .collect();
            if let Some(&at) = reads.get(rng.gen_range(0..reads.len().max(1))) {
                tokens[at][4] = "?".to_string();
            }
        }
        6 => {
            if let Some(&at) = completed.get(rng.gen_range(0..completed.len().max(1))) {
                let (field, token) = match rng.gen_range(0..3) {
                    0 => (1, "p7"),
                    1 => (2, "R5"),
                    _ => (4, "9"),
                };
                tokens[at][field] = token.to_string();
            }
        }
        7 if !recorded.is_empty() => {
            let line = recorded[rng.gen_range(0..recorded.len())].clone();
            lines.insert(rng.gen_range(0..=n), line);
            return;
        }
        _ => return,
    }
    *lines = tokens.iter().map(|t| t.join(" ")).collect();
}

/// Bytes the wire and schedule grammars are made of, for byte inserts and
/// replacements that reach past the tokenizer.
const GRAMMAR_BYTES: &[u8] = b" \n\t\r#.@?-:optR0123456789";

/// Applies one to four byte edits to `text`: delete, insert or replace a byte,
/// duplicate or drop a run of bytes, splice in a long digit string, or insert
/// `⊥`. Bytes that no longer form UTF-8 decode as U+FFFD, as a lossy reader of
/// the request body would see them.
fn mutate_bytes(text: &str, rng: &mut StdRng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=4) {
        let n = bytes.len();
        let at = rng.gen_range(0..=n);
        let end = rng.gen_range(at..=n.min(at + 24));
        let byte = if rng.gen_bool(0.5) {
            GRAMMAR_BYTES[rng.gen_range(0..GRAMMAR_BYTES.len())]
        } else {
            rng.gen_range(0..=u8::MAX)
        };
        match rng.gen_range(0..7) {
            0 if at < n => {
                bytes.remove(at);
            }
            1 => bytes.insert(at, byte),
            2 if at < n => bytes[at] = byte,
            3 => {
                let run = bytes[at..end].to_vec();
                bytes.splice(end..end, run);
            }
            4 => {
                bytes.drain(at..end);
            }
            5 => {
                let digits: Vec<u8> = (0..rng.gen_range(16..=40))
                    .map(|_| rng.gen_range(b'0'..=b'9'))
                    .collect();
                bytes.splice(at..at, digits);
            }
            6 => {
                bytes.splice(at..at, "⊥".bytes());
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `Ok(())` if `message` is `{what} line N: …` for a line `N` of `body`.
fn line_numbered(what: &str, message: &str, body: &str) -> Result<(), TestCaseError> {
    let line = message
        .strip_prefix(what)
        .and_then(|rest| rest.strip_prefix(" line "))
        .and_then(|rest| rest.split_once(':'))
        .and_then(|(n, _)| n.parse::<usize>().ok());
    prop_assert!(
        line.is_some_and(|n| (1..=body.lines().count()).contains(&n)),
        "not a line-numbered parse error: {message}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn malformed_bodies_never_panic_and_accepted_ones_check_as_the_library_does(
        seed in 0u64..u64::MAX,
        mutation_seed in 0u64..u64::MAX,
    ) {
        let history = random_history(seed, 12);
        let mut rng = StdRng::seed_from_u64(mutation_seed);
        let times = history.event_times();
        let cut = times[rng.gen_range(0..times.len())];
        let prefix = history.prefix_at(cut);
        let recorded = lines(&prefix);
        let diff: Vec<_> = history
            .operations()
            .iter()
            .enumerate()
            .filter(|&(i, op)| prefix.operations().get(i) != Some(op))
            .map(|(_, op)| op.clone())
            .collect();
        let mut whole = lines(&history);
        let mut events = lines(&History::from_operations(diff));
        for _ in 0..rng.gen_range(1..=2) {
            mutate(&mut whole, &[], &mut rng);
            mutate(&mut events, &recorded, &mut rng);
        }
        let service = CheckService::new(AppConfig::default());
        let direct = service.build_checker();

        // `/check`: a parse error names its line; an answer is the library's.
        let whole = mutate_bytes(&body(&whole), &mut rng);
        match service.check_text(&whole) {
            Ok(json) => {
                let parsed = parse_history(&whole).expect("an accepted body parses");
                prop_assert_eq!(json, verdict_to_json(&direct.check(&parsed)));
            }
            Err(ServiceError::Parse(message)) => line_numbered("history", &message, &whole)?,
            Err(ServiceError::Oversize(_)) => {}
            Err(other) => prop_assert!(false, "unexpected rejection {:?}", other),
        }

        // A session, fed the events in two bodies: a rejection is one counted
        // `400`, and whatever the session holds afterwards is checked as the
        // library checks it.
        let (id, _) = service
            .create_session(&body(&recorded))
            .expect("a valid first half seeds a session");
        let errors = || service.metrics.parse_errors.load(Ordering::SeqCst);
        let split = rng.gen_range(0..=events.len());
        for chunk in [&events[..split], &events[split..]] {
            let before = errors();
            match service.session_events(id, &mutate_bytes(&body(chunk), &mut rng)) {
                Ok(_) => prop_assert_eq!(errors(), before),
                Err(ServiceError::Parse(_)) => prop_assert_eq!(errors(), before + 1),
                Err(other) => prop_assert!(false, "unexpected rejection {:?}", other),
            }
        }
        let held = parse_history(&service.session_history(id).expect("live session"))
            .expect("the session's history parses");
        let served = service.session_verdict(id).expect("live session");
        let expected = format!("{{\"verdict\":{},", verdict_to_json(&direct.check(&held)));
        prop_assert!(served.starts_with(&expected), "{} vs {}", served, expected);
    }

    /// Recorded clean schedules, mutated by line and by byte, never panic
    /// `/analyze` under any cluster model, and every rejection names a line.
    #[test]
    fn mutated_schedules_never_panic_analyze_and_rejections_name_a_line(
        record_seed in 0u64..1_000,
        mutation_seed in 0u64..u64::MAX,
    ) {
        let schedule = record_clean_corpus(|| AbdCluster::new(5, ProcessId(0)), 1, 40, record_seed, false)
            .remove(0);
        let mut rng = StdRng::seed_from_u64(mutation_seed);
        let mut steps: Vec<String> = schedule.to_string().lines().map(str::to_string).collect();
        for _ in 0..rng.gen_range(0..=2) {
            let n = steps.len();
            match rng.gen_range(0..3) {
                0 if n > 0 => {
                    steps.remove(rng.gen_range(0..n));
                }
                1 if n > 0 => {
                    let line = steps[rng.gen_range(0..n)].clone();
                    steps.insert(rng.gen_range(0..=n), line);
                }
                2 if n > 1 => steps.swap(rng.gen_range(0..n), rng.gen_range(0..n)),
                _ => {}
            }
        }
        let text = mutate_bytes(&body(&steps), &mut rng);
        let service = CheckService::new(AppConfig::default());
        for model in [None, Some("abd"), Some("faulty-abd"), Some("mw-abd"), Some("faulty-mw-abd")] {
            match service.analyze_text(model, &text) {
                Ok(_) => {}
                Err(ServiceError::Parse(message)) => line_numbered("schedule", &message, &text)?,
                Err(other) => prop_assert!(false, "{:?}: unexpected rejection {:?}", model, other),
            }
        }
    }
}
