//! Property test of the sweep service's input handling: **no request
//! line panics `serve`**.
//!
//! Each case mutates valid `Submit`, `Status` and `Results` lines — byte
//! flips, insertions and truncations, with bytes that are not UTF-8 and
//! inserted newlines among them — and feeds them, then `"Shutdown"`, to
//! [`serve`] over an in-process service. Every non-blank line must be
//! answered by exactly one terminal reply (`Report` frames only precede
//! a `ResultsDone`), with `Bye` last. The vendored proptest does not
//! shrink, so every failure names the case seed; [`service_input`]
//! rebuilds that case's exact bytes from it.

use hyperroute_core::scenario::{Axis, Scenario, Sweep, SweepParam, Topology};
use hyperroute_desim::splitmix64;
use hyperroute_grid::{
    serve, MemoryCache, ServiceConfig, ServiceReply, ServiceRequest, SweepService,
};
use proptest::prelude::*;
use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Valid request lines: a one-point `Submit`, and `Status` and `Results`
/// for its campaign. A mutant `Submit` that still parses runs in full,
/// so its point is tiny and stays small under a few byte edits: `dim` 7
/// can only become 0–9, 17, or 70 and up, which validation rejects, and
/// the horizon is 4 time units.
fn valid_lines() -> [String; 3] {
    let base = Scenario::builder(Topology::Hypercube { dim: 7 })
        .lambda(0.4)
        .p(0.5)
        .horizon(4.0)
        .warmup(1.0)
        .seed(3)
        .build()
        .unwrap();
    let sweep = Sweep::new(base, vec![Axis::new(SweepParam::Lambda, vec![0.4])]);
    [
        ServiceRequest::Submit {
            sweep,
            slice_len: 1,
        },
        ServiceRequest::Status { campaign: 0 },
        ServiceRequest::Results { campaign: 0 },
    ]
    .map(|request| serde_json::to_string(&request).unwrap())
}

/// Bytes the mutations draw from: JSON punctuation, digits, letters of
/// the literals, and the line break.
const JSONISH: &[u8] = b"{}[]\":,.-+eE0123456789 truefalsn\\\n";

/// The service input of the case with `seed`: the valid `Submit` (so
/// that `Status` and `Results` lines find a campaign), 2–6 request lines,
/// each a valid line edited 0–3 times, then a `"Shutdown"` line.
fn service_input(lines: &[String; 3], seed: u64) -> Vec<u8> {
    let mut counter = 0u64;
    let mut draw = |n: usize| {
        counter += 1;
        (splitmix64(seed ^ splitmix64(counter)) % n as u64) as usize
    };
    let mut input = format!("{}\n", lines[0]).into_bytes();
    for _ in 0..2 + draw(5) {
        let mut bytes = lines[draw(3)].as_bytes().to_vec();
        for _ in 0..draw(4) {
            let byte = if draw(4) == 0 {
                draw(256) as u8
            } else {
                JSONISH[draw(JSONISH.len())]
            };
            match draw(5) {
                0 | 1 if !bytes.is_empty() => {
                    let at = draw(bytes.len());
                    bytes[at] = byte;
                }
                0..=3 => {
                    let at = draw(bytes.len() + 1);
                    bytes.insert(at, byte);
                }
                _ => {
                    let at = draw(bytes.len() + 1);
                    bytes.truncate(at);
                }
            }
        }
        input.extend_from_slice(&bytes);
        input.push(b'\n');
    }
    input.extend_from_slice(b"\"Shutdown\"\n");
    input
}

/// Lines the service must answer: every line up to and including the
/// first `Shutdown` request but the blank ones (a line that is not UTF-8
/// is never blank).
fn answerable_lines(input: &[u8]) -> usize {
    let mut count = 0;
    for line in input.split(|&b| b == b'\n') {
        match std::str::from_utf8(line) {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => {
                count += 1;
                if matches!(serde_json::from_str(text), Ok(ServiceRequest::Shutdown)) {
                    break;
                }
            }
            Err(_) => count += 1,
        }
    }
    count
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mutated_request_lines_never_panic_the_service(seed in any::<u64>()) {
        let input = service_input(&valid_lines(), seed);
        let expected = answerable_lines(&input);
        let service = SweepService::new(
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            Arc::new(MemoryCache::new(16)),
        );
        let mut output = Vec::new();
        let served = catch_unwind(AssertUnwindSafe(|| {
            serve(&service, Cursor::new(input), &mut output)
        }));
        service.shutdown();
        prop_assert!(served.is_ok(), "seed {seed:#x}: serve panicked");
        prop_assert!(
            served.unwrap().is_ok(),
            "seed {seed:#x}: serve ended the session with an IO error"
        );
        let text = String::from_utf8(output);
        prop_assert!(text.is_ok(), "seed {seed:#x}: a reply is not UTF-8");
        let mut terminal = Vec::new();
        let mut open_stream = None;
        for reply in text.unwrap().lines() {
            let parsed = serde_json::from_str::<ServiceReply>(reply);
            prop_assert!(parsed.is_ok(), "seed {seed:#x}: reply {reply:?} does not parse");
            match parsed.unwrap() {
                ServiceReply::Report { campaign, .. } => {
                    prop_assert!(
                        open_stream.is_none_or(|open| open == campaign),
                        "seed {seed:#x}: interleaved Results streams"
                    );
                    open_stream = Some(campaign);
                }
                terminal_reply => {
                    if let Some(open) = open_stream.take() {
                        prop_assert!(
                            matches!(terminal_reply, ServiceReply::ResultsDone { campaign, .. } if campaign == open),
                            "seed {seed:#x}: Report frames end with {terminal_reply:?}"
                        );
                    }
                    terminal.push(terminal_reply);
                }
            }
        }
        prop_assert_eq!(
            terminal.len(),
            expected,
            "seed {:#x}: {} answerable lines, terminal replies {:?}",
            seed,
            expected,
            terminal
        );
        prop_assert_eq!(
            terminal.first(),
            Some(&ServiceReply::Accepted { campaign: 0 }),
            "seed {:#x}: the valid Submit",
            seed
        );
        prop_assert_eq!(terminal.last(), Some(&ServiceReply::Bye), "seed {:#x}", seed);
    }
}
