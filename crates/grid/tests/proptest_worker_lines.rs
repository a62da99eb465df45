//! Property test of the worker's input handling: **no request line
//! panics a worker**.
//!
//! Each case mutates valid `Slice` request lines — byte flips,
//! insertions and truncations, with bytes that are not UTF-8 and
//! inserted newlines among them — and feeds them, then `"Shutdown"`, to
//! [`run_worker`]. Every non-blank line must be answered by exactly one
//! terminal reply, with `Bye` last. The vendored proptest does not
//! shrink, so every failure names the case seed; [`mutated_input`]
//! rebuilds that case's exact bytes from it.

use hyperroute_core::scenario::{Axis, Scenario, Sweep, SweepParam, Topology};
use hyperroute_desim::splitmix64;
use hyperroute_grid::{partition, run_worker, WorkerReply, WorkerRequest};
use proptest::prelude::*;
use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A valid `Slice` request line. A mutant that still parses runs in
/// full, so its one point is tiny and stays small under a few byte
/// edits: `dim` 7 can only become 0–9, 17, or 70 and up, which
/// validation rejects, and the horizon is 4 time units.
fn valid_line() -> String {
    let base = Scenario::builder(Topology::Hypercube { dim: 7 })
        .lambda(0.4)
        .p(0.5)
        .horizon(4.0)
        .warmup(1.0)
        .seed(3)
        .build()
        .unwrap();
    let sweep = Sweep::new(base, vec![Axis::new(SweepParam::Lambda, vec![0.4])]);
    let job = partition(&sweep, 1)[0].job().unwrap();
    serde_json::to_string(&WorkerRequest::Slice(job)).unwrap()
}

/// Bytes the mutations draw from: JSON punctuation, digits, letters of
/// the literals, and the line break, so that many mutants still reach
/// the parser's deeper states.
const JSONISH: &[u8] = b"{}[]\":,.-+eE0123456789 truefalsn\\\n";

/// The worker input of the case with `seed`: 2–5 mutants of `line`, each
/// edited 1–3 times, then a `"Shutdown"` line.
fn mutated_input(line: &str, seed: u64) -> Vec<u8> {
    let mut counter = 0u64;
    let mut draw = |n: usize| {
        counter += 1;
        (splitmix64(seed ^ splitmix64(counter)) % n as u64) as usize
    };
    let mut input = Vec::new();
    for _ in 0..2 + draw(4) {
        let mut bytes = line.as_bytes().to_vec();
        for _ in 0..1 + draw(3) {
            let byte = if draw(4) == 0 {
                draw(256) as u8
            } else {
                JSONISH[draw(JSONISH.len())]
            };
            // Flips and insertions twice as often as truncations, which
            // mostly stop the parser at its first open string.
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

/// Lines the worker must answer: every line but the blank ones (a line
/// that is not UTF-8 is never blank).
fn answerable_lines(input: &[u8]) -> usize {
    input
        .split(|&b| b == b'\n')
        .filter(|line| std::str::from_utf8(line).map_or(true, |s| !s.trim().is_empty()))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mutated_job_lines_never_panic_a_worker(seed in any::<u64>()) {
        let input = mutated_input(&valid_line(), seed);
        let expected = answerable_lines(&input);
        let mut output = Vec::new();
        let served = catch_unwind(AssertUnwindSafe(|| {
            run_worker(Cursor::new(input), &mut output)
        }));
        prop_assert!(served.is_ok(), "seed {seed:#x}: the worker panicked");
        prop_assert!(
            served.unwrap().is_ok(),
            "seed {seed:#x}: the worker ended the session with an IO error"
        );
        let text = String::from_utf8(output);
        prop_assert!(text.is_ok(), "seed {seed:#x}: a reply is not UTF-8");
        let mut terminal = Vec::new();
        for reply in text.unwrap().lines() {
            let parsed = serde_json::from_str::<WorkerReply>(reply);
            prop_assert!(parsed.is_ok(), "seed {seed:#x}: reply {reply:?} does not parse");
            match parsed.unwrap() {
                WorkerReply::Progress { .. } => {}
                terminal_reply => terminal.push(terminal_reply),
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
        let (last, jobs) = terminal.split_last().unwrap();
        prop_assert_eq!(last, &WorkerReply::Bye, "seed {:#x}", seed);
        for reply in jobs {
            prop_assert!(
                matches!(reply, WorkerReply::Ok(_) | WorkerReply::Err { .. }),
                "seed {seed:#x}: a mutated job line was answered with {reply:?}"
            );
        }
    }
}
