//! Property tests of scenario-file parsing: **no input panics
//! `Scenario::from_json`**.
//!
//! Three kinds of input: random bytes; byte flips, insertions and
//! truncations of every `scenarios/*.json` file, with bytes that are not
//! UTF-8 among them; and a 10⁵-deep nested array. Each must come back as
//! an error or as a scenario that validates (and survives its own JSON
//! round trip). Text that is not UTF-8 cannot reach the parser, which
//! takes `&str`, so such inputs are fed through `from_utf8_lossy`: the
//! parser then meets the multi-byte replacement characters instead. The
//! vendored proptest does not shrink, so every failure names the case
//! seed; [`Draw`] rebuilds that case's exact bytes from it.

use hyperroute_core::scenario::Scenario;
use hyperroute_desim::splitmix64;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Deterministic draws from a case seed.
struct Draw {
    seed: u64,
    counter: u64,
}

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.counter += 1;
        (splitmix64(self.seed ^ splitmix64(self.counter)) % n as u64) as usize
    }

    /// A byte to write: JSON-ish three times in four, so many mutants
    /// reach the parser's deeper states, any byte otherwise.
    fn byte(&mut self) -> u8 {
        if self.below(4) == 0 {
            self.below(256) as u8
        } else {
            JSONISH[self.below(JSONISH.len())]
        }
    }
}

/// JSON punctuation, digits, letters of the literals, and white space.
const JSONISH: &[u8] = b"{}[]\":,.-+eE0123456789 truefalsn\\\n";

/// Every scenario file of the corpus, as bytes.
fn corpus() -> Vec<(String, Vec<u8>)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("scenarios/ is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    assert!(files.len() >= 20, "only {} scenario files", files.len());
    files
        .into_iter()
        .map(|path| {
            let bytes = std::fs::read(&path).expect("scenario file is readable");
            (
                path.file_name().unwrap().to_string_lossy().into_owned(),
                bytes,
            )
        })
        .collect()
}

/// `bytes` edited 1–4 times: flips and insertions twice as often as
/// truncations, which mostly stop the parser early.
fn mutate(bytes: &[u8], draw: &mut Draw) -> Vec<u8> {
    let mut bytes = bytes.to_vec();
    for _ in 0..1 + draw.below(4) {
        let byte = draw.byte();
        match draw.below(5) {
            0 | 1 if !bytes.is_empty() => {
                let at = draw.below(bytes.len());
                bytes[at] = byte;
            }
            0..=3 => {
                let at = draw.below(bytes.len() + 1);
                bytes.insert(at, byte);
            }
            _ => {
                let at = draw.below(bytes.len() + 1);
                bytes.truncate(at);
            }
        }
    }
    bytes
}

/// Parse `bytes` as a scenario file; `Err(why)` when it panicked or
/// returned a scenario that does not validate or round-trip.
fn check(bytes: &[u8]) -> Result<(), String> {
    let text = String::from_utf8_lossy(bytes);
    let parsed = catch_unwind(AssertUnwindSafe(|| Scenario::from_json(&text)))
        .map_err(|_| "from_json panicked".to_string())?;
    let Ok(scenario) = parsed else {
        return Ok(());
    };
    scenario
        .validate()
        .map_err(|e| format!("accepted a scenario that does not validate: {e}"))?;
    let again = catch_unwind(AssertUnwindSafe(|| {
        Scenario::from_json(&scenario.to_json())
    }))
    .map_err(|_| "the accepted scenario's JSON panicked from_json".to_string())?;
    match again {
        Ok(again) if again.canonical_hash() == scenario.canonical_hash() => Ok(()),
        Ok(_) => Err("the accepted scenario changed across a JSON round trip".into()),
        Err(e) => Err(format!("the accepted scenario's JSON is refused: {e}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_bytes_never_panic_the_scenario_parser(seed in any::<u64>()) {
        let mut draw = Draw { seed, counter: 0 };
        let len = draw.below(600);
        let bytes: Vec<u8> = (0..len).map(|_| draw.byte()).collect();
        let checked = check(&bytes);
        prop_assert!(checked.is_ok(), "seed {seed:#x}: {}", checked.unwrap_err());
    }

    #[test]
    fn mutated_scenario_files_never_panic_the_parser(seed in any::<u64>()) {
        let mut draw = Draw { seed, counter: 0 };
        for (name, bytes) in corpus() {
            let mutant = mutate(&bytes, &mut draw);
            let checked = check(&mutant);
            prop_assert!(checked.is_ok(), "seed {seed:#x}, {name}: {}", checked.unwrap_err());
        }
    }
}

#[test]
fn deeply_nested_arrays_are_refused_not_overflowed() {
    const DEPTH: usize = 100_000;
    let closed = format!("{}{}", "[".repeat(DEPTH), "]".repeat(DEPTH));
    let open = "[".repeat(DEPTH);
    let (_, sample) = &corpus()[0];
    let sample = String::from_utf8(sample.clone()).unwrap();
    let nested_field = sample.replacen('{', &format!("{{\"deep\":{closed},"), 1);
    for text in [&closed, &open, &nested_field] {
        assert!(Scenario::from_json(text).is_err(), "{}…", &text[..40]);
    }
}
