//! Golden regression gates for the observers, each byte-compared against
//! a checked-in fixture so drift shows up as a reviewable diff:
//!
//! * a tiny seeded scenario's flight-recorder NDJSON export — any change
//!   to hook firing order, trace sampling or the export format;
//! * one digest per corpus scenario of its report JSON with a
//!   [`TelemetryProbe`] attached — any change to the telemetry extension
//!   of any topology the corpus covers.
//!
//! Regenerate intentionally with
//! `HYPERROUTE_UPDATE_GOLDEN=1 cargo test -p hyperroute-telemetry --test
//! golden_trace` and commit the new fixtures.

use std::fmt::Write as _;

use hyperroute_core::scenario::{Scenario, Topology};
use hyperroute_telemetry::{FlightRecorder, TelemetryProbe};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/flight_trace.ndjson"
);

const CORPUS_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/corpus_telemetry.txt"
);

/// Compare `got` with the fixture at `path`, or rewrite the fixture when
/// `HYPERROUTE_UPDATE_GOLDEN` is set.
fn assert_matches_golden(path: &str, got: &str) {
    if std::env::var_os("HYPERROUTE_UPDATE_GOLDEN").is_some() {
        std::fs::write(path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("golden fixture missing: regenerate with HYPERROUTE_UPDATE_GOLDEN=1");
    assert_eq!(
        got, want,
        "output drifted from {path}; if the change is intended, \
         regenerate with HYPERROUTE_UPDATE_GOLDEN=1"
    );
}

fn recorded_trace() -> String {
    let scenario = Scenario::builder(Topology::Hypercube { dim: 3 })
        .lambda(0.4)
        .p(0.5)
        .horizon(15.0)
        .warmup(3.0)
        .seed(7)
        .build()
        .unwrap();
    let mut recorder = FlightRecorder::new(0x00F1_1C47, 1.0, 256);
    scenario.run_observed(&mut recorder).unwrap();
    recorder.seal();
    recorder.to_ndjson()
}

#[test]
fn tiny_seeded_scenario_trace_matches_the_checked_in_golden() {
    assert_matches_golden(GOLDEN, &recorded_trace());
}

#[test]
fn golden_scenario_trace_is_reproducible_within_a_process() {
    assert_eq!(recorded_trace(), recorded_trace());
}

/// FNV-1a, 64-bit: a stable digest of a report's JSON bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `name digest` per `scenarios/*.json` (sorted by file name): each
/// scenario runs under a fresh [`TelemetryProbe`], which is attached to
/// the report before it is serialised and hashed.
fn corpus_telemetry_digests() -> String {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("scenario directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no scenarios in {dir}");
    let mut out = String::new();
    for path in &paths {
        let text = std::fs::read_to_string(path).expect("readable scenario");
        let scenario = Scenario::from_json(&text).expect("corpus scenario parses");
        let mut probe = TelemetryProbe::new();
        let mut report = scenario.run_observed(&mut probe).expect("scenario runs");
        probe.attach(&mut report);
        let json = serde_json::to_string(&report).expect("reports serialise");
        let name = path.file_stem().expect("file stem").to_string_lossy();
        writeln!(out, "{name} {:016x}", fnv1a64(json.as_bytes())).unwrap();
    }
    out
}

#[test]
fn corpus_telemetry_reports_match_the_checked_in_digests() {
    assert_matches_golden(CORPUS_GOLDEN, &corpus_telemetry_digests());
}
