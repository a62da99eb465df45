//! The scenario-corpus regression gate.
//!
//! A corpus is a directory of scenario files (`scenarios/*.json` in this
//! repository) plus a directory of checked-in baseline reports
//! (`scenarios/baselines/<name>.report.json`). [`run_corpus`] executes
//! every scenario — they are deterministic functions of their seeds — and
//! compares each emitted [`Report`] against its baseline with the
//! bit-exact report equality the differential tests use, so *any* change
//! to simulation output, however small, fails the gate. Regenerate
//! baselines with `update = true` (`hyperroute-grid run-corpus --update`)
//! when an output change is intended, and let the diff reviewer see
//! exactly which numbers moved.
//!
//! Every scenario runs as a one-point campaign through an in-process
//! [`SweepService`], so the gate covers the service, the campaign
//! dispatcher and the report cache on the way to each report.

use crate::cache::ReportCache;
use crate::error::GridError;
use crate::service::{CampaignState, ServiceConfig, SweepService};
use hyperroute_core::scenario::{Report, Scenario, ScenarioFileError, Sweep};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Outcome of one corpus entry.
#[derive(Clone, Debug, PartialEq)]
pub enum CorpusStatus {
    /// Report matches the checked-in baseline bit-exactly.
    Match,
    /// Baseline (re)written in update mode.
    Updated,
    /// No baseline exists for this scenario yet.
    MissingBaseline,
    /// Report differs from the baseline.
    Mismatch {
        /// Human-readable summary of the first observed difference.
        detail: String,
    },
    /// The scenario file did not load (parse or validation failure).
    Invalid {
        /// `file:line:column`-style description of the failure.
        message: String,
    },
    /// The baseline exists but could not be read (I/O failure). Recorded
    /// per entry — one unreadable baseline must not mask the diffs of
    /// the scenarios after it.
    Error {
        /// Description of the I/O failure.
        message: String,
    },
    /// The report matched its baseline but had to be *simulated* while
    /// [`CorpusOptions::require_all_hits`] demanded a cache hit — the
    /// failing verdict of the cache-differential arm's second pass.
    CacheMiss,
}

/// One corpus entry: the scenario's stem name and what happened to it.
#[derive(Clone, Debug, PartialEq)]
pub struct CorpusEntry {
    /// File stem of the scenario (`hypercube_heavy` for
    /// `scenarios/hypercube_heavy.json`).
    pub name: String,
    /// What happened.
    pub status: CorpusStatus,
    /// Wall-clock seconds the scenario took to run (`None` for files
    /// that never ran — parse/validation failures).
    pub wall_secs: Option<f64>,
}

/// Results of a whole corpus run.
#[derive(Clone, Debug, PartialEq)]
pub struct CorpusOutcome {
    /// Per-scenario outcomes, in file-name order.
    pub entries: Vec<CorpusEntry>,
}

impl CorpusOutcome {
    /// Whether the gate passes: every entry matched (or was just
    /// updated).
    pub fn passed(&self) -> bool {
        self.entries
            .iter()
            .all(|e| matches!(e.status, CorpusStatus::Match | CorpusStatus::Updated))
    }

    /// One status line per entry, `PASS`/`FAIL` style, with the
    /// scenario's wall-clock run time appended when it ran.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let line = match &e.status {
                CorpusStatus::Match => format!("ok       {}", e.name),
                CorpusStatus::Updated => format!("updated  {}", e.name),
                CorpusStatus::MissingBaseline => {
                    format!("MISSING  {} (run with --update to create)", e.name)
                }
                CorpusStatus::Mismatch { detail } => format!("DIFF     {}: {detail}", e.name),
                CorpusStatus::Invalid { message } => format!("INVALID  {}: {message}", e.name),
                CorpusStatus::Error { message } => format!("ERROR    {}: {message}", e.name),
                CorpusStatus::CacheMiss => format!(
                    "UNCACHED {} (simulated although --require-all-hits was set)",
                    e.name
                ),
            };
            out.push_str(&line);
            if let Some(wall) = e.wall_secs {
                out.push_str(&format!("  [{wall:.3}s]"));
            }
            out.push('\n');
        }
        out
    }

    /// The `n` slowest entries as `(name, wall-clock seconds)`, slowest
    /// first; entries that never ran are excluded. Ties break by name so
    /// the listing is stable across runs.
    pub fn slowest(&self, n: usize) -> Vec<(&str, f64)> {
        let mut timed: Vec<(&str, f64)> = self
            .entries
            .iter()
            .filter_map(|e| e.wall_secs.map(|w| (e.name.as_str(), w)))
            .collect();
        timed.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        timed.truncate(n);
        timed
    }
}

/// Optional knobs for [`run_corpus_with`] beyond the common defaults.
#[derive(Clone, Default)]
pub struct CorpusOptions {
    /// Consult (and populate) this content-addressed report cache
    /// before simulating any scenario. Cached reports still diff
    /// against the baselines — a poisoned cache fails the gate exactly
    /// like a regression would.
    pub cache: Option<Arc<dyn ReportCache>>,
    /// With [`Self::cache`]: fail any scenario that had to be simulated
    /// (status [`CorpusStatus::CacheMiss`]) — the second pass of the
    /// cache-differential arm, asserting "zero simulations on repeat".
    pub require_all_hits: bool,
}

impl std::fmt::Debug for CorpusOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CorpusOptions")
            .field("cache", &self.cache.as_ref().map(|c| c.stats()))
            .field("require_all_hits", &self.require_all_hits)
            .finish()
    }
}

/// Execute every scenario in `scenario_dir` and diff its report against
/// `baseline_dir/<stem>.report.json`. With `update`, baselines are
/// rewritten instead of compared.
pub fn run_corpus(
    scenario_dir: &Path,
    baseline_dir: &Path,
    update: bool,
) -> Result<CorpusOutcome, GridError> {
    run_corpus_with(
        scenario_dir,
        baseline_dir,
        update,
        &CorpusOptions::default(),
    )
}

/// [`run_corpus`] with the extra [`CorpusOptions`] knobs.
pub fn run_corpus_with(
    scenario_dir: &Path,
    baseline_dir: &Path,
    update: bool,
    opts: &CorpusOptions,
) -> Result<CorpusOutcome, GridError> {
    let files = scenario_files(scenario_dir)?;
    if files.is_empty() {
        return Err(GridError::Corpus(format!(
            "no scenario files (*.json) in {}",
            scenario_dir.display()
        )));
    }
    if opts.require_all_hits && opts.cache.is_none() {
        return Err(GridError::Corpus(
            "require_all_hits needs a report cache (--cache-dir)".into(),
        ));
    }

    // Load and validate every file first, then run the valid ones.
    let mut entries: Vec<CorpusEntry> = Vec::with_capacity(files.len());
    let mut runnable: Vec<(usize, Scenario)> = Vec::new();
    for path in &files {
        let name = path
            .file_stem()
            .expect("scenario_files yields *.json only")
            .to_string_lossy()
            .into_owned();
        let status = match load_scenario(path) {
            Ok(scenario) => {
                runnable.push((entries.len(), scenario));
                CorpusStatus::Match // placeholder until the diff below
            }
            Err(message) => CorpusStatus::Invalid { message },
        };
        entries.push(CorpusEntry {
            name,
            status,
            wall_secs: None,
        });
    }

    let reports = run_through_service(runnable, opts)?;

    if update {
        std::fs::create_dir_all(baseline_dir)
            .map_err(|e| crate::error::io_error(baseline_dir, e))?;
    }
    for (idx, report, wall_secs, cache_hit) in reports {
        let baseline = baseline_dir.join(format!("{}.report.json", entries[idx].name));
        entries[idx].wall_secs = Some(wall_secs);
        entries[idx].status = if update {
            let mut text = serde_json::to_string_pretty(&report).expect("reports always serialise");
            text.push('\n');
            std::fs::write(&baseline, text).map_err(|e| crate::error::io_error(&baseline, e))?;
            CorpusStatus::Updated
        } else {
            // Diff failures (unreadable baseline included) are recorded
            // per entry, never propagated: every scenario's verdict lands
            // in the summary even when an earlier baseline is broken.
            let status = diff_against_baseline(&baseline, &report);
            if opts.require_all_hits && !cache_hit && status == CorpusStatus::Match {
                // Right bytes, wrong provenance: the cache-differential
                // arm demanded this report be *served*, not simulated.
                CorpusStatus::CacheMiss
            } else {
                status
            }
        };
    }
    Ok(CorpusOutcome { entries })
}

/// Execute corpus scenarios through a [`SweepService`], each wrapped as
/// a one-point sweep (no axes, seed untouched), sequentially — campaign
/// isolation is the point here, not cross-scenario parallelism. Without
/// [`CorpusOptions::cache`] the service gets a private in-memory cache.
/// Returns `(entry index, report, wall seconds, served-from-cache)`.
fn run_through_service(
    runnable: Vec<(usize, Scenario)>,
    opts: &CorpusOptions,
) -> Result<Vec<(usize, Report, f64, bool)>, GridError> {
    let cache: Arc<dyn ReportCache> = opts
        .cache
        .clone()
        .unwrap_or_else(|| Arc::new(crate::cache::MemoryCache::new(runnable.len().max(1))));
    let service = SweepService::new(
        ServiceConfig {
            slice_len: 1,
            workers: 1,
            worker_cmd: None,
            queue_capacity: 1,
        },
        cache,
    );
    let mut out = Vec::with_capacity(runnable.len());
    for (idx, scenario) in runnable {
        let hits_before = service.cache_stats().hits;
        let started = std::time::Instant::now();
        let mut sweep = Sweep::new(scenario, Vec::new());
        // One grid point that IS the corpus scenario: no derived seed.
        sweep.derive_seeds = false;
        let id = service.submit(sweep, 1)?;
        let report = match service.wait(id) {
            CampaignState::Done { .. } => service
                .results(id)
                .expect("Done campaigns have results")
                .swap_remove(0),
            CampaignState::Failed { error } => {
                return Err(GridError::Corpus(format!(
                    "service campaign for corpus entry {idx} failed: {error}"
                )))
            }
            other => unreachable!("wait() returned non-terminal {other:?}"),
        };
        let cache_hit = service.cache_stats().hits > hits_before;
        out.push((idx, report, started.elapsed().as_secs_f64(), cache_hit));
    }
    Ok(out)
}

/// Outcome of one [`validate_corpus`] round-trip check.
#[derive(Clone, Debug, PartialEq)]
pub enum RoundTripStatus {
    /// The file is bit-exactly `Scenario::to_json` of what it parses to.
    Canonical,
    /// Rewritten to canonical form (fix mode).
    Fixed,
    /// The file does not parse / validate as a `Scenario`.
    Invalid {
        /// `file:line:column`-style description of the failure.
        message: String,
    },
    /// The file parses but is not in canonical form — hand-edited corpus
    /// drift that would survive a parse yet churn on the next `--update`.
    Drifted {
        /// 1-based line where the on-disk text first diverges from the
        /// canonical rendering.
        first_divergent_line: usize,
    },
}

/// Results of a whole [`validate_corpus`] run.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundTripOutcome {
    /// Per-scenario `(stem, status)`, in file-name order.
    pub entries: Vec<(String, RoundTripStatus)>,
}

impl RoundTripOutcome {
    /// Whether every file is canonical (or was just fixed).
    pub fn passed(&self) -> bool {
        self.entries
            .iter()
            .all(|(_, s)| matches!(s, RoundTripStatus::Canonical | RoundTripStatus::Fixed))
    }

    /// One status line per entry.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (name, status) in &self.entries {
            let line = match status {
                RoundTripStatus::Canonical => format!("ok       {name}"),
                RoundTripStatus::Fixed => format!("fixed    {name}"),
                RoundTripStatus::Invalid { message } => format!("INVALID  {name}: {message}"),
                RoundTripStatus::Drifted {
                    first_divergent_line,
                } => format!(
                    "DRIFT    {name}: not canonical from line {first_divergent_line} \
                     (re-render with validate-corpus --fix)"
                ),
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

/// Round-trip every scenario in `scenario_dir` through
/// `Scenario::from_json` / `Scenario::to_json` and flag any file that
/// parses but is not bit-exactly its own canonical rendering — the drift
/// a hand edit introduces silently (a non-canonical file still runs, but
/// churns spuriously on the next `--update` and can hide real diffs in
/// review). With `fix`, drifted files are rewritten canonically instead.
pub fn validate_corpus(scenario_dir: &Path, fix: bool) -> Result<RoundTripOutcome, GridError> {
    let files = scenario_files(scenario_dir)?;
    if files.is_empty() {
        return Err(GridError::Corpus(format!(
            "no scenario files (*.json) in {}",
            scenario_dir.display()
        )));
    }
    let mut entries = Vec::with_capacity(files.len());
    for path in &files {
        let name = path
            .file_stem()
            .expect("scenario_files yields *.json only")
            .to_string_lossy()
            .into_owned();
        entries.push((name, round_trip_file(path, fix)?));
    }
    Ok(RoundTripOutcome { entries })
}

fn round_trip_file(path: &Path, fix: bool) -> Result<RoundTripStatus, GridError> {
    let on_disk = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            return Ok(RoundTripStatus::Invalid {
                message: format!("{}: {e}", path.display()),
            })
        }
    };
    let scenario = match Scenario::from_json(&on_disk) {
        Ok(s) => s,
        Err(e) => {
            return Ok(RoundTripStatus::Invalid {
                message: format!("{}: {e}", path.display()),
            })
        }
    };
    let mut canonical = scenario.to_json();
    canonical.push('\n');
    if on_disk == canonical {
        return Ok(RoundTripStatus::Canonical);
    }
    if fix {
        std::fs::write(path, canonical).map_err(|e| crate::error::io_error(path, e))?;
        return Ok(RoundTripStatus::Fixed);
    }
    let first_divergent_line = on_disk
        .lines()
        .zip(canonical.lines())
        .position(|(a, b)| a != b)
        .map_or_else(
            || on_disk.lines().count().min(canonical.lines().count()) + 1,
            |i| i + 1,
        );
    Ok(RoundTripStatus::Drifted {
        first_divergent_line,
    })
}

/// The `*.json` files directly inside `dir`, name-sorted (subdirectories
/// — the baselines — are not descended into).
fn scenario_files(dir: &Path) -> Result<Vec<PathBuf>, GridError> {
    let entries = std::fs::read_dir(dir).map_err(|e| crate::error::io_error(dir, e))?;
    let mut files = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| crate::error::io_error(dir, e))?;
        let path = entry.path();
        if path.is_file() && path.extension().is_some_and(|ext| ext == "json") {
            files.push(path);
        }
    }
    files.sort();
    Ok(files)
}

/// Load one scenario file, rendering failures as `file:line:column:`
/// messages.
fn load_scenario(path: &Path) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Scenario::from_json(&text).map_err(|e| match &e {
        ScenarioFileError::Parse { line, column, .. } => {
            format!("{}:{line}:{column}: {e}", path.display())
        }
        ScenarioFileError::Invalid(_) | ScenarioFileError::Removed { .. } => {
            format!("{}: {e}", path.display())
        }
    })
}

/// Compare `report` against the stored baseline, summarising the first
/// difference found. Every failure mode — missing, unreadable, or
/// unparseable baseline — is a per-entry status, so the caller's loop
/// reaches every scenario.
fn diff_against_baseline(baseline: &Path, report: &Report) -> CorpusStatus {
    let text = match std::fs::read_to_string(baseline) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CorpusStatus::MissingBaseline,
        Err(e) => {
            return CorpusStatus::Error {
                message: format!("{}: {e}", baseline.display()),
            }
        }
    };
    let stored: Report = match serde_json::from_str(&text) {
        Ok(stored) => stored,
        Err(e) => {
            return CorpusStatus::Mismatch {
                detail: format!("baseline does not parse ({e}); regenerate with --update"),
            }
        }
    };
    if stored == *report {
        return CorpusStatus::Match;
    }
    CorpusStatus::Mismatch {
        detail: first_difference(&stored, report),
    }
}

/// A short human-oriented description of where two reports diverge.
fn first_difference(baseline: &Report, got: &Report) -> String {
    let pairs = [
        ("delay.mean", baseline.delay.mean, got.delay.mean),
        ("delay.p99", baseline.delay.p99, got.delay.p99),
        (
            "mean_in_system",
            baseline.mean_in_system,
            got.mean_in_system,
        ),
        ("throughput", baseline.throughput, got.throughput),
    ];
    for (field, b, g) in pairs {
        if b.to_bits() != g.to_bits() && !(b.is_nan() && g.is_nan()) {
            return format!("{field}: baseline {b} vs run {g}");
        }
    }
    if baseline.generated != got.generated {
        return format!(
            "generated: baseline {} vs run {}",
            baseline.generated, got.generated
        );
    }
    if baseline.events != got.events {
        return format!("events: baseline {} vs run {}", baseline.events, got.events);
    }
    "reports differ outside the headline fields (see the JSON diff)".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperroute_core::scenario::Topology;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "hyperroute-corpus-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_scenario(dir: &Path, name: &str, seed: u64) {
        let s = Scenario::builder(Topology::Hypercube { dim: 3 })
            .lambda(0.9)
            .horizon(50.0)
            .warmup(10.0)
            .seed(seed)
            .build()
            .unwrap();
        std::fs::write(
            dir.join(format!("{name}.json")),
            format!("{}\n", s.to_json()),
        )
        .unwrap();
    }

    #[test]
    fn update_then_verify_round_trips() {
        let dir = temp_dir("roundtrip");
        let baselines = dir.join("baselines");
        write_scenario(&dir, "a", 1);
        write_scenario(&dir, "b", 2);

        let updated = run_corpus(&dir, &baselines, true).unwrap();
        assert!(updated.passed());
        assert!(updated
            .entries
            .iter()
            .all(|e| e.status == CorpusStatus::Updated));

        let verified = run_corpus(&dir, &baselines, false).unwrap();
        assert!(verified.passed(), "{}", verified.summary());
        assert!(verified
            .entries
            .iter()
            .all(|e| e.status == CorpusStatus::Match));
        // Every executed scenario carries its wall time, and the summary
        // prints it.
        assert!(verified.entries.iter().all(|e| e.wall_secs.is_some()));
        assert!(verified.summary().contains("s]"), "{}", verified.summary());
        assert_eq!(verified.slowest(5).len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn slowest_orders_by_wall_time_and_breaks_ties_by_name() {
        let entry = |name: &str, wall_secs: Option<f64>| CorpusEntry {
            name: name.into(),
            status: CorpusStatus::Match,
            wall_secs,
        };
        let outcome = CorpusOutcome {
            entries: vec![
                entry("quick", Some(0.5)),
                entry("never_ran", None),
                entry("slow_b", Some(2.0)),
                entry("slow_a", Some(2.0)),
                entry("glacial", Some(9.0)),
            ],
        };
        assert_eq!(
            outcome.slowest(3),
            vec![("glacial", 9.0), ("slow_a", 2.0), ("slow_b", 2.0)]
        );
        // n past the timed entries just returns them all.
        assert_eq!(outcome.slowest(10).len(), 4);
    }

    #[test]
    fn drifted_baseline_fails_the_gate() {
        let dir = temp_dir("drift");
        let baselines = dir.join("baselines");
        write_scenario(&dir, "a", 1);
        run_corpus(&dir, &baselines, true).unwrap();
        // Tamper with the stored baseline the way a regression would.
        let path = baselines.join("a.report.json");
        let tampered = std::fs::read_to_string(&path).unwrap().replacen(
            "\"generated\":",
            "\"generated\": 1, \"_x\":",
            1,
        );
        std::fs::write(&path, tampered).unwrap();
        let outcome = run_corpus(&dir, &baselines, false).unwrap();
        assert!(!outcome.passed());
        assert!(matches!(
            outcome.entries[0].status,
            CorpusStatus::Mismatch { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_scenario_reports_location() {
        let dir = temp_dir("invalid");
        let baselines = dir.join("baselines");
        write_scenario(&dir, "good", 1);
        std::fs::write(dir.join("broken.json"), "{\n  \"topology\": nope\n}").unwrap();
        run_corpus(&dir, &baselines, true).unwrap();
        let outcome = run_corpus(&dir, &baselines, false).unwrap();
        assert!(!outcome.passed());
        let CorpusStatus::Invalid { message } = &outcome.entries[0].status else {
            panic!("expected Invalid, got {:?}", outcome.entries[0]);
        };
        assert!(message.contains("broken.json:2:15"), "{message}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_validation_failure_reports_file_path() {
        // Validation (`ConfigError`) failures — well-formed JSON naming an
        // impossible combination — must carry the offending file path in
        // the gate output, exactly like parse failures do (which also get
        // a line/column).
        let dir = temp_dir("invalid-combo");
        let baselines = dir.join("baselines");
        write_scenario(&dir, "good", 1);
        let mut bad = Scenario::builder(Topology::Hypercube { dim: 3 })
            .lambda(0.9)
            .horizon(50.0)
            .warmup(10.0)
            .build()
            .unwrap();
        bad.workload.lambda = -1.0; // invalid, but serialisable
        std::fs::write(dir.join("bad_combo.json"), bad.to_json()).unwrap();
        run_corpus(&dir, &baselines, true).unwrap();
        let outcome = run_corpus(&dir, &baselines, false).unwrap();
        assert!(!outcome.passed());
        let CorpusStatus::Invalid { message } = &outcome.entries[0].status else {
            panic!("expected Invalid, got {:?}", outcome.entries[0]);
        };
        assert!(
            message.contains("bad_combo.json") && message.contains("invalid"),
            "validation failure lost its file path: {message}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_diffs_collected_when_multiple_baselines_break() {
        // One broken baseline must not mask the others: tamper with two
        // of three and check both verdicts (plus the pass) land in the
        // outcome and the summary.
        let dir = temp_dir("collect-all");
        let baselines = dir.join("baselines");
        write_scenario(&dir, "a", 1);
        write_scenario(&dir, "b", 2);
        write_scenario(&dir, "c", 3);
        run_corpus(&dir, &baselines, true).unwrap();
        for name in ["a", "c"] {
            let path = baselines.join(format!("{name}.report.json"));
            let tampered = std::fs::read_to_string(&path).unwrap().replacen(
                "\"generated\":",
                "\"generated\": 1, \"_x\":",
                1,
            );
            std::fs::write(&path, tampered).unwrap();
        }
        let outcome = run_corpus(&dir, &baselines, false).unwrap();
        assert!(!outcome.passed());
        assert!(matches!(
            outcome.entries[0].status,
            CorpusStatus::Mismatch { .. }
        ));
        assert_eq!(outcome.entries[1].status, CorpusStatus::Match);
        assert!(matches!(
            outcome.entries[2].status,
            CorpusStatus::Mismatch { .. }
        ));
        let summary = outcome.summary();
        assert_eq!(summary.matches("DIFF").count(), 2, "{summary}");
        assert_eq!(summary.matches("ok").count(), 1, "{summary}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unreadable_baseline_is_a_per_entry_error() {
        // A baseline that exists but is a directory (read fails with a
        // non-NotFound error) must surface as that entry's status, not
        // abort the run before later entries are diffed.
        let dir = temp_dir("unreadable");
        let baselines = dir.join("baselines");
        write_scenario(&dir, "a", 1);
        write_scenario(&dir, "b", 2);
        run_corpus(&dir, &baselines, true).unwrap();
        std::fs::remove_file(baselines.join("a.report.json")).unwrap();
        std::fs::create_dir(baselines.join("a.report.json")).unwrap();
        let outcome = run_corpus(&dir, &baselines, false).unwrap();
        assert!(!outcome.passed());
        assert!(
            matches!(outcome.entries[0].status, CorpusStatus::Error { .. }),
            "{:?}",
            outcome.entries[0]
        );
        assert_eq!(outcome.entries[1].status, CorpusStatus::Match);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn round_trip_validation_flags_and_fixes_drift() {
        let dir = temp_dir("roundtrip-validate");
        write_scenario(&dir, "canonical", 1);
        // Hand-edit: reorder nothing, just add harmless whitespace — the
        // file still parses to the same scenario but is not canonical.
        let path = dir.join("edited.json");
        let s = Scenario::builder(Topology::Hypercube { dim: 3 })
            .lambda(0.9)
            .horizon(50.0)
            .warmup(10.0)
            .seed(9)
            .build()
            .unwrap();
        std::fs::write(&path, format!("  {}\n", s.to_json())).unwrap();
        // And one file that does not parse at all.
        std::fs::write(dir.join("broken.json"), "{ nope }").unwrap();

        let outcome = validate_corpus(&dir, false).unwrap();
        assert!(!outcome.passed());
        let by_name = |n: &str| {
            outcome
                .entries
                .iter()
                .find(|(name, _)| name == n)
                .map(|(_, s)| s.clone())
                .unwrap()
        };
        assert!(matches!(by_name("broken"), RoundTripStatus::Invalid { .. }));
        assert_eq!(
            by_name("edited"),
            RoundTripStatus::Drifted {
                first_divergent_line: 1,
            }
        );
        assert_eq!(by_name("canonical"), RoundTripStatus::Canonical);

        // Fix mode rewrites the drifted file; broken stays invalid.
        let fixed = validate_corpus(&dir, true).unwrap();
        assert!(!fixed.passed(), "broken.json cannot be fixed");
        std::fs::remove_file(dir.join("broken.json")).unwrap();
        let clean = validate_corpus(&dir, false).unwrap();
        assert!(clean.passed(), "{}", clean.summary());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_differential_second_pass_is_all_hits() {
        use crate::cache::MemoryCache;
        let dir = temp_dir("cache-arm");
        let baselines = dir.join("baselines");
        write_scenario(&dir, "a", 1);
        write_scenario(&dir, "b", 2);
        run_corpus(&dir, &baselines, true).unwrap();

        let cache = Arc::new(MemoryCache::new(16));
        let first = CorpusOptions {
            cache: Some(cache.clone()),
            ..CorpusOptions::default()
        };
        // Pass 1 populates the cache and must still verify baselines.
        let outcome = run_corpus_with(&dir, &baselines, false, &first).unwrap();
        assert!(outcome.passed(), "{}", outcome.summary());
        assert_eq!(cache.stats().inserts, 2);

        // Pass 2: 100% served from the cache, byte-identical baselines.
        let second = CorpusOptions {
            cache: Some(cache.clone()),
            require_all_hits: true,
        };
        let outcome = run_corpus_with(&dir, &baselines, false, &second).unwrap();
        assert!(outcome.passed(), "{}", outcome.summary());
        assert_eq!(cache.stats().hits, 2, "second pass must be pure hits");
        assert_eq!(cache.stats().inserts, 2, "second pass inserted nothing");

        // A cold cache under require_all_hits fails loudly per entry.
        let cold = CorpusOptions {
            cache: Some(Arc::new(MemoryCache::new(16))),
            require_all_hits: true,
        };
        let outcome = run_corpus_with(&dir, &baselines, false, &cold).unwrap();
        assert!(!outcome.passed());
        assert!(outcome
            .entries
            .iter()
            .all(|e| e.status == CorpusStatus::CacheMiss));
        assert!(
            outcome.summary().contains("UNCACHED"),
            "{}",
            outcome.summary()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn require_all_hits_without_a_cache_is_a_config_error() {
        let dir = temp_dir("cache-config");
        write_scenario(&dir, "a", 1);
        let opts = CorpusOptions {
            require_all_hits: true,
            ..CorpusOptions::default()
        };
        let err = run_corpus_with(&dir, &dir.join("baselines"), false, &opts).unwrap_err();
        assert!(matches!(err, GridError::Corpus(_)), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_baseline_is_flagged() {
        let dir = temp_dir("missing");
        let baselines = dir.join("baselines");
        write_scenario(&dir, "a", 1);
        let outcome = run_corpus(&dir, &baselines, false).unwrap();
        assert!(!outcome.passed());
        assert_eq!(outcome.entries[0].status, CorpusStatus::MissingBaseline);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
