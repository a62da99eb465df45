//! The content-addressed report cache.
//!
//! Five PRs of corpus gating prove that a [`Report`] is a **pure
//! function** of its scenario: same spec, same bytes, on any backend,
//! worker count, or machine. This module turns that determinism into
//! serving capacity — a [`ReportCache`] keyed by [`CacheKey`] (the
//! scenario's [`Scenario::canonical_hash`]: FNV-1a-128 over typed words
//! walked from the scenario's serde data model, folded with a key-scheme
//! version and the engine fingerprint) is consulted *before* any
//! simulation, so repeated or overlapping sweeps are answered without
//! simulating at all.
//!
//! Two backends ship:
//!
//! * [`MemoryCache`] — a bounded in-memory LRU, the hot tier of a
//!   long-running [`crate::service::SweepService`];
//! * [`DiskCache`] — one `<hash>.report.json` per report, written with
//!   an atomic temp-file-and-rename, so a cache directory survives kills,
//!   resumes interrupted campaigns, and can be shared across service
//!   restarts and between services running at once (and, over a network
//!   filesystem, machines).
//!
//! Every implementation counts hits, misses, and inserts
//! ([`CacheStats`]); the service surfaces the counters through its
//! status replies and the CLI prints them after cached runs, so "zero
//! simulations on resubmit" is an assertable number, not a hope.
//!
//! Correctness note: a cached report must be **byte-identical** to a
//! fresh simulation. [`MemoryCache`] stores the `Report` value itself
//! (bit-exact by construction); [`DiskCache`] stores its canonical JSON,
//! whose round trip is bit-exact by the same serde guarantees the
//! corpus baselines rely on, behind a header line that names the entry's
//! key and a digest of that JSON text. A disk entry whose header does not
//! match its key and text (a truncated file from a kill mid-write cannot
//! happen thanks to the atomic rename, but a foreign, moved, or corrupted
//! file can) is treated as a miss and overwritten — never trusted.

use hyperroute_core::scenario::{Report, Scenario, ScenarioHash};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The content address of one report: the scenario's canonical hash.
///
/// Equal keys mean "the engine would produce byte-identical reports".
/// The key is FNV-1a-128 over typed, length-prefixed `u64` words walked
/// from the scenario's serde data model (see
/// [`Scenario::canonical_hash`]), so representation never moves it and
/// semantics always do; the engine fingerprint folded in guarantees keys
/// from an older engine never collide with the current one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub ScenarioHash);

impl CacheKey {
    /// The cache key of `scenario`.
    pub fn for_scenario(scenario: &Scenario) -> CacheKey {
        CacheKey(scenario.canonical_hash())
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// Hit / miss / insert counters, cumulative since the cache was created.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// `get` calls answered from the cache.
    pub hits: u64,
    /// `get` calls that found nothing (or an unreadable disk entry).
    pub misses: u64,
    /// `put` calls that stored a report.
    pub inserts: u64,
}

impl CacheStats {
    /// Total lookups (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses / {} inserts",
            self.hits, self.misses, self.inserts
        )
    }
}

/// A content-addressed report store.
///
/// Implementations take `&self` and must be safe to share across the
/// dispatcher's worker threads (`Send + Sync`); counters and storage use
/// interior mutability.
pub trait ReportCache: Send + Sync {
    /// Look up the report for `key`, counting a hit or a miss.
    fn get(&self, key: &CacheKey) -> Option<Report>;

    /// Store `report` under `key`, counting an insert if it was stored.
    /// Overwrites any existing entry (by construction both hold the same
    /// bytes).
    fn put(&self, key: &CacheKey, report: &Report);

    /// Cumulative counters.
    fn stats(&self) -> CacheStats;
}

/// Bounded in-memory LRU cache.
///
/// Recency is a generation counter bumped on every touch; eviction
/// removes the least-recently-used entry when the capacity is exceeded.
/// Eviction scans for the minimum generation — O(capacity) per insert
/// past the limit, which is fine at the few-thousand-report capacities a
/// sweep service holds (a `Report` is the expensive thing, not the
/// scan).
pub struct MemoryCache {
    inner: Mutex<MemoryInner>,
    capacity: usize,
}

struct MemoryInner {
    map: HashMap<CacheKey, (u64, Report)>,
    tick: u64,
    stats: CacheStats,
}

impl MemoryCache {
    /// An LRU cache holding at most `capacity` reports.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> MemoryCache {
        assert!(capacity > 0, "cache capacity must be positive");
        MemoryCache {
            inner: Mutex::new(MemoryInner {
                map: HashMap::new(),
                tick: 0,
                stats: CacheStats::default(),
            }),
            capacity,
        }
    }

    /// Reports currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").map.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ReportCache for MemoryCache {
    fn get(&self, key: &CacheKey) -> Option<Report> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some((gen, report)) => {
                *gen = tick;
                let report = report.clone();
                inner.stats.hits += 1;
                Some(report)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    fn put(&self, key: &CacheKey, report: &Report) {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(*key, (tick, report.clone()));
        inner.stats.inserts += 1;
        if inner.map.len() > self.capacity {
            let oldest = inner
                .map
                .iter()
                .min_by_key(|(_, (gen, _))| *gen)
                .map(|(k, _)| *k)
                .expect("map is non-empty past capacity");
            inner.map.remove(&oldest);
        }
    }

    fn stats(&self) -> CacheStats {
        self.inner.lock().expect("cache lock").stats
    }
}

/// On-disk cache: one `<hash>.report.json` per report in a flat
/// directory.
///
/// An entry is one header line, then the report's compact JSON:
///
/// ```text
/// hyperroute-cache-entry/v1 <key: 32 hex digits> <FNV-1a-64 of the JSON text: 16 hex digits>
/// {"delay":{...},...}
/// ```
///
/// `get` serves an entry only when its header is exactly the one `put`
/// would write for the requested key and the text that follows, so a
/// truncated, byte-flipped or foreign file, or an entry copied under
/// another key's name, is a miss, recomputed and overwritten.
///
/// Writes go through an atomic write-then-rename with a temp file of
/// their own (named after the process id and a per-process counter), so
/// a concurrent reader (another service process sharing the directory)
/// only ever sees absent or complete files, writers never rename each
/// other's half-written temp file, and a kill mid-write leaves at worst
/// an orphaned `.tmp`.
///
/// A directory written before keys were hashed from the scenario's data
/// model (key scheme v1, which hashed its pretty JSON text) holds
/// entries under file names no scenario hashes to any more, without the
/// header: every one of them misses and none is ever served, and the
/// cache refills under the new keys. The stale files are never deleted;
/// remove them (or the directory) to reclaim the space.
pub struct DiskCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

impl DiskCache {
    /// Open (creating if needed) the cache directory `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<DiskCache, crate::GridError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| crate::error::io_error(&dir, e))?;
        Ok(DiskCache {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        })
    }

    fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{key}.report.json"))
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl ReportCache for DiskCache {
    fn get(&self, key: &CacheKey) -> Option<Report> {
        let report = std::fs::read(self.entry_path(key))
            .ok()
            .and_then(|entry| read_entry(key, &entry));
        match report {
            Some(report) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(report)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn put(&self, key: &CacheKey, report: &Report) {
        let text = serde_json::to_string(report).expect("reports always serialise");
        let entry = format!("{}\n{text}", entry_header(key, text.as_bytes()));
        // Best-effort: a full disk degrades the cache to misses, it does
        // not fail the campaign (the simulation result is already in
        // hand when `put` runs).
        if atomic_write(&self.entry_path(key), &entry).is_ok() {
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
        }
    }
}

/// The first line of a [`DiskCache`] entry holding `text` under `key`.
fn entry_header(key: &CacheKey, text: &[u8]) -> String {
    format!("hyperroute-cache-entry/v1 {key} {:016x}", fnv1a64(text))
}

/// The report in `entry`, if it is exactly what [`DiskCache::put`]
/// writes for `key`: any other bytes are a miss.
fn read_entry(key: &CacheKey, entry: &[u8]) -> Option<Report> {
    let newline = entry.iter().position(|&b| b == b'\n')?;
    let (header, text) = (&entry[..newline], &entry[newline + 1..]);
    if header != entry_header(key, text).as_bytes() {
        return None;
    }
    serde_json::from_str(std::str::from_utf8(text).ok()?).ok()
}

/// FNV-1a, 64-bit: a stable digest of `bytes`. A change to any one byte
/// always changes it.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Write-then-rename so observers only ever see absent or complete
/// files. The temp file is this write's own (process id plus a
/// process-wide counter), so concurrent writers of one path, in this
/// process or another, never write or rename each other's temp file.
fn atomic_write(path: &Path, text: &str) -> std::io::Result<()> {
    static WRITES: AtomicU64 = AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "json.{}.{}.tmp",
        std::process::id(),
        WRITES.fetch_add(1, Ordering::Relaxed)
    ));
    let written = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperroute_core::scenario::Topology;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scenario(seed: u64) -> Scenario {
        Scenario::builder(Topology::Hypercube { dim: 3 })
            .lambda(0.8)
            .horizon(50.0)
            .warmup(10.0)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "hyperroute-cache-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn exercise_round_trip(cache: &dyn ReportCache) {
        let s = scenario(7);
        let key = CacheKey::for_scenario(&s);
        let report = s.run().unwrap();
        assert_eq!(cache.get(&key), None);
        cache.put(&key, &report);
        let cached = cache.get(&key).expect("just inserted");
        // Byte identity (what `Report`'s `PartialEq` compares): the cache
        // serves what the simulation would have produced, down to the
        // JSON rendering.
        assert_eq!(
            serde_json::to_string(&cached).unwrap(),
            serde_json::to_string(&report).unwrap()
        );
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                inserts: 1
            }
        );
    }

    #[test]
    fn memory_cache_round_trips_byte_identically() {
        exercise_round_trip(&MemoryCache::new(8));
    }

    #[test]
    fn disk_cache_round_trips_byte_identically() {
        let dir = temp_dir("roundtrip");
        exercise_round_trip(&DiskCache::open(&dir).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn distinct_scenarios_get_distinct_keys() {
        assert_ne!(
            CacheKey::for_scenario(&scenario(1)),
            CacheKey::for_scenario(&scenario(2))
        );
        assert_eq!(
            CacheKey::for_scenario(&scenario(1)),
            CacheKey::for_scenario(&scenario(1))
        );
    }

    #[test]
    fn memory_cache_evicts_least_recently_used() {
        let cache = MemoryCache::new(2);
        let (a, b, c) = (scenario(1), scenario(2), scenario(3));
        let (ka, kb, kc) = (
            CacheKey::for_scenario(&a),
            CacheKey::for_scenario(&b),
            CacheKey::for_scenario(&c),
        );
        let report = a.run().unwrap();
        cache.put(&ka, &report);
        cache.put(&kb, &report);
        // Touch `a` so `b` is now the least recently used.
        assert!(cache.get(&ka).is_some());
        cache.put(&kc, &report);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&ka).is_some(), "recently-used entry survives");
        assert!(cache.get(&kc).is_some(), "new entry survives");
        assert!(cache.get(&kb).is_none(), "LRU entry was evicted");
    }

    #[test]
    fn disk_cache_treats_corruption_as_a_miss_and_heals() {
        let dir = temp_dir("corrupt");
        let cache = DiskCache::open(&dir).unwrap();
        let s = scenario(9);
        let key = CacheKey::for_scenario(&s);
        let report = s.run().unwrap();
        cache.put(&key, &report);
        // A foreign process scribbles over the entry.
        std::fs::write(dir.join(format!("{key}.report.json")), "{ nope").unwrap();
        assert_eq!(cache.get(&key), None, "corrupted entry must not be served");
        // Re-inserting heals the entry.
        cache.put(&key, &report);
        assert_eq!(cache.get(&key), Some(report));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_cache_never_serves_an_edited_report() {
        let dir = temp_dir("edited");
        let cache = DiskCache::open(&dir).unwrap();
        let s = scenario(17);
        let key = CacheKey::for_scenario(&s);
        let report = s.run().unwrap();
        cache.put(&key, &report);
        // An edit that still parses as a report the engine never produced.
        let path = dir.join(format!("{key}.report.json"));
        let entry = std::fs::read_to_string(&path).unwrap();
        let generated = format!("\"generated\":{},", report.generated);
        assert!(entry.contains(&generated), "{entry}");
        let edited = format!("\"generated\":{},", report.generated + 1);
        std::fs::write(&path, entry.replace(&generated, &edited)).unwrap();
        assert_eq!(cache.get(&key), None, "an edited entry must not be served");
        cache.put(&key, &report);
        assert_eq!(cache.get(&key), Some(report));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                inserts: 2
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_cache_never_serves_an_entry_filed_under_another_key() {
        let dir = temp_dir("moved");
        let cache = DiskCache::open(&dir).unwrap();
        let (a, b) = (scenario(19), scenario(20));
        let (ka, kb) = (CacheKey::for_scenario(&a), CacheKey::for_scenario(&b));
        cache.put(&ka, &a.run().unwrap());
        std::fs::copy(
            dir.join(format!("{ka}.report.json")),
            dir.join(format!("{kb}.report.json")),
        )
        .unwrap();
        assert_eq!(cache.get(&kb), None, "a's report is not b's");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_cache_misses_an_entry_without_a_header() {
        // Entries written before the header existed held the bare report
        // JSON; one found under a current key is a miss, not a report.
        let dir = temp_dir("headerless");
        let cache = DiskCache::open(&dir).unwrap();
        let s = scenario(21);
        let key = CacheKey::for_scenario(&s);
        let text = serde_json::to_string(&s.run().unwrap()).unwrap();
        std::fs::write(dir.join(format!("{key}.report.json")), text).unwrap();
        assert_eq!(cache.get(&key), None);
        assert_eq!(cache.stats().misses, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_cache_concurrent_puts_of_one_key_count_every_insert_and_always_hit() {
        const PUTS: u64 = 300;
        let dir = temp_dir("race");
        let cache = DiskCache::open(&dir).unwrap();
        let s = scenario(23);
        let key = CacheKey::for_scenario(&s);
        let report = s.run().unwrap();
        cache.put(&key, &report);
        // Two writers race on the one key while a reader reads it; the
        // barrier starts all three together.
        let start = std::sync::Barrier::new(3);
        let served = std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    (0..PUTS).for_each(|_| cache.put(&key, &report));
                });
            }
            let reader = scope.spawn(|| {
                start.wait();
                (0..PUTS)
                    .filter(|_| cache.get(&key).as_ref() == Some(&report))
                    .count() as u64
            });
            reader.join().unwrap()
        });
        assert_eq!(
            served, PUTS,
            "every get after the first put serves the report"
        );
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: PUTS,
                misses: 0,
                inserts: 1 + 2 * PUTS
            }
        );
        // Every temp file was renamed into place.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_cache_persists_across_instances() {
        let dir = temp_dir("persist");
        let s = scenario(11);
        let key = CacheKey::for_scenario(&s);
        let report = s.run().unwrap();
        DiskCache::open(&dir).unwrap().put(&key, &report);
        // A fresh instance — a service restart — serves the entry.
        let reopened = DiskCache::open(&dir).unwrap();
        assert_eq!(reopened.get(&key), Some(report));
        assert_eq!(reopened.stats().hits, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_cache_counts_only_inserts_it_stored() {
        let dir = temp_dir("unwritable");
        let cache = DiskCache::open(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let s = scenario(13);
        cache.put(&CacheKey::for_scenario(&s), &s.run().unwrap());
        assert_eq!(cache.stats().inserts, 0, "the write had nowhere to go");
    }
}
