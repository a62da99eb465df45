//! The content-addressed report cache.
//!
//! Five PRs of corpus gating prove that a [`Report`] is a **pure
//! function** of its scenario's canonical JSON: same spec, same bytes,
//! on any backend, worker count, or machine. This module turns that
//! determinism into serving capacity — a [`ReportCache`] keyed by
//! [`CacheKey`] (the scenario's [`Scenario::canonical_hash`], which
//! already folds in the engine fingerprint) is consulted *before* any
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
//!   restarts (and, over a network filesystem, machines).
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
//! corpus baselines rely on. A disk entry that fails to parse (a
//! truncated file from a kill mid-write cannot happen thanks to the
//! atomic rename, but a foreign or corrupted file can) is treated as a
//! miss and overwritten — never trusted.

use hyperroute_core::scenario::{Report, Scenario, ScenarioHash};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The content address of one report: the scenario's canonical hash.
///
/// Equal keys mean "the engine would produce byte-identical reports";
/// the engine fingerprint folded into [`Scenario::canonical_hash`]
/// guarantees keys from an older engine never collide with the current
/// one.
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
/// Writes go through an atomic write-then-rename, so a concurrent
/// reader (another service process sharing the directory) only ever
/// sees absent or complete files, and a kill mid-write leaves at worst
/// an orphaned `.tmp`. Unparseable entries are misses, recomputed and
/// overwritten.
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
        let report = std::fs::read_to_string(self.entry_path(key))
            .ok()
            .and_then(|text| serde_json::from_str::<Report>(&text).ok());
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
        // Best-effort: a full disk degrades the cache to misses, it does
        // not fail the campaign (the simulation result is already in
        // hand when `put` runs).
        if atomic_write(&self.entry_path(key), &text).is_ok() {
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

/// Write-then-rename so observers only ever see absent or complete files.
fn atomic_write(path: &Path, text: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
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
        // Byte identity, not just PartialEq: the cache serves what the
        // simulation would have produced, down to the JSON rendering.
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
