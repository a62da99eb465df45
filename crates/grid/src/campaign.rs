//! The dispatcher: slice a sweep, answer what the report cache holds,
//! run the rest through a backend, merge deterministically.
//!
//! # Resume
//!
//! [`Campaign::run_cached`] is also how a campaign resumes. It inserts
//! every report of a slice into the cache the moment the backend
//! delivers the slice, so a run killed halfway leaves its finished
//! slices behind; rerun over the same [`crate::DiskCache`], the campaign
//! executes **only** the slices with a point the cache misses, and
//! merges to the identical row-major `Vec<Report>`. Every
//! [`CacheKey`] folds in the engine fingerprint, so a resume across an
//! engine change recomputes instead of merging reports from two
//! engines, and a different sweep over the same directory simply
//! misses.

use crate::backend::ExecBackend;
use crate::cache::{CacheKey, ReportCache};
use crate::error::GridError;
use crate::slice::{merge, partition, GridSlice, SliceResult};
use hyperroute_core::scenario::{Report, Sweep};
use std::collections::HashMap;

/// A sliced sweep run: what to execute and how finely to slice it.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// The parameter grid to execute.
    pub sweep: Sweep,
    /// Grid points per slice (the job granularity).
    pub slice_len: usize,
}

impl Campaign {
    /// Campaign over `sweep` with `slice_len` points per slice.
    ///
    /// # Panics
    ///
    /// Panics when `slice_len == 0`.
    pub fn new(sweep: Sweep, slice_len: usize) -> Campaign {
        assert!(slice_len > 0, "slice length must be positive");
        Campaign { sweep, slice_len }
    }

    /// Execute the campaign on `backend` and return reports in row-major
    /// grid order — byte-identical to `self.sweep.run(..)`, whatever the
    /// backend, worker count, or completion order.
    pub fn run(&self, backend: &dyn ExecBackend) -> Result<Vec<Report>, GridError> {
        self.run_inner(backend, None)
    }

    /// [`Campaign::run`] behind a content-addressed report cache.
    ///
    /// Before anything is simulated, every slice is probed against
    /// `cache` (one [`CacheKey`] per grid point): a slice whose points
    /// are **all** hits is answered synthetically without touching the
    /// backend, while a slice with any miss executes in full and its
    /// reports are inserted, under the keys it was probed with, as soon
    /// as it finishes. A resubmitted
    /// campaign over a warm cache therefore performs *zero* simulations
    /// — assert it via [`crate::CacheStats`] — and an interrupted one
    /// resumes where it stopped. Smaller slices cache at finer
    /// granularity; `slice_len == 1` gives exact per-point reuse across
    /// overlapping sweeps.
    ///
    /// Output is byte-identical to [`Campaign::run`] (and hence to
    /// `Sweep::run`): cached reports are the same pure function of the
    /// same canonical spec, and the engine fingerprint folded into every
    /// key keeps stale engines out.
    pub fn run_cached(
        &self,
        backend: &dyn ExecBackend,
        cache: &dyn ReportCache,
    ) -> Result<Vec<Report>, GridError> {
        self.run_inner(backend, Some(cache))
    }

    fn run_inner(
        &self,
        backend: &dyn ExecBackend,
        cache: Option<&dyn ReportCache>,
    ) -> Result<Vec<Report>, GridError> {
        let mut results = Vec::new();
        let mut pending: Vec<GridSlice> = Vec::new();
        let mut owed: HashMap<u64, Owed> = HashMap::new();
        for slice in partition(&self.sweep, self.slice_len) {
            let keys = match cache {
                Some(c) => match probe(&slice, c)? {
                    Probe::Hit(result) => {
                        results.push(result);
                        continue;
                    }
                    Probe::Miss(keys) => keys,
                },
                None => Vec::new(),
            };
            owed.insert(
                slice.id,
                Owed {
                    start: slice.start,
                    len: slice.len,
                    keys,
                },
            );
            pending.push(slice);
        }
        backend.execute(&pending, &mut |result| {
            let keys = claim(&mut owed, &result)?;
            if let Some(c) = cache {
                for (key, report) in keys.iter().zip(&result.reports) {
                    c.put(key, report);
                }
            }
            results.push(result);
            Ok(())
        })?;
        merge(self.sweep.len(), results)
    }
}

/// A slice the backend has yet to deliver: its range, and the keys its
/// points were probed under (none when the campaign runs uncached). Its
/// reports are inserted under exactly these keys, so a campaign hashes
/// each grid point once.
struct Owed {
    start: usize,
    len: usize,
    keys: Vec<CacheKey>,
}

/// Take the keys of the pending slice that `result` answers.
///
/// A worker's reply is outside input. A result for a slice that is not
/// pending (an id no slice has, a slice the cache answered, or one
/// already delivered) or for a range other than its slice's fails the
/// campaign before anything is inserted: caching it would file its
/// reports under other points' keys for every later run.
fn claim(owed: &mut HashMap<u64, Owed>, result: &SliceResult) -> Result<Vec<CacheKey>, GridError> {
    let claimed = (result.start, result.reports.len());
    match owed.remove(&result.id) {
        Some(slice) if (slice.start, slice.len) == claimed => Ok(slice.keys),
        Some(slice) => Err(GridError::Merge(format!(
            "slice {} claims points {}..{}, but its range is {}..{}",
            result.id,
            claimed.0,
            claimed.0.saturating_add(claimed.1),
            slice.start,
            slice.start + slice.len
        ))),
        None => Err(GridError::Merge(format!(
            "slice {} is not awaiting a result",
            result.id
        ))),
    }
}

/// What probing a slice's points against the cache found.
enum Probe {
    /// Every point hit: the slice's result, answered from the cache and
    /// indistinguishable from an executed one.
    Hit(SliceResult),
    /// At least one point missed, so the slice simulates: the key of
    /// every point, in row-major order.
    Miss(Vec<CacheKey>),
}

/// Probe every point of `slice` against the cache. All points are
/// probed, even after the first miss, so the cache's hit/miss counters
/// describe the whole slice, not a prefix.
fn probe(slice: &GridSlice, cache: &dyn ReportCache) -> Result<Probe, GridError> {
    let scenarios = slice.sweep.slice_scenarios(slice.start, slice.len)?;
    let keys: Vec<CacheKey> = scenarios.iter().map(CacheKey::for_scenario).collect();
    // Exact capacity: a hit slice's reports live until the merge, and a
    // `collect` here would reserve room for four per one-point slice.
    let mut reports = Vec::with_capacity(keys.len());
    reports.extend(keys.iter().filter_map(|key| cache.get(key)));
    Ok(if reports.len() == keys.len() {
        Probe::Hit(SliceResult {
            id: slice.id,
            start: slice.start,
            reports,
        })
    } else {
        Probe::Miss(keys)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ThreadPoolBackend;
    use hyperroute_core::scenario::{Axis, Scenario, SweepParam, Topology};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn small_sweep() -> Sweep {
        let base = Scenario::builder(Topology::Hypercube { dim: 3 })
            .lambda(0.8)
            .p(0.5)
            .horizon(60.0)
            .warmup(10.0)
            .seed(5)
            .build()
            .unwrap();
        Sweep::new(
            base,
            vec![Axis::new(SweepParam::Lambda, vec![0.4, 0.8, 1.2, 1.6, 2.0])],
        )
    }

    #[test]
    fn campaign_matches_sweep_run() {
        let sweep = small_sweep();
        let direct = sweep.run(1).unwrap();
        let campaign = Campaign::new(sweep, 2);
        let got = campaign.run(&ThreadPoolBackend::new(3)).unwrap();
        assert_eq!(got, direct);
    }

    /// A sparse-generator sweep: the cache key must cover the generator
    /// parameters (they live inside the serialised `Topology`).
    fn sparse_sweep() -> Sweep {
        let base = Scenario::builder(Topology::SmallWorld {
            side: 10,
            dims: 2,
            links: 2,
            alpha: 2.0,
            seed: 77,
        })
        .lambda(0.04)
        .horizon(120.0)
        .warmup(20.0)
        .seed(9)
        .build()
        .unwrap();
        Sweep::new(
            base,
            vec![Axis::new(SweepParam::Alpha, vec![0.0, 2.0, 4.0])],
        )
    }

    #[test]
    fn sparse_campaign_with_a_foreign_generator_misses_the_cache() {
        use crate::cache::MemoryCache;
        let sweep = sparse_sweep();
        let cache = MemoryCache::new(64);
        let backend = ThreadPoolBackend::new(2);
        let got = Campaign::new(sweep.clone(), 1)
            .run_cached(&backend, &cache)
            .unwrap();
        assert_eq!(got, sweep.run(1).unwrap());
        // Same sweep shape, different generator seed: a different random
        // graph, hence different keys. Serving the first campaign's
        // reports here would merge results from the wrong topology.
        let mut other = sparse_sweep();
        other.base.topology = Topology::SmallWorld {
            side: 10,
            dims: 2,
            links: 2,
            alpha: 2.0,
            seed: 78,
        };
        let hits_before = cache.stats().hits;
        let foreign = Campaign::new(other.clone(), 1)
            .run_cached(&backend, &cache)
            .unwrap();
        assert_eq!(cache.stats().hits, hits_before, "no key may be shared");
        assert_eq!(
            serde_json::to_string(&foreign).unwrap(),
            serde_json::to_string(&other.run(1).unwrap()).unwrap()
        );
    }

    #[test]
    fn cached_campaign_matches_sweep_run_and_resubmit_simulates_nothing() {
        use crate::cache::{MemoryCache, ReportCache};
        let sweep = small_sweep();
        let direct = sweep.run(1).unwrap();
        let cache = MemoryCache::new(64);
        let campaign = Campaign::new(sweep, 1);
        let executed = AtomicU64::new(0);
        let counting = CountingBackend {
            inner: ThreadPoolBackend::new(2),
            executed: &executed,
        };
        // Cold cache: everything simulates, everything is inserted.
        let cold = campaign.run_cached(&counting, &cache).unwrap();
        assert_eq!(cold, direct);
        assert_eq!(executed.load(Ordering::Relaxed), 5);
        assert_eq!(cache.stats().inserts, 5);
        // Warm cache: the identical campaign performs zero simulations.
        executed.store(0, Ordering::Relaxed);
        let warm = campaign.run_cached(&counting, &cache).unwrap();
        assert_eq!(warm, direct);
        assert_eq!(executed.load(Ordering::Relaxed), 0, "zero slices executed");
        let stats = cache.stats();
        assert_eq!(stats.hits, 5, "every point served from the cache");
        assert_eq!(stats.inserts, 5, "warm pass inserted nothing new");
    }

    #[test]
    fn partial_cache_hits_simulate_only_missing_slices() {
        use crate::cache::{CacheKey, MemoryCache, ReportCache};
        let sweep = small_sweep();
        let direct = sweep.run(1).unwrap();
        let cache = MemoryCache::new(64);
        // Pre-seed points 0 and 1 (= slices 0 and 1 at slice_len 1).
        for (start, report) in direct.iter().enumerate().take(2) {
            let scenario = &sweep.slice_scenarios(start, 1).unwrap()[0];
            cache.put(&CacheKey::for_scenario(scenario), report);
        }
        let executed = AtomicU64::new(0);
        let counting = CountingBackend {
            inner: ThreadPoolBackend::new(2),
            executed: &executed,
        };
        let got = Campaign::new(sweep, 1)
            .run_cached(&counting, &cache)
            .unwrap();
        assert_eq!(got, direct);
        assert_eq!(executed.load(Ordering::Relaxed), 3, "only the misses ran");
    }

    #[test]
    fn coarse_slices_need_every_point_cached_before_they_skip_the_backend() {
        use crate::cache::{CacheKey, MemoryCache, ReportCache};
        let sweep = small_sweep();
        let direct = sweep.run(1).unwrap();
        let cache = MemoryCache::new(64);
        // Slices of 2: [0,1] [2,3] [4]. Seed only point 0 — its slice
        // still has a miss at point 1, so the whole slice re-executes.
        let scenario = &sweep.slice_scenarios(0, 1).unwrap()[0];
        cache.put(&CacheKey::for_scenario(scenario), &direct[0]);
        let executed = AtomicU64::new(0);
        let counting = CountingBackend {
            inner: ThreadPoolBackend::new(2),
            executed: &executed,
        };
        let got = Campaign::new(sweep, 2)
            .run_cached(&counting, &cache)
            .unwrap();
        assert_eq!(got, direct);
        assert_eq!(executed.load(Ordering::Relaxed), 3, "all three slices ran");
    }

    #[test]
    fn mislabelled_slice_result_fails_without_poisoning_the_cache() {
        use crate::cache::{CacheKey, MemoryCache, ReportCache};
        let sweep = small_sweep();
        let direct = sweep.run(1).unwrap();
        let cache = MemoryCache::new(64);
        // Slice 1's result claims point 0: a worker reply that lies.
        let relabel = Tamper(|mut results| {
            results[1].start = 0;
            results
        });
        let err = Campaign::new(sweep.clone(), 1)
            .run_cached(&relabel, &cache)
            .unwrap_err();
        assert!(matches!(err, GridError::Merge(_)), "{err}");
        // Point 0's key holds nothing or point 0's own report — never
        // point 1's report under a false label.
        let key = CacheKey::for_scenario(&sweep.slice_scenarios(0, 1).unwrap()[0]);
        if let Some(report) = cache.get(&key) {
            assert_eq!(report, direct[0]);
        }
    }

    #[test]
    fn result_for_no_pending_slice_fails_before_anything_is_inserted() {
        use crate::cache::{CacheKey, MemoryCache, ReportCache};
        let sweep = small_sweep();
        let direct = sweep.run(1).unwrap();
        // Each backend delivers, first, a result that names no pending
        // slice; `inserted` is what the cache may hold afterwards.
        let cases: [(&str, Tamper, u64); 3] = [
            (
                "an id no slice has",
                Tamper(|mut results| {
                    results[0].id = 99;
                    results
                }),
                1,
            ),
            (
                "the slice the cache answered",
                Tamper(|mut results| {
                    results[0].id = 0;
                    results[0].start = 0;
                    results
                }),
                1,
            ),
            (
                "a slice delivered twice",
                Tamper(|mut results| {
                    results.insert(1, results[0].clone());
                    results
                }),
                2,
            ),
        ];
        for (what, backend, inserted) in cases {
            // Point 0 is cached, so slice 0 never reaches the backend.
            let cache = MemoryCache::new(64);
            let point0 = &sweep.slice_scenarios(0, 1).unwrap()[0];
            cache.put(&CacheKey::for_scenario(point0), &direct[0]);
            let err = Campaign::new(sweep.clone(), 1)
                .run_cached(&backend, &cache)
                .unwrap_err();
            assert!(matches!(err, GridError::Merge(_)), "{what}: {err}");
            assert_eq!(cache.stats().inserts, inserted, "{what}");
        }
    }

    /// Executes slices in order on one thread, then delivers the results
    /// as the function rewrites them: worker replies that lie.
    struct Tamper(fn(Vec<SliceResult>) -> Vec<SliceResult>);

    impl ExecBackend for Tamper {
        fn execute(
            &self,
            jobs: &[GridSlice],
            on_result: &mut dyn FnMut(SliceResult) -> Result<(), GridError>,
        ) -> Result<(), GridError> {
            let results = jobs
                .iter()
                .map(GridSlice::execute)
                .collect::<Result<Vec<_>, _>>()?;
            for result in (self.0)(results) {
                on_result(result)?;
            }
            Ok(())
        }
    }

    /// Wraps a backend, counting executed slices.
    struct CountingBackend<'a> {
        inner: ThreadPoolBackend,
        executed: &'a AtomicU64,
    }

    impl ExecBackend for CountingBackend<'_> {
        fn execute(
            &self,
            jobs: &[GridSlice],
            on_result: &mut dyn FnMut(SliceResult) -> Result<(), GridError>,
        ) -> Result<(), GridError> {
            self.executed
                .fetch_add(jobs.len() as u64, Ordering::Relaxed);
            self.inner.execute(jobs, on_result)
        }
    }
}
