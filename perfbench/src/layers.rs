//! Timing decorators over the grid's public `ReportCache` and
//! `ExecBackend` traits: they time and count every call and forward it
//! unchanged, so the layers are measured from outside without touching
//! library code.

use crate::trace::{SpanId, Trace, Tracer};
use hyperroute_core::scenario::Report;
use hyperroute_grid::{
    CacheKey, CacheStats, ExecBackend, GridError, GridSlice, ReportCache, SliceResult,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The span the decorators parent their spans on. The service calls the
/// cache from its runner thread, so the client publishes the span of the
/// call it is blocked in here before making it.
#[derive(Default)]
pub struct ParentSlot(AtomicU64);

impl ParentSlot {
    pub fn set(&self, id: SpanId) {
        self.0.store(id, Ordering::Relaxed);
    }

    fn get(&self) -> SpanId {
        self.0.load(Ordering::Relaxed)
    }
}

/// Group id shared by every span of one grid point: the low 64 bits of
/// the point's content hash.
pub fn point_group(key: &CacheKey) -> u64 {
    key.0 .0 as u64
}

/// A [`ReportCache`] that records a span per `get`/`put` and otherwise
/// forwards to `inner`; its counters are `inner`'s.
pub struct TimingCache<C> {
    inner: C,
    tracer: Option<Arc<Tracer>>,
    pub parent: ParentSlot,
}

impl<C: ReportCache> TimingCache<C> {
    pub fn new(inner: C, tracer: Option<Arc<Tracer>>) -> TimingCache<C> {
        TimingCache {
            inner,
            tracer,
            parent: ParentSlot::default(),
        }
    }

    fn trace(&self) -> Trace<'_> {
        Trace(self.tracer.as_ref())
    }
}

impl<C: ReportCache> ReportCache for TimingCache<C> {
    fn get(&self, key: &CacheKey) -> Option<Report> {
        self.trace().span(
            "grid.cache.get",
            "",
            self.parent.get(),
            point_group(key),
            |_| self.inner.get(key),
        )
    }

    fn put(&self, key: &CacheKey, report: &Report) {
        self.trace().span(
            "grid.cache.put",
            "",
            self.parent.get(),
            point_group(key),
            |_| self.inner.put(key, report),
        )
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

/// Totals an [`ExecBackend`] decorator has seen.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DispatchStats {
    /// Slices handed to the inner backend.
    pub slices: u64,
    /// Host seconds spent inside `execute` (result callbacks included).
    pub busy_s: f64,
}

/// An [`ExecBackend`] that records a span and counts slices per `execute`
/// call and otherwise forwards to `inner`.
pub struct TimingBackend<'t, B> {
    inner: B,
    trace: Trace<'t>,
    parent: SpanId,
    slices: AtomicU64,
    busy_ns: AtomicU64,
}

impl<'t, B: ExecBackend> TimingBackend<'t, B> {
    pub fn new(inner: B, trace: Trace<'t>, parent: SpanId) -> TimingBackend<'t, B> {
        TimingBackend {
            inner,
            trace,
            parent,
            slices: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    pub fn stats(&self) -> DispatchStats {
        DispatchStats {
            slices: self.slices.load(Ordering::Relaxed),
            busy_s: self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

impl<B: ExecBackend> ExecBackend for TimingBackend<'_, B> {
    fn execute(
        &self,
        jobs: &[GridSlice],
        on_result: &mut dyn FnMut(SliceResult) -> Result<(), GridError>,
    ) -> Result<(), GridError> {
        self.slices.fetch_add(jobs.len() as u64, Ordering::Relaxed);
        let started = Instant::now();
        let out = self
            .trace
            .span("grid.dispatch.execute", "", self.parent, 0, |_| {
                self.inner.execute(jobs, on_result)
            });
        self.busy_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperroute_core::scenario::{Axis, Scenario, Sweep, SweepParam, Topology};
    use hyperroute_grid::{Campaign, MemoryCache, ThreadPoolBackend};

    fn sweep() -> Sweep {
        let base = Scenario::builder(Topology::Hypercube { dim: 3 })
            .lambda(1.0)
            .p(0.5)
            .horizon(40.0)
            .warmup(10.0)
            .seed(11)
            .build()
            .unwrap();
        Sweep::new(
            base,
            vec![
                Axis::new(SweepParam::Dim, vec![3.0, 4.0]),
                Axis::new(SweepParam::Lambda, vec![0.4, 0.9, 1.3, 1.7]),
            ],
        )
    }

    fn bytes(reports: &[Report]) -> Vec<String> {
        reports
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect()
    }

    /// Cold run, identical resubmission, then a campaign overlapping half
    /// of it: the reports and cache counters of each step.
    fn drive(backend: &dyn ExecBackend, cache: &dyn ReportCache) -> Vec<(Vec<String>, CacheStats)> {
        let mut overlap = sweep();
        overlap.axes[1].values[2..].copy_from_slice(&[0.5, 1.1]);
        [sweep(), sweep(), overlap]
            .into_iter()
            .map(|s| {
                let reports = Campaign::new(s, 1).run_cached(backend, cache).unwrap();
                (bytes(&reports), cache.stats())
            })
            .collect()
    }

    #[test]
    fn decorators_leave_reports_and_cache_counters_unchanged() {
        let tracer = Arc::new(Tracer::new());
        let plain = drive(&ThreadPoolBackend::new(2), &MemoryCache::new(64));
        let timed_backend = TimingBackend::new(ThreadPoolBackend::new(2), Trace(Some(&tracer)), 0);
        let timed_cache = TimingCache::new(MemoryCache::new(64), Some(Arc::clone(&tracer)));
        let timed = drive(&timed_backend, &timed_cache);
        assert_eq!(timed, plain);
        // Byte-identical to the in-process sweep, cached or not.
        assert_eq!(timed[0].0, bytes(&sweep().run(1).unwrap()));
        assert_eq!(timed[1].0, timed[0].0);
        // 8 cold slices, none for the resubmission, 4 for the overlap's
        // misses.
        assert_eq!(timed_backend.stats().slices, 12);
        assert_eq!(tracer.named("grid.cache.get", None).len(), 24);
        assert_eq!(tracer.named("grid.cache.put", None).len(), 12);
        assert_eq!(tracer.named("grid.dispatch.execute", None).len(), 3);
    }
}
