//! Pluggable slice-execution backends.
//!
//! An [`ExecBackend`] takes a batch of [`GridSlice`] jobs and streams
//! their [`SliceResult`]s back **as each slice completes, in any order**
//! — the dispatcher ([`crate::campaign::Campaign`]) owns ordering (via
//! [`crate::slice::merge`]) and caching, so backends stay dumb
//! executors. Two implementations ship, both on [`fan_out`], the
//! workspace's one thread fan-out:
//!
//! * [`ThreadPoolBackend`] — in-process fan-out over scoped worker
//!   threads (the default; zero serialisation cost);
//! * [`crate::subprocess::SubprocessBackend`] — out-of-process workers
//!   speaking the newline-delimited JSON protocol, with retry and
//!   timeout handling for lost workers.
//!
//! Every grid point is a deterministic function of the sweep spec and
//! its row-major index, so **which** backend runs a slice — and with how
//! many workers — can never change the merged reports.

use crate::error::GridError;
use crate::slice::{GridSlice, SliceResult};
use hyperroute_core::runner::fan_out;

/// A strategy for executing a batch of independent slice jobs.
pub trait ExecBackend {
    /// Execute every job in `jobs`, calling `on_result` once per slice
    /// as it completes (completion order is backend-defined). `on_result`
    /// runs on the calling thread; returning an error from it aborts the
    /// batch.
    fn execute(
        &self,
        jobs: &[GridSlice],
        on_result: &mut dyn FnMut(SliceResult) -> Result<(), GridError>,
    ) -> Result<(), GridError>;
}

/// One campaign progress snapshot, emitted after each finished slice.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProgressUpdate {
    /// Slices finished so far in this batch.
    pub done: usize,
    /// Slices in this batch (pending only — slices a cached campaign
    /// serves from the report cache are not counted).
    pub total: usize,
    /// Grid points finished so far.
    pub points: usize,
    /// Grid points per wall-clock second since the batch started.
    pub points_per_sec: f64,
}

/// Decorator that reports campaign progress — one [`ProgressUpdate`] per
/// finished slice — to a sink, then forwards the result unchanged. The
/// sink runs on the dispatching thread, so a plain `eprintln!` closure
/// is enough; results and merge order are untouched.
pub struct ProgressBackend<'a> {
    inner: &'a dyn ExecBackend,
    sink: &'a (dyn Fn(&ProgressUpdate) + Sync),
}

impl<'a> ProgressBackend<'a> {
    /// Wrap `inner`, reporting each finished slice to `sink`.
    pub fn new(
        inner: &'a dyn ExecBackend,
        sink: &'a (dyn Fn(&ProgressUpdate) + Sync),
    ) -> ProgressBackend<'a> {
        ProgressBackend { inner, sink }
    }
}

impl ExecBackend for ProgressBackend<'_> {
    fn execute(
        &self,
        jobs: &[GridSlice],
        on_result: &mut dyn FnMut(SliceResult) -> Result<(), GridError>,
    ) -> Result<(), GridError> {
        let total = jobs.len();
        let started = std::time::Instant::now();
        let mut done = 0usize;
        let mut points = 0usize;
        self.inner.execute(jobs, &mut |result| {
            done += 1;
            points += result.reports.len();
            let secs = started.elapsed().as_secs_f64();
            (self.sink)(&ProgressUpdate {
                done,
                total,
                points,
                points_per_sec: if secs > 0.0 {
                    points as f64 / secs
                } else {
                    0.0
                },
            });
            on_result(result)
        })
    }
}

/// In-process backend: [`fan_out`] over scoped threads, streaming each
/// slice's result out as it finishes.
#[derive(Clone, Copy, Debug)]
pub struct ThreadPoolBackend {
    /// Worker threads to fan out over (`0` = hardware parallelism).
    pub workers: usize,
}

impl ThreadPoolBackend {
    /// Backend over `workers` threads (`0` = hardware parallelism).
    pub fn new(workers: usize) -> ThreadPoolBackend {
        ThreadPoolBackend { workers }
    }
}

impl ExecBackend for ThreadPoolBackend {
    fn execute(
        &self,
        jobs: &[GridSlice],
        on_result: &mut dyn FnMut(SliceResult) -> Result<(), GridError>,
    ) -> Result<(), GridError> {
        fan_out(
            jobs,
            self.workers,
            || (),
            |(), slice| slice.execute(),
            |(), _| {},
            |_, result| on_result(result),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::{merge, partition};
    use hyperroute_core::scenario::{Axis, Scenario, Sweep, SweepParam, Topology};

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
    fn thread_pool_streams_every_slice_once() {
        let sweep = small_sweep();
        let jobs = partition(&sweep, 2);
        let mut results = Vec::new();
        ThreadPoolBackend::new(3)
            .execute(&jobs, &mut |r| {
                results.push(r);
                Ok(())
            })
            .unwrap();
        assert_eq!(results.len(), jobs.len());
        assert_eq!(merge(sweep.len(), results).unwrap(), sweep.run(1).unwrap());
    }

    #[test]
    fn progress_backend_reports_each_slice_and_forwards_results_unchanged() {
        let sweep = small_sweep();
        let jobs = partition(&sweep, 2); // 3 slices over 5 points
        let updates = std::sync::Mutex::new(Vec::new());
        let sink = |u: &ProgressUpdate| updates.lock().unwrap().push(*u);
        let inner = ThreadPoolBackend::new(2);
        let mut results = Vec::new();
        ProgressBackend::new(&inner, &sink)
            .execute(&jobs, &mut |r| {
                results.push(r);
                Ok(())
            })
            .unwrap();
        let updates = updates.into_inner().unwrap();
        assert_eq!(
            updates.iter().map(|u| u.done).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(updates.iter().all(|u| u.total == jobs.len()));
        let last = updates.last().unwrap();
        assert_eq!(last.points, sweep.len());
        assert!(last.points_per_sec.is_finite() && last.points_per_sec >= 0.0);
        assert_eq!(merge(sweep.len(), results).unwrap(), sweep.run(1).unwrap());
    }

    #[test]
    fn thread_pool_aborts_on_callback_error() {
        let sweep = small_sweep();
        let jobs = partition(&sweep, 1);
        let err = ThreadPoolBackend::new(2)
            .execute(&jobs, &mut |_| Err(GridError::Merge("stop".into())))
            .unwrap_err();
        assert!(matches!(err, GridError::Merge(_)));
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        ThreadPoolBackend::new(0)
            .execute(&[], &mut |_| panic!("no results expected"))
            .unwrap();
    }
}
