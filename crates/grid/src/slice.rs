//! Slicing a [`Sweep`] into jobs and merging out-of-order results back
//! into row-major report order.
//!
//! A [`GridSlice`] is the dispatcher's handle on a contiguous row-major
//! range of grid points: its id, its range, and the sweep it is cut
//! from, shared through one [`Arc`] by every slice of a [`partition`].
//! What crosses a process or machine boundary is the slice's
//! [`SliceJob`]: the scenarios of its own points and nothing else, so a
//! job's JSON line does not grow with the sweep, and it executes with
//! nothing but this crate on the other side. [`merge`] is the inverse —
//! results arrive in whatever order the backend finishes them and come
//! back out exactly as `Sweep::run` would have produced them.

use crate::error::GridError;
use hyperroute_core::scenario::{Report, Scenario, Sweep};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One unit of sweep work: a contiguous row-major range of grid points
/// cut from a [`Sweep`]. It stays in the dispatching process; its
/// [`SliceJob`] is what a worker receives.
#[derive(Clone, Debug, PartialEq)]
pub struct GridSlice {
    /// Slice id, unique within its campaign (the index in partition
    /// order, so `id` also orders slices by `start`).
    pub id: u64,
    /// The sweep this slice is cut from, shared by every slice of one
    /// [`partition`].
    pub sweep: Arc<Sweep>,
    /// First grid point covered (row-major index).
    pub start: usize,
    /// Number of grid points covered.
    pub len: usize,
}

impl GridSlice {
    /// The job that executes this slice: its points' validated scenarios,
    /// derived from the sweep exactly as `Sweep::run` derives them (axis
    /// values applied, per-point seed set).
    pub fn job(&self) -> Result<SliceJob, GridError> {
        if self
            .start
            .checked_add(self.len)
            .is_none_or(|end| end > self.sweep.len())
        {
            // The fields are public, so a slice can claim points past the
            // grid; that is an error, not a panic in `slice_scenarios`.
            // It is a property of the slice itself, so it carries the
            // no-retry error category.
            return Err(GridError::SliceFailed {
                slice: self.id,
                message: format!(
                    "covers points {}..{} of a {}-point grid",
                    self.start,
                    self.start.saturating_add(self.len),
                    self.sweep.len()
                ),
            });
        }
        Ok(SliceJob {
            id: self.id,
            start: self.start,
            scenarios: self.sweep.slice_scenarios(self.start, self.len)?,
        })
    }

    /// Run every grid point of this slice serially, in row-major order.
    ///
    /// Each point is a deterministic function of the sweep spec and its
    /// index, so executing the same slice anywhere — any process, any
    /// machine, any number of times — yields the same reports.
    pub fn execute(&self) -> Result<SliceResult, GridError> {
        self.job()?.execute_with(&mut |_, _| {})
    }
}

/// The wire form of a [`GridSlice`]: one JSON line that holds the
/// scenarios of the slice's own points. A job is a pure function of its
/// line — no campaign state on either side — so any worker can run it,
/// any number of times, with the same reports.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SliceJob {
    /// Id of the slice this job executes.
    pub id: u64,
    /// Row-major index of the first point.
    pub start: usize,
    /// One scenario per grid point, in row-major order.
    pub scenarios: Vec<Scenario>,
}

impl SliceJob {
    /// Run every scenario serially, in order; `progress(done, total)`
    /// fires after each point completes. The callback sees only counts —
    /// it cannot touch the runs — so observed and unobserved executions
    /// produce identical reports. Workers use it to emit heartbeat lines
    /// mid-slice.
    ///
    /// Each scenario is validated before it runs, so a job from across
    /// a process boundary that holds an invalid point fails with
    /// [`GridError::Config`] instead of running it.
    pub fn execute_with(
        &self,
        progress: &mut dyn FnMut(usize, usize),
    ) -> Result<SliceResult, GridError> {
        let total = self.scenarios.len();
        let mut reports = Vec::with_capacity(total);
        for scenario in &self.scenarios {
            reports.push(scenario.run()?);
            progress(reports.len(), total);
        }
        Ok(SliceResult {
            id: self.id,
            start: self.start,
            reports,
        })
    }
}

/// The reports of one executed [`GridSlice`], tagged with enough position
/// to merge out-of-order.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SliceResult {
    /// Id of the slice that produced these reports.
    pub id: u64,
    /// First grid point covered.
    pub start: usize,
    /// One report per grid point, in row-major order.
    pub reports: Vec<Report>,
}

/// Cut `sweep` into slices of at most `slice_len` points each, in
/// row-major order. The final slice absorbs the remainder; an empty grid
/// partitions into no slices. The sweep is copied once and shared by
/// every slice.
///
/// # Panics
///
/// Panics when `slice_len == 0`.
pub fn partition(sweep: &Sweep, slice_len: usize) -> Vec<GridSlice> {
    assert!(slice_len > 0, "slice length must be positive");
    let total = sweep.len();
    let shared = Arc::new(sweep.clone());
    (0..total.div_ceil(slice_len))
        .map(|i| {
            let start = i * slice_len;
            GridSlice {
                id: i as u64,
                sweep: Arc::clone(&shared),
                start,
                len: slice_len.min(total - start),
            }
        })
        .collect()
}

/// Reassemble out-of-order slice results into the row-major
/// `Vec<Report>` the underlying `Sweep::run` would have produced.
///
/// Rejects overlapping, duplicated, or missing coverage — a dispatcher
/// bug surfaces here rather than as silently misordered reports.
pub fn merge(total: usize, mut results: Vec<SliceResult>) -> Result<Vec<Report>, GridError> {
    results.sort_by_key(|r| r.start);
    let mut out: Vec<Report> = Vec::with_capacity(total);
    for r in results {
        if r.start != out.len() {
            return Err(GridError::Merge(format!(
                "slice {} starts at point {} but coverage reaches {}",
                r.id,
                r.start,
                out.len()
            )));
        }
        out.extend(r.reports);
    }
    if out.len() != total {
        return Err(GridError::Merge(format!(
            "slices cover {} of {} grid points",
            out.len(),
            total
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperroute_core::scenario::{Axis, Scenario, SweepParam, Topology};

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
    fn partition_covers_grid_exactly_once() {
        let sweep = small_sweep();
        let slices = partition(&sweep, 2);
        assert_eq!(slices.len(), 3);
        assert_eq!(
            slices
                .iter()
                .map(|s| (s.id, s.start, s.len))
                .collect::<Vec<_>>(),
            vec![(0, 0, 2), (1, 2, 2), (2, 4, 1)]
        );
        // One oversized slice is the whole grid.
        let one = partition(&sweep, 100);
        assert_eq!(one.len(), 1);
        assert_eq!((one[0].start, one[0].len), (0, 5));
    }

    #[test]
    fn merge_reorders_and_validates() {
        let sweep = small_sweep();
        let direct = sweep.run(1).unwrap();
        let mut results: Vec<SliceResult> = partition(&sweep, 2)
            .iter()
            .map(|s| s.execute().unwrap())
            .collect();
        results.reverse(); // arrive out of order
        let merged = merge(sweep.len(), results.clone()).unwrap();
        assert_eq!(merged, direct);

        // Missing coverage is rejected.
        let partial = vec![results[0].clone()];
        assert!(matches!(
            merge(sweep.len(), partial),
            Err(GridError::Merge(_))
        ));
        // Duplicate coverage is rejected.
        let mut duplicated = results.clone();
        duplicated.push(results[0].clone());
        assert!(matches!(
            merge(sweep.len(), duplicated),
            Err(GridError::Merge(_))
        ));
    }

    #[test]
    fn progress_callback_counts_rows_without_changing_reports() {
        let slice = partition(&small_sweep(), 100).remove(0); // whole 5-point grid
        let mut seen = Vec::new();
        let observed = slice
            .job()
            .unwrap()
            .execute_with(&mut |done, total| seen.push((done, total)))
            .unwrap();
        assert_eq!(seen, vec![(1, 5), (2, 5), (3, 5), (4, 5), (5, 5)]);
        assert_eq!(observed, slice.execute().unwrap());
    }

    #[test]
    fn malformed_slice_executes_to_an_error() {
        let sweep = small_sweep();
        let bogus = GridSlice {
            id: 9,
            start: 4,
            len: 3, // past the 5-point grid
            sweep: Arc::new(sweep),
        };
        assert!(matches!(
            bogus.job(),
            Err(GridError::SliceFailed { slice: 9, .. })
        ));
        assert!(matches!(
            bogus.execute(),
            Err(GridError::SliceFailed { slice: 9, .. })
        ));
    }

    #[test]
    fn slice_round_trips_through_json() {
        // A slice crosses a process boundary as its job.
        let slice = partition(&small_sweep(), 2).remove(1);
        let job = slice.job().unwrap();
        assert_eq!((job.id, job.start, job.scenarios.len()), (1, 2, 2));
        let text = serde_json::to_string(&job).unwrap();
        let back: SliceJob = serde_json::from_str(&text).unwrap();
        assert_eq!(back, job);
        assert_eq!(
            back.execute_with(&mut |_, _| {}).unwrap(),
            slice.execute().unwrap()
        );
    }
}
