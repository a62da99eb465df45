//! Streaming statistics for steady-state estimation.
//!
//! The paper's quantities are stationary expectations: the per-packet delay
//! `T`, the mean number-in-system `N` (related by Little's law), and
//! per-server occupancy distributions (geometric under the product form).
//! These collectors estimate them from finite runs:
//!
//! * [`Welford`] — numerically stable mean/variance of i.i.d.-ish samples
//!   (per-packet delays);
//! * [`TimeWeighted`] — time-average of a piecewise-constant signal
//!   (number in system);
//! * [`OccupancyHistogram`] — fraction of time a server spends at each
//!   occupancy (for the geometric product-form check);
//! * [`Reservoir`] — uniform sample for quantiles;
//! * [`BatchMeans`] — batch-means confidence intervals for steady-state
//!   means.

use crate::rng::SimRng;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Count-and-sum accumulator for streaming means.
///
/// The hot-path sibling of [`Welford`]: one add per observation, no
/// division, no variance. The simulators push one of these per delivered
/// packet, where Welford's per-push division is measurable; use [`Welford`]
/// whenever a variance is needed.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct Tally {
    count: u64,
    sum: f64,
}

impl Tally {
    /// Empty accumulator.
    pub fn new() -> Tally {
        Tally::default()
    }

    /// Add one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Numerically stable streaming mean/variance (Welford's algorithm).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Welford {
        Welford::default()
    }

    /// Add one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean (σ/√n). Biased for autocorrelated series;
    /// use [`BatchMeans`] for steady-state CIs.
    pub fn std_err(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Merge another accumulator (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }
}

/// Time-average of a piecewise-constant real signal.
///
/// Call [`TimeWeighted::set`] whenever the signal changes; the value is held
/// constant between updates. `mean(t)` integrates up to `t`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TimeWeighted {
    start: SimTime,
    last_t: SimTime,
    value: f64,
    integral: f64,
    peak: f64,
}

impl TimeWeighted {
    /// Signal starting at `t0` with initial `value`.
    pub fn new(t0: SimTime, value: f64) -> TimeWeighted {
        TimeWeighted {
            start: t0,
            last_t: t0,
            value,
            integral: 0.0,
            peak: value,
        }
    }

    /// Record that the signal takes `value` from time `t` on.
    /// `t` must not decrease between calls.
    #[inline]
    pub fn set(&mut self, t: SimTime, value: f64) {
        debug_assert!(
            t >= self.last_t,
            "time went backwards: {t} < {}",
            self.last_t
        );
        self.integral += self.value * (t - self.last_t);
        self.last_t = t;
        self.value = value;
        if value > self.peak {
            self.peak = value;
        }
    }

    /// Add `delta` to the current value at time `t`.
    #[inline]
    pub fn add(&mut self, t: SimTime, delta: f64) {
        let v = self.value + delta;
        self.set(t, v);
    }

    /// Current value of the signal.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// Largest value seen.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time-average over `[t0, t]`; `t` must be ≥ the last update time.
    pub fn mean(&self, t: SimTime) -> f64 {
        debug_assert!(t >= self.last_t);
        let span = t - self.start;
        if span <= 0.0 {
            return self.value;
        }
        (self.integral + self.value * (t - self.last_t)) / span
    }

    /// Restart integration from time `t`, keeping the current value.
    /// Used to discard a warm-up transient.
    pub fn reset(&mut self, t: SimTime) {
        self.start = t;
        self.last_t = t;
        self.integral = 0.0;
        self.peak = self.value;
    }
}

/// Time-average of a piecewise-constant signal, without peak tracking.
///
/// The hot-path sibling of [`TimeWeighted`]: the packet simulators update
/// one of these per dimension on **every** enqueue and completion, where
/// the peak comparison is dead weight (only the mean is reported).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TimeIntegral {
    start: SimTime,
    last_t: SimTime,
    value: f64,
    integral: f64,
}

impl TimeIntegral {
    /// Signal starting at `t0` with initial `value`.
    pub fn new(t0: SimTime, value: f64) -> TimeIntegral {
        TimeIntegral {
            start: t0,
            last_t: t0,
            value,
            integral: 0.0,
        }
    }

    /// Add `delta` to the signal at time `t` (`t` must not decrease).
    #[inline]
    pub fn add(&mut self, t: SimTime, delta: f64) {
        debug_assert!(t >= self.last_t, "time went backwards");
        self.integral += self.value * (t - self.last_t);
        self.last_t = t;
        self.value += delta;
    }

    /// Current value of the signal.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// Time-average over `[t0, t]`; `t` must be ≥ the last update time.
    pub fn mean(&self, t: SimTime) -> f64 {
        debug_assert!(t >= self.last_t);
        let span = t - self.start;
        if span <= 0.0 {
            return self.value;
        }
        (self.integral + self.value * (t - self.last_t)) / span
    }

    /// Restart integration from time `t`, keeping the current value
    /// (discards a warm-up transient).
    pub fn reset(&mut self, t: SimTime) {
        self.start = t;
        self.last_t = t;
        self.integral = 0.0;
    }
}

/// Fraction of time a non-negative integer signal (queue occupancy) spends
/// at each value — the empirical stationary occupancy distribution.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OccupancyHistogram {
    last_t: SimTime,
    start: SimTime,
    current: usize,
    time_at: Vec<f64>,
    overflow: f64,
}

impl OccupancyHistogram {
    /// Histogram with buckets `0..cap` (time above `cap-1` pools in an
    /// overflow bucket), starting at time `t0` with occupancy `initial`.
    pub fn new(t0: SimTime, initial: usize, cap: usize) -> OccupancyHistogram {
        assert!(cap >= 1);
        OccupancyHistogram {
            last_t: t0,
            start: t0,
            current: initial,
            time_at: vec![0.0; cap],
            overflow: 0.0,
        }
    }

    /// Record that occupancy becomes `value` at time `t`.
    #[inline]
    pub fn set(&mut self, t: SimTime, value: usize) {
        debug_assert!(t >= self.last_t);
        let dt = t - self.last_t;
        if self.current < self.time_at.len() {
            self.time_at[self.current] += dt;
        } else {
            self.overflow += dt;
        }
        self.last_t = t;
        self.current = value;
    }

    /// Current occupancy.
    pub fn current(&self) -> usize {
        self.current
    }

    /// Fraction of time spent at occupancy `n`, up to time `t`.
    pub fn fraction(&self, n: usize, t: SimTime) -> f64 {
        let span = t - self.start;
        if span <= 0.0 {
            return 0.0;
        }
        let mut time = if n < self.time_at.len() {
            self.time_at[n]
        } else {
            0.0
        };
        if n == self.current && t > self.last_t {
            time += t - self.last_t;
        }
        time / span
    }

    /// Fraction of time spent above the histogram cap.
    pub fn overflow_fraction(&self, t: SimTime) -> f64 {
        let span = t - self.start;
        if span <= 0.0 {
            return 0.0;
        }
        let mut extra = 0.0;
        if self.current >= self.time_at.len() && t > self.last_t {
            extra = t - self.last_t;
        }
        (self.overflow + extra) / span
    }

    /// Restart integration at time `t` (discard warm-up).
    pub fn reset(&mut self, t: SimTime) {
        self.start = t;
        self.last_t = t;
        self.time_at.iter_mut().for_each(|x| *x = 0.0);
        self.overflow = 0.0;
    }
}

/// Fixed-size uniform reservoir sample (Vitter's algorithm R), for delay
/// quantiles without storing every packet.
#[derive(Clone, Debug)]
pub struct Reservoir {
    sample: Vec<f64>,
    capacity: usize,
    seen: u64,
    rng: SimRng,
}

impl Reservoir {
    /// Reservoir holding at most `capacity` values.
    pub fn new(capacity: usize, seed: u64) -> Reservoir {
        assert!(capacity >= 1);
        Reservoir {
            sample: Vec::with_capacity(capacity),
            capacity,
            seen: 0,
            rng: SimRng::new(seed),
        }
    }

    /// Offer one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.sample.len() < self.capacity {
            self.sample.push(x);
        } else {
            // Uniform j in [0, seen) by integer multiply-shift — the same
            // algorithm-R acceptance, without the float round trip.
            let j = ((self.rng.next_u64() as u128 * self.seen as u128) >> 64) as u64;
            if (j as usize) < self.capacity {
                self.sample[j as usize] = x;
            }
        }
    }

    /// Number of observations offered.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Empirical quantiles `qs` (each in `[0, 1]`) of the retained
    /// sample, read from one sorted copy; `None` while the sample is
    /// empty.
    pub fn quantiles<const N: usize>(&self, qs: [f64; N]) -> Option<[f64; N]> {
        if self.sample.is_empty() {
            return None;
        }
        let mut s = self.sample.clone();
        // Elements equal under `total_cmp` are bit-identical, so an
        // unstable sort yields the same sequence as a stable one.
        s.sort_unstable_by(f64::total_cmp);
        let last = s.len() - 1;
        Some(qs.map(|q| s[((q * last as f64).round() as usize).min(last)]))
    }
}

/// Batch-means confidence interval for the steady-state mean of an
/// autocorrelated series.
///
/// Observations are grouped into consecutive batches of `batch_size`; the
/// batch means are treated as approximately i.i.d. normal (standard
/// steady-state simulation methodology).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BatchMeans {
    batch_size: u64,
    current: Tally,
    batches: Welford,
}

impl BatchMeans {
    /// Accumulator grouping observations in batches of `batch_size`.
    pub fn new(batch_size: u64) -> BatchMeans {
        assert!(batch_size >= 1);
        BatchMeans {
            batch_size,
            current: Tally::new(),
            batches: Welford::new(),
        }
    }

    /// Add one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.current.push(x);
        if self.current.count() == self.batch_size {
            self.batches.push(self.current.mean());
            self.current = Tally::new();
        }
    }

    /// Number of completed batches.
    pub fn num_batches(&self) -> u64 {
        self.batches.count()
    }

    /// Grand mean over completed batches (falls back to the running batch
    /// when none completed).
    pub fn mean(&self) -> f64 {
        if self.batches.count() > 0 {
            self.batches.mean()
        } else {
            self.current.mean()
        }
    }

    /// Half-width of the ~95% confidence interval on the steady-state mean.
    ///
    /// Uses a small t-quantile table for few batches and 1.96 beyond 30.
    pub fn ci95_half_width(&self) -> f64 {
        let k = self.batches.count();
        if k < 2 {
            return f64::INFINITY;
        }
        // t_{0.975, k-1} for k-1 = 1..30.
        const T: [f64; 30] = [
            12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179,
            2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
            2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
        ];
        let dof = (k - 1) as usize;
        let t = if dof <= 30 { T[dof - 1] } else { 1.96 };
        t * self.batches.std_err()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Unbiased variance of this classic dataset is 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_single_stream() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        w.push(3.5);
        assert_eq!(w.mean(), 3.5);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.std_err(), 0.0);
    }

    #[test]
    fn time_weighted_square_wave() {
        let mut tw = TimeWeighted::new(0.0, 0.0);
        tw.set(1.0, 2.0); // 0 on [0,1)
        tw.set(3.0, 0.0); // 2 on [1,3)
                          // mean over [0,4] = (0*1 + 2*2 + 0*1)/4 = 1.0
        assert!((tw.mean(4.0) - 1.0).abs() < 1e-12);
        assert_eq!(tw.peak(), 2.0);
        assert_eq!(tw.current(), 0.0);
    }

    #[test]
    fn time_weighted_add_and_reset() {
        let mut tw = TimeWeighted::new(0.0, 1.0);
        tw.add(2.0, 1.0); // value 2 from t=2
        tw.reset(2.0);
        tw.set(4.0, 0.0); // 2 on [2,4)
        assert!((tw.mean(6.0) - 1.0).abs() < 1e-12); // (2*2 + 0*2)/4
    }

    #[test]
    fn time_weighted_zero_span() {
        let tw = TimeWeighted::new(5.0, 3.0);
        assert_eq!(tw.mean(5.0), 3.0);
    }

    #[test]
    fn occupancy_histogram_fractions() {
        let mut h = OccupancyHistogram::new(0.0, 0, 8);
        h.set(1.0, 1); // 0 on [0,1)
        h.set(2.0, 2); // 1 on [1,2)
        h.set(4.0, 0); // 2 on [2,4)
                       // At t=5: 0 for 1+1=2 of 5; 1 for 1 of 5; 2 for 2 of 5.
        assert!((h.fraction(0, 5.0) - 0.4).abs() < 1e-12);
        assert!((h.fraction(1, 5.0) - 0.2).abs() < 1e-12);
        assert!((h.fraction(2, 5.0) - 0.4).abs() < 1e-12);
        assert_eq!(h.fraction(3, 5.0), 0.0);
        assert_eq!(h.overflow_fraction(5.0), 0.0);
    }

    #[test]
    fn occupancy_histogram_overflow_and_reset() {
        let mut h = OccupancyHistogram::new(0.0, 10, 4);
        h.set(2.0, 1); // occupancy 10 (overflow) on [0,2)
        assert!((h.overflow_fraction(4.0) - 0.5).abs() < 1e-12);
        h.reset(4.0);
        assert_eq!(h.overflow_fraction(6.0), 0.0);
        assert!((h.fraction(1, 6.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut h = OccupancyHistogram::new(0.0, 0, 16);
        let mut t = 0.0;
        let mut x: u64 = 12345;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            t += ((x >> 40) as f64 / (1u64 << 24) as f64) + 0.001;
            h.set(t, (x % 13) as usize);
        }
        let end = t + 1.0;
        let total: f64 =
            (0..16).map(|n| h.fraction(n, end)).sum::<f64>() + h.overflow_fraction(end);
        assert!((total - 1.0).abs() < 1e-9, "sum {total}");
    }

    #[test]
    fn reservoir_keeps_everything_when_small() {
        let mut r = Reservoir::new(100, 1);
        for i in 0..50 {
            r.push(i as f64);
        }
        assert_eq!(r.seen(), 50);
        // Index round(q·49): 0, 25 (24.5 rounds away from zero), 49.
        assert_eq!(r.quantiles([0.0, 0.5, 1.0]), Some([0.0, 25.0, 49.0]));
        assert_eq!(Reservoir::new(4, 1).quantiles([0.5]), None);
    }

    #[test]
    fn reservoir_quantiles_approximate_uniform() {
        let mut r = Reservoir::new(2000, 7);
        let mut rng = SimRng::new(99);
        for _ in 0..200_000 {
            r.push(rng.uniform01());
        }
        let [med, p90] = r.quantiles([0.5, 0.9]).unwrap();
        assert!((med - 0.5).abs() < 0.05, "median {med}");
        assert!((p90 - 0.9).abs() < 0.05, "p90 {p90}");
    }

    #[test]
    fn batch_means_iid_normal_ci_covers() {
        // For i.i.d. data the CI half-width should shrink like 1/sqrt(k).
        let mut bm = BatchMeans::new(100);
        let mut rng = SimRng::new(11);
        for _ in 0..100 * 40 {
            bm.push(rng.uniform01());
        }
        assert_eq!(bm.num_batches(), 40);
        assert!((bm.mean() - 0.5).abs() < 0.02);
        let hw = bm.ci95_half_width();
        assert!(hw > 0.0 && hw < 0.05, "half width {hw}");
    }

    #[test]
    fn batch_means_too_few_batches_infinite_ci() {
        let mut bm = BatchMeans::new(10);
        for i in 0..15 {
            bm.push(i as f64);
        }
        assert_eq!(bm.num_batches(), 1);
        assert!(bm.ci95_half_width().is_infinite());
    }
}
