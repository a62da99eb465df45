//! Opt-in telemetry data types: log-bucketed histograms and per-arc
//! load summaries.
//!
//! These are the *serialisable* halves of the flight-recorder stack: the
//! `hyperroute-telemetry` crate builds them from observer hooks and
//! attaches the result to a [`crate::scenario::Report`] **after** the
//! run. Nothing here touches the simulation — a run with telemetry
//! attached produces a byte-identical report body, and the `telemetry`
//! key is simply absent (not `null`) on unobserved runs, so every
//! pre-existing corpus baseline round-trips unchanged.

use serde::{Deserialize, Serialize};

/// An HDR-style histogram over non-negative values with power-of-two
/// bucket boundaries.
///
/// Bucket `0` holds values in `[0, least)` (plus any non-finite or
/// negative input); bucket `k ≥ 1` holds `[least·2^(k−1), least·2^k)`.
/// Bucketing is pure integer arithmetic on the IEEE-754 exponent, so it
/// is deterministic across platforms — no `log2` rounding at bucket
/// boundaries. The vector grows lazily to the highest touched bucket.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LogHistogram {
    /// Upper bound of bucket 0 and scale of every boundary; a power of
    /// two.
    pub least: f64,
    /// Per-bucket sample counts, trimmed to the highest touched bucket.
    pub counts: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Exact sum of recorded values (for the mean).
    pub sum: f64,
    /// Smallest recorded value (`+∞` when empty).
    pub min: f64,
    /// Largest recorded value (`-∞` when empty).
    pub max: f64,
}

impl LogHistogram {
    /// Empty histogram with the given bucket-0 bound (must be a power
    /// of two, e.g. `2.0^-10` for times or `1.0` for counts).
    pub fn new(least: f64) -> LogHistogram {
        // A positive power of two has an all-zero mantissa.
        assert!(
            least.is_finite() && least > 0.0 && least.to_bits() & ((1u64 << 52) - 1) == 0,
            "least must be a positive power of two, got {least}"
        );
        LogHistogram {
            least,
            counts: Vec::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Histogram sized for simulated-time quantities (waits, delays):
    /// bucket 0 spans `[0, 2^-10)`, a resolution of about a thousandth
    /// of one unit service time.
    pub fn for_times() -> LogHistogram {
        LogHistogram::new(2.0_f64.powi(-10))
    }

    /// Histogram sized for small integer counts (hops, deflections):
    /// bucket 0 is exactly the zeros, bucket `k` holds `[2^(k−1), 2^k)`.
    pub fn for_counts() -> LogHistogram {
        LogHistogram::new(1.0)
    }

    /// Bucket index for a value: exponent distance from `least`, shifted
    /// so bucket 0 is everything below `least`.
    #[inline]
    fn bucket(&self, v: f64) -> usize {
        if v.is_nan() || v < self.least {
            return 0; // below least, negative, or NaN
        }
        let e = ((v.to_bits() >> 52) & 0x7FF) as i64;
        let e0 = ((self.least.to_bits() >> 52) & 0x7FF) as i64;
        (e - e0 + 1) as usize
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: f64) {
        let b = self.bucket(v);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Mean of the recorded values (NaN when empty).
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }

    /// Inclusive upper bound of bucket `k` (`least·2^k` for `k ≥ 1`).
    pub fn bucket_bound(&self, k: usize) -> f64 {
        if k == 0 {
            self.least
        } else {
            self.least * 2.0_f64.powi(k as i32)
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`0 ≤ q ≤ 1`), clamped to the observed `max`; NaN when empty.
    /// A conservative estimate with at most 2× relative error — enough
    /// for tail monitoring without storing samples.
    pub fn quantile_bound(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (k, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bucket_bound(k).min(self.max);
            }
        }
        self.max
    }
}

/// Per-arc load summary accumulated from hop and service-end hooks.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ArcTelemetry {
    /// Per-arc integral of queue depth (waiting + in service) over
    /// time: `∫ depth(t) dt` from the first event at the arc to the
    /// last. Dividing by the horizon gives the time-averaged occupancy.
    pub occupancy_time: Vec<f64>,
    /// Per-arc peak queue depth (waiting + in service).
    pub peak_depth: Vec<u32>,
}

/// The telemetry extension of a [`crate::scenario::Report`]: log-bucketed
/// distributions and per-arc load, attached only when a run was driven
/// under a telemetry probe.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TelemetryExt {
    /// Per-packet delay (delivery time − birth time), all deliveries.
    pub delay: LogHistogram,
    /// Per-hop queue wait: time between joining an arc queue and
    /// starting service there (0 for uncontended hops).
    pub queue_wait: LogHistogram,
    /// Paid deflections per delivered packet (bucket 0 = clean routes).
    pub deflections: LogHistogram,
    /// Length of each completed escape walk, in hops.
    pub escape_walks: LogHistogram,
    /// Per-arc occupancy integrals and peaks.
    pub arcs: ArcTelemetry,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_follow_powers_of_two() {
        let mut h = LogHistogram::for_counts();
        // bucket 0 = [0,1), 1 = [1,2), 2 = [2,4), 3 = [4,8) …
        for v in [0.0, 0.5, 1.0, 1.9, 2.0, 3.0, 4.0, 7.5, 8.0] {
            h.record(v);
        }
        assert_eq!(h.counts, vec![2, 2, 2, 2, 1]);
        assert_eq!(h.count, 9);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 8.0);
    }

    #[test]
    fn boundary_values_land_in_upper_bucket() {
        let mut h = LogHistogram::for_times();
        let least = 2.0_f64.powi(-10);
        h.record(least); // exactly the bucket-0 bound → bucket 1
        h.record(least * 2.0); // exactly the bucket-1 bound → bucket 2
        assert_eq!(h.counts, vec![0, 1, 1]);
    }

    #[test]
    fn degenerate_inputs_fold_into_bucket_zero() {
        let mut h = LogHistogram::for_counts();
        h.record(-1.0);
        h.record(f64::NAN);
        assert_eq!(h.counts, vec![2]);
        assert_eq!(h.count, 2);
    }

    #[test]
    fn mean_and_quantile_bounds() {
        let mut h = LogHistogram::for_counts();
        for v in [1.0, 1.0, 2.0, 100.0] {
            h.record(v);
        }
        assert!((h.mean() - 26.0).abs() < 1e-12);
        // Median rank 2 lands in bucket [1,2) whose bound is 2.
        assert_eq!(h.quantile_bound(0.5), 2.0);
        // The top sample's bucket bound (128) is clamped to max = 100.
        assert_eq!(h.quantile_bound(1.0), 100.0);
        assert!(LogHistogram::for_counts().quantile_bound(0.5).is_nan());
    }

    #[test]
    fn serde_round_trip_is_partial_eq() {
        let mut h = LogHistogram::for_times();
        for v in [0.0, 0.25, 3.5] {
            h.record(v);
        }
        let ext = TelemetryExt {
            delay: h.clone(),
            queue_wait: h.clone(),
            deflections: LogHistogram::for_counts(),
            escape_walks: LogHistogram::for_counts(),
            arcs: ArcTelemetry {
                occupancy_time: vec![0.0, 1.5, f64::NAN],
                peak_depth: vec![0, 3, 1],
            },
        };
        let json = serde_json::to_string(&ext).expect("serialise");
        let back: TelemetryExt = serde_json::from_str(&json).expect("parse");
        // NaN → null → NaN, and the empty histograms' ±∞ bounds → null →
        // NaN, all print as `null` again.
        assert!(json.contains("null"), "fixture lost its non-finite values");
        assert_eq!(serde_json::to_string(&back).expect("serialise"), json);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_least() {
        LogHistogram::new(3.0);
    }
}
