//! Measurement collection shared by the simulators.

use hyperroute_desim::{BatchMeans, Reservoir, Tally, TimeWeighted};
use hyperroute_queueing::little::LittleCheck;
use serde::{Deserialize, Serialize};

/// Summary statistics of per-packet delay.
///
/// `PartialEq` is bit-exact (no tolerance): it exists for the
/// scheduler-equivalence tests, which demand identical reports from both
/// event-queue backends. It compares floats by bit pattern, except that
/// any two non-finite values are equal: JSON maps every non-finite `f64`
/// through `null` (read back as the canonical NaN), so the NaN quantiles
/// of an empty measurement window — and the infinite `ci95` of a
/// too-short one — must compare equal across a baseline round-trip
/// instead of poisoning `Report == Report` with IEEE `NaN != NaN`.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DelayStats {
    /// Mean delay over measured packets.
    pub mean: f64,
    /// ~95% batch-means confidence half-width on the mean.
    pub ci95: f64,
    /// Median delay.
    pub p50: f64,
    /// 90th percentile delay.
    pub p90: f64,
    /// 99th percentile delay.
    pub p99: f64,
    /// Number of packets measured.
    pub count: u64,
}

impl PartialEq for DelayStats {
    fn eq(&self, other: &Self) -> bool {
        fn feq(a: f64, b: f64) -> bool {
            a.to_bits() == b.to_bits() || (!a.is_finite() && !b.is_finite())
        }
        feq(self.mean, other.mean)
            && feq(self.ci95, other.ci95)
            && feq(self.p50, other.p50)
            && feq(self.p90, other.p90)
            && feq(self.p99, other.p99)
            && self.count == other.count
    }
}

/// Collects delay / occupancy / throughput measurements with warm-up
/// truncation. All simulators in this crate drive one of these.
#[derive(Debug)]
pub struct MetricsCollector {
    warmup: f64,
    horizon: f64,
    delays: Tally,
    delay_batches: BatchMeans,
    reservoir: Reservoir,
    hops: Tally,
    zero_hop: u64,
    in_system: TimeWeighted,
    in_system_reset_done: bool,
    in_system_frozen: bool,
    generated: u64,
    delivered_measured: u64,
    delivered_total: u64,
    dropped_total: u64,
}

impl MetricsCollector {
    /// Collector measuring packets born in `[warmup, horizon)`.
    ///
    /// `batch_size` controls the batch-means CI granularity (packets per
    /// batch); `seed` feeds the quantile reservoir.
    pub fn new(warmup: f64, horizon: f64, batch_size: u64, seed: u64) -> MetricsCollector {
        assert!(horizon > warmup && warmup >= 0.0);
        MetricsCollector {
            warmup,
            horizon,
            delays: Tally::new(),
            delay_batches: BatchMeans::new(batch_size.max(1)),
            reservoir: Reservoir::new(4096, seed ^ 0x5EED_5EED),
            hops: Tally::new(),
            zero_hop: 0,
            in_system: TimeWeighted::new(0.0, 0.0),
            in_system_reset_done: warmup == 0.0,
            in_system_frozen: false,
            generated: 0,
            delivered_measured: 0,
            delivered_total: 0,
            dropped_total: 0,
        }
    }

    /// Record a packet generation at time `t`; updates the number-in-system
    /// trajectory (restarting its integral at the warm-up boundary).
    #[inline]
    pub fn on_generated(&mut self, t: f64) {
        self.generated += 1;
        self.bump_in_system(t, 1.0);
    }

    /// Record a delivery at `t` of a packet born at `born` having taken
    /// `hops` arcs.
    #[inline]
    pub fn on_delivered(&mut self, t: f64, born: f64, hops: u16) {
        self.delivered_total += 1;
        self.bump_in_system(t, -1.0);
        if born >= self.warmup && born < self.horizon {
            let delay = t - born;
            self.delays.push(delay);
            self.delay_batches.push(delay);
            self.reservoir.push(delay);
            self.hops.push(hops as f64);
            if hops == 0 {
                self.zero_hop += 1;
            }
            self.delivered_measured += 1;
        }
    }

    /// Record a drop at `t` (fault-mask workloads): the packet leaves the
    /// system undelivered. Keeps the number-in-system trajectory exact and
    /// the conservation identity `generated == delivered + dropped +
    /// in_flight` intact; dropped packets never enter the delay
    /// statistics.
    #[inline]
    pub fn on_dropped(&mut self, t: f64) {
        self.dropped_total += 1;
        self.bump_in_system(t, -1.0);
    }

    fn bump_in_system(&mut self, t: f64, delta: f64) {
        // Restart the time-average at the warm-up boundary exactly once, so
        // mean_in_system() covers only the measurement window, and freeze
        // it at the horizon so a drain phase does not bias it.
        if self.in_system_frozen {
            return;
        }
        if !self.in_system_reset_done && t >= self.warmup {
            self.in_system.set(self.warmup, self.in_system.current());
            self.in_system.reset(self.warmup);
            self.in_system_reset_done = true;
        }
        if t >= self.horizon {
            self.in_system.set(self.horizon, self.in_system.current());
            self.in_system_frozen = true;
            return;
        }
        self.in_system.add(t, delta);
    }

    /// Number of packets generated (all time).
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Number of packets delivered (all time).
    pub fn delivered_total(&self) -> u64 {
        self.delivered_total
    }

    /// Number of packets dropped (all time; fault-mask workloads only).
    pub fn dropped_total(&self) -> u64 {
        self.dropped_total
    }

    /// Packets currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.generated - self.delivered_total - self.dropped_total
    }

    /// Current number-in-system value.
    pub fn current_in_system(&self) -> f64 {
        self.in_system.current()
    }

    /// Peak number-in-system seen.
    pub fn peak_in_system(&self) -> f64 {
        self.in_system.peak()
    }

    /// Time-averaged number-in-system over the measurement window ending at
    /// `t_end`.
    pub fn mean_in_system(&self, t_end: f64) -> f64 {
        self.in_system.mean(t_end)
    }

    /// Delay statistics for measured packets.
    pub fn delay_stats(&self) -> DelayStats {
        DelayStats {
            mean: self.delays.mean(),
            ci95: self.delay_batches.ci95_half_width(),
            p50: self.reservoir.quantile(0.5).unwrap_or(f64::NAN),
            p90: self.reservoir.quantile(0.9).unwrap_or(f64::NAN),
            p99: self.reservoir.quantile(0.99).unwrap_or(f64::NAN),
            count: self.delays.count(),
        }
    }

    /// Mean hops per measured packet.
    pub fn mean_hops(&self) -> f64 {
        self.hops.mean()
    }

    /// Fraction of measured packets delivered with zero hops (destination =
    /// origin, probability `(1-p)^d` under Eq. (1)).
    pub fn zero_hop_fraction(&self) -> f64 {
        if self.delivered_measured == 0 {
            0.0
        } else {
            self.zero_hop as f64 / self.delivered_measured as f64
        }
    }

    /// Measured delivery throughput over the measurement window ending at
    /// `t_end` (packets per unit time).
    pub fn throughput(&self, t_end: f64) -> f64 {
        let span = t_end - self.warmup;
        if span <= 0.0 {
            0.0
        } else {
            self.delivered_measured as f64 / span
        }
    }

    /// Little's-law consistency report over the measurement window.
    pub fn little_check(&self, t_end: f64) -> LittleCheck {
        LittleCheck {
            mean_in_system: self.mean_in_system(t_end),
            mean_delay: self.delays.mean(),
            throughput: self.throughput(t_end),
        }
    }
}

/// Arcs per [`ShardedArcTally`] shard (2¹⁶ × 4 B = 256 KiB): one shard
/// spans the arcs of a contiguous node range, so a run that only loads
/// part of a huge graph only allocates counters for the ranges it
/// touches.
const ARC_SHARD_BITS: u32 = 16;

/// Per-arc arrival counters sharded by node range.
///
/// The flat `Vec<u32>` this replaces allocated (and zeroed, and walked)
/// four bytes for *every* arc up front — fine at 10⁵ arcs, a 40 MB
/// eager allocation at the ≥10⁷-arc scale the sparse-topology follow-up
/// targets, where skewed demand leaves most ranges untouched. Shards are
/// allocated lazily on first increment; counters saturate at `u32::MAX`
/// instead of wrapping, so arbitrarily long horizons degrade gracefully
/// (the summary rates read "at least this", never garbage).
///
/// Totals, maxima and iteration order are exactly those of the flat
/// vector (missing shards read as zero), so reports are byte-identical
/// across the representation change.
#[derive(Clone, Debug)]
pub struct ShardedArcTally {
    /// `shards[i]` covers arcs `i·2¹⁶ .. min((i+1)·2¹⁶, len)`; `None`
    /// until the first increment in that range. The tail shard is sized
    /// exactly, so small graphs pay only their own footprint.
    shards: Vec<Option<Box<[u32]>>>,
    len: usize,
}

impl ShardedArcTally {
    /// Tally over dense arc indices `0..len`; allocates only the shard
    /// directory (one pointer per 2¹⁶ arcs).
    pub fn new(len: usize) -> ShardedArcTally {
        ShardedArcTally {
            shards: vec![None; len.div_ceil(1 << ARC_SHARD_BITS)],
            len,
        }
    }

    /// Number of arcs tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tally tracks no arcs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn shard_span(&self, shard: usize) -> usize {
        (self.len - (shard << ARC_SHARD_BITS)).min(1 << ARC_SHARD_BITS)
    }

    /// Saturating increment of `arc`'s counter, allocating its node
    /// range's shard on first touch.
    #[inline]
    pub fn bump(&mut self, arc: usize) {
        debug_assert!(arc < self.len);
        let shard = arc >> ARC_SHARD_BITS;
        let span = self.shard_span(shard);
        let counters =
            self.shards[shard].get_or_insert_with(|| vec![0u32; span].into_boxed_slice());
        let c = &mut counters[arc & ((1 << ARC_SHARD_BITS) - 1)];
        *c = c.saturating_add(1);
    }

    /// The counter of `arc` (0 if its shard was never touched).
    #[inline]
    pub fn get(&self, arc: usize) -> u32 {
        debug_assert!(arc < self.len);
        match &self.shards[arc >> ARC_SHARD_BITS] {
            Some(counters) => counters[arc & ((1 << ARC_SHARD_BITS) - 1)],
            None => 0,
        }
    }

    /// Sum over all arcs (untouched shards contribute nothing).
    pub fn total(&self) -> u64 {
        self.shards
            .iter()
            .flatten()
            .flat_map(|counters| counters.iter())
            .map(|&c| c as u64)
            .sum()
    }

    /// Largest single-arc counter (0 when no arc was ever bumped, like
    /// `max().unwrap_or(0)` over the flat vector).
    pub fn max(&self) -> u32 {
        self.shards
            .iter()
            .flatten()
            .flat_map(|counters| counters.iter())
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Counters in dense arc order, zeros for untouched shards — the
    /// flat-vector view the report assemblers iterate.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len).map(move |arc| self.get(arc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_truncation_filters_births() {
        let mut m = MetricsCollector::new(10.0, 100.0, 4, 1);
        // Born before warm-up: not measured.
        m.on_generated(5.0);
        m.on_delivered(12.0, 5.0, 3);
        assert_eq!(m.delay_stats().count, 0);
        // Born inside the window: measured.
        m.on_generated(20.0);
        m.on_delivered(23.5, 20.0, 2);
        let s = m.delay_stats();
        assert_eq!(s.count, 1);
        assert!((s.mean - 3.5).abs() < 1e-12);
    }

    #[test]
    fn throughput_counts_only_measured() {
        let mut m = MetricsCollector::new(0.0, 100.0, 4, 1);
        for i in 0..10 {
            let t = i as f64;
            m.on_generated(t);
            m.on_delivered(t + 1.0, t, 1);
        }
        assert!((m.throughput(10.0) - 1.0).abs() < 1e-12);
        assert_eq!(m.generated(), 10);
        assert_eq!(m.delivered_total(), 10);
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn zero_hop_fraction_tracks() {
        let mut m = MetricsCollector::new(0.0, 10.0, 4, 1);
        m.on_generated(1.0);
        m.on_delivered(1.0, 1.0, 0);
        m.on_generated(2.0);
        m.on_delivered(4.0, 2.0, 2);
        assert!((m.zero_hop_fraction() - 0.5).abs() < 1e-12);
        assert!((m.mean_hops() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn little_check_consistent_for_deterministic_flow() {
        // One packet in system at all times: N̄ = 1, λ = 1, T = 1.
        let mut m = MetricsCollector::new(0.0, 1000.0, 16, 2);
        let mut t = 0.0;
        for _ in 0..1000 {
            m.on_generated(t);
            m.on_delivered(t + 1.0, t, 1);
            t += 1.0;
        }
        let check = m.little_check(t);
        assert!(
            check.relative_error() < 0.01,
            "little error {}",
            check.relative_error()
        );
    }

    #[test]
    fn dropped_packets_leave_the_system_without_delay_stats() {
        let mut m = MetricsCollector::new(0.0, 100.0, 4, 1);
        m.on_generated(1.0);
        m.on_generated(2.0);
        m.on_dropped(3.0);
        m.on_delivered(4.0, 2.0, 1);
        assert_eq!(m.dropped_total(), 1);
        assert_eq!(m.in_flight(), 0);
        assert_eq!(m.current_in_system(), 0.0);
        assert_eq!(m.delay_stats().count, 1);
    }

    #[test]
    fn sharded_tally_matches_flat_vector() {
        // Spread bumps across three shards (arc indices straddling the
        // 2^16 boundary) and check every read-side view against a flat
        // model.
        let len = (3 << ARC_SHARD_BITS) - 17;
        let mut tally = ShardedArcTally::new(len);
        let mut flat = vec![0u32; len];
        let arcs = [0usize, 1, 65535, 65536, 65537, 131072, len - 1];
        for (i, &arc) in arcs.iter().enumerate() {
            for _ in 0..=i {
                tally.bump(arc);
                flat[arc] += 1;
            }
        }
        assert_eq!(tally.len(), len);
        assert_eq!(tally.total(), flat.iter().map(|&c| c as u64).sum::<u64>());
        assert_eq!(tally.max(), *flat.iter().max().unwrap());
        assert!(tally.iter().eq(flat.iter().copied()));
        for &arc in &arcs {
            assert_eq!(tally.get(arc), flat[arc]);
        }
    }

    #[test]
    fn sharded_tally_allocates_only_touched_ranges() {
        // 10^6 arcs = 16 shards; touching two ranges must leave the other
        // 14 directories empty (the lazy-allocation contract the ≥10^7-arc
        // follow-up depends on).
        let mut tally = ShardedArcTally::new(1_000_000);
        tally.bump(3);
        tally.bump(999_999);
        let allocated = tally.shards.iter().flatten().count();
        assert_eq!(allocated, 2);
        assert_eq!(tally.total(), 2);
        // Tail shard is sized exactly, not rounded up to 2^16.
        assert_eq!(
            tally.shards.last().unwrap().as_ref().unwrap().len(),
            1_000_000 - 15 * (1 << ARC_SHARD_BITS)
        );
    }

    #[test]
    fn sharded_tally_saturates_instead_of_wrapping() {
        let mut tally = ShardedArcTally::new(4);
        // Force the counter to the brink, then over it: it must pin at
        // u32::MAX, not wrap to 0 (the silent-overflow regression this
        // guards against).
        tally.bump(2);
        if let Some(counters) = &mut tally.shards[0] {
            counters[2] = u32::MAX - 1;
        }
        tally.bump(2);
        assert_eq!(tally.get(2), u32::MAX);
        tally.bump(2);
        assert_eq!(tally.get(2), u32::MAX, "must saturate, not wrap");
        assert_eq!(tally.max(), u32::MAX);
    }

    #[test]
    fn peak_in_system() {
        let mut m = MetricsCollector::new(0.0, 10.0, 4, 1);
        m.on_generated(0.0);
        m.on_generated(0.0);
        m.on_generated(0.0);
        m.on_delivered(1.0, 0.0, 1);
        assert_eq!(m.peak_in_system(), 3.0);
        assert_eq!(m.current_in_system(), 2.0);
    }
}
