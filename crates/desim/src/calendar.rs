//! Bucketed calendar-queue (time-wheel) future-event list.
//!
//! The paper's equivalent networks (§3.1, §4.3) schedule almost every event
//! in the near future: unit-service FIFO completions at `now + 1`,
//! per-server Poisson arrivals at `now + Exp(λ)`, and Processor-Sharing
//! departures a few service times out. A comparison-based heap pays
//! `O(log n)` for that near-future structure; a calendar queue (Brown
//! 1988) pays amortized `O(1)`. The queue serves the
//! equivalent-network simulator through [`Scheduler`](crate::sched::Scheduler);
//! the packet engine's completions are pushed in time order, so it keeps
//! them in a plain FIFO instead.
//!
//! # Design
//!
//! * **Wheel.** `nbuckets` (power of two) buckets of width `width` cover
//!   the span `[epoch·width, (epoch + nbuckets)·width)`. An event at time
//!   `t` has global bucket index `g = ⌊t/width⌋`; events with `g` inside
//!   the span are appended — unsorted, `O(1)` — to bucket `g & (nbuckets-1)`.
//!   The width is sized from a caller-provided events-per-unit-time hint so
//!   the average bucket holds ~`EVENTS_PER_BUCKET` events.
//! * **Flat arena storage.** Bucket contents live in **one** contiguous
//!   arena of `STRIDE` entry slots per bucket, with per-bucket lengths in
//!   a dense `u16` array. A push is one L1 hit on the length array plus one
//!   write into the arena; walking an empty bucket touches only the length
//!   array. (A `Vec` per bucket would cost two scattered touches per push
//!   — header and data — and a cold header read per walk.) The rare bucket
//!   that exceeds its stride spills to a shared side `Vec` and is flagged,
//!   so correctness never depends on the sizing hint.
//! * **Drain.** When the cursor reaches a non-empty bucket, its entries
//!   (arena slice plus any spill) are copied to a drain buffer, sorted
//!   *descending* by `(time, seq)` — `O(k log k)`, amortized `O(1)` per
//!   event for constant occupancy — and consumed from the back with
//!   `Vec::pop`. Events pushed *into the epoch being drained* (including
//!   times at or before the drain point, which a heap would also serve
//!   next) are binary-search inserted at their descending position, so any
//!   push/pop interleaving a binary heap accepts is ordered identically
//!   here. All storage is recycled; the steady state allocates nothing.
//! * **Overflow lane.** Events beyond the span (far-future slot horizons,
//!   first arrivals of nearly-idle sources) go to a sorted overflow `Vec`. Each cursor advance migrates
//!   the overflow events that entered the span; when the wheel empties the
//!   cursor jumps straight to the earliest overflow event instead of
//!   walking empty buckets.
//!
//! # Determinism
//!
//! Pop order is **exactly** the `(time, f64::total_cmp, seq)` order of the
//! heap-backed [`EventQueue`](crate::events::EventQueue): bucket partition
//! respects time order (equal times share a bucket), each bucket is
//! consumed in `(time, seq)` order, and in-drain pushes are placed by the
//! same comparison. The differential tests in the workspace's
//! `tests/scheduler_equivalence.rs` assert byte-identical equivalent-network
//! reports across both backends.
//!
//! Like `EventQueue`, time validation is a `debug_assert!` — the simulators
//! validate their configurations once at construction instead of paying a
//! branch per event (the hottest line in the workspace). Feeding a NaN
//! time in a release build is unsupported: the heap would order it after
//! every finite event, the calendar files it in the current bucket, so the
//! two backends may diverge — which is why the simulators' constructors
//! reject any configuration that could produce one.

use crate::time::SimTime;

/// Average events per bucket the sizing hint aims for: wide enough that
/// the cursor rarely walks empty buckets, narrow enough that per-bucket
/// sorts stay short insertion sorts (tuned empirically on the d=8, ρ=0.8
/// hypercube kernel; throughput is flat within ~5% for 4–8).
const EVENTS_PER_BUCKET: f64 = 8.0;

/// Arena slots per bucket. With ~[`EVENTS_PER_BUCKET`] expected events the
/// stride overflows with probability ~0.4% per bucket (Poisson tail);
/// overflowing buckets and simultaneous-event bursts (slotted batches)
/// take the spill lane.
const STRIDE: usize = 16;

/// Simulated time the wheel spans. Must exceed 1.0 by at least one bucket
/// so `now + 1.0` completions always land inside it; 1.5 keeps the arena
/// footprint small without risking the overflow lane on unit steps.
const SPAN: f64 = 1.5;

/// Spill flag on a bucket's length word.
const SPILLED: u16 = 0x8000;

/// A scheduled event with its deterministic tie-break key.
#[derive(Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key_before(&self, time: SimTime, seq: u64) -> bool {
        match self.time.total_cmp(&time) {
            core::cmp::Ordering::Less => true,
            core::cmp::Ordering::Equal => self.seq < seq,
            core::cmp::Ordering::Greater => false,
        }
    }
}

/// Bucketed future-event list with deterministic FIFO tie-breaking;
/// a drop-in replacement for [`EventQueue`](crate::events::EventQueue)
/// with amortized `O(1)` push/pop on unit-service workloads.
///
/// `E: Clone` because freed arena slots keep their last entry (the safe
/// alternative to uninitialized storage; events are small `Copy` types in
/// practice).
pub struct CalendarQueue<E: Clone> {
    /// `STRIDE` entry slots per bucket; lazily filled on the first push
    /// (slots at or past a bucket's length hold stale clones).
    arena: Vec<Entry<E>>,
    /// Per-bucket entry count (low bits) and [`SPILLED`] flag.
    lens: Vec<u16>,
    mask: u64,
    inv_width: f64,
    /// Global index of the bucket the cursor is on.
    epoch: u64,
    /// The current epoch's remaining events, sorted descending by
    /// `(time, seq)` — popped from the back. Only meaningful while
    /// `draining`.
    drain_buf: Vec<Entry<E>>,
    /// Whether `drain_buf` holds the current epoch's events.
    draining: bool,
    /// Entries of buckets that outgrew their stride, tagged with their
    /// bucket index (at most one in-span epoch maps to a bucket at a time).
    spill: Vec<(u32, Entry<E>)>,
    /// Events in the wheel (arena + spill + drain buffer).
    wheel_len: usize,
    /// Far-future events, kept sorted **descending** by `(time, seq)` so
    /// migration pops from the back; re-sorted lazily after pushes.
    overflow: Vec<Entry<E>>,
    overflow_dirty: bool,
    /// Global insertion counter (the FIFO tie-break).
    seq: u64,
}

impl<E: Clone> CalendarQueue<E> {
    /// Calendar sized for roughly `events_per_unit` concurrently scheduled
    /// events per unit of simulated time (the hint controls bucket width;
    /// correctness never depends on it — misfits spill or overflow).
    pub fn with_rate_hint(events_per_unit: f64) -> CalendarQueue<E> {
        let target = (events_per_unit * SPAN / EVENTS_PER_BUCKET).clamp(16.0, 65_536.0);
        let nbuckets = (target as u64).next_power_of_two();
        let width = SPAN / nbuckets as f64;
        CalendarQueue {
            arena: Vec::new(),
            lens: vec![0; nbuckets as usize],
            mask: nbuckets - 1,
            inv_width: 1.0 / width,
            epoch: 0,
            drain_buf: Vec::new(),
            draining: false,
            spill: Vec::new(),
            wheel_len: 0,
            overflow: Vec::new(),
            overflow_dirty: false,
            seq: 0,
        }
    }

    /// Global bucket index of `time` (saturating).
    #[inline]
    fn global_bucket(&self, time: SimTime) -> u64 {
        // `as` saturates: negative and NaN -> 0, +huge -> u64::MAX (the
        // span check in `push` routes the latter to the overflow lane).
        // Release-mode NaN therefore lands in the current bucket — see the
        // module docs; debug builds reject it on push.
        (time * self.inv_width) as u64
    }

    /// Schedule `payload` at `time`.
    ///
    /// Debug builds reject NaN/negative times; release builds rely on the
    /// construction-time validation of the simulators (mirroring
    /// [`EventQueue::push`](crate::events::EventQueue::push)).
    #[inline]
    pub fn push(&mut self, time: SimTime, payload: E) {
        debug_assert!(time.is_finite() && time >= 0.0, "bad event time {time}");
        let seq = self.seq;
        self.seq += 1;
        let g = self.global_bucket(time);
        // Saturating: for epochs near u64::MAX the clipped span reaches the
        // end of the representable range, so every in-range `g` is "inside"
        // (the wheel degenerates to one bucket; order still holds because a
        // bucket is fully sorted before draining).
        if g > self.epoch.saturating_add(self.mask) {
            // Beyond the wheel span: sorted-overflow lane.
            self.overflow.push(Entry { time, seq, payload });
            self.overflow_dirty = true;
            return;
        }
        let entry = Entry { time, seq, payload };
        self.wheel_len += 1;
        if g <= self.epoch && self.draining {
            // Into the epoch being drained (or nominally before it, which
            // a heap would serve next): binary-search insert at the
            // descending position. Keys are unique (seq is), so the strict
            // "orders after the new entry" predicate partitions cleanly.
            let at = self.drain_buf.partition_point(|e| !e.key_before(time, seq));
            self.drain_buf.insert(at, entry);
        } else {
            self.bucket_append((g.max(self.epoch) & self.mask) as usize, entry);
        }
    }

    /// Append to a bucket's arena slots, spilling past the stride.
    #[inline]
    fn bucket_append(&mut self, slot: usize, entry: Entry<E>) {
        if self.arena.is_empty() {
            // First push: materialize the arena, filled with clones of the
            // first entry (stale slots are never read past a bucket's len;
            // cloning sidesteps uninitialized storage without `unsafe`).
            let n = (self.mask as usize + 1) * STRIDE;
            self.arena = vec![entry.clone(); n];
        }
        let len = self.lens[slot];
        if (len as usize) < STRIDE {
            self.arena[slot * STRIDE + len as usize] = entry;
            self.lens[slot] = len + 1;
        } else {
            self.spill.push((slot as u32, entry));
            self.lens[slot] = len | SPILLED;
        }
    }

    /// Pop the earliest event (ties: insertion order). Amortized `O(1)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // Fast path: the current epoch is mid-drain.
        if self.draining {
            if let Some(entry) = self.drain_buf.pop() {
                self.wheel_len -= 1;
                return Some((entry.time, entry.payload));
            }
        }
        self.pop_slow()
    }

    fn pop_slow(&mut self) -> Option<(SimTime, E)> {
        self.advance_to_nonempty()?;
        let entry = self
            .drain_buf
            .pop()
            .expect("advance filled the drain buffer");
        self.wheel_len -= 1;
        Some((entry.time, entry.payload))
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.draining {
            if let Some(entry) = self.drain_buf.last() {
                return Some(entry.time);
            }
        }
        self.advance_to_nonempty()?;
        Some(
            self.drain_buf
                .last()
                .expect("advance filled the drain buffer")
                .time,
        )
    }

    /// Move the cursor to the next bucket with pending events and load it
    /// into the (sorted) drain buffer; migrate overflow events that enter
    /// the span. Returns `None` when the queue is empty.
    fn advance_to_nonempty(&mut self) -> Option<()> {
        loop {
            let slot = (self.epoch & self.mask) as usize;
            let len = self.lens[slot];
            if len != 0 {
                self.load_drain_buf(slot, len);
                return Some(());
            }
            if self.wheel_len == 0 {
                if self.overflow.is_empty() {
                    self.draining = false;
                    return None;
                }
                // Wheel empty: jump straight to the earliest overflow event
                // instead of stepping over empty buckets one by one.
                self.sort_overflow_if_dirty();
                let earliest = self.overflow.last().expect("overflow non-empty").time;
                self.epoch = self
                    .global_bucket(earliest)
                    .max(self.epoch.saturating_add(1));
            } else {
                self.epoch = self.epoch.saturating_add(1);
            }
            self.draining = false;
            if !self.overflow.is_empty() {
                self.migrate_overflow();
            }
        }
    }

    /// Copy one bucket's entries (arena slice + spill) into the drain
    /// buffer and sort it for back-to-front consumption.
    fn load_drain_buf(&mut self, slot: usize, len: u16) {
        debug_assert!(self.drain_buf.is_empty());
        let k = (len & !SPILLED) as usize;
        self.drain_buf
            .extend_from_slice(&self.arena[slot * STRIDE..slot * STRIDE + k]);
        if len & SPILLED != 0 {
            // Rare: the bucket outgrew its stride. Extract its spill
            // entries (a bucket index identifies a unique in-span epoch).
            let drain_buf = &mut self.drain_buf;
            self.spill.retain(|(s, e)| {
                if *s as usize == slot {
                    drain_buf.push(e.clone());
                    false
                } else {
                    true
                }
            });
        }
        self.lens[slot] = 0;
        sort_desc(&mut self.drain_buf);
        self.draining = true;
    }

    /// Pull overflow events that now fall inside the wheel span.
    fn migrate_overflow(&mut self) {
        self.sort_overflow_if_dirty();
        // A saturated horizon means the clipped span reaches the end of the
        // representable bucket range: every overflow event is "inside" and
        // migrates (the wheel degenerates gracefully near u64::MAX).
        let horizon = self.epoch.saturating_add(self.mask + 1);
        while let Some(last) = self.overflow.last() {
            let g = self.global_bucket(last.time);
            if g >= horizon && horizon != u64::MAX {
                break;
            }
            let entry = self.overflow.pop().expect("checked non-empty");
            // Migrated events are never behind the cursor: their bucket is
            // at or after the (fresh, not-yet-drained) current epoch.
            let slot = (g.max(self.epoch) & self.mask) as usize;
            self.bucket_append(slot, entry);
            self.wheel_len += 1;
        }
    }

    fn sort_overflow_if_dirty(&mut self) {
        if self.overflow_dirty {
            sort_desc(&mut self.overflow);
            self.overflow_dirty = false;
        }
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discard all pending events (the insertion counter keeps counting, so
    /// determinism is preserved across reuse).
    pub fn clear(&mut self) {
        self.lens.iter_mut().for_each(|l| *l = 0);
        self.drain_buf.clear();
        self.draining = false;
        self.spill.clear();
        self.overflow.clear();
        self.overflow_dirty = false;
        self.wheel_len = 0;
    }

    /// Total number of events ever scheduled.
    pub fn scheduled_total(&self) -> u64 {
        self.seq
    }
}

/// Sort entries descending by `(time, seq)` — drain order is back-to-front.
///
/// Buckets average a handful of entries, where a branchy insertion sort
/// beats the general-purpose `sort_unstable_by` dispatch; large slices
/// (overflow bursts, spilled buckets) fall back to it.
fn sort_desc<E: Clone>(entries: &mut [Entry<E>]) {
    if entries.len() <= 24 {
        for i in 1..entries.len() {
            let (time, seq) = (entries[i].time, entries[i].seq);
            let mut j = i;
            while j > 0 && entries[j - 1].key_before(time, seq) {
                entries.swap(j - 1, j);
                j -= 1;
            }
        }
    } else {
        entries.sort_unstable_by(|a, b| b.time.total_cmp(&a.time).then_with(|| b.seq.cmp(&a.seq)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::with_rate_hint(8.0);
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_fifo_through_spill() {
        // 100 events at one instant: far beyond the stride, so most take
        // the spill lane — order must still be insertion order.
        let mut q = CalendarQueue::with_rate_hint(50.0);
        for i in 0..100 {
            q.push(5.0, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5.0, i)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn push_into_epoch_being_drained() {
        let mut q = CalendarQueue::with_rate_hint(4.0);
        q.push(0.10, "first");
        q.push(0.20, "third");
        assert_eq!(q.pop(), Some((0.10, "first")));
        // Lands in the epoch currently being drained, before the pending
        // 0.20 — and a nominally-stale time behaves like the heap (next).
        q.push(0.15, "second");
        q.push(0.12, "also-second-but-later-seq");
        assert_eq!(q.pop().unwrap().1, "also-second-but-later-seq");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn far_future_overflow_and_jump() {
        let mut q = CalendarQueue::with_rate_hint(16.0);
        q.push(1_000.0, "far");
        q.push(2_000.0, "farther");
        q.push(0.5, "near");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((0.5, "near")));
        assert_eq!(q.pop(), Some((1_000.0, "far")));
        assert_eq!(q.pop(), Some((2_000.0, "farther")));
        assert!(q.is_empty());
    }

    #[test]
    fn unit_service_pattern_stays_in_wheel() {
        // now + 1.0 completions: the dominant pattern. Interleave pushes
        // and pops as a simulator would.
        let mut q = CalendarQueue::with_rate_hint(4.0);
        q.push(0.0, 0u32);
        let mut popped = Vec::new();
        for i in 1..=1000u32 {
            let (t, v) = q.pop().expect("queue drained early");
            popped.push(v);
            if i <= 999 {
                q.push(t + 1.0, i);
            }
        }
        assert_eq!(popped.len(), 1000);
        assert!(popped.windows(2).all(|w| w[0] < w[1]));
        assert!(q.overflow.is_empty(), "unit steps must never overflow");
    }

    #[test]
    fn matches_heap_on_random_monotone_stream() {
        use crate::events::EventQueue;
        // LCG-driven random DES-like interleaving; both queues must agree
        // event for event.
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::with_rate_hint(32.0);
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let mut lcg = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..64u32 {
            let t = lcg() * 3.0;
            heap.push(t, i);
            cal.push(t, i);
        }
        let mut id = 64u32;
        for _ in 0..20_000 {
            let (th, vh) = heap.pop().expect("heap empty");
            let (tc, vc) = cal.pop().expect("calendar empty");
            assert_eq!((th, vh), (tc, vc));
            let now = th;
            // Schedule 0-2 follow-ups, mixing sub-unit, unit, and far gaps.
            let r = lcg();
            let n = if (0.45..0.55).contains(&r) { 2 } else { 1 };
            for _ in 0..n {
                let gap = match (lcg() * 4.0) as u32 {
                    0 => lcg() * 0.05,
                    1 => 1.0,
                    2 => lcg() * 1.5,
                    _ => 5.0 + lcg() * 50.0,
                };
                heap.push(now + gap, id);
                cal.push(now + gap, id);
                id += 1;
            }
            assert_eq!(heap.len(), cal.len());
        }
        // Drain the rest.
        while let Some(a) = heap.pop() {
            assert_eq!(Some(a), cal.pop());
        }
        assert!(cal.is_empty());
    }

    #[test]
    fn matches_heap_with_simultaneous_bursts() {
        use crate::events::EventQueue;
        // Slotted-time pattern: bursts of equal-time events (spill lane)
        // interleaved with unit completions.
        let mut heap = EventQueue::new();
        let mut cal = CalendarQueue::with_rate_hint(64.0);
        let mut id = 0u32;
        for burst in 0..50 {
            let t = burst as f64 * 0.5;
            for _ in 0..40 {
                heap.push(t + 1.0, id);
                cal.push(t + 1.0, id);
                id += 1;
            }
            for _ in 0..30 {
                let a = heap.pop();
                assert_eq!(a, cal.pop());
                if let Some((now, _)) = a {
                    heap.push(now + 1.0, id);
                    cal.push(now + 1.0, id);
                    id += 1;
                }
            }
        }
        while let Some(a) = heap.pop() {
            assert_eq!(Some(a), cal.pop());
        }
        assert!(cal.is_empty());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = CalendarQueue::with_rate_hint(8.0);
        q.push(7.0, ());
        assert_eq!(q.peek_time(), Some(7.0));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clear_keeps_counter() {
        let mut q = CalendarQueue::with_rate_hint(8.0);
        q.push(1.0, 1);
        q.push(900.0, 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 2);
        q.push(1.0, 3);
        assert_eq!(q.scheduled_total(), 3);
        assert_eq!(q.pop(), Some((1.0, 3)));
    }

    #[test]
    fn zero_time_events() {
        let mut q = CalendarQueue::with_rate_hint(8.0);
        q.push(0.0, "a");
        q.push(0.0, "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "bad event time")]
    fn rejects_nan_in_debug() {
        let mut q = CalendarQueue::with_rate_hint(8.0);
        q.push(f64::NAN, ());
    }

    #[test]
    fn astronomically_far_events_do_not_overflow_epoch_arithmetic() {
        // Bucket indices saturate near u64::MAX (e.g. a first arrival drawn
        // from Exp(1e-20)); the epoch walk must degrade gracefully instead
        // of overflowing (debug) or spinning (release).
        let mut q = CalendarQueue::with_rate_hint(8.0);
        q.push(3.0e18, "huge");
        q.push(1.0, "near");
        q.push(f64::MAX, "max");
        assert_eq!(q.pop(), Some((1.0, "near")));
        assert_eq!(q.pop(), Some((3.0e18, "huge")));
        assert_eq!(q.pop(), Some((f64::MAX, "max")));
        assert_eq!(q.pop(), None);
        // Still usable afterwards (epoch is pinned at the end of the
        // representable range; new far-future pushes keep working).
        q.push(4.0e18, "later");
        assert_eq!(q.pop(), Some((4.0e18, "later")));
    }

    #[test]
    fn extreme_rate_hints_clamp() {
        let mut tiny = CalendarQueue::with_rate_hint(0.0);
        let mut huge = CalendarQueue::with_rate_hint(1e12);
        for i in 0..100 {
            tiny.push(i as f64 * 0.37, i);
            huge.push(i as f64 * 0.37, i);
        }
        for i in 0..100 {
            assert_eq!(tiny.pop().unwrap().1, i);
            assert_eq!(huge.pop().unwrap().1, i);
        }
    }
}
