//! Future-event list.
//!
//! A binary min-heap keyed on `(time, sequence)` where the sequence number
//! is a global insertion counter: simultaneous events fire in insertion
//! order, which makes every simulation in this workspace a deterministic
//! function of its seed. Times are totally ordered with `f64::total_cmp`
//! (NaN is rejected on push).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled event: payload `E` at time `time`.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need the earliest first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Future-event list with deterministic FIFO tie-breaking.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Empty queue with reserved capacity.
    pub fn with_capacity(cap: usize) -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            seq: 0,
        }
    }

    /// Schedule `payload` at `time`.
    ///
    /// Debug builds panic on NaN or negative time. Release builds skip the
    /// check — this is the hottest line in the workspace (every event of
    /// every simulation passes through it), and the simulators validate
    /// their configurations once at construction instead; `f64::total_cmp`
    /// keeps the heap well-ordered even if a NaN slips through.
    #[inline]
    pub fn push(&mut self, time: SimTime, payload: E) {
        debug_assert!(time.is_finite() && time >= 0.0, "bad event time {time}");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// Pop the earliest event (ties: insertion order).
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// Pop the earliest event only if its time is at or before `bound` —
    /// the one-call merge primitive for simulators that keep a
    /// self-scheduling stream (next firing known in advance) outside the
    /// queue: the stream fires next exactly when this returns `None`.
    #[inline]
    pub fn pop_at_or_before(&mut self, bound: SimTime) -> Option<(SimTime, E)> {
        if self.heap.peek().is_some_and(|e| e.time <= bound) {
            self.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(5.0, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5.0, i)));
        }
    }

    #[test]
    fn interleaved_ties_and_order() {
        let mut q = EventQueue::new();
        q.push(2.0, "t2-first");
        q.push(1.0, "t1");
        q.push(2.0, "t2-second");
        q.push(0.5, "t05");
        assert_eq!(q.pop().unwrap().1, "t05");
        assert_eq!(q.pop().unwrap().1, "t1");
        assert_eq!(q.pop().unwrap().1, "t2-first");
        assert_eq!(q.pop().unwrap().1, "t2-second");
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(7.0, ());
        assert_eq!(q.pop_at_or_before(6.0), None);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop_at_or_before(7.0), Some((7.0, ())));
        assert!(q.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "bad event time")]
    fn rejects_nan_in_debug() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, ());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "bad event time")]
    fn rejects_negative_in_debug() {
        let mut q = EventQueue::new();
        q.push(-1.0, ());
    }

    #[test]
    fn large_random_sequence_is_sorted() {
        // Pseudo-random insertion using a simple LCG (no rand dependency in
        // unit tests of the queue itself).
        let mut q = EventQueue::new();
        let mut x: u64 = 0x2545F4914F6CDD1D;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = (x >> 11) as f64 / (1u64 << 53) as f64 * 1000.0;
            q.push(t, ());
        }
        let mut last = -1.0;
        while let Some((t, ())) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }
}
