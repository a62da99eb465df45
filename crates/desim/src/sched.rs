//! Pluggable future-event-list backend: binary heap or calendar queue.
//!
//! Both backends pop in exactly the same `(time, insertion-seq)` order, so
//! a simulation is a bit-identical deterministic function of its seed under
//! either; [`SchedulerKind`] picks the cost model. [`Scheduler`] serves the
//! equivalent-network simulator, whose Processor-Sharing servers schedule
//! departures at arbitrary times; there the calendar queue is the default
//! — it exploits the near-future structure of the paper's model for
//! amortized `O(1)` scheduling — and the heap remains available for
//! differential testing and for workloads with pathological time
//! distributions. The packet engine in `hyperroute-core` reads the same
//! [`SchedulerKind`] but keeps its own completion list (see the variant
//! docs).

use crate::calendar::CalendarQueue;
use crate::events::EventQueue;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Which future-event-list implementation a simulator drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SchedulerKind {
    /// Binary min-heap keyed on `(time, seq)` — `O(log n)` per operation,
    /// insensitive to the event-time distribution. The reference backend:
    /// the packet engine's completion list and the equivalent network's
    /// future-event list are both this heap.
    Heap,
    /// The fast backend. The packet engine keeps its unit-service
    /// completions in a FIFO (their push times never decrease); the
    /// equivalent network uses the bucketed calendar queue / time wheel —
    /// amortized `O(1)` per operation.
    #[default]
    Calendar,
}

impl SchedulerKind {
    /// Lower-case name (`heap`, `calendar`), also the [`Display`](std::fmt::Display) form.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Heap => "heap",
            SchedulerKind::Calendar => "calendar",
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A future-event list with a runtime-selected backend.
///
/// The enum dispatch is a predictable two-way branch; the queue operations
/// behind it dominate, so no generic plumbing through the simulators is
/// needed.
pub enum Scheduler<E: Clone> {
    /// Heap-backed.
    Heap(EventQueue<E>),
    /// Calendar-backed.
    Calendar(CalendarQueue<E>),
}

impl<E: Clone> Scheduler<E> {
    /// Build the chosen backend. `events_per_unit` sizes the calendar's
    /// buckets (ignored by the heap); correctness never depends on it.
    pub fn new(kind: SchedulerKind, events_per_unit: f64) -> Scheduler<E> {
        match kind {
            SchedulerKind::Heap => Scheduler::Heap(EventQueue::new()),
            SchedulerKind::Calendar => {
                Scheduler::Calendar(CalendarQueue::with_rate_hint(events_per_unit))
            }
        }
    }

    /// Which backend this is.
    pub fn kind(&self) -> SchedulerKind {
        match self {
            Scheduler::Heap(_) => SchedulerKind::Heap,
            Scheduler::Calendar(_) => SchedulerKind::Calendar,
        }
    }

    /// Schedule `payload` at `time` (debug builds validate the time).
    #[inline]
    pub fn push(&mut self, time: SimTime, payload: E) {
        match self {
            Scheduler::Heap(q) => q.push(time, payload),
            Scheduler::Calendar(q) => q.push(time, payload),
        }
    }

    /// Pop the earliest event (ties: insertion order).
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match self {
            Scheduler::Heap(q) => q.pop(),
            Scheduler::Calendar(q) => q.pop(),
        }
    }

    /// Time of the next event without removing it.
    #[inline]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        match self {
            Scheduler::Heap(q) => q.peek_time(),
            Scheduler::Calendar(q) => q.peek_time(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match self {
            Scheduler::Heap(q) => q.len(),
            Scheduler::Calendar(q) => q.len(),
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled.
    pub fn scheduled_total(&self) -> u64 {
        match self {
            Scheduler::Heap(q) => q.scheduled_total(),
            Scheduler::Calendar(q) => q.scheduled_total(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_kind_is_calendar() {
        assert_eq!(SchedulerKind::default(), SchedulerKind::Calendar);
        assert_ne!(SchedulerKind::Heap.name(), SchedulerKind::Calendar.name());
    }

    #[test]
    fn both_backends_agree_on_simple_stream() {
        let mut heap = Scheduler::new(SchedulerKind::Heap, 8.0);
        let mut cal = Scheduler::new(SchedulerKind::Calendar, 8.0);
        assert_eq!(heap.kind(), SchedulerKind::Heap);
        assert_eq!(cal.kind(), SchedulerKind::Calendar);
        for (t, v) in [(2.5, 1), (0.25, 2), (2.5, 3), (7.0, 4), (0.25, 5)] {
            heap.push(t, v);
            cal.push(t, v);
        }
        assert_eq!(heap.len(), cal.len());
        assert_eq!(heap.peek_time(), cal.peek_time());
        for _ in 0..5 {
            assert_eq!(heap.pop(), cal.pop());
        }
        assert!(heap.is_empty() && cal.is_empty());
        assert_eq!(heap.scheduled_total(), 5);
        assert_eq!(cal.scheduled_total(), 5);
    }
}
