//! The scheduler kind a scenario names (`run.scheduler`).
//!
//! Both kinds pop events in exactly the same `(time, insertion-seq)`
//! order, so a simulation is a bit-identical deterministic function of
//! its seed under either. Only the packet engine in `hyperroute-core`
//! has two completion lists to choose between (see the variant docs);
//! every other future-event list in the workspace is the
//! [`EventQueue`](crate::EventQueue) heap.

use serde::{Deserialize, Serialize};

/// Which completion list the packet engine drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SchedulerKind {
    /// Binary min-heap keyed on `(time, seq)` — `O(log n)` per operation,
    /// insensitive to the event-time distribution. The reference the
    /// differential tests compare the engine's FIFO against.
    Heap,
    /// The fast backend: the packet engine keeps its unit-service
    /// completions in a FIFO (their push times never decrease). The
    /// equivalent network runs the heap under either kind. Scenario
    /// files and cache keys spell this variant `Calendar`, so the name
    /// stays.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_kind_is_calendar() {
        assert_eq!(SchedulerKind::default(), SchedulerKind::Calendar);
        assert_ne!(SchedulerKind::Heap.name(), SchedulerKind::Calendar.name());
    }
}
