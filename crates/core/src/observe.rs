//! Streaming observation of running simulations.
//!
//! Every simulator's event loop is generic over an [`Observer`]: a
//! zero-cost hook that sees the simulation clock and the number-in-system
//! signal *before* each event is processed, plus every packet delivery.
//! [`NullObserver`] (the plain `run()` path) compiles away entirely, so an
//! unobserved run is exactly as fast — and consumes exactly the same
//! random draws, making reports bit-identical — as it was before this API
//! existed.
//!
//! Probes are composable: tuples of observers are observers, so
//! `(&mut series, &mut telemetry)` threads two probes through one run.
//! The one probe here is [`TimeSeriesProbe`], the `(t, N(t))`
//! trajectory at a fixed sampling interval. Per-arc occupancy, delay
//! histograms and hop traces come from the `hyperroute-telemetry`
//! crate's `TelemetryProbe` and `FlightRecorder`.

/// A streaming hook into a simulation run.
///
/// Both methods default to no-ops so probes implement only what they
/// need. Implementations must not assume anything about call frequency
/// beyond the documented points: [`Observer::on_event`] fires once per
/// scheduler pop (before the event is applied), [`Observer::on_delivered`]
/// once per delivered packet.
pub trait Observer {
    /// The simulation clock reached `t`; `in_system` packets are in
    /// flight (generated, not yet delivered). Called before the event at
    /// `t` is applied.
    #[inline]
    fn on_event(&mut self, t: f64, in_system: f64) {
        let _ = (t, in_system);
    }

    /// A packet born at `born` was delivered at `t`.
    #[inline]
    fn on_delivered(&mut self, t: f64, born: f64) {
        let _ = (t, born);
    }

    /// A packet was generated at `t` on `source`. `packet_id` is the
    /// engine's birth-sequence number (0, 1, 2, …) — or
    /// [`NO_TRACE`](crate::engine::NO_TRACE) when the spec's packet
    /// representation does not carry a trace id (the packet then stays
    /// anonymous at every later hook).
    #[inline]
    fn on_generated(&mut self, t: f64, packet_id: u64, source: u32) {
        let _ = (t, packet_id, source);
    }

    /// Packet `packet_id` was enqueued at `t` on `arc` out of `node`.
    /// `queue_depth` counts the packets occupying the arc *after* this one
    /// joined, including the one in service (so an uncontended hop reports
    /// depth 1).
    #[inline]
    fn on_hop(&mut self, t: f64, packet_id: u64, node: u32, arc: u32, queue_depth: u32) {
        let _ = (t, packet_id, node, arc, queue_depth);
    }

    /// The hop just reported via [`Observer::on_hop`] was taken in escape
    /// mode (the GOAFR-style fallback walk out of a greedy local minimum).
    /// Fires immediately after the matching `on_hop`, never alone.
    #[inline]
    fn on_escape_hop(&mut self, t: f64, packet_id: u64, node: u32) {
        let _ = (t, packet_id, node);
    }

    /// Packet `packet_id` was dropped at `t` at `node` (fault-mask
    /// workloads with no live fallback arc).
    #[inline]
    fn on_drop(&mut self, t: f64, packet_id: u64, node: u32) {
        let _ = (t, packet_id, node);
    }

    /// A service completed at `t` on `arc`; `queue_depth` counts the
    /// packets still occupying the arc after the completed one left
    /// (including any successor already in service).
    #[inline]
    fn on_service_end(&mut self, t: f64, arc: u32, queue_depth: u32) {
        let _ = (t, arc, queue_depth);
    }

    /// Packet `packet_id`, born at `born`, was delivered at `t` after
    /// `hops` arc crossings, `deflections` of them non-greedy (fallback
    /// detours / escape hops). Fires alongside — not instead of —
    /// [`Observer::on_delivered`].
    #[inline]
    fn on_packet_delivered(
        &mut self,
        t: f64,
        packet_id: u64,
        born: f64,
        hops: u16,
        deflections: u16,
    ) {
        let _ = (t, packet_id, born, hops, deflections);
    }
}

/// The do-nothing observer driving plain `run()`; optimises away.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

impl<O: Observer + ?Sized> Observer for &mut O {
    #[inline]
    fn on_event(&mut self, t: f64, in_system: f64) {
        (**self).on_event(t, in_system);
    }

    #[inline]
    fn on_delivered(&mut self, t: f64, born: f64) {
        (**self).on_delivered(t, born);
    }

    #[inline]
    fn on_generated(&mut self, t: f64, packet_id: u64, source: u32) {
        (**self).on_generated(t, packet_id, source);
    }

    #[inline]
    fn on_hop(&mut self, t: f64, packet_id: u64, node: u32, arc: u32, queue_depth: u32) {
        (**self).on_hop(t, packet_id, node, arc, queue_depth);
    }

    #[inline]
    fn on_escape_hop(&mut self, t: f64, packet_id: u64, node: u32) {
        (**self).on_escape_hop(t, packet_id, node);
    }

    #[inline]
    fn on_drop(&mut self, t: f64, packet_id: u64, node: u32) {
        (**self).on_drop(t, packet_id, node);
    }

    #[inline]
    fn on_service_end(&mut self, t: f64, arc: u32, queue_depth: u32) {
        (**self).on_service_end(t, arc, queue_depth);
    }

    #[inline]
    fn on_packet_delivered(
        &mut self,
        t: f64,
        packet_id: u64,
        born: f64,
        hops: u16,
        deflections: u16,
    ) {
        (**self).on_packet_delivered(t, packet_id, born, hops, deflections);
    }
}

impl<A: Observer, B: Observer> Observer for (A, B) {
    #[inline]
    fn on_event(&mut self, t: f64, in_system: f64) {
        self.0.on_event(t, in_system);
        self.1.on_event(t, in_system);
    }

    #[inline]
    fn on_delivered(&mut self, t: f64, born: f64) {
        self.0.on_delivered(t, born);
        self.1.on_delivered(t, born);
    }

    #[inline]
    fn on_generated(&mut self, t: f64, packet_id: u64, source: u32) {
        self.0.on_generated(t, packet_id, source);
        self.1.on_generated(t, packet_id, source);
    }

    #[inline]
    fn on_hop(&mut self, t: f64, packet_id: u64, node: u32, arc: u32, queue_depth: u32) {
        self.0.on_hop(t, packet_id, node, arc, queue_depth);
        self.1.on_hop(t, packet_id, node, arc, queue_depth);
    }

    #[inline]
    fn on_escape_hop(&mut self, t: f64, packet_id: u64, node: u32) {
        self.0.on_escape_hop(t, packet_id, node);
        self.1.on_escape_hop(t, packet_id, node);
    }

    #[inline]
    fn on_drop(&mut self, t: f64, packet_id: u64, node: u32) {
        self.0.on_drop(t, packet_id, node);
        self.1.on_drop(t, packet_id, node);
    }

    #[inline]
    fn on_service_end(&mut self, t: f64, arc: u32, queue_depth: u32) {
        self.0.on_service_end(t, arc, queue_depth);
        self.1.on_service_end(t, arc, queue_depth);
    }

    #[inline]
    fn on_packet_delivered(
        &mut self,
        t: f64,
        packet_id: u64,
        born: f64,
        hops: u16,
        deflections: u16,
    ) {
        self.0
            .on_packet_delivered(t, packet_id, born, hops, deflections);
        self.1
            .on_packet_delivered(t, packet_id, born, hops, deflections);
    }
}

/// Samples `(t, N(t))` every `interval` time units up to `horizon`.
///
/// Sample points sit on the fixed grid `interval, 2·interval, …` (capped
/// at the horizon), and each sample reads the state *before* the first
/// event at or past the sample time.
#[derive(Clone, Debug)]
pub struct TimeSeriesProbe {
    interval: f64,
    horizon: f64,
    next: f64,
    /// The collected `(time, number-in-system)` samples.
    pub samples: Vec<(f64, f64)>,
}

impl TimeSeriesProbe {
    /// Probe sampling every `interval` (> 0) until `horizon`.
    pub fn new(interval: f64, horizon: f64) -> TimeSeriesProbe {
        assert!(interval > 0.0, "sampling interval must be positive");
        TimeSeriesProbe {
            interval,
            horizon,
            next: interval,
            samples: Vec::new(),
        }
    }

    /// The samples, consuming the probe.
    pub fn into_samples(self) -> Vec<(f64, f64)> {
        self.samples
    }
}

impl Observer for TimeSeriesProbe {
    #[inline]
    fn on_event(&mut self, t: f64, in_system: f64) {
        while self.next <= t && self.next <= self.horizon {
            self.samples.push((self.next, in_system));
            self.next += self.interval;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_is_inert() {
        let mut o = NullObserver;
        o.on_event(1.0, 2.0);
        o.on_delivered(3.0, 1.0);
    }

    #[test]
    fn time_series_probe_grid() {
        let mut p = TimeSeriesProbe::new(10.0, 100.0);
        // Events at t = 5 (no sample yet), 25 (samples at 10 and 20), …
        p.on_event(5.0, 1.0);
        assert!(p.samples.is_empty());
        p.on_event(25.0, 3.0);
        assert_eq!(p.samples, vec![(10.0, 3.0), (20.0, 3.0)]);
        // Samples never pass the horizon.
        p.on_event(500.0, 7.0);
        assert_eq!(p.samples.len(), 10);
        assert_eq!(p.samples.last().unwrap().0, 100.0);
    }

    #[test]
    fn tuple_observer_fans_out() {
        let mut pair = (
            TimeSeriesProbe::new(1.0, 10.0),
            TimeSeriesProbe::new(2.0, 10.0),
        );
        pair.on_event(4.5, 2.0);
        assert_eq!(pair.0.samples.len(), 4);
        assert_eq!(pair.1.samples.len(), 2);
    }
}
