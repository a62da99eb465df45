//! Flight recorder and telemetry probes: hop-level tracing and
//! log-bucketed distributions over any `hyperroute-core` run, with zero
//! effect on the simulation.
//!
//! Both observers in this crate ride the [`Observer`] hop hooks the
//! engines fire on every enqueue, service completion, drop and
//! delivery. Neither touches the run's random draws, so a traced run
//! produces a **byte-identical** [`Report`] to an untraced one — the
//! determinism contract the corpus gate enforces. Telemetry is attached
//! to the report *after* the run ([`TelemetryProbe::attach`]), as the
//! opt-in `telemetry` key; unobserved reports simply omit it.
//!
//! # The two probes
//!
//! [`FlightRecorder`] captures the full hop path (time, node, arc,
//! queue depth, escape flag) of a **deterministically sampled** subset
//! of packets. Sampling hashes the engine-assigned packet id against
//! its own seed — independent of the run RNG, so the same `(seed,
//! rate)` picks the same packets on every rerun. Finished traces live
//! in a bounded ring buffer and export as NDJSON
//! ([`FlightRecorder::to_ndjson`]) or as a `chrome://tracing` /
//! [Perfetto](https://ui.perfetto.dev) JSON file
//! ([`FlightRecorder::to_chrome_trace`], one track per packet).
//!
//! [`TelemetryProbe`] aggregates instead of recording: power-of-two
//! log histograms of per-packet delay, per-hop queue wait, paid
//! deflections and escape-walk lengths, plus per-arc occupancy-time
//! integrals and peak queue depths — the
//! [`hyperroute_core::telemetry::TelemetryExt`] report extension.
//!
//! Run both at once with the tuple observer:
//!
//! ```
//! use hyperroute_core::scenario::{Scenario, Topology};
//! use hyperroute_telemetry::{FlightRecorder, TelemetryProbe};
//!
//! let scenario = Scenario::builder(Topology::Hypercube { dim: 4 })
//!     .lambda(1.0).p(0.5).horizon(200.0).warmup(50.0).seed(7)
//!     .build().expect("valid scenario");
//! let mut tap = (
//!     FlightRecorder::new(0xF11847, 0.05, 1024),
//!     TelemetryProbe::new(),
//! );
//! let mut report = scenario.run_observed(&mut tap).expect("runs");
//! assert_eq!(report, scenario.run().expect("rerun")); // byte-identical
//! let (recorder, probe) = tap;
//! probe.attach(&mut report); // now report.telemetry is Some(..)
//! let ndjson = recorder.to_ndjson();
//! assert!(report.telemetry.is_some() && ndjson.lines().count() > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::collections::VecDeque;

use hyperroute_core::engine::NO_TRACE;
use hyperroute_core::observe::Observer;
use hyperroute_core::scenario::Report;
use hyperroute_core::telemetry::{ArcTelemetry, LogHistogram, TelemetryExt};
use hyperroute_desim::splitmix64;
use serde::Serialize;

/// The id the engines report for packets whose layout carries no trace
/// id (e.g. the butterfly's packed packet): such packets are never
/// sampled and never tracked per-packet.
const ANONYMOUS: u64 = NO_TRACE as u64;

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

/// One hop of a recorded packet: where it queued, when, and behind how
/// many others.
#[derive(Clone, Debug, Serialize)]
pub struct HopRecord {
    /// Time the packet joined the arc queue.
    pub t: f64,
    /// Node the packet departed from.
    pub node: u32,
    /// Dense arc index it queued on.
    pub arc: u32,
    /// Packets occupying the arc after this one joined (1 = uncontended).
    pub queue_depth: u32,
    /// Whether this hop was taken in escape (recovery-walk) mode.
    pub escape: bool,
}

/// How a recorded packet's journey ended.
#[derive(Clone, Debug, Serialize)]
pub enum TraceEnd {
    /// Delivered at `t` after `hops` hops, `deflections` of them paid.
    Delivered {
        /// Delivery time.
        t: f64,
        /// Total hops taken.
        hops: u16,
        /// Paid (non-improving) deflections en route.
        deflections: u16,
    },
    /// Dropped at node `node` at time `t` (dead arc or routing failure).
    Dropped {
        /// Drop time.
        t: f64,
        /// Node where the packet was dropped.
        node: u32,
    },
}

/// The full recorded journey of one sampled packet.
#[derive(Clone, Debug, Serialize)]
pub struct TraceRecord {
    /// Engine-assigned packet id (birth-sequence number).
    pub id: u64,
    /// Node the packet was generated at.
    pub source: u32,
    /// Generation time.
    pub born: f64,
    /// Every hop, in order.
    pub hops: Vec<HopRecord>,
    /// The journey's end, or `None` if the packet was still in flight
    /// when the recorder was sealed.
    pub end: Option<TraceEnd>,
}

/// Hop-level tracer for a deterministically sampled subset of packets.
///
/// Sampling is a pure function of the recorder's own seed and the
/// engine-assigned packet id (`splitmix64(seed ^ id) < rate·2^64`), so
/// it consumes none of the run's randomness: attaching a recorder
/// never changes the report, and the same seed re-picks the same
/// packets on a rerun. Finished traces are kept in a bounded ring —
/// when full, the oldest trace is evicted (counted in
/// [`FlightRecorder::evicted`]).
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    seed: u64,
    threshold: u64,
    capacity: usize,
    active: HashMap<u64, TraceRecord>,
    completed: VecDeque<TraceRecord>,
    evicted: u64,
}

impl FlightRecorder {
    /// Recorder sampling roughly `rate` of all packets (clamped to
    /// `[0, 1]`), keeping at most `capacity` finished traces.
    pub fn new(seed: u64, rate: f64, capacity: usize) -> FlightRecorder {
        let threshold = if rate >= 1.0 {
            u64::MAX
        } else if rate > 0.0 {
            (rate * 18_446_744_073_709_551_616.0) as u64
        } else {
            0
        };
        FlightRecorder {
            seed,
            threshold,
            capacity: capacity.max(1),
            active: HashMap::new(),
            completed: VecDeque::new(),
            evicted: 0,
        }
    }

    /// Whether packet `id` is in the recorded sample.
    #[inline]
    fn sampled(&self, id: u64) -> bool {
        id != ANONYMOUS
            && (self.threshold == u64::MAX || splitmix64(self.seed ^ id) < self.threshold)
    }

    fn finish(&mut self, id: u64, end: TraceEnd) {
        if let Some(mut rec) = self.active.remove(&id) {
            rec.end = Some(end);
            if self.completed.len() == self.capacity {
                self.completed.pop_front();
                self.evicted += 1;
            }
            self.completed.push_back(rec);
        }
    }

    /// Move still-in-flight traces (drained runs leave none) into the
    /// finished ring with `end: None`, ordered by packet id so sealed
    /// output is deterministic. Call once after the run.
    pub fn seal(&mut self) {
        let mut leftovers: Vec<TraceRecord> = self.active.drain().map(|(_, rec)| rec).collect();
        leftovers.sort_by_key(|rec| rec.id);
        for rec in leftovers {
            if self.completed.len() == self.capacity {
                self.completed.pop_front();
                self.evicted += 1;
            }
            self.completed.push_back(rec);
        }
    }

    /// Finished traces, oldest first (completion order).
    pub fn traces(&self) -> impl Iterator<Item = &TraceRecord> {
        self.completed.iter()
    }

    /// Number of finished traces currently held.
    pub fn len(&self) -> usize {
        self.completed.len()
    }

    /// Whether no trace has finished yet.
    pub fn is_empty(&self) -> bool {
        self.completed.is_empty()
    }

    /// Finished traces evicted from the full ring.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Export the finished traces as NDJSON: one self-contained JSON
    /// object per line, in completion order. Stable across reruns of
    /// the same scenario — the golden-trace test byte-compares it.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for rec in &self.completed {
            out.push_str(&serde_json::to_string(rec).expect("traces always serialise"));
            out.push('\n');
        }
        out
    }

    /// Export the finished traces as a `chrome://tracing` / Perfetto
    /// JSON object. Each packet becomes one track (`tid` = packet id);
    /// each hop a 1-time-unit `"X"` slice at its queue-join time;
    /// drops an instant event. Simulated time maps to microseconds.
    /// Events are globally sorted by timestamp.
    pub fn to_chrome_trace(&self) -> String {
        const US: f64 = 1_000_000.0; // one sim time unit → 1 s on screen
        let mut events: Vec<ChromeEvent> = Vec::new();
        for rec in &self.completed {
            for hop in &rec.hops {
                events.push(ChromeEvent {
                    name: if hop.escape { "escape-hop" } else { "hop" },
                    cat: "packet",
                    ph: "X",
                    ts: hop.t * US,
                    dur: Some(US),
                    pid: 0,
                    tid: rec.id,
                    args: ChromeArgs {
                        node: Some(hop.node),
                        arc: Some(hop.arc),
                        queue_depth: Some(hop.queue_depth),
                    },
                });
            }
            if let Some(TraceEnd::Dropped { t, node }) = rec.end {
                events.push(ChromeEvent {
                    name: "dropped",
                    cat: "packet",
                    ph: "i",
                    ts: t * US,
                    dur: None,
                    pid: 0,
                    tid: rec.id,
                    args: ChromeArgs {
                        node: Some(node),
                        arc: None,
                        queue_depth: None,
                    },
                });
            }
        }
        events.sort_by(|a, b| a.ts.total_cmp(&b.ts).then(a.tid.cmp(&b.tid)));
        let doc = ChromeTrace {
            trace_events: events,
            display_time_unit: "ms",
        };
        serde_json::to_string(&doc).expect("trace always serialises")
    }
}

impl Observer for FlightRecorder {
    fn on_generated(&mut self, t: f64, packet_id: u64, source: u32) {
        if self.sampled(packet_id) {
            self.active.insert(
                packet_id,
                TraceRecord {
                    id: packet_id,
                    source,
                    born: t,
                    hops: Vec::new(),
                    end: None,
                },
            );
        }
    }

    fn on_hop(&mut self, t: f64, packet_id: u64, node: u32, arc: u32, queue_depth: u32) {
        if let Some(rec) = self.active.get_mut(&packet_id) {
            rec.hops.push(HopRecord {
                t,
                node,
                arc,
                queue_depth,
                escape: false,
            });
        }
    }

    fn on_escape_hop(&mut self, _t: f64, packet_id: u64, _node: u32) {
        if let Some(rec) = self.active.get_mut(&packet_id) {
            if let Some(hop) = rec.hops.last_mut() {
                hop.escape = true;
            }
        }
    }

    fn on_drop(&mut self, t: f64, packet_id: u64, node: u32) {
        self.finish(packet_id, TraceEnd::Dropped { t, node });
    }

    fn on_packet_delivered(
        &mut self,
        t: f64,
        packet_id: u64,
        _born: f64,
        hops: u16,
        deflections: u16,
    ) {
        self.finish(
            packet_id,
            TraceEnd::Delivered {
                t,
                hops,
                deflections,
            },
        );
    }
}

/// One event of the Chrome trace-event JSON format.
#[derive(Serialize)]
struct ChromeEvent {
    name: &'static str,
    cat: &'static str,
    ph: &'static str,
    ts: f64,
    #[serde(skip_serializing_if = "Option::is_none")]
    dur: Option<f64>,
    pid: u32,
    tid: u64,
    args: ChromeArgs,
}

#[derive(Serialize)]
struct ChromeArgs {
    #[serde(skip_serializing_if = "Option::is_none")]
    node: Option<u32>,
    #[serde(skip_serializing_if = "Option::is_none")]
    arc: Option<u32>,
    #[serde(skip_serializing_if = "Option::is_none")]
    queue_depth: Option<u32>,
}

/// The top-level Chrome trace document (`traceEvents` key is the
/// format's required camelCase name, so it is spelled out manually).
struct ChromeTrace {
    trace_events: Vec<ChromeEvent>,
    display_time_unit: &'static str,
}

impl Serialize for ChromeTrace {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            (
                "traceEvents".to_string(),
                serde::Value::Array(self.trace_events.iter().map(|e| e.to_value()).collect()),
            ),
            (
                "displayTimeUnit".to_string(),
                serde::Value::String(self.display_time_unit.to_string()),
            ),
        ])
    }
}

// ---------------------------------------------------------------------
// Telemetry probe
// ---------------------------------------------------------------------

/// Per-packet bookkeeping for the wait/escape derivations.
#[derive(Clone, Copy, Debug)]
struct PacketTrack {
    /// Queue-join time of the packet's most recent hop.
    last_hop_t: f64,
    /// Length of the escape walk in progress (0 = not walking).
    escape_run: u32,
    /// Whether the most recent hop was an escape hop.
    last_was_escape: bool,
}

/// Aggregating observer that builds a
/// [`TelemetryExt`] report extension: log histograms
/// of delay, queue wait, deflections and escape-walk lengths, plus
/// per-arc occupancy-time integrals and peak depths.
///
/// Queue waits are derived, not measured: service takes exactly one
/// time unit, so a packet that joined an arc queue at `t₀` and reached
/// its next queue (or its destination) at `t₁` waited `t₁ − t₀ − 1`.
/// Per-packet derivations are skipped for packet layouts without trace
/// ids (the butterfly); per-arc and delay telemetry covers every run.
#[derive(Clone, Debug)]
pub struct TelemetryProbe {
    delay: LogHistogram,
    queue_wait: LogHistogram,
    deflections: LogHistogram,
    escape_walks: LogHistogram,
    tracks: HashMap<u64, PacketTrack>,
    /// Per-arc `∫ depth dt` accumulated so far.
    occupancy_time: Vec<f64>,
    /// Per-arc time of the last depth change.
    last_event: Vec<f64>,
    /// Per-arc current depth (waiting + in service).
    depth: Vec<u32>,
    /// Per-arc peak depth.
    peak: Vec<u32>,
}

impl TelemetryProbe {
    /// Fresh probe with empty histograms.
    pub fn new() -> TelemetryProbe {
        TelemetryProbe {
            delay: LogHistogram::for_times(),
            queue_wait: LogHistogram::for_times(),
            deflections: LogHistogram::for_counts(),
            escape_walks: LogHistogram::for_counts(),
            tracks: HashMap::new(),
            occupancy_time: Vec::new(),
            last_event: Vec::new(),
            depth: Vec::new(),
            peak: Vec::new(),
        }
    }

    fn ensure_arc(&mut self, arc: usize) {
        if arc >= self.depth.len() {
            self.occupancy_time.resize(arc + 1, 0.0);
            self.last_event.resize(arc + 1, 0.0);
            self.depth.resize(arc + 1, 0);
            self.peak.resize(arc + 1, 0);
        }
    }

    /// Advance arc `arc` to time `t` at its current depth, then switch
    /// it to `depth`.
    fn set_depth(&mut self, t: f64, arc: usize, depth: u32) {
        self.ensure_arc(arc);
        self.occupancy_time[arc] += f64::from(self.depth[arc]) * (t - self.last_event[arc]);
        self.last_event[arc] = t;
        self.depth[arc] = depth;
        self.peak[arc] = self.peak[arc].max(depth);
    }

    /// Consume the probe into the report extension it accumulated.
    pub fn into_ext(self) -> TelemetryExt {
        TelemetryExt {
            delay: self.delay,
            queue_wait: self.queue_wait,
            deflections: self.deflections,
            escape_walks: self.escape_walks,
            arcs: ArcTelemetry {
                occupancy_time: self.occupancy_time,
                peak_depth: self.peak,
            },
        }
    }

    /// Attach the accumulated telemetry to a finished report (the
    /// opt-in `telemetry` key; the report body is untouched).
    pub fn attach(self, report: &mut Report) {
        report.telemetry = Some(Box::new(self.into_ext()));
    }
}

impl Default for TelemetryProbe {
    fn default() -> TelemetryProbe {
        TelemetryProbe::new()
    }
}

impl Observer for TelemetryProbe {
    fn on_delivered(&mut self, t: f64, born: f64) {
        self.delay.record(t - born);
    }

    fn on_hop(&mut self, t: f64, packet_id: u64, _node: u32, arc: u32, queue_depth: u32) {
        self.set_depth(t, arc as usize, queue_depth);
        if packet_id == ANONYMOUS {
            return;
        }
        match self.tracks.get_mut(&packet_id) {
            Some(track) => {
                self.queue_wait.record(t - track.last_hop_t - 1.0);
                // A non-escape hop after an active walk ends the walk.
                if !track.last_was_escape && track.escape_run > 0 {
                    let run = track.escape_run;
                    track.escape_run = 0;
                    self.escape_walks.record(f64::from(run));
                }
                track.last_hop_t = t;
                track.last_was_escape = false;
            }
            None => {
                self.tracks.insert(
                    packet_id,
                    PacketTrack {
                        last_hop_t: t,
                        escape_run: 0,
                        last_was_escape: false,
                    },
                );
            }
        }
    }

    fn on_escape_hop(&mut self, _t: f64, packet_id: u64, _node: u32) {
        if let Some(track) = self.tracks.get_mut(&packet_id) {
            track.escape_run += 1;
            track.last_was_escape = true;
        }
    }

    fn on_service_end(&mut self, t: f64, arc: u32, queue_depth: u32) {
        self.set_depth(t, arc as usize, queue_depth);
    }

    fn on_drop(&mut self, t: f64, packet_id: u64, _node: u32) {
        if let Some(track) = self.tracks.remove(&packet_id) {
            self.queue_wait.record(t - track.last_hop_t - 1.0);
            if track.escape_run > 0 {
                self.escape_walks.record(f64::from(track.escape_run));
            }
        }
    }

    fn on_packet_delivered(
        &mut self,
        t: f64,
        packet_id: u64,
        _born: f64,
        _hops: u16,
        deflections: u16,
    ) {
        self.deflections.record(f64::from(deflections));
        if let Some(track) = self.tracks.remove(&packet_id) {
            self.queue_wait.record(t - track.last_hop_t - 1.0);
            if track.escape_run > 0 {
                self.escape_walks.record(f64::from(track.escape_run));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperroute_core::config::{FaultFallback, FaultMode, FaultSpec};
    use hyperroute_core::scenario::{Scenario, Topology};

    fn small_scenario(seed: u64) -> Scenario {
        Scenario::builder(Topology::Hypercube { dim: 4 })
            .lambda(1.2)
            .p(0.5)
            .horizon(300.0)
            .warmup(50.0)
            .seed(seed)
            .build()
            .expect("valid scenario")
    }

    #[test]
    fn recorder_never_changes_the_report() {
        let s = small_scenario(11);
        let baseline = s.run().expect("baseline");
        let mut tap = (FlightRecorder::new(1, 0.25, 256), TelemetryProbe::new());
        let observed = s.run_observed(&mut tap).expect("observed");
        assert_eq!(baseline, observed);
        assert_eq!(
            serde_json::to_string(&baseline).unwrap(),
            serde_json::to_string(&observed).unwrap(),
        );
    }

    #[test]
    fn sampling_is_a_pure_function_of_seed_and_id() {
        let s = small_scenario(12);
        let run = |seed: u64| {
            let mut rec = FlightRecorder::new(seed, 0.2, 4096);
            s.run_observed(&mut rec).expect("runs");
            rec.seal();
            rec.to_ndjson()
        };
        assert_eq!(run(42), run(42), "same recorder seed, same traces");
        assert_ne!(run(42), run(43), "recorder seed selects the sample");
    }

    #[test]
    fn traces_are_contiguous_unit_service_journeys() {
        let s = small_scenario(13);
        let mut rec = FlightRecorder::new(7, 1.0, 1 << 16);
        let report = s.run_observed(&mut rec).expect("runs");
        rec.seal();
        assert_eq!(rec.len() as u64 + rec.evicted(), report.generated);
        let mut delivered_with_hops = 0;
        for trace in rec.traces() {
            // Hops are time-ordered, each separated by at least the
            // unit service time of the previous hop.
            for pair in trace.hops.windows(2) {
                assert!(
                    pair[1].t >= pair[0].t + 1.0,
                    "hop at {} follows hop at {}",
                    pair[1].t,
                    pair[0].t
                );
            }
            match trace.end {
                Some(TraceEnd::Delivered { t, hops, .. }) => {
                    assert_eq!(usize::from(hops), trace.hops.len());
                    if let Some(last) = trace.hops.last() {
                        assert!(t >= last.t + 1.0);
                        delivered_with_hops += 1;
                    }
                }
                Some(TraceEnd::Dropped { .. }) => {}
                None => panic!("drained hypercube run left an open trace"),
            }
        }
        assert!(delivered_with_hops > 0, "no multi-hop deliveries traced");
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let s = small_scenario(14);
        let mut rec = FlightRecorder::new(7, 1.0, 8);
        let report = s.run_observed(&mut rec).expect("runs");
        assert_eq!(rec.len(), 8);
        assert_eq!(rec.evicted(), report.generated - 8);
        // Survivors are the most recently finished traces.
        let ids: Vec<u64> = rec.traces().map(|t| t.id).collect();
        assert_eq!(ids.len(), 8);
    }

    #[test]
    fn chrome_trace_is_valid_and_monotone() {
        let s = small_scenario(15);
        let mut rec = FlightRecorder::new(3, 0.5, 1 << 12);
        s.run_observed(&mut rec).expect("runs");
        let json = rec.to_chrome_trace();
        let doc = serde_json::parse(&json).expect("chrome trace parses");
        let events = match doc.get("traceEvents") {
            Some(serde::Value::Array(events)) => events,
            other => panic!("traceEvents missing or not an array: {other:?}"),
        };
        assert!(!events.is_empty());
        let mut last_ts = f64::NEG_INFINITY;
        for ev in events {
            let ts = match ev.get("ts") {
                Some(serde::Value::F64(x)) => *x,
                Some(serde::Value::U64(x)) => *x as f64,
                other => panic!("event without numeric ts: {other:?}"),
            };
            assert!(ts >= last_ts, "timestamps not monotone: {ts} < {last_ts}");
            assert!(ts.is_finite());
            last_ts = ts;
            for key in ["name", "ph", "pid", "tid"] {
                assert!(ev.get(key).is_some(), "event missing {key}");
            }
        }
    }

    #[test]
    fn probe_histograms_match_report_aggregates() {
        let s = small_scenario(16);
        let mut probe = TelemetryProbe::new();
        let mut report = s.run_observed(&mut probe).expect("runs");
        probe.attach(&mut report);
        let ext = report.telemetry.as_ref().expect("attached");
        // Every delivery recorded one delay sample.
        assert_eq!(ext.delay.count, report.delivered);
        // Greedy hypercube routing never deflects or escapes.
        assert_eq!(ext.deflections.counts, vec![ext.deflections.count]);
        assert_eq!(ext.escape_walks.count, 0);
        // Waits are non-negative (unit service, conservative queues)
        // and peaks reach at least the busiest uncontended depth.
        assert!(ext.queue_wait.min >= -1e-9);
        assert!(ext.arcs.peak_depth.iter().any(|&p| p >= 1));
        // Occupancy integrals are finite and non-negative.
        assert!(ext
            .arcs
            .occupancy_time
            .iter()
            .all(|&x| x.is_finite() && x >= -1e-9));
    }

    #[test]
    fn default_and_new_build_identical_telemetry() {
        let s = small_scenario(18);
        let ext = |mut probe: TelemetryProbe| {
            s.run_observed(&mut probe).expect("runs");
            probe.into_ext()
        };
        let from_default = ext(TelemetryProbe::default());
        let from_new = ext(TelemetryProbe::new());
        assert_eq!(from_default.delay.least, LogHistogram::for_times().least);
        assert_eq!(
            serde_json::to_string(&from_default).unwrap(),
            serde_json::to_string(&from_new).unwrap()
        );
    }

    #[test]
    fn attached_telemetry_round_trips_and_baseline_stays_clean() {
        let s = small_scenario(17);
        let mut probe = TelemetryProbe::new();
        let mut report = s.run_observed(&mut probe).expect("runs");
        let plain = serde_json::to_string(&report).unwrap();
        assert!(
            !plain.contains("telemetry"),
            "unattached report must not mention telemetry"
        );
        probe.attach(&mut report);
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"telemetry\""));
        let back: Report = serde_json::from_str(&json).expect("parses");
        assert_eq!(report, back);
    }

    #[test]
    fn escape_walks_are_recorded_under_the_escape_fallback() {
        // A 30%-dead torus under `Escape` pays recovery walks; the
        // probe must see them, and their total length must agree with
        // the per-delivery deflection counter.
        let mut s = Scenario::builder(Topology::Torus { radix: 5, dim: 2 })
            .lambda(0.3)
            .horizon(2_000.0)
            .warmup(400.0)
            .seed(21)
            .build()
            .expect("valid scenario");
        s.workload.faults = Some(FaultSpec {
            mode: FaultMode::Seeded {
                fraction: 0.3,
                seed: 4,
            },
            fallback: FaultFallback::Escape { ttl: 8 },
            dynamics: None,
        });
        let mut probe = TelemetryProbe::new();
        let mut report = s.run_observed(&mut probe).expect("runs");
        probe.attach(&mut report);
        let ext = report.telemetry.as_ref().expect("attached");
        assert!(
            ext.escape_walks.count > 0,
            "expected at least one escape walk on the faulty torus"
        );
        assert!(ext.deflections.counts.len() > 1, "no paid deflections?");
        // Walks are whole hops: at least one, and only the *paid* subset
        // is TTL-bounded, so the upper end is finite but above the TTL.
        assert!(ext.escape_walks.min >= 1.0 && ext.escape_walks.max.is_finite());
    }
}
