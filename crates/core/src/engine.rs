//! The topology-generic simulation core: **one** event loop for every
//! packet-level topology.
//!
//! Before this module existed, the hypercube, butterfly, equivalent-network
//! and pipelined simulators each hand-rolled the same
//! arrival/route/contend/complete machinery (~600 LoC per fork). The
//! per-topology logic — destination sampling, next-arc choice, per-arc
//! bookkeeping, report extensions — is actually a thin skin over a common
//! engine, captured here as the [`EngineSpec`] trait. A topology is now a
//! ~100-line spec — or **zero** lines via the blanket
//! `graph_sim::GraphSpec<T: RoutingTopology>`; everything
//! else — slab packet pool, calendar/heap scheduler, contention policies,
//! warm-up truncation, drain control, metrics, observers — lives here
//! **once**, monomorphised per topology by [`Engine::drive`].
//!
//! # Byte-compatibility with the per-topology loops it replaced
//!
//! The engine replays the retired hand-rolled loops draw for draw: the
//! RNG stream layout (root split order `arrival, dest, route, contention`),
//! the event push order, and every metrics call match exactly, so reports
//! are byte-identical to the pre-refactor engines — the `scenarios/`
//! corpus gate and the differential suites prove it.
//!
//! # Hot-path structure (the PR-1 follow-ups, landed once for all engines)
//!
//! * **Self-scheduling arrival stream out of the event queue.** Arrivals
//!   (and slotted-time slot boundaries) form a self-scheduling chain: each
//!   firing knows the next firing time. Keeping that chain in a one-slot
//!   side channel (`Engine::next_stream`) instead of the scheduler saves
//!   one push + pop per generated packet — the queue holds only service
//!   completions. Merging preserves the old (time, insertion-seq) order:
//!   the queue wins ties, which is exactly where the in-queue arrival
//!   chain's seq numbers put it (completions at a slot instant were always
//!   scheduled before the boundary event that shares their timestamp).
//! * **Next-event prefetch.** After popping a completion the engine peeks
//!   the scheduler's next payload ([`hyperroute_desim::Scheduler::peek_payload`]),
//!   so the next iteration's scheduler state is prepared while the current
//!   event's (data-dependent, cache-hostile) arc state is being updated.
//!   On the calendar backend the useful work is pre-paying the next
//!   *bucket load* (sort + drain-buffer fill) — measured ≈ +5% events/sec
//!   at d = 8, ρ = 0.8. Forcing a read of the payload *bytes* measured
//!   strictly slower: ever since the in-service packet moved inside the
//!   completion event (PR 3), the payload is hot by construction, so only
//!   the reference is taken.

use crate::config::{ArrivalModel, ContentionPolicy};
use crate::metrics::MetricsCollector;
use crate::observe::Observer;
use crate::pool::{ArcBag, ArcFifo, SlabPool};
use crate::profile::{Phase, PhaseTimers, Tick};
use hyperroute_desim::{Scheduler, SchedulerKind, SimRng};

/// Busy flag of a packed per-arc routing word: set while a packet occupies
/// the arc's server (its payload rides in the pending completion event).
/// Specs own bits `0..31` of their [`EngineSpec::arc_meta`] word and must
/// leave this bit clear.
pub const ARC_BUSY: u32 = 1 << 31;

/// What [`EngineSpec::generate`] produced for a newly born packet.
pub enum Spawn<P> {
    /// Destination equals the origin: delivered instantly with zero hops.
    SelfDeliver,
    /// A packet that must be routed, starting at its origin.
    Route(P),
}

/// What happens to a packet after it crosses an arc.
pub enum Advance {
    /// The packet continues from this node (the arc's head).
    Forward(u32),
    /// The packet is at its destination; record a delivery with this hop
    /// count.
    Deliver(u16),
}

/// What [`EngineSpec::choose_arc`] decided for a packet at a node.
///
/// Fault-free specs always return [`ArcChoice::Arc`]; the `Drop` variant
/// exists for faulty-network workloads (Angel et al.'s arc-failure
/// masks), where a packet whose greedy arc is dead and whose fallback
/// finds no live alternative leaves the network undelivered. The engine
/// counts the drop in its [`MetricsCollector`] (keeping the
/// number-in-system trajectory and conservation exact) and notifies the
/// spec through [`EngineSpec::note_drop`].
pub enum ArcChoice {
    /// Enqueue the packet on this arc.
    Arc(u32),
    /// The packet cannot proceed: count it dropped.
    Drop,
}

/// Trace-id sentinel: an [`EnginePacket`] whose representation has no
/// room for a trace id reports this from [`EnginePacket::trace_id`], and
/// telemetry consumers skip hop records carrying it. Real ids are the
/// engine's birth-sequence numbers, which never reach `u32::MAX` in
/// practice (that is ~4·10⁹ packets in one run).
pub const NO_TRACE: u32 = u32::MAX;

/// An in-flight packet the generic engine can carry: `Copy` (it lives in
/// slab slots and scheduler entries) and stamped with its birth time.
pub trait EnginePacket: Copy {
    /// Generation time (drives warm-up truncation of delivery stats).
    fn born(&self) -> f64;

    /// Store the engine-assigned trace id (birth-sequence number) in the
    /// packet. Defaults to discarding it — specs whose packet layout has
    /// spare padding override this (and [`EnginePacket::trace_id`]) to
    /// make the packet traceable by hop-level observers.
    #[inline]
    fn set_trace_id(&mut self, _id: u32) {}

    /// The stored trace id, or [`NO_TRACE`] when the packet is anonymous.
    #[inline]
    fn trace_id(&self) -> u32 {
        NO_TRACE
    }

    /// Non-greedy arc crossings this packet has paid so far (fallback
    /// detours, escape-walk hops). Purely observational; defaults to 0
    /// for specs without deflection state.
    #[inline]
    fn deflections(&self) -> u16 {
        0
    }
}

/// The per-topology half of a packet-level simulation.
///
/// Implementations hold the topology handle, its destination samplers and
/// its per-topology statistics; the [`Engine`] owns everything else. All
/// methods are hot-path — keep them branch-light and allocation-free.
pub trait EngineSpec {
    /// The in-flight packet representation.
    type Pkt: EnginePacket;

    /// Number of packet sources (hypercube nodes, butterfly rows, ring
    /// nodes); arrivals pick one uniformly.
    fn num_sources(&self) -> usize;

    /// Number of directed arcs (dense indices `0..num_arcs()`).
    fn num_arcs(&self) -> usize;

    /// Precomputed routing word of `arc` (target node, dimension/level
    /// bits — whatever [`EngineSpec::advance`] needs), in bits `0..31`.
    /// Bit 31 ([`ARC_BUSY`]) must be clear; the engine owns it.
    fn arc_meta(&self, arc: usize) -> u32;

    /// Expected hops per packet — sizes the scheduler's events-per-unit
    /// hint (correctness never depends on it).
    fn mean_hops_hint(&self) -> f64;

    /// Sample a new packet at `source` born at `t`, drawing from
    /// `dest_rng` exactly as the topology's destination law dictates.
    fn generate(&mut self, t: f64, source: u32, dest_rng: &mut SimRng) -> Spawn<Self::Pkt>;

    /// The arc `pkt` takes out of `node` (mutating `pkt`'s routing state),
    /// plus any per-arc arrival bookkeeping (`in_window` is
    /// `warmup <= t < horizon`). `route_rng` is the dedicated stream for
    /// randomised schemes. Specs with fault masks may return
    /// [`ArcChoice::Drop`] when no usable arc exists.
    fn choose_arc(
        &mut self,
        t: f64,
        in_window: bool,
        node: u32,
        pkt: &mut Self::Pkt,
        route_rng: &mut SimRng,
    ) -> ArcChoice;

    /// A service completed at `t` on the arc with routing word `meta`
    /// (busy bit cleared) — occupancy-style bookkeeping hook.
    fn note_service_end(&mut self, t: f64, meta: u32);

    /// Advance `pkt` across the arc with routing word `meta`: bump its
    /// hop/leg state and decide where it goes next.
    fn advance(&mut self, meta: u32, pkt: &mut Self::Pkt) -> Advance;

    /// A packet is delivered (`in_window` refers to its *birth* time) —
    /// per-topology delivery statistics hook.
    fn note_deliver(&mut self, pkt: &Self::Pkt, in_window: bool);

    /// A packet was dropped after [`EngineSpec::choose_arc`] returned
    /// [`ArcChoice::Drop`] (`in_window` refers to its *birth* time).
    /// Only fault-aware specs ever see this; the default is a no-op.
    fn note_drop(&mut self, _pkt: &Self::Pkt, _in_window: bool) {}

    /// Whether `pkt` is currently walking an escape fallback (queried
    /// right after [`EngineSpec::choose_arc`], so it reflects the hop
    /// just chosen). Drives [`Observer::on_escape_hop`]; specs without
    /// an escape mode keep the default `false`.
    #[inline]
    fn in_escape(&self, _pkt: &Self::Pkt) -> bool {
        false
    }
}

/// Execution parameters of one engine run — the topology-independent
/// subset of a `Scenario`.
#[derive(Clone, Copy, Debug)]
pub struct EngineCfg {
    /// Per-source Poisson generation rate `λ`.
    pub lambda: f64,
    /// Continuous (Poisson) or slotted-batch arrivals (§3.4).
    pub arrivals: ArrivalModel,
    /// Which waiting packet an arc serves next.
    pub contention: ContentionPolicy,
    /// Future-event-list backend (bit-identical results either way).
    pub scheduler: SchedulerKind,
    /// Generation stops at this time.
    pub horizon: f64,
    /// Packets born before this time are not measured.
    pub warmup: f64,
    /// RNG seed; every run is a deterministic function of it.
    pub seed: u64,
    /// Serve out all in-flight packets after the horizon (disable for
    /// instability probes).
    pub drain: bool,
}

/// Per-arc state, exactly 16 bytes: the intrusive waiter list plus the
/// arc's packed routing word (spec bits 0..31, [`ARC_BUSY`] bit 31). Arcs
/// are visited in data-dependent random order, so this is the engine's
/// locality-critical structure — four arcs share a cache line, and the
/// in-service packet rides inside the pending completion event (hot by
/// construction when popped) instead of here.
#[derive(Clone, Copy, Debug)]
struct ArcState {
    waiting: ArcFifo,
    meta: u32,
}

/// The topology-generic event-driven engine. Construct with
/// [`Engine::new`], run with [`Engine::drive`], then read the spec and
/// collector back out to build a report.
pub struct Engine<T: EngineSpec> {
    spec: T,
    cfg: EngineCfg,
    /// One slab for every waiting packet in the network; arcs hold only
    /// intrusive `(head, tail)` lists into it.
    pool: SlabPool<T::Pkt>,
    arcs: Vec<ArcState>,
    /// Indexed waiting storage, allocated (and used) only under
    /// [`ContentionPolicy::Random`] — a uniform pick from an intrusive
    /// list would walk `O(queue)` links.
    bags: Vec<ArcBag<T::Pkt>>,
    /// Service completions only: the arrival stream lives in
    /// `next_stream`, not here.
    events: Scheduler<(u32, T::Pkt)>,
    events_processed: u64,
    /// Next firing of the self-scheduling arrival stream (merged Poisson
    /// arrival or slot boundary), or `None` once generation has ceased.
    next_stream: Option<f64>,
    /// Batched Poisson arrival draws: `(next_time, source)` pairs
    /// pre-drawn in exact stream order (the alternating `exp`/`below`
    /// recurrence), consumed through `arrival_cursor`. Batching is
    /// draw-for-draw invisible — `arrival_rng` feeds nothing else under
    /// the Poisson model, so the eager tail draws past the horizon that
    /// the unbatched path would never make are unobservable — and takes
    /// the refill arithmetic off the per-event path.
    arrival_buf: Vec<(f64, u32)>,
    arrival_cursor: usize,
    arrival_rng: SimRng,
    dest_rng: SimRng,
    route_rng: SimRng,
    contention_rng: SimRng,
    collector: MetricsCollector,
    /// Hot-loop phase timers; a zero-sized no-op unless the crate is
    /// built with `--features profile`.
    timers: PhaseTimers,
}

impl<T: EngineSpec> Engine<T> {
    /// Build an engine around `spec` (allocates the per-arc state).
    pub fn new(spec: T, cfg: EngineCfg) -> Engine<T> {
        let sources = spec.num_sources() as f64;
        let mut root = SimRng::new(cfg.seed);
        let mut arrival_rng = root.split();
        let dest_rng = root.split();
        let route_rng = root.split();
        let contention_rng = root.split();
        // Batch size for the delay CI: aim for ~30 batches over the window.
        let expected = (cfg.lambda * sources * (cfg.horizon - cfg.warmup)).max(64.0);
        let collector = MetricsCollector::new(
            cfg.warmup,
            cfg.horizon,
            (expected / 32.0).ceil() as u64,
            cfg.seed,
        );
        // Calendar sizing hint: arrivals plus one completion per hop.
        let events_per_unit = cfg.lambda * sources * (1.0 + spec.mean_hops_hint());
        let events = Scheduler::new(cfg.scheduler, events_per_unit);
        let next_stream = match cfg.arrivals {
            // First merged arrival (rate λ·sources); deliberately not
            // horizon-checked, mirroring the first in-queue arrival of the
            // retired loops (a near-idle source still fires once).
            ArrivalModel::Poisson => {
                let total_rate = cfg.lambda * sources;
                (total_rate > 0.0).then(|| arrival_rng.exp(total_rate))
            }
            ArrivalModel::Slotted { .. } => Some(0.0),
        };
        let arcs = spec.num_arcs();
        Engine {
            bags: if cfg.contention == ContentionPolicy::Random {
                vec![ArcBag::new(); arcs]
            } else {
                Vec::new()
            },
            pool: SlabPool::with_capacity(1024),
            arcs: (0..arcs)
                .map(|arc| ArcState {
                    waiting: ArcFifo::new(),
                    meta: {
                        let meta = spec.arc_meta(arc);
                        debug_assert_eq!(meta & ARC_BUSY, 0, "spec meta uses the busy bit");
                        meta
                    },
                })
                .collect(),
            spec,
            cfg,
            events,
            events_processed: 0,
            next_stream,
            arrival_buf: Vec::new(),
            arrival_cursor: 0,
            arrival_rng,
            dest_rng,
            route_rng,
            contention_rng,
            collector,
            timers: PhaseTimers::new(),
        }
    }

    /// Drive the simulation to completion under `obs`.
    ///
    /// Monomorphised per `(T, O)`: with
    /// [`NullObserver`](crate::observe::NullObserver) the observer calls
    /// compile away entirely.
    pub fn drive<O: Observer>(&mut self, obs: &mut O) {
        loop {
            // Merge the self-scheduling arrival stream with the completion
            // queue in one scheduler call per iteration. The queue wins
            // ties (`pop_at_or_before` is inclusive) — see the module
            // docs for why this reproduces the retired in-queue arrival
            // order.
            let tick = Tick::start();
            let popped = match self.next_stream {
                Some(stream_t) => self.events.pop_at_or_before(stream_t),
                None => self.events.pop(),
            };
            self.timers.record(Phase::SchedPop, tick);
            let t = match popped {
                Some((t, (arc, pkt))) => {
                    // Software prefetch (PR-1 follow-up): peek the next
                    // event so the scheduler prepares it (calendar: the
                    // next bucket's sort + drain-buffer fill) while this
                    // event's cache-hostile arc update proceeds. See the
                    // module docs for the measurement; the payload bytes
                    // are deliberately not read.
                    if let Some(next) = self.events.peek_payload() {
                        std::hint::black_box(next);
                    }
                    let tick = Tick::start();
                    obs.on_event(t, self.collector.current_in_system());
                    self.timers.record(Phase::Observer, tick);
                    self.events_processed += 1;
                    self.on_complete(t, arc as usize, pkt, obs);
                    t
                }
                None => match self.next_stream {
                    Some(t) => {
                        let tick = Tick::start();
                        obs.on_event(t, self.collector.current_in_system());
                        self.timers.record(Phase::Observer, tick);
                        self.events_processed += 1;
                        match self.cfg.arrivals {
                            ArrivalModel::Poisson => self.on_merged_arrival(t, obs),
                            ArrivalModel::Slotted { .. } => self.on_slot_boundary(t, obs),
                        }
                        t
                    }
                    None => break,
                },
            };
            if !self.cfg.drain && t >= self.cfg.horizon {
                break;
            }
        }
        self.timers.flush();
    }

    /// Poisson arrivals drawn per refill batch (the per-event-class RNG
    /// buffer): one entry is `(t_{k+1}, source_k)` — the recurrence the
    /// unbatched path computed per event, in the same `exp`-then-`below`
    /// draw order, so the consumed stream is bit-identical.
    const ARRIVAL_BATCH: usize = 64;

    #[cold]
    fn refill_arrivals(&mut self, mut t: f64) {
        let total_rate = self.cfg.lambda * self.spec.num_sources() as f64;
        let sources = self.spec.num_sources();
        self.arrival_buf.clear();
        self.arrival_cursor = 0;
        for _ in 0..Self::ARRIVAL_BATCH {
            let next = t + self.arrival_rng.exp(total_rate);
            let source = self.arrival_rng.below(sources) as u32;
            self.arrival_buf.push((next, source));
            t = next;
        }
    }

    fn on_merged_arrival<O: Observer>(&mut self, t: f64, obs: &mut O) {
        // Schedule the next merged arrival first (keeps the stream's draws
        // independent of per-packet sampling).
        if self.arrival_cursor == self.arrival_buf.len() {
            self.refill_arrivals(t);
        }
        let (next, source) = self.arrival_buf[self.arrival_cursor];
        self.arrival_cursor += 1;
        self.next_stream = (next < self.cfg.horizon).then_some(next);
        self.generate(t, source, obs);
    }

    fn on_slot_boundary<O: Observer>(&mut self, t: f64, obs: &mut O) {
        let ArrivalModel::Slotted { slots_per_unit } = self.cfg.arrivals else {
            unreachable!("slot boundary outside slotted model");
        };
        let r = 1.0 / slots_per_unit as f64;
        // Total batch over all sources is Poisson(λ·sources·r), placed
        // uniformly (superposition is exact).
        let mean = self.cfg.lambda * self.spec.num_sources() as f64 * r;
        let batch = self.arrival_rng.poisson(mean);
        for _ in 0..batch {
            let source = self.arrival_rng.below(self.spec.num_sources()) as u32;
            self.generate(t, source, obs);
        }
        let next = t + r;
        self.next_stream = (next < self.cfg.horizon).then_some(next);
    }

    fn generate<O: Observer>(&mut self, t: f64, source: u32, obs: &mut O) {
        // Birth-sequence id: the collector's generated() count *before*
        // this packet is recorded. Deterministic, and costs no RNG draw,
        // so traced and untraced runs stay byte-identical.
        let id = self.collector.generated();
        let tick = Tick::start();
        self.collector.on_generated(t);
        self.timers.record(Phase::Metrics, tick);
        match self.spec.generate(t, source, &mut self.dest_rng) {
            Spawn::SelfDeliver => {
                obs.on_generated(t, id, source);
                self.collector.on_delivered(t, t, 0);
                obs.on_delivered(t, t);
                obs.on_packet_delivered(t, id, t, 0, 0);
            }
            Spawn::Route(mut pkt) => {
                pkt.set_trace_id(id as u32);
                // Read the id back so anonymous packet layouts (no
                // storage) report NO_TRACE here too, matching every
                // later hook for the same packet.
                obs.on_generated(t, pkt.trace_id() as u64, source);
                self.enqueue(t, source, pkt, obs);
            }
        }
    }

    /// Put `pkt` into the queue of the arc the spec chooses out of `node`;
    /// start service if the arc is idle. A spec returning
    /// [`ArcChoice::Drop`] (fault masks with no live fallback) removes the
    /// packet from the system instead: the collector's drop counter and
    /// number-in-system trajectory stay exact, so conservation
    /// (`generated == delivered + dropped`) holds at drain.
    fn enqueue<O: Observer>(&mut self, t: f64, node: u32, mut pkt: T::Pkt, obs: &mut O) {
        let in_window = t >= self.cfg.warmup && t < self.cfg.horizon;
        let tick = Tick::start();
        let choice = self
            .spec
            .choose_arc(t, in_window, node, &mut pkt, &mut self.route_rng);
        self.timers.record(Phase::ArcChoice, tick);
        let arc = match choice {
            ArcChoice::Arc(arc) => arc as usize,
            ArcChoice::Drop => {
                let born = pkt.born();
                let born_in_window = born >= self.cfg.warmup && born < self.cfg.horizon;
                self.spec.note_drop(&pkt, born_in_window);
                self.collector.on_dropped(t);
                obs.on_drop(t, pkt.trace_id() as u64, node);
                return;
            }
        };
        let id = pkt.trace_id() as u64;
        let escape = self.spec.in_escape(&pkt);
        let queue_depth = if self.arcs[arc].meta & ARC_BUSY == 0 {
            self.arcs[arc].meta |= ARC_BUSY;
            self.events.push(t + 1.0, (arc as u32, pkt));
            1
        } else if self.cfg.contention == ContentionPolicy::Random {
            self.bags[arc].insert(pkt);
            1 + self.bags[arc].len() as u32
        } else {
            self.arcs[arc].waiting.push_back(&mut self.pool, pkt);
            1 + self.arcs[arc].waiting.len() as u32
        };
        obs.on_hop(t, id, node, arc as u32, queue_depth);
        if escape {
            obs.on_escape_hop(t, id, node);
        }
    }

    /// Pick the next waiting packet per the contention policy and start
    /// its service. FIFO pops the head of the intrusive list, LIFO the
    /// tail (both `O(1)`). Random draws a uniform position from the arc's
    /// [`ArcBag`] — indexed storage where removal is a `swap_remove`, so
    /// the pick is `O(1)` however long the queue grows.
    fn start_next_service(&mut self, t: f64, arc: usize) {
        debug_assert!(self.arcs[arc].meta & ARC_BUSY != 0);
        let pkt = match self.cfg.contention {
            ContentionPolicy::Fifo => self.arcs[arc].waiting.pop_front(&mut self.pool),
            ContentionPolicy::Lifo => self.arcs[arc].waiting.pop_back(&mut self.pool),
            ContentionPolicy::Random => {
                let len = self.bags[arc].len();
                if len == 0 {
                    None
                } else {
                    let n = self.contention_rng.below(len);
                    self.bags[arc].take(n)
                }
            }
        };
        match pkt {
            Some(pkt) => self.events.push(t + 1.0, (arc as u32, pkt)),
            None => self.arcs[arc].meta &= !ARC_BUSY,
        }
    }

    /// Packets still occupying `arc` (waiting plus any one in service).
    #[inline]
    fn arc_depth(&self, arc: usize) -> u32 {
        let busy = (self.arcs[arc].meta & ARC_BUSY != 0) as u32;
        let waiting = if self.cfg.contention == ContentionPolicy::Random {
            self.bags[arc].len()
        } else {
            self.arcs[arc].waiting.len()
        } as u32;
        busy + waiting
    }

    fn on_complete<O: Observer>(&mut self, t: f64, arc: usize, mut pkt: T::Pkt, obs: &mut O) {
        let meta = self.arcs[arc].meta;
        debug_assert!(meta & ARC_BUSY != 0, "completion on an idle arc");
        let meta = meta & !ARC_BUSY;
        self.spec.note_service_end(t, meta);
        self.start_next_service(t, arc);
        obs.on_service_end(t, arc as u32, self.arc_depth(arc));
        match self.spec.advance(meta, &mut pkt) {
            Advance::Forward(node) => self.enqueue(t, node, pkt, obs),
            Advance::Deliver(hops) => {
                let born = pkt.born();
                let in_window = born >= self.cfg.warmup && born < self.cfg.horizon;
                self.spec.note_deliver(&pkt, in_window);
                let tick = Tick::start();
                self.collector.on_delivered(t, born, hops);
                self.timers.record(Phase::Metrics, tick);
                obs.on_delivered(t, born);
                obs.on_packet_delivered(t, pkt.trace_id() as u64, born, hops, pkt.deflections());
            }
        }
    }

    /// The spec, for report assembly after [`Engine::drive`].
    pub fn spec(&self) -> &T {
        &self.spec
    }

    /// The run parameters.
    pub fn cfg(&self) -> &EngineCfg {
        &self.cfg
    }

    /// The shared metrics collector.
    pub fn collector(&self) -> &MetricsCollector {
        &self.collector
    }

    /// Discrete events processed: arrival-stream firings (merged arrivals
    /// or slot boundaries) plus service completions — the same count the
    /// retired per-topology loops reported.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arc_state_is_16_bytes() {
        // Four arcs per cache line keeps the data-dependent arc walk
        // L1-resident at d = 8 (1024 arcs × 16 B = 16 KiB).
        assert_eq!(std::mem::size_of::<ArcState>(), 16);
    }
}
