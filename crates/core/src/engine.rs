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
//! else — slab packet pool, completion list, contention policies,
//! warm-up truncation, drain control, metrics, observers, the common
//! report fields — lives here **once**, monomorphised per topology by
//! [`Engine::drive`]. `Engine<S>` is itself the
//! [`Simulator`](crate::scenario::Simulator) that
//! [`Scenario::into_simulator`](crate::scenario::Scenario::into_simulator)
//! returns for every packet-level topology.
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
//!   side channel (`Engine::next_stream`) instead of the event queue saves
//!   one push + pop per generated packet — the queue holds only service
//!   completions (the completion list below). Merging preserves the old
//!   (time, insertion-seq) order: the list wins ties, which is exactly
//!   where the in-queue arrival chain's seq numbers put it (completions at
//!   a slot instant were always scheduled before the boundary event that
//!   shares their timestamp).
//! * **Unit-service completion FIFO.** Every arc serves in exactly one
//!   time unit (§1.1, §3), so completions are pushed only at `t + 1.0`,
//!   where `t` is the time of the event being processed — by
//!   `Engine::enqueue` and `Engine::start_next_service`. Events are
//!   processed in nondecreasing time (the merge above), and IEEE
//!   addition is monotone, so push times never decrease: insertion order
//!   *is* `(time, insertion-seq)` order, and a plain FIFO pops exactly
//!   what a heap would. Under [`SchedulerKind::Calendar`] (the default)
//!   the completion list is that FIFO; [`SchedulerKind::Heap`] keeps a
//!   binary heap as the reference the differential tests compare it
//!   against. Debug builds assert the monotone push on every FIFO push.
//!   At most one completion is pending per busy arc, so the FIFO never
//!   holds more than `num_arcs` entries; it grows on demand rather than
//!   reserving that bound (a million-arc small world keeps few arcs busy).
//! * **One 8-byte record per arc: a state word and an arrival count.**
//!   An arc's word is `0` while it is idle, [`ArcList::EMPTY`]'s word
//!   while it is busy with nobody waiting, and otherwise the word of its
//!   waiting list (a one-word ring over the shared slab pool, whose words
//!   are never 0). Beside it sits the arc's saturating count of packets
//!   that joined it inside the measurement window, bumped where
//!   `Engine::enqueue` already reads the word, so a hop touches one
//!   cache line of per-arc state. Every topology's rate fields are sums
//!   of these counts, handed to [`EngineSpec::ext`] as [`ArcArrivals`].
//!   The array is `vec![[0; 2]; n]`, allocated zeroed, so [`Engine::new`]
//!   makes no pass over the arcs: the million-node small world's 6.3M
//!   arcs cost 50 MB. The routing word a spec needs to advance a packet
//!   across an arc (head node, dimension/level bits) is not stored per
//!   arc at all: the spec hands it over with the arc from
//!   [`EngineSpec::choose_arc`], it rides in the pending completion entry
//!   (in what is otherwise padding), and the next waiter on the arc
//!   reuses the completing entry's word.

use crate::config::{ArrivalModel, ContentionPolicy};
use crate::metrics::MetricsCollector;
use crate::observe::Observer;
use crate::pool::{ArcBag, ArcList, SlabPool};
use crate::scenario::{Report, ReportExt, Scenario};
use hyperroute_desim::{EventQueue, SchedulerKind, SimRng};
use std::collections::VecDeque;

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
    /// Enqueue the packet on `arc`. `meta` is the arc's routing word —
    /// whatever [`EngineSpec::advance`] needs to move a packet across it
    /// (head node, dimension/level bits); the engine carries it opaquely.
    Arc {
        /// Dense arc index in `0..num_arcs()`.
        arc: u32,
        /// The arc's routing word, handed back to
        /// [`EngineSpec::note_service_end`] and [`EngineSpec::advance`].
        meta: u32,
    },
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
/// slab slots and completion-list entries) and stamped with its birth time.
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

    /// Sample a new packet at `source` born at `t`, drawing from
    /// `dest_rng` exactly as the topology's destination law dictates.
    fn generate(&mut self, t: f64, source: u32, dest_rng: &mut SimRng) -> Spawn<Self::Pkt>;

    /// The arc `pkt` takes out of `node` at `t` and that arc's routing
    /// word (mutating `pkt`'s routing state); the engine counts the
    /// arrival. An arc's word must be the same whichever packet chooses
    /// it: the next waiter on the arc crosses it with the word of the
    /// packet served before. `route_rng` is the dedicated stream for
    /// randomised schemes. Specs with fault masks may return
    /// [`ArcChoice::Drop`] when no usable arc exists.
    fn choose_arc(
        &mut self,
        t: f64,
        node: u32,
        pkt: &mut Self::Pkt,
        route_rng: &mut SimRng,
    ) -> ArcChoice;

    /// A service completed at `t` on the arc with routing word `meta` —
    /// occupancy-style bookkeeping hook.
    fn note_service_end(&mut self, t: f64, meta: u32);

    /// Advance `pkt` across the arc with routing word `meta`: bump its
    /// hop/leg state and decide where it goes next.
    fn advance(&mut self, meta: u32, pkt: &mut Self::Pkt) -> Advance;

    /// A packet born inside the measurement window is delivered —
    /// per-topology delivery statistics hook. The default is a no-op.
    fn note_deliver(&mut self, _pkt: &Self::Pkt) {}

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

    /// The topology's report extension, rendered once the run is over
    /// from the spec's own statistics, the run's `collector` and the
    /// engine's per-arc in-window `arrivals`.
    fn ext(
        &self,
        cfg: &EngineCfg,
        collector: &MetricsCollector,
        arrivals: ArcArrivals<'_>,
    ) -> ReportExt;
}

/// Each arc's in-window arrival count, in dense arc order: the packets
/// that joined the arc at a time `t` with [`EngineCfg::in_window`].
/// Counts saturate at `u32::MAX` instead of wrapping.
#[derive(Clone)]
pub struct ArcArrivals<'a>(std::slice::Iter<'a, [u32; 2]>);

impl Iterator for ArcArrivals<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        self.0.next().map(|&[_, arrivals]| arrivals)
    }
}

/// Execution parameters of one engine run — the topology-independent
/// subset of a [`Scenario`], built by [`EngineCfg::new`].
#[derive(Clone, Copy, Debug)]
pub struct EngineCfg {
    /// Per-source Poisson generation rate `λ`.
    pub lambda: f64,
    /// Continuous (Poisson) or slotted-batch arrivals (§3.4).
    pub arrivals: ArrivalModel,
    /// Which waiting packet an arc serves next.
    pub contention: ContentionPolicy,
    /// Completion-list backend: the unit-service FIFO
    /// ([`SchedulerKind::Calendar`]) or the reference heap
    /// ([`SchedulerKind::Heap`]); bit-identical results either way.
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

impl EngineCfg {
    /// The run parameters of a validated scenario: its workload's rate
    /// and arrival model, its contention policy and its run control.
    pub fn new(s: &Scenario) -> EngineCfg {
        EngineCfg {
            lambda: s.workload.lambda,
            arrivals: s.workload.arrivals,
            contention: s.policy.contention,
            scheduler: s.run.scheduler,
            horizon: s.run.horizon,
            warmup: s.run.warmup,
            seed: s.run.seed,
            drain: s.run.drain,
        }
    }

    /// Whether `t` lies in the measurement window `[warmup, horizon)`.
    #[inline]
    pub fn in_window(&self, t: f64) -> bool {
        self.warmup <= t && t < self.horizon
    }
}

/// Word of an idle arc.
const IDLE: u32 = 0;

/// Word of a busy arc with nobody waiting: the empty list's word.
const BUSY: u32 = ArcList::EMPTY.word();

/// One pending service completion: `(time, arc, routing word, packet)`.
type Completion<P> = (f64, u32, u32, P);

/// The engine's pending service completions, popped in
/// `(time, insertion)` order — see the module docs for why a FIFO is
/// exact.
enum Completions<P> {
    /// Unit-service FIFO: push times never decrease.
    Fifo(VecDeque<Completion<P>>),
    /// Reference binary heap, for the differential tests.
    Heap(EventQueue<(u32, u32, P)>),
}

impl<P> Completions<P> {
    fn new(kind: SchedulerKind) -> Completions<P> {
        match kind {
            SchedulerKind::Calendar => Completions::Fifo(VecDeque::new()),
            SchedulerKind::Heap => Completions::Heap(EventQueue::new()),
        }
    }

    #[inline]
    fn push(&mut self, time: f64, arc: u32, meta: u32, pkt: P) {
        match self {
            Completions::Fifo(q) => {
                debug_assert!(
                    q.back().is_none_or(|&(last, ..)| last <= time),
                    "completion at {time} pushed behind a later one"
                );
                q.push_back((time, arc, meta, pkt));
            }
            Completions::Heap(q) => q.push(time, (arc, meta, pkt)),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<Completion<P>> {
        match self {
            Completions::Fifo(q) => q.pop_front(),
            Completions::Heap(q) => q.pop().map(|(t, (arc, meta, pkt))| (t, arc, meta, pkt)),
        }
    }

    /// Pop the earliest completion only if it is due at or before `bound`.
    #[inline]
    fn pop_at_or_before(&mut self, bound: f64) -> Option<Completion<P>> {
        match self {
            Completions::Fifo(q) => {
                if q.front().is_some_and(|&(t, ..)| t <= bound) {
                    q.pop_front()
                } else {
                    None
                }
            }
            Completions::Heap(q) => q
                .pop_at_or_before(bound)
                .map(|(t, (arc, meta, pkt))| (t, arc, meta, pkt)),
        }
    }
}

/// The topology-generic event-driven engine. Construct with
/// [`Engine::new`], then [`Engine::run`] it to a [`Report`].
pub struct Engine<T: EngineSpec> {
    spec: T,
    cfg: EngineCfg,
    /// One slab for every waiting packet in the network; arcs hold only
    /// one-word [`ArcList`]s into it.
    pool: SlabPool<T::Pkt>,
    /// One `[word, arrivals]` record per arc: the word is [`IDLE`],
    /// [`BUSY`], or the word of the arc's non-empty waiting list, and
    /// `arrivals` is the arc's saturating in-window arrival count. Arcs
    /// are visited in data-dependent random order, so this is the
    /// engine's locality-critical structure — eight arcs share a cache
    /// line, and the in-service packet and the arc's routing word ride
    /// inside the pending completion entry (hot by construction when
    /// popped) instead of here.
    arcs: Vec<[u32; 2]>,
    /// Indexed waiting storage, allocated (and used) only under
    /// [`ContentionPolicy::Random`] — a uniform pick from an intrusive
    /// list would walk `O(queue)` links.
    bags: Vec<ArcBag<T::Pkt>>,
    /// Service completions only: the arrival stream lives in
    /// `next_stream`, not here.
    completions: Completions<T::Pkt>,
    /// Discrete events processed: arrival-stream firings (merged arrivals
    /// or slot boundaries) plus service completions — the same count the
    /// retired per-topology loops reported.
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
}

impl<T: EngineSpec> Engine<T> {
    /// Build an engine around `spec` (allocates the zeroed per-arc records).
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
            arcs: vec![[0; 2]; arcs],
            spec,
            completions: Completions::new(cfg.scheduler),
            cfg,
            events_processed: 0,
            next_stream,
            arrival_buf: Vec::new(),
            arrival_cursor: 0,
            arrival_rng,
            dest_rng,
            route_rng,
            contention_rng,
            collector,
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
            // list in one call per iteration. The list wins ties
            // (`pop_at_or_before` is inclusive) — see the module docs for
            // why this reproduces the retired in-queue arrival order.
            let popped = match self.next_stream {
                Some(stream_t) => self.completions.pop_at_or_before(stream_t),
                None => self.completions.pop(),
            };
            let t = match popped {
                Some((t, arc, meta, pkt)) => {
                    obs.on_event(t, self.collector.current_in_system());
                    self.events_processed += 1;
                    self.on_complete(t, arc as usize, meta, pkt, obs);
                    t
                }
                None => match self.next_stream {
                    Some(t) => {
                        obs.on_event(t, self.collector.current_in_system());
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
        self.collector.on_generated(t);
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
        let choice = self.spec.choose_arc(t, node, &mut pkt, &mut self.route_rng);
        let (arc, meta) = match choice {
            ArcChoice::Arc { arc, meta } => (arc as usize, meta),
            ArcChoice::Drop => {
                let born_in_window = self.cfg.in_window(pkt.born());
                self.spec.note_drop(&pkt, born_in_window);
                self.collector.on_dropped(t);
                obs.on_drop(t, pkt.trace_id() as u64, node);
                return;
            }
        };
        let id = pkt.trace_id() as u64;
        let escape = self.spec.in_escape(&pkt);
        let [word, arrivals] = &mut self.arcs[arc];
        if self.cfg.in_window(t) {
            *arrivals = arrivals.saturating_add(1);
        }
        let queue_depth = if *word == IDLE {
            *word = BUSY;
            self.completions.push(t + 1.0, arc as u32, meta, pkt);
            1
        } else if self.cfg.contention == ContentionPolicy::Random {
            self.bags[arc].insert(pkt);
            1 + self.bags[arc].len() as u32
        } else {
            let mut waiting = ArcList::from_word(*word);
            let len = if self.cfg.contention == ContentionPolicy::Lifo {
                waiting.push_front(&mut self.pool, pkt)
            } else {
                waiting.push_back(&mut self.pool, pkt)
            };
            *word = waiting.word();
            1 + len as u32
        };
        obs.on_hop(t, id, node, arc as u32, queue_depth);
        if escape {
            obs.on_escape_hop(t, id, node);
        }
    }

    /// Pick the next waiting packet per the contention policy and start
    /// its service on the arc with routing word `meta`. FIFO and LIFO pop
    /// the front of the arc's list (`O(1)`): FIFO pushed waiters at the
    /// back, LIFO at the front. Random draws a uniform position from the
    /// arc's [`ArcBag`] — indexed storage where removal is a
    /// `swap_remove`, so the pick is `O(1)` however long the queue grows.
    fn start_next_service(&mut self, t: f64, arc: usize, meta: u32) {
        debug_assert_ne!(self.arcs[arc][0], IDLE, "service on an idle arc");
        let pkt = match self.cfg.contention {
            ContentionPolicy::Fifo | ContentionPolicy::Lifo => {
                let mut waiting = ArcList::from_word(self.arcs[arc][0]);
                let pkt = waiting.pop_front(&mut self.pool);
                self.arcs[arc][0] = waiting.word();
                pkt
            }
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
            Some(pkt) => self.completions.push(t + 1.0, arc as u32, meta, pkt),
            None => self.arcs[arc][0] = IDLE,
        }
    }

    /// Packets still occupying `arc` (waiting plus any one in service).
    #[inline]
    fn arc_depth(&self, arc: usize) -> u32 {
        let word = self.arcs[arc][0];
        if word == IDLE {
            return 0;
        }
        let waiting = if self.cfg.contention == ContentionPolicy::Random {
            self.bags[arc].len()
        } else {
            ArcList::from_word(word).len(&self.pool)
        };
        1 + waiting as u32
    }

    fn on_complete<O: Observer>(
        &mut self,
        t: f64,
        arc: usize,
        meta: u32,
        mut pkt: T::Pkt,
        obs: &mut O,
    ) {
        self.spec.note_service_end(t, meta);
        self.start_next_service(t, arc, meta);
        obs.on_service_end(t, arc as u32, self.arc_depth(arc));
        match self.spec.advance(meta, &mut pkt) {
            Advance::Forward(node) => self.enqueue(t, node, pkt, obs),
            Advance::Deliver(hops) => {
                let born = pkt.born();
                if self.cfg.in_window(born) {
                    self.spec.note_deliver(&pkt);
                }
                self.collector.on_delivered(t, born, hops);
                obs.on_delivered(t, born);
                obs.on_packet_delivered(t, pkt.trace_id() as u64, born, hops, pkt.deflections());
            }
        }
    }

    /// Drive the simulation to completion under `obs` and summarise: the
    /// collector fills the common [`Report`] fields and the spec renders
    /// its extension. The observer never changes the simulation, so
    /// reports are byte-identical whatever `obs` is.
    pub fn run<O: Observer>(mut self, obs: &mut O) -> Report {
        self.drive(obs);
        let arrivals = ArcArrivals(self.arcs.iter());
        let ext = self.spec.ext(&self.cfg, &self.collector, arrivals);
        self.collector.report(self.events_processed, ext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A spec whose every packet crosses one of `arcs` arcs once.
    struct Star {
        arcs: usize,
    }

    #[derive(Clone, Copy)]
    struct Born(f64);

    impl EnginePacket for Born {
        fn born(&self) -> f64 {
            self.0
        }
    }

    impl EngineSpec for Star {
        type Pkt = Born;
        fn num_sources(&self) -> usize {
            self.arcs
        }
        fn num_arcs(&self) -> usize {
            self.arcs
        }
        fn generate(&mut self, t: f64, _: u32, _: &mut SimRng) -> Spawn<Born> {
            Spawn::Route(Born(t))
        }
        fn choose_arc(&mut self, _: f64, node: u32, _: &mut Born, _: &mut SimRng) -> ArcChoice {
            ArcChoice::Arc {
                arc: node,
                meta: node,
            }
        }
        fn note_service_end(&mut self, _: f64, _: u32) {}
        fn advance(&mut self, _: u32, _: &mut Born) -> Advance {
            Advance::Deliver(1)
        }
        fn ext(&self, _: &EngineCfg, _: &MetricsCollector, _: ArcArrivals<'_>) -> ReportExt {
            unreachable!("the star is driven, never run to a report")
        }
    }

    fn star_cfg(contention: ContentionPolicy) -> EngineCfg {
        EngineCfg {
            lambda: 0.9,
            arrivals: ArrivalModel::Poisson,
            contention,
            scheduler: SchedulerKind::Calendar,
            horizon: 200.0,
            warmup: 0.0,
            seed: 4,
            drain: true,
        }
    }

    #[test]
    fn arc_state_is_one_4_byte_word_per_arc() {
        for contention in [
            ContentionPolicy::Fifo,
            ContentionPolicy::Lifo,
            ContentionPolicy::Random,
        ] {
            let mut engine = Engine::new(Star { arcs: 8 }, star_cfg(contention));
            // The 4-byte state word plus the 4-byte arrival count.
            assert_eq!(std::mem::size_of_val(engine.arcs.as_slice()), 8 * 8);
            engine.drive(&mut crate::observe::NullObserver);
            // Queues formed (λ = 0.9 per unit-service arc), and a drained
            // run leaves every arc idle and every slot free.
            if contention != ContentionPolicy::Random {
                assert!(engine.pool.capacity_used() > 1, "{contention:?}");
            }
            assert!(
                engine.arcs.iter().all(|&[word, _]| word == IDLE),
                "{contention:?}"
            );
            assert!(engine.pool.is_empty(), "{contention:?}");
            assert_eq!(
                engine.collector.delivered_total(),
                engine.collector.generated()
            );
            // The whole run is the window, and every packet crosses one
            // arc: the counts add up to the packets generated.
            let counted: u64 = ArcArrivals(engine.arcs.iter()).map(u64::from).sum();
            assert_eq!(counted, engine.collector.generated(), "{contention:?}");
        }
    }

    #[test]
    fn arc_arrival_counters_saturate_instead_of_wrapping() {
        // Force a count to the brink, then over it: it must pin at
        // u32::MAX, not wrap to 0.
        let mut engine = Engine::new(Star { arcs: 4 }, star_cfg(ContentionPolicy::Fifo));
        engine.arcs[2][1] = u32::MAX - 1;
        for t in [1.0, 2.0] {
            engine.enqueue(t, 2, Born(t), &mut crate::observe::NullObserver);
        }
        let counts: Vec<u32> = ArcArrivals(engine.arcs.iter()).collect();
        assert_eq!(counts, [0, 0, u32::MAX, 0], "must saturate, not wrap");
    }

    #[test]
    fn completion_entries_carry_the_routing_word_in_padding() {
        use std::mem::size_of;
        assert_eq!(size_of::<Completion<crate::packet::Packet>>(), 40);
        assert_eq!(size_of::<Completion<crate::butterfly_sim::BfPacket>>(), 32);
        assert_eq!(size_of::<Completion<crate::graph_sim::GraphPacket>>(), 48);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pushed behind a later one")]
    fn fifo_rejects_a_completion_earlier_than_the_last() {
        let mut fifo = Completions::new(SchedulerKind::Calendar);
        fifo.push(2.0, 0, 0, ());
        fifo.push(1.0, 1, 0, ());
    }
}
